//! Link-corruption trace generation (Appendix D).
//!
//! Each link's time-to-corruption is Weibull with shape β = 1 (corruption
//! is caused by memoryless external events) and scale η = MTTF =
//! 10,000 hours (Meza et al., IMC'18). Loss rates are drawn from the
//! bucket distribution observed in Microsoft's datacenters (Table 1),
//! log-uniform within each bucket. Repairs take ~2 days for 80% of links
//! and ~4 days for the rest (§4.8).

use lg_sim::{Rng, WeibullHorizon};

/// Hours per simulated time unit: the fabric simulation runs on a coarse
/// clock of hours (f64).
pub type Hours = f64;

/// Link mean-time-to-failure (hours).
pub const MTTF_HOURS: f64 = 10_000.0;
/// Weibull shape parameter (β = 1 → exponential).
pub const WEIBULL_BETA: f64 = 1.0;

/// Table 1: corruption loss-rate buckets and their link fractions.
pub const LOSS_BUCKETS: [(f64, f64, f64); 4] = [
    // (low, high, probability)
    (1e-8, 1e-5, 0.4723),
    (1e-5, 1e-4, 0.1843),
    (1e-4, 1e-3, 0.2166),
    (1e-3, 1e-2, 0.1267),
];

/// Draw a loss rate from the Table 1 distribution (log-uniform within the
/// selected bucket).
pub fn sample_loss_rate(rng: &mut Rng) -> f64 {
    let u = rng.f64();
    let mut acc = 0.0;
    let mut chosen = LOSS_BUCKETS[LOSS_BUCKETS.len() - 1];
    for &bucket in &LOSS_BUCKETS {
        acc += bucket.2;
        if u <= acc {
            chosen = bucket;
            break;
        }
    }
    let (lo, hi, _) = chosen;
    let v = rng.f64();
    (lo.ln() + v * (hi.ln() - lo.ln())).exp()
}

/// Which Table 1 bucket a loss rate falls into (for the Table 1 check).
pub fn bucket_of(rate: f64) -> usize {
    match rate {
        r if r < 1e-5 => 0,
        r if r < 1e-4 => 1,
        r if r < 1e-3 => 2,
        _ => 3,
    }
}

/// Draw the time until a (re)enabled link next starts corrupting.
pub fn sample_time_to_corruption(rng: &mut Rng) -> Hours {
    rng.weibull(WEIBULL_BETA, MTTF_HOURS)
}

/// The law of [`sample_time_to_corruption`] cut at `horizon`: a link's
/// first failure is `rng.weibull_within(&corruption_within(horizon))`,
/// which consumes `rng` as `sample_time_to_corruption` does and skips
/// `ln`/`powf` for most draws that land past the horizon.
pub fn corruption_within(horizon: Hours) -> WeibullHorizon {
    WeibullHorizon::new(WEIBULL_BETA, MTTF_HOURS, horizon)
}

/// Draw a repair duration: ~2 days for 80% of links, ~4 days for the rest.
pub fn sample_repair_hours(rng: &mut Rng) -> Hours {
    if rng.bernoulli(0.8) {
        48.0
    } else {
        96.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rates_match_table1_buckets() {
        let mut rng = Rng::new(42);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[bucket_of(sample_loss_rate(&mut rng))] += 1;
        }
        for (i, &(_, _, p)) in LOSS_BUCKETS.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!((frac - p).abs() < 0.01, "bucket {i}: {frac} expected {p}");
        }
    }

    #[test]
    fn loss_rates_within_support() {
        let mut rng = Rng::new(1);
        for _ in 0..100_000 {
            let r = sample_loss_rate(&mut rng);
            assert!((1e-8..=1e-2).contains(&r), "{r:e}");
        }
    }

    #[test]
    fn mttf_matches_meza() {
        let mut rng = Rng::new(2);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| sample_time_to_corruption(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - MTTF_HOURS).abs() / MTTF_HOURS < 0.02, "{mean}");
    }

    #[test]
    fn repair_time_mix() {
        let mut rng = Rng::new(3);
        let n = 100_000;
        let two_day = (0..n)
            .filter(|_| sample_repair_hours(&mut rng) < 60.0)
            .count();
        let frac = two_day as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "{frac}");
    }

    #[test]
    fn a_year_corrupts_about_58_percent_of_links() {
        // 1 - exp(-8760/10000) ≈ 0.584 of links fail within a year.
        let mut rng = Rng::new(4);
        let year = corruption_within(8_760.0);
        let n = 100_000;
        let failed = (0..n)
            .filter_map(|_| rng.weibull_within(&year))
            .inspect(|&t| assert!((0.0..=8_760.0).contains(&t), "{t}"))
            .count();
        let frac = failed as f64 / n as f64;
        assert!((frac - 0.584).abs() < 0.01, "{frac}");
    }
}
