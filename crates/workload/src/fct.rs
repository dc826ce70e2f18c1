//! Flow-completion-time collection and the percentile report format the
//! paper's FCT figures and Table 2 use.
//!
//! Every sample is kept (FCT experiments run up to a few hundred
//! thousand trials) and percentiles are nearest-rank. The packet
//! fabric's bounded-memory digest is `lg_fabric::FctStream`.

use lg_sim::Duration;
use serde::{Deserialize, Serialize};

/// A collection of FCT samples for one experiment configuration.
#[derive(Debug, Clone, Default)]
pub struct FctCollector {
    /// In microseconds; see [`FctCollector::samples_us`] for the order.
    samples: Vec<f64>,
    sorted: bool,
}

impl FctCollector {
    /// Empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record one flow's completion time.
    pub fn record(&mut self, fct: Duration) {
        self.samples.push(fct.as_us_f64());
        self.sorted = false;
    }

    /// The last completion time recorded, in microseconds.
    ///
    /// # Panics
    /// Panics if nothing was recorded since the samples were last sorted.
    pub fn last_us(&self) -> f64 {
        assert!(!self.sorted, "the last sample is lost once sorted");
        *self.samples.last().expect("a sample recorded")
    }

    /// Record the completion time `us` (microseconds, as
    /// [`FctCollector::last_us`] reads it) `n` times, as `n` trials that
    /// repeat it would.
    pub fn repeat_us(&mut self, us: f64, n: usize) {
        self.samples.extend(std::iter::repeat_n(us, n));
        self.sorted &= n == 0;
    }

    /// Number of flows recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples sorted ascending, in place.
    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        &self.samples
    }

    /// FCT at quantile `q` (0.0 ..= 1.0), in microseconds, by the
    /// nearest-rank method.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        assert!(!self.is_empty(), "quantile of empty sample set");
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted()[rank - 1]
    }

    /// The top-`frac` tail of the FCT CDF as (us, cum_prob) points, one
    /// per sample (Figs 10–12 plot the top 1% / 5%; `frac = 1` is the
    /// whole empirical CDF).
    pub fn tail_cdf(&mut self, frac: f64) -> Vec<(f64, f64)> {
        let cut = 1.0 - frac;
        let sorted = self.sorted();
        let n = sorted.len() as f64;
        sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .filter(|&(_, p)| p >= cut)
            .collect()
    }

    /// Raw samples in microseconds. They are in recording order until
    /// the first [`quantile_us`](Self::quantile_us),
    /// [`tail_cdf`](Self::tail_cdf) or [`report`](Self::report), which
    /// sort them ascending in place; samples recorded after that follow
    /// the sorted ones. Golden-output determinism tests compare this
    /// slice bit-for-bit.
    pub fn samples_us(&self) -> &[f64] {
        &self.samples
    }

    /// Table-2-style row of the top percentiles. The mean and standard
    /// deviation sum the samples in ascending order.
    pub fn report(&mut self) -> FctReport {
        let [p99_us, p999_us, p9999_us, p99999_us] =
            [0.99, 0.999, 0.9999, 0.99999].map(|q| self.quantile_us(q));
        let n = self.samples.len() as f64;
        let mean_us = self.samples.iter().sum::<f64>() / n;
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean_us) * (v - mean_us))
            .sum::<f64>()
            / n;
        FctReport {
            n: self.samples.len(),
            p99_us,
            p999_us,
            p9999_us,
            p99999_us,
            std_dev_us: var.sqrt(),
            mean_us,
        }
    }
}

/// Summary row (Table 2 columns).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FctReport {
    /// Number of trials.
    pub n: usize,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// 99.99th percentile, µs.
    pub p9999_us: f64,
    /// 99.999th percentile, µs.
    pub p99999_us: f64,
    /// Standard deviation, µs.
    pub std_dev_us: f64,
    /// Mean, µs.
    pub mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect_us(values: impl IntoIterator<Item = u64>) -> FctCollector {
        let mut c = FctCollector::new();
        for v in values {
            c.record(Duration::from_us(v));
        }
        c
    }

    #[test]
    fn collects_and_reports() {
        let mut c = collect_us(1..=1000);
        let r = c.report();
        assert_eq!(r.n, 1000);
        assert_eq!(r.p99_us, 990.0);
        assert_eq!(r.p999_us, 999.0);
        assert!((r.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut c = collect_us(1..=100);
        assert_eq!(c.quantile_us(0.5), 50.0);
        assert_eq!(c.quantile_us(0.99), 99.0);
        assert_eq!(c.quantile_us(1.0), 100.0);
        assert_eq!(c.quantile_us(0.0), 1.0);
        assert!((c.report().mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn tail_cdf_covers_requested_fraction() {
        let mut c = collect_us(1..=100);
        let tail = c.tail_cdf(0.05);
        // points with cumulative probability >= 0.95: 95..=100
        assert_eq!(tail.len(), 6);
        assert_eq!(tail.last().unwrap().1, 1.0);
    }

    #[test]
    fn whole_cdf_has_one_point_per_sample() {
        let mut c = collect_us([3, 1, 2]);
        let cdf = c.tail_cdf(1.0);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        assert_eq!(c.tail_cdf(0.34).len(), 2);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let mut c = collect_us([4; 10]);
        assert_eq!(c.report().std_dev_us, 0.0);
    }

    #[test]
    fn samples_keep_recording_order_until_the_first_query_sorts_them() {
        let mut c = collect_us([3, 1, 2]);
        assert_eq!(c.samples_us(), [3.0, 1.0, 2.0]);
        c.quantile_us(0.5);
        assert_eq!(c.samples_us(), [1.0, 2.0, 3.0]);
        c.record(Duration::from_us(0));
        assert_eq!(c.samples_us(), [1.0, 2.0, 3.0, 0.0]);
        c.tail_cdf(0.5);
        assert_eq!(c.samples_us(), [0.0, 1.0, 2.0, 3.0]);
    }

    proptest! {
        /// Quantiles are recorded samples and are monotone in q, from
        /// the smallest sample to the largest.
        #[test]
        fn quantile_monotone(values in proptest::collection::vec(0u64..1_000_000_000_000, 1..300)) {
            let mut c = FctCollector::new();
            for &v in &values {
                c.record(Duration::from_ps(v));
            }
            let us: Vec<f64> = values.iter().map(|&v| Duration::from_ps(v).as_us_f64()).collect();
            let mut last = f64::NEG_INFINITY;
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let v = c.quantile_us(q);
                prop_assert!(v >= last);
                prop_assert!(us.contains(&v), "quantile is an actual sample");
                last = v;
            }
            prop_assert_eq!(c.quantile_us(0.0), us.iter().copied().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(c.quantile_us(1.0), us.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
    }
}
