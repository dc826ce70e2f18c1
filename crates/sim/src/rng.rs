//! Deterministic pseudo-random number generation.
//!
//! We implement xoshiro256** (Blackman & Vigna) seeded through splitmix64.
//! Owning the generator (rather than pulling in an external crate) keeps the
//! simulator's determinism guarantee independent of dependency versions:
//! the same seed produces the same experiment forever.

/// xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator (for per-component streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift with rejection to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // -mean * ln(U), with U in (0,1] to avoid ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Weibull-distributed value with shape `beta` and scale `eta`.
    ///
    /// For `beta == 1` this reduces to the exponential distribution with
    /// mean `eta`, which is the model the paper uses for link MTTF
    /// (Appendix D: β = 1, η = 10,000 hours).
    pub fn weibull(&mut self, beta: f64, eta: f64) -> f64 {
        let u = 1.0 - self.f64();
        weibull_at(u, beta, eta)
    }

    /// [`Rng::weibull`] when its value is at most the horizon's limit,
    /// else `None`; the generator moves exactly as `weibull` moves it.
    /// A uniform below [`WeibullHorizon`]'s skip point lands past the
    /// limit whatever `ln`/`powf` round to, so it returns `None`
    /// without computing either.
    pub fn weibull_within(&mut self, h: &WeibullHorizon) -> Option<f64> {
        h.bound(1.0 - self.f64())
    }

    /// Geometric number of failures before the first success, for success
    /// probability `p` (support `0, 1, 2, ...`).
    ///
    /// Sampled by inversion; useful to skip ahead over non-lost packets when
    /// simulating very low loss rates.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.f64(); // in (0, 1]
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty());
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The Weibull draw of the uniform `u` in `(0, 1]`.
fn weibull_at(u: f64, beta: f64, eta: f64) -> f64 {
    eta * (-u.ln()).powf(1.0 / beta)
}

/// A Weibull(`beta`, `eta`) law cut at `limit`, for
/// [`Rng::weibull_within`]. Built once per horizon: it holds the
/// uniform below which a draw certainly lands past the limit.
#[derive(Debug, Clone, Copy)]
pub struct WeibullHorizon {
    beta: f64,
    eta: f64,
    limit: f64,
    skip_below: f64,
}

impl WeibullHorizon {
    /// The law cut at `limit`.
    pub fn new(beta: f64, eta: f64, limit: f64) -> WeibullHorizon {
        // t <= limit exactly when u >= exp(-(limit/eta)^beta). The
        // 1e-9 relative margin is far wider than the few ulps `ln`,
        // `powf` and `exp` can be off by, here and in `weibull_at`; a
        // uniform inside it takes the full path.
        let skip_below = (-(limit / eta).powf(beta)).exp() * (1.0 - 1e-9);
        WeibullHorizon {
            beta,
            eta,
            limit,
            skip_below,
        }
    }

    fn bound(&self, u: f64) -> Option<f64> {
        if u < self.skip_below {
            return None;
        }
        let t = weibull_at(u, self.beta, self.eta);
        (t <= self.limit).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniforms within a thousand ulps of the skip point and of the
    /// exact cut, where the two paths meet: the bound is the draw.
    #[test]
    fn bound_is_the_draw_at_the_cut() {
        for (beta, eta) in [(1.0, 10_000.0), (0.7, 3.0), (2.5, 1e4)] {
            for limit in [1e-9, 24.0, 480.0, 8_760.0] {
                let h = WeibullHorizon::new(beta, eta, limit);
                let cut = (-(limit / eta).powf(beta)).exp();
                for centre in [h.skip_below, cut] {
                    for k in -1_000i64..=1_000 {
                        let u = f64::from_bits((centre.to_bits() as i64 + k) as u64);
                        if !(u > 0.0 && u <= 1.0) {
                            continue;
                        }
                        let t = weibull_at(u, beta, eta);
                        let want = (t <= limit).then_some(t.to_bits());
                        assert_eq!(
                            h.bound(u).map(f64::to_bits),
                            want,
                            "{beta} {eta} {limit} {u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Rng::new(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // each bucket should be ~10,000; allow 5% deviation
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut r = Rng::new(11);
        let p = 1e-2;
        let n = 1_000_000;
        let hits = (0..n).filter(|_| r.bernoulli(p)).count();
        let expect = (n as f64 * p) as usize;
        assert!(
            hits.abs_diff(expect) < expect / 10,
            "hits={hits} expect={expect}"
        );
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = Rng::new(13);
        let mean = 5.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.1, "observed mean {observed}");
    }

    #[test]
    fn weibull_beta1_is_exponential() {
        let mut r = Rng::new(17);
        let eta = 10_000.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.weibull(1.0, eta)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - eta).abs() / eta < 0.02,
            "observed mean {observed}"
        );
    }

    #[test]
    fn geometric_mean_converges() {
        let mut r = Rng::new(19);
        let p = 0.01;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.geometric(p) as f64).sum();
        let observed = sum / n as f64;
        let expect = (1.0 - p) / p; // mean of geometric (failures before success)
        assert!(
            (observed - expect).abs() / expect < 0.05,
            "observed {observed} expect {expect}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(23);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = Rng::new(5);
        let mut a = parent.fork();
        let mut b = parent.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
