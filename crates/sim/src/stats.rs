//! Measurement utilities: exact-sample percentiles and CDFs used by the
//! experiment harnesses. The log-bucketed histogram for unbounded
//! streams is `lg_obs::LogHist`.

use serde::{Deserialize, Serialize};

/// An exact-sample collector with percentile queries.
///
/// Stores every sample; right for FCT experiments (up to a few hundred
/// thousand trials). For unbounded streams use `lg_obs::LogHist`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty collector.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0 ..= 1.0) by the nearest-rank method.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        assert!(!self.is_empty(), "quantile of empty sample set");
        self.ensure_sorted();
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty());
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        self.values[0]
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.values.last().expect("non-empty")
    }

    /// Empirical CDF as (value, cumulative fraction) points, one per sample.
    pub fn ecdf(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.values.len() as f64;
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// ECDF restricted to the top `frac` tail (e.g. 0.01 for the "top 1%"
    /// plots in the paper, which show the CDF from the 99th percentile up).
    pub fn tail_ecdf(&mut self, frac: f64) -> Vec<(f64, f64)> {
        let full = self.ecdf();
        let cut = 1.0 - frac;
        full.into_iter().filter(|&(_, p)| p >= cut).collect()
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_quantiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn samples_ecdf_shape() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        let e = s.ecdf();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0], (1.0, 1.0 / 3.0));
        assert_eq!(e[2], (3.0, 1.0));
        let tail = s.tail_ecdf(0.34);
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let mut s = Samples::new();
        for _ in 0..10 {
            s.record(4.0);
        }
        assert_eq!(s.std_dev(), 0.0);
    }
}
