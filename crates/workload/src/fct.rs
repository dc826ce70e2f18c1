//! Flow-completion-time collection and the percentile report format the
//! paper's FCT figures and Table 2 use.

use lg_sim::{Duration, Samples};
use serde::{Deserialize, Serialize};

/// A collection of FCT samples for one experiment configuration.
#[derive(Debug, Clone, Default)]
pub struct FctCollector {
    samples: Samples,
}

impl FctCollector {
    /// Empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record one flow's completion time.
    pub fn record(&mut self, fct: Duration) {
        self.samples.record(fct.as_us_f64());
    }

    /// Number of flows recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// FCT at quantile `q`, in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.samples.quantile(q)
    }

    /// The top-`frac` tail of the FCT CDF as (us, cum_prob) points
    /// (Figs 10–12 plot the top 1% / 5%).
    pub fn tail_cdf(&mut self, frac: f64) -> Vec<(f64, f64)> {
        self.samples.tail_ecdf(frac)
    }

    /// Raw samples in recording order, in microseconds (golden-output
    /// determinism tests compare these bit-for-bit).
    pub fn samples_us(&self) -> &[f64] {
        self.samples.values()
    }

    /// Table-2-style row of the top percentiles.
    pub fn report(&mut self) -> FctReport {
        FctReport {
            n: self.samples.len(),
            p99_us: self.samples.quantile(0.99),
            p999_us: self.samples.quantile(0.999),
            p9999_us: self.samples.quantile(0.9999),
            p99999_us: self.samples.quantile(0.99999),
            std_dev_us: self.samples.std_dev(),
            mean_us: self.samples.mean(),
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

    #[test]
    fn collects_and_reports() {
        let mut c = FctCollector::new();
        for i in 1..=1000 {
            c.record(Duration::from_us(i));
        }
        let r = c.report();
        assert_eq!(r.n, 1000);
        assert_eq!(r.p99_us, 990.0);
        assert_eq!(r.p999_us, 999.0);
        assert!((r.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn tail_cdf_covers_requested_fraction() {
        let mut c = FctCollector::new();
        for i in 1..=100 {
            c.record(Duration::from_us(i));
        }
        let tail = c.tail_cdf(0.05);
        // points with cumulative probability >= 0.95: 95..=100
        assert_eq!(tail.len(), 6);
        assert_eq!(tail.last().unwrap().1, 1.0);
    }
}
