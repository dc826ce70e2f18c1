//! Measurement utilities: exact-sample percentiles, CDFs and
//! time-series recorders used by the experiment harnesses. The
//! log-bucketed histogram for unbounded streams is `lg_obs::LogHist`.

use crate::time::Time;
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

    /// The `p`-th percentile (0 ..= 100), or `None` when no samples were
    /// recorded. Unlike [`Samples::quantile`] this never panics on an
    /// empty collector: experiment tails (a protection mode that
    /// completes zero trials, a single-trial smoke run) are legal inputs.
    /// `p = 0` is the minimum, `p = 100` the maximum; a single sample
    /// answers every percentile with itself.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of 0..=100");
        if self.is_empty() {
            return None;
        }
        self.ensure_sorted();
        if p == 0.0 {
            return Some(self.values[0]);
        }
        let n = self.values.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
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

/// A recorder of (time, value) points for time-series plots (Fig 9/21).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a point; times must be non-decreasing.
    pub fn push(&mut self, t: Time, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "time series must be monotonic");
        }
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A windowed rate meter: turns (time, byte-count) increments into a
/// throughput time series with the given sampling interval.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: crate::time::Duration,
    window_start: Time,
    bytes_in_window: u64,
    series: TimeSeries,
}

impl RateMeter {
    /// Meter with the given averaging window.
    pub fn new(window: crate::time::Duration) -> RateMeter {
        RateMeter {
            window,
            window_start: Time::ZERO,
            bytes_in_window: 0,
            series: TimeSeries::new(),
        }
    }

    /// Record `bytes` delivered at time `t`. Closes any elapsed windows.
    pub fn record(&mut self, t: Time, bytes: u64) {
        self.roll_to(t);
        self.bytes_in_window += bytes;
    }

    /// Advance the meter to time `t`, emitting zero-rate windows if idle.
    pub fn roll_to(&mut self, t: Time) {
        while t >= self.window_start + self.window {
            let end = self.window_start + self.window;
            let gbps = (self.bytes_in_window as f64 * 8.0) / self.window.as_secs_f64() / 1e9;
            self.series.push(end, gbps);
            self.bytes_in_window = 0;
            self.window_start = end;
        }
    }

    /// The throughput series accumulated so far (Gb/s per window).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

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
    fn percentile_empty_is_none() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(0.0), None);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.percentile(100.0), None);
    }

    #[test]
    fn percentile_single_sample_answers_everything() {
        let mut s = Samples::new();
        s.record(7.5);
        assert_eq!(s.percentile(0.0), Some(7.5));
        assert_eq!(s.percentile(50.0), Some(7.5));
        assert_eq!(s.percentile(99.9), Some(7.5));
        assert_eq!(s.percentile(100.0), Some(7.5));
    }

    #[test]
    fn percentile_endpoints_and_interior() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        // matches quantile() on the interior
        assert_eq!(s.percentile(75.0), Some(s.quantile(0.75)));
    }

    #[test]
    #[should_panic]
    fn percentile_out_of_range_panics() {
        let mut s = Samples::new();
        s.record(1.0);
        let _ = s.percentile(101.0);
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

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(Duration::from_ms(1));
        // 125_000 bytes in the first millisecond = 1 Gb/s
        m.record(Time::from_us(100), 62_500);
        m.record(Time::from_us(900), 62_500);
        m.roll_to(Time::from_ms(3));
        let pts = m.series().points();
        assert_eq!(pts.len(), 3);
        assert!((pts[0].1 - 1.0).abs() < 1e-9, "first window 1 Gb/s");
        assert_eq!(pts[1].1, 0.0);
        assert_eq!(pts[2].1, 0.0);
    }

    #[test]
    fn time_series_monotonic_push() {
        let mut ts = TimeSeries::new();
        ts.push(Time::from_us(1), 1.0);
        ts.push(Time::from_us(1), 2.0);
        ts.push(Time::from_us(2), 3.0);
        assert_eq!(ts.len(), 3);
    }
}
