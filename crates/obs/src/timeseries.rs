//! Streaming time-series telemetry: windowed samples kept online.
//!
//! Components are sampled on a periodic sim event (the world's
//! `Ev::Sample`); each sampled metric feeds a `Series` that maintains
//! an [`Ewma`] plus a fixed-capacity ring of recent windows, so every
//! published point carries the window aggregates (min/max/mean/p99)
//! alongside the raw value. [`WindowedRate`] is the ratio counterpart
//! (errors over frames across the last N polls) used by the health
//! estimator.
//!
//! Everything here is driven by sim time and window ids — no wall
//! clock — so dumps stay byte-identical at any `--threads` value.

use crate::hist::quantile_index;
use crate::json::JsonLine;

/// Exponentially weighted moving average parameterized by half-life.
///
/// With `alpha = 1 - 0.5^(1/half_life)`, an input step decays to half
/// its weight after `half_life` updates: feeding a constant `v` into a
/// zero-seeded Ewma for `n` updates yields `v * (1 - 0.5^(n/half_life))`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    seeded: bool,
}

impl Ewma {
    /// An Ewma with an explicit smoothing factor in `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]: {alpha}");
        Ewma {
            alpha,
            value: 0.0,
            seeded: false,
        }
    }

    /// An Ewma whose memory of a sample halves every `half_life` updates.
    pub fn with_half_life(half_life: f64) -> Ewma {
        assert!(half_life > 0.0, "half-life must be positive: {half_life}");
        Ewma::new(1.0 - 0.5f64.powf(1.0 / half_life))
    }

    /// Feed one sample; the first sample seeds the average directly.
    /// Returns the updated value.
    pub fn update(&mut self, v: f64) -> f64 {
        if self.seeded {
            self.value += self.alpha * (v - self.value);
        } else {
            self.value = v;
            self.seeded = true;
        }
        self.value
    }

    /// Current average (0.0 before the first sample).
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Sliding-window ratio: `sum(num) / sum(den)` over the last `windows`
/// pushes. Pushing beyond capacity evicts the oldest bucket, so the
/// estimate tracks only the recent window — the shape an activation
/// daemon needs to see a burst immediately and to forget it once the
/// link is clean.
#[derive(Debug, Clone)]
pub struct WindowedRate {
    buf: Vec<(u64, u64)>,
    head: usize,
    len: usize,
    num_sum: u64,
    den_sum: u64,
}

impl WindowedRate {
    /// A window spanning the last `windows` pushes (`windows >= 1`).
    pub fn new(windows: usize) -> WindowedRate {
        assert!(windows >= 1, "window must hold at least one bucket");
        WindowedRate {
            buf: vec![(0, 0); windows],
            head: 0,
            len: 0,
            num_sum: 0,
            den_sum: 0,
        }
    }

    /// Push one bucket (e.g. `(errors, frames)` for a poll interval).
    pub fn push(&mut self, num: u64, den: u64) {
        if self.len == self.buf.len() {
            let (n, d) = self.buf[self.head];
            self.num_sum -= n;
            self.den_sum -= d;
        } else {
            self.len += 1;
        }
        self.buf[self.head] = (num, den);
        self.head = (self.head + 1) % self.buf.len();
        self.num_sum += num;
        self.den_sum += den;
    }

    /// `sum(num) / sum(den)` over the window; 0.0 on an empty window.
    pub fn rate(&self) -> f64 {
        if self.den_sum == 0 {
            0.0
        } else {
            self.num_sum as f64 / self.den_sum as f64
        }
    }

    /// Numerator total over the window.
    pub fn num(&self) -> u64 {
        self.num_sum
    }

    /// Denominator total over the window.
    pub fn den(&self) -> u64 {
        self.den_sum
    }

    /// Buckets currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Fixed-capacity ring of `(window_id, value)` samples; pushing past
/// capacity overwrites the oldest.
#[derive(Debug, Clone)]
struct SeriesRing {
    buf: Vec<(u64, f64)>,
    head: usize,
    len: usize,
}

impl SeriesRing {
    /// A ring holding the last `cap` samples (`cap >= 1`).
    fn new(cap: usize) -> SeriesRing {
        assert!(cap >= 1, "ring must hold at least one sample");
        SeriesRing {
            buf: vec![(0, 0.0); cap],
            head: 0,
            len: 0,
        }
    }

    /// Append a sample, evicting the oldest at capacity.
    fn push(&mut self, window_id: u64, value: f64) {
        self.buf[self.head] = (window_id, value);
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Iterate the held samples, oldest first.
    fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| self.buf[(start + i) % cap])
    }
}

/// One tracked metric: its ring of recent windows plus an Ewma.
#[derive(Debug, Clone)]
struct Series {
    ring: SeriesRing,
    ewma: Ewma,
    last_window: Option<u64>,
}

/// A stored sample point. Only the raw value and the (online) Ewma are
/// captured on the hot path; the trailing-window aggregates are a pure
/// function of each series' preceding values, so they are recomputed by
/// replay at drain time — rendering is also when the run label becomes
/// known.
#[derive(Debug, Clone, Copy)]
struct Row {
    t_ps: u64,
    window_id: u64,
    key: usize,
    value: f64,
    ewma: f64,
}

/// A bank of named series, one per `(comp, inst, name)`, accumulating
/// one `timeseries` JSONL row per sample.
///
/// Window ids must be fed in strictly increasing order per series;
/// the bank panics (debug) on a regression since downstream consumers
/// (`obs_validate`) reject non-monotone window ids.
pub struct SeriesBank {
    ring_cap: usize,
    half_life: f64,
    keys: Vec<(String, String, String)>,
    series: Vec<Series>,
    rows: Vec<Row>,
    /// Reused percentile buffer: `sample` runs on every tick of the sim's
    /// sampling event, so it must not allocate.
    scratch: Vec<f64>,
}

impl SeriesBank {
    /// A bank whose series keep `ring_cap` windows and smooth with the
    /// given Ewma half-life (in windows).
    pub fn new(ring_cap: usize, half_life: f64) -> SeriesBank {
        SeriesBank {
            ring_cap,
            half_life,
            keys: Vec::new(),
            series: Vec::new(),
            rows: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Intern a series key, returning a stable index for
    /// [`SeriesBank::sample_at`] — callers on a per-event hot path
    /// intern once and skip the string comparisons on every sample.
    pub fn key(&mut self, comp: &str, inst: &str, name: &str) -> usize {
        if let Some(i) = self
            .keys
            .iter()
            .position(|(c, i2, n)| c == comp && i2 == inst && n == name)
        {
            return i;
        }
        self.keys
            .push((comp.to_string(), inst.to_string(), name.to_string()));
        self.series.push(Series {
            ring: SeriesRing::new(self.ring_cap),
            ewma: Ewma::with_half_life(self.half_life),
            last_window: None,
        });
        self.keys.len() - 1
    }

    /// Feed one sampled value for the series interned as `idx` at
    /// sim-time `t_ps`, window `window_id` (strictly increasing per
    /// series).
    pub fn sample_at(&mut self, idx: usize, t_ps: u64, window_id: u64, value: f64) {
        let s = &mut self.series[idx];
        if let Some(last) = s.last_window {
            debug_assert!(
                window_id > last,
                "window ids must be monotone: {window_id} after {last}"
            );
        }
        s.last_window = Some(window_id);
        let ewma = s.ewma.update(value);
        self.rows.push(Row {
            t_ps,
            window_id,
            key: idx,
            value,
            ewma,
        });
    }

    /// Number of accumulated sample rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no samples have been fed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render every accumulated row as a `timeseries` JSONL line tagged
    /// with the run label, in sample order, and clear the buffer.
    pub fn drain_jsonl(&mut self, run: &str) -> Vec<String> {
        let rows = std::mem::take(&mut self.rows);
        rows.into_iter()
            .map(|r| {
                // Replay this sample into its series' ring and compute
                // the trailing-window aggregates now, off the hot path.
                // Ring state persists across drains, so repeated
                // publishes continue seamlessly.
                let s = &mut self.series[r.key];
                s.ring.push(r.window_id, r.value);
                let (mut mn, mut mx, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
                self.scratch.clear();
                for (_, v) in s.ring.iter() {
                    mn = mn.min(v);
                    mx = mx.max(v);
                    sum += v;
                    self.scratch.push(v);
                }
                let n = self.scratch.len();
                let p99_idx = quantile_index(n, 0.99);
                let (_, p99, _) = self.scratch.select_nth_unstable_by(p99_idx, |a, b| {
                    a.partial_cmp(b).expect("no NaN samples")
                });
                let win_p99 = *p99;
                let (comp, inst, name) = &self.keys[r.key];
                let mut l = JsonLine::new();
                l.str("type", "timeseries")
                    .u64("t_ps", r.t_ps)
                    .u64("window_id", r.window_id)
                    .str("run", run)
                    .str("comp", comp)
                    .str("inst", inst)
                    .str("name", name)
                    .f64("value", r.value)
                    .f64("ewma", r.ewma)
                    .f64("win_min", mn)
                    .f64("win_max", mx)
                    .f64("win_mean", sum / n as f64)
                    .f64("win_p99", win_p99);
                l.finish()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_half_life_decay() {
        // Zero-seeded, then half_life updates of 1.0 lands exactly on 0.5.
        let mut e = Ewma::with_half_life(10.0);
        e.update(0.0);
        for _ in 0..10 {
            e.update(1.0);
        }
        assert!((e.value() - 0.5).abs() < 1e-12, "{}", e.value());
        // Twice the half-life: three quarters of the way there.
        for _ in 0..10 {
            e.update(1.0);
        }
        assert!((e.value() - 0.75).abs() < 1e-12, "{}", e.value());
    }

    #[test]
    fn ewma_first_sample_seeds() {
        let mut e = Ewma::with_half_life(4.0);
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.update(42.0), 42.0, "no decay toward the zero start");
    }

    #[test]
    fn windowed_rate_evicts_old_buckets() {
        let mut w = WindowedRate::new(3);
        assert_eq!(w.rate(), 0.0);
        w.push(1, 100);
        w.push(1, 100);
        w.push(1, 100);
        assert!((w.rate() - 0.01).abs() < 1e-12);
        // A clean bucket evicts one dirty one.
        w.push(0, 100);
        assert!((w.rate() - 2.0 / 300.0).abs() < 1e-12);
        w.push(0, 100);
        w.push(0, 100);
        assert_eq!(w.rate(), 0.0, "window fully clean again");
        assert_eq!(w.den(), 300);
    }

    #[test]
    fn series_ring_wraps_oldest_first() {
        let mut r = SeriesRing::new(4);
        for (i, v) in [5.0, 1.0, 9.0, 3.0, 7.0].iter().enumerate() {
            r.push(i as u64, *v);
        }
        // capacity 4: the 5.0 fell out
        let held: Vec<(u64, f64)> = r.iter().collect();
        assert_eq!(held, vec![(1, 1.0), (2, 9.0), (3, 3.0), (4, 7.0)]);
    }

    #[test]
    fn bank_emits_tagged_monotone_rows() {
        let mut b = SeriesBank::new(8, 4.0);
        let q = b.key("switch_port", "sw_tx:0", "qdepth_bytes");
        let rx = b.key("lg_receiver", "fwd", "rx_buffer_bytes");
        assert_eq!(
            b.key("switch_port", "sw_tx:0", "qdepth_bytes"),
            q,
            "interned"
        );
        b.sample_at(q, 1_000, 1, 100.0);
        b.sample_at(q, 2_000, 2, 300.0);
        b.sample_at(rx, 2_000, 2, 50.0);
        assert_eq!(b.len(), 3);
        let lines = b.drain_jsonl("fig9/a");
        assert!(b.is_empty());
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\":\"timeseries\""));
        assert!(lines[0].contains("\"run\":\"fig9/a\""));
        assert!(lines[1].contains("\"window_id\":2"));
        // parses as JSON; the second qdepth row's Ewma sits between the
        // two samples, and its window aggregates span both
        let row = crate::json::parse(&lines[1]).unwrap();
        let num = |k: &str| row.get(k).and_then(|v| v.as_num()).unwrap();
        assert!(num("ewma") > 100.0 && num("ewma") < 300.0);
        assert_eq!(
            (num("win_min"), num("win_max"), num("win_mean")),
            (100.0, 300.0, 200.0)
        );
        for l in &lines {
            crate::json::parse(l).unwrap();
        }
    }
}
