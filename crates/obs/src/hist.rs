//! Log-bucketed histogram: the workspace's one histogram, used for
//! registry metrics, streaming FCT quantiles and LinkGuardian's
//! retransmission delays (Fig 19).
//!
//! Power-of-two buckets with linear sub-buckets, HdrHistogram-style;
//! dependency-free so `lg-obs` stays at the bottom of the crate graph.
//! Bounded relative error `1/sub_buckets`, constant memory, O(1) record.
//!
//! [`quantile_index`] is the rank rule for retained, sorted samples.

/// A histogram over `u64` values with logarithmic buckets.
#[derive(Debug, Clone)]
pub struct LogHist {
    sub: u32,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// A compact quantile summary of a histogram (what goes into JSONL).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Mean of recorded values (0 when empty).
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl LogHist {
    /// A histogram with `sub_buckets` linear sub-buckets per octave
    /// (relative error ≤ 1/sub_buckets).
    pub fn new(sub_buckets: u32) -> LogHist {
        assert!(sub_buckets.is_power_of_two(), "sub_buckets: power of two");
        LogHist {
            sub: sub_buckets,
            counts: vec![0; (65 * sub_buckets) as usize],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(&self, v: u64) -> usize {
        if v < self.sub as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let shift = octave - self.sub.trailing_zeros();
        let sub = (v >> shift) - self.sub as u64;
        ((octave - self.sub.trailing_zeros() + 1) as u64 * self.sub as u64 + sub) as usize
    }

    /// Upper bound of bucket `i` (the value reported for quantiles).
    fn bucket_bound(&self, i: usize) -> u64 {
        let i = i as u64;
        let sub = self.sub as u64;
        if i < sub {
            return i;
        }
        let octave = (i / sub) - 1 + sub.trailing_zeros() as u64;
        let within = i % sub;
        let shift = (octave - sub.trailing_zeros() as u64) as u32;
        // The topmost octave's upper bound exceeds u64; saturate via u128.
        let bound = (((sub + within + 1) as u128) << shift) - 1;
        bound.min(u64::MAX as u128) as u64
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = self.bucket(v);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound, clamped to
    /// the observed max); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of 0..=1");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        self.value_at_rank(rank).expect("rank within count")
    }

    /// Value whose 1-based ascending rank is `rank` (bucket upper bound,
    /// clamped to the observed max). Returns `None` when empty or when
    /// `rank` is 0 / past the count. Lets callers that track exact ranks
    /// (e.g. a streaming aggregator answering below its tail reservoir)
    /// share one bucket walk with [`quantile`](Self::quantile).
    pub fn value_at_rank(&self, rank: u64) -> Option<u64> {
        if rank == 0 || rank > self.total {
            return None;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one (bucket-wise count add).
    /// Both must use the same sub-bucket resolution. Merging is exact:
    /// the merged histogram is indistinguishable from one that recorded
    /// both value streams directly, so merge order cannot change any
    /// quantile — the determinism argument for per-shard aggregation.
    pub fn merge(&mut self, other: &LogHist) {
        assert_eq!(
            self.sub, other.sub,
            "merging histograms of different resolution"
        );
        for (c, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The quantile summary serialized into metric snapshots.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.total,
            min: self.min(),
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
        }
    }
}

/// Index of the `q`-quantile (`q` in `[0, 1]`) in an ascending slice of
/// `len` values: `round((len − 1)·q)`, clamped to the last index (0 when
/// `len` is 0). The one rank rule for retained samples: the packet
/// fabric's retained FCTs, `FctStream`'s exact tail, the analyzer's
/// percentiles and the time-series window p99 all index through it.
/// [`LogHist::quantile`] and `lg_workload::FctCollector` use nearest
/// rank (`ceil(q·n)`) instead.
pub fn quantile_index(len: usize, q: f64) -> usize {
    let last = len.saturating_sub(1);
    ((last as f64 * q).round() as usize).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sub_buckets() {
        let mut h = LogHist::new(16);
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.len(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn bounded_relative_error() {
        let mut h = LogHist::new(64);
        for v in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let mut h1 = LogHist::new(64);
            h1.record(v);
            let got = h1.quantile(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 64.0 + 1e-9, "v={v} got={got} err={err}");
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.summary().count, 5);
        // A 100k-value uniform stream over [0, 1e6): p50 and p99.9 land
        // within one bucket width of the exact ranks.
        let mut u = LogHist::new(64);
        for i in 0..100_000u64 {
            u.record(i * 10);
        }
        for (q, exact) in [(0.5, 499_990.0), (0.999, 998_990.0)] {
            let got = u.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 1.0 / 64.0 + 1e-9, "q={q} got={got} err={err}");
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let h = LogHist::new(16);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_direct_recording() {
        let mut a = LogHist::new(64);
        let mut b = LogHist::new(64);
        let mut direct = LogHist::new(64);
        for v in [3u64, 17, 900, 4096, 77_000_000] {
            a.record(v);
            direct.record(v);
        }
        for v in [5u64, 250, 250, 1_000_000] {
            b.record(v);
            direct.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), direct.len());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), direct.quantile(q), "q={q}");
        }
        let (sa, sd) = (a.summary(), direct.summary());
        assert_eq!(sa.min, sd.min);
        assert_eq!(sa.max, sd.max);
        assert!((sa.mean - sd.mean).abs() < 1e-9);
    }

    #[test]
    fn rank_walk_matches_quantile_convention() {
        let mut h = LogHist::new(16);
        for v in 0..10 {
            h.record(v);
        }
        assert_eq!(h.value_at_rank(0), None);
        assert_eq!(h.value_at_rank(11), None);
        assert_eq!(h.value_at_rank(1), Some(0));
        assert_eq!(h.value_at_rank(10), Some(9));
        // quantile(q) is value_at_rank(ceil(q*n)) by construction.
        assert_eq!(Some(h.quantile(0.5)), h.value_at_rank(5));
    }

    #[test]
    fn mean_and_minmax() {
        let mut h = LogHist::new(16);
        h.record(10);
        h.record(30);
        let s = h.summary();
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_index_matches_a_sorted_vec() {
        // (len, the value at q = 0, 0.5, 0.99, 0.999, 1) for the samples
        // 10·i + 1, recorded in descending order and sorted.
        let table: [(u64, [u64; 5]); 3] = [
            (1, [1, 1, 1, 1, 1]),
            (2, [1, 11, 11, 11, 11]),
            (1000, [1, 5001, 9891, 9981, 9991]),
        ];
        for (len, want) in table {
            let mut sorted: Vec<u64> = (0..len).rev().map(|i| 10 * i + 1).collect();
            sorted.sort_unstable();
            for (q, want) in [0.0, 0.5, 0.99, 0.999, 1.0].into_iter().zip(want) {
                let i = quantile_index(sorted.len(), q);
                assert_eq!(sorted[i], want, "len={len} q={q}");
            }
        }
        assert_eq!(quantile_index(0, 0.5), 0);
    }
}
