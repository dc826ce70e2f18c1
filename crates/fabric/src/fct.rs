//! Streaming flow-completion-time aggregation.
//!
//! The packet engine used to retain every `(flow, fct)` pair and sort
//! at the end — O(flows) memory, which is exactly what a fabric-scale
//! run cannot afford. [`FctStream`] replaces the retained vector with
//! two fixed-size structures per shard:
//!
//! * a log-bucketed histogram ([`lg_obs::LogHist`], 64 sub-buckets →
//!   relative error ≤ 1/64) recording *every* completion, and
//! * an exact top-K *tail reservoir*: a min-heap over the K largest
//!   FCTs seen, so the slowest K flows are kept exactly.
//!
//! Quantiles resolve against the reservoir when their rank falls inside
//! it (the tail — p99/p999 at any realistic flow count — is exact) and
//! against the histogram otherwise. With `K` of 65536, p999 stays exact
//! up to ~65M flows and p50 up to 128K flows; the pod-scale fixtures sit
//! entirely inside the reservoir, which is what lets the differential
//! test demand bit-for-bit agreement with the retained-vector path.
//!
//! ## Determinism under merging
//!
//! Per-shard streams merge into one global stream at collect time.
//! Histogram merging is bucket-wise addition — exact, so merge order
//! cannot change any histogram answer (see [`lg_obs::LogHist::merge`]). The
//! reservoir merge keeps the K largest of the union of two top-K sets,
//! which equals the top-K multiset of the union of the underlying
//! streams; a multiset has no order, so the merged reservoir is the
//! same whatever the shard layout or merge order. Both halves being
//! layout-invariant, the digest is too — the packet engine's
//! byte-identical-across-shards contract survives dropping the
//! retained vector.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lg_obs::hist::quantile_index;
use lg_obs::LogHist;

/// Sub-bucket resolution of the FCT histogram.
const SUB_BUCKETS: u32 = 64;

/// Incremental FCT aggregator: O(buckets + K) memory however many
/// flows complete. A [`LogHist`] records every value; a min-heap keeps
/// the `tail_k` largest exactly.
#[derive(Debug)]
pub struct FctStream {
    hist: LogHist,
    tail: BinaryHeap<Reverse<u64>>,
    k: usize,
}

/// Fixed quantile summary of a finished stream. All fields are exact
/// except where a quantile's rank falls outside the tail reservoir, in
/// which case it is a histogram bucket bound (relative error ≤ 1/64).
/// Plain `u64`s keep it `Eq`, so differential tests compare digests
/// directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FctDigest {
    /// Completions recorded.
    pub count: u64,
    /// Smallest FCT (exact; 0 when empty).
    pub min: u64,
    /// Largest FCT (exact; 0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl FctStream {
    /// A stream retaining the `tail_k` largest values exactly.
    pub fn new(tail_k: usize) -> FctStream {
        FctStream {
            hist: LogHist::new(SUB_BUCKETS),
            tail: BinaryHeap::with_capacity(tail_k.saturating_add(1)),
            k: tail_k,
        }
    }

    /// Record one completion time.
    pub fn record(&mut self, fct: u64) {
        self.hist.record(fct);
        self.offer_tail(fct);
    }

    fn offer_tail(&mut self, v: u64) {
        if self.k == 0 {
            return;
        }
        if self.tail.len() < self.k {
            self.tail.push(Reverse(v));
        } else if v > self.tail.peek().expect("non-empty at capacity").0 {
            self.tail.pop();
            self.tail.push(Reverse(v));
        }
    }

    /// Completions recorded.
    pub fn len(&self) -> u64 {
        self.hist.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Merge another stream (consumed) into this one. The result is
    /// indistinguishable from one stream that recorded both inputs, so
    /// merge order cannot change the digest (see module docs).
    pub fn merge(&mut self, other: FctStream) {
        assert_eq!(self.k, other.k, "merging streams of different tail size");
        self.hist.merge(&other.hist);
        for Reverse(v) in other.tail {
            self.offer_tail(v);
        }
    }

    /// The tail reservoir sorted descending, so one sort serves every
    /// query of a digest.
    fn tail_desc(&self) -> Vec<u64> {
        let mut desc: Vec<u64> = self.tail.iter().map(|&Reverse(v)| v).collect();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        desc
    }

    /// [`FctStream::quantile`] against the tail as sorted by
    /// [`FctStream::tail_desc`].
    fn quantile_with_tail(&self, desc: &[u64], q: f64) -> u64 {
        let count = self.hist.len();
        if count == 0 {
            return 0;
        }
        let i = quantile_index(count as usize, q) as u64;
        let from_top = (count - 1 - i) as usize;
        if from_top < desc.len() {
            desc[from_top]
        } else {
            self.hist.value_at_rank(i + 1).expect("rank within count")
        }
    }

    /// Value at quantile `q` in `[0, 1]`, reproducing the retained-Vec
    /// convention (rank `i` from [`quantile_index`] into the ascending sort):
    /// exact via the tail reservoir when rank `i` falls inside it, a
    /// histogram bucket bound otherwise. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_with_tail(&self.tail_desc(), q)
    }

    /// The fixed quantile summary (shares one tail sort).
    pub fn digest(&self) -> FctDigest {
        if self.is_empty() {
            return FctDigest::default();
        }
        let desc = self.tail_desc();
        FctDigest {
            count: self.hist.len(),
            min: self.hist.min(),
            max: self.hist.max(),
            p50: self.quantile_with_tail(&desc, 0.5),
            p99: self.quantile_with_tail(&desc, 0.99),
            p999: self.quantile_with_tail(&desc, 0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_sim::Rng;

    /// The retained-Vec convention the stream must reproduce, written
    /// out rather than borrowed from the stream's own rank function.
    fn vec_percentile(sorted: &[u64], q: f64) -> u64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    fn sample(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| (rng.exp(50_000.0) as u64).max(1) + rng.below(1000))
            .collect()
    }

    #[test]
    fn covered_quantiles_match_vec_path_exactly() {
        let vals = sample(5000, 11);
        let mut s = FctStream::new(8192); // tail covers everything
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), vec_percentile(&sorted, q), "q={q}");
        }
        let d = s.digest();
        assert_eq!(d.count, vals.len() as u64);
        assert_eq!(d.min, sorted[0]);
        assert_eq!(d.max, *sorted.last().unwrap());
        assert_eq!(d.p50, vec_percentile(&sorted, 0.5));
        assert_eq!(d.p999, vec_percentile(&sorted, 0.999));
    }

    #[test]
    fn small_tail_keeps_the_top_exact_and_bounds_the_rest() {
        let vals = sample(10_000, 7);
        let mut s = FctStream::new(128); // covers ~top 1.28%
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        // p99 and p999 ranks fall inside the 128-deep tail: exact.
        for q in [0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), vec_percentile(&sorted, q), "q={q}");
        }
        // p50 falls back to the histogram: bounded relative error.
        let (got, want) = (s.quantile(0.5) as f64, vec_percentile(&sorted, 0.5) as f64);
        assert!(
            (got - want).abs() / want <= 1.0 / 64.0 + 1e-9,
            "{got} vs {want}"
        );
    }

    #[test]
    fn merge_is_layout_invariant() {
        let vals = sample(4000, 3);
        let mut whole = FctStream::new(256);
        for &v in &vals {
            whole.record(v);
        }
        // Split into 1, 3, and 7 shards and merge in different orders.
        for parts in [1usize, 3, 7] {
            let mut shards: Vec<FctStream> = (0..parts).map(|_| FctStream::new(256)).collect();
            for (i, &v) in vals.iter().enumerate() {
                shards[i % parts].record(v);
            }
            shards.reverse(); // merge order must not matter
            let mut merged = shards.pop().unwrap();
            for s in shards {
                merged.merge(s);
            }
            assert_eq!(merged.digest(), whole.digest(), "parts={parts}");
            for q in [0.0, 1.0] {
                assert_eq!(merged.quantile(q), whole.quantile(q), "parts={parts} q={q}");
            }
            assert_eq!(merged.len(), whole.len());
        }
    }

    #[test]
    fn empty_and_zero_k_streams_behave() {
        let s = FctStream::new(64);
        assert!(s.is_empty());
        assert_eq!(s.digest(), FctDigest::default());
        assert_eq!(s.quantile(0.5), 0);

        let mut z = FctStream::new(0); // histogram-only
        for v in [10u64, 20, 30, 40] {
            z.record(v);
        }
        assert_eq!(z.digest().count, 4);
        assert_eq!(z.digest().max, 40);
        // Values below SUB_BUCKETS land in exact unit buckets.
        assert_eq!(z.quantile(1.0), 40);
    }
}
