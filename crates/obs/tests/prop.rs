//! Property tests for the trace ring.

use lg_obs::trace::{Comp, Kind, TraceRecord, TraceRing};
use proptest::prelude::*;

fn rec(t_ps: u64, seq: u64) -> TraceRecord {
    TraceRecord {
        t_ps,
        uid: seq + 1,
        seq,
        aux: 0,
        inst: 0,
        comp: Comp::Port,
        kind: Kind::TxDone,
    }
}

proptest! {
    /// Wraparound keeps order: whatever the capacity and push count, a
    /// drain returns a contiguous suffix of the pushed sequence —
    /// record i always precedes record i+1, and in particular records
    /// sharing one sim-time tick are never reordered by the overwrite
    /// path.
    #[test]
    fn ring_wraparound_never_reorders(
        cap in 1usize..64,
        pushes in proptest::collection::vec(0u64..5, 0..300),
    ) {
        let mut ring = TraceRing::new(cap);
        // Non-decreasing timestamps with runs of equal ticks, as the
        // event loop produces; seq is the global emission index.
        let mut t = 0u64;
        let mut all = Vec::new();
        for (i, dt) in pushes.iter().enumerate() {
            t += dt; // dt = 0 keeps several records on one tick
            let r = rec(t, i as u64);
            all.push(r);
            ring.push(r);
        }
        let n = all.len();
        let kept = ring.drain();
        prop_assert_eq!(kept.len(), n.min(cap));
        prop_assert_eq!(ring.dropped(), 0, "drain resets drop accounting");
        // Exactly the newest records, in emission order.
        let expect = &all[n - kept.len()..];
        for (k, e) in kept.iter().zip(expect) {
            prop_assert_eq!(k.seq, e.seq);
            prop_assert_eq!(k.t_ps, e.t_ps);
        }
        // Within any one tick, seq (emission order) stays increasing.
        for w in kept.windows(2) {
            prop_assert!(w[0].t_ps <= w[1].t_ps);
            if w[0].t_ps == w[1].t_ps {
                prop_assert!(w[0].seq < w[1].seq, "same-tick records reordered");
            }
        }
    }

    /// Drop accounting matches exactly what fell off the ring.
    #[test]
    fn ring_drop_count_exact(cap in 1usize..32, n in 0usize..200) {
        let mut ring = TraceRing::new(cap);
        for i in 0..n {
            ring.push(rec(i as u64, i as u64));
        }
        prop_assert_eq!(ring.dropped() as usize, n.saturating_sub(cap));
        prop_assert_eq!(ring.len(), n.min(cap));
    }
}

mod timeseries_props {
    use lg_obs::{Ewma, WindowedRate};
    use proptest::prelude::*;

    proptest! {
        /// The incremental sliding-window rate equals a brute-force
        /// recount of the last `cap` buckets, at every step, whatever
        /// the push sequence — the eviction bookkeeping never drifts.
        #[test]
        fn windowed_rate_matches_brute_force_recount(
            cap in 1usize..12,
            buckets in proptest::collection::vec((0u64..1000, 0u64..100_000), 0..200),
        ) {
            let mut w = WindowedRate::new(cap);
            for (i, &(errors, frames)) in buckets.iter().enumerate() {
                // Errors can't exceed frames in real polls, but the
                // window must stay exact either way, so don't clamp.
                w.push(errors, frames);
                let tail = &buckets[i.saturating_sub(cap - 1)..=i];
                let num: u64 = tail.iter().map(|&(n, _)| n).sum();
                let den: u64 = tail.iter().map(|&(_, d)| d).sum();
                prop_assert_eq!(w.num(), num);
                prop_assert_eq!(w.den(), den);
                prop_assert_eq!(w.len(), tail.len());
                let expect = if den == 0 { 0.0 } else { num as f64 / den as f64 };
                prop_assert_eq!(w.rate(), expect);
            }
        }

        /// Half-life semantics: feeding a constant `v` into a
        /// zero-seeded Ewma for exactly `half_life` updates leaves the
        /// value within floating-point error of `v/2` of its target —
        /// i.e. the step response decays as 1 - 0.5^(n/half_life).
        #[test]
        fn ewma_half_life_step_response(
            half_life in 1u32..64,
            v in 1.0f64..1e9,
        ) {
            let mut e = Ewma::with_half_life(half_life as f64);
            e.update(0.0); // seed at zero so the step starts from 0
            for _ in 0..half_life {
                e.update(v);
            }
            let expect = v * 0.5;
            prop_assert!(
                (e.value() - expect).abs() <= 1e-9 * v,
                "after one half-life the gap to the target must have halved: \
                 value {} expected {}", e.value(), expect
            );
            // And it keeps halving: another half-life closes half the rest.
            for _ in 0..half_life {
                e.update(v);
            }
            prop_assert!((e.value() - 0.75 * v).abs() <= 1e-9 * v);
        }

        /// Monotone approach: a constant input never overshoots, and
        /// the value is strictly increasing toward it.
        #[test]
        fn ewma_never_overshoots(
            alpha in 0.01f64..1.0,
            v in 1.0f64..1e6,
            n in 1usize..100,
        ) {
            let mut e = Ewma::new(alpha);
            e.update(0.0);
            let mut prev = 0.0;
            for _ in 0..n {
                let cur = e.update(v);
                prop_assert!(cur <= v + f64::EPSILON * v, "overshoot: {cur} > {v}");
                prop_assert!(cur >= prev, "non-monotone: {cur} < {prev}");
                prev = cur;
            }
        }
    }
}

mod hist_props {
    use lg_obs::LogHist;
    use proptest::prelude::*;

    proptest! {
        /// LogHist quantiles stay within the recorded min/max and carry
        /// bounded relative error vs the exact nearest-rank quantile of
        /// the sorted values.
        #[test]
        fn log_histogram_bounded_error(values in proptest::collection::vec(1u64..1_000_000_000, 50..500)) {
            let mut h = LogHist::new(64);
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            for q in [0.1, 0.5, 0.9, 0.99] {
                let approx = h.quantile(q) as f64;
                let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64;
                prop_assert!(approx >= h.min() as f64 && approx <= h.max() as f64);
                // one sub-bucket of relative error (1/64) plus rank slack
                prop_assert!(
                    (approx - exact).abs() <= exact * 0.05 + 2.0,
                    "q={q}: approx {approx} exact {exact}"
                );
            }
        }
    }
}
