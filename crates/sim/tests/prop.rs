//! Property tests for the simulation kernel.

use lg_sim::{Duration, EventQueue, Rate, Rng, Samples, Time};
use proptest::prelude::*;

proptest! {
    /// Events pop in (time, insertion-order) order whatever the schedule.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Time::from_ps(t), i);
        }
        let mut popped: Vec<(Time, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break");
            }
        }
    }

    /// Cancelled events never pop; everything else does.
    #[test]
    fn cancellation_is_exact(n in 1usize..100, cancel_mask in proptest::collection::vec(any::<bool>(), 100)) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..n).map(|i| q.schedule_at(Time::from_ns(i as u64), i)).collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if cancel_mask[i] {
                prop_assert!(q.cancel(h));
            } else {
                expect.push(i);
            }
        }
        let mut got = Vec::new();
        while let Some((_, i)) = q.pop() {
            got.push(i);
        }
        prop_assert_eq!(got, expect);
    }

    /// Differential test: the timer-wheel queue and the reference
    /// binary-heap queue agree on every observable (popped events, clock,
    /// cancel results, lengths, peeks) under arbitrary interleavings of
    /// schedule / cancel / peek / pop across all wheel levels and the
    /// overflow horizon.
    #[test]
    fn wheel_matches_reference_oracle(
        ops in proptest::collection::vec((0u8..15, any::<u64>(), any::<u64>()), 1..400),
    ) {
        use lg_sim::event::reference;
        let mut wheel = EventQueue::new();
        let mut oracle = reference::EventQueue::new();
        let mut wheel_handles = Vec::new();
        let mut oracle_handles = Vec::new();
        let mut wheel_buf = Vec::new();
        let mut oracle_buf = Vec::new();
        for &(op, a, b) in &ops {
            match op {
                // Schedule with horizons spanning sub-slot distances,
                // every wheel level and the overflow heap.
                0..=5 => {
                    let horizon_bits = [10, 14, 24, 34, 44, 60][op as usize];
                    let d = a % (1u64 << horizon_bits);
                    let at = Time::from_ps(wheel.now().as_ps().saturating_add(d));
                    let tag = wheel_handles.len();
                    wheel_handles.push(wheel.schedule_at(at, tag));
                    oracle_handles.push(oracle.schedule_at(at, tag));
                }
                // Cancel a random handle — possibly already fired or
                // already cancelled.
                6 | 7 => {
                    if !wheel_handles.is_empty() {
                        let i = (b as usize) % wheel_handles.len();
                        prop_assert_eq!(
                            wheel.cancel(wheel_handles[i]),
                            oracle.cancel(oracle_handles[i])
                        );
                    }
                }
                8 => {
                    prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
                }
                // Bounded pop: a horizon at, before, or after the next
                // pending event.
                12 => {
                    let until = Time::from_ps(wheel.now().as_ps().saturating_add(a % (1 << 20)));
                    prop_assert_eq!(wheel.pop_if_before(until), oracle.pop_if_before(until));
                    prop_assert_eq!(wheel.now(), oracle.now());
                }
                // Whole-tick drain.
                13 | 14 => {
                    let wt = wheel.pop_tick_into(Time::MAX, &mut wheel_buf);
                    let ot = oracle.pop_tick_into(Time::MAX, &mut oracle_buf);
                    prop_assert_eq!(wt, ot);
                    prop_assert_eq!(&wheel_buf, &oracle_buf);
                    prop_assert_eq!(wheel.now(), oracle.now());
                    wheel_buf.clear();
                    oracle_buf.clear();
                }
                _ => {
                    prop_assert_eq!(wheel.pop(), oracle.pop());
                    prop_assert_eq!(wheel.now(), oracle.now());
                }
            }
            prop_assert_eq!(wheel.len(), oracle.len());
            prop_assert_eq!(wheel.is_empty(), oracle.is_empty());
        }
        loop {
            let (w, o) = (wheel.pop(), oracle.pop());
            prop_assert_eq!(w, o);
            prop_assert_eq!(wheel.now(), oracle.now());
            if w.is_none() {
                break;
            }
        }
    }

    /// Shard-window usage pattern: drain to a lookahead-bounded window
    /// edge with `pop_tick_into`, then — as handlers do — schedule new
    /// events *below the wheel cursor's slot position* (at the current
    /// instant or a few ps later, far below the wheel's coarse levels),
    /// repeat across many windows. At every window boundary the wheel
    /// must agree with the reference oracle on every observable and
    /// pass its own structural `check_invariants` sweep (recounted
    /// arena vs `len`, `is_empty` consistency, window ordering).
    ///
    /// This is the exact access pattern `shard::run_sharded` drives —
    /// the conservative-lookahead runner synchronizes shards at window
    /// edges, so a len/cursor inconsistency there would silently
    /// desynchronize the parallel run.
    #[test]
    fn window_drains_keep_wheel_consistent(
        lookahead in 1u64..5_000,
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..4), 1..60),
    ) {
        use lg_sim::event::reference;
        let mut wheel = EventQueue::new();
        let mut oracle = reference::EventQueue::new();
        let mut wheel_buf = Vec::new();
        let mut oracle_buf = Vec::new();
        let mut tag = 0usize;
        for &(a, b, burst) in &ops {
            // Seed the window with a few events spread across a couple
            // of lookahead horizons (some land inside the next window,
            // some beyond it).
            for j in 0..=burst {
                let d = (a.wrapping_mul(j as u64 + 1)) % (3 * lookahead);
                let at = Time::from_ps(wheel.now().as_ps().saturating_add(d));
                wheel.schedule_at(at, tag);
                oracle.schedule_at(at, tag);
                tag += 1;
            }
            // Open the window at t_min, close it one lookahead later —
            // `shard::window_end` semantics (inclusive end).
            prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
            let Some(t_min) = wheel.peek_time() else { continue };
            let until = Time::from_ps(t_min.as_ps().saturating_add(lookahead - 1));
            // Drain the window tick by tick, interleaving the
            // below-cursor schedules a dispatch handler would issue:
            // after each tick the wheel's cursor sits mid-slot, and the
            // new event lands at or before that position in slot space.
            loop {
                let head = wheel.pop_tick_into(until, &mut wheel_buf);
                let ohead = oracle.pop_tick_into(until, &mut oracle_buf);
                prop_assert_eq!(&head, &ohead);
                prop_assert_eq!(&wheel_buf, &oracle_buf);
                wheel_buf.clear();
                oracle_buf.clear();
                let Some((now, _)) = head else { break };
                // Handler-style strictly-future reschedule, minimal
                // delta: below the cursor of every coarse wheel level.
                let at = Time::from_ps(now.as_ps() + 1 + b % 7);
                wheel.schedule_at(at, tag);
                oracle.schedule_at(at, tag);
                tag += 1;
            }
            // Window boundary: the shard runner reads len/peek here to
            // decide the next window; both must be exact.
            wheel.check_invariants();
            prop_assert_eq!(wheel.len(), oracle.len());
            prop_assert_eq!(wheel.is_empty(), oracle.is_empty());
            prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
            prop_assert_eq!(wheel.now(), oracle.now());
        }
    }
}

proptest! {
    // Each case holds ~6,000 events and sweeps them with
    // `check_invariants` at every step; a few cases cover the branch.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense-queue differential — the packet fabric's shape, which the
    /// ≤ 400-op cases above never reach. 4,096 events pending inside one
    /// 256-slot level-0 run (at least 4× any entry cap `advance()` has
    /// used) make every activation stop at the cap and park the cursor
    /// mid-run at `drained_to`; one slot's chain alone exceeds the cap
    /// and must still drain whole. Handler-style reschedules then land
    /// on both sides of the parked cursor: pktsim's +120 ns and +600 ns,
    /// plus a pair straddling a slot edge 1–16 slots ahead of the clock
    /// — wherever the cursor parked, some pair sits just below and just
    /// above it. `pop_tick_into` takes the ties whole. The wheel must
    /// agree with the reference heap on every observable and pass
    /// `check_invariants` at every step.
    #[test]
    fn dense_run_parks_the_cursor_mid_run(
        seed in any::<u64>(),
        base in 0u64..(1 << 40),
        ops in proptest::collection::vec(0u64..16, 40..120),
    ) {
        use lg_sim::event::reference;
        const SLOT_BITS: u32 = 13;
        const RUN_PS: u64 = 256 << SLOT_BITS;
        let mut rng = Rng::new(seed);
        let mut wheel = EventQueue::new();
        let mut oracle = reference::EventQueue::new();
        let mut tag = 0usize;
        let mut sched = |wheel: &mut EventQueue<usize>,
                         oracle: &mut reference::EventQueue<usize>,
                         at_ps: u64| {
            wheel.schedule_at(Time::from_ps(at_ps), tag);
            oracle.schedule_at(Time::from_ps(at_ps), tag);
            tag += 1;
        };
        let base = (base >> SLOT_BITS) << SLOT_BITS;
        for _ in 0..4096 {
            sched(&mut wheel, &mut oracle, base + rng.below(RUN_PS));
        }
        let fat = base + (rng.below(256) << SLOT_BITS);
        for _ in 0..1500 {
            sched(&mut wheel, &mut oracle, fat + rng.below(64) * 128);
        }
        let mut wheel_buf = Vec::new();
        let mut oracle_buf = Vec::new();
        for &ahead in &ops {
            let head = wheel.pop_tick_into(Time::MAX, &mut wheel_buf);
            prop_assert_eq!(head, oracle.pop_tick_into(Time::MAX, &mut oracle_buf));
            prop_assert_eq!(&wheel_buf, &oracle_buf);
            wheel_buf.clear();
            oracle_buf.clear();
            wheel.check_invariants();
            let now = head.expect("thousands still pending").0.as_ps();
            let edge = ((now >> SLOT_BITS) + 1 + ahead) << SLOT_BITS;
            for at in [now + 120_000, now + 600_000, edge - 1, edge] {
                sched(&mut wheel, &mut oracle, at);
            }
            wheel.check_invariants();
            prop_assert_eq!(wheel.len(), oracle.len());
            prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
        }
        let mut step = 0u32;
        loop {
            let (w, o) = (wheel.pop(), oracle.pop());
            prop_assert_eq!(w, o);
            if step.is_multiple_of(128) {
                wheel.check_invariants();
            }
            step += 1;
            if w.is_none() {
                break;
            }
        }
        wheel.check_invariants();
    }
}

proptest! {
    /// Rate arithmetic: serialize/bytes_in round-trips and is monotone.
    #[test]
    fn rate_round_trip(gbps in 1u64..800, bytes in 1u64..1_000_000) {
        let r = Rate::from_gbps(gbps);
        let d = r.serialize(bytes);
        let back = r.bytes_in(d);
        prop_assert!(back <= bytes && bytes - back <= 1, "{bytes} -> {back}");
        prop_assert!(r.serialize(bytes + 1) >= d);
    }

    /// Exact-sample quantiles bracket every recorded value and are
    /// monotone in q.
    #[test]
    fn samples_quantile_monotone(values in proptest::collection::vec(0f64..1e9, 1..300)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = s.quantile(q);
            prop_assert!(v >= last);
            prop_assert!(values.contains(&v), "quantile is an actual sample");
            last = v;
        }
        prop_assert_eq!(s.quantile(1.0), s.max());
        prop_assert_eq!(s.quantile(0.0), s.min());
    }

    /// Deterministic streams: forked children differ from parents but are
    /// reproducible.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        let mut ca = a.fork();
        let mut cb = b.fork();
        for _ in 0..100 {
            prop_assert_eq!(ca.next_u64(), cb.next_u64());
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Duration arithmetic saturates instead of overflowing.
    #[test]
    fn duration_saturation(a in any::<u64>(), b in any::<u64>()) {
        let x = Duration::from_ps(a);
        let y = Duration::from_ps(b);
        let sum = x + y;
        prop_assert!(sum.as_ps() >= a.max(b) || sum == Duration::MAX);
        let diff = x - y;
        prop_assert_eq!(diff.as_ps(), a.saturating_sub(b));
    }
}
