//! Property tests for the simulation kernel.

use lg_sim::{Duration, EventQueue, Rate, Rng, Time, WeibullHorizon};
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
    /// schedule / cancel / peek / pop / translate across all wheel levels
    /// and the overflow horizon, and visit the same pending events in the
    /// same filing order.
    #[test]
    fn wheel_matches_reference_oracle(
        ops in proptest::collection::vec((0u8..22, any::<u64>(), any::<u64>()), 1..400),
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
                // every wheel level and the overflow heap; op 0 lands on
                // one of four instants, so same-instant ties are common.
                // Two ops in eight schedule within about one drained run
                // (2^21 ps) of the clock, so they land mid-window, below
                // the cursor, among entries due both before and after.
                0..=7 => {
                    let horizon_bits = [10, 14, 21, 21, 24, 34, 44, 60][op as usize];
                    let d = if op == 0 { (a % 4) << 10 } else { a % (1u64 << horizon_bits) };
                    let at = Time::from_ps(wheel.now().as_ps().saturating_add(d));
                    let tag = wheel_handles.len();
                    wheel_handles.push(wheel.schedule_at(at, tag));
                    oracle_handles.push(oracle.schedule_at(at, tag));
                }
                // Cancel a random handle — possibly already fired or
                // already cancelled.
                8 | 9 => {
                    if !wheel_handles.is_empty() {
                        let i = (b as usize) % wheel_handles.len();
                        prop_assert_eq!(
                            wheel.cancel(wheel_handles[i]),
                            oracle.cancel(oracle_handles[i])
                        );
                    }
                }
                10 => {
                    prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
                }
                // The pending walk: exactly the oracle's pending events,
                // with their instants, in filing order.
                11 => {
                    let (mut w, mut o) = (Vec::new(), Vec::new());
                    wheel.for_each_pending(|at, &tag| w.push((at, tag)));
                    oracle.for_each_pending(|at, &tag| o.push((at, tag)));
                    prop_assert_eq!(w, o);
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
                // A prefetch hint: read-only, so every observable the
                // oracle is compared on must be unmoved by it.
                15 => {
                    let _ = wheel.upcoming((a % 8) as usize);
                }
                // Translate: move, keep or consume each event by its tag;
                // a quarter of the time the first moved event lands
                // exactly on the first kept one, so the tie rule (moved
                // files after kept) is exercised.
                16 | 17 => {
                    let fate = |tag: &usize| (*tag as u64 ^ b) % 4;
                    let place = |tag: usize| (fate(&tag) != 3).then_some((tag, fate(&tag) != 0));
                    let mut pending = Vec::new();
                    wheel.for_each_pending(|at, &tag| pending.push((at, tag)));
                    prop_assert_eq!(pending.len(), wheel.len());
                    let first = |f: u64| {
                        pending.iter().filter(|(_, t)| fate(t) == f).map(|(at, _)| *at).min()
                    };
                    let now = wheel.now().as_ps();
                    let mut d = a % (1 << 24);
                    if let (Some(k), Some(m), 0) = (first(0), first(1), b % 4) {
                        d = k.as_ps().saturating_sub(m.as_ps());
                    }
                    if let Some(k) = first(0) {
                        d = d.min(k.as_ps() - now);
                    }
                    wheel.translate(Duration::from_ps(d), place);
                    oracle.translate(Duration::from_ps(d), place);
                    prop_assert_eq!(wheel.now(), oracle.now());
                    prop_assert_eq!(wheel.now().as_ps(), now + d);
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

    /// `upcoming(k)` names the future exactly when it names it at all:
    /// under random interleavings of schedule (dense near the clock, so
    /// the sorted window fills, and far), cancel, `pop` and
    /// `pop_tick_into`, whenever it returns `Some(p)` the (k+1)-th
    /// payload delivered after the call is `p`. The check delivers them
    /// at once, by `pop` or `pop_tick_into`, so a later op cannot move
    /// an earlier event in front of `p`.
    #[test]
    fn upcoming_names_the_kth_next_delivery(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        let mut buf = Vec::new();
        for &(op, a, b) in &ops {
            match op {
                0..=2 => {
                    let horizon_bits = [14, 20, 40][op as usize];
                    let at = Time::from_ps(q.now().as_ps() + a % (1u64 << horizon_bits));
                    let tag = handles.len();
                    handles.push(q.schedule_at(at, tag));
                }
                3 => {
                    if !handles.is_empty() {
                        q.cancel(handles[(b as usize) % handles.len()]);
                    }
                }
                4 => {
                    q.pop();
                }
                5 => {
                    q.pop_tick_into(Time::MAX, &mut buf);
                    buf.clear();
                }
                _ => {
                    let k = (a % 6) as usize;
                    let Some(&p) = q.upcoming(k) else { continue };
                    let mut delivered = Vec::new();
                    let mut by_tick = b;
                    while delivered.len() <= k {
                        if by_tick & 1 == 1 {
                            let (_, first) = q.pop_tick_into(Time::MAX, &mut buf).expect("named");
                            delivered.push(first);
                            delivered.append(&mut buf);
                        } else {
                            delivered.push(q.pop().expect("named").1);
                        }
                        by_tick >>= 1;
                    }
                    prop_assert_eq!(delivered[k], p, "upcoming({}) named {}", k, p);
                }
            }
        }
        // Not vacuous: after a dense burst and a pop the window holds
        // the rest of the burst, so the hint must name something.
        for i in 0..16u64 {
            q.schedule_at(Time::from_ps(q.now().as_ps() + i * 100), usize::MAX);
        }
        q.pop();
        prop_assert!(q.upcoming(2).is_some());
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

    /// The horizon-bounded draw is the draw: `Some(t)` exactly when
    /// `weibull` gives `t <= limit`, with the same bits, and both leave
    /// the generator in the same state.
    #[test]
    fn weibull_within_is_weibull_cut_at_the_limit(
        seed in any::<u64>(),
        limit_ix in 0usize..6,
        beta_ix in 0usize..3,
    ) {
        const LIMITS: [f64; 6] = [0.0, 1e-9, 24.0, 480.0, 8_760.0, 1e12];
        const BETAS: [f64; 3] = [1.0, 0.5, 2.0];
        let (limit, beta, eta) = (LIMITS[limit_ix], BETAS[beta_ix], 10_000.0);
        let h = WeibullHorizon::new(beta, eta, limit);
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..500 {
            let t = a.weibull(beta, eta);
            let want = (t <= limit).then_some(t.to_bits());
            prop_assert_eq!(b.weibull_within(&h).map(f64::to_bits), want, "limit {}", limit);
            prop_assert_eq!(&a, &b);
        }
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
