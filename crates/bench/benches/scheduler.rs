//! Scheduler throughput: the timer-wheel `EventQueue` against the
//! `BinaryHeap` reference implementation it replaced.
//!
//! The workload mirrors what the simulator actually does: a bounded
//! population of pending events where every pop schedules follow-ups a
//! short horizon ahead (serialization delays, timer re-arms) and a
//! fraction of events are cancelled before firing (retransmission timers
//! disarmed by an ack). Horizons are drawn from a mix matching the
//! simulator's: mostly nanoseconds-to-microseconds, occasionally
//! milliseconds (RTO-scale).
//!
//! The acceptance bar for the wheel is >= 2x the reference's
//! schedule+pop throughput at 1M events; run this bench to compare.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lg_sim::event::reference;
use lg_sim::{Duration, EventQueue, Rng, Time};

/// Draw a scheduling horizon from the simulator's characteristic mix:
/// 60% sub-microsecond (per-packet serialization), 30% tens of
/// microseconds (RTT-scale), 10% milliseconds (RTO-scale timers).
fn horizon(rng: &mut Rng) -> Duration {
    match rng.below(10) {
        0..=5 => Duration::from_ps(1 + rng.below(1_000_000)),
        6..=8 => Duration::from_ps(1 + rng.below(100_000_000)),
        _ => Duration::from_ps(1 + rng.below(10_000_000_000)),
    }
}

/// Run `total` schedule+pop pairs: keep `population` events pending,
/// popping one and scheduling another each step; every 8th event is
/// cancelled (and replaced) instead of popped.
fn churn_wheel(total: u64, population: u64, seed: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(seed);
    let mut handles = Vec::with_capacity(population as usize);
    for i in 0..population {
        let at = q.now() + horizon(&mut rng);
        handles.push(q.schedule_at(at, i));
    }
    let mut acc = 0u64;
    for i in 0..total {
        if i % 8 == 7 {
            let h = handles[(rng.below(population) as usize) % handles.len()];
            q.cancel(h);
        } else if let Some((t, v)) = q.pop() {
            acc = acc.wrapping_add(t.as_ps()).wrapping_add(v);
        }
        let at = q.now() + horizon(&mut rng);
        handles[(i % population) as usize] = q.schedule_at(at, i);
    }
    acc
}

/// Same churn against the heap+tombstone reference implementation.
fn churn_reference(total: u64, population: u64, seed: u64) -> u64 {
    let mut q: reference::EventQueue<u64> = reference::EventQueue::new();
    let mut rng = Rng::new(seed);
    let mut handles = Vec::with_capacity(population as usize);
    for i in 0..population {
        let at = q.now() + horizon(&mut rng);
        handles.push(q.schedule_at(at, i));
    }
    let mut acc = 0u64;
    for i in 0..total {
        if i % 8 == 7 {
            let h = handles[(rng.below(population) as usize) % handles.len()];
            q.cancel(h);
        } else if let Some((t, v)) = q.pop() {
            acc = acc.wrapping_add(t.as_ps()).wrapping_add(v);
        }
        let at = q.now() + horizon(&mut rng);
        handles[(i % population) as usize] = q.schedule_at(at, i);
    }
    acc
}

/// The packet fabric's queue shape (`lg_fabric::pktsim`, one shard of
/// the paper-scale preset): ~8 K events held pending — 6,144 flow
/// generators re-arming tens of microseconds out, 2,048 frames cycling
/// through constant +120 ns (serialization) and +600 ns (hop latency)
/// reschedules, ~23 events per 8 ns wheel slot — drained tick by tick
/// with `pop_tick_into` up to a 600 ns lookahead bound, as the shard
/// runner does. This is the load the wheel's drain cap is sized on.
macro_rules! dense_hold {
    ($name:ident, $queue:ty) => {
        fn $name(total: u64, seed: u64) -> u64 {
            const GENS: u64 = 6_144;
            const FRAMES: u64 = 2_048;
            let mut q: $queue = <$queue>::new();
            let mut rng = Rng::new(seed);
            for g in 0..GENS {
                q.schedule_at(Time::from_ps(1 + rng.below(120_000_000)), g);
            }
            for f in 0..FRAMES {
                q.schedule_at(Time::from_ps(1 + rng.below(720_000)), GENS + 2 * f);
            }
            let hop = Duration::from_ns(600);
            let mut until = Time::ZERO + hop;
            let mut tick = Vec::new();
            let (mut done, mut acc) = (0u64, 0u64);
            while done < total {
                while let Some((now, first)) = q.pop_tick_into(until, &mut tick) {
                    tick.push(first);
                    for v in tick.drain(..) {
                        // Payload: a generator id, or a frame's id with
                        // its phase (serializing / in flight) in bit 0.
                        let (delay, next) = if v < GENS {
                            (Duration::from_ps(1 + rng.below(120_000_000)), v)
                        } else if (v - GENS) % 2 == 0 {
                            (Duration::from_ns(120), v + 1)
                        } else {
                            (hop, v - 1)
                        };
                        q.schedule_at(now + delay, next);
                        acc = acc.wrapping_add(now.as_ps() ^ v);
                        done += 1;
                    }
                }
                until += hop;
            }
            acc
        }
    };
}
dense_hold!(dense_hold_wheel, EventQueue<u64>);
dense_hold!(dense_hold_reference, reference::EventQueue<u64>);

fn bench_scheduler(c: &mut Criterion) {
    const TOTAL: u64 = 1_000_000;
    const POPULATION: u64 = 4_096;
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(TOTAL));
    g.bench_function("wheel/churn_1m", |b| {
        b.iter(|| churn_wheel(black_box(TOTAL), POPULATION, 42))
    });
    g.bench_function("reference_heap/churn_1m", |b| {
        b.iter(|| churn_reference(black_box(TOTAL), POPULATION, 42))
    });
    g.bench_function("wheel/dense_hold", |b| {
        b.iter(|| dense_hold_wheel(black_box(TOTAL), 42))
    });
    g.bench_function("reference_heap/dense_hold", |b| {
        b.iter(|| dense_hold_reference(black_box(TOTAL), 42))
    });
    g.finish();
}

fn bench_drain(c: &mut Criterion) {
    // Pure schedule-then-drain (no steady-state churn): stresses bulk
    // insert and ordered drain rather than the wrap-around cursor.
    const N: u64 = 100_000;
    let mut g = c.benchmark_group("scheduler_drain");
    g.throughput(Throughput::Elements(N));
    g.bench_function("wheel/fill_drain_100k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = Rng::new(7);
            for i in 0..N {
                let at = q.now() + horizon(&mut rng);
                q.schedule_at(at, i);
            }
            let mut acc = 0u64;
            while let Some((t, v)) = q.pop() {
                acc = acc.wrapping_add(t.as_ps()).wrapping_add(v);
            }
            acc
        })
    });
    g.bench_function("reference_heap/fill_drain_100k", |b| {
        b.iter(|| {
            let mut q: reference::EventQueue<u64> = reference::EventQueue::new();
            let mut rng = Rng::new(7);
            for i in 0..N {
                let at = q.now() + horizon(&mut rng);
                q.schedule_at(at, i);
            }
            let mut acc = 0u64;
            while let Some((t, v)) = q.pop() {
                acc = acc.wrapping_add(t.as_ps()).wrapping_add(v);
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scheduler, bench_drain);
criterion_main!(benches);
