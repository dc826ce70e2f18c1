//! Conservative-lookahead sharded execution of event-driven worlds.
//!
//! [`par_map`](crate::par_map) parallelizes *across* independent runs;
//! this module parallelizes *inside* one run. The topology is
//! partitioned into shards, each owning its own event queue and all
//! state of its partition class, and the shards advance in lockstep
//! through *windows* of simulated time:
//!
//! 1. The coordinator finds `t_min`, the earliest pending timestamp
//!    across all shards (idle gaps are skipped, not stepped through).
//! 2. Every shard executes its local events in `[t_min, t_min + W)`
//!    concurrently, where `W` is the *lookahead*: a lower bound on the
//!    latency of every cross-shard interaction. Interactions destined
//!    for another shard are not applied directly — they are appended to
//!    a per-shard outbox as [`ShardMsg`]s stamped with their arrival
//!    time.
//! 3. At the window barrier the coordinator exchanges the outboxes:
//!    messages are sorted by `(at, seq, src_shard)` and distributed into
//!    persistent per-shard *inboxes*; each shard injects its inbox at
//!    the start of the next window (on whichever worker claims it), so
//!    injection work scales out with the shards instead of serializing
//!    on the coordinator, and no mailbox vector is allocated per window
//!    — outboxes, the gather buffer and the inboxes all keep their
//!    capacity for the whole run.
//!
//! **Why this is safe (lookahead argument).** Let the window be
//! `[t_min, t_min + W)`. A message emitted by an event at time `t`
//! inside the window arrives at `t + L` for some cross-shard latency
//! `L >= W`, so its arrival time satisfies `t + L >= t_min + W`, which
//! is at or after the window's end. No shard can therefore miss (or see
//! early) an interaction generated during the window it is currently
//! executing: every message is injected at the barrier *before* any
//! window that could consume it starts. The exchange being sorted and
//! serial makes the injection order — and hence the destination
//! queue's tie-break `seq` assignment — independent of thread
//! scheduling, so a sharded run is deterministic and, when the shard
//! worlds themselves order same-instant work by shard-layout-invariant
//! keys, byte-identical at any `--shards`/`--threads` combination.
//!
//! The runner keeps a persistent worker pool (spawned once per run, not
//! per window) synchronized with a [`std::sync::Barrier`]; shards are
//! claimed per window through an atomic work index exactly like
//! [`par_map`](crate::par_map), so a slow shard never idles the pool.
//!
//! **Per-shard telemetry discipline.** The same argument extends to
//! observability state: a shard world may record traces, health events,
//! or counters locally (no synchronization inside the window), provided
//! every recorded field is a *global* key — entity ids, simulated
//! timestamps, packet uids — and never a shard index or worker-local
//! ordinal. Collect-time concatenation sorted by those keys is then a
//! pure function of the simulated execution, so the merged streams are
//! as layout-invariant as the simulation itself. Wall-clock measurements
//! (profiling) are the deliberate exception: they merge additively and
//! must be excluded from byte-identical comparisons. `lg_fabric`'s
//! packet simulator is the worked example of both rules.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use crate::time::{Duration, Time};

/// A cross-shard interaction, carried from the shard that generated it
/// to the shard that owns the destination entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMsg<M> {
    /// Simulated arrival time; must be at least one lookahead after the
    /// instant the message was generated.
    pub at: Time,
    /// Emission order within the source shard's window (assigned by the
    /// source via its outbox position). Part of the exchange sort key so
    /// ties at equal `at` resolve by generation order, not scheduling.
    pub seq: u64,
    /// Shard that generated the message.
    pub src_shard: u32,
    /// Shard that must apply it.
    pub dst_shard: u32,
    /// World-specific content (typically a packet plus a destination
    /// entity id).
    pub payload: M,
}

/// A partition of a world that can execute windows of simulated time
/// locally and exchange cross-shard interactions as messages.
pub trait ShardWorld: Send {
    /// Cross-shard message payload.
    type Msg: Send;

    /// Earliest pending local timestamp, or `None` when idle.
    fn next_time(&mut self) -> Option<Time>;

    /// Execute every local event with timestamp `<= until`, appending
    /// cross-shard interactions to `out` (with `seq` assigned in
    /// emission order). Returns the number of events executed.
    fn run_window(&mut self, until: Time, out: &mut Vec<ShardMsg<Self::Msg>>) -> u64;

    /// Apply a message exchanged at a window barrier. Called at the
    /// start of the first window after the exchange, on whichever worker
    /// owns this shard for that window, in deterministic `(at, seq,
    /// src_shard)` order. The message's `at` is strictly after the
    /// window it was generated in, so implementations can simply
    /// schedule it.
    fn inject(&mut self, msg: ShardMsg<Self::Msg>);
}

/// Aggregate accounting for one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Events executed across all shards.
    pub events: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Largest single-window exchange (mailbox sizing diagnostic).
    pub max_window_messages: u64,
}

/// Inclusive end of the window opening at `t_min`: one lookahead minus
/// one picosecond, clamped below the shutdown sentinel.
fn window_end(t_min: Time, lookahead: Duration) -> Time {
    debug_assert!(lookahead.as_ps() > 0);
    Time::from_ps(
        t_min
            .as_ps()
            .saturating_add(lookahead.as_ps() - 1)
            .min(u64::MAX - 1),
    )
}

/// Gather the outboxes into `mail` in deterministic exchange order:
/// `(at, seq, src_shard)`, so the injection order — and hence every
/// destination queue's tie-break `seq` assignment — never depends on
/// thread scheduling. Returns the number of messages gathered.
fn gather_sorted<M>(outboxes: &mut [Vec<ShardMsg<M>>], mail: &mut Vec<ShardMsg<M>>) -> u64 {
    mail.clear();
    for out in outboxes.iter_mut() {
        mail.append(out);
    }
    mail.sort_unstable_by_key(|m| (m.at, m.seq, m.src_shard));
    mail.len() as u64
}

/// Assert the lookahead contract for a message exchanged at the end of
/// the window closing at `until`.
fn check_lookahead<M>(msg: &ShardMsg<M>, until: Time, n_shards: usize) {
    assert!(
        msg.at > until,
        "cross-shard message at {:?} violates the lookahead contract (window end {:?})",
        msg.at,
        until,
    );
    assert!(
        (msg.dst_shard as usize) < n_shards,
        "message to unknown shard {}",
        msg.dst_shard
    );
}

/// Earliest pending timestamp of one shard, counting both its local
/// queue and its undelivered inbox (sorted ascending, so the head is
/// the minimum).
fn shard_next_time<W: ShardWorld>(shard: &mut W, inbox: &[ShardMsg<W::Msg>]) -> Option<Time> {
    let local = shard.next_time();
    let mailed = inbox.first().map(|m| m.at);
    match (local, mailed) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Drain a shard's inbox into it. Inboxes hold each shard's slice of the
/// globally sorted exchange, so per-shard injection order — and hence the
/// destination queue's tie-break `seq` assignment — matches the old
/// coordinator-serial exchange exactly.
fn drain_inbox<W: ShardWorld>(shard: &mut W, inbox: &mut Vec<ShardMsg<W::Msg>>) {
    for msg in inbox.drain(..) {
        shard.inject(msg);
    }
}

/// Run `shards` to completion (or past `horizon`) under conservative
/// lookahead synchronization on up to `threads` worker threads.
///
/// `lookahead` must be a positive lower bound on the latency of every
/// cross-shard interaction; the exchange asserts the contract on each
/// message. Windows open at the earliest pending timestamp (idle spans
/// cost nothing) and close one lookahead later. The run ends when every
/// shard is idle with no messages in flight, or when the next window
/// would open after `horizon` (events at exactly `horizon` still run).
///
/// Results are identical at any `threads`; `threads <= 1` runs
/// everything on the calling thread. So is failure: a panic surfaces on
/// the caller with the message `run_serial` would raise.
pub fn run_sharded<W: ShardWorld>(
    shards: &mut [W],
    lookahead: Duration,
    horizon: Time,
    threads: usize,
) -> ShardStats {
    assert!(lookahead.as_ps() > 0, "lookahead must be positive");
    if shards.is_empty() {
        return ShardStats::default();
    }
    let threads = threads.clamp(1, shards.len());
    if threads == 1 {
        run_serial(shards, lookahead, horizon)
    } else {
        run_parallel(shards, lookahead, horizon, threads)
    }
}

fn run_serial<W: ShardWorld>(shards: &mut [W], lookahead: Duration, horizon: Time) -> ShardStats {
    let n = shards.len();
    let mut outboxes: Vec<Vec<ShardMsg<W::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut inboxes: Vec<Vec<ShardMsg<W::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut mail = Vec::new();
    let mut stats = ShardStats::default();
    loop {
        let t_min = shards
            .iter_mut()
            .zip(inboxes.iter())
            .filter_map(|(s, inbox)| shard_next_time(s, inbox))
            .min();
        let Some(t_min) = t_min.filter(|&t| t <= horizon) else {
            break;
        };
        let until = window_end(t_min, lookahead);
        for ((shard, inbox), out) in shards
            .iter_mut()
            .zip(inboxes.iter_mut())
            .zip(outboxes.iter_mut())
        {
            drain_inbox(shard, inbox);
            stats.events += shard.run_window(until, out);
        }
        let m = gather_sorted(&mut outboxes, &mut mail);
        for msg in mail.drain(..) {
            check_lookahead(&msg, until, n);
            inboxes[msg.dst_shard as usize].push(msg);
        }
        stats.windows += 1;
        stats.messages += m;
        stats.max_window_messages = stats.max_window_messages.max(m);
    }
    // A horizon cut can strand the final exchange in the inboxes; flush
    // it so post-run shard state matches the old barrier-time injection.
    for (shard, inbox) in shards.iter_mut().zip(inboxes.iter_mut()) {
        drain_inbox(shard, inbox);
    }
    stats
}

/// Raw-pointer slots for per-shard state touched by exactly one worker
/// per window (claimed via atomic index) or by the coordinator while
/// the workers are parked at a barrier. Same ownership discipline as
/// `par_map`'s result slots, extended to alternating phases: the
/// barrier crossings provide the happens-before edges between the
/// workers' window phase and the coordinator's exchange phase.
struct Slots<T>(Vec<*mut T>);
unsafe impl<T: Send> Sync for Slots<T> {}
impl<T> Slots<T> {
    fn get(&self, i: usize) -> *mut T {
        self.0[i]
    }
}

/// Shutdown sentinel published through the window-bound atomic; real
/// window ends are clamped below it by `window_end`.
const SHUTDOWN: u64 = u64::MAX;

/// A threaded run's panic and its party (shard `i`, the coordinator `n`).
/// The lowest party wins, as in `run_serial`'s order, so the message
/// does not depend on which worker got there first.
type Failure = Mutex<Option<(usize, Box<dyn Any + Send>)>>;
const HELD: &str = "the failure slot is never locked across a panic";

/// Run `f` as `party`, parking its panic in `failure`: a party that
/// unwound would leave the others parked at the barrier forever.
fn catch_into(failure: &Failure, party: usize, f: impl FnOnce()) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
        let mut slot = failure.lock().expect(HELD);
        if slot.as_ref().is_none_or(|&(p, _)| party < p) {
            *slot = Some((party, payload));
        }
    }
}

fn run_parallel<W: ShardWorld>(
    shards: &mut [W],
    lookahead: Duration,
    horizon: Time,
    threads: usize,
) -> ShardStats {
    let n = shards.len();
    let mut outboxes: Vec<Vec<ShardMsg<W::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut inboxes: Vec<Vec<ShardMsg<W::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut events: Vec<u64> = vec![0; n];
    let mut mail = Vec::new();
    let mut stats = ShardStats::default();

    let shard_slots = Slots(shards.iter_mut().map(|s| s as *mut W).collect());
    let out_slots = Slots(outboxes.iter_mut().map(|o| o as *mut Vec<_>).collect());
    let in_slots = Slots(inboxes.iter_mut().map(|i| i as *mut Vec<_>).collect());
    let event_slots = Slots(events.iter_mut().map(|e| e as *mut u64).collect());
    let barrier = Barrier::new(threads + 1);
    let claim = AtomicUsize::new(0);
    let until_ps = AtomicU64::new(0);
    let failure = Failure::default();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (barrier, claim, until_ps, failure) = (&barrier, &claim, &until_ps, &failure);
            let (shard_slots, out_slots, in_slots, event_slots) =
                (&shard_slots, &out_slots, &in_slots, &event_slots);
            scope.spawn(move || loop {
                // Window phase: the coordinator has published the bound
                // and reset the claim index before releasing this
                // barrier; each shard is claimed by exactly one worker,
                // which first injects the shard's inbox (its slice of
                // last window's sorted exchange) and then runs the
                // window — injection scales out with the shards.
                barrier.wait();
                let until = until_ps.load(Ordering::Relaxed);
                if until == SHUTDOWN {
                    break;
                }
                loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    catch_into(failure, i, || {
                        let shard = unsafe { &mut *shard_slots.get(i) };
                        let inbox = unsafe { &mut *in_slots.get(i) };
                        drain_inbox(shard, inbox);
                        let out = unsafe { &mut *out_slots.get(i) };
                        let ran = shard.run_window(Time::from_ps(until), out);
                        unsafe { *event_slots.get(i) += ran };
                    });
                }
                // Exchange phase: workers park here while the
                // coordinator owns every shard (also after a panic).
                barrier.wait();
            });
        }

        // Coordinator. Between the end barrier of one window and the
        // start barrier of the next, all workers are parked, so the
        // coordinator may touch every shard through the slots. It
        // leaves when the run is done or any party has panicked.
        catch_into(&failure, n, || loop {
            let t_min = {
                let mut t_min = None::<Time>;
                for i in 0..n {
                    let shard = unsafe { &mut *shard_slots.get(i) };
                    let inbox = unsafe { &mut *in_slots.get(i) };
                    if let Some(t) = shard_next_time(shard, inbox) {
                        t_min = Some(t_min.map_or(t, |m: Time| m.min(t)));
                    }
                }
                t_min
            };
            let Some(t_min) = t_min.filter(|&t| t <= horizon) else {
                break;
            };
            let until = window_end(t_min, lookahead);
            claim.store(0, Ordering::Relaxed);
            until_ps.store(until.as_ps(), Ordering::Relaxed);
            barrier.wait(); // open the window
            barrier.wait(); // wait for every shard to finish it
            if failure.lock().expect(HELD).is_some() {
                break;
            }
            let m = {
                // Gather through the same per-element slots the workers
                // use — the barrier crossing above handed every shard,
                // outbox and inbox back to the coordinator — and
                // distribute the sorted exchange into the inboxes for
                // the claiming workers to inject next window.
                for i in 0..n {
                    let out = unsafe { &mut *out_slots.get(i) };
                    mail.append(out);
                }
                mail.sort_unstable_by_key(|m| (m.at, m.seq, m.src_shard));
                let m = mail.len() as u64;
                for msg in mail.drain(..) {
                    check_lookahead(&msg, until, n);
                    let inbox = unsafe { &mut *in_slots.get(msg.dst_shard as usize) };
                    inbox.push(msg);
                }
                m
            };
            stats.windows += 1;
            stats.messages += m;
            stats.max_window_messages = stats.max_window_messages.max(m);
        });
        until_ps.store(SHUTDOWN, Ordering::Relaxed);
        barrier.wait();
    });
    if let Some((_, payload)) = failure.into_inner().expect(HELD) {
        panic::resume_unwind(payload);
    }

    stats.events = events.iter().sum();
    // A horizon cut can strand the final exchange in the inboxes; flush
    // it so post-run shard state matches the old barrier-time injection.
    for (shard, inbox) in shards.iter_mut().zip(inboxes.iter_mut()) {
        drain_inbox(shard, inbox);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// Toy shard: a ring of counters. Each shard owns `width` cells; a
    /// cell that receives a token at `t` records `(t, token)` and
    /// forwards `token + 1` to the next cell (possibly in the next
    /// shard) after exactly `latency`, until the token value reaches
    /// `limit`.
    struct RingShard {
        id: u32,
        width: u64,
        total: u64,
        latency: Duration,
        limit: u64,
        /// A token whose arrival makes the shard panic.
        panic_at: Option<u64>,
        q: EventQueue<u64>,
        log: Vec<(u64, u64)>,
    }

    impl RingShard {
        fn cell_of(&self, token: u64) -> u64 {
            token % self.total
        }
    }

    impl ShardWorld for RingShard {
        type Msg = u64;

        fn next_time(&mut self) -> Option<Time> {
            self.q.peek_time()
        }

        fn run_window(&mut self, until: Time, out: &mut Vec<ShardMsg<u64>>) -> u64 {
            let mut ran = 0;
            while let Some((now, token)) = self.q.pop_if_before(until) {
                if self.panic_at == Some(token) {
                    panic!("shard {} failed at token {token}", self.id);
                }
                ran += 1;
                self.log.push((now.as_ps(), token));
                let next = token + 1;
                if next >= self.limit {
                    continue;
                }
                let dst = (self.cell_of(next) / self.width) as u32;
                let at = now + self.latency;
                if dst == self.id {
                    self.q.schedule_at(at, next);
                } else {
                    out.push(ShardMsg {
                        at,
                        seq: out.len() as u64,
                        src_shard: self.id,
                        dst_shard: dst,
                        payload: next,
                    });
                }
            }
            #[cfg(debug_assertions)]
            self.q.check_invariants();
            ran
        }

        fn inject(&mut self, msg: ShardMsg<u64>) {
            self.q.schedule_at(msg.at, msg.payload);
        }
    }

    fn ring(shards: u32, width: u64, limit: u64, latency: Duration) -> Vec<RingShard> {
        let total = shards as u64 * width;
        (0..shards)
            .map(|id| {
                let mut s = RingShard {
                    id,
                    width,
                    total,
                    latency,
                    limit,
                    panic_at: None,
                    q: EventQueue::new(),
                    log: Vec::new(),
                };
                // Token 0 starts at cell 0 (shard 0) at t = 5 ns.
                if id == 0 {
                    s.q.schedule_at(Time::from_ns(5), 0);
                }
                s
            })
            .collect()
    }

    fn run_ring(shards: u32, threads: usize) -> (Vec<Vec<(u64, u64)>>, ShardStats) {
        let latency = Duration::from_ns(3);
        let mut ring = ring(shards, 4, 1000, latency);
        let stats = run_sharded(&mut ring, latency, Time::MAX, threads);
        (ring.into_iter().map(|s| s.log).collect(), stats)
    }

    #[test]
    fn ring_visits_every_token_once() {
        let (logs, stats) = run_ring(4, 1);
        let mut all: Vec<(u64, u64)> = logs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(stats.events, 1000);
        assert_eq!(all.len(), 1000);
        for (i, &(at, token)) in all.iter().enumerate() {
            assert_eq!(token, i as u64);
            assert_eq!(at, 5_000 + i as u64 * 3_000);
        }
        // A handoff crosses a shard boundary when the token leaves the
        // last cell of a width-4 block: every fourth of the 999
        // handoffs (tokens 3, 7, ..., 995).
        assert_eq!(stats.messages, 249);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = run_ring(4, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run_ring(4, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn single_shard_needs_no_exchange() {
        let (logs, stats) = run_ring(1, 1);
        assert_eq!(stats.messages, 0);
        assert_eq!(logs[0].len(), 1000);
    }

    #[test]
    fn idle_gaps_are_skipped_not_stepped() {
        // One event per millisecond: with a 3 ns lookahead a stepping
        // coordinator would need ~333k windows per gap; idle-skip needs
        // one per event.
        let mut shards = ring(2, 4, 1, Duration::from_ns(3));
        shards[0].q.schedule_at(Time::from_ms(50), 0);
        let stats = run_sharded(&mut shards, Duration::from_ns(3), Time::MAX, 2);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.windows, 2);
    }

    #[test]
    fn horizon_cuts_the_run() {
        let latency = Duration::from_ns(3);
        let mut shards = ring(2, 4, 1000, latency);
        // Tokens fire at 5ns, 8ns, 11ns, ... — a 10 ns horizon admits
        // the windows opening at 5 and 8 (the 8 ns window also runs the
        // 11 ns event: 8 + 3 - 1 ps window end is exclusive of 11 ns,
        // so exactly the first two windows run).
        let stats = run_sharded(&mut shards, latency, Time::from_ns(10), 1);
        assert!(stats.events >= 2 && stats.events < 1000, "{stats:?}");
    }

    /// The message of the panic `run` raises at each of `threads`,
    /// required to be the same at every thread count.
    fn panic_message(threads: &[usize], run: impl Fn(usize)) -> String {
        let msgs: Vec<String> = threads
            .iter()
            .map(|&t| {
                let payload = panic::catch_unwind(AssertUnwindSafe(|| run(t)))
                    .expect_err("the run must panic");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .expect("a string panic payload")
            })
            .collect();
        assert!(msgs.windows(2).all(|w| w[0] == w[1]), "{msgs:?}");
        msgs[0].clone()
    }

    #[test]
    fn lookahead_violation_is_caught() {
        let msg = panic_message(&[1, 2], |threads| {
            let latency = Duration::from_ns(3);
            let mut shards = ring(2, 4, 1000, latency);
            // Claim a lookahead larger than the actual handoff latency:
            // the first cross-shard message lands inside the window.
            run_sharded(&mut shards, Duration::from_ns(50), Time::MAX, threads);
        });
        assert!(msg.contains("lookahead contract"), "{msg}");
    }

    #[test]
    fn a_panicking_shard_fails_the_run() {
        let msg = panic_message(&[1, 2], |threads| {
            let latency = Duration::from_ns(3);
            let mut shards = ring(2, 4, 1000, latency);
            // Token 9 is the second token to reach shard 0 after a
            // handoff, so both shards have run windows by then.
            shards[0].panic_at = Some(9);
            run_sharded(&mut shards, latency, Time::MAX, threads);
        });
        assert_eq!(msg, "shard 0 failed at token 9");
    }

    #[test]
    fn shards_panicking_in_one_window_fail_with_the_lowest_shards_message() {
        // Repeat the threaded run: two workers race to report.
        let msg = panic_message(&[1, 2, 2, 2, 2, 2, 2, 2, 2], |threads| {
            let latency = Duration::from_ns(3);
            let mut shards = ring(2, 4, 1000, latency);
            // A second token starts in shard 1 (cell 4) beside token 0,
            // and each shard panics on its first token: both panic in
            // the first window.
            shards[1].q.schedule_at(Time::from_ns(5), 4);
            shards[0].panic_at = Some(0);
            shards[1].panic_at = Some(4);
            run_sharded(&mut shards, latency, Time::MAX, threads);
        });
        assert_eq!(msg, "shard 0 failed at token 0");
    }
}
