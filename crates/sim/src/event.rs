//! The discrete-event queue and simulation driver.
//!
//! The kernel is generic over the event payload type `E`. Events scheduled
//! for the same instant are delivered in the order they were scheduled
//! (FIFO tie-break on a monotonically increasing sequence number), which
//! keeps simulations fully deterministic.
//!
//! # Implementation
//!
//! [`EventQueue`] is a hierarchical timer wheel (a calendar queue in the
//! Varghese & Lauck style) rather than a binary heap. Most datacenter
//! simulation events live within a few microseconds of the clock —
//! serialization delays, link FIFO drains, retransmission timeouts — so
//! the common case of schedule and pop is O(1):
//!
//! * **Arena.** Every scheduled event lives in a slab slot; the
//!   [`EventHandle`] is the slot index plus a generation counter, so
//!   cancellation is an O(1) array probe (no hashing on the hot path)
//!   and stale handles from already-fired events are rejected by a
//!   generation mismatch.
//! * **Wheel.** Four levels of 1024 slots with an 8.192 ns base grain
//!   cover ~8.6 µs / 8.8 ms / 9.0 s / 2.6 h horizons; a per-level
//!   occupancy bitmap finds the next non-empty slot with a couple of
//!   word scans. Events past the last level wait in an *overflow* heap
//!   keyed by (time, seq) and are wheeled in when the clock reaches
//!   their 2^53 ps window.
//! * **Cursor and the sorted window.** `cursor` is the wheel's lower
//!   bound: every event stored in the wheel or overflow has
//!   `at >= cursor`. Everything below the cursor lives in the *window* —
//!   a single (time, seq)-sorted `Vec`, stored latest-first so that `pop`
//!   is a plain `Vec::pop` of the earliest entry. Activation drains a
//!   whole run of level-0 slots (up to [`WINDOW_SLOTS`], capped at
//!   [`DRAIN_CAP`] entries) into the window at once, so the
//!   per-activation overhead (level scans, cascades, cursor math) is
//!   amortized across every event in the run. On a sparse queue the
//!   deliberate cursor run-ahead means most handler-scheduled events
//!   (`schedule_after` with a sub-window delay) land *below* the cursor
//!   and are filed by one ordered insert instead of a wheel insert plus
//!   a later slot activation. They land mid-window, not at its latest
//!   end: on the testbed workloads most such inserts have all but a few
//!   entries later than themselves, so the insert scans from the
//!   earliest end and shifts only the entries due before it. On a dense
//!   queue the entry cap stops the run early, so the window stays small
//!   and the same events take the O(1) wheel insert instead of an
//!   O(window) one.
//!
//! Equal-time FIFO order holds because slot activation sorts each
//! drained slot's chain by (time, seq) — slots cover disjoint time
//! ranges, so the chains concatenate into a sorted run — and ordered
//! inserts place a new event (which always carries the largest seq)
//! after every entry at the same instant, so the window is totally
//! ordered at all times.
//!
//! The packet fabric uses [`EventQueue::pop_tick_into`] to drain every
//! event sharing the earliest pending timestamp in one call (it sorts
//! each tick canonically before dispatch, and peeks further down the
//! window with [`EventQueue::upcoming`] to prefetch); the testbed loops use
//! [`EventQueue::pop_if_before`] to bound a run without the classic
//! `peek_time` + `pop` double lookup.
//!
//! The previous `BinaryHeap`-based implementation is kept as the
//! [`reference`] module: it is the behavioral oracle for the differential
//! property tests and the baseline for the scheduler benchmarks.

pub mod reference;

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width: 2^13 ps = 8.192 ns.
const GRAIN_BITS: u32 = 13;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Wheel levels; beyond the last one events go to the overflow heap.
const LEVELS: usize = 4;
/// Words per occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Bits of time covered by all wheel levels; events whose timestamp
/// differs from the cursor above this bit wait in the overflow heap.
const TOP_SHIFT: u32 = GRAIN_BITS + LEVELS as u32 * SLOT_BITS;
/// Level-0 slots activated per window drain (~2.1 µs of simulated time).
const WINDOW_SLOTS: usize = 256;
/// Soft cap on entries drained into the window per activation. Whole
/// bucket chains are always drained, so a single overfull slot may
/// exceed this by its chain length; the cap only stops the slot run.
///
/// The cap bounds the sorted window, and with it the cost of filing a
/// below-cursor event: under dense load (the packet fabric holds 6–34
/// events per slot) a larger cap runs the cursor a microsecond ahead,
/// so every +120 ns / +600 ns reschedule pays a scan plus a memmove
/// in a ~1,000-entry window. 64 entries
/// (1.5 KB of `WinRef`s) keep that in L1 and the cursor a few slots
/// ahead. Sparse queues never reach the cap — the testbed workloads
/// peak at 60 entries per 256-slot run — and are untouched by it.
/// Sweep in DESIGN.md §17.
const DRAIN_CAP: usize = 64;

/// Handle to a scheduled event; can be used to cancel it.
///
/// Handles are invalidated when their event fires or is cancelled:
/// [`EventQueue::cancel`] on a stale handle returns `false`, even if the
/// underlying arena slot has been reused for a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    idx: u32,
    gen: u32,
}

/// Sentinel for "no entry" in the intrusive bucket chains.
const NIL: u32 = u32::MAX;

/// One arena slot. `payload: None` marks a cancelled (or vacant) entry;
/// `gen` is bumped every time the slot is released so stale handles
/// cannot alias a reused slot. `next` threads the entry into its wheel
/// bucket's chain while it is filed in the wheel (NIL otherwise), so
/// filing an event never allocates.
struct Entry<E> {
    at: Time,
    seq: u64,
    gen: u32,
    next: u32,
    payload: Option<E>,
}

/// Heap entry for the overflow heap. Ordered earliest-first by
/// (time, seq); `BinaryHeap` is a max-heap, so the comparison is
/// reversed. The key is copied out of the arena so heap reordering never
/// touches entry memory.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapRef {
    at: Time,
    seq: u64,
    idx: u32,
}

/// Window-buffer entry: the (time, seq) sort key copied out of the arena
/// so ordered inserts and pops stay inside one contiguous buffer.
#[derive(Clone, Copy)]
struct WinRef {
    at: Time,
    seq: u64,
    idx: u32,
}

impl PartialOrd for HeapRef {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRef {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// `pop` returns events in (time, schedule-order) order and advances the
/// simulation clock. Cancellation is O(1) and exact: [`EventQueue::len`]
/// never counts cancelled events, and cancelling an event that already
/// fired returns `false`.
pub struct EventQueue<E> {
    arena: Vec<Entry<E>>,
    free: Vec<u32>,
    /// `LEVELS * SLOTS` buckets, flattened; bucket `l * SLOTS + s` chains
    /// the events in slot `s` of level `l` through [`Entry::next`]
    /// (head/tail arena indices, NIL when empty). Intrusive chains keep
    /// the hot schedule path allocation-free: a `Vec` per bucket would
    /// re-allocate on first use of every slot the cursor sweeps past,
    /// because level-0 slots only repeat every ~8.4 ms of simulated time.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Reusable buffer for sorting a drained slot's chain.
    batch_scratch: Vec<u32>,
    occupied: [[u64; WORDS]; LEVELS],
    /// Every pending event with `at < cursor`, sorted latest-first by
    /// (time, seq): the last entry is the next to pop. Holds both the
    /// drained slot run and any events scheduled below the cursor
    /// afterwards (filed by ordered insert).
    window: Vec<WinRef>,
    /// Reusable buffer of [`EventQueue::for_each_pending`]: each live
    /// entry's sort key.
    pending_scratch: Vec<u64>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<HeapRef>,
    /// Reusable buffers of [`EventQueue::translate`]: every pending
    /// event as (filing seq, instant, payload), and the moved ones.
    translate_all: Vec<(u64, Time, E)>,
    translate_moved: Vec<(Time, E)>,
    /// Lower bound (in ps) on every event stored in `slots`/`overflow`.
    /// Always level-0 aligned; may run ahead of `now` but never behind.
    cursor: u64,
    now: Time,
    next_seq: u64,
    /// Exact count of live (scheduled, not fired, not cancelled) events.
    pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS],
            tails: vec![NIL; LEVELS * SLOTS],
            batch_scratch: Vec::new(),
            occupied: [[0; WORDS]; LEVELS],
            window: Vec::new(),
            pending_scratch: Vec::new(),
            overflow: BinaryHeap::new(),
            translate_all: Vec::new(),
            translate_moved: Vec::new(),
            cursor: 0,
            now: Time::ZERO,
            next_seq: 0,
            pending: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the current clock).
    pub fn schedule_at(&mut self, at: Time, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = if let Some(idx) = self.free.pop() {
            let e = &mut self.arena[idx as usize];
            e.at = at;
            e.seq = seq;
            e.payload = Some(payload);
            idx
        } else {
            self.arena.push(Entry {
                at,
                seq,
                gen: 0,
                next: NIL,
                payload: Some(payload),
            });
            (self.arena.len() - 1) as u32
        };
        let gen = self.arena[idx as usize].gen;
        self.pending += 1;
        if at.as_ps() < self.cursor {
            self.window_insert(WinRef { at, seq, idx });
        } else {
            self.insert_raw(idx, at, seq);
        }
        EventHandle { idx, gen }
    }

    /// File an event below the cursor into the sorted window. The new
    /// event carries the largest seq issued so far, so ties on time sort
    /// after every existing entry: position on time alone. Handler-
    /// scheduled events land a few entries from the earliest end, not at
    /// the latest (on `testbed_stress` 93 % of these inserts have a later
    /// entry, and 8.1 of the window's 9.8 entries are later than the new
    /// one on average), so a linear scan from that end finds the place,
    /// and the insert shifts only the entries due before the new one.
    #[inline]
    fn window_insert(&mut self, w: WinRef) {
        let mut i = self.window.len();
        while i > 0 && self.window[i - 1].at <= w.at {
            i -= 1;
        }
        self.window.insert(i, w);
    }

    /// Schedule `payload` after delay `d` from now.
    pub fn schedule_after(&mut self, d: Duration, payload: E) -> EventHandle {
        let at = self.now + d;
        self.schedule_at(at, payload)
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (i.e. had not already fired or been cancelled).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        match self.arena.get_mut(h.idx as usize) {
            Some(e) if e.gen == h.gen && e.payload.is_some() => {
                e.payload = None;
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            // The window's last entry is the global minimum: every event
            // below the cursor is in the window (sorted latest-first),
            // everything in the wheel/overflow is at or above the cursor.
            while let Some(w) = self.window.pop() {
                let e = &mut self.arena[w.idx as usize];
                let payload = e.payload.take();
                self.release(w.idx);
                if let Some(payload) = payload {
                    debug_assert!(w.at >= self.now);
                    self.now = w.at;
                    self.pending -= 1;
                    return Some((w.at, payload));
                }
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Pop the next event only if it is due at or before `until`,
    /// advancing the clock to its timestamp. A single probe of the next
    /// event replaces the `peek_time` + `pop` double lookup in bounded
    /// run loops; returns `None` when the queue is empty or the next event
    /// is after `until` (the clock is not advanced in either case).
    pub fn pop_if_before(&mut self, until: Time) -> Option<(Time, E)> {
        loop {
            while let Some(&w) = self.window.last() {
                if self.arena[w.idx as usize].payload.is_none() {
                    self.window.pop();
                    self.release(w.idx);
                    continue;
                }
                if w.at > until {
                    return None;
                }
                self.window.pop();
                let payload = self.arena[w.idx as usize]
                    .payload
                    .take()
                    .expect("probed live");
                self.release(w.idx);
                debug_assert!(w.at >= self.now);
                self.now = w.at;
                self.pending -= 1;
                return Some((w.at, payload));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Pop the earliest event and drain the rest of its same-instant run
    /// into `buf`, advancing the clock to that instant. Returns
    /// `(timestamp, first event)`, or `None` when the queue is empty or
    /// the next event is after `until` (clock untouched in either case).
    ///
    /// The first event of the tick comes back by value — the common
    /// singleton tick costs exactly one extra peek over
    /// [`EventQueue::pop_if_before`], with no buffer round-trip. The
    /// remainder lands in `buf` in exact (time, seq) delivery order —
    /// the same order a `pop` loop would produce. Same-instant events
    /// can never straddle the window/wheel boundary, so one window scan
    /// drains the whole tick, however long; an event scheduled at the
    /// same instant after the call returns starts a tick of its own.
    /// Drained events are committed: their handles are spent, and
    /// cancelling one reports `false` exactly as for a fired event.
    #[inline]
    pub fn pop_tick_into(&mut self, until: Time, buf: &mut Vec<E>) -> Option<(Time, E)> {
        // Inline fast path: live earliest window entry. Everything else
        // (cancelled entries, window refill via `advance`) stays outlined
        // so this wrapper inlines into the caller's dispatch loop just
        // like `pop` does — without it the call costs more than the
        // double lookup it replaces.
        if let Some(&w) = self.window.last() {
            if self.arena[w.idx as usize].payload.is_some() {
                if w.at > until {
                    return None;
                }
                self.window.pop();
                let payload = self.arena[w.idx as usize]
                    .payload
                    .take()
                    .expect("probed live");
                self.release(w.idx);
                self.pending -= 1;
                if let Some(n) = self.window.last() {
                    if n.at == w.at {
                        self.drain_tick_rest(w.at, buf);
                    }
                }
                debug_assert!(w.at >= self.now);
                self.now = w.at;
                return Some((w.at, payload));
            }
        }
        self.pop_tick_into_slow(until, buf)
    }

    fn pop_tick_into_slow(&mut self, until: Time, buf: &mut Vec<E>) -> Option<(Time, E)> {
        let (at, first) = loop {
            match self.window.last() {
                Some(&w) => {
                    if self.arena[w.idx as usize].payload.is_some() {
                        if w.at > until {
                            return None;
                        }
                        self.window.pop();
                        let payload = self.arena[w.idx as usize]
                            .payload
                            .take()
                            .expect("probed live");
                        self.release(w.idx);
                        self.pending -= 1;
                        break (w.at, payload);
                    }
                    self.window.pop();
                    self.release(w.idx);
                }
                None => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        };
        self.drain_tick_rest(at, buf);
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, first))
    }

    /// Drain the remainder of the `at` tick's run into `buf`, skipping
    /// cancelled entries.
    fn drain_tick_rest(&mut self, at: Time, buf: &mut Vec<E>) {
        while let Some(&w) = self.window.last() {
            if w.at != at {
                break;
            }
            self.window.pop();
            let payload = self.arena[w.idx as usize].payload.take();
            self.release(w.idx);
            if let Some(payload) = payload {
                self.pending -= 1;
                buf.push(payload);
            }
        }
    }

    /// The payload of the `k`-th live event (0 = the next one) among
    /// those the sorted window already holds, or `None` when the window
    /// ends first. A read-only hint for prefetching the state a handler
    /// will touch: it never advances the wheel, and an event scheduled
    /// or cancelled after the call can make it stale.
    #[inline]
    pub fn upcoming(&self, k: usize) -> Option<&E> {
        self.window
            .iter()
            .rev()
            .filter_map(|w| self.arena[w.idx as usize].payload.as_ref())
            .nth(k)
    }

    /// Visit every pending event with its instant, in filing order.
    ///
    /// One arena scan gathers a `u64` key per live entry into a
    /// contiguous buffer: its seq's distance above `base` (the seq filed
    /// 2^32 filings ago) over its arena index. Sorting plain integers
    /// never reaches back into the arena. An entry filed before `base`
    /// has no such key; then the keys sort by the arena's seqs instead.
    pub fn for_each_pending(&mut self, mut f: impl FnMut(Time, &E)) {
        let base = self.next_seq.saturating_sub(1 << 32);
        let mut before_base = false;
        let mut live = std::mem::take(&mut self.pending_scratch);
        live.clear();
        for (i, e) in self.arena.iter().enumerate() {
            if e.payload.is_some() {
                before_base |= e.seq < base;
                live.push(e.seq.wrapping_sub(base) << 32 | i as u64);
            }
        }
        if before_base {
            live.sort_unstable_by_key(|&k| self.arena[k as u32 as usize].seq);
        } else {
            live.sort_unstable();
        }
        for &k in &live {
            let e = &self.arena[k as u32 as usize];
            f(e.at, e.payload.as_ref().expect("live"));
        }
        self.pending_scratch = live;
    }

    /// Advance the clock by `d` without popping — over a run a periodic
    /// model computes instead of simulating. `place` takes every pending
    /// event in filing order and hands it back to move by `d` (`true`)
    /// or keep its instant (`false`), or consumes it (`None`). Moved and
    /// kept events keep their filing order, and every moved one files
    /// after every kept one, as if scheduled last. Spends every handle.
    ///
    /// # Panics
    /// Panics if a kept event would fall before the new clock.
    pub fn translate(&mut self, d: Duration, mut place: impl FnMut(E) -> Option<(E, bool)>) {
        let mut all = std::mem::take(&mut self.translate_all);
        let mut moved = std::mem::take(&mut self.translate_moved);
        loop {
            while let Some(w) = self.window.pop() {
                let payload = self.arena[w.idx as usize].payload.take();
                self.release(w.idx);
                all.extend(payload.map(|p| (w.seq, w.at, p)));
            }
            if !self.advance() {
                break;
            }
        }
        self.pending = 0;
        all.sort_unstable_by_key(|e| e.0);
        self.now += d;
        // Kept events file now, in filing order; moved ones after them.
        for (_, at, e) in all.drain(..) {
            match place(e) {
                Some((e, false)) => {
                    self.schedule_at(at, e);
                }
                Some((e, true)) => moved.push((at + d, e)),
                None => {}
            }
        }
        for (at, e) in moved.drain(..) {
            self.schedule_at(at, e);
        }
        (self.translate_all, self.translate_moved) = (all, moved);
    }

    /// Exhaustively recount the queue's live entries and check the
    /// structural invariants that `len`/`is_empty` rely on:
    ///
    /// * live arena entries (payload present) == `pending`, so the O(1)
    ///   counters agree with ground truth;
    /// * the sorted window is nondecreasing in `(at, seq)` and every
    ///   live window ref's key matches its arena entry;
    /// * no live entry is timestamped before `now`.
    ///
    /// This is an O(arena + window) sweep intended for window
    /// boundaries of sharded runs (behind `debug_assertions`) and for
    /// tests — never for a hot loop.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        let live = self.arena.iter().filter(|e| e.payload.is_some()).count();
        assert_eq!(
            live, self.pending,
            "len()/pending ({}) disagrees with live arena recount ({live})",
            self.pending
        );
        assert_eq!(
            self.is_empty(),
            live == 0,
            "is_empty() disagrees with live arena recount ({live})"
        );
        let mut prev: Option<(Time, u64)> = None;
        for w in self.window.iter().rev() {
            if let Some((pat, pseq)) = prev {
                assert!(
                    (pat, pseq) <= (w.at, w.seq),
                    "window out of order: ({pat:?},{pseq}) then ({:?},{})",
                    w.at,
                    w.seq
                );
            }
            prev = Some((w.at, w.seq));
            let e = &self.arena[w.idx as usize];
            if e.payload.is_some() {
                assert_eq!(
                    (e.at, e.seq),
                    (w.at, w.seq),
                    "window ref key diverged from arena entry {}",
                    w.idx
                );
                assert!(
                    w.at >= self.now,
                    "live window entry at {:?} is before now {:?}",
                    w.at,
                    self.now
                );
            }
        }
        for e in self.arena.iter().filter(|e| e.payload.is_some()) {
            assert!(
                e.at >= self.now,
                "live entry at {:?} is before now {:?}",
                e.at,
                self.now
            );
        }
    }

    /// Peek at the timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        loop {
            while let Some(&w) = self.window.last() {
                if self.arena[w.idx as usize].payload.is_some() {
                    return Some(w.at);
                }
                self.window.pop();
                self.release(w.idx);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Return an arena slot to the free list, invalidating its handles.
    fn release(&mut self, idx: u32) {
        let e = &mut self.arena[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.payload = None;
        self.free.push(idx);
    }

    /// File an event under the wheel level matching its distance from the
    /// cursor, or the overflow heap past the wheel horizon.
    fn insert_raw(&mut self, idx: u32, at: Time, seq: u64) {
        let at_ps = at.as_ps();
        debug_assert!(at_ps >= self.cursor);
        let x = at_ps ^ self.cursor;
        let level = if x < (1 << GRAIN_BITS) {
            0
        } else {
            ((63 - x.leading_zeros() - GRAIN_BITS) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(HeapRef { at, seq, idx });
            return;
        }
        let shift = GRAIN_BITS + SLOT_BITS * level as u32;
        let slot = ((at_ps >> shift) & SLOT_MASK) as usize;
        let bucket = level * SLOTS + slot;
        self.arena[idx as usize].next = NIL;
        let tail = self.tails[bucket];
        if tail == NIL {
            self.heads[bucket] = idx;
        } else {
            self.arena[tail as usize].next = idx;
        }
        self.tails[bucket] = idx;
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// Unlink bucket `b`'s whole chain into `batch_scratch` (returned by
    /// value to sidestep the borrow of `self`), leaving the bucket empty.
    fn unchain(&mut self, b: usize) -> Vec<u32> {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        let mut cur = self.heads[b];
        while cur != NIL {
            batch.push(cur);
            cur = self.arena[cur as usize].next;
        }
        self.heads[b] = NIL;
        self.tails[b] = NIL;
        batch
    }

    /// Move the cursor forward to the next stored events: drain the next
    /// run of occupied level-0 slots into the window, cascading higher
    /// levels (and refilling from the overflow heap) as needed. Returns
    /// false if the wheel and overflow are completely empty.
    ///
    /// Occupied slots at each level always lie at or after the cursor's
    /// slot index — an insert lands above the cursor's index at its
    /// level, and a level's indices reset only after all its slots have
    /// drained — so scanning `[cursor_slot, SLOTS)` without wrap-around
    /// is exhaustive.
    fn advance(&mut self) -> bool {
        debug_assert!(self.window.is_empty());
        loop {
            // A lower-level rollover can carry the cursor into a new
            // window whose own higher-level slot still holds events
            // (e.g. level-0 slot 1023 activates and the carry lands the
            // cursor at the base of the next level-1 slot). Those events
            // may be due before anything in level 0, so drain the
            // cursor's own slot at every higher level — highest first,
            // so redistributed entries settle through lower levels —
            // before trusting the level-0 scan.
            for level in (1..LEVELS).rev() {
                let shift = GRAIN_BITS + SLOT_BITS * level as u32;
                let slot = ((self.cursor >> shift) & SLOT_MASK) as usize;
                if self.occupied[level][slot / 64] & (1 << (slot % 64)) != 0 {
                    // Occupied own slots are only ever entered at their
                    // base, so redistribution keeps `at >= cursor`.
                    debug_assert_eq!(self.cursor & ((1u64 << shift) - 1), 0);
                    self.drain_slot(level, slot);
                }
            }
            // Level 0: drain every occupied slot in the next
            // WINDOW_SLOTS-wide run into the window. One activation
            // covers the whole run, amortizing the level scans and
            // cursor math above across all its events, and the cursor
            // jump past the run routes handler-scheduled events into
            // the sorted window instead of the wheel. Level-0 slots
            // cover disjoint time ranges, so sorting each slot's chain
            // on its own and concatenating them in slot order sorts the
            // run. A chain is in filing order, which is already (time,
            // seq) order unless a cascade or an earlier instant was filed
            // behind a later one; only such a chain is sorted. The run is
            // built earliest-first, then reversed into the window's
            // latest-first order.
            let start = ((self.cursor >> GRAIN_BITS) & SLOT_MASK) as usize;
            if let Some(s) = self.find_occupied(0, start) {
                let end = (s + WINDOW_SLOTS).min(SLOTS);
                let mut drained_to = end;
                let mut slot = s;
                while let Some(s2) = self.find_occupied(0, slot) {
                    if s2 >= end {
                        break;
                    }
                    self.occupied[0][s2 / 64] &= !(1 << (s2 % 64));
                    let mut cur = self.heads[s2];
                    self.heads[s2] = NIL;
                    self.tails[s2] = NIL;
                    let from = self.window.len();
                    let (mut prev, mut sorted) = ((Time::ZERO, 0), true);
                    while cur != NIL {
                        let e = &self.arena[cur as usize];
                        sorted &= prev <= (e.at, e.seq);
                        prev = (e.at, e.seq);
                        self.window.push(WinRef {
                            at: e.at,
                            seq: e.seq,
                            idx: cur,
                        });
                        cur = e.next;
                    }
                    if !sorted {
                        self.window[from..].sort_unstable_by_key(|w| (w.at, w.seq));
                    }
                    slot = s2 + 1;
                    if self.window.len() >= DRAIN_CAP {
                        drained_to = slot;
                        break;
                    }
                    if slot >= end {
                        break;
                    }
                }
                self.window.reverse();
                // Every event below base + drained_to slots is now in
                // the window, so the cursor jumps past the whole run.
                // Wraps only once the clock exhausts the u64 ps domain;
                // at that point the wheel is empty and inserts fall
                // through to the overflow heap, which restores order.
                let span_mask = (1u64 << (GRAIN_BITS + SLOT_BITS)) - 1;
                self.cursor =
                    (self.cursor & !span_mask).wrapping_add((drained_to as u64) << GRAIN_BITS);
                return true;
            }
            // Levels 1+: cascade the next occupied slot down.
            if self.cascade() {
                continue;
            }
            // Refill the wheel from the overflow heap's next window.
            let Some(head) = self.overflow.peek() else {
                return false;
            };
            let window = head.at.as_ps() >> TOP_SHIFT;
            debug_assert!(window << TOP_SHIFT >= self.cursor);
            self.cursor = window << TOP_SHIFT;
            while let Some(head) = self.overflow.peek() {
                if head.at.as_ps() >> TOP_SHIFT != window {
                    break;
                }
                let HeapRef { at, seq, idx } = self.overflow.pop().expect("peeked");
                if self.arena[idx as usize].payload.is_none() {
                    self.release(idx);
                } else {
                    self.insert_raw(idx, at, seq);
                }
            }
        }
    }

    /// Re-distribute the next occupied higher-level slot into lower
    /// levels. Returns true if a slot was cascaded.
    fn cascade(&mut self) -> bool {
        for level in 1..LEVELS {
            let shift = GRAIN_BITS + SLOT_BITS * level as u32;
            let start = ((self.cursor >> shift) & SLOT_MASK) as usize;
            let Some(s) = self.find_occupied(level, start) else {
                continue;
            };
            let span_mask = (1u64 << (shift + SLOT_BITS)) - 1;
            self.cursor = (self.cursor & !span_mask) | ((s as u64) << shift);
            self.drain_slot(level, s);
            return true;
        }
        false
    }

    /// Empty slot `s` of `level`, redistributing live entries to lower
    /// levels and releasing cancelled ones.
    fn drain_slot(&mut self, level: usize, s: usize) {
        let mut batch = self.unchain(level * SLOTS + s);
        self.occupied[level][s / 64] &= !(1 << (s % 64));
        for &idx in &batch {
            let e = &self.arena[idx as usize];
            if e.payload.is_none() {
                self.release(idx);
            } else {
                let (at, seq) = (e.at, e.seq);
                // Redistribution always lands strictly below `level`, so
                // this never chains into the bucket being drained.
                self.insert_raw(idx, at, seq);
            }
        }
        batch.clear();
        self.batch_scratch = batch;
    }

    /// First occupied slot index `>= start` at `level`, via the bitmap.
    #[inline]
    fn find_occupied(&self, level: usize, start: usize) -> Option<usize> {
        let words = &self.occupied[level];
        let mut w = start / 64;
        let mut word = words[w] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = words[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(30), "c");
        q.schedule_at(Time::from_ns(10), "a");
        q.schedule_at(Time::from_ns(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_ns(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ns(7));
        // schedule_after is now relative to the new clock
        q.schedule_after(Duration::from_ns(3), ());
        assert_eq!(q.pop(), Some((Time::from_ns(10), ())));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(10), ());
        q.pop();
        q.schedule_at(Time::from_ns(5), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(Time::from_ns(1), 1);
        q.schedule_at(Time::from_ns(2), 2);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
    }

    #[test]
    fn peek_time_sees_through_cancelled_events() {
        let mut q = EventQueue::new();
        let h = q.schedule_at(Time::from_ns(1), 1);
        q.schedule_at(Time::from_ns(9), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        assert_eq!(q.pop(), Some((Time::from_ns(9), 2)));
    }

    #[test]
    fn cancel_after_fire_returns_false_and_len_stays_exact() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(Time::from_ns(1), 1);
        let h2 = q.schedule_at(Time::from_ns(2), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1)));
        // h1 already fired: cancelling it must not succeed and must not
        // disturb the pending count.
        assert!(!q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        assert!(!q.cancel(h2), "cancel after fire is always false");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_handle_does_not_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(Time::from_ns(1), 1);
        q.pop();
        // The arena slot of h1 is reused for the next event; the stale
        // handle must not be able to cancel it.
        let h2 = q.schedule_at(Time::from_ns(2), 2);
        assert!(!q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        assert!(!q.cancel(h2));
    }

    #[test]
    fn schedule_below_cursor_after_peek_stays_ordered() {
        let mut q = EventQueue::new();
        // Two events in the same 8.192 ns level-0 slot.
        q.schedule_at(Time::from_ps(100), 1);
        q.schedule_at(Time::from_ps(8000), 3);
        assert_eq!(q.pop(), Some((Time::from_ps(100), 1)));
        // The pop activated the slot and moved the wheel cursor past it;
        // scheduling between now and the cursor must still be delivered
        // in time order.
        q.schedule_at(Time::from_ps(5000), 2);
        assert_eq!(q.pop(), Some((Time::from_ps(5000), 2)));
        assert_eq!(q.pop(), Some((Time::from_ps(8000), 3)));
    }

    #[test]
    fn far_future_events_cross_all_wheel_levels() {
        let mut q = EventQueue::new();
        // One event per wheel level plus one past the horizon (in the
        // overflow heap), scheduled in reverse order.
        let times = [
            Time::from_secs(40_000), // overflow (> ~2.6 h horizon)
            Time::from_secs(30),     // level 3
            Time::from_ms(50),       // level 2
            Time::from_us(100),      // level 1
            Time::from_ns(10),       // level 0
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev);
        }
        let mut want: Vec<_> = times.iter().copied().zip(0..times.len()).collect();
        want.reverse();
        assert_eq!(got, want);
    }

    #[test]
    fn pop_if_before_bounds_the_run_without_advancing() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(10), 1);
        q.schedule_at(Time::from_ns(20), 2);
        assert_eq!(
            q.pop_if_before(Time::from_ns(15)),
            Some((Time::from_ns(10), 1))
        );
        // Next event is after the bound: None, clock stays at the last pop.
        assert_eq!(q.pop_if_before(Time::from_ns(15)), None);
        assert_eq!(q.now(), Time::from_ns(10));
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_if_before(Time::from_ns(20)),
            Some((Time::from_ns(20), 2))
        );
        assert_eq!(q.pop_if_before(Time::MAX), None);
    }

    #[test]
    fn pop_tick_into_drains_one_tick_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        q.schedule_at(Time::from_ns(6), 99);
        let mut buf = Vec::new();
        assert_eq!(q.pop_tick_into(Time::MAX, &mut buf), Some((t, 0)));
        assert_eq!(buf, (1..10).collect::<Vec<_>>());
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        buf.clear();
        assert_eq!(q.pop_tick_into(Time::from_ns(5), &mut buf), None);
        assert_eq!(
            q.pop_tick_into(Time::from_ns(6), &mut buf),
            Some((Time::from_ns(6), 99))
        );
        assert!(buf.is_empty(), "singleton tick never touches the buffer");
    }

    #[test]
    fn pop_tick_into_returns_a_tick_longer_than_the_drain_cap_whole() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        let n = 3 * DRAIN_CAP + 1;
        for i in 0..n {
            q.schedule_at(t, i);
        }
        q.schedule_at(Time::from_ns(6), n + 1);
        let mut buf = Vec::new();
        assert_eq!(q.pop_tick_into(Time::MAX, &mut buf), Some((t, 0)));
        assert_eq!(buf, (1..n).collect::<Vec<_>>());
        // What a handler schedules at the same instant once the call has
        // returned is a tick of its own: alone, before the later event.
        q.schedule_at(t, n);
        buf.clear();
        assert_eq!(q.pop_tick_into(Time::MAX, &mut buf), Some((t, n)));
        assert!(buf.is_empty());
        assert_eq!(
            q.pop_tick_into(Time::MAX, &mut buf),
            Some((Time::from_ns(6), n + 1))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_tick_into_skips_cancelled_and_spends_handles() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        let _h0 = q.schedule_at(t, 0);
        let h1 = q.schedule_at(t, 1);
        let h2 = q.schedule_at(t, 2);
        assert!(q.cancel(h1));
        let mut buf = Vec::new();
        assert_eq!(q.pop_tick_into(Time::MAX, &mut buf), Some((t, 0)));
        assert_eq!(buf, vec![2]);
        // Drained events are committed: cancelling reports false, exactly
        // as for an event delivered through pop().
        assert!(!q.cancel(h2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overfull_slot_drains_whole_and_parks_the_cursor_behind_it() {
        let mut q = EventQueue::new();
        // One level-0 slot whose chain alone is over twice the cap, with
        // ties, and a later slot inside the same WINDOW_SLOTS run.
        let n = 2 * DRAIN_CAP + 3;
        let mut want: Vec<(Time, usize)> = (0..n)
            .map(|i| (Time::from_ps((i % 7) as u64 * 1000), i))
            .collect();
        for &(at, i) in &want {
            q.schedule_at(at, i);
        }
        let slot = 1u64 << GRAIN_BITS;
        want.push((Time::from_ps(3 * slot), n));
        q.schedule_at(Time::from_ps(3 * slot), n);
        // The first activation takes the whole chain — chains are never
        // split — and stops the run there: the cursor parks one slot on,
        // not at the end of the run, and slot 3 stays in the wheel.
        assert_eq!(q.pop(), Some((Time::ZERO, 0)));
        assert_eq!(q.window.len(), n - 1);
        assert_eq!(q.cursor, slot);
        q.check_invariants();
        // Just below the parked cursor files into the window, at the
        // cursor into the wheel; both pop in order.
        want.push((Time::from_ps(slot - 1), n + 1));
        q.schedule_at(Time::from_ps(slot - 1), n + 1);
        want.push((Time::from_ps(slot), n + 2));
        q.schedule_at(Time::from_ps(slot), n + 2);
        assert_eq!(q.window.len(), n);
        q.check_invariants();
        want.sort();
        for &ev in &want[1..] {
            assert_eq!(q.pop(), Some(ev));
        }
        assert_eq!(q.pop(), None);
        q.check_invariants();
    }

    #[test]
    fn cascade_behind_later_filed_entries_sorts_at_activation() {
        let mut q = EventQueue::new();
        let span = 1u64 << (GRAIN_BITS + SLOT_BITS);
        // Filed while the cursor is in the first level-1 span: these
        // wait in level-1 slot 1.
        q.schedule_at(Time::from_ps(span + 50), "cascaded 50");
        q.schedule_at(Time::from_ps(span + 700), "cascaded 700");
        // The first span's last level-0 slot: its activation carries
        // the cursor to the base of level-1 slot 1.
        q.schedule_at(Time::from_ps(span - 1), "carry");
        assert_eq!(q.pop(), Some((Time::from_ps(span - 1), "carry")));
        assert_eq!(q.cursor, span);
        // Filed after the carry, straight into level-0 slot 0: later
        // seqs, and instants on both sides of the cascaded ones.
        q.schedule_at(Time::from_ps(span + 300), "direct 300");
        q.schedule_at(Time::from_ps(span + 900), "direct 900");
        // Each group is filed in time order, but the next activation
        // cascades level-1 slot 1 into level-0 slot 0 behind the direct
        // entries, so that chain is out of order.
        let mut got = Vec::new();
        while let Some((at, e)) = q.pop() {
            got.push((at.as_ps() - span, e));
            q.check_invariants();
        }
        assert_eq!(
            got,
            [
                (50, "cascaded 50"),
                (300, "direct 300"),
                (700, "cascaded 700"),
                (900, "direct 900"),
            ]
        );
    }

    #[test]
    fn pending_walk_orders_entries_filed_2_32_filings_apart() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(1), "x");
        q.schedule_at(Time::from_ns(30), "a");
        q.schedule_at(Time::from_ns(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "x")));
        // Skip 2^32 - 1 filings: "c" files with "b"'s seq plus 2^32, in
        // the arena slot "x" freed, so the distance keys would tie it
        // with "b" and order it first.
        q.next_seq += (1 << 32) - 1;
        q.schedule_at(Time::from_ns(10), "c");
        let mut walk = Vec::new();
        q.for_each_pending(|at, &e| walk.push((at, e)));
        let want = [(30, "a"), (20, "b"), (10, "c")].map(|(ns, e)| (Time::from_ns(ns), e));
        assert_eq!(walk, want);
        for ev in want.into_iter().rev() {
            assert_eq!(q.pop(), Some(ev));
        }
    }

    #[test]
    fn cancelled_events_are_dropped_at_every_layer() {
        let mut q = EventQueue::new();
        let far = q.schedule_at(Time::from_secs(40_000), 0);
        let mid = q.schedule_at(Time::from_ms(50), 1);
        let near = q.schedule_at(Time::from_ns(10), 2);
        let keep = q.schedule_at(Time::from_secs(50_000), 3);
        assert!(q.cancel(far) && q.cancel(mid) && q.cancel(near));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_secs(50_000), 3)));
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(keep));
    }
}
