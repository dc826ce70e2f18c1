//! The original `BinaryHeap`-based event queue, kept as a behavioral
//! oracle.
//!
//! The differential property tests in `tests/prop.rs` drive this queue
//! and the timer-wheel [`EventQueue`](super::EventQueue) with the same
//! operation sequences and require identical observable behavior; the
//! `scheduler` benchmark uses it as the throughput baseline.
//!
//! One fix relative to the original: cancellation is tracked with the
//! set of *pending* sequence numbers instead of a set of cancelled ones,
//! so cancelling an event that already fired correctly returns `false`
//! (the old code inserted the stale seq into its cancelled set, which
//! skewed `len()` and could underflow it).

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event; can be used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

struct Scheduled<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue over a binary heap.
///
/// `pop` returns events in (time, schedule-order) order and advances the
/// simulation clock. Cancellation is lazy: the pending-seq set entry is
/// removed up front, and the dead heap node is skipped when it reaches
/// the head.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Time,
    next_seq: u64,
    pending_seqs: HashSet<u64>,
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
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            next_seq: 0,
            pending_seqs: HashSet::new(),
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending_seqs.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending_seqs.is_empty()
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
        self.heap.push(Scheduled { at, seq, payload });
        self.pending_seqs.insert(seq);
        EventHandle(seq)
    }

    /// Schedule `payload` after delay `d` from now.
    pub fn schedule_after(&mut self, d: Duration, payload: E) -> EventHandle {
        let at = self.now + d;
        self.schedule_at(at, payload)
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (i.e. had not already fired or been cancelled).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        self.pending_seqs.remove(&h.0)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(ev) = self.heap.pop() {
            if !self.pending_seqs.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            return Some((ev.at, ev.payload));
        }
        None
    }

    /// Pop the next event only if it is due at or before `until`.
    /// Mirrors [`super::EventQueue::pop_if_before`].
    pub fn pop_if_before(&mut self, until: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(at) if at <= until => self.pop(),
            _ => None,
        }
    }

    /// Pop the earliest event and drain the rest of its same-instant run
    /// into `buf`, advancing the clock to that instant. Mirrors
    /// [`super::EventQueue::pop_tick_into`].
    pub fn pop_tick_into(&mut self, until: Time, buf: &mut Vec<E>) -> Option<(Time, E)> {
        let (at, first) = self.pop_if_before(until)?;
        while self.peek_time() == Some(at) {
            let (_, payload) = self.pop().expect("peeked");
            buf.push(payload);
        }
        Some((at, first))
    }

    /// Peek at the timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        // Drop cancelled events from the head so the peek is accurate.
        while let Some(head) = self.heap.peek() {
            if !self.pending_seqs.contains(&head.seq) {
                self.heap.pop();
                continue;
            }
            return Some(head.at);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(Time::from_ns(1), 1);
        q.schedule_at(Time::from_ns(2), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1)));
        assert!(!q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(2), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn reference_orders_and_cancels() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_ns(30), "c");
        let h = q.schedule_at(Time::from_ns(10), "a");
        q.schedule_at(Time::from_ns(20), "b");
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.peek_time(), Some(Time::from_ns(20)));
        assert_eq!(q.pop(), Some((Time::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }
}
