//! Recirculation-based packet buffer, modeling the Tofino technique the
//! paper uses for both the sender's Tx buffer and the receiver's
//! reordering buffer (§3.3, Appendix A.2).
//!
//! On Tofino, a buffered packet loops through the pipeline via a
//! recirculation port: each loop takes a fixed latency, and the
//! recirculation port has finite bandwidth (it drains at 100 G regardless
//! of the front-panel port speed — §4/B.1). Rather than simulating every
//! loop as an event (which would be ~10⁸ events/s), we keep entries in an
//! ordered map and account for loop costs analytically: a packet resident
//! for time `T` performed `⌈T / loop_latency⌉` loops, each consuming one
//! pipeline slot. That preserves the two observable quantities — buffer
//! occupancy over time (Fig 14) and recirculation overhead (Table 4) —
//! while keeping the event count proportional to packets.
//!
//! Entries hold [`PktId`] handles plus frame/wire lengths cached at
//! insertion (buffered packets never mutate, so the caches cannot go
//! stale); loop accounting therefore never dereferences the pool.
//!
//! Entries live in struct-of-arrays layout: parallel key-sorted lanes
//! (keys, handles, insertion times, lengths) instead of a `BTreeMap` of
//! entry structs. Keys are near-monotone in practice — the sender's Tx
//! buffer appends strictly increasing sequence indices, the receiver's
//! reordering buffer sees small perturbations — so an insert is a
//! `push_back` in the common case and the cumulative-ACK `remove_up_to`
//! is a prefix drain that scans one contiguous key lane per cache line
//! instead of walking tree nodes.

use lg_obs::MemBudget;
use lg_obs::{MetricSink, Observe};
use lg_packet::{PacketPool, PktId};
use lg_sim::{Duration, Rate, Time};
use std::collections::VecDeque;

/// Default recirculation loop latency (ingress + egress pipeline pass).
pub const DEFAULT_LOOP_LATENCY: Duration = Duration(750_000); // 750 ns
/// Recirculation port drain rate (100 G on Tofino regardless of the
/// front-panel port being protected).
pub const RECIRC_DRAIN_RATE: Rate = Rate::from_gbps(100);
/// The experiments restrict recirculation buffers to 200 KB (§4).
pub const DEFAULT_CAPACITY: u64 = 200 * 1024;

/// Statistics a recirculation buffer accumulates for the overhead tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecircStats {
    /// Total pipeline loops performed by all departed packets.
    pub loops: u64,
    /// Total loop-bytes (frame bytes × loops), for bandwidth overhead.
    pub loop_bytes: u64,
    /// Packets that could not be inserted (buffer full).
    pub overflows: u64,
    /// Peak occupancy in bytes.
    pub high_watermark: u64,
}

impl Observe for RecircStats {
    fn observe(&self, m: &mut MetricSink) {
        m.counter("loops", self.loops);
        m.counter("loop_bytes", self.loop_bytes);
        m.counter("overflows", self.overflows);
        m.gauge("high_watermark", self.high_watermark);
    }
}

/// An ordered packet buffer with byte-capacity and loop accounting.
///
/// Keys are caller-maintained monotonically increasing sequence indices
/// (the simulation tracks the protocol's 16-bit + era wire sequence
/// numbers as widened `u64`s internally; the wire headers still carry the
/// real 3-byte form).
#[derive(Debug)]
pub struct RecircBuffer {
    /// Buffered sequence keys, sorted ascending; the other lanes hold
    /// the matching entry fields at the same index.
    keys: VecDeque<u64>,
    ids: VecDeque<PktId>,
    inserted_at: VecDeque<Time>,
    frame_lens: VecDeque<u32>,
    wire_lens: VecDeque<u32>,
    bytes: u64,
    capacity: u64,
    loop_latency: Duration,
    budget: Option<MemBudget>,
    stats: RecircStats,
}

impl RecircBuffer {
    /// A buffer with the given byte capacity.
    pub fn new(capacity: u64) -> RecircBuffer {
        RecircBuffer {
            keys: VecDeque::new(),
            ids: VecDeque::new(),
            inserted_at: VecDeque::new(),
            frame_lens: VecDeque::new(),
            wire_lens: VecDeque::new(),
            bytes: 0,
            capacity,
            loop_latency: DEFAULT_LOOP_LATENCY,
            budget: None,
            stats: RecircStats::default(),
        }
    }

    /// Override the loop latency.
    pub fn with_loop_latency(mut self, d: Duration) -> RecircBuffer {
        self.loop_latency = d;
        self
    }

    /// Charge resident bytes against a shared [`MemBudget`]. A refused
    /// charge is reported as an overflow, exactly like a full buffer.
    pub fn with_budget(mut self, budget: MemBudget) -> RecircBuffer {
        self.budget = Some(budget);
        self
    }

    /// In-place form of [`RecircBuffer::with_budget`]. Must be called
    /// while the buffer is empty so charged and resident bytes agree.
    pub fn set_budget(&mut self, budget: MemBudget) {
        debug_assert!(self.is_empty(), "budget attached to a non-empty buffer");
        self.budget = Some(budget);
    }

    /// Lane index of `key`, if buffered.
    #[inline]
    fn index_of(&self, key: u64) -> Option<usize> {
        // Tx-buffer removals hit the front (cumulative ACK then
        // retransmit of the oldest outstanding), so check it before the
        // general binary search.
        match self.keys.front() {
            Some(&k) if k == key => return Some(0),
            Some(&k) if k > key => return None,
            Some(_) => {}
            None => return None,
        }
        let i = self.keys.partition_point(|&k| k < key);
        (i < self.keys.len() && self.keys[i] == key).then_some(i)
    }

    /// Insert a packet under `key`. On overflow the handle is returned as
    /// an error (still owned by the caller) and the overflow counter
    /// increments.
    pub fn insert(
        &mut self,
        key: u64,
        id: PktId,
        now: Time,
        pool: &PacketPool,
    ) -> Result<(), PktId> {
        let pkt = pool.get(id);
        let frame_len = pkt.frame_len();
        let wire_len = pkt.wire_len();
        if self.bytes + frame_len as u64 > self.capacity {
            self.stats.overflows += 1;
            return Err(id);
        }
        if let Some(b) = &self.budget {
            if !b.try_charge(frame_len as u64) {
                self.stats.overflows += 1;
                return Err(id);
            }
        }
        self.bytes += frame_len as u64;
        self.stats.high_watermark = self.stats.high_watermark.max(self.bytes);
        // Keys are near-monotone: append unless an out-of-order arrival
        // (receiver reordering) has to be filed mid-lane.
        match self.keys.back() {
            Some(&b) if b > key => {
                let i = self.keys.partition_point(|&k| k < key);
                debug_assert!(self.keys[i] != key, "duplicate recirc key {key}");
                self.keys.insert(i, key);
                self.ids.insert(i, id);
                self.inserted_at.insert(i, now);
                self.frame_lens.insert(i, frame_len);
                self.wire_lens.insert(i, wire_len);
            }
            back => {
                debug_assert!(back != Some(&key), "duplicate recirc key {key}");
                self.keys.push_back(key);
                self.ids.push_back(id);
                self.inserted_at.push_back(now);
                self.frame_lens.push_back(frame_len);
                self.wire_lens.push_back(wire_len);
            }
        }
        Ok(())
    }

    /// Loop accounting for the entry at lane index `i` as it departs.
    fn account_departure(&mut self, i: usize, now: Time) {
        let resident = now.saturating_since(self.inserted_at[i]);
        let loops = resident
            .as_ps()
            .div_ceil(self.loop_latency.as_ps().max(1))
            .max(1);
        self.stats.loops += loops;
        self.stats.loop_bytes += loops * self.wire_lens[i] as u64;
        let frame_len = self.frame_lens[i] as u64;
        self.bytes -= frame_len;
        if let Some(b) = &self.budget {
            b.release(frame_len);
        }
    }

    /// Drop the entry at lane index `i` from every lane, returning its
    /// packet handle.
    fn remove_at(&mut self, i: usize) -> PktId {
        self.keys.remove(i);
        self.inserted_at.remove(i);
        self.frame_lens.remove(i);
        self.wire_lens.remove(i);
        self.ids.remove(i).expect("lanes in lockstep")
    }

    /// Remove the packet stored under `key`, if any; ownership passes to
    /// the caller.
    pub fn remove(&mut self, key: u64, now: Time) -> Option<PktId> {
        let i = self.index_of(key)?;
        self.account_departure(i, now);
        Some(self.remove_at(i))
    }

    /// Remove all packets with `key <= upto` and release them to the pool,
    /// returning how many were freed. Used by the Tx buffer to free
    /// acknowledged packets (the callers never inspect the packets), so
    /// this runs on every cumulative ACK and must not allocate.
    pub fn remove_up_to(&mut self, upto: u64, now: Time, pool: &mut PacketPool) -> usize {
        let mut freed = 0;
        while let Some(&k) = self.keys.front() {
            if k > upto {
                break;
            }
            self.account_departure(0, now);
            self.keys.pop_front();
            self.inserted_at.pop_front();
            self.frame_lens.pop_front();
            self.wire_lens.pop_front();
            let id = self.ids.pop_front().expect("lanes in lockstep");
            pool.release(id);
            freed += 1;
        }
        freed
    }

    /// Peek the smallest key currently buffered.
    pub fn min_key(&self) -> Option<u64> {
        self.keys.front().copied()
    }

    /// Handle of the packet stored under `key` without removing it (used
    /// for retransmission: the buffered original stays until ACKed).
    pub fn get(&self, key: u64) -> Option<PktId> {
        self.index_of(key).map(|i| self.ids[i])
    }

    /// Whether `key` is buffered.
    pub fn contains(&self, key: u64) -> bool {
        self.index_of(key).is_some()
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current occupancy in packets.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The loop latency used for accounting.
    pub fn loop_latency(&self) -> Duration {
        self.loop_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RecircStats {
        self.stats
    }

    /// Recirculation overhead as a fraction of a pipeline's packet-
    /// processing capacity over `elapsed` (Table 4 reports ≈0.45–0.66% at
    /// line rate with `pipe_capacity_pps` ≈ 1.5 Gpps for Tofino).
    pub fn overhead_fraction(&self, elapsed: Duration, pipe_capacity_pps: f64) -> f64 {
        if elapsed == Duration::ZERO {
            return 0.0;
        }
        let loops_per_sec = self.stats.loops as f64 / elapsed.as_secs_f64();
        loops_per_sec / pipe_capacity_pps
    }
}

impl Observe for RecircBuffer {
    fn observe(&self, m: &mut MetricSink) {
        self.stats.observe(m);
        m.gauge("bytes", self.bytes);
        m.gauge("pkts", self.keys.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::{NodeId, Packet};

    fn pkt(pool: &mut PacketPool, len: u32) -> PktId {
        pool.insert(Packet::raw(NodeId(0), NodeId(1), len, Time::ZERO))
    }

    #[test]
    fn insert_remove_accounting() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(1_000);
        let (p1, p2) = (pkt(&mut pool, 400), pkt(&mut pool, 400));
        b.insert(1, p1, Time::ZERO, &pool).unwrap();
        b.insert(2, p2, Time::ZERO, &pool).unwrap();
        assert_eq!(b.bytes(), 800);
        assert!(b.contains(1));
        let p = b.remove(1, Time::from_us(1)).unwrap();
        assert_eq!(pool.get(p).frame_len(), 400);
        assert_eq!(b.bytes(), 400);
        assert!(b.remove(1, Time::from_us(1)).is_none());
    }

    #[test]
    fn overflow_rejected_and_counted() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(500);
        let (p1, p2) = (pkt(&mut pool, 400), pkt(&mut pool, 400));
        b.insert(1, p1, Time::ZERO, &pool).unwrap();
        let back = b.insert(2, p2, Time::ZERO, &pool).unwrap_err();
        assert_eq!(pool.get(back).frame_len(), 400);
        assert_eq!(b.stats().overflows, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_up_to_frees_prefix_in_order() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000);
        for k in [5u64, 1, 3, 9] {
            let p = pkt(&mut pool, 100);
            b.insert(k, p, Time::ZERO, &pool).unwrap();
        }
        let freed = b.remove_up_to(5, Time::from_us(1), &mut pool);
        assert_eq!(freed, 3);
        for k in [1, 3, 5] {
            assert!(!b.contains(k), "key {k} freed");
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.min_key(), Some(9));
        assert_eq!(pool.live(), 1, "freed packets released to the pool");
    }

    #[test]
    fn soa_lane_entries_within_cache_budget() {
        // SoA regression guard: every lane entry must stay within 16
        // bytes so one cache line carries at least 4 consecutive entries.
        assert_eq!(std::mem::size_of::<u64>(), 8); // keys
        assert_eq!(std::mem::size_of::<PktId>(), 8); // ids
        assert_eq!(std::mem::size_of::<Time>(), 8); // inserted_at
        assert_eq!(std::mem::size_of::<u32>(), 4); // frame/wire lens
    }

    #[test]
    fn out_of_order_inserts_keep_keys_sorted() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000);
        for k in [5u64, 1, 9, 3, 7] {
            let p = pkt(&mut pool, 100);
            b.insert(k, p, Time::ZERO, &pool).unwrap();
        }
        assert_eq!(b.min_key(), Some(1));
        for k in [1u64, 3, 5, 7, 9] {
            assert!(b.contains(k));
            assert!(b.get(k).is_some());
        }
        assert!(!b.contains(2));
        assert!(!b.contains(0), "below the minimum key");
        assert!(!b.contains(10), "above the maximum key");
        // Point removal mid-lane keeps the rest addressable.
        assert!(b.remove(5, Time::ZERO).is_some());
        assert!(!b.contains(5));
        assert_eq!(b.len(), 4);
        assert_eq!(b.remove_up_to(7, Time::ZERO, &mut pool), 3);
        assert_eq!(b.min_key(), Some(9));
    }

    #[test]
    fn budget_denial_reports_overflow() {
        let mut pool = PacketPool::new();
        let budget = MemBudget::new(500);
        let mut b = RecircBuffer::new(10_000).with_budget(budget.clone());
        let (p1, p2) = (pkt(&mut pool, 400), pkt(&mut pool, 400));
        b.insert(1, p1, Time::ZERO, &pool).unwrap();
        let back = b.insert(2, p2, Time::ZERO, &pool).unwrap_err();
        assert_eq!(pool.get(back).frame_len(), 400, "caller keeps the packet");
        assert_eq!(b.stats().overflows, 1);
        assert_eq!(budget.denials(), 1);
        // Departure releases the charge back to the shared budget.
        b.remove(1, Time::from_us(1));
        assert_eq!(budget.used(), 0);
        assert!(b.insert(2, p2, Time::from_us(1), &pool).is_ok());
    }

    #[test]
    fn loop_accounting_scales_with_residency() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000).with_loop_latency(Duration::from_ns(750));
        let p = pkt(&mut pool, 1518);
        b.insert(1, p, Time::ZERO, &pool).unwrap();
        // resident 7.5 us = 10 loops
        b.remove(1, Time::from_ns(7_500));
        assert_eq!(b.stats().loops, 10);
        assert_eq!(b.stats().loop_bytes, 10 * 1538);
    }

    #[test]
    fn minimum_one_loop_even_for_instant_removal() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000);
        let p = pkt(&mut pool, 100);
        b.insert(1, p, Time::ZERO, &pool).unwrap();
        b.remove(1, Time::ZERO);
        assert_eq!(b.stats().loops, 1);
    }

    #[test]
    fn high_watermark_persists() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000);
        let p1 = pkt(&mut pool, 5_000);
        b.insert(1, p1, Time::ZERO, &pool).unwrap();
        b.remove(1, Time::from_us(1));
        let p2 = pkt(&mut pool, 100);
        b.insert(2, p2, Time::from_us(2), &pool).unwrap();
        assert_eq!(b.stats().high_watermark, 5_000);
    }

    #[test]
    fn overhead_fraction_math() {
        let mut pool = PacketPool::new();
        let mut b = RecircBuffer::new(10_000).with_loop_latency(Duration::from_ns(1000));
        let p = pkt(&mut pool, 100);
        b.insert(1, p, Time::ZERO, &pool).unwrap();
        b.remove(1, Time::from_us(1)); // 1 loop... resident 1us/1us = 1 loop
                                       // 1 loop over 1 us = 1e6 loops/s; at 1e9 pps capacity = 0.1%
        let f = b.overhead_fraction(Duration::from_us(1), 1e9);
        assert!((f - 1e-3).abs() < 1e-9, "{f}");
    }
}
