//! Byte-accounted FIFO queues with drop-tail and DCTCP-style ECN marking.
//!
//! Queues store [`PktId`] handles into the caller's [`PacketPool`] plus a
//! cached frame length, kept in struct-of-arrays layout: one lane of
//! handles, one lane of lengths. The hot operations touch exactly the
//! lanes they need — `pop` reads one handle and one length, depth scans
//! never load handles — so a cache line holds 8 consecutive entries of a
//! lane instead of interleaved pairs. A drop-tailed packet is released
//! back to the pool here — the queue is the owner of everything pushed
//! into it.

use lg_packet::{Ecn, PacketPool, PktId};
use std::collections::VecDeque;

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Stored; `marked` is true if the packet was CE-marked on entry.
    Stored {
        /// ECN CE mark applied (queue above threshold and packet ECT).
        marked: bool,
    },
    /// Dropped: the queue's byte capacity would be exceeded. The packet
    /// has been released back to the pool.
    Dropped,
}

/// A FIFO queue bounded in bytes, with an optional ECN marking threshold.
///
/// Marking follows DCTCP's single-threshold scheme: an arriving ECT packet
/// is CE-marked when the instantaneous queue depth (including itself) is at
/// or above the threshold.
#[derive(Debug)]
pub struct ByteQueue {
    /// Resident packet handles (parallel to `lens`).
    ids: VecDeque<PktId>,
    /// Frame lengths cached at enqueue time (buffered packets never
    /// mutate, so the cache cannot go stale).
    lens: VecDeque<u32>,
    bytes: u64,
    capacity_bytes: u64,
    ecn_threshold: Option<u64>,
    drops: u64,
    enqueued: u64,
    marked: u64,
    high_watermark: u64,
}

impl ByteQueue {
    /// A queue holding up to `capacity_bytes` of frames.
    pub fn new(capacity_bytes: u64) -> ByteQueue {
        ByteQueue {
            ids: VecDeque::new(),
            lens: VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            ecn_threshold: None,
            drops: 0,
            enqueued: 0,
            marked: 0,
            high_watermark: 0,
        }
    }

    /// Enable ECN marking at the given queue-depth threshold in bytes
    /// (the paper uses 100 KB for DCTCP on its testbed).
    pub fn with_ecn_threshold(mut self, threshold_bytes: u64) -> ByteQueue {
        self.ecn_threshold = Some(threshold_bytes);
        self
    }

    /// Attempt to enqueue; drop-tail on overflow (the packet is released).
    pub fn push(&mut self, id: PktId, pool: &mut PacketPool) -> EnqueueOutcome {
        let len = pool.get(id).frame_len() as u64;
        if self.bytes + len > self.capacity_bytes {
            self.drops += 1;
            pool.release(id);
            return EnqueueOutcome::Dropped;
        }
        self.bytes += len;
        self.high_watermark = self.high_watermark.max(self.bytes);
        self.enqueued += 1;
        let mut did_mark = false;
        let mut id = id;
        if let Some(th) = self.ecn_threshold {
            if self.bytes >= th && pool.get(id).ecn.is_ect() {
                // Marking mutates the packet: take an exclusive slot first
                // (a no-op for the unshared packets that normally arrive
                // on an ECN-enabled Normal queue).
                id = pool.cow(id);
                pool.get_mut(id).ecn = Ecn::Ce;
                did_mark = true;
                self.marked += 1;
            }
        }
        self.ids.push_back(id);
        self.lens.push_back(len as u32);
        EnqueueOutcome::Stored { marked: did_mark }
    }

    /// Depth, drops and marks, for telling whether two instants look
    /// alike; the resident handles, head first, go to `ids`.
    pub(crate) fn shape(&self, out: &mut Vec<u64>, ids: &mut Vec<PktId>) {
        out.extend([self.ids.len() as u64, self.bytes, self.drops, self.marked]);
        ids.extend(self.ids.iter().copied());
    }

    /// Dequeue the head packet; ownership passes to the caller.
    pub fn pop(&mut self) -> Option<PktId> {
        let id = self.ids.pop_front()?;
        let len = self.lens.pop_front().expect("lanes in lockstep");
        self.bytes -= len as u64;
        Some(id)
    }

    /// Peek at the head packet's handle.
    pub fn peek(&self) -> Option<PktId> {
        self.ids.front().copied()
    }

    /// Current depth in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current depth in packets.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Packets dropped due to overflow.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets CE-marked.
    pub fn marked(&self) -> u64 {
        self.marked
    }

    /// Deepest the queue has ever been, in bytes.
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::{NodeId, Packet};
    use lg_sim::Time;

    fn pkt(pool: &mut PacketPool, frame_len: u32) -> PktId {
        pool.insert(Packet::raw(NodeId(0), NodeId(1), frame_len, Time::ZERO))
    }

    fn ect_pkt(pool: &mut PacketPool, frame_len: u32) -> PktId {
        let id = pkt(pool, frame_len);
        pool.get_mut(id).ecn = Ecn::Ect0;
        id
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut pool = PacketPool::new();
        let mut q = ByteQueue::new(10_000);
        for i in 0..3 {
            let id = pkt(&mut pool, 100 + i);
            pool.get_mut(id).uid = i as u64 + 1;
            assert_eq!(
                q.push(id, &mut pool),
                EnqueueOutcome::Stored { marked: false }
            );
        }
        assert_eq!(q.bytes(), 303);
        assert_eq!(q.len(), 3);
        assert_eq!(pool.get(q.pop().unwrap()).uid, 1);
        assert_eq!(q.bytes(), 203);
        assert_eq!(pool.get(q.pop().unwrap()).uid, 2);
        assert_eq!(pool.get(q.pop().unwrap()).uid, 3);
        assert!(q.pop().is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn drop_tail_on_overflow_releases_packet() {
        let mut pool = PacketPool::new();
        let mut q = ByteQueue::new(250);
        assert_eq!(
            q.push(pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
        assert_eq!(
            q.push(pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
        assert_eq!(
            q.push(pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Dropped
        );
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(pool.live(), 2, "dropped packet went back to the pool");
        // draining frees capacity again
        pool.release(q.pop().unwrap());
        assert_eq!(
            q.push(pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
    }

    #[test]
    fn ecn_marking_above_threshold() {
        let mut pool = PacketPool::new();
        let mut q = ByteQueue::new(10_000).with_ecn_threshold(250);
        assert_eq!(
            q.push(ect_pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
        assert_eq!(
            q.push(ect_pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
        // third packet brings depth to 300 >= 250: marked
        assert_eq!(
            q.push(ect_pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: true }
        );
        assert_eq!(q.marked(), 1);
        // the marked packet carries CE
        q.pop();
        q.pop();
        assert_eq!(pool.get(q.pop().unwrap()).ecn, Ecn::Ce);
    }

    #[test]
    fn not_ect_packets_never_marked() {
        let mut pool = PacketPool::new();
        let mut q = ByteQueue::new(10_000).with_ecn_threshold(50);
        assert_eq!(
            q.push(pkt(&mut pool, 100), &mut pool),
            EnqueueOutcome::Stored { marked: false }
        );
        assert_eq!(pool.get(q.pop().unwrap()).ecn, Ecn::NotEct);
    }

    #[test]
    fn soa_lane_entries_within_cache_budget() {
        // SoA regression guard: a lane entry must stay within 16 bytes
        // so one cache line carries at least 4 consecutive entries.
        assert!(std::mem::size_of::<PktId>() <= 16);
        assert_eq!(std::mem::size_of::<PktId>(), 8);
        assert_eq!(std::mem::size_of::<u32>(), 4);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut pool = PacketPool::new();
        let mut q = ByteQueue::new(1_000);
        q.push(pkt(&mut pool, 400), &mut pool);
        q.push(pkt(&mut pool, 400), &mut pool);
        q.pop();
        q.pop();
        q.push(pkt(&mut pool, 100), &mut pool);
        assert_eq!(q.high_watermark(), 800);
    }
}
