//! Egress ports: strict-priority scheduling over per-class queues with
//! PFC-style per-class pause.

use crate::queue::{ByteQueue, EnqueueOutcome};
use lg_packet::{PacketPool, PktId};
use serde::{Deserialize, Serialize};

/// Traffic classes, ordered by strictly decreasing priority.
///
/// Mirrors Figure 5 of the paper: loss notifications and retransmissions
/// ride the highest-priority queue; normal traffic next; the
/// self-replenishing dummy/ACK queues are *strictly lowest* priority so
/// they transmit only when no other traffic is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum Class {
    /// Highest: loss notifications, retransmitted copies, PFC.
    Control = 0,
    /// Normal tenant traffic (the class backpressure pauses).
    Normal = 1,
    /// Strictly lowest: self-replenishing dummy / explicit-ACK packets.
    Low = 2,
}

/// Number of traffic classes.
pub const NUM_CLASSES: usize = 3;

/// Default byte capacity of the normal queue (datacenter switches have
/// 16–42 MB shared; we give the experiment queue a generous slice).
pub const DEFAULT_QUEUE_CAP: u64 = 4 * 1024 * 1024;
/// Default byte capacity of control/low queues.
pub const DEFAULT_CTRL_CAP: u64 = 256 * 1024;

/// An egress port: one [`ByteQueue`] per class, strict-priority dequeue,
/// per-class pause state, and a busy flag driven by the testbed's
/// serialization events.
#[derive(Debug)]
pub struct EgressPort {
    queues: [ByteQueue; NUM_CLASSES],
    paused: [bool; NUM_CLASSES],
    /// True while a frame is being serialized onto the wire.
    pub busy: bool,
}

impl EgressPort {
    /// A port with default queue capacities and no ECN.
    pub fn new() -> EgressPort {
        EgressPort {
            queues: [
                ByteQueue::new(DEFAULT_CTRL_CAP),
                ByteQueue::new(DEFAULT_QUEUE_CAP),
                ByteQueue::new(DEFAULT_CTRL_CAP),
            ],
            paused: [false; NUM_CLASSES],
            busy: false,
        }
    }

    /// Enable ECN marking on the normal queue.
    pub fn with_ecn_threshold(mut self, threshold_bytes: u64) -> EgressPort {
        let cap = self.queues[Class::Normal as usize].capacity();
        self.queues[Class::Normal as usize] =
            ByteQueue::new(cap).with_ecn_threshold(threshold_bytes);
        self
    }

    /// Enqueue into the given class (drop-tail releases to the pool).
    pub fn enqueue(&mut self, class: Class, id: PktId, pool: &mut PacketPool) -> EnqueueOutcome {
        self.queues[class as usize].push(id, pool)
    }

    /// Dequeue the next packet by strict priority, skipping paused classes.
    pub fn dequeue(&mut self) -> Option<(Class, PktId)> {
        for (i, q) in self.queues.iter_mut().enumerate() {
            if self.paused[i] {
                continue;
            }
            if let Some(id) = q.pop() {
                let class = match i {
                    0 => Class::Control,
                    1 => Class::Normal,
                    _ => Class::Low,
                };
                return Some((class, id));
            }
        }
        None
    }

    /// True if any unpaused class has traffic waiting.
    pub fn has_eligible(&self) -> bool {
        self.queues
            .iter()
            .enumerate()
            .any(|(i, q)| !self.paused[i] && !q.is_empty())
    }

    /// True if every queue is empty (paused or not).
    pub fn is_drained(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Pause or resume a class (PFC).
    pub fn set_paused(&mut self, class: Class, paused: bool) {
        self.paused[class as usize] = paused;
    }

    /// Busy and pause flags and every class queue's
    /// [`ByteQueue::shape`].
    pub fn shape(&self, out: &mut Vec<u64>, ids: &mut Vec<PktId>) {
        out.push(self.busy as u64);
        out.extend(self.paused.map(u64::from));
        self.queues.iter().for_each(|q| q.shape(out, ids));
    }

    /// Access a class queue (for depth probes).
    pub fn queue(&self, class: Class) -> &ByteQueue {
        &self.queues[class as usize]
    }

    /// Total bytes across all class queues.
    pub fn total_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.bytes()).sum()
    }
}

impl Default for EgressPort {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::{NodeId, Packet};
    use lg_sim::Time;

    fn pkt(pool: &mut PacketPool, uid: u64) -> PktId {
        let mut p = Packet::raw(NodeId(0), NodeId(1), 100, Time::ZERO);
        p.uid = uid;
        pool.insert(p)
    }

    #[test]
    fn strict_priority_order() {
        let mut pool = PacketPool::new();
        let mut port = EgressPort::new();
        let (a, b, c) = (pkt(&mut pool, 3), pkt(&mut pool, 2), pkt(&mut pool, 1));
        port.enqueue(Class::Low, a, &mut pool);
        port.enqueue(Class::Normal, b, &mut pool);
        port.enqueue(Class::Control, c, &mut pool);
        assert_eq!(pool.get(port.dequeue().unwrap().1).uid, 1);
        assert_eq!(pool.get(port.dequeue().unwrap().1).uid, 2);
        assert_eq!(pool.get(port.dequeue().unwrap().1).uid, 3);
        assert!(port.dequeue().is_none());
    }

    #[test]
    fn pause_skips_class_but_not_others() {
        let mut pool = PacketPool::new();
        let mut port = EgressPort::new();
        let (a, b) = (pkt(&mut pool, 1), pkt(&mut pool, 2));
        port.enqueue(Class::Normal, a, &mut pool);
        port.enqueue(Class::Low, b, &mut pool);
        port.set_paused(Class::Normal, true);
        // normal paused: the low-priority dummy goes out instead
        assert_eq!(pool.get(port.dequeue().unwrap().1).uid, 2);
        assert!(port.dequeue().is_none());
        assert!(!port.has_eligible());
        assert!(!port.is_drained());
        port.set_paused(Class::Normal, false);
        assert_eq!(pool.get(port.dequeue().unwrap().1).uid, 1);
        assert!(port.is_drained());
    }

    #[test]
    fn control_class_never_paused_by_normal_pause() {
        let mut pool = PacketPool::new();
        let mut port = EgressPort::new();
        port.set_paused(Class::Normal, true);
        let a = pkt(&mut pool, 9);
        port.enqueue(Class::Control, a, &mut pool);
        assert!(port.has_eligible());
        assert_eq!(port.dequeue().unwrap().0, Class::Control);
    }

    #[test]
    fn ecn_applies_to_normal_queue() {
        let mut pool = PacketPool::new();
        let mut port = EgressPort::new().with_ecn_threshold(150);
        let a = pkt(&mut pool, 1);
        pool.get_mut(a).ecn = lg_packet::Ecn::Ect0;
        let b = pool.insert(pool.get(a).clone());
        port.enqueue(Class::Normal, a, &mut pool);
        let out = port.enqueue(Class::Normal, b, &mut pool);
        assert_eq!(out, EnqueueOutcome::Stored { marked: true });
    }

    #[test]
    fn total_bytes_sums_classes() {
        let mut pool = PacketPool::new();
        let mut port = EgressPort::new();
        let (a, b) = (pkt(&mut pool, 1), pkt(&mut pool, 2));
        port.enqueue(Class::Control, a, &mut pool);
        port.enqueue(Class::Normal, b, &mut pool);
        assert_eq!(port.total_bytes(), 200);
    }
}
