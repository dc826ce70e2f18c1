//! An uncontended single-class FIFO hop whose departures are computed
//! when a frame is handed over instead of simulated event by event.
//!
//! Exact for a hop with none of Figure 5's structure — one class, never
//! paused, no idle fillers, no egress hook: a frame that arrives at
//! `arrive` starts at `max(arrive, free_at)` and occupies the
//! serializer for its serialization time. A host NIC needs only that
//! ([`SerialLink::depart`]); a host-facing switch port also keeps what
//! an [`crate::EgressPort`] there observably did
//! ([`SerialLink::enqueue`], [`SerialLink::settle`]): drop-tail at the
//! normal queue's default byte capacity counted from arrival until
//! serialization starts, the queue-depth high-water mark, and TX
//! counters that count a frame only once it has finished.

use crate::counters::PortCounters;
use crate::port::DEFAULT_QUEUE_CAP;
use lg_packet::{PacketPool, PktId};
use lg_sim::{Duration, Time};
use std::collections::VecDeque;

/// An accepted frame that had not started serializing at the last
/// hand-over.
#[derive(Debug, Clone)]
struct Waiting {
    start: Time,
    /// When its predecessor started — the instant the event loop would
    /// have filed the completion that dequeues this frame.
    kick_filed: Time,
    len: u32,
}

/// See the module docs.
#[derive(Debug, Default, Clone)]
pub struct SerialLink {
    /// When the serializer finishes the last accepted frame.
    free_at: Time,
    /// When that frame started.
    last_start: Time,
    waiting: VecDeque<Waiting>,
    waiting_bytes: u64,
    /// `(finish, frame_len)` of frames not yet counted as transmitted.
    in_flight: VecDeque<(Time, u32)>,
}

impl SerialLink {
    /// Occupy the serializer for `ser` from `arrive` or when it frees
    /// up, whichever is later; returns the instant the frame has left.
    #[inline]
    pub fn depart(&mut self, arrive: Time, ser: Duration) -> Time {
        self.last_start = arrive.max(self.free_at);
        self.free_at = self.last_start + ser;
        self.free_at
    }

    /// Hand over, at `now`, a frame that reaches the queue at `arrive`
    /// (hand-overs come in arrival order). Returns when it has left the
    /// port, or `None` if it was drop-tailed (released to the pool).
    pub fn enqueue(
        &mut self,
        now: Time,
        arrive: Time,
        ser: Duration,
        id: PktId,
        pool: &mut PacketPool,
        counters: &mut PortCounters,
    ) -> Option<Time> {
        let done = self.enqueue_len(now, arrive, ser, pool.get(id).frame_len(), counters);
        if done.is_none() {
            pool.release(id);
        }
        done
    }

    /// [`SerialLink::enqueue`] of a `len`-byte frame that is not in a
    /// pool: a drop-tailed frame is only reported.
    pub fn enqueue_len(
        &mut self,
        now: Time,
        arrive: Time,
        ser: Duration,
        len: u32,
        counters: &mut PortCounters,
    ) -> Option<Time> {
        // Keeps the ring short between reads. Strictly before `now`: a
        // completion at exactly `now` may be filed behind the caller.
        while self.in_flight.front().is_some_and(|&(end, _)| end < now) {
            let (_, len) = self.in_flight.pop_front().expect("probed");
            counters.tx(len);
        }
        // A frame due to start exactly at `arrive` is still queued if the
        // completion that starts it was filed after this hand-over.
        self.start_waiting(|w| w.start < arrive || (w.start == arrive && w.kick_filed < now));
        let depth = self.waiting_bytes + len as u64;
        if depth > DEFAULT_QUEUE_CAP {
            return None;
        }
        counters.note_queue_depth(depth);
        let kick_filed = self.last_start;
        let idle = arrive > self.free_at;
        let done = self.depart(arrive, ser);
        if !idle {
            self.waiting_bytes = depth;
            self.waiting.push_back(Waiting {
                start: self.last_start,
                kick_filed,
                len,
            });
        }
        self.in_flight.push_back((done, len));
        Some(done)
    }

    /// Bring `counters` and the queue depth to what they read once every
    /// event at or before `upto` has run.
    pub fn settle(&mut self, upto: Time, counters: &mut PortCounters) {
        self.start_waiting(|w| w.start <= upto);
        while self.in_flight.front().is_some_and(|&(end, _)| end <= upto) {
            let (_, len) = self.in_flight.pop_front().expect("probed");
            counters.tx(len);
        }
    }

    /// Dequeue (and stop counting the depth of) the waiting frames
    /// `started` says have begun serializing.
    fn start_waiting(&mut self, started: impl Fn(&Waiting) -> bool) {
        while self.waiting.front().is_some_and(&started) {
            let w = self.waiting.pop_front().expect("probed");
            self.waiting_bytes -= w.len as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    //! Differential test against the mechanism this type replaced: an
    //! [`EgressPort`](crate::EgressPort) behind a [`Switch`] driven by
    //! explicit `Enqueue`/`TxDone` events in (time, filing order).

    use super::*;
    use crate::{Class, Switch};
    use lg_packet::{NodeId, Packet};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Pipeline latency between hand-over and arrival at the queue.
    const LEAD: Duration = Duration::from_ns(400);
    /// 10 G: a 64 B frame serializes faster than `LEAD`, a 480 B frame
    /// in exactly `LEAD`, an MTU frame slower — every filing order of a
    /// completion against the next arrival occurs.
    const LENS: [u32; 3] = [64, 480, 1518];

    fn ser(wire_len: u32) -> Duration {
        Duration::from_ps(wire_len as u64 * 800)
    }

    #[derive(Debug, Clone, Copy)]
    enum REv {
        Enqueue(PktId),
        TxDone(PktId),
    }

    /// The event-per-hop port, as `World` drove it.
    struct Reference {
        sw: Switch,
        pool: PacketPool,
        q: BTreeMap<(Time, u64), REv>,
        filed: u64,
        /// Per handed-over frame: when it left the port (`None` until
        /// then, and forever if drop-tailed).
        left: Vec<Option<Time>>,
    }

    impl Reference {
        fn file(&mut self, at: Time, ev: REv) {
            self.q.insert((at, self.filed), ev);
            self.filed += 1;
        }

        fn kick(&mut self, now: Time) {
            if self.sw.port(0).busy {
                return;
            }
            if let Some((_, id)) = self.sw.dequeue(0) {
                self.sw.port_mut(0).busy = true;
                let done = now + ser(self.pool.get(id).wire_len());
                self.file(done, REv::TxDone(id));
            }
        }

        /// Run every event before `bound` (at it too when `inclusive`).
        fn run(&mut self, bound: Time, inclusive: bool) {
            while let Some((&(at, filed), &ev)) = self.q.first_key_value() {
                if at > bound || (at == bound && !inclusive) {
                    break;
                }
                self.q.remove(&(at, filed));
                match ev {
                    REv::Enqueue(id) => {
                        self.sw.enqueue(0, Class::Normal, id, &mut self.pool);
                    }
                    REv::TxDone(id) => {
                        let pkt = self.pool.get(id);
                        let (idx, flen) = (pkt.uid as usize, pkt.frame_len());
                        self.left[idx] = Some(at);
                        self.sw.port_mut(0).busy = false;
                        self.sw.tx_complete(0, flen);
                        self.pool.release(id);
                    }
                }
                self.kick(at);
            }
        }
    }

    /// `(is_read, gap selector, jitter, frame selector)` per step.
    type Step = (bool, u8, u64, u8);

    fn gap(sel: u8, jitter: u64, after_read: bool) -> Duration {
        let d = match sel % 8 {
            0 | 1 => Duration::ZERO, // bursts
            2 => Duration::from_ps(1),
            3 => ser(LENS[0] + 20),
            4 => ser(LENS[1] + 20),
            5 => ser(LENS[2] + 20),
            6 => LEAD,
            _ => Duration::from_ps(jitter),
        };
        // A read settles every event up to its instant; the loops only
        // read strictly before the next hand-over.
        if after_read && d == Duration::ZERO {
            Duration::from_ps(1)
        } else {
            d
        }
    }

    fn check(steps: &[Step]) {
        let mut r = Reference {
            sw: Switch::new("ref", 1),
            pool: PacketPool::new(),
            q: BTreeMap::new(),
            filed: 0,
            left: Vec::new(),
        };
        let mut link = SerialLink::default();
        let mut pool = PacketPool::new();
        let mut counters = PortCounters::default();
        let mut left = Vec::new();

        let mut now = Time::ZERO;
        let mut after_read = false;
        for &(is_read, sel, jitter, frame) in steps {
            now += gap(sel, jitter, after_read);
            after_read = is_read;
            if is_read {
                r.run(now, true);
                link.settle(now, &mut counters);
                let want = r.sw.counters(0);
                assert_eq!(
                    (counters.frames_tx, counters.bytes_tx),
                    (want.frames_tx, want.bytes_tx),
                    "TX counters read at {now}"
                );
                continue;
            }
            let mut pkt = Packet::raw(NodeId(0), NodeId(1), LENS[frame as usize % 3], now);
            pkt.uid = left.len() as u64;
            let wire = pkt.wire_len();
            // Hand-overs are filed ahead of whatever else runs at `now`.
            r.run(now, false);
            let id = r.pool.insert(pkt.clone());
            r.left.push(None);
            r.file(now + LEAD, REv::Enqueue(id));
            let id = pool.insert(pkt);
            left.push(link.enqueue(now, now + LEAD, ser(wire), id, &mut pool, &mut counters));
            if left.last().expect("pushed").is_some() {
                pool.release(id); // the caller owns an accepted frame
            }
        }
        r.run(Time::MAX, true);
        link.settle(Time::MAX, &mut counters);
        assert_eq!(left, r.left, "departure instants and drops");
        assert_eq!(counters, r.sw.counters(0), "counters incl. queue_hwm_bytes");
        assert!(pool.is_drained() && r.pool.is_drained());
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (0u8..8, 0u8..8, 0u64..2_000_000, 0u8..3);
        proptest::collection::vec(step.prop_map(|(k, g, j, f)| (k == 0, g, j, f)), 1..200)
    }

    proptest! {
        #[test]
        fn equals_the_event_driven_port(s in steps()) {
            check(&s);
        }

        #[test]
        fn equals_it_under_capacity_overflow(s in steps(), burst in 2_700usize..3_000) {
            // An MTU burst past the 4 MiB queue, then traffic while it drains.
            let mut script = vec![(false, 0, 0, 2); burst];
            script.extend(s);
            check(&script);
        }
    }

    #[test]
    fn nic_departures_are_back_to_back_when_backlogged() {
        let mut nic = SerialLink::default();
        let t = Time::from_us(1);
        assert_eq!(nic.depart(t, ser(100)), t + ser(100));
        assert_eq!(nic.depart(t, ser(100)), t + ser(200), "queued behind");
        let later = Time::from_us(5);
        assert_eq!(nic.depart(later, ser(100)), later + ser(100), "idle again");
    }
}
