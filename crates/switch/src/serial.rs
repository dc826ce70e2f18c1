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
#[cfg_attr(test, derive(PartialEq))]
struct Waiting {
    start: Time,
    /// When its predecessor started — the instant the event loop would
    /// have filed the completion that dequeues this frame.
    kick_filed: Time,
    len: u32,
}

/// `n` equal frames handed to a [`SerialLink`] one every `period`, the
/// first at `first`; each reaches the queue `pipe` after its hand-over,
/// and serializes in `ser`.
#[derive(Debug, Clone, Copy)]
pub struct Train {
    /// The first hand-over.
    pub first: Time,
    /// Frames in the train.
    pub n: u64,
    /// Between two hand-overs.
    pub period: Duration,
    /// Between a hand-over and the frame's arrival at the queue.
    pub pipe: Duration,
    /// Serialization time of one frame.
    pub ser: Duration,
    /// Frame length in bytes.
    pub len: u32,
}

impl Waiting {
    /// Whether the frame has begun serializing by the hand-over at `now`
    /// of a frame that reaches the queue at `arrive`: a frame due to
    /// start exactly at `arrive` is still queued if the completion that
    /// starts it was filed after this hand-over.
    fn started(&self, arrive: Time, now: Time) -> bool {
        self.start < arrive || (self.start == arrive && self.kick_filed < now)
    }
}

/// See the module docs.
#[derive(Debug, Default, Clone)]
#[cfg_attr(test, derive(PartialEq))]
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
        self.start_waiting(|w| w.started(arrive, now));
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

    /// [`SerialLink::enqueue_len`] of every frame of `train`, computed in
    /// two arithmetic phases instead of frame by frame (DESIGN.md §23):
    /// while the backlog lasts the frames leave back to back, each
    /// starting `period - ser` closer to its arrival; after it, every
    /// frame finds the port idle. Because `ser <= period`, the queue is
    /// never deeper than at the first two hand-overs. Only the frames
    /// waiting or in flight at the train's last hand-over are stored.
    ///
    /// Returns how many frames, `hop` after leaving the port, reach the
    /// far end before `end`; `late` receives `(index in the train,
    /// instant)` of the others. Refuses (`None`, nothing changed) a train
    /// a frame of which would be drop-tailed or reach the far end exactly
    /// at `end`, and one that meets a backlog of another frame length.
    ///
    /// # Panics
    /// Panics if `ser > period`.
    pub fn enqueue_train(
        &mut self,
        t: &Train,
        counters: &mut PortCounters,
        hop: Duration,
        end: Time,
        late: &mut Vec<(u64, Time)>,
    ) -> Option<u64> {
        let (p, ser) = (t.period.as_ps(), t.ser.as_ps());
        assert!(
            ser <= p,
            "a train frame serializes in {} > its period {}",
            t.ser,
            t.period
        );
        if t.n == 0 {
            return Some(0);
        }
        let len = t.len as u64;
        let same = |l: u32| l == t.len;
        if !(self.waiting.iter().all(|w| same(w.len))
            && self.in_flight.iter().all(|&(_, l)| same(l)))
        {
            return None;
        }
        // Frame `j` arrives at `a0 + j·p` and waits `d0 - j·(p - ser)`
        // while that is positive.
        let (h0, a0) = (t.first, t.first + t.pipe);
        let d0 = self.free_at.saturating_since(a0).as_ps();
        let start = |j: u64| a0 + Duration::from_ps(j * p + d0.saturating_sub(j * (p - ser)));
        let done = |j: u64| start(j) + t.ser;
        let (last, free0, start0) = (t.n - 1, self.free_at, self.last_start);
        // Idle: arrives after its predecessor has left.
        let idle = |j: u64| {
            let arrive = a0 + Duration::from_ps(j * p);
            arrive > if j == 0 { free0 } else { done(j - 1) }
        };
        let frame = |j: u64| Waiting {
            start: start(j),
            kick_filed: if j == 0 { start0 } else { start(j - 1) },
            len: t.len,
        };
        // The queue frame `j` joins: the backlog and the train's frames
        // that have not started by its hand-over.
        let depth = |j: u64| {
            let (arrive, now) = (a0 + Duration::from_ps(j * p), h0 + Duration::from_ps(j * p));
            let queued = self
                .waiting
                .iter()
                .filter(|w| !w.started(arrive, now))
                .count() as u64
                + (0..j)
                    .filter(|&i| !idle(i) && !frame(i).started(arrive, now))
                    .count() as u64;
            (queued + 1) * len
        };
        // Each period starts at least one queued frame, once a train
        // frame is among them; so the queue is deepest at the first or
        // second hand-over (the first may find a frame just starting
        // that never queued).
        let deepest = (0..t.n.min(2)).map(depth).max().expect("n > 0");
        if deepest > DEFAULT_QUEUE_CAP {
            return None;
        }
        let mut delivered = t.n;
        while delivered > 0 && done(delivered - 1) + hop >= end {
            if done(delivered - 1) + hop == end {
                return None;
            }
            delivered -= 1;
        }
        counters.note_queue_depth(deepest);
        // The state after the last hand-over, as `enqueue_len` leaves it.
        let h_last = h0 + Duration::from_ps(last * p);
        let a_last = h_last + t.pipe;
        while self.in_flight.front().is_some_and(|&(end, _)| end < h_last) {
            let (_, len) = self.in_flight.pop_front().expect("probed");
            counters.tx(len);
        }
        self.start_waiting(|w| w.started(a_last, h_last));
        let mut first_kept = t.n;
        while first_kept > 0 && done(first_kept - 1) >= h_last {
            first_kept -= 1;
        }
        counters.tx_many(first_kept, t.len);
        for j in first_kept..t.n {
            self.in_flight.push_back((done(j), t.len));
            let w = frame(j);
            if !idle(j) && (j == last || !w.started(a_last, h_last)) {
                self.waiting_bytes += len;
                self.waiting.push_back(w);
            }
        }
        (self.last_start, self.free_at) = (start(last), done(last));
        late.extend((delivered..t.n).map(|j| (j, done(j) + hop)));
        Some(delivered)
    }

    /// What a repeating run must find unchanged, relative to `now`: the
    /// serializer's last start and finish, and every frame waiting or
    /// not yet counted (DESIGN.md §23). A serializer that finished before
    /// `now` shapes as one constant, whatever its last start and finish:
    /// a later hand-over reads them only through `max(arrive, free_at)`
    /// and `arrive > free_at`, the same for any finish before it.
    pub fn shape(&self, now: Time, out: &mut Vec<u64>) {
        let rel = |t: Time| t.as_ps().wrapping_sub(now.as_ps());
        // Relative to `now`, no finish at or after it reads `u64::MAX`.
        let [free, start] = if self.free_at < now {
            [u64::MAX; 2]
        } else {
            [rel(self.free_at), rel(self.last_start)]
        };
        out.extend([free, start, self.waiting_bytes]);
        out.push(self.waiting.len() as u64);
        for w in &self.waiting {
            out.extend([rel(w.start), rel(w.kick_filed), w.len as u64]);
        }
        out.push(self.in_flight.len() as u64);
        out.extend(
            self.in_flight
                .iter()
                .flat_map(|&(end, len)| [rel(end), len as u64]),
        );
    }

    /// Move every stored instant `d` later.
    pub fn advance(&mut self, d: Duration) {
        self.free_at += d;
        self.last_start += d;
        for w in &mut self.waiting {
            w.start += d;
            w.kick_filed += d;
        }
        self.in_flight.iter_mut().for_each(|(end, _)| *end += d);
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

        #[test]
        fn an_idle_port_forgets_its_last_frame(
            a in history(),
            b in history(),
            idle in prop_oneof![Just(0u64), 0u64..3_000_000],
            script in steps(),
        ) {
            check_idle(&a, &b, idle, &script);
        }
    }

    /// `(gap before, frame selector)` per hand-over.
    fn history() -> impl Strategy<Value = Vec<(u64, u8)>> {
        let gap = prop_oneof![Just(0u64), 0u64..2_000_000];
        proptest::collection::vec((gap, 0u8..3), 0..40)
    }

    /// Two ports handed histories `a` and `b`, then read 1 ps before an
    /// instant `idle` past both finishing, shape alike there and leave
    /// every frame of `script` (hand-overs and reads from that instant
    /// on) at the same instant with the same counts, whatever their last
    /// start and finish were.
    fn check_idle(a: &[(u64, u8)], b: &[(u64, u8)], idle: u64, script: &[Step]) {
        let ports = [a, b].map(|history| {
            let mut link = SerialLink::default();
            let mut at = Time::from_us(1);
            for &(g, f) in history {
                at += Duration::from_ps(g);
                let len = LENS[f as usize];
                let mut counters = PortCounters::default();
                link.enqueue_len(at, at + LEAD, ser(len + 20), len, &mut counters);
            }
            (link, at)
        });
        let last = ports.iter().map(|(l, at)| l.free_at.max(*at)).max();
        let now = last.expect("two ports") + Duration::from_ps(1 + idle);
        let runs = ports.map(|(mut link, _)| {
            link.settle(now - Duration::from_ps(1), &mut PortCounters::default());
            let mut shape = Vec::new();
            link.shape(now, &mut shape);
            let mut counters = PortCounters::default();
            let (mut t, mut after_read, mut seen) = (now, false, Vec::new());
            for &(is_read, sel, jitter, frame) in script {
                if !seen.is_empty() {
                    t += gap(sel, jitter, after_read);
                }
                after_read = is_read;
                if is_read {
                    link.settle(t, &mut counters);
                    seen.push((None, counters));
                } else {
                    let len = LENS[frame as usize % 3];
                    let done = link.enqueue_len(t, t + LEAD, ser(len + 20), len, &mut counters);
                    seen.push((done, counters));
                }
            }
            link.settle(Time::MAX, &mut counters);
            (shape, seen, counters)
        });
        assert_eq!(runs[0].0, runs[1].0, "shapes at {now}");
        assert_eq!(runs[0].1, runs[1].1, "departures and counts");
        assert_eq!(runs[0].2, runs[1].2, "final counts");
    }

    /// The per-frame loop [`SerialLink::enqueue_train`] replaced, refusing
    /// what it refuses: a drop-tailed frame, or one reaching `end` exactly.
    fn train_stepwise(
        link: &mut SerialLink,
        t: &Train,
        counters: &mut PortCounters,
        hop: Duration,
        end: Time,
        late: &mut Vec<(u64, Time)>,
    ) -> Option<u64> {
        let mut delivered = 0;
        for j in 0..t.n {
            let at = t.first + Duration::from_ps(j * t.period.as_ps());
            let done = link.enqueue_len(at, at + t.pipe, t.ser, t.len, counters)?;
            match (done + hop).cmp(&end) {
                std::cmp::Ordering::Less => delivered += 1,
                std::cmp::Ordering::Equal => return None,
                std::cmp::Ordering::Greater => late.push((j, done + hop)),
            }
        }
        Some(delivered)
    }

    /// A backlog of `gaps.len()` frames handed over `gaps` apart, a read
    /// strictly before the train when `read` says where, then the train;
    /// both ways of handing it over must leave the same port.
    #[allow(clippy::too_many_arguments)]
    fn check_train(
        len: u32,
        ser_ps: u64,
        slack_ps: u64,
        pipe_ps: u64,
        gaps: &[u64],
        read: Option<u64>,
        lead_ps: u64,
        n: u64,
        hop_ps: u64,
        end_sel: (u8, u64),
    ) {
        let (ser, pipe, hop) = (
            Duration::from_ps(ser_ps),
            Duration::from_ps(pipe_ps),
            Duration::from_ps(hop_ps),
        );
        let period = Duration::from_ps(ser_ps + slack_ps);
        let mut link = SerialLink::default();
        let mut counters = PortCounters::default();
        let mut now = Time::from_us(1);
        for &g in gaps {
            now += Duration::from_ps(g);
            link.enqueue_len(now, now + pipe, ser, len, &mut counters);
        }
        let first = now + Duration::from_ps(lead_ps);
        if let Some(r) = read {
            let span = first.saturating_since(now).as_ps();
            if span > 0 {
                link.settle(now + Duration::from_ps(r % span), &mut counters);
            }
        }
        let t = Train {
            first,
            n,
            period,
            pipe,
            ser,
            len,
        };
        // Ends that tie a departure in either phase are the ones to try.
        let (sel, j) = end_sel;
        let j = j % (n + 2);
        let end = match sel % 4 {
            0 => first + pipe + Duration::from_ps(j * period.as_ps()) + ser + hop,
            1 => link.free_at + Duration::from_ps((j + 1) * ser_ps) + hop,
            2 => first + Duration::from_ps(n * period.as_ps()),
            _ => first + Duration::from_ps(j * 997),
        };
        let (mut want_link, mut want_counters, mut want_late) =
            (link.clone(), counters, Vec::new());
        let want = train_stepwise(
            &mut want_link,
            &t,
            &mut want_counters,
            hop,
            end,
            &mut want_late,
        );
        let (before, counters_before) = (link.clone(), counters);
        let mut late = Vec::new();
        let got = link.enqueue_train(&t, &mut counters, hop, end, &mut late);
        assert_eq!(got, want, "delivered");
        if got.is_some() {
            assert_eq!(late, want_late, "late frames");
            assert_eq!(counters, want_counters, "counters incl. queue_hwm_bytes");
            assert_eq!(link, want_link, "waiting and in-flight rings");
        } else {
            assert!(late.is_empty());
            assert_eq!(
                (link, counters),
                (before, counters_before),
                "a refusal changes nothing"
            );
        }
    }

    /// `(len, ser per byte, slack selector, pipe selector)`.
    fn train_shape() -> impl Strategy<Value = (u32, u64, u64, u64)> {
        (0u8..3, 0u8..4, 0u64..3_000, 0u8..4).prop_map(|(l, sl, jitter, pl)| {
            let len = LENS[l as usize];
            let ser = (len as u64 + 20) * 800;
            // Equal to `ser` (a bare link), a few ps over (a stripped
            // header), a frame over, or anything.
            let slack = [0, 24 * 80, ser, jitter][sl as usize];
            let pipe = [0, LEAD.as_ps(), ser, jitter * 7][pl as usize];
            (len, ser, slack, pipe)
        })
    }

    proptest! {
        #[test]
        fn train_equals_the_per_frame_loop(
            shape in train_shape(),
            gaps in proptest::collection::vec(
                prop_oneof![Just(0u64), 0u64..2_000_000], 0..40),
            read in (any::<bool>(), 0u64..u64::MAX),
            lead in prop_oneof![Just(0u64), 0u64..3_000_000],
            n in 1u64..300,
            hop in prop_oneof![Just(0u64), Just(1_000_000u64), 0u64..5_000_000],
            end_sel in (0u8..4, 0u64..400),
        ) {
            let (len, ser, slack, pipe) = shape;
            let read = read.0.then_some(read.1);
            check_train(len, ser, slack, pipe, &gaps, read, lead, n, hop, end_sel);
        }

        #[test]
        fn train_equals_it_at_the_queue_cap(
            burst in 2_600usize..2_900,
            lead in 0u64..2_000_000_000,
            n in 1u64..100,
            end_sel in (0u8..4, 0u64..100),
        ) {
            // An MTU burst at the 4 MiB queue's edge, then a train of
            // frames a little longer apart than they take to serialize.
            let ser = 1538 * 800;
            check_train(1518, ser, 1_920, 0, &vec![0; burst], None, lead, n, 1_000_000, end_sel);
        }
    }

    #[test]
    fn a_train_meeting_another_frame_length_is_refused() {
        let mut link = SerialLink::default();
        let mut counters = PortCounters::default();
        let ser = |len: u64| Duration::from_ps((len + 20) * 800);
        let t0 = Time::from_us(1);
        link.enqueue_len(t0, t0, ser(64), 64, &mut counters);
        link.enqueue_len(t0, t0, ser(64), 64, &mut counters);
        let t = Train {
            first: t0,
            n: 10,
            period: ser(1518),
            pipe: Duration::ZERO,
            ser: ser(1518),
            len: 1518,
        };
        let before = link.clone();
        let got = link.enqueue_train(
            &t,
            &mut counters,
            Duration::ZERO,
            Time::MAX,
            &mut Vec::new(),
        );
        assert_eq!((got, link), (None, before));
    }

    #[test]
    #[should_panic(expected = "serializes in")]
    fn a_train_faster_than_its_frames_serialize_is_refused() {
        let t = Train {
            first: Time::ZERO,
            n: 1,
            period: Duration::from_ps(10),
            pipe: Duration::ZERO,
            ser: Duration::from_ps(11),
            len: 64,
        };
        let mut counters = PortCounters::default();
        SerialLink::default().enqueue_train(
            &t,
            &mut counters,
            Duration::ZERO,
            Time::MAX,
            &mut Vec::new(),
        );
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
