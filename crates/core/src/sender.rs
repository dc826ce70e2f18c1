//! The LinkGuardian **sender** switch state machine (§3, Appendix A).
//!
//! Attached to the egress port feeding the corrupting link, the sender:
//!
//! * stamps each transmitted packet with the 3-byte data header and
//!   buffers a copy (egress mirroring → recirculation Tx buffer);
//! * frees buffered copies when the receiver's cumulative
//!   `latestRxSeqNo` advances (piggybacked or explicit ACKs);
//! * on a loss notification, retransmits `N` copies (Eq. 2) of each
//!   requested packet through the high-priority queue (multicast
//!   primitive) and then drops the buffered copy;
//! * emits self-replenishing **dummy packets** whenever the normal queue
//!   empties so the receiver can detect tail losses without a timeout
//!   (§3.2);
//! * absorbs PFC pause/resume frames from the receiver's backpressure
//!   mechanism, pausing only the normal packet queue (§3.3/§3.5).
//!
//! Packets are handled as [`PktId`]s into the testbed's [`PacketPool`]:
//! the egress mirror *shares* the in-flight packet's buffer (one `retain`
//! instead of a deep clone), and the `N` retransmitted copies share one
//! buffer the same way.

use crate::config::LgConfig;
use crate::seqmap::{abs_of, wire_of};
use lg_obs::trace::{Comp, Kind, Level};
use lg_obs::{lg_trace, MetricSink, Observe};
use lg_packet::lg::{LgAck, LgData, LgPacketType, LossNotification};
use lg_packet::{LgControl, NodeId, Packet, PacketPool, Payload, PktId};
use lg_sim::{Duration, Rng, Time};
use lg_switch::recirc::{DEFAULT_LOOP_LATENCY, RECIRC_DRAIN_RATE};
use lg_switch::{Class, RecircBuffer, RecircStats};
use serde::{Deserialize, Serialize};

/// Side effects the testbed must apply after feeding the sender an input.
#[derive(Debug, Clone, Copy)]
pub enum SenderAction {
    /// Enqueue `id` on the protected egress port in `class` after
    /// `delay` (recirculation service time for retransmissions). The
    /// action owns one pool reference to `id`.
    Emit {
        /// The packet to enqueue.
        id: PktId,
        /// Traffic class.
        class: Class,
        /// Extra dataplane delay before the packet reaches the queue.
        delay: Duration,
    },
    /// Pause (`true`) or resume (`false`) the normal packet queue on the
    /// protected egress port.
    PauseNormal(bool),
}

/// Counters the sender accumulates.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SenderStats {
    /// Protected (stamped + buffered) packets transmitted.
    pub protected_sent: u64,
    /// Loss-notification packets processed.
    pub notifications_rx: u64,
    /// Distinct packets retransmitted.
    pub retx_packets: u64,
    /// Total retransmitted copies emitted (≥ `retx_packets`).
    pub retx_copies_sent: u64,
    /// Notification entries that referred to packets no longer buffered.
    pub retx_misses: u64,
    /// Dummy packets emitted.
    pub dummies_sent: u64,
    /// Packets that could not be buffered (Tx buffer full) and were sent
    /// unprotected-but-stamped.
    pub buffer_overflows: u64,
    /// Pause frames absorbed.
    pub pauses_rx: u64,
    /// Resume frames absorbed.
    pub resumes_rx: u64,
}

impl Observe for SenderStats {
    fn observe(&self, m: &mut MetricSink) {
        m.counter("protected_sent", self.protected_sent);
        m.counter("notifications_rx", self.notifications_rx);
        m.counter("retx_packets", self.retx_packets);
        m.counter("retx_copies_sent", self.retx_copies_sent);
        m.counter("retx_misses", self.retx_misses);
        m.counter("dummies_sent", self.dummies_sent);
        m.counter("buffer_overflows", self.buffer_overflows);
        m.counter("pauses_rx", self.pauses_rx);
        m.counter("resumes_rx", self.resumes_rx);
    }
}

/// The sender-side state machine for one protected link direction.
#[derive(Debug)]
pub struct LgSender {
    cfg: LgConfig,
    /// Synthetic address of this switch for control packets it originates.
    pub node: NodeId,
    /// Address of the peer (receiver switch).
    pub peer: NodeId,
    active: bool,
    /// Absolute index of the last protected packet sent (0 = none).
    next_seq: u64,
    /// Sender's copy of the receiver's cumulative latestRxSeqNo.
    latest_rx: u64,
    tx_buffer: RecircBuffer,
    n_copies: u32,
    rng: Rng,
    last_dummy_at: Option<Time>,
    stats: SenderStats,
}

impl LgSender {
    /// Create a (dormant) sender.
    pub fn new(cfg: LgConfig, node: NodeId, peer: NodeId) -> LgSender {
        let tx_buffer = RecircBuffer::new(cfg.tx_buffer_cap);
        let n_copies = cfg.n_copies();
        LgSender {
            rng: Rng::new(0xC0FF_EE00 ^ node.0 as u64),
            cfg,
            node,
            peer,
            active: false,
            next_seq: 0,
            latest_rx: 0,
            tx_buffer,
            n_copies,
            last_dummy_at: None,
            stats: SenderStats::default(),
        }
    }

    /// Charge the Tx buffer against a shared per-world memory budget
    /// (attach before any traffic; a refused charge counts as overflow).
    pub fn attach_budget(&mut self, budget: lg_obs::MemBudget) {
        self.tx_buffer.set_budget(budget);
    }

    /// Activate protection (done by the control plane when corruption
    /// is detected). Until activated the sender is a no-op pass-through.
    pub fn activate(&mut self, actual_loss_rate: f64) {
        self.active = true;
        self.cfg.actual_loss_rate = actual_loss_rate;
        self.n_copies = self.cfg.n_copies();
    }

    /// Whether LinkGuardian is protecting the link.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of retransmitted copies per lost packet currently in force.
    pub fn n_copies(&self) -> u32 {
        self.n_copies
    }

    /// Called by the testbed when a packet is dequeued for transmission on
    /// the protected link. Stamps the data header and mirrors the packet
    /// into the Tx buffer — sharing the in-flight buffer via `retain`, not
    /// copying. Already-stamped packets (retransmitted copies, dummies)
    /// pass through untouched. Returns the (possibly re-slotted) handle
    /// the caller must transmit.
    pub fn on_transmit(&mut self, id: PktId, now: Time, pool: &mut PacketPool) -> PktId {
        if !self.active || pool.get(id).lg_data.is_some() {
            return id;
        }
        // Another instance's control (explicit ACKs, dummies, loss
        // notifications, pause frames) crosses un-tunneled: it is
        // loss-tolerant by design (idempotent, replicated via
        // `control_copies` under bidirectional corruption, §5), and
        // tunneling it would chain each instance's ACKs into the other's
        // sequence space ad infinitum — and hold time-critical pause
        // frames behind reordering gaps.
        if matches!(pool.get(id).payload, Payload::Lg(_)) {
            return id;
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let id = pool.cow(id);
        pool.get_mut(id).lg_data = Some(LgData {
            seq: wire_of(seq),
            kind: LgPacketType::Original,
        });
        self.stats.protected_sent += 1;
        lg_trace!(
            Level::Pkt,
            Comp::LgSender,
            Kind::LgStamp,
            self.node.0,
            now.as_ps(),
            pool.get(id).uid,
            seq,
            id.index()
        );
        // Egress mirroring: the Tx buffer shares the in-flight packet's
        // slot (with the header) until ACKed.
        pool.retain(id);
        if let Err(extra) = self.tx_buffer.insert(seq, id, now, pool) {
            pool.release(extra);
            self.stats.buffer_overflows += 1;
        }
        id
    }

    /// Called when the protected egress port runs dry (normal and control
    /// queues empty): the self-replenishing dummy queue transmits. Appends
    /// the dummy packets to enqueue at strictly-lowest priority to `out`.
    ///
    /// Dummies carry the sequence number of the last protected packet so a
    /// tail loss shows up as a gap at the receiver. They are only useful
    /// while something is unACKed; once the receiver has confirmed
    /// everything the queue idles (behaviourally identical to the paper's
    /// continuously self-replenishing queue, whose extra dummies are
    /// no-ops at the receiver).
    pub fn make_dummies(&mut self, now: Time, pool: &mut PacketPool, out: &mut Vec<PktId>) {
        if !self.active || self.cfg.dummy_copies == 0 {
            return;
        }
        if self.next_seq == 0 || self.latest_rx >= self.next_seq {
            return;
        }
        // Pace dummy bursts: the hardware queue replenishes via egress
        // mirroring (one recirculation pass between dummies); back-to-back
        // emission at 100 G would add nothing the receiver acts on.
        if let Some(last) = self.last_dummy_at {
            if now.saturating_since(last) < Duration::from_ns(300) {
                return;
            }
        }
        self.last_dummy_at = Some(now);
        for _ in 0..self.cfg.dummy_copies {
            let mut p = Packet::lg_control(self.node, self.peer, LgControl::Dummy, now);
            p.lg_data = Some(LgData {
                seq: wire_of(self.next_seq),
                kind: LgPacketType::Dummy,
            });
            self.stats.dummies_sent += 1;
            out.push(pool.insert(p));
        }
    }

    /// True while some transmitted packet is not yet acknowledged.
    pub fn has_unacked(&self) -> bool {
        self.active && self.latest_rx < self.next_seq
    }

    /// Called for every packet arriving on the reverse direction of the
    /// protected link. Absorbs LinkGuardian control (explicit ACKs, loss
    /// notifications, pause frames — released back to the pool) and strips
    /// piggybacked ACK headers.
    ///
    /// Returns the packet to forward onward (if it carries tenant data)
    /// and appends the side-effect actions to `actions`.
    pub fn on_reverse_rx(
        &mut self,
        id: PktId,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<SenderAction>,
    ) -> Option<PktId> {
        let mut id = id;
        let ack = if pool.get(id).lg_ack.is_some() {
            id = pool.cow(id);
            pool.get_mut(id).lg_ack.take()
        } else {
            None
        };
        // A loss notification is applied before any piggybacked ACK in the
        // same frame: the requested packets must be retransmitted before
        // the cumulative ACK frees them (Appendix A.2 checks reTxReqs
        // before dropping).
        if let Payload::Lg(LgControl::LossNotification(n)) = &pool.get(id).payload {
            let n = *n;
            self.process_loss_notification(n, now, pool, actions);
            if let Some(ack) = ack {
                self.process_ack(ack, now, pool);
            }
            pool.release(id);
            return None;
        }
        if let Some(ack) = ack {
            self.process_ack(ack, now, pool);
        }
        match &pool.get(id).payload {
            Payload::Lg(LgControl::LossNotification(_)) => unreachable!("handled above"),
            Payload::Lg(LgControl::ExplicitAck) => {
                pool.release(id);
                None
            }
            Payload::Lg(LgControl::Pause(p)) => {
                if p.pause {
                    self.stats.pauses_rx += 1;
                } else {
                    self.stats.resumes_rx += 1;
                }
                actions.push(SenderAction::PauseNormal(p.pause));
                pool.release(id);
                None
            }
            Payload::Lg(LgControl::Dummy) => {
                pool.release(id);
                None
            }
            _ => Some(id),
        }
    }

    fn process_ack(&mut self, ack: LgAck, now: Time, pool: &mut PacketPool) {
        let abs = abs_of(ack.latest_rx, self.reference());
        if abs > self.latest_rx {
            self.latest_rx = abs;
            // Drop buffered copies of successfully delivered packets.
            self.tx_buffer.remove_up_to(abs, now, pool);
        }
    }

    fn process_loss_notification(
        &mut self,
        n: LossNotification,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<SenderAction>,
    ) {
        self.stats.notifications_rx += 1;
        let refr = self.reference();
        let first = abs_of(n.first_lost, refr);
        let latest = abs_of(n.latest_rx, refr);
        // The notification also carries the receiver's latestRxSeqNo.
        if latest > self.latest_rx {
            self.latest_rx = latest;
        }
        for seq in first..first + n.count as u64 {
            match self.tx_buffer.remove(seq, now) {
                Some(copy) => {
                    self.stats.retx_packets += 1;
                    let copy = pool.cow(copy);
                    lg_trace!(
                        Level::Pkt,
                        Comp::LgSender,
                        Kind::Retx,
                        self.node.0,
                        now.as_ps(),
                        pool.get(copy).uid,
                        seq,
                        copy.index()
                    );
                    if let Some(h) = pool.get_mut(copy).lg_data.as_mut() {
                        h.kind = LgPacketType::Retransmit;
                    }
                    // Multicast primitive: N copies through the
                    // high-priority queue, all sharing one buffer. The
                    // buffered copy must first come around the
                    // recirculation ring: with B bytes recirculating, the
                    // requested packet is on average half a ring away at
                    // the 100 G recirculation drain rate — this is what
                    // makes the paper's measured retransmission delay
                    // (Fig 19, 2–6 µs) far exceed one pipeline pass, and
                    // it grows with Tx-buffer occupancy (hence with link
                    // speed).
                    let ring_delay = RECIRC_DRAIN_RATE.serialize(self.tx_buffer.bytes() / 2);
                    let (lo, hi) = self.cfg.retx_extra_delay;
                    let jitter = Duration::from_ps(
                        self.rng
                            .range(lo.as_ps().min(hi.as_ps()), hi.as_ps().max(lo.as_ps())),
                    );
                    let delay = self.tx_buffer.loop_latency() + ring_delay + jitter;
                    for i in 0..self.n_copies {
                        self.stats.retx_copies_sent += 1;
                        if i > 0 {
                            pool.retain(copy);
                        }
                        actions.push(SenderAction::Emit {
                            id: copy,
                            class: Class::Control,
                            delay,
                        });
                    }
                }
                None => {
                    // Already freed (duplicate notification or ACK race):
                    // nothing to retransmit; the receiver's ackNoTimeout
                    // is the fallback.
                    self.stats.retx_misses += 1;
                    lg_trace!(
                        Level::Ctl,
                        Comp::LgSender,
                        Kind::RetxMiss,
                        self.node.0,
                        now.as_ps(),
                        0u64,
                        seq,
                        0u32
                    );
                }
            }
        }
        // Free any remaining acknowledged copies (not retransmitted).
        let latest_now = self.latest_rx;
        self.tx_buffer.remove_up_to(latest_now, now, pool);
    }

    fn reference(&self) -> u64 {
        // Wire-seq reconstruction reference: anything within ±32K of the
        // true value; the latest sent packet always qualifies because the
        // Tx window is far smaller than 32K packets.
        self.next_seq.max(1)
    }

    /// Current Tx buffer occupancy in bytes.
    pub fn tx_buffer_bytes(&self) -> u64 {
        self.tx_buffer.bytes()
    }

    /// Tx buffer statistics (high watermark, recirculation loops).
    pub fn tx_buffer_stats(&self) -> RecircStats {
        self.tx_buffer.stats()
    }

    /// Counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &LgConfig {
        &self.cfg
    }

    /// Absolute index of the last protected packet sent.
    pub fn last_sent(&self) -> u64 {
        self.next_seq
    }

    /// Sender's view of the receiver's cumulative ACK.
    pub fn acked(&self) -> u64 {
        self.latest_rx
    }

    /// Default recirculation loop latency used for retransmission delay.
    pub fn loop_latency(&self) -> Duration {
        DEFAULT_LOOP_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_link::LinkSpeed;
    use lg_packet::SeqNo;

    fn mk_sender() -> LgSender {
        let cfg = LgConfig::for_speed(LinkSpeed::G25, 1e-3);
        let mut s = LgSender::new(cfg, NodeId(100), NodeId(101));
        s.activate(1e-3);
        s
    }

    fn data_pkt(pool: &mut PacketPool) -> PktId {
        pool.insert(Packet::raw(NodeId(1), NodeId(2), 1518, Time::ZERO))
    }

    fn ack(pool: &mut PacketPool, latest_abs: u64) -> PktId {
        let mut p =
            Packet::lg_control(NodeId(101), NodeId(100), LgControl::ExplicitAck, Time::ZERO);
        p.lg_ack = Some(LgAck {
            latest_rx: wire_of(latest_abs),
            explicit: true,
        });
        pool.insert(p)
    }

    fn notif(pool: &mut PacketPool, first: u64, count: u16, latest: u64) -> PktId {
        pool.insert(Packet::lg_control(
            NodeId(101),
            NodeId(100),
            LgControl::LossNotification(LossNotification {
                first_lost: wire_of(first),
                count,
                latest_rx: wire_of(latest),
            }),
            Time::ZERO,
        ))
    }

    fn reverse(
        s: &mut LgSender,
        id: PktId,
        now: Time,
        pool: &mut PacketPool,
    ) -> (Option<PktId>, Vec<SenderAction>) {
        let mut actions = Vec::new();
        let fwd = s.on_reverse_rx(id, now, pool, &mut actions);
        (fwd, actions)
    }

    #[test]
    fn stamps_and_buffers_protected_packets() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let p = data_pkt(&mut pool);
        let p = s.on_transmit(p, Time::ZERO, &mut pool);
        let h = pool.get(p).lg_data.unwrap();
        assert_eq!(h.seq, SeqNo::new(1, false));
        assert_eq!(h.kind, LgPacketType::Original);
        assert_eq!(s.tx_buffer_bytes(), pool.get(p).frame_len() as u64);
        assert_eq!(s.stats().protected_sent, 1);
        // the mirror shares the in-flight slot instead of deep-cloning
        assert_eq!(pool.refcount(p), 2);
        assert_eq!(pool.live(), 1);
        // sequence increments
        let p2 = data_pkt(&mut pool);
        let p2 = s.on_transmit(p2, Time::ZERO, &mut pool);
        assert_eq!(pool.get(p2).lg_data.unwrap().seq, SeqNo::new(2, false));
    }

    #[test]
    fn inactive_sender_is_passthrough() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig::for_speed(LinkSpeed::G25, 1e-3);
        let mut s = LgSender::new(cfg, NodeId(100), NodeId(101));
        let p = data_pkt(&mut pool);
        let p = s.on_transmit(p, Time::ZERO, &mut pool);
        assert!(pool.get(p).lg_data.is_none());
        assert_eq!(s.tx_buffer_bytes(), 0);
        let mut dummies = Vec::new();
        s.make_dummies(Time::ZERO, &mut pool, &mut dummies);
        assert!(dummies.is_empty());
    }

    #[test]
    fn already_stamped_packets_not_rebuffered() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let p = data_pkt(&mut pool);
        let p = s.on_transmit(p, Time::ZERO, &mut pool);
        let bytes = s.tx_buffer_bytes();
        // simulate the same packet being dequeued again (retx copy)
        let copy = pool.insert(pool.get(p).clone());
        let copy2 = s.on_transmit(copy, Time::ZERO, &mut pool);
        assert_eq!(copy2, copy, "pass-through, same handle");
        assert_eq!(s.tx_buffer_bytes(), bytes);
        assert_eq!(s.last_sent(), 1);
    }

    #[test]
    fn ack_frees_buffer_prefix() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        for _ in 0..5 {
            let p = data_pkt(&mut pool);
            let p = s.on_transmit(p, Time::ZERO, &mut pool);
            pool.release(p); // the in-flight copy departs
        }
        assert_eq!(s.tx_buffer_bytes(), 5 * 1518 + 5 * 3);
        let a = ack(&mut pool, 3);
        let (fwd, actions) = reverse(&mut s, a, Time::from_us(1), &mut pool);
        assert!(fwd.is_none());
        assert!(actions.is_empty());
        assert_eq!(s.acked(), 3);
        assert_eq!(s.tx_buffer_bytes(), 2 * (1518 + 3));
        assert_eq!(pool.live(), 2, "acked mirrors released");
    }

    #[test]
    fn piggybacked_ack_stripped_and_packet_forwarded() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let p = data_pkt(&mut pool);
        s.on_transmit(p, Time::ZERO, &mut pool);
        let rev = data_pkt(&mut pool);
        pool.get_mut(rev).lg_ack = Some(LgAck {
            latest_rx: wire_of(1),
            explicit: false,
        });
        let (fwd, _) = reverse(&mut s, rev, Time::from_us(1), &mut pool);
        let fwd = fwd.expect("data packet forwarded");
        assert!(pool.get(fwd).lg_ack.is_none(), "ACK header stripped");
        assert_eq!(s.acked(), 1);
    }

    #[test]
    fn loss_notification_triggers_n_copies() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender(); // 1e-3 actual, 1e-8 target → N = 2
        assert_eq!(s.n_copies(), 2);
        for _ in 0..4 {
            let p = data_pkt(&mut pool);
            let p = s.on_transmit(p, Time::ZERO, &mut pool);
            pool.release(p);
        }
        // packet 2 lost; receiver saw 4
        let n = notif(&mut pool, 2, 1, 4);
        let (_, actions) = reverse(&mut s, n, Time::from_us(1), &mut pool);
        let emits: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                SenderAction::Emit { id, class, .. } => Some((*id, *class)),
                _ => None,
            })
            .collect();
        assert_eq!(emits.len(), 2, "N=2 copies");
        for &(id, class) in &emits {
            assert_eq!(class, Class::Control, "retx ride high priority");
            let h = pool.get(id).lg_data.unwrap();
            assert_eq!(h.kind, LgPacketType::Retransmit);
            assert_eq!(h.seq, wire_of(2));
        }
        // all N copies share one buffer
        assert_eq!(emits[0].0, emits[1].0);
        assert_eq!(pool.refcount(emits[0].0), 2);
        assert_eq!(s.stats().retx_packets, 1);
        assert_eq!(s.stats().retx_copies_sent, 2);
        // everything ≤ latest(4) freed: buffer now empty
        assert_eq!(s.tx_buffer_bytes(), 0);
    }

    #[test]
    fn consecutive_losses_all_retransmitted() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        for _ in 0..6 {
            let p = data_pkt(&mut pool);
            let p = s.on_transmit(p, Time::ZERO, &mut pool);
            pool.release(p);
        }
        let n = notif(&mut pool, 2, 3, 5);
        let (_, actions) = reverse(&mut s, n, Time::from_us(1), &mut pool);
        let seqs: Vec<u16> = actions
            .iter()
            .filter_map(|a| match a {
                SenderAction::Emit { id, .. } => Some(pool.get(*id).lg_data.unwrap().seq.raw()),
                _ => None,
            })
            .collect();
        // 3 lost packets × 2 copies
        assert_eq!(seqs.len(), 6);
        assert_eq!(s.stats().retx_packets, 3);
    }

    #[test]
    fn notification_for_freed_packet_is_a_miss() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let p = data_pkt(&mut pool);
        let p = s.on_transmit(p, Time::ZERO, &mut pool);
        pool.release(p);
        let a = ack(&mut pool, 1);
        reverse(&mut s, a, Time::from_us(1), &mut pool);
        let n = notif(&mut pool, 1, 1, 1);
        let (_, actions) = reverse(&mut s, n, Time::from_us(2), &mut pool);
        assert!(actions.is_empty());
        assert_eq!(s.stats().retx_misses, 1);
        assert!(pool.is_drained(), "absorbed control released");
    }

    #[test]
    fn dummies_only_while_unacked() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let mut out = Vec::new();
        s.make_dummies(Time::ZERO, &mut pool, &mut out);
        assert!(out.is_empty(), "nothing sent yet");
        let p = data_pkt(&mut pool);
        s.on_transmit(p, Time::ZERO, &mut pool);
        s.make_dummies(Time::ZERO, &mut pool, &mut out);
        assert_eq!(out.len(), 1);
        let d = pool.get(out[0]);
        assert!(d.is_lg_dummy());
        assert_eq!(d.lg_data.unwrap().seq, wire_of(1));
        assert_eq!(d.lg_data.unwrap().kind, LgPacketType::Dummy);
        let a = ack(&mut pool, 1);
        reverse(&mut s, a, Time::from_us(1), &mut pool);
        out.clear();
        s.make_dummies(Time::from_us(1), &mut pool, &mut out);
        assert!(out.is_empty(), "all acked");
    }

    #[test]
    fn multiple_dummy_copies_for_bursty_loss() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            dummy_copies: 3,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut s = LgSender::new(cfg, NodeId(100), NodeId(101));
        s.activate(1e-3);
        let p = data_pkt(&mut pool);
        s.on_transmit(p, Time::ZERO, &mut pool);
        let mut out = Vec::new();
        s.make_dummies(Time::ZERO, &mut pool, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn pause_frames_absorbed_into_actions() {
        let mut pool = PacketPool::new();
        let mut s = mk_sender();
        let pause = pool.insert(Packet::lg_control(
            NodeId(101),
            NodeId(100),
            LgControl::Pause(lg_packet::lg::PauseFrame {
                pause: true,
                class: Class::Normal as u8,
            }),
            Time::ZERO,
        ));
        let (fwd, actions) = reverse(&mut s, pause, Time::ZERO, &mut pool);
        assert!(fwd.is_none());
        assert!(matches!(actions[0], SenderAction::PauseNormal(true)));
        assert_eq!(s.stats().pauses_rx, 1);
        assert!(pool.is_drained(), "pause frame released");
    }

    #[test]
    fn tx_buffer_overflow_counted_not_fatal() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            tx_buffer_cap: 2000,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut s = LgSender::new(cfg, NodeId(100), NodeId(101));
        s.activate(1e-3);
        let p1 = data_pkt(&mut pool);
        s.on_transmit(p1, Time::ZERO, &mut pool); // 1521 bytes buffered
        let p2 = data_pkt(&mut pool);
        let p2 = s.on_transmit(p2, Time::ZERO, &mut pool); // would exceed 2000
        assert!(pool.get(p2).lg_data.is_some(), "still stamped");
        assert_eq!(s.stats().buffer_overflows, 1);
        assert_eq!(pool.refcount(p2), 1, "no mirror reference leaked");
    }
}
