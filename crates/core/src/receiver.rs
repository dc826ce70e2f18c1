//! The LinkGuardian **receiver** switch state machine (§3, Appendix A).
//!
//! Attached to the RX side of the corrupting link, the receiver:
//!
//! * detects losses from gaps in the data-header sequence numbers and
//!   mirrors high-priority **loss notifications** back to the sender
//!   (Appendix A.1), splitting gaps larger than the sender's 5
//!   consecutive-loss registers (§3.5) into multiple notifications;
//! * keeps the sender's `latestRxSeqNo` fresh by piggybacking the ACK
//!   header on reverse traffic and, when the reverse direction idles,
//!   emitting minimum-sized **explicit ACKs** from the self-replenishing
//!   low-priority queue (§3.1);
//! * in ordered mode runs **Algorithm 1** — forward in-order packets,
//!   recirculate out-of-order packets in the reordering buffer, drop
//!   duplicates — plus **Algorithm 2** backpressure (pause/resume) to keep
//!   that buffer from overflowing (§3.3);
//! * arms the **ackNoTimeout** so a retransmission that never arrives
//!   cannot stall the link forever (§3.5).
//!
//! Packets are handled as [`PktId`]s into the testbed's [`PacketPool`].
//! Delivery copy-on-writes the slot before stripping the data header (the
//! sender's Tx-buffer mirror may still share it); absorbed packets
//! (dummies, duplicates, overflow drops) are released here.

use crate::config::{LgConfig, Mode};
use crate::seqmap::{abs_of, wire_of};
use lg_obs::trace::{Comp, Kind, Level};
use lg_obs::{lg_trace, Counters, LogHist};
use lg_packet::lg::{LgAck, LgPacketType, LossNotification, PauseFrame, MAX_CONSECUTIVE_LOSSES};
use lg_packet::{LgControl, NodeId, Packet, PacketPool, PktId};
use lg_sim::{Duration, Time};
use lg_switch::{Class, RecircBuffer, RecircStats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Side effects the testbed must apply after feeding the receiver an input.
#[derive(Debug, Clone, Copy)]
pub enum ReceiverAction {
    /// Forward this packet onward (LinkGuardian headers stripped). The
    /// action owns one pool reference.
    Deliver(PktId),
    /// Enqueue a control packet on the reverse direction toward the
    /// sender in the given class. The action owns one pool reference.
    SendReverse {
        /// The control packet (loss notification, pause/resume).
        id: PktId,
        /// Traffic class (loss notifications and pause frames ride the
        /// highest priority).
        class: Class,
    },
    /// Schedule a call to [`LgReceiver::on_timeout`] with this generation
    /// at `deadline`.
    ArmTimeout {
        /// When to fire.
        deadline: Time,
        /// Stall generation; stale generations are ignored.
        generation: u64,
    },
    /// Schedule a call to [`LgReceiver::on_bp_timer`] at `at`: while the
    /// link is paused no packets arrive, so the resume decision is driven
    /// by the switch's timer packets (§3.5 "we modify the timer packets
    /// and send them to the sender switch").
    ArmBpTimer {
        /// When to re-evaluate Algorithm 2.
        at: Time,
    },
}

/// Interval of the backpressure re-evaluation while paused (the paper's
/// timer packets run at 10 Mpps; we only need them while paused).
pub const BP_TIMER_INTERVAL: Duration = Duration(500_000); // 500 ns

/// Counters the receiver accumulates.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ReceiverStats {
    /// Protected data packets received (originals + retransmissions).
    pub protected_rx: u64,
    /// Dummy packets received.
    pub dummies_rx: u64,
    /// Gap events detected.
    pub gaps_detected: u64,
    /// Individual packets reported lost.
    pub lost_reported: u64,
    /// Loss-notification packets emitted.
    pub notifications_sent: u64,
    /// Lost packets recovered via retransmission.
    pub recovered: u64,
    /// Duplicate copies dropped (de-duplication).
    pub dup_drops: u64,
    /// Packets that had to wait in the reordering buffer.
    pub buffered: u64,
    /// Packets dropped because the reordering buffer was full.
    pub rx_overflow_drops: u64,
    /// ackNoTimeout firings that skipped an unrecovered packet.
    pub timeouts: u64,
    /// Packets given up on (skipped by timeouts).
    pub skipped: u64,
    /// Pause frames sent.
    pub pauses_sent: u64,
    /// Resume frames sent.
    pub resumes_sent: u64,
    /// Explicit ACK packets emitted.
    pub explicit_acks_sent: u64,
    /// Packets delivered onward.
    pub delivered: u64,
}

lg_obs::counters!(ReceiverStats {
    protected_rx,
    dummies_rx,
    gaps_detected,
    lost_reported,
    notifications_sent,
    recovered,
    dup_drops,
    buffered,
    rx_overflow_drops,
    timeouts,
    skipped,
    pauses_sent,
    resumes_sent,
    explicit_acks_sent,
    delivered,
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BpState {
    Resumed,
    Paused,
}

/// The receiver-side state machine for one protected link direction.
#[derive(Debug)]
pub struct LgReceiver {
    cfg: LgConfig,
    /// Synthetic address of this switch for control packets it originates.
    pub node: NodeId,
    /// Address of the peer (sender switch).
    pub peer: NodeId,
    active: bool,
    /// Highest sequence index seen or reported missing (0 = none).
    latest_rx: u64,
    /// Next sequence index to forward in order (Algorithm 1's ackNo).
    ack_no: u64,
    /// Reordering buffer (ordered mode).
    rx_buffer: RecircBuffer,
    /// Missing sequences awaiting retransmission (non-blocking mode dedup
    /// + recovery-delay bookkeeping in both modes).
    missing: BTreeSet<u64>,
    missing_since: HashMap<u64, Time>,
    /// Sequences delivered out of order above the contiguous floor
    /// (non-blocking mode de-duplication).
    delivered_above: BTreeSet<u64>,
    /// Distribution of loss-detection → recovery delays (paper Fig 19),
    /// in picoseconds.
    retx_delay: LogHist,
    bp_state: BpState,
    /// Bytes released from the reordering buffer that are still draining
    /// through the 100 G recirculation path. Until drained they occupy the
    /// physical recirculation queue, so backpressure must count them —
    /// this is why the buffer "drains at 100G" in Appendix B.1 and why it
    /// hovers at the resumeThreshold between losses (Fig 6).
    draining_bytes: u64,
    drain_last: Time,
    timeout_generation: u64,
    timeout_armed: bool,
    /// Explicit ACKs still owed for the latest update.
    pending_explicit_acks: u32,
    stats: ReceiverStats,
}

impl LgReceiver {
    /// Create a (dormant) receiver.
    pub fn new(cfg: LgConfig, node: NodeId, peer: NodeId) -> LgReceiver {
        let rx_buffer = RecircBuffer::new(cfg.rx_buffer_cap);
        LgReceiver {
            cfg,
            node,
            peer,
            active: false,
            latest_rx: 0,
            ack_no: 1,
            rx_buffer,
            missing: BTreeSet::new(),
            missing_since: HashMap::new(),
            delivered_above: BTreeSet::new(),
            retx_delay: LogHist::new(64),
            bp_state: BpState::Resumed,
            draining_bytes: 0,
            drain_last: Time::ZERO,
            timeout_generation: 0,
            timeout_armed: false,
            pending_explicit_acks: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Activate protection.
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Whether LinkGuardian is protecting the link.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Process a packet that survived the corrupting link (RX MAC passed
    /// its FCS). Appends the actions to apply to `actions`.
    pub fn on_protected_rx(
        &mut self,
        id: PktId,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        let Some(hdr) = pool.get(id).lg_data else {
            // Unprotected traffic (LinkGuardian dormant at the sender):
            // plain forwarding.
            actions.push(ReceiverAction::Deliver(id));
            self.stats.delivered += 1;
            return;
        };
        let abs = abs_of(hdr.seq, self.latest_rx.max(1));
        match hdr.kind {
            LgPacketType::Dummy => {
                self.stats.dummies_rx += 1;
                // A dummy carries the last *transmitted* seq: if it is
                // ahead of what we saw, packets (latest, abs] are missing.
                self.detect_gap(abs + 1, abs, now, pool, actions);
                // absorb the dummy
                pool.release(id);
            }
            LgPacketType::Original | LgPacketType::Retransmit => {
                self.stats.protected_rx += 1;
                // Gap: packets (latest, abs) are missing; the notification
                // reports latestRxSeqNo = abs (the packet just received).
                self.detect_gap(abs, abs, now, pool, actions);
                self.accept_data(abs, id, now, pool, actions);
            }
        }
        self.check_backpressure(now, pool, actions);
        self.maybe_arm_timeout(now, actions);
    }

    /// Detect and report packets missing strictly below `upto`, updating
    /// `latest_rx` to `upto - 1` if it advances. `reported_latest` is the
    /// latestRxSeqNo value carried in the notification (the sequence of
    /// the packet that exposed the gap).
    fn detect_gap(
        &mut self,
        upto: u64,
        reported_latest: u64,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        if upto == 0 || upto - 1 <= self.latest_rx {
            return;
        }
        let first_missing = self.latest_rx + 1;
        let new_latest = upto - 1;
        // Everything in [first_missing, new_latest] was skipped over. When
        // the arriving packet itself is `new_latest + 1` (the common
        // no-loss case) this range is empty.
        if first_missing <= new_latest {
            self.stats.gaps_detected += 1;
            lg_trace!(
                Level::Ctl,
                Comp::LgReceiver,
                Kind::GapDetect,
                self.node.0,
                now.as_ps(),
                0u64,
                first_missing,
                new_latest - first_missing + 1
            );
            let mut start = first_missing;
            while start <= new_latest {
                let count = ((new_latest - start + 1) as u16).min(MAX_CONSECUTIVE_LOSSES);
                for seq in start..start + count as u64 {
                    self.missing.insert(seq);
                    self.missing_since.insert(seq, now);
                    self.stats.lost_reported += 1;
                }
                let notif = LossNotification {
                    first_lost: wire_of(start),
                    count,
                    latest_rx: wire_of(reported_latest),
                };
                // Ingress mirroring generates the notification; it rides
                // the highest-priority queue on the reverse direction.
                lg_trace!(
                    Level::Ctl,
                    Comp::LgReceiver,
                    Kind::LossNotify,
                    self.node.0,
                    now.as_ps(),
                    0u64,
                    start,
                    count
                );
                for _ in 0..self.cfg.control_copies.max(1) {
                    self.stats.notifications_sent += 1;
                    let id = pool.insert(Packet::lg_control(
                        self.node,
                        self.peer,
                        LgControl::LossNotification(notif),
                        now,
                    ));
                    actions.push(ReceiverAction::SendReverse {
                        id,
                        class: Class::Control,
                    });
                }
                start += count as u64;
            }
        }
        self.latest_rx = new_latest;
        self.note_latest_changed();
    }

    /// Algorithm 1 (ordered mode) / immediate forwarding (NB mode).
    fn accept_data(
        &mut self,
        abs: u64,
        id: PktId,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        if abs > self.latest_rx {
            self.latest_rx = abs;
            self.note_latest_changed();
        }
        if self.missing.remove(&abs) {
            self.stats.recovered += 1;
            lg_trace!(
                Level::Pkt,
                Comp::LgReceiver,
                Kind::Recovered,
                self.node.0,
                now.as_ps(),
                pool.get(id).uid,
                abs,
                id.index()
            );
            if let Some(t0) = self.missing_since.remove(&abs) {
                self.retx_delay.record(now.saturating_since(t0).as_ps());
            }
        }
        match self.cfg.mode {
            Mode::NonBlocking => {
                // Out-of-order recovery: forward immediately; duplicates
                // are those at-or-below latest that were not missing.
                if abs < self.ack_no {
                    self.stats.dup_drops += 1;
                    lg_trace!(
                        Level::Pkt,
                        Comp::LgReceiver,
                        Kind::DupDrop,
                        self.node.0,
                        now.as_ps(),
                        pool.get(id).uid,
                        abs,
                        id.index()
                    );
                    pool.release(id);
                    return;
                }
                // NB mode has no ackNo hold: `ack_no` is only the dedup
                // floor, below which every frame was forwarded or given
                // up. NB forwards out of order, so the frames forwarded
                // above the floor are kept in `delivered_above` until the
                // floor passes them.
                if self.delivered_above.contains(&abs) {
                    self.stats.dup_drops += 1;
                    lg_trace!(
                        Level::Pkt,
                        Comp::LgReceiver,
                        Kind::DupDrop,
                        self.node.0,
                        now.as_ps(),
                        pool.get(id).uid,
                        abs,
                        id.index()
                    );
                    pool.release(id);
                    return;
                }
                self.delivered_above.insert(abs);
                // advance the floor over contiguous delivered packets
                while self.delivered_above.remove(&self.ack_no) {
                    self.ack_no += 1;
                }
                self.deliver(id, now, pool, actions);
            }
            Mode::Ordered => {
                use core::cmp::Ordering;
                match abs.cmp(&self.ack_no) {
                    Ordering::Equal => {
                        // An in-order packet arriving while earlier
                        // releases are still draining queues FIFO behind
                        // them in the shared recirculation path — this is
                        // why the buffer hovers at the resumeThreshold
                        // between losses at line rate (Fig 6).
                        self.decay_draining(now);
                        if self.draining_bytes > 0 {
                            self.note_draining(pool.get(id).frame_len() as u64, now);
                        }
                        self.deliver(id, now, pool, actions);
                        self.ack_no += 1;
                        self.drain_in_order(now, pool, actions);
                    }
                    Ordering::Greater => {
                        if self.rx_buffer.contains(abs) {
                            self.stats.dup_drops += 1;
                            lg_trace!(
                                Level::Pkt,
                                Comp::LgReceiver,
                                Kind::DupDrop,
                                self.node.0,
                                now.as_ps(),
                                pool.get(id).uid,
                                abs,
                                id.index()
                            );
                            pool.release(id);
                            return;
                        }
                        match self.rx_buffer.insert(abs, id, now, pool) {
                            Ok(()) => {
                                self.stats.buffered += 1;
                                lg_trace!(
                                    Level::Pkt,
                                    Comp::LgReceiver,
                                    Kind::Buffered,
                                    self.node.0,
                                    now.as_ps(),
                                    pool.get(id).uid,
                                    abs,
                                    id.index()
                                );
                            }
                            Err(dropped) => {
                                // Reordering buffer overflow: the packet is
                                // lost to the recirculation queue (this is
                                // what Fig 9b shows when backpressure is
                                // disabled).
                                self.stats.rx_overflow_drops += 1;
                                lg_trace!(
                                    Level::Pkt,
                                    Comp::LgReceiver,
                                    Kind::RxOverflow,
                                    self.node.0,
                                    now.as_ps(),
                                    pool.get(dropped).uid,
                                    abs,
                                    dropped.index()
                                );
                                pool.release(dropped);
                            }
                        }
                    }
                    Ordering::Less => {
                        self.stats.dup_drops += 1;
                        lg_trace!(
                            Level::Pkt,
                            Comp::LgReceiver,
                            Kind::DupDrop,
                            self.node.0,
                            now.as_ps(),
                            pool.get(id).uid,
                            abs,
                            id.index()
                        );
                        pool.release(id);
                    }
                }
            }
        }
    }

    fn drain_in_order(
        &mut self,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        while let Some(min) = self.rx_buffer.min_key() {
            if min != self.ack_no {
                break;
            }
            let id = self.rx_buffer.remove(min, now).expect("min key present");
            self.note_draining(pool.get(id).frame_len() as u64, now);
            self.deliver(id, now, pool, actions);
            self.ack_no += 1;
        }
        // Fresh progress invalidates any armed timeout.
        self.timeout_generation += 1;
        self.timeout_armed = false;
    }

    fn note_draining(&mut self, bytes: u64, now: Time) {
        self.decay_draining(now);
        self.draining_bytes += bytes;
    }

    fn decay_draining(&mut self, now: Time) {
        // Released packets ultimately depart through the egress port at
        // the link rate — the recirculation path (100 G) is not the
        // bottleneck; the egress is, and it is shared with pass-through
        // traffic. Draining at link rate is what makes the backlog ratchet
        // up under line-rate arrivals until backpressure (or, without it,
        // buffer overflow — Fig 9b) intervenes.
        let drained = self
            .cfg
            .speed
            .rate()
            .bytes_in(now.saturating_since(self.drain_last));
        self.draining_bytes = self.draining_bytes.saturating_sub(drained);
        self.drain_last = now;
    }

    /// Physical recirculation-queue occupancy: waiting packets plus
    /// released-but-still-draining bytes.
    pub fn recirc_occupancy(&mut self, now: Time) -> u64 {
        self.decay_draining(now);
        self.rx_buffer.bytes() + self.draining_bytes
    }

    fn deliver(
        &mut self,
        id: PktId,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        // Strip this instance's data header. The sender's Tx-buffer mirror
        // may still share the slot, so copy-on-write first. A piggybacked
        // ACK header, if present, belongs to the *other direction's*
        // instance (it is only ever stamped onto traffic flowing toward
        // that instance's sender) and is absorbed there.
        let id = pool.cow(id);
        pool.get_mut(id).lg_data = None;
        self.stats.delivered += 1;
        lg_trace!(
            Level::Pkt,
            Comp::LgReceiver,
            Kind::Deliver,
            self.node.0,
            now.as_ps(),
            pool.get(id).uid,
            self.ack_no,
            id.index()
        );
        actions.push(ReceiverAction::Deliver(id));
    }

    /// Algorithm 2: pause/resume based on reordering-buffer occupancy.
    fn check_backpressure(
        &mut self,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        if self.cfg.mode != Mode::Ordered {
            return;
        }
        let depth = self.recirc_occupancy(now);
        if depth >= self.cfg.pause_threshold && self.bp_state == BpState::Resumed {
            self.bp_state = BpState::Paused;
            self.stats.pauses_sent += 1;
            self.send_pause(true, now, pool, actions);
            // While paused, arrivals stop: keep Algorithm 2 running off
            // the timer packets.
            actions.push(ReceiverAction::ArmBpTimer {
                at: now + BP_TIMER_INTERVAL,
            });
        } else if depth <= self.cfg.resume_threshold && self.bp_state == BpState::Paused {
            self.bp_state = BpState::Resumed;
            self.stats.resumes_sent += 1;
            self.send_pause(false, now, pool, actions);
        }
    }

    fn send_pause(
        &mut self,
        pause: bool,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        lg_trace!(
            Level::Ctl,
            Comp::LgReceiver,
            Kind::Pause,
            self.node.0,
            now.as_ps(),
            0u64,
            0u64,
            pause as u32
        );
        for _ in 0..self.cfg.control_copies.max(1) {
            let id = pool.insert(Packet::lg_control(
                self.node,
                self.peer,
                LgControl::Pause(PauseFrame {
                    pause,
                    class: Class::Normal as u8,
                }),
                now,
            ));
            actions.push(ReceiverAction::SendReverse {
                id,
                class: Class::Control,
            });
        }
    }

    fn maybe_arm_timeout(&mut self, now: Time, actions: &mut Vec<ReceiverAction>) {
        if self.cfg.mode != Mode::Ordered || self.timeout_armed {
            return;
        }
        let blocked = self
            .rx_buffer
            .min_key()
            .is_some_and(|min| min > self.ack_no)
            || (!self.missing.is_empty() && self.missing.iter().next() == Some(&self.ack_no));
        if blocked {
            self.timeout_armed = true;
            actions.push(ReceiverAction::ArmTimeout {
                deadline: now + self.cfg.ack_timeout,
                generation: self.timeout_generation,
            });
        }
    }

    /// Fire a previously armed ackNoTimeout. Stale generations are no-ops.
    pub fn on_timeout(
        &mut self,
        generation: u64,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        if generation != self.timeout_generation || self.cfg.mode != Mode::Ordered {
            return;
        }
        self.timeout_armed = false;
        let still_blocked = self
            .rx_buffer
            .min_key()
            .is_some_and(|min| min > self.ack_no)
            || self.missing.contains(&self.ack_no);
        if !still_blocked {
            return;
        }
        // Give up on the lost packet: increment ackNo and continue.
        self.stats.timeouts += 1;
        self.stats.skipped += 1;
        lg_trace!(
            Level::Ctl,
            Comp::LgReceiver,
            Kind::TimeoutSkip,
            self.node.0,
            now.as_ps(),
            0u64,
            self.ack_no,
            0u32
        );
        self.missing.remove(&self.ack_no);
        self.missing_since.remove(&self.ack_no);
        self.ack_no += 1;
        self.drain_in_order(now, pool, actions);
        self.check_backpressure(now, pool, actions);
        self.maybe_arm_timeout(now, actions);
    }

    /// Timer-packet driven re-evaluation of Algorithm 2 while paused.
    pub fn on_bp_timer(
        &mut self,
        now: Time,
        pool: &mut PacketPool,
        actions: &mut Vec<ReceiverAction>,
    ) {
        if self.bp_state != BpState::Paused {
            return;
        }
        self.check_backpressure(now, pool, actions);
        if self.bp_state == BpState::Paused {
            actions.push(ReceiverAction::ArmBpTimer {
                at: now + BP_TIMER_INTERVAL,
            });
        }
    }

    fn note_latest_changed(&mut self) {
        self.pending_explicit_acks = self.cfg.control_copies.max(1);
        // Bound the NB bookkeeping far below the 32K era-correction limit:
        // a hole this far behind the latest frame is given up, so NB's
        // dedup floor moves past it (a copy arriving later is a
        // duplicate), and so does the floor over what was forwarded
        // above it.
        let floor = self.latest_rx.saturating_sub(16_384);
        while let Some(&m) = self.missing.iter().next() {
            if m >= floor {
                break;
            }
            self.missing.remove(&m);
            self.missing_since.remove(&m);
        }
        while let Some(&d) = self.delivered_above.iter().next() {
            if d >= floor {
                break;
            }
            self.delivered_above.remove(&d);
        }
        if self.cfg.mode == Mode::NonBlocking && self.ack_no < floor {
            self.ack_no = floor;
            while self.delivered_above.remove(&self.ack_no) {
                self.ack_no += 1;
            }
        }
    }

    /// Piggyback the cumulative ACK on a reverse-direction packet about to
    /// be transmitted toward the sender (§3.1). Returns the (possibly
    /// re-slotted) handle the caller must transmit.
    pub fn stamp_ack(&mut self, id: PktId, pool: &mut PacketPool) -> PktId {
        if !self.active || self.latest_rx == 0 {
            return id;
        }
        let id = pool.cow(id);
        pool.get_mut(id).lg_ack = Some(LgAck {
            latest_rx: wire_of(self.latest_rx),
            explicit: false,
        });
        self.pending_explicit_acks = 0;
        id
    }

    /// The self-replenishing explicit-ACK queue: called when the reverse
    /// direction idles. Appends minimum-sized ACK packets to `out` while
    /// an ACK is owed (behaviourally identical to the paper's always-full
    /// queue: extra explicit ACKs carry no new information).
    pub fn make_explicit_acks(&mut self, now: Time, pool: &mut PacketPool, out: &mut Vec<PktId>) {
        if !self.active || self.latest_rx == 0 || self.pending_explicit_acks == 0 {
            return;
        }
        for _ in 0..self.pending_explicit_acks {
            let mut p = Packet::lg_control(self.node, self.peer, LgControl::ExplicitAck, now);
            p.lg_ack = Some(LgAck {
                latest_rx: wire_of(self.latest_rx),
                explicit: true,
            });
            self.stats.explicit_acks_sent += 1;
            out.push(pool.insert(p));
        }
        self.pending_explicit_acks = 0;
    }

    /// What a periodic run must find unchanged, relative to this
    /// receiver's sequence and `now`; false while a recovery is under
    /// way (anything missing, buffered, paused or timed).
    pub fn shape(&self, now: Time, out: &mut Vec<u64>) -> bool {
        let draining = self.is_draining(now);
        out.extend([
            self.active as u64,
            self.latest_rx.wrapping_sub(self.ack_no),
            self.pending_explicit_acks as u64,
            draining as u64,
        ]);
        if draining {
            out.push(now.saturating_since(self.drain_last).as_ps());
        }
        self.rx_buffer.is_empty()
            && self.missing.is_empty()
            && self.missing_since.is_empty()
            && self.delivered_above.is_empty()
            && self.bp_state == BpState::Resumed
            && !self.timeout_armed
    }

    /// Whether frames released from the reordering buffer are still
    /// draining through the recirculation path at `now` (their backlog
    /// is not part of [`LgReceiver::shape`]). The backlog is decayed only
    /// at the next arrival; this reads what it would be at `now` without
    /// moving it.
    pub fn is_draining(&self, now: Time) -> bool {
        let drained = self
            .cfg
            .speed
            .rate()
            .bytes_in(now.saturating_since(self.drain_last));
        self.draining_bytes > drained
    }

    /// Drop a backlog that has drained by `now`. Exact: every later read
    /// decays it first, to 0 at any instant from `now` on; and with no
    /// backlog left, when it was last decayed is read by nothing.
    pub fn forget_drained(&mut self, now: Time) {
        if !self.is_draining(now) {
            self.draining_bytes = 0;
        }
    }

    /// Visit the sequence fields, instants and counters a period moves.
    pub fn scalars(&mut self, f: &mut dyn FnMut(&mut u64)) {
        let seqs = [
            &mut self.latest_rx,
            &mut self.ack_no,
            &mut self.timeout_generation,
        ];
        seqs.into_iter().for_each(&mut *f);
        f(&mut self.drain_last.0);
        self.stats.each_counter(f);
        self.rx_buffer.scalars(f);
    }

    /// Drain the recirculation path through `k` more in-order arrivals
    /// `period` apart of `frame_len`-byte frames: each drains what the
    /// link rate moved since the last and, while anything is left,
    /// queues behind it (see `accept_data`). Each arrival above
    /// `drained` moves the backlog by the same net amount, and one at or
    /// below it empties the path, so the `k` steps are counted, not run.
    pub fn advance(&mut self, k: u64, period: Duration, frame_len: u32) {
        let drained = self.cfg.speed.rate().bytes_in(period);
        self.draining_bytes = drain_after(self.draining_bytes, k, drained, frame_len as u64);
    }

    /// Reordering-buffer occupancy in bytes (the "Rx buffer" series of
    /// Fig 9 and Fig 14).
    pub fn rx_buffer_bytes(&self) -> u64 {
        self.rx_buffer.bytes()
    }

    /// Reordering-buffer statistics.
    pub fn rx_buffer_stats(&self) -> RecircStats {
        self.rx_buffer.stats()
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Recovery-delay histogram (ps), Fig 19.
    pub fn retx_delay_histogram(&self) -> &LogHist {
        &self.retx_delay
    }

    /// The next in-order sequence expected (Algorithm 1's ackNo).
    pub fn ack_no(&self) -> u64 {
        self.ack_no
    }

    /// Highest sequence index seen.
    pub fn latest_rx(&self) -> u64 {
        self.latest_rx
    }

    /// The configuration in force.
    pub fn config(&self) -> &LgConfig {
        &self.cfg
    }
}

/// The draining backlog `draining` after `k` in-order arrivals of `len`
/// bytes, each draining `drained` first: an arrival that finds more than
/// `drained` left queues behind the rest, any other one empties the path.
fn drain_after(draining: u64, k: u64, drained: u64, len: u64) -> u64 {
    if draining == 0 || k == 0 {
        return draining;
    }
    if draining <= drained {
        return 0;
    }
    if drained <= len {
        // Never falls to `drained`: grows (or holds) by the difference.
        return draining + k * (len - drained);
    }
    // Falls by `net` per arrival; the first at or below `drained` is the
    // last the backlog survives.
    let net = drained - len;
    let above = (draining - drained).div_ceil(net);
    if k <= above {
        draining - k * net
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_link::LinkSpeed;
    use lg_packet::lg::LgData;
    use lg_packet::Payload;
    use lg_sim::Duration;

    fn ordered_rx() -> LgReceiver {
        let cfg = LgConfig::for_speed(LinkSpeed::G25, 1e-3);
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        r
    }

    fn nb_rx() -> LgReceiver {
        let cfg = LgConfig::for_speed(LinkSpeed::G25, 1e-3).non_blocking();
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        r
    }

    fn data(pool: &mut PacketPool, abs: u64, kind: LgPacketType) -> PktId {
        let mut p = Packet::raw(NodeId(1), NodeId(2), 1518, Time::ZERO);
        p.lg_data = Some(LgData {
            seq: wire_of(abs),
            kind,
        });
        pool.insert(p)
    }

    fn dummy(pool: &mut PacketPool, last_sent: u64) -> PktId {
        let mut p = Packet::lg_control(NodeId(100), NodeId(101), LgControl::Dummy, Time::ZERO);
        p.lg_data = Some(LgData {
            seq: wire_of(last_sent),
            kind: LgPacketType::Dummy,
        });
        pool.insert(p)
    }

    fn rx(r: &mut LgReceiver, id: PktId, now: Time, pool: &mut PacketPool) -> Vec<ReceiverAction> {
        let mut actions = Vec::new();
        r.on_protected_rx(id, now, pool, &mut actions);
        actions
    }

    fn timeout(
        r: &mut LgReceiver,
        generation: u64,
        now: Time,
        pool: &mut PacketPool,
    ) -> Vec<ReceiverAction> {
        let mut actions = Vec::new();
        r.on_timeout(generation, now, pool, &mut actions);
        actions
    }

    fn bp_timer(r: &mut LgReceiver, now: Time, pool: &mut PacketPool) -> Vec<ReceiverAction> {
        let mut actions = Vec::new();
        r.on_bp_timer(now, pool, &mut actions);
        actions
    }

    fn delivered(actions: &[ReceiverAction], pool: &PacketPool) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                ReceiverAction::Deliver(id) => Some(pool.get(*id).uid),
                _ => None,
            })
            .collect()
    }

    fn notifications(actions: &[ReceiverAction], pool: &PacketPool) -> Vec<LossNotification> {
        actions
            .iter()
            .filter_map(|a| match a {
                ReceiverAction::SendReverse { id, .. } => match &pool.get(*id).payload {
                    Payload::Lg(LgControl::LossNotification(n)) => Some(*n),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_stream_delivers_immediately() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        for i in 1..=5 {
            let p = data(&mut pool, i, LgPacketType::Original);
            let uid = pool.get(p).uid;
            let actions = rx(&mut r, p, Time::from_us(i), &mut pool);
            assert_eq!(delivered(&actions, &pool), vec![uid]);
            assert!(notifications(&actions, &pool).is_empty());
        }
        assert_eq!(r.ack_no(), 6);
        assert_eq!(r.latest_rx(), 5);
        assert_eq!(r.stats().delivered, 5);
        assert_eq!(r.rx_buffer_bytes(), 0);
    }

    #[test]
    fn delivered_packets_have_headers_stripped() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p = data(&mut pool, 1, LgPacketType::Original);
        let actions = rx(&mut r, p, Time::ZERO, &mut pool);
        match &actions[0] {
            ReceiverAction::Deliver(id) => {
                assert!(pool.get(*id).lg_data.is_none());
                assert!(pool.get(*id).lg_ack.is_none());
            }
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn deliver_copies_when_tx_mirror_shares_slot() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p = data(&mut pool, 1, LgPacketType::Original);
        pool.retain(p); // simulate the sender's Tx-buffer mirror
        let actions = rx(&mut r, p, Time::ZERO, &mut pool);
        let out = match &actions[0] {
            ReceiverAction::Deliver(id) => *id,
            other => panic!("expected Deliver, got {other:?}"),
        };
        assert_ne!(out, p, "delivery copied out of the shared slot");
        assert!(pool.get(p).lg_data.is_some(), "mirror keeps its header");
        assert!(pool.get(out).lg_data.is_none());
        assert_eq!(pool.get(out).uid, pool.get(p).uid, "uid preserved");
    }

    #[test]
    fn gap_triggers_notification_and_buffering() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p2 = data(&mut pool, 2, LgPacketType::Original);
        rx(&mut r, p2, Time::ZERO, &mut pool);
        // 3 lost; 4 arrives
        let p4 = data(&mut pool, 4, LgPacketType::Original);
        let actions = rx(&mut r, p4, Time::from_us(1), &mut pool);
        assert!(delivered(&actions, &pool).is_empty(), "4 must be held");
        let notifs = notifications(&actions, &pool);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].first_lost, wire_of(3));
        assert_eq!(notifs[0].count, 1);
        assert_eq!(notifs[0].latest_rx, wire_of(4));
        assert_eq!(r.stats().buffered, 1);
        assert!(r.rx_buffer_bytes() > 0);
        // a timeout must be armed
        assert!(actions
            .iter()
            .any(|a| matches!(a, ReceiverAction::ArmTimeout { .. })));
    }

    #[test]
    fn retransmission_releases_buffer_in_order() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        rx(&mut r, p3, Time::from_us(1), &mut pool);
        let p4 = data(&mut pool, 4, LgPacketType::Original);
        rx(&mut r, p4, Time::from_us(2), &mut pool);
        // retx of 2 arrives: 2, 3, 4 delivered in order
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let actions = rx(&mut r, p2, Time::from_us(5), &mut pool);
        assert_eq!(delivered(&actions, &pool).len(), 3);
        assert_eq!(r.ack_no(), 5);
        assert_eq!(r.stats().recovered, 1);
        assert_eq!(r.rx_buffer_bytes(), 0);
        // recovery delay recorded (~4 us)
        assert_eq!(r.retx_delay_histogram().len(), 1);
    }

    #[test]
    fn duplicate_retx_copies_deduplicated() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        rx(&mut r, p3, Time::ZERO, &mut pool);
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let a1 = rx(&mut r, p2, Time::from_us(1), &mut pool);
        assert_eq!(delivered(&a1, &pool).len(), 2);
        // second copy of 2 (N=2) is a duplicate below ackNo
        let p2b = data(&mut pool, 2, LgPacketType::Retransmit);
        let a2 = rx(&mut r, p2b, Time::from_us(2), &mut pool);
        assert!(delivered(&a2, &pool).is_empty());
        assert_eq!(r.stats().dup_drops, 1);
        assert_eq!(r.stats().delivered, 3);
    }

    #[test]
    fn duplicate_out_of_order_copy_deduplicated_in_buffer() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        // 2 lost, 3 buffered twice (e.g. two retx copies racing)
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        rx(&mut r, p3, Time::ZERO, &mut pool);
        let p3b = data(&mut pool, 3, LgPacketType::Retransmit);
        rx(&mut r, p3b, Time::ZERO, &mut pool);
        assert_eq!(r.stats().dup_drops, 1);
        assert_eq!(r.stats().buffered, 1);
    }

    #[test]
    fn dummy_detects_tail_loss() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        // packet 2 (the tail) lost; dummy carries last-sent = 2
        let d = dummy(&mut pool, 2);
        let actions = rx(&mut r, d, Time::from_us(1), &mut pool);
        let notifs = notifications(&actions, &pool);
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].first_lost, wire_of(2));
        assert_eq!(notifs[0].count, 1);
        assert_eq!(r.stats().dummies_rx, 1);
        assert_eq!(r.latest_rx(), 2, "latest advanced over the notified loss");
        // subsequent identical dummies cause no duplicate notification
        let d2 = dummy(&mut pool, 2);
        let again = rx(&mut r, d2, Time::from_us(2), &mut pool);
        assert!(notifications(&again, &pool).is_empty());
        // retx of 2 recovers and delivers
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let rec = rx(&mut r, p2, Time::from_us(3), &mut pool);
        assert_eq!(delivered(&rec, &pool).len(), 1);
        assert_eq!(r.stats().recovered, 1);
    }

    #[test]
    fn dummy_with_nothing_missing_is_inert() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let d = dummy(&mut pool, 1);
        let actions = rx(&mut r, d, Time::from_us(1), &mut pool);
        assert!(notifications(&actions, &pool).is_empty());
        assert!(delivered(&actions, &pool).is_empty());
    }

    #[test]
    fn large_gap_split_into_max5_notifications() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        // packets 2..=13 lost (12 consecutive); 14 arrives
        let p14 = data(&mut pool, 14, LgPacketType::Original);
        let actions = rx(&mut r, p14, Time::from_us(1), &mut pool);
        let notifs = notifications(&actions, &pool);
        assert_eq!(notifs.len(), 3, "12 losses → 5+5+2");
        assert_eq!(notifs[0].count, 5);
        assert_eq!(notifs[1].count, 5);
        assert_eq!(notifs[2].count, 2);
        assert_eq!(notifs[1].first_lost, wire_of(7));
        assert_eq!(r.stats().lost_reported, 12);
    }

    #[test]
    fn ack_timeout_skips_unrecoverable_packet() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        let actions = rx(&mut r, p3, Time::from_us(1), &mut pool);
        let (deadline, generation) = actions
            .iter()
            .find_map(|a| match a {
                ReceiverAction::ArmTimeout {
                    deadline,
                    generation,
                } => Some((*deadline, *generation)),
                _ => None,
            })
            .expect("timeout armed");
        assert_eq!(deadline, Time::from_us(1) + Duration::from_ns(7_500));
        // all retx copies lost; the timeout fires
        let fired = timeout(&mut r, generation, deadline, &mut pool);
        assert_eq!(delivered(&fired, &pool).len(), 1, "buffered 3 released");
        assert_eq!(r.stats().timeouts, 1);
        assert_eq!(r.stats().skipped, 1);
        assert_eq!(r.ack_no(), 4);
        // the late retx of 2 is now a harmless duplicate
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let late = rx(&mut r, p2, deadline + Duration::from_us(1), &mut pool);
        assert!(delivered(&late, &pool).is_empty());
        assert_eq!(r.stats().dup_drops, 1);
    }

    #[test]
    fn stale_timeout_generation_is_noop() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        let actions = rx(&mut r, p3, Time::from_us(1), &mut pool);
        let generation = actions
            .iter()
            .find_map(|a| match a {
                ReceiverAction::ArmTimeout { generation, .. } => Some(*generation),
                _ => None,
            })
            .unwrap();
        // retx arrives in time
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        rx(&mut r, p2, Time::from_us(3), &mut pool);
        assert_eq!(r.ack_no(), 4);
        // now the stale timeout fires: nothing happens
        let fired = timeout(&mut r, generation, Time::from_us(9), &mut pool);
        assert!(fired.is_empty());
        assert_eq!(r.stats().timeouts, 0);
    }

    #[test]
    fn backpressure_pause_and_resume() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            pause_threshold: 4_000,
            resume_threshold: 1_500,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        // 2 lost; 3,4,5 arrive and buffer up (1521 bytes each incl. header)
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        rx(&mut r, p3, Time::ZERO, &mut pool);
        let p4 = data(&mut pool, 4, LgPacketType::Original);
        let a4 = rx(&mut r, p4, Time::ZERO, &mut pool);
        assert!(
            notifications(&a4, &pool).is_empty()
                && !a4
                    .iter()
                    .any(|a| matches!(a, ReceiverAction::SendReverse { .. })),
            "below pause threshold: no pause yet"
        );
        let p5 = data(&mut pool, 5, LgPacketType::Original);
        let a5 = rx(&mut r, p5, Time::ZERO, &mut pool);
        let pause_frames: Vec<_> = a5
            .iter()
            .filter_map(|a| match a {
                ReceiverAction::SendReverse { id, .. } => match &pool.get(*id).payload {
                    Payload::Lg(LgControl::Pause(p)) => Some(*p),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(pause_frames.len(), 1);
        assert!(pause_frames[0].pause);
        assert_eq!(r.stats().pauses_sent, 1);
        // retx of 2 releases the buffer, but the released bytes still
        // drain through the 100G recirculation path: the resume comes from
        // a later timer-packet evaluation of Algorithm 2.
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let rec = rx(&mut r, p2, Time::from_us(4), &mut pool);
        assert_eq!(delivered(&rec, &pool).len(), 4);
        assert_eq!(r.stats().resumes_sent, 0, "drain not finished yet");
        // ~6 KB at 100G drains in ~0.5 us; evaluate well after
        let timer = bp_timer(&mut r, Time::from_us(10), &mut pool);
        let resumes: Vec<_> = timer
            .iter()
            .filter_map(|a| match a {
                ReceiverAction::SendReverse { id, .. } => match &pool.get(*id).payload {
                    Payload::Lg(LgControl::Pause(p)) => Some(*p),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(resumes.len(), 1);
        assert!(!resumes[0].pause);
        assert_eq!(r.stats().resumes_sent, 1);
        // once resumed, the timer chain stops
        assert!(bp_timer(&mut r, Time::from_us(11), &mut pool).is_empty());
    }

    #[test]
    fn no_redundant_pause_messages() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            pause_threshold: 3_000,
            resume_threshold: 1_500,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        for s in 3..10 {
            let p = data(&mut pool, s, LgPacketType::Original);
            rx(&mut r, p, Time::ZERO, &mut pool);
        }
        // buffer far above threshold, but only one pause sent (curr_state flag)
        assert_eq!(r.stats().pauses_sent, 1);
    }

    #[test]
    fn rx_buffer_overflow_drops_packets() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            rx_buffer_cap: 3_200,      // fits two 1521B frames
            pause_threshold: u64::MAX, // backpressure disabled (Fig 9b)
            resume_threshold: 0,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        for s in [3u64, 4, 5] {
            let p = data(&mut pool, s, LgPacketType::Original);
            rx(&mut r, p, Time::ZERO, &mut pool);
        }
        assert_eq!(r.stats().buffered, 2);
        assert_eq!(r.stats().rx_overflow_drops, 1);
    }

    #[test]
    fn nb_mode_forwards_out_of_order_immediately() {
        let mut pool = PacketPool::new();
        let mut r = nb_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        let a3 = rx(&mut r, p3, Time::from_us(1), &mut pool);
        assert_eq!(
            delivered(&a3, &pool).len(),
            1,
            "3 forwarded despite missing 2"
        );
        assert_eq!(notifications(&a3, &pool).len(), 1);
        assert_eq!(r.rx_buffer_bytes(), 0, "NB uses no reordering buffer");
        // retx of 2 forwarded out of order
        let p2 = data(&mut pool, 2, LgPacketType::Retransmit);
        let a2 = rx(&mut r, p2, Time::from_us(2), &mut pool);
        assert_eq!(delivered(&a2, &pool).len(), 1);
        assert_eq!(r.stats().recovered, 1);
        // duplicate copy dropped
        let p2b = data(&mut pool, 2, LgPacketType::Retransmit);
        let dup = rx(&mut r, p2b, Time::from_us(3), &mut pool);
        assert!(delivered(&dup, &pool).is_empty());
        assert_eq!(r.stats().dup_drops, 1);
    }

    /// A hole NB never recovers stops pinning its floor once it falls
    /// 16,384 sequence numbers behind the latest frame: the floor moves
    /// past it, nothing is tracked above it, and a periodic run may be
    /// marked again.
    #[test]
    fn nb_mode_gives_up_a_hole_left_far_behind() {
        let mut pool = PacketPool::new();
        let mut r = nb_rx();
        let mut shape = Vec::new();
        let send = |r: &mut LgReceiver, pool: &mut PacketPool, abs: u64| {
            let p = data(pool, abs, LgPacketType::Original);
            rx(r, p, Time::ZERO, pool);
        };
        send(&mut r, &mut pool, 1);
        // 2 is lost for good: no copy ever arrives
        let n = 40;
        for abs in 3..=16_386 + n {
            send(&mut r, &mut pool, abs);
        }
        assert_eq!(r.ack_no(), 16_387 + n, "the floor passed the hole");
        assert!(r.delivered_above.is_empty());
        assert!(r.missing.is_empty());
        assert!(r.shape(Time::ZERO, &mut shape), "a mark is accepted");
        // a late copy of the hole is a duplicate now
        let late = data(&mut pool, 2, LgPacketType::Retransmit);
        assert!(delivered(&rx(&mut r, late, Time::ZERO, &mut pool), &pool).is_empty());
        assert_eq!(r.stats().dup_drops, 1);
        assert_eq!(r.stats().delivered, 16_385 + n);
    }

    #[test]
    fn nb_mode_sends_no_pause_frames() {
        let mut pool = PacketPool::new();
        let mut r = nb_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        for s in 3..200 {
            let p = data(&mut pool, s, LgPacketType::Original);
            let a = rx(&mut r, p, Time::ZERO, &mut pool);
            assert!(!a
                .iter()
                .any(|x| matches!(x, ReceiverAction::SendReverse { id, .. }
                    if matches!(pool.get(*id).payload, Payload::Lg(LgControl::Pause(_))))));
            assert!(!a
                .iter()
                .any(|x| matches!(x, ReceiverAction::ArmTimeout { .. })));
        }
        assert_eq!(r.stats().pauses_sent, 0);
    }

    #[test]
    fn explicit_acks_emitted_when_owed() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let mut acks = Vec::new();
        r.make_explicit_acks(Time::ZERO, &mut pool, &mut acks);
        assert!(acks.is_empty(), "nothing yet");
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        r.make_explicit_acks(Time::from_us(1), &mut pool, &mut acks);
        assert_eq!(acks.len(), 1);
        let a = pool.get(acks[0]).lg_ack.unwrap();
        assert!(a.explicit);
        assert_eq!(a.latest_rx, wire_of(1));
        // no change since: queue stays quiet
        acks.clear();
        r.make_explicit_acks(Time::from_us(2), &mut pool, &mut acks);
        assert!(acks.is_empty());
        let p2 = data(&mut pool, 2, LgPacketType::Original);
        rx(&mut r, p2, Time::from_us(3), &mut pool);
        r.make_explicit_acks(Time::from_us(4), &mut pool, &mut acks);
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn piggyback_stamp_covers_pending_ack() {
        let mut pool = PacketPool::new();
        let mut r = ordered_rx();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let rev = pool.insert(Packet::raw(NodeId(2), NodeId(1), 1518, Time::ZERO));
        let rev = r.stamp_ack(rev, &mut pool);
        let a = pool.get(rev).lg_ack.unwrap();
        assert!(!a.explicit);
        assert_eq!(a.latest_rx, wire_of(1));
        let mut acks = Vec::new();
        r.make_explicit_acks(Time::from_us(1), &mut pool, &mut acks);
        assert!(acks.is_empty());
    }

    #[test]
    fn inactive_receiver_passes_unprotected_traffic() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig::for_speed(LinkSpeed::G25, 1e-3);
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        let p = pool.insert(Packet::raw(NodeId(1), NodeId(2), 1518, Time::ZERO));
        let actions = rx(&mut r, p, Time::ZERO, &mut pool);
        assert_eq!(delivered(&actions, &pool).len(), 1);
        let rev = pool.insert(Packet::raw(NodeId(2), NodeId(1), 64, Time::ZERO));
        let rev = r.stamp_ack(rev, &mut pool);
        assert!(pool.get(rev).lg_ack.is_none(), "no stamping while dormant");
    }

    #[test]
    fn control_copies_replicate_notifications() {
        let mut pool = PacketPool::new();
        let cfg = LgConfig {
            control_copies: 3,
            ..LgConfig::for_speed(LinkSpeed::G25, 1e-3)
        };
        let mut r = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        r.activate();
        let p1 = data(&mut pool, 1, LgPacketType::Original);
        rx(&mut r, p1, Time::ZERO, &mut pool);
        let p3 = data(&mut pool, 3, LgPacketType::Original);
        let a = rx(&mut r, p3, Time::ZERO, &mut pool);
        assert_eq!(notifications(&a, &pool).len(), 3, "bidirectional hardening");
        let mut acks = Vec::new();
        r.make_explicit_acks(Time::from_us(1), &mut pool, &mut acks);
        assert_eq!(acks.len(), 3);
    }

    /// A receiver that recovered `lost` behind `held` buffered frames
    /// (each arrival 1 µs after the last), and the first instant its
    /// drain backlog has decayed to 0.
    fn drained_after_recovery(lost: u64, held: u64, pool: &mut PacketPool) -> (LgReceiver, Time) {
        let mut r = ordered_rx();
        let mut t = Time::ZERO;
        let seqs = (1..lost).chain(lost + 1..=lost + held);
        for (seq, kind) in seqs
            .map(|s| (s, LgPacketType::Original))
            .chain([(lost, LgPacketType::Retransmit)])
        {
            t += Duration::from_us(1);
            let id = data(pool, seq, kind);
            for a in rx(&mut r, id, t, pool) {
                if let ReceiverAction::Deliver(id) | ReceiverAction::SendReverse { id, .. } = a {
                    pool.release(id);
                }
            }
        }
        assert!(r.is_draining(t), "the recovery left a backlog");
        let (mut lo, mut hi) = (t.as_ps(), t.as_ps() + 1_000_000_000);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if r.is_draining(Time::from_ps(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (r, Time::from_ps(hi))
    }

    proptest::proptest! {
        /// A receiver whose drain backlog has decayed to 0 by `now`
        /// shapes like one with none, and then delivers, acknowledges,
        /// occupies the recirculation path and drains alike through any
        /// later arrivals: in order, across a hole, or a hole's copy.
        #[test]
        fn a_drained_backlog_is_no_backlog(
            lost in 2u64..20,
            held in 1u64..30,
            late in proptest::prop_oneof![proptest::strategy::Just(0u64), 0u64..2_000_000],
            script in proptest::collection::vec((0u64..300_000, 0u8..4), 1..60),
        ) {
            let mut pools = [PacketPool::new(), PacketPool::new()];
            let [a, b] = &mut pools;
            let (mut with, drained) = drained_after_recovery(lost, held, a);
            let (mut without, _) = drained_after_recovery(lost, held, b);
            let now = drained + Duration::from_ps(late);
            without.forget_drained(now);
            let runs = [(&mut with, a), (&mut without, b)].map(|(r, pool)| {
                let mut shape = Vec::new();
                let repeats = r.shape(now, &mut shape);
                let mut seen = vec![format!("{repeats} {shape:?} {}", r.is_draining(now))];
                let (mut t, mut next, mut holes) = (now, lost + held + 1, Vec::new());
                for &(gap, kind) in &script {
                    t += Duration::from_ps(gap);
                    let (seq, copy) = match kind {
                        0 | 1 => (next, false),
                        2 => {
                            holes.push(next);
                            (next + 1, false)
                        }
                        _ => holes.pop().map_or((next, false), |h| (h, true)),
                    };
                    next = next.max(seq + 1);
                    let k = if copy { LgPacketType::Retransmit } else { LgPacketType::Original };
                    let id = data(pool, seq, k);
                    let actions = rx(r, id, t, pool);
                    seen.push(format!(
                        "{actions:?} occ {} draining {} ack {} {:?}",
                        r.recirc_occupancy(t),
                        r.is_draining(t),
                        r.ack_no(),
                        r.stats(),
                    ));
                }
                seen
            });
            proptest::prop_assert_eq!(&runs[0], &runs[1]);
        }
    }

    /// The counted drain equals the per-arrival recurrence it replaced.
    #[test]
    fn drain_after_equals_the_recurrence() {
        let step = |d: u64, drained: u64, len: u64| {
            let left = d.saturating_sub(drained);
            if left > 0 {
                left + len
            } else {
                0
            }
        };
        for draining in (0..400).step_by(7).chain([1_000, 50_000]) {
            for (drained, len) in [(1541, 1521), (100, 100), (90, 100), (1, 64), (64, 1)] {
                let mut d = draining;
                for k in 0..3_000 {
                    assert_eq!(
                        drain_after(draining, k, drained, len),
                        d,
                        "{draining} {k} {drained} {len}"
                    );
                    if d != 0 {
                        d = step(d, drained, len);
                    }
                }
            }
        }
    }
}
