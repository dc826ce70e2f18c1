//! RoCEv2 RC one-sided `RDMA_WRITE`: NIC-based reliable delivery with
//! go-back-N recovery.
//!
//! RC has **no reordering tolerance** (§1, §4.3): an out-of-sequence PSN
//! at the responder elicits a "PSN sequence error" NAK and the requester
//! rewinds to the expected PSN, re-sending everything from there. This is
//! why LinkGuardian's ordered mode matters for RDMA while LinkGuardianNB
//! only prevents the ~1 ms RTO on tail losses.
//!
//! The optional *selective repeat* mode models the newer RoCE feature the
//! paper's §5 mentions: the responder accepts out-of-order packets and the
//! requester re-sends only the NAK'd PSN.

use crate::types::TransportAction;
use lg_packet::rdma::{AethSyndrome, RdmaOpcode};
use lg_packet::{FlowId, NodeId, Packet, RdmaAck, RdmaSegment};
use lg_sim::{Duration, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Default RoCE path MTU (payload bytes per packet) in a 1500-byte
/// Ethernet fabric.
pub const ROCE_MTU: u32 = 1024;

/// Requester-side diagnostics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RdmaTrace {
    /// Packets re-sent (go-back-N rewinds count every re-sent packet).
    pub e2e_retx: u32,
    /// Sequence-error NAKs received.
    pub naks_rx: u32,
    /// Did the retransmission timer fire?
    pub rto_fired: bool,
}

/// RC requester configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RdmaConfig {
    /// Payload bytes per packet.
    pub mtu: u32,
    /// Maximum packets in flight (BDP-sized; uncongested experiments use a
    /// generous window).
    pub window: u32,
    /// Retransmission timeout (the paper measured ≈1 ms on CX NICs).
    pub rto: Duration,
    /// Selective-repeat mode (§5 "RoCE Selective Repeat") instead of
    /// go-back-N.
    pub selective_repeat: bool,
}

impl Default for RdmaConfig {
    fn default() -> RdmaConfig {
        RdmaConfig {
            mtu: ROCE_MTU,
            window: 256,
            rto: Duration::from_ms(1),
            selective_repeat: false,
        }
    }
}

/// The requester (sender) side of an RC WRITE.
#[derive(Debug)]
pub struct RdmaRequester {
    cfg: RdmaConfig,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    msg_len: u32,
    npkts: u32,
    started: Time,
    /// First unacknowledged PSN (relative; message starts at 0).
    snd_una: u32,
    /// Next PSN to transmit.
    snd_nxt: u32,
    rto_at: Option<Time>,
    backoff: u32,
    last_nak_psn: Option<u32>,
    /// One past the highest PSN ever transmitted (classifies re-sends).
    highest_sent: u32,
    completed: bool,
    trace: RdmaTrace,
}

impl RdmaRequester {
    /// Create a requester for a `msg_len`-byte WRITE.
    pub fn new(
        cfg: RdmaConfig,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        msg_len: u32,
    ) -> RdmaRequester {
        assert!(msg_len > 0);
        RdmaRequester {
            npkts: msg_len.div_ceil(cfg.mtu),
            cfg,
            flow,
            src,
            dst,
            msg_len,
            started: Time::ZERO,
            snd_una: 0,
            snd_nxt: 0,
            rto_at: None,
            backoff: 0,
            last_nak_psn: None,
            highest_sent: 0,
            completed: false,
            trace: RdmaTrace::default(),
        }
    }

    fn opcode_for(&self, psn: u32) -> RdmaOpcode {
        if self.npkts == 1 {
            RdmaOpcode::WriteOnly
        } else if psn == 0 {
            RdmaOpcode::WriteFirst
        } else if psn + 1 == self.npkts {
            RdmaOpcode::WriteLast
        } else {
            RdmaOpcode::WriteMiddle
        }
    }

    fn payload_for(&self, psn: u32) -> u32 {
        if psn + 1 == self.npkts {
            self.msg_len - psn * self.cfg.mtu
        } else {
            self.cfg.mtu
        }
    }

    fn make_pkt(&mut self, psn: u32, is_retx: bool, now: Time) -> Packet {
        if is_retx {
            self.trace.e2e_retx += 1;
        }
        Packet::rdma(
            self.src,
            self.dst,
            RdmaSegment {
                flow: self.flow,
                opcode: self.opcode_for(psn),
                psn,
                payload_len: self.payload_for(psn),
            },
            now,
        )
    }

    fn send_window(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        while self.snd_nxt < self.npkts && self.snd_nxt - self.snd_una < self.cfg.window {
            let psn = self.snd_nxt;
            self.snd_nxt += 1;
            // a packet is a re-send if it was already transmitted once
            // (we are behind a go-back-N rewind)
            let pkt = self.make_pkt(psn, psn < self.highest_sent, now);
            self.highest_sent = self.highest_sent.max(psn + 1);
            actions.push(TransportAction::Send(pkt));
        }
        self.arm_rto(now, actions);
    }

    fn arm_rto(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed || self.snd_una >= self.npkts {
            self.rto_at = None;
            return;
        }
        let deadline = now + self.cfg.rto.saturating_mul(1 << self.backoff.min(10));
        self.rto_at = Some(deadline);
        actions.push(TransportAction::WakeAt { deadline });
    }

    /// Post the WRITE; returns the initial burst.
    pub fn start(&mut self, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.start_into(now, &mut actions);
        actions
    }

    /// [`RdmaRequester::start`] into a caller-supplied action buffer.
    pub fn start_into(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        self.started = now;
        self.send_window(now, actions);
    }

    /// Process an ACK/NAK from the responder.
    pub fn on_ack(&mut self, ack: &RdmaAck, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.on_ack_into(ack, now, &mut actions);
        actions
    }

    /// [`RdmaRequester::on_ack`] into a caller-supplied (reusable) action
    /// buffer — the steady-state form: no allocation when nothing is owed.
    pub fn on_ack_into(&mut self, ack: &RdmaAck, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed {
            return;
        }
        match ack.syndrome {
            AethSyndrome::Ack => {
                let acked_through = ack.psn; // cumulative
                if acked_through + 1 > self.snd_una {
                    self.snd_una = acked_through + 1;
                    self.backoff = 0;
                    self.last_nak_psn = None;
                }
                if self.snd_una >= self.npkts {
                    self.completed = true;
                    self.rto_at = None;
                    actions.push(TransportAction::Complete {
                        flow: self.flow,
                        started: self.started,
                        completed: now,
                    });
                    return;
                }
                self.send_window(now, actions);
            }
            AethSyndrome::NakSequenceError => {
                // ack.psn = the PSN the responder expected
                let expected = ack.psn;
                if expected > self.snd_una {
                    // implicit ack of everything below
                    self.snd_una = expected;
                }
                if self.last_nak_psn == Some(expected) {
                    // duplicate NAK for the same episode: ignore
                    return;
                }
                self.last_nak_psn = Some(expected);
                self.trace.naks_rx += 1;
                if self.cfg.selective_repeat {
                    // re-send only the missing PSN
                    let pkt = self.make_pkt(expected, true, now);
                    actions.push(TransportAction::Send(pkt));
                    self.arm_rto(now, actions);
                } else {
                    // go-back-N: rewind and re-send everything
                    self.snd_nxt = expected;
                    self.send_window(now, actions);
                }
            }
        }
    }

    /// Timer wake-up: fires the RTO if due.
    pub fn on_timer(&mut self, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.on_timer_into(now, &mut actions);
        actions
    }

    /// [`RdmaRequester::on_timer`] into a caller-supplied action buffer.
    pub fn on_timer_into(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed {
            return;
        }
        if let Some(rto) = self.rto_at {
            if now >= rto {
                self.rto_at = None;
                self.trace.rto_fired = true;
                self.backoff += 1;
                self.last_nak_psn = None;
                self.snd_nxt = self.snd_una;
                self.send_window(now, actions);
            }
        }
    }

    /// The armed RTO deadline, if any (see `TcpSender::next_deadline`).
    pub fn next_deadline(&self) -> Option<Time> {
        self.rto_at
    }

    /// Whether the WRITE completed.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The flow (queue pair) this requester drives.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Requester diagnostics.
    pub fn trace(&self) -> RdmaTrace {
        self.trace
    }

    /// Total packets in the message.
    pub fn npkts(&self) -> u32 {
        self.npkts
    }
}

/// The responder (receiver) side of an RC WRITE.
#[derive(Debug)]
pub struct RdmaResponder {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    /// Next expected PSN.
    expected: u32,
    /// A NAK was sent and the expected packet has not arrived yet.
    nak_outstanding: bool,
    selective_repeat: bool,
    /// Out-of-order PSNs held (selective-repeat mode only).
    ooo: BTreeSet<u32>,
    silently_dropped: u64,
    duplicates: u64,
}

impl RdmaResponder {
    /// A responder; ACKs go from `src` (this host) to `dst` (requester).
    pub fn new(flow: FlowId, src: NodeId, dst: NodeId, selective_repeat: bool) -> RdmaResponder {
        RdmaResponder {
            flow,
            src,
            dst,
            expected: 0,
            nak_outstanding: false,
            selective_repeat,
            ooo: BTreeSet::new(),
            silently_dropped: 0,
            duplicates: 0,
        }
    }

    fn ack(&self, psn: u32, now: Time) -> Packet {
        Packet::rdma_ack(
            self.src,
            self.dst,
            RdmaAck {
                flow: self.flow,
                syndrome: AethSyndrome::Ack,
                psn,
            },
            now,
        )
    }

    fn nak(&self, expected: u32, now: Time) -> Packet {
        Packet::rdma_ack(
            self.src,
            self.dst,
            RdmaAck {
                flow: self.flow,
                syndrome: AethSyndrome::NakSequenceError,
                psn: expected,
            },
            now,
        )
    }

    /// Process a data packet; returns the ACK/NAK to send, if any.
    pub fn on_data(&mut self, seg: &RdmaSegment, now: Time) -> Option<Packet> {
        use core::cmp::Ordering;
        match seg.psn.cmp(&self.expected) {
            Ordering::Equal => {
                self.expected += 1;
                self.nak_outstanding = false;
                if self.selective_repeat {
                    while self.ooo.remove(&self.expected) {
                        self.expected += 1;
                    }
                }
                Some(self.ack(self.expected - 1, now))
            }
            Ordering::Less => {
                // duplicate (post-rewind overlap): coalesced ACK
                self.duplicates += 1;
                Some(self.ack(self.expected.saturating_sub(1), now))
            }
            Ordering::Greater => {
                if self.selective_repeat {
                    self.ooo.insert(seg.psn);
                    if !self.nak_outstanding {
                        self.nak_outstanding = true;
                        return Some(self.nak(self.expected, now));
                    }
                    None
                } else {
                    // go-back-N: drop silently; NAK once per episode
                    self.silently_dropped += 1;
                    if !self.nak_outstanding {
                        self.nak_outstanding = true;
                        return Some(self.nak(self.expected, now));
                    }
                    None
                }
            }
        }
    }

    /// The flow (queue pair) this responder serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next expected PSN.
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// Out-of-sequence packets dropped (go-back-N).
    pub fn dropped(&self) -> u64 {
        self.silently_dropped
    }

    /// Duplicate packets seen.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::Payload;

    fn requester(msg: u32) -> RdmaRequester {
        RdmaRequester::new(RdmaConfig::default(), FlowId(9), NodeId(1), NodeId(2), msg)
    }

    fn responder() -> RdmaResponder {
        RdmaResponder::new(FlowId(9), NodeId(2), NodeId(1), false)
    }

    fn sent_psns(actions: &[TransportAction]) -> Vec<u32> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::Send(p) => match &p.payload {
                    Payload::Rdma(r) => Some(r.psn),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    fn seg(psn: u32, npkts: u32) -> RdmaSegment {
        RdmaSegment {
            flow: FlowId(9),
            opcode: if npkts == 1 {
                RdmaOpcode::WriteOnly
            } else if psn == 0 {
                RdmaOpcode::WriteFirst
            } else if psn + 1 == npkts {
                RdmaOpcode::WriteLast
            } else {
                RdmaOpcode::WriteMiddle
            },
            psn,
            payload_len: ROCE_MTU,
        }
    }

    fn ack_of(p: &Packet) -> RdmaAck {
        match &p.payload {
            Payload::RdmaAck(a) => *a,
            _ => panic!("not an rdma ack"),
        }
    }

    #[test]
    fn single_packet_write_uses_write_only() {
        let mut r = requester(143);
        let a = r.start(Time::ZERO);
        assert_eq!(sent_psns(&a), vec![0]);
        assert_eq!(r.npkts(), 1);
        match &a[0] {
            TransportAction::Send(p) => match &p.payload {
                Payload::Rdma(s) => assert_eq!(s.opcode, RdmaOpcode::WriteOnly),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn clean_write_completes() {
        let mut req = requester(3 * ROCE_MTU);
        let mut rsp = responder();
        let sends = req.start(Time::ZERO);
        assert_eq!(sent_psns(&sends), vec![0, 1, 2]);
        let mut fct = None;
        for psn in 0..3 {
            let ack = rsp.on_data(&seg(psn, 3), Time::from_us(10)).unwrap();
            let acts = req.on_ack(&ack_of(&ack), Time::from_us(20));
            fct = fct.or(acts.iter().find_map(|a| a.fct()));
        }
        assert!(req.is_complete());
        assert!(fct.is_some());
        assert_eq!(rsp.expected(), 3);
        assert_eq!(req.trace().e2e_retx, 0);
    }

    #[test]
    fn out_of_order_triggers_nak_and_go_back_n() {
        let mut req = requester(5 * ROCE_MTU);
        let mut rsp = responder();
        req.start(Time::ZERO);
        // psn 0 delivered, psn 1 lost, psn 2 arrives out of order
        rsp.on_data(&seg(0, 5), Time::from_us(1)).unwrap();
        let nak = rsp.on_data(&seg(2, 5), Time::from_us(2)).expect("NAK");
        let nak = ack_of(&nak);
        assert_eq!(nak.syndrome, AethSyndrome::NakSequenceError);
        assert_eq!(nak.psn, 1, "expected PSN");
        // further OOO packets are silently dropped
        assert!(rsp.on_data(&seg(3, 5), Time::from_us(3)).is_none());
        assert_eq!(rsp.dropped(), 2);
        // requester rewinds to 1 and re-sends 1..5
        let acts = req.on_ack(&nak, Time::from_us(4));
        assert_eq!(sent_psns(&acts), vec![1, 2, 3, 4]);
        assert_eq!(req.trace().naks_rx, 1);
        assert_eq!(req.trace().e2e_retx, 4, "go-back-N re-sends everything");
    }

    #[test]
    fn duplicate_nak_ignored() {
        let mut req = requester(5 * ROCE_MTU);
        req.start(Time::ZERO);
        let nak = RdmaAck {
            flow: FlowId(9),
            syndrome: AethSyndrome::NakSequenceError,
            psn: 1,
        };
        let first = req.on_ack(&nak, Time::from_us(1));
        assert!(!sent_psns(&first).is_empty());
        let second = req.on_ack(&nak, Time::from_us(2));
        assert!(sent_psns(&second).is_empty(), "same-episode NAK ignored");
    }

    #[test]
    fn rto_rewinds_to_una() {
        let mut req = requester(2 * ROCE_MTU);
        req.start(Time::ZERO);
        // tail packet lost; nothing comes back
        let acts = req.on_timer(Time::from_ms(1));
        assert!(req.trace().rto_fired);
        assert_eq!(sent_psns(&acts), vec![0, 1], "resend from snd_una");
        // backoff doubles the next deadline
        let a2 = req.on_timer(Time::from_ms(3));
        assert_eq!(sent_psns(&a2), vec![0, 1]);
    }

    #[test]
    fn selective_repeat_resends_only_hole() {
        let cfg = RdmaConfig {
            selective_repeat: true,
            ..RdmaConfig::default()
        };
        let mut req = RdmaRequester::new(cfg, FlowId(9), NodeId(1), NodeId(2), 5 * ROCE_MTU);
        let mut rsp = RdmaResponder::new(FlowId(9), NodeId(2), NodeId(1), true);
        req.start(Time::ZERO);
        rsp.on_data(&seg(0, 5), Time::from_us(1));
        // 1 lost; 2,3,4 arrive: one NAK, OOO retained
        let nak = rsp.on_data(&seg(2, 5), Time::from_us(2)).expect("NAK");
        assert!(rsp.on_data(&seg(3, 5), Time::from_us(3)).is_none());
        assert!(rsp.on_data(&seg(4, 5), Time::from_us(3)).is_none());
        let acts = req.on_ack(&ack_of(&nak), Time::from_us(4));
        assert_eq!(sent_psns(&acts), vec![1], "only the hole re-sent");
        // hole fill advances over the retained OOO packets
        let ack = rsp.on_data(&seg(1, 5), Time::from_us(5)).unwrap();
        assert_eq!(rsp.expected(), 5);
        let done = req.on_ack(&ack_of(&ack), Time::from_us(6));
        assert!(done.iter().any(|a| a.fct().is_some()));
    }

    #[test]
    fn duplicate_data_gets_coalesced_ack() {
        let mut rsp = responder();
        rsp.on_data(&seg(0, 3), Time::from_us(1)).unwrap();
        rsp.on_data(&seg(1, 3), Time::from_us(2)).unwrap();
        // rewound duplicate of 0
        let a = rsp.on_data(&seg(0, 3), Time::from_us(3)).unwrap();
        assert_eq!(ack_of(&a).psn, 1, "cumulative ack");
        assert_eq!(rsp.duplicates(), 1);
    }

    #[test]
    fn window_limits_inflight() {
        let cfg = RdmaConfig {
            window: 4,
            ..RdmaConfig::default()
        };
        let mut req = RdmaRequester::new(cfg, FlowId(9), NodeId(1), NodeId(2), 100 * ROCE_MTU);
        let a = req.start(Time::ZERO);
        assert_eq!(sent_psns(&a).len(), 4);
        // cumulative ack of 0,1 opens 2 slots
        let acts = req.on_ack(
            &RdmaAck {
                flow: FlowId(9),
                syndrome: AethSyndrome::Ack,
                psn: 1,
            },
            Time::from_us(10),
        );
        assert_eq!(sent_psns(&acts), vec![4, 5]);
    }
}
