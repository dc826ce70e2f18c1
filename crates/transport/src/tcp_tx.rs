//! TCP sender: reliability core (sequencing, SACK scoreboard, fast
//! recovery, tail-loss probe, RTO) with pluggable congestion control.
//!
//! One `TcpSender` drives one message over an established connection —
//! the unit the paper's FCT experiments measure (its x-axis is
//! "Message/Flow Completion Time"). Segments go out in TSO-style bursts
//! clocked by ACKs; the testbed's host model serializes them at the access
//! link rate.
//!
//! Loss recovery matches the testbed kernel's behaviour as the paper
//! describes it (§4.4): entering fast recovery — and reducing cwnd — when
//! more than 2 MSS of bytes above a hole have been SACK'd, a TLP after
//! 2·SRTT of tail silence, and a 1 ms-floored RTO as the last resort.

use crate::cc::{self, CongestionControl};
use crate::types::{CcVariant, FlowTrace, TcpConfig, TransportAction};
use lg_packet::tcp::{SackList, TcpFlags};
use lg_packet::{Ecn, FlowId, NodeId, Packet, TcpSegment};
use lg_sim::{Duration, Time};

#[derive(Debug, Clone, Copy, Default)]
struct SegState {
    sent_at: Option<Time>,
    sacked: bool,
    lost: bool,
    retx_count: u32,
}

/// The TCP sender state machine for one message.
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    variant: CcVariant,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    msg_len: u32,
    nsegs: u32,
    started: Time,
    segs: Vec<SegState>,
    /// First not-cumulatively-acked segment.
    snd_una: u32,
    /// Next never-sent segment.
    snd_nxt: u32,
    /// Segments in flight (sent − acked − sacked − marked lost).
    pipe: u32,
    /// Marked-lost segments not yet retransmitted, ascending.
    retx_queue: std::collections::BTreeSet<u32>,
    srtt: Option<Duration>,
    rttvar: Duration,
    /// RACK reordering window: starts at zero; once reordering is
    /// observed (a never-retransmitted segment is ACKed after later
    /// segments were SACKed), it grows to srtt/4 and loss marking waits
    /// it out. This is what lets LinkGuardianNB's out-of-order
    /// retransmissions avoid spurious recovery on long-lived connections
    /// (§4.4, §4.7).
    reo_wnd: Duration,
    /// RACK reo_wnd multiplier: grows (to 4) with each further reordering
    /// observation, as Linux widens the window on repeated evidence.
    reo_wnd_mult: u64,
    highest_sacked: u32,
    /// Send time of the most recently transmitted segment that has been
    /// SACKed (RACK's `rack.xmit_time`).
    rack_xmit_time: Option<Time>,
    in_recovery: bool,
    recovery_end: u32,
    rto_at: Option<Time>,
    tlp_at: Option<Time>,
    /// A tail-loss probe was sent and no cumulative progress has been
    /// observed since; suppresses further probes (the RTO backs it up).
    tlp_outstanding: bool,
    rto_backoff: u32,
    completed: bool,
    trace: FlowTrace,
}

impl TcpSender {
    /// Create a sender for a `msg_len`-byte message on flow `flow`.
    pub fn new(
        cfg: TcpConfig,
        variant: CcVariant,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        msg_len: u32,
    ) -> TcpSender {
        assert!(msg_len > 0);
        let nsegs = msg_len.div_ceil(cfg.mss);
        let cc = cc::build(variant, cfg.mss, cfg.init_cwnd_segs, cfg.max_cwnd_segs);
        TcpSender {
            segs: vec![SegState::default(); nsegs as usize],
            cfg,
            cc,
            variant,
            flow,
            src,
            dst,
            msg_len,
            nsegs,
            started: Time::ZERO,
            snd_una: 0,
            snd_nxt: 0,
            pipe: 0,
            retx_queue: std::collections::BTreeSet::new(),
            srtt: None,
            rttvar: Duration::ZERO,
            reo_wnd: Duration::ZERO,
            reo_wnd_mult: 0,
            highest_sacked: 0,
            rack_xmit_time: None,
            in_recovery: false,
            recovery_end: 0,
            rto_at: None,
            tlp_at: None,
            tlp_outstanding: false,
            rto_backoff: 0,
            completed: false,
            trace: FlowTrace::new(),
        }
    }

    /// Like [`TcpSender::new`], but recycles the previous trial's heap
    /// allocations (segment scoreboard, boxed congestion controller) when
    /// the variant matches, so back-to-back FCT trials allocate nothing.
    /// The resulting state is indistinguishable from a fresh `new`.
    pub fn renew(
        old: Option<TcpSender>,
        cfg: TcpConfig,
        variant: CcVariant,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        msg_len: u32,
    ) -> TcpSender {
        let Some(mut s) = old else {
            return TcpSender::new(cfg, variant, flow, src, dst, msg_len);
        };
        if s.variant != variant {
            return TcpSender::new(cfg, variant, flow, src, dst, msg_len);
        }
        assert!(msg_len > 0);
        let nsegs = msg_len.div_ceil(cfg.mss);
        s.cc.reset(cfg.mss, cfg.init_cwnd_segs, cfg.max_cwnd_segs);
        s.segs.clear();
        s.segs.resize(nsegs as usize, SegState::default());
        s.cfg = cfg;
        s.flow = flow;
        s.src = src;
        s.dst = dst;
        s.msg_len = msg_len;
        s.nsegs = nsegs;
        s.started = Time::ZERO;
        s.snd_una = 0;
        s.snd_nxt = 0;
        s.pipe = 0;
        s.retx_queue.clear();
        s.srtt = None;
        s.rttvar = Duration::ZERO;
        s.reo_wnd = Duration::ZERO;
        s.reo_wnd_mult = 0;
        s.highest_sacked = 0;
        s.rack_xmit_time = None;
        s.in_recovery = false;
        s.recovery_end = 0;
        s.rto_at = None;
        s.tlp_at = None;
        s.tlp_outstanding = false;
        s.rto_backoff = 0;
        s.completed = false;
        s.trace = FlowTrace::new();
        s
    }

    fn seg_len(&self, idx: u32) -> u32 {
        if idx + 1 == self.nsegs {
            self.msg_len - idx * self.cfg.mss
        } else {
            self.cfg.mss
        }
    }

    fn seg_ecn(&self) -> Ecn {
        // Only DCTCP negotiates ECN on the paper's testbed (CUBIC's qdepth
        // in Fig 21a blows far past the 100 KB marking threshold).
        if self.variant == CcVariant::Dctcp {
            Ecn::Ect0
        } else {
            Ecn::NotEct
        }
    }

    fn make_seg(&mut self, idx: u32, is_retx: bool, now: Time) -> Packet {
        let st = &mut self.segs[idx as usize];
        st.sent_at = Some(now);
        if is_retx {
            st.retx_count += 1;
            self.trace.e2e_retx += 1;
            if idx + 3 >= self.nsegs {
                self.trace.tail_loss = true;
            }
        }
        let seg = TcpSegment {
            flow: self.flow,
            seq: idx * self.cfg.mss,
            payload_len: self.seg_len(idx),
            ack: 0,
            flags: TcpFlags {
                psh: idx + 1 == self.nsegs,
                ..Default::default()
            },
            sack: SackList::new(),
            is_retx,
        };
        Packet::tcp(self.src, self.dst, seg, self.seg_ecn(), now)
    }

    /// Post the message; returns the initial burst.
    pub fn start(&mut self, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.start_into(now, &mut actions);
        actions
    }

    /// [`TcpSender::start`] into a caller-supplied (reusable) action buffer.
    pub fn start_into(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        self.started = now;
        self.send_eligible(now, actions);
        self.arm_timers(now, actions);
    }

    fn cwnd_segs(&self) -> u32 {
        (self.cc.cwnd() / self.cfg.mss).clamp(1, self.cfg.max_cwnd_segs)
    }

    fn send_eligible(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        // Fast retransmissions go out immediately during fast recovery
        // (the lost packet's pipe slot was already released); after an RTO
        // they are paced by the collapsed cwnd like everything else.
        while let Some(&idx) = self.retx_queue.iter().next() {
            if !self.in_recovery && self.pipe >= self.cwnd_segs() {
                break;
            }
            self.retx_queue.remove(&idx);
            if self.segs[idx as usize].sacked || self.is_cum_acked(idx) {
                continue; // recovered in the meantime
            }
            self.segs[idx as usize].lost = false;
            let pkt = self.make_seg(idx, true, now);
            actions.push(TransportAction::Send(pkt));
            self.pipe += 1;
        }
        // New data within cwnd.
        while self.pipe < self.cwnd_segs() && self.snd_nxt < self.nsegs {
            let idx = self.snd_nxt;
            self.snd_nxt += 1;
            let pkt = self.make_seg(idx, false, now);
            actions.push(TransportAction::Send(pkt));
            self.pipe += 1;
        }
    }

    fn is_cum_acked(&self, idx: u32) -> bool {
        idx < self.snd_una
    }

    fn rto_interval(&self) -> Duration {
        let base = match self.srtt {
            Some(srtt) => {
                let candidate = srtt + self.rttvar.saturating_mul(4);
                if candidate > self.cfg.rto_min {
                    candidate
                } else {
                    self.cfg.rto_min
                }
            }
            None => self.cfg.rto_min,
        };
        base.saturating_mul(1 << self.rto_backoff.min(10))
    }

    /// Arm the (single) retransmission timer, Linux-style: a tail-loss
    /// probe deadline when one is eligible, otherwise the RTO. The timer
    /// restarts on cumulative progress (the caller clears both deadlines);
    /// other events never postpone an armed RTO.
    fn arm_timers(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed || self.snd_una >= self.nsegs {
            self.rto_at = None;
            self.tlp_at = None;
            return;
        }
        // TLP: everything sent, waiting on the tail; one probe per
        // stall episode, the RTO backing it up afterwards.
        if self.cfg.tlp
            && !self.tlp_outstanding
            && self.snd_nxt >= self.nsegs
            && self.retx_queue.is_empty()
        {
            let mut pto = match self.srtt {
                Some(srtt) => srtt.saturating_mul(2),
                None => self.cfg.rto_min,
            };
            if pto < Duration::from_us(100) {
                pto = Duration::from_us(100);
            }
            // RFC 8985: with only one segment in flight the probe must
            // also cover the receiver's worst-case delayed ACK, capped by
            // the RTO — this is why tail losses of very short flows still
            // pay ~RTO_min even with RACK-TLP (the paper's §4.5 note).
            if self.pipe <= 1 {
                let rto = self.rto_interval();
                if pto < rto {
                    pto = rto;
                }
            }
            let deadline = now + pto;
            if self.tlp_at != Some(deadline) {
                self.tlp_at = Some(deadline);
                self.rto_at = None; // single timer: the probe preempts RTO
                actions.push(TransportAction::WakeAt { deadline });
            }
        } else if self.rto_at.is_none() {
            let deadline = now + self.rto_interval();
            self.rto_at = Some(deadline);
            self.tlp_at = None;
            actions.push(TransportAction::WakeAt { deadline });
        }
    }

    /// Feed an incoming ACK segment.
    pub fn on_ack(&mut self, seg: &TcpSegment, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.on_ack_into(seg, now, &mut actions);
        actions
    }

    /// [`TcpSender::on_ack`] into a caller-supplied (reusable) action
    /// buffer — the steady-state form: no allocation when nothing is owed.
    pub fn on_ack_into(&mut self, seg: &TcpSegment, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed {
            return;
        }
        let ack_seg = if seg.ack >= self.msg_len {
            self.nsegs
        } else {
            seg.ack / self.cfg.mss
        };
        let mut newly_acked_bytes: u32 = 0;
        let mut rtt_sample = None;

        // Cumulative advance.
        if ack_seg > self.snd_una {
            for idx in self.snd_una..ack_seg {
                let st = &mut self.segs[idx as usize];
                // RACK reordering detection: this segment was never
                // retransmitted by us, yet segments sent after it were
                // already SACKed — the network reordered. Adapt reo_wnd.
                if self.cfg.rack && st.retx_count == 0 && !st.sacked && idx < self.highest_sacked {
                    if let Some(srtt) = self.srtt {
                        self.reo_wnd_mult = (self.reo_wnd_mult + 1).min(4);
                        self.reo_wnd = srtt.div(4).saturating_mul(self.reo_wnd_mult);
                    }
                }
                if !st.sacked && !st.lost {
                    self.pipe = self.pipe.saturating_sub(1);
                }
                if !st.sacked {
                    newly_acked_bytes += if idx + 1 == self.nsegs {
                        self.msg_len - idx * self.cfg.mss
                    } else {
                        self.cfg.mss
                    };
                }
                st.lost = false;
                self.retx_queue.remove(&idx);
                // Karn: only sample RTT from never-retransmitted segments.
                if st.retx_count == 0 {
                    if let Some(sent) = st.sent_at {
                        rtt_sample = Some(now.saturating_since(sent));
                    }
                }
            }
            self.snd_una = ack_seg;
            self.rto_backoff = 0;
            // restart the retransmission timer and allow a fresh TLP
            self.rto_at = None;
            self.tlp_at = None;
            self.tlp_outstanding = false;
            if self.in_recovery && self.snd_una >= self.recovery_end {
                self.in_recovery = false;
            }
        }

        // SACK processing.
        let mut sacked_bytes_outstanding: u32 = 0;
        for block in &seg.sack {
            let from = block.start / self.cfg.mss;
            let to = (block.end.div_ceil(self.cfg.mss)).min(self.nsegs);
            if to > self.highest_sacked {
                self.highest_sacked = to;
            }
            for idx in from.max(self.snd_una)..to {
                let st = &mut self.segs[idx as usize];
                if !st.sacked {
                    st.sacked = true;
                    if let Some(sent) = st.sent_at {
                        if self.rack_xmit_time.is_none_or(|t| sent > t) {
                            self.rack_xmit_time = Some(sent);
                        }
                    }
                    newly_acked_bytes += self.cfg.mss.min(self.msg_len - idx * self.cfg.mss);
                    if !st.lost {
                        self.pipe = self.pipe.saturating_sub(1);
                    }
                    st.lost = false;
                    self.retx_queue.remove(&idx);
                }
            }
        }
        let mut first_hole_above_sack: Option<u32> = None;
        for idx in self.snd_una..self.snd_nxt {
            if self.segs[idx as usize].sacked {
                sacked_bytes_outstanding += self.cfg.mss;
            } else if first_hole_above_sack.is_none() {
                first_hole_above_sack = Some(idx);
            }
        }
        // Fig 13's "tail loss?" condition: the (link- or transport-lost)
        // packet visible as a SACK hole sits within the flow's last 3
        // packets. This is observable whenever any SACK exists.
        if sacked_bytes_outstanding > 0 {
            if let Some(hole) = first_hole_above_sack {
                if hole + 3 >= self.nsegs {
                    self.trace.tail_loss = true;
                }
            }
        }
        self.trace.max_sacked_bytes = self.trace.max_sacked_bytes.max(sacked_bytes_outstanding);
        if sacked_bytes_outstanding > 2 * self.cfg.mss
            && self.trace.pending_bytes_at_big_sack == u32::MAX
        {
            self.trace.pending_bytes_at_big_sack = (self.nsegs - self.snd_nxt) * self.cfg.mss;
        }

        // RTT estimator (RFC 6298).
        if let Some(r) = rtt_sample {
            match self.srtt {
                None => {
                    self.srtt = Some(r);
                    self.rttvar = r.div(2);
                }
                Some(srtt) => {
                    let delta = if srtt > r { srtt - r } else { r - srtt };
                    self.rttvar = Duration::from_ps((3 * self.rttvar.as_ps() + delta.as_ps()) / 4);
                    self.srtt = Some(Duration::from_ps((7 * srtt.as_ps() + r.as_ps()) / 8));
                }
            }
        }

        // Congestion controller feedback.
        let ce_bytes = if seg.flags.ece { newly_acked_bytes } else { 0 };
        if newly_acked_bytes > 0 || ce_bytes > 0 {
            let before = self.cc.reductions();
            self.cc.on_ack(newly_acked_bytes, ce_bytes, rtt_sample);
            self.trace.cwnd_reductions += self.cc.reductions() - before;
        }

        // Loss detection: > 2 MSS of SACK'd bytes above the first hole.
        self.detect_losses(now);

        // Completion check.
        if self.snd_una >= self.nsegs {
            self.completed = true;
            actions.push(TransportAction::Complete {
                flow: self.flow,
                started: self.started,
                completed: now,
            });
            self.rto_at = None;
            self.tlp_at = None;
            return;
        }

        self.send_eligible(now, actions);
        self.arm_timers(now, actions);
    }

    fn detect_losses(&mut self, now: Time) {
        // Find the first hole; count SACK'd bytes above it.
        let mut hole = None;
        for idx in self.snd_una..self.snd_nxt {
            if !self.segs[idx as usize].sacked && !self.segs[idx as usize].lost {
                hole = Some(idx);
                break;
            }
        }
        let Some(first_hole) = hole else { return };
        let _ = now;
        // RACK: once reordering has been observed, a hole is presumed lost
        // only when some SACKed segment was sent at least reo_wnd *after*
        // it — an out-of-order (link-local) retransmission arriving within
        // the window fills the hole before this test passes (§4.4).
        if self.reo_wnd > Duration::ZERO {
            let hole_sent = self.segs[first_hole as usize].sent_at;
            match (hole_sent, self.rack_xmit_time) {
                (Some(hs), Some(rx)) => {
                    if rx < hs + self.reo_wnd {
                        return;
                    }
                }
                _ => return,
            }
        }
        let sacked_above: u32 = (first_hole..self.snd_nxt)
            .filter(|&i| self.segs[i as usize].sacked)
            .count() as u32;
        if sacked_above * self.cfg.mss > 2 * self.cfg.mss {
            // Mark every hole below the highest SACK as lost.
            let highest_sacked = (first_hole..self.snd_nxt)
                .rev()
                .find(|&i| self.segs[i as usize].sacked);
            if let Some(hi) = highest_sacked {
                let mut any_new = false;
                for idx in first_hole..hi {
                    let st = &mut self.segs[idx as usize];
                    if !st.sacked && !st.lost {
                        st.lost = true;
                        self.pipe = self.pipe.saturating_sub(1);
                        self.retx_queue.insert(idx);
                        any_new = true;
                    }
                }
                if any_new && !self.in_recovery {
                    self.in_recovery = true;
                    self.recovery_end = self.snd_nxt;
                    self.cc.on_loss();
                    self.trace.cwnd_reductions += 1;
                }
            }
        }
    }

    /// Timer wake-up: evaluates TLP and RTO deadlines. Spurious wakes are
    /// no-ops.
    pub fn on_timer(&mut self, now: Time) -> Vec<TransportAction> {
        let mut actions = Vec::new();
        self.on_timer_into(now, &mut actions);
        actions
    }

    /// [`TcpSender::on_timer`] into a caller-supplied action buffer.
    pub fn on_timer_into(&mut self, now: Time, actions: &mut Vec<TransportAction>) {
        if self.completed {
            return;
        }
        if let Some(tlp) = self.tlp_at {
            if now >= tlp {
                self.tlp_at = None;
                self.tlp_outstanding = true;
                self.trace.tlp_fired = true;
                // Probe: re-send the highest unSACKed outstanding segment
                // (RFC 8985's probe is the most recently sent data; when
                // the very tail is already SACKed, probing an earlier hole
                // is the only transmission that can make progress).
                let probe = (self.snd_una..self.snd_nxt)
                    .rev()
                    .find(|&i| !self.segs[i as usize].sacked);
                if let Some(idx) = probe {
                    let pkt = self.make_seg(idx, true, now);
                    actions.push(TransportAction::Send(pkt));
                }
                self.arm_timers(now, actions);
                return;
            }
        }
        if let Some(rto) = self.rto_at {
            if now >= rto {
                self.rto_at = None;
                self.tlp_outstanding = false;
                self.trace.rto_fired = true;
                self.rto_backoff += 1;
                self.cc.on_rto();
                self.trace.cwnd_reductions += 1;
                self.in_recovery = false;
                // Everything outstanding and unSACKed is presumed lost.
                self.retx_queue.clear();
                self.pipe = 0;
                for idx in self.snd_una..self.snd_nxt {
                    let st = &mut self.segs[idx as usize];
                    if !st.sacked {
                        st.lost = true;
                        self.retx_queue.insert(idx);
                    }
                }
                self.send_eligible(now, actions);
                self.arm_timers(now, actions);
                return;
            }
        }
        // spurious wake: ensure a timer is still armed
        if self.rto_at.is_none() && self.tlp_at.is_none() {
            self.arm_timers(now, actions);
        }
    }

    /// The earliest armed timer deadline (TLP or RTO), if any: what a
    /// host keeping a single pending wake-up re-arms from.
    pub fn next_deadline(&self) -> Option<Time> {
        [self.tlp_at, self.rto_at].into_iter().flatten().min()
    }

    /// Whether the message completed.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Per-flow diagnostics (Fig 13 classification inputs).
    pub fn trace(&self) -> FlowTrace {
        self.trace
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Smoothed RTT estimate, if any sample was taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Message length in segments.
    pub fn nsegs(&self) -> u32 {
        self.nsegs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::tcp::SackBlock;
    use lg_packet::Payload;

    const MSS: u32 = 1460;

    fn sender(msg_len: u32) -> TcpSender {
        TcpSender::new(
            TcpConfig::default(),
            CcVariant::Dctcp,
            FlowId(1),
            NodeId(1),
            NodeId(2),
            msg_len,
        )
    }

    fn sent_seqs(actions: &[TransportAction]) -> Vec<u32> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::Send(p) => match &p.payload {
                    Payload::Tcp(t) => Some(t.seq),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    fn ack(ack_bytes: u32, sack: Vec<SackBlock>, ece: bool) -> TcpSegment {
        let sack = SackList::from_blocks(&sack);
        TcpSegment {
            flow: FlowId(1),
            seq: 0,
            payload_len: 0,
            ack: ack_bytes,
            flags: TcpFlags {
                ack: true,
                ece,
                ..Default::default()
            },
            sack,
            is_retx: false,
        }
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut s = sender(20 * MSS);
        let actions = s.start(Time::ZERO);
        let seqs = sent_seqs(&actions);
        assert_eq!(seqs.len(), 10);
        assert_eq!(seqs[0], 0);
        assert_eq!(seqs[9], 9 * MSS);
        // an RTO must be armed
        assert!(actions
            .iter()
            .any(|a| matches!(a, TransportAction::WakeAt { .. })));
    }

    #[test]
    fn next_deadline_is_the_armed_timer_and_clears_on_completion() {
        let mut s = sender(143);
        assert_eq!(s.next_deadline(), None, "nothing armed before start");
        let wake = |a: &[TransportAction]| {
            a.iter().find_map(|x| match x {
                TransportAction::WakeAt { deadline } => Some(*deadline),
                _ => None,
            })
        };
        let a = s.start(Time::ZERO);
        assert_eq!(s.next_deadline(), wake(&a), "the deadline it asked for");
        assert_eq!(s.next_deadline(), s.tlp_at, "tail outstanding: the probe");
        s.on_ack(&ack(143, vec![], false), Time::from_us(30));
        assert_eq!(s.next_deadline(), None, "completed: nothing to wake for");
    }

    #[test]
    fn single_packet_message_completes_on_ack() {
        let mut s = sender(143);
        let a = s.start(Time::ZERO);
        assert_eq!(sent_seqs(&a), vec![0]);
        let done = s.on_ack(&ack(143, vec![], false), Time::from_us(30));
        let fct = done.iter().find_map(|x| x.fct()).expect("complete");
        assert_eq!(fct, Duration::from_us(30));
        assert!(s.is_complete());
    }

    #[test]
    fn ack_clocking_releases_more_segments() {
        let mut s = sender(20 * MSS);
        s.start(Time::ZERO);
        let a = s.on_ack(&ack(2 * MSS, vec![], false), Time::from_us(30));
        // 2 acked + slow-start growth → at least 2 new segments
        assert!(sent_seqs(&a).len() >= 2, "{:?}", sent_seqs(&a));
        assert!(sent_seqs(&a).iter().all(|&q| q >= 10 * MSS));
    }

    #[test]
    fn sack_past_hole_triggers_fast_retransmit_and_reduction() {
        let mut s = sender(20 * MSS);
        s.start(Time::ZERO);
        // seg 0 lost; segs 1..4 SACKed (3 segs > 2 MSS)
        let a = s.on_ack(
            &ack(
                0,
                vec![SackBlock {
                    start: MSS,
                    end: 4 * MSS,
                }],
                false,
            ),
            Time::from_us(40),
        );
        let seqs = sent_seqs(&a);
        assert!(seqs.contains(&0), "hole retransmitted: {seqs:?}");
        assert_eq!(s.trace().e2e_retx, 1);
        assert!(s.trace().cwnd_reductions >= 1, "cwnd reduced");
        // retx of the hole completes the recovery
        let done = s.on_ack(&ack(4 * MSS, vec![], false), Time::from_us(80));
        assert!(!done.is_empty());
    }

    #[test]
    fn two_mss_sack_does_not_trigger_recovery() {
        let mut s = sender(20 * MSS);
        s.start(Time::ZERO);
        // only 2 segments SACKed above the hole: within the 2-MSS allowance
        let a = s.on_ack(
            &ack(
                0,
                vec![SackBlock {
                    start: MSS,
                    end: 3 * MSS,
                }],
                false,
            ),
            Time::from_us(40),
        );
        assert!(!sent_seqs(&a).contains(&0), "no spurious retransmit");
        assert_eq!(s.trace().e2e_retx, 0);
        assert_eq!(s.trace().max_sacked_bytes, 2 * MSS);
    }

    #[test]
    fn tlp_fires_then_recovers_tail_loss() {
        let mut s = sender(3 * MSS);
        s.start(Time::ZERO);
        // first segment acked; segs 1 and 2 outstanding, 2 lost. With two
        // segments in flight the PTO is 2*SRTT (no delayed-ACK allowance).
        s.on_ack(&ack(MSS, vec![], false), Time::from_us(30));
        s.on_ack(&ack(2 * MSS, vec![], false), Time::from_us(35));
        // pipe == 1 now: RFC 8985 stretches the PTO to the RTO
        let quiet = s.on_timer(Time::from_us(300));
        assert!(sent_seqs(&quiet).is_empty(), "PTO not yet due");
        let a = s.on_timer(Time::from_ms(2));
        assert!(s.trace().tlp_fired, "TLP fired");
        let seqs = sent_seqs(&a);
        assert_eq!(seqs, vec![2 * MSS], "probe re-sends the tail");
        let done = s.on_ack(&ack(3 * MSS, vec![], false), Time::from_ms(3));
        assert!(done.iter().any(|x| x.fct().is_some()));
        assert!(s.trace().tail_loss);
    }

    #[test]
    fn tlp_multi_flight_uses_short_pto() {
        let mut s = sender(4 * MSS);
        s.start(Time::ZERO);
        // ack seg 0 only: 3 segments still in flight → PTO = 2*SRTT
        s.on_ack(&ack(MSS, vec![], false), Time::from_us(30));
        let a = s.on_timer(Time::from_us(300));
        assert!(s.trace().tlp_fired, "short PTO with pipe > 1");
        assert_eq!(sent_seqs(&a), vec![3 * MSS]);
        // no second probe until progress
        let b = s.on_timer(Time::from_us(301));
        assert!(sent_seqs(&b).is_empty());
    }

    #[test]
    fn rto_collapses_and_retransmits() {
        let mut s = TcpSender::new(
            TcpConfig {
                tlp: false,
                ..TcpConfig::default()
            },
            CcVariant::Dctcp,
            FlowId(1),
            NodeId(1),
            NodeId(2),
            5 * MSS,
        );
        s.start(Time::ZERO);
        // nothing acked; RTO (1 ms floor) fires
        let a = s.on_timer(Time::from_ms(2));
        assert!(s.trace().rto_fired);
        let seqs = sent_seqs(&a);
        assert!(seqs.contains(&0), "head retransmitted after RTO");
        // cwnd collapsed to 1 MSS: only one segment in the burst
        assert_eq!(seqs.len(), 1);
    }

    #[test]
    fn ece_feedback_reaches_dctcp() {
        let mut s = sender(200 * MSS);
        s.start(Time::ZERO);
        let mut t = Time::ZERO;
        // repeatedly ack with ECE: cwnd must stop growing / shrink
        let mut acked = 0;
        for _ in 0..150 {
            t += Duration::from_us(30);
            acked += MSS;
            s.on_ack(&ack(acked, vec![], true), t);
        }
        assert!(
            s.trace().cwnd_reductions > 0,
            "ECN-driven reductions happened"
        );
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = TcpSender::new(
            TcpConfig {
                tlp: false,
                ..TcpConfig::default()
            },
            CcVariant::Dctcp,
            FlowId(1),
            NodeId(1),
            NodeId(2),
            MSS,
        );
        s.start(Time::ZERO);
        s.on_timer(Time::from_ms(2));
        let first_deadline = s.rto_at.unwrap();
        assert!(first_deadline >= Time::from_ms(2) + Duration::from_ms(2));
        s.on_timer(first_deadline);
        let second = s.rto_at.unwrap();
        assert!(second >= first_deadline + Duration::from_ms(4));
    }

    #[test]
    fn spurious_wake_is_noop() {
        let mut s = sender(2 * MSS);
        s.start(Time::ZERO);
        let a = s.on_timer(Time::from_ns(10));
        assert!(sent_seqs(&a).is_empty());
    }

    #[test]
    fn duplicate_acks_complete_only_once() {
        let mut s = sender(MSS);
        s.start(Time::ZERO);
        let d1 = s.on_ack(&ack(MSS, vec![], false), Time::from_us(30));
        assert!(d1.iter().any(|x| x.fct().is_some()));
        let d2 = s.on_ack(&ack(MSS, vec![], false), Time::from_us(31));
        assert!(d2.is_empty());
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        // ack each window 30us after it was sent
        let mut s = sender(100 * MSS);
        let mut outstanding = sent_seqs(&s.start(Time::ZERO)).len() as u32;
        let mut acked = 0u32;
        let mut t = Time::ZERO;
        while acked < 100 && outstanding > 0 {
            t += Duration::from_us(30);
            acked += outstanding;
            let a = s.on_ack(&ack(acked.min(100) * MSS, vec![], false), t);
            outstanding = sent_seqs(&a).len() as u32;
        }
        let srtt = s.srtt().expect("sampled");
        assert!(srtt <= Duration::from_us(40), "srtt {srtt}");
    }
}
