//! An end host of either testbed loop: its NIC, its transport endpoints
//! and the single wake-up their timers share.

use lg_packet::{FlowId, NodeId, Packet, Payload};
use lg_sim::{Duration, Time};
use lg_switch::SerialLink;
use lg_transport::{
    CcVariant, RdmaRequester, RdmaResponder, TcpConfig, TcpReceiver, TcpSender, TransportAction,
};

/// One host hop, each way: 100 ns of NIC/wire latency plus the 7 µs
/// host stack delay (7 µs on transmit and on receive makes the unloaded
/// TCP RTT ≈ 30 µs, §4). A frame reaches its host this long after the
/// host-facing switch port finishes serializing it, and reaches the
/// switch this long after the host hands it to its NIC.
pub const HOST_HOP: Duration = Duration::from_ns(100 + 7_000);

/// Pacing interval of the dummy-refresh keepalive that re-arms an idle
/// protected port's dummy queue.
pub(crate) const DUMMY_REFRESH: Duration = Duration::from_ns(400);

/// Per-host state: NIC pacing plus at most one active transport each way.
pub struct Host {
    /// This host's address.
    pub node: NodeId,
    /// The NIC: an unbounded FIFO serializer, computed at hand-over.
    pub(crate) nic: SerialLink,
    /// Instant of the one live pending wake-up. Transports re-arm a
    /// ≈1 ms timer on every ACK; only a deadline *earlier* than the
    /// pending wake needs an event of its own, because a wake that
    /// fires early re-arms from the transports' current deadline.
    wake_at: Option<Time>,
    /// Latest deadline ever requested: the last wake fires there, as
    /// the last stale per-ACK wake used to, so a drained run ends on
    /// the same clock.
    wake_latest: Time,
    /// TCP sender of the current trial.
    pub tcp_tx: Option<TcpSender>,
    /// Finished TCP sender kept for recycling by the next trial; its
    /// per-segment state table and congestion-control box are reused
    /// instead of reallocated (see `TcpSender::renew`).
    pub(crate) tcp_spent: Option<TcpSender>,
    /// TCP receiver of the current trial.
    pub tcp_rx: Option<TcpReceiver>,
    /// RDMA requester of the current trial.
    pub rdma_tx: Option<RdmaRequester>,
    /// RDMA responder of the current trial.
    pub rdma_rx: Option<RdmaResponder>,
    /// Bytes of application payload received.
    pub payload_rx_bytes: u64,
    /// Raw/UDP stress frames received.
    pub stress_rx_frames: u64,
    /// Raw/UDP stress wire bytes received.
    pub stress_rx_wire_bytes: u64,
}

impl Host {
    pub(crate) fn new(node: NodeId) -> Host {
        Host {
            node,
            nic: SerialLink::default(),
            wake_at: None,
            wake_latest: Time::ZERO,
            tcp_tx: None,
            tcp_spent: None,
            tcp_rx: None,
            rdma_tx: None,
            rdma_rx: None,
            payload_rx_bytes: 0,
            stress_rx_frames: 0,
            stress_rx_wire_bytes: 0,
        }
    }

    /// Post a `len`-byte TCP message to `peer`, recycling the previous
    /// trial's sender.
    pub(crate) fn start_tcp(
        &mut self,
        peer: NodeId,
        flow: FlowId,
        variant: CcVariant,
        len: u32,
        now: Time,
        actions: &mut Vec<TransportAction>,
    ) {
        let old = self.tcp_spent.take().or_else(|| self.tcp_tx.take());
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::renew(old, cfg, variant, flow, self.node, peer, len);
        tx.start_into(now, actions);
        self.tcp_tx = Some(tx);
    }

    /// A transport asked to be woken at `at`; true if a wake event must
    /// be filed for it (the pending one, if any, is later).
    pub(crate) fn request_wake(&mut self, at: Time) -> bool {
        self.wake_latest = self.wake_latest.max(at);
        let earlier = self.wake_at.is_none_or(|pending| at < pending);
        if earlier {
            self.wake_at = Some(at);
        }
        earlier
    }

    /// A wake event fired at `now`: run the transport timers into
    /// `actions`. False (nothing run) if an earlier request superseded
    /// the event. Apply the actions, then call [`Host::rearm_wake`].
    pub(crate) fn on_wake(&mut self, now: Time, actions: &mut Vec<TransportAction>) -> bool {
        if self.wake_at != Some(now) {
            return false;
        }
        self.wake_at = None;
        if let Some(t) = self.tcp_tx.as_mut() {
            t.on_timer_into(now, actions);
        }
        if let Some(r) = self.rdma_tx.as_mut() {
            r.on_timer_into(now, actions);
        }
        true
    }

    /// The instant to file the next wake at, unless the timers that
    /// just ran already requested one or nothing is outstanding.
    pub(crate) fn rearm_wake(&mut self, now: Time) -> Option<Time> {
        let tcp = self.tcp_tx.as_ref().and_then(|t| t.next_deadline());
        let rdma = self.rdma_tx.as_ref().and_then(|r| r.next_deadline());
        let at = tcp
            .into_iter()
            .chain(rdma)
            .min()
            .unwrap_or(self.wake_latest);
        (self.wake_at.is_none() && at > now).then(|| {
            self.wake_at = Some(at);
            at
        })
    }

    /// A frame reached this host: feed the endpoint it belongs to,
    /// collecting what the sender wants done in `actions`. Returns the
    /// receiver's reply (an ACK), if any.
    pub(crate) fn on_frame(
        &mut self,
        pkt: &Packet,
        now: Time,
        actions: &mut Vec<TransportAction>,
    ) -> Option<Packet> {
        let mut reply = None;
        let mut rx_bytes: u64 = 0;
        match &pkt.payload {
            Payload::Tcp(seg) => {
                if seg.payload_len > 0 {
                    // Data segment → receiver. Stale segments from an
                    // earlier trial carry an older flow id: dropped.
                    if let Some(rx) = self.tcp_rx.as_mut() {
                        if rx.flow() == seg.flow {
                            rx_bytes = seg.payload_len as u64;
                            reply = Some(rx.on_data(seg, pkt.ecn, now));
                        }
                    }
                } else if let Some(tx) = self.tcp_tx.as_mut() {
                    if tx.flow() == seg.flow {
                        tx.on_ack_into(seg, now, actions);
                    }
                }
            }
            Payload::Rdma(seg) => {
                if let Some(rx) = self.rdma_rx.as_mut() {
                    if rx.flow() == seg.flow {
                        rx_bytes = seg.payload_len as u64;
                        reply = rx.on_data(seg, now);
                    }
                }
            }
            Payload::RdmaAck(ack) => {
                // A straggler ACK/NAK from an earlier trial must not
                // touch the current queue pair's window.
                if let Some(tx) = self.rdma_tx.as_mut() {
                    if tx.flow() == ack.flow {
                        tx.on_ack_into(ack, now, actions);
                    }
                }
            }
            Payload::Udp(_) | Payload::Raw => {
                self.stress_rx_frames += 1;
                self.stress_rx_wire_bytes += pkt.wire_len() as u64;
                rx_bytes = pkt.payload_len() as u64;
            }
            Payload::Lg(_) => {}
        }
        self.payload_rx_bytes += rx_bytes;
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(NodeId(0))
    }

    fn sender(msg_len: u32) -> TcpSender {
        let cfg = TcpConfig::default();
        TcpSender::new(
            cfg,
            CcVariant::Dctcp,
            FlowId(1),
            NodeId(0),
            NodeId(1),
            msg_len,
        )
    }

    /// File the wakes `actions` ask for, as the loops do; returns the
    /// instants that needed an event.
    fn request_all(h: &mut Host, actions: &[TransportAction]) -> Vec<Time> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::WakeAt { deadline } => Some(*deadline),
                _ => None,
            })
            .filter(|&at| h.request_wake(at))
            .collect()
    }

    #[test]
    fn a_sooner_deadline_armed_later_supersedes_the_pending_wake() {
        let mut h = host();
        let mut actions = Vec::new();
        let (rto, later_rto, tlp) = (Time::from_ms(1), Time::from_ms(2), Time::from_us(100));
        assert!(h.request_wake(rto), "first deadline: needs its event");
        assert!(!h.request_wake(later_rto), "later than pending: no event");
        assert!(
            h.request_wake(tlp),
            "a TLP sooner than the pending RTO wake"
        );
        // the TLP wake is the live one ...
        assert!(h.on_wake(tlp, &mut actions));
        assert_eq!(h.rearm_wake(tlp), Some(later_rto), "latest request kept");
        // ... and the RTO event it superseded pops as a no-op
        assert!(!h.on_wake(rto, &mut actions));
        assert!(h.on_wake(later_rto, &mut actions));
        assert_eq!(h.rearm_wake(later_rto), None, "nothing outstanding");
        assert!(actions.is_empty(), "no transport: nothing to do");
    }

    #[test]
    fn a_wake_between_trials_re_arms_from_the_next_senders_deadline() {
        let mut h = host();
        let mut actions = Vec::new();
        let first = Time::from_us(50);
        assert!(h.request_wake(first));
        // trial over (`tcp_tx == None`) when the wake fires: a no-op
        assert!(h.on_wake(first, &mut actions));
        assert!(actions.is_empty());
        assert_eq!(h.rearm_wake(first), None);
        // the next trial's timer is later than anything pending
        let mut tx = sender(24_387);
        tx.start_into(first, &mut actions);
        let deadline = tx.next_deadline().expect("RTO armed at start");
        h.tcp_tx = Some(tx);
        assert_eq!(request_all(&mut h, &actions), vec![deadline]);
        // an early (spurious) live wake re-arms at the armed deadline
        h.wake_at = Some(first + Duration::from_us(1));
        actions.clear();
        assert!(h.on_wake(first + Duration::from_us(1), &mut actions));
        assert!(actions.is_empty(), "deadline not reached: no-op");
        assert_eq!(h.rearm_wake(first + Duration::from_us(1)), Some(deadline));
    }

    #[test]
    fn a_wake_finding_no_timer_armed_arms_one() {
        // `rto_at == tlp_at == None` on a live sender: the spurious-wake
        // branch of `on_timer_into` arms the RTO, and the request it
        // emits is what re-arms the host (not `rearm_wake`).
        let mut h = host();
        h.tcp_tx = Some(sender(24_387));
        assert_eq!(h.tcp_tx.as_ref().unwrap().next_deadline(), None);
        let now = Time::from_us(10);
        assert!(h.request_wake(now));
        let mut actions = Vec::new();
        assert!(h.on_wake(now, &mut actions));
        let armed = h.tcp_tx.as_ref().unwrap().next_deadline();
        assert!(armed.is_some_and(|d| d > now));
        assert_eq!(request_all(&mut h, &actions), vec![armed.unwrap()]);
        assert_eq!(h.rearm_wake(now), None, "the request already re-armed");
    }
}
