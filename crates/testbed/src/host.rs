//! An end host of either testbed loop — its NIC, its transport endpoints
//! and the single wake-up their timers share — and the code both loops
//! run for it: frame delivery, the transport actions, the host's sends
//! and the serial trial driver.

use lg_obs::lg_trace;
use lg_obs::trace::{Comp, Kind, Level};
use lg_packet::{FlowId, NodeId, Packet, Payload, PktId};
use lg_sim::{Duration, EventHandle, EventQueue, Time};
use lg_switch::{Class, SerialLink};
use lg_transport::{
    CcVariant, RdmaConfig, RdmaRequester, RdmaResponder, TcpConfig, TcpReceiver, TcpSender,
    TransportAction,
};

use crate::cycle::Hold;
use crate::port::{Ev, PortLoop};
use crate::world::{App, HOST0, HOST1};

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
    /// The one pending wake-up, its instant and its event. Transports
    /// re-arm a ≈1 ms timer on every ACK; a deadline later than the
    /// pending wake needs no event, since a wake that fires early re-arms
    /// from the transports' current deadline, and a sooner one cancels
    /// the pending event and files its own. A series' wake belongs to the
    /// trial that armed it and is cancelled when that trial finishes, so
    /// no trial start finds one pending (DESIGN.md §19).
    wake_at: Option<(Time, EventHandle)>,
    /// Latest deadline ever requested: the wake a series' last trial
    /// files fires there, as the last stale per-ACK wake used to, so a
    /// drained run ends on the same clock.
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

    /// A transport asked to be woken at `at`: file `ev` there, unless
    /// the pending wake is no later, cancelling it if it is.
    pub(crate) fn request_wake<E>(&mut self, at: Time, q: &mut EventQueue<E>, ev: E) {
        self.wake_latest = self.wake_latest.max(at);
        if self.wake_at.is_none_or(|(pending, _)| at < pending) {
            self.cancel_wake(q);
            self.wake_at = Some((at, q.schedule_at(at, ev)));
        }
    }

    /// Cancel the pending wake. A handle `EventQueue::translate` spent
    /// cancels nothing, and its event pops as a no-op ([`Host::on_wake`]).
    fn cancel_wake<E>(&mut self, q: &mut EventQueue<E>) {
        if let Some((_, event)) = self.wake_at.take() {
            q.cancel(event);
        }
    }

    /// A trial of a series finished: its wake goes with it. The `last`
    /// one files `ev` at the latest deadline, where a drained run ends.
    pub(crate) fn retire_wake<E>(&mut self, q: &mut EventQueue<E>, last: bool, ev: E) {
        self.cancel_wake(q);
        if last {
            self.rearm_wake(q.now(), None, q, ev);
        }
    }

    /// A wake event fired at `now`: run the transport timers into
    /// `actions`. False (nothing run) if it is not the pending wake.
    /// Apply the actions, then call [`Host::rearm_wake`].
    pub(crate) fn on_wake(&mut self, now: Time, actions: &mut Vec<TransportAction>) -> bool {
        if self.wake_at.map(|(at, _)| at) != Some(now) {
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

    /// The transports' next timer deadline, if any is armed.
    pub(crate) fn deadline(&self) -> Option<Time> {
        let tcp = self.tcp_tx.as_ref().and_then(|t| t.next_deadline());
        let rdma = self.rdma_tx.as_ref().and_then(|r| r.next_deadline());
        tcp.into_iter().chain(rdma).min()
    }

    /// File `ev` at `deadline`, or else at the latest deadline, unless
    /// the timers that just ran already requested a wake or that instant
    /// is not after `now`.
    pub(crate) fn rearm_wake<E>(
        &mut self,
        now: Time,
        deadline: Option<Time>,
        q: &mut EventQueue<E>,
        ev: E,
    ) {
        let at = deadline.unwrap_or(self.wake_latest);
        if self.wake_at.is_none() && at > now {
            self.wake_at = Some((at, q.schedule_at(at, ev)));
        }
    }

    /// What a repeating trial series must find unchanged at a trial
    /// start, relative to `now`: which transports are in place and the
    /// NIC. The latest deadline goes to `instants`: a batch of trials may
    /// keep it where it is (DESIGN.md §23). No wake is pending there.
    pub(crate) fn shape(&self, now: Time, out: &mut Vec<u64>, instants: &mut Vec<(Time, Hold)>) {
        let held = [
            self.tcp_tx.is_some(),
            self.tcp_spent.is_some(),
            self.tcp_rx.is_some(),
            self.rdma_tx.is_some(),
            self.rdma_rx.is_some(),
        ];
        out.extend(held.map(u64::from));
        self.nic.shape(now, out);
        instants.push((self.wake_latest, Hold::Lapsed));
    }

    /// Move the NIC `d` later, and the latest deadline unless `kept`
    /// (next in the order [`Host::shape`] listed it) says it stays.
    pub(crate) fn advance<'a>(&mut self, d: Duration, kept: &mut impl Iterator<Item = &'a bool>) {
        self.nic.advance(d);
        if !kept.next().expect("marked") {
            self.wake_latest += d;
        }
    }

    /// What the host counts per frame it receives.
    pub(crate) fn counters(&mut self) -> [&mut u64; 3] {
        [
            &mut self.payload_rx_bytes,
            &mut self.stress_rx_frames,
            &mut self.stress_rx_wire_bytes,
        ]
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

/// The serial trial driver of a loop: what each trial runs, how many
/// are left, the next flow id, and the transport action buffer (taken
/// around each transport call, like the port rules' scratch).
pub(crate) struct Trials {
    app: App,
    remaining: u32,
    next_flow: u64,
    scratch: Vec<TransportAction>,
}

impl Trials {
    pub(crate) fn new(app: App) -> Trials {
        let remaining = match app {
            App::TcpTrials { trials, .. } | App::RdmaTrials { trials, .. } => trials,
            App::TcpStream { .. } => u32::MAX,
            App::None => 0,
        };
        Trials {
            app,
            remaining,
            next_flow: 1,
            scratch: Vec::new(),
        }
    }

    /// A serial series of fixed-size trials, which repeat one another.
    pub(crate) fn is_series(&self) -> bool {
        matches!(self.app, App::TcpTrials { .. } | App::RdmaTrials { .. })
    }

    /// Trials not yet finished.
    pub(crate) fn left(&self) -> u32 {
        self.remaining
    }

    /// The flow id of the next trial to start.
    pub(crate) fn next_flow(&self) -> u64 {
        self.next_flow
    }

    /// Account for `k` trials run elsewhere, as if started and finished.
    pub(crate) fn skip(&mut self, k: u32) {
        self.remaining -= k;
        self.next_flow += u64::from(k);
    }
}

/// A frame reached host `host`: the host consumes it (its pool slot is
/// done), replies, and applies what its transport asks for.
pub(crate) fn arrive<L: PortLoop>(w: &mut L, host: usize, id: PktId, now: Time) {
    let p = w.parts();
    let pkt = p.pool.get(id);
    lg_trace!(
        Level::Pkt,
        Comp::Host,
        Kind::HostDeliver,
        host as u16,
        now.as_ps(),
        pkt.uid,
        0u64,
        id.index()
    );
    let mut actions = std::mem::take(&mut p.trials.scratch);
    let bytes = pkt.payload_len() as u64;
    let reply = p.hosts[host].on_frame(pkt, now, &mut actions);
    p.pool.release(id);
    w.host_rx(host, bytes, now);
    if let Some(r) = reply {
        send(w, host, r);
    }
    apply(w, host, &mut actions, now);
    w.parts().trials.scratch = actions;
}

/// Host `host`'s wake event fired: run its transport timers.
pub(crate) fn wake<L: PortLoop>(w: &mut L, host: usize, now: Time) {
    let p = w.parts();
    let mut actions = std::mem::take(&mut p.trials.scratch);
    if p.hosts[host].on_wake(now, &mut actions) {
        apply(w, host, &mut actions, now);
        let p = w.parts();
        let h = &mut p.hosts[host];
        h.rearm_wake(now, h.deadline(), p.q, Ev::HostWake { host });
    }
    w.parts().trials.scratch = actions;
}

fn apply<L: PortLoop>(w: &mut L, host: usize, actions: &mut Vec<TransportAction>, now: Time) {
    for a in actions.drain(..) {
        match a {
            TransportAction::Send(pkt) => {
                if let Payload::Tcp(t) = &pkt.payload {
                    if t.is_retx {
                        *w.parts().e2e_retx += 1;
                        lg_trace!(
                            Level::Ctl,
                            Comp::Transport,
                            Kind::E2eRetx,
                            host as u16,
                            now.as_ps(),
                            pkt.uid,
                            t.seq as u64,
                            0u32
                        );
                    }
                }
                send(w, host, pkt);
            }
            TransportAction::WakeAt { deadline } => {
                let p = w.parts();
                let ev = Ev::HostWake { host };
                p.hosts[host].request_wake(deadline.max(now), p.q, ev);
            }
            TransportAction::Complete {
                started, completed, ..
            } => {
                w.parts().fct.record(completed.saturating_since(started));
                finish_trial(w, host);
            }
        }
    }
}

/// Host-generated packets enter the pool here (the transport state
/// machines build owned `Packet`s; the event loop only moves handles).
/// The frame reaches the switch after stack delay + serialization +
/// propagation, and its egress queue (the uplink) one pipeline later.
fn send<L: PortLoop>(w: &mut L, host: usize, pkt: Packet) {
    let at = w.uplink(host);
    let p = w.lg_port(at);
    debug_assert_eq!(p.sw.route(pkt.dst), Some(p.port), "host {host}'s uplink");
    let pipeline = p.sw.pipeline_latency;
    let p = w.parts();
    let ser = p.speed.serialize(pkt.wire_len());
    let id = p.pool.insert(pkt);
    let sent = p.hosts[host].nic.depart(p.q.now(), ser);
    let class = Class::Normal;
    let ev = Ev::PortEnqueue { at, class, id };
    p.q.schedule_at(sent + HOST_HOP + pipeline, ev);
}

/// Start the next trial: host0 sends one message to host1.
pub(crate) fn start_trial<L: PortLoop>(w: &mut L, now: Time) {
    let p = w.parts();
    let t = &mut *p.trials;
    if t.remaining == 0 {
        return;
    }
    let flow = FlowId(t.next_flow);
    t.next_flow += 1;
    let mut actions = std::mem::take(&mut t.scratch);
    let hosts = &mut *p.hosts;
    match t.app {
        App::None => {}
        App::TcpStream { end, .. } if now > end => t.remaining = 0,
        App::TcpTrials {
            variant,
            msg_len: len,
            ..
        }
        | App::TcpStream {
            variant,
            chunk: len,
            ..
        } => {
            hosts[1].tcp_rx = Some(TcpReceiver::new(flow, HOST1, HOST0));
            hosts[0].start_tcp(HOST1, flow, variant, len, now, &mut actions);
        }
        App::RdmaTrials {
            msg_len,
            selective_repeat,
            ..
        } => {
            hosts[1].rdma_rx = Some(RdmaResponder::new(flow, HOST1, HOST0, selective_repeat));
            let cfg = RdmaConfig {
                selective_repeat,
                ..RdmaConfig::default()
            };
            let mut tx = RdmaRequester::new(cfg, flow, HOST0, HOST1, msg_len);
            tx.start_into(now, &mut actions);
            hosts[0].rdma_tx = Some(tx);
        }
    }
    apply(w, 0, &mut actions, now);
    w.parts().trials.scratch = actions;
}

fn finish_trial<L: PortLoop>(w: &mut L, host: usize) {
    w.trial_done(host);
    let p = w.parts();
    let h = &mut p.hosts[host];
    if let Some(tx) = h.tcp_tx.take() {
        h.tcp_spent = Some(tx);
    }
    h.rdma_tx = None;
    let t = &mut *p.trials;
    if t.remaining != u32::MAX {
        t.remaining = t.remaining.saturating_sub(1);
        // A stream keeps one wake across its chunks: only the next
        // chunk's start finds that it has ended.
        h.retire_wake(p.q, t.remaining == 0, Ev::HostWake { host });
    }
    if t.remaining > 0 {
        let gap = match t.app {
            App::TcpTrials { gap, .. } | App::RdmaTrials { gap, .. } => gap,
            App::TcpStream { .. } | App::None => Duration::ZERO,
        };
        let at = p.q.now() + gap;
        p.q.schedule_at(at, Ev::TrialStart);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// What a test queue holds: a host's wake, or a tick that moves the
    /// clock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum E {
        Wake,
        Tick,
    }

    /// File the wakes `actions` ask for, as the loops do.
    fn request_all(h: &mut Host, q: &mut EventQueue<E>, actions: &[TransportAction]) {
        for a in actions {
            if let TransportAction::WakeAt { deadline } = *a {
                h.request_wake(deadline.max(q.now()), q, E::Wake);
            }
        }
    }

    /// Pop the next wake, which must be the live one, and run it as the
    /// loops do; returns its instant.
    fn fire(h: &mut Host, q: &mut EventQueue<E>, actions: &mut Vec<TransportAction>) -> Time {
        let (now, e) = q.pop().expect("a wake pending");
        assert_eq!(e, E::Wake);
        assert!(h.on_wake(now, actions), "a stale wake at {now:?}");
        now
    }

    #[test]
    fn a_sooner_deadline_armed_later_cancels_the_pending_wake() {
        let (mut h, mut q) = (host(), EventQueue::new());
        let mut actions = Vec::new();
        let (rto, later_rto, tlp) = (Time::from_ms(1), Time::from_ms(2), Time::from_us(100));
        h.request_wake(rto, &mut q, E::Wake);
        h.request_wake(later_rto, &mut q, E::Wake);
        assert_eq!(q.len(), 1, "later than pending: no event");
        h.request_wake(tlp, &mut q, E::Wake);
        assert_eq!(q.len(), 1, "a sooner TLP replaces the RTO wake");
        assert_eq!(fire(&mut h, &mut q, &mut actions), tlp);
        h.rearm_wake(tlp, h.deadline(), &mut q, E::Wake);
        assert_eq!(fire(&mut h, &mut q, &mut actions), later_rto, "latest kept");
        h.rearm_wake(later_rto, h.deadline(), &mut q, E::Wake);
        assert!(q.is_empty(), "nothing outstanding");
        assert!(actions.is_empty(), "no transport: nothing to do");
    }

    #[test]
    fn a_finished_trial_takes_its_wake_with_it() {
        let (mut h, mut q) = (host(), EventQueue::new());
        let mut actions = Vec::new();
        let first = Time::from_us(50);
        h.request_wake(first, &mut q, E::Wake);
        h.retire_wake(&mut q, false, E::Wake);
        assert!(
            q.is_empty() && h.wake_at.is_none(),
            "no wake outlives its trial"
        );
        // the next trial's first deadline files its own wake
        let mut tx = sender(24_387);
        tx.start_into(first, &mut actions);
        let deadline = tx.next_deadline().expect("RTO armed at start");
        h.tcp_tx = Some(tx);
        request_all(&mut h, &mut q, &actions);
        assert_eq!(h.wake_at.map(|w| w.0), Some(deadline));
        // an early (spurious) wake re-arms at the armed deadline
        let early = first + Duration::from_us(1);
        h.request_wake(early, &mut q, E::Wake);
        actions.clear();
        assert_eq!(fire(&mut h, &mut q, &mut actions), early);
        assert!(actions.is_empty(), "deadline not reached: no-op");
        h.rearm_wake(early, h.deadline(), &mut q, E::Wake);
        assert_eq!(h.wake_at.map(|w| w.0), Some(deadline));
        assert_eq!(q.len(), 1);
        // the series' last trial files the wake a drained run ends on
        h.tcp_tx = None;
        h.retire_wake(&mut q, true, E::Wake);
        assert_eq!(
            h.wake_at.map(|w| w.0),
            Some(deadline),
            "the latest deadline"
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn a_wake_finding_no_timer_armed_arms_one() {
        // `rto_at == tlp_at == None` on a live sender: the spurious-wake
        // branch of `on_timer_into` arms the RTO, and the request it
        // emits is what re-arms the host (not `rearm_wake`).
        let (mut h, mut q) = (host(), EventQueue::new());
        h.tcp_tx = Some(sender(24_387));
        assert_eq!(h.deadline(), None);
        let now = Time::from_us(10);
        h.request_wake(now, &mut q, E::Wake);
        let mut actions = Vec::new();
        assert_eq!(fire(&mut h, &mut q, &mut actions), now);
        let armed = h.deadline();
        assert!(armed.is_some_and(|d| d > now));
        request_all(&mut h, &mut q, &actions);
        assert_eq!(h.wake_at.map(|w| w.0), armed);
        h.rearm_wake(now, h.deadline(), &mut q, E::Wake);
        assert_eq!(q.len(), 1, "the request already re-armed");
    }

    /// One step of a law script, at the script's clock.
    #[derive(Debug, Clone)]
    enum Step {
        /// The transport re-arms its timer this many ps ahead, sooner or
        /// later than before, and asks for a wake there.
        Request(u64),
        /// Time passes: every event due by then runs.
        Pass(u64),
        /// The trial finishes; the next request is the next trial's.
        Finish,
    }

    /// The wake-up of a host as a script drives it.
    trait Wakes {
        fn request(&mut self, at: Time, q: &mut EventQueue<E>);
        fn on_wake(&mut self, now: Time) -> bool;
        fn rearm(&mut self, now: Time, deadline: Option<Time>, q: &mut EventQueue<E>);
        fn finish(&mut self, q: &mut EventQueue<E>, last: bool);
    }

    impl Wakes for Host {
        fn request(&mut self, at: Time, q: &mut EventQueue<E>) {
            self.request_wake(at, q, E::Wake);
        }
        fn on_wake(&mut self, now: Time) -> bool {
            Host::on_wake(self, now, &mut Vec::new())
        }
        fn rearm(&mut self, now: Time, deadline: Option<Time>, q: &mut EventQueue<E>) {
            self.rearm_wake(now, deadline, q, E::Wake);
        }
        fn finish(&mut self, q: &mut EventQueue<E>, last: bool) {
            self.retire_wake(q, last, E::Wake);
        }
    }

    /// The mechanism `Host` replaced: every sooner request files its own
    /// event, a superseded one pops as a no-op, and a finished trial's
    /// wake stays pending into the trials after it.
    #[derive(Default)]
    struct Reference {
        wake_at: Option<Time>,
        wake_latest: Time,
    }

    impl Wakes for Reference {
        fn request(&mut self, at: Time, q: &mut EventQueue<E>) {
            self.wake_latest = self.wake_latest.max(at);
            if self.wake_at.is_none_or(|pending| at < pending) {
                self.wake_at = Some(at);
                q.schedule_at(at, E::Wake);
            }
        }
        fn on_wake(&mut self, now: Time) -> bool {
            let live = self.wake_at == Some(now);
            if live {
                self.wake_at = None;
            }
            live
        }
        fn rearm(&mut self, now: Time, deadline: Option<Time>, q: &mut EventQueue<E>) {
            let at = deadline.unwrap_or(self.wake_latest);
            if self.wake_at.is_none() && at > now {
                self.wake_at = Some(at);
                q.schedule_at(at, E::Wake);
            }
        }
        fn finish(&mut self, _: &mut EventQueue<E>, _: bool) {}
    }

    /// Run `script`, then the series' end and every event left, with a
    /// transport whose one timer is the deadline it last asked for;
    /// returns the instants its timer ran at and the final clock. After
    /// every step `check` sees the host, its queue and whether a trial
    /// just finished.
    fn run<W: Wakes>(
        w: &mut W,
        script: &[Step],
        check: impl Fn(&W, &mut EventQueue<E>, bool),
    ) -> (Vec<Time>, Time) {
        let mut q = EventQueue::new();
        let (mut now, mut due, mut ran) = (Time::ZERO, None, Vec::new());
        let mut pass = |w: &mut W, q: &mut EventQueue<E>, due: &mut Option<Time>, until| {
            while let Some((at, e)) = q.pop_if_before(until) {
                if e == E::Wake && w.on_wake(at) {
                    if due.is_some_and(|d| d <= at) {
                        ran.push(at);
                        *due = None;
                    }
                    w.rearm(at, *due, q);
                }
            }
        };
        for step in script {
            match *step {
                Step::Request(ahead) => {
                    let at = now + Duration::from_ps(ahead);
                    due = Some(at);
                    w.request(at, &mut q);
                }
                Step::Pass(d) => {
                    now += Duration::from_ps(d);
                    q.schedule_at(now, E::Tick);
                    pass(w, &mut q, &mut due, now);
                }
                Step::Finish => {
                    due = None;
                    w.finish(&mut q, false);
                }
            }
            check(w, &mut q, matches!(step, Step::Finish));
        }
        due = None;
        w.finish(&mut q, true);
        check(w, &mut q, false);
        pass(w, &mut q, &mut due, Time::MAX);
        (ran, q.now())
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0..3_000u64).prop_map(Step::Request),
            4 => (0..2_000u64).prop_map(Step::Pass),
            1 => Just(Step::Finish),
        ]
    }

    proptest! {
        /// Cancelling a superseded wake and retiring a finished trial's
        /// runs the timers at the instants the old mechanism did and ends
        /// on its clock; the live wake is the one pending event, and a
        /// finished trial leaves none.
        #[test]
        fn cancelled_wakes_run_the_timers_the_stale_ones_did(
            script in proptest::collection::vec(step(), 1..60),
        ) {
            let live = |h: &Host, q: &mut EventQueue<E>, finished: bool| {
                let mut wakes = 0;
                q.for_each_pending(|_, e| wakes += usize::from(*e == E::Wake));
                assert_eq!(wakes, usize::from(h.wake_at.is_some()), "{:?}", h.wake_at);
                assert!(!finished || wakes == 0, "a finished trial's wake");
            };
            let (ran, end) = run(&mut host(), &script, live);
            let mut old = Reference::default();
            prop_assert_eq!((ran, end), run(&mut old, &script, |_, _, _| {}));
        }
    }
}
