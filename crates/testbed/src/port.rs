//! The one event path of both testbed loops: their event enum, its
//! dispatcher, the LinkGuardian rules at a link-facing switch port, and
//! the routing of a frame over a link or to a host.
//!
//! A link-facing port hosts at most two LinkGuardian halves: the sender
//! of the direction that leaves through it and the receiver of the
//! direction that arrives through it. In [`crate::World`] the Tx
//! switch's port holds the forward sender and, bidirectionally, the
//! reverse receiver; the Rx switch's holds the forward receiver and the
//! reverse sender. In [`crate::ChainWorld`] a hop's sender sits on its
//! upstream switch's right port and its receiver on the downstream
//! switch's left port. An unprotected link keeps an inactive pair,
//! which passes every frame through untouched — "LinkGuardian operates
//! on each link independently" (§5), so a one-link chain is the
//! two-switch testbed, bit for bit (`tests/multi_hop.rs`).
//!
//! Everything here is the same for either loop. A loop answers only
//! topology questions through [`PortLoop`] — which halves sit at a port,
//! which link leaves it and to which peer, where a frame leaves the
//! switch it arrived at, which host a port faces — and lends its queue,
//! pool, hosts and trial driver. What only [`crate::World`] does (the
//! stress generator, probes, kept traces, its control events) it does
//! in the hooks the trait names.

use lg_link::{LinkDirection, LinkSpeed, LossModel};
use lg_obs::lg_trace;
use lg_obs::trace::{Comp, Kind, Level};
use lg_packet::lg::LgPacketType;
use lg_packet::{LgControl, Packet, PacketPool, Payload, PktId};
use lg_sim::{Duration, EventQueue, Time};
use lg_switch::{Class, PortId, SerialLink, Switch};
use lg_workload::FctCollector;
use linkguardian::{LgReceiver, LgSender, ReceiverAction, SenderAction};

use crate::host::{self, Host, Trials, DUMMY_REFRESH, HOST_HOP};
use crate::world::Side;

/// RX MAC absorbs a PFC frame and applies it after the MAC/scheduler
/// processing delay; with the reverse-path latency this reproduces the
/// paper's measured tflight_resume of 1.6-1.9 us (Appendix B.1).
const PAUSE_APPLY: Duration = Duration::from_ns(1_100);

/// Events of a testbed loop whose link-facing ports are named by `P`:
/// a [`Side`] in [`crate::World`], `(switch, port)` in
/// [`crate::ChainWorld`].
///
/// Packet-carrying variants hold a [`PktId`] pool handle (8 bytes), not an
/// owned [`Packet`]; the event that holds the handle owns its pool
/// reference. `size_of::<Ev<_>>()` is bounded by a regression test so the
/// timer-wheel entries stay cache-compact.
#[derive(Debug)]
pub enum Ev<P = Side> {
    /// A packet enters a link port's egress queue (after pipeline
    /// traversal).
    PortEnqueue {
        /// The port.
        at: P,
        /// Traffic class.
        class: Class,
        /// The packet.
        id: PktId,
    },
    /// A frame finished serializing out of a link port.
    PortTxDone {
        /// The port.
        at: P,
        /// The frame that completed.
        id: PktId,
    },
    /// A frame fully arrived at a link port over its link (the host
    /// links are computed and deliver straight to hosts).
    WireArrive {
        /// The port it arrived at.
        at: P,
        /// The frame.
        id: PktId,
    },
    /// A frame fully arrived at a host NIC (stack delay included).
    HostArrive {
        /// Host index (0 or 1).
        host: usize,
        /// The frame.
        id: PktId,
    },
    /// Transport timer wake-up.
    HostWake {
        /// Host index.
        host: usize,
    },
    /// LinkGuardian receiver ackNoTimeout.
    LgTimeout {
        /// Stall generation.
        generation: u64,
        /// The port hosting the receiver.
        at: P,
    },
    /// Timer-packet evaluation of the backpressure state while paused.
    LgBpTimer {
        /// The port hosting the receiver.
        at: P,
    },
    /// PFC pause/resume takes effect at the sender's normal queue.
    PauseApply {
        /// Pause or resume.
        pause: bool,
        /// The port hosting the sender.
        at: P,
    },
    /// Re-offer a dummy while data is unACKed (paced stand-in for the
    /// continuously self-replenishing dummy queue).
    DummyRefresh {
        /// The port hosting the sender.
        at: P,
    },
    /// Activate LinkGuardian on the corrupting link.
    ActivateLg,
    /// Change the forward loss model (the "VOA knob"). Boxed: this rare
    /// control event must not widen the hot packet events.
    SetLoss(Box<LossModel>),
    /// Periodic probe sample.
    Sample,
    /// Start the next trial.
    TrialStart,
}

/// The kinds [`crate::World`] profiles its events by.
impl Ev {
    /// Number of event kinds (sizes the profile's per-kind arrays).
    pub const N_KINDS: usize = 14;

    /// Kind names indexed by [`Ev::kind_idx`]. Slot 4 is the retired
    /// NIC-completion event: no variant maps to it, the frozen `perf/`
    /// schema still looks the name up.
    pub const KIND_NAMES: [&'static str; Ev::N_KINDS] = [
        "port_enqueue",
        "port_tx_done",
        "wire_arrive",
        "host_arrive",
        "host_tx_done",
        "host_wake",
        "lg_timeout",
        "lg_bp_timer",
        "pause_apply",
        "dummy_refresh",
        "activate_lg",
        "set_loss",
        "sample",
        "trial_start",
    ];
}

impl<P> Ev<P> {
    /// Stable index of this event's kind (for per-kind profiling).
    pub fn kind_idx(&self) -> usize {
        match self {
            Ev::PortEnqueue { .. } => 0,
            Ev::PortTxDone { .. } => 1,
            Ev::WireArrive { .. } => 2,
            Ev::HostArrive { .. } => 3,
            Ev::HostWake { .. } => 5,
            Ev::LgTimeout { .. } => 6,
            Ev::LgBpTimer { .. } => 7,
            Ev::PauseApply { .. } => 8,
            Ev::DummyRefresh { .. } => 9,
            Ev::ActivateLg => 10,
            Ev::SetLoss(_) => 11,
            Ev::Sample => 12,
            Ev::TrialStart => 13,
        }
    }
}

/// One link-facing port, borrowed from its loop.
pub(crate) struct LgPort<'a> {
    /// The switch the port belongs to.
    pub sw: &'a mut Switch,
    /// The switch's index in its loop (labels trace rows).
    pub index: usize,
    /// The port's index on `sw`.
    pub port: PortId,
    /// The sender of the direction leaving through the port, with the
    /// flag that says a dummy refresh is pending for it.
    pub tx: Option<(&'a mut LgSender, &'a mut bool)>,
    /// The receiver of the direction arriving through the port.
    pub rx: Option<&'a mut LgReceiver>,
    /// True when the sender belongs to the outer tunnel (the forward
    /// instance), whose idle filler goes first.
    pub tx_first: bool,
    /// Line rate of the link.
    pub speed: LinkSpeed,
    /// The loop's packet pool.
    pub pool: &'a mut PacketPool,
    /// The loop's action buffers.
    pub scratch: &'a mut PortScratch,
}

/// Reusable action buffers (taken around each use) so the steady-state
/// event loop performs no per-packet allocation.
#[derive(Default)]
pub(crate) struct PortScratch {
    rx: Vec<ReceiverAction>,
    tx: Vec<SenderAction>,
    filler: Vec<PktId>,
}

/// What the host, transport and trial code works on, borrowed from its
/// loop.
pub(crate) struct Parts<'a, P> {
    /// The loop's event queue.
    pub q: &'a mut EventQueue<Ev<P>>,
    /// The loop's packet pool.
    pub pool: &'a mut PacketPool,
    /// Line rate of every link.
    pub speed: LinkSpeed,
    /// Hosts 0 (sender side) and 1 (receiver side).
    pub hosts: &'a mut [Host],
    /// The trial driver.
    pub trials: &'a mut Trials,
    /// Completed-trial FCTs.
    pub fct: &'a mut FctCollector,
    /// TCP segments sent again by either host's transport.
    pub e2e_retx: &'a mut u64,
}

/// Where a tenant frame leaves the switch it arrived at.
pub(crate) enum Exit<P> {
    /// By a link port, through its egress queue.
    Link(P),
    /// By the computed port facing this host.
    Host(usize),
}

/// A testbed loop as the shared event path sees it: its topology, the
/// parts it lends, and the hooks where [`crate::World`] does what only
/// it does (the defaults of the four data-path hooks do nothing).
pub(crate) trait PortLoop {
    /// Names one link-facing port of the loop.
    type Port: Copy + std::fmt::Debug;
    /// Borrow the port, its halves, the packet pool and the buffers.
    fn lg_port(&mut self, at: Self::Port) -> LgPort<'_>;
    /// Borrow the queue, pool, hosts and trial driver.
    fn parts(&mut self) -> Parts<'_, Self::Port>;
    /// The link leaving `from`, its trace label and the port at its far
    /// end. A link's two directions are labelled `2i` and `2i + 1`.
    fn link(&mut self, from: Self::Port) -> (&mut LinkDirection, usize, Self::Port);
    /// Where a tenant frame that arrived through `from` leaves its switch.
    fn exit(&self, from: Self::Port) -> Exit<Self::Port>;
    /// The link port host `host`'s frames leave its switch by.
    fn uplink(&self, host: usize) -> Self::Port;
    /// The switch host `host` hangs off, its port facing the host, that
    /// port computed, and the packet pool.
    fn host_port(&mut self, host: usize)
        -> (&mut Switch, PortId, &mut SerialLink, &mut PacketPool);
    /// A frame left port `from` for its link.
    fn departed(&mut self, _from: Self::Port) {}
    /// Host `host` consumed a frame carrying `bytes` of payload.
    fn host_rx(&mut self, _host: usize, _bytes: u64, _now: Time) {}
    /// A trial is due at `now`: the instant it starts at, later if the
    /// loop computed the trials before it.
    fn trial_start(&mut self, now: Time) -> Time {
        now
    }
    /// Host `host`'s trial completed; its transports are still in place.
    fn trial_done(&mut self, _host: usize) {}
    /// An event no port, host or trial handles: `ActivateLg`, `SetLoss`
    /// or `Sample`. A loop that schedules none keeps the default.
    fn control(&mut self, ev: Ev<Self::Port>, _now: Time) {
        unreachable!("no control events: {ev:?}");
    }
}

/// Bring the host-facing ports' counters (and queue depth) to what
/// they read once every event at or before `upto` has run: a computed
/// hop has no completion event to count a frame at.
pub(crate) fn settle_host_ports<L: PortLoop>(w: &mut L, upto: Time) {
    for host in 0..2 {
        let (sw, port, link, _) = w.host_port(host);
        link.settle(upto, sw.counters_mut(port));
    }
}

/// Dispatch one event of loop `w` due at `now`.
pub(crate) fn handle<L: PortLoop>(w: &mut L, ev: Ev<L::Port>, now: Time) {
    match ev {
        Ev::PortEnqueue { at, class, id } => {
            let p = w.lg_port(at);
            p.sw.enqueue(p.port, class, id, p.pool);
            kick(w, at, now);
        }
        Ev::PortTxDone { at, id } => tx_done(w, at, id, now),
        Ev::WireArrive { at, id } => ingress(w, at, id, now),
        Ev::HostArrive { host, id } => host::arrive(w, host, id, now),
        Ev::HostWake { host } => host::wake(w, host, now),
        Ev::LgTimeout { generation, at } => receive(w, at, now, |rx, pool, out| {
            rx.on_timeout(generation, now, pool, out)
        }),
        Ev::LgBpTimer { at } => receive(w, at, now, |rx, pool, out| rx.on_bp_timer(now, pool, out)),
        Ev::PauseApply { pause, at } => {
            let p = w.lg_port(at);
            lg_trace!(
                Level::Ctl,
                Comp::Port,
                Kind::PauseApply,
                p.index,
                now.as_ps(),
                0u64,
                0u64,
                pause as u32
            );
            p.sw.port_mut(p.port).set_paused(Class::Normal, pause);
            kick(w, at, now);
        }
        Ev::DummyRefresh { at } => {
            if let Some((_, armed)) = w.lg_port(at).tx {
                *armed = false;
            }
            kick(w, at, now);
        }
        Ev::TrialStart => {
            let now = w.trial_start(now);
            host::start_trial(w, now);
        }
        Ev::ActivateLg | Ev::SetLoss(_) | Ev::Sample => w.control(ev, now),
    }
}

/// Schedule `ev` on loop `w`'s queue at `t`.
fn schedule<L: PortLoop>(w: &mut L, t: Time, ev: Ev<L::Port>) {
    w.parts().q.schedule_at(t, ev);
}

/// The LinkGuardian sequence a frame carries, 0 without one (trace rows).
fn lg_seq(pkt: &Packet) -> u64 {
    pkt.lg_data.map_or(0, |d| d.seq.raw() as u64)
}

/// The frame serializing out of port `at` is done: count what the port
/// sent, put the frame on the link, and start the next. The link either
/// delivers the frame to the far port after its propagation delay or
/// corrupts it; a corrupted frame's pool reference dies at the far MAC
/// (the sender's Tx-buffer reference, if any, keeps the slot alive).
fn tx_done<L: PortLoop>(w: &mut L, at: L::Port, id: PktId, now: Time) {
    let p = w.lg_port(at);
    let pkt = p.pool.get(id);
    lg_trace!(
        Level::Pkt,
        Comp::Port,
        Kind::TxDone,
        // every switch has two ports: 0 and 2 are `World`'s link ports
        p.index * 2 + p.port,
        now.as_ps(),
        pkt.uid,
        lg_seq(pkt),
        id.index()
    );
    if pkt
        .lg_data
        .is_some_and(|d| d.kind == LgPacketType::Retransmit)
    {
        p.sw.note_lg_retx(p.port);
    }
    if matches!(pkt.payload, Payload::Lg(LgControl::Pause(_))) {
        p.sw.note_pause_tx(p.port);
    }
    let flen = pkt.frame_len();
    p.sw.port_mut(p.port).busy = false;
    p.sw.tx_complete(p.port, flen);
    let (link, label, peer) = w.link(at);
    if link.deliver() {
        let arrive = now + link.propagation();
        schedule(w, arrive, Ev::WireArrive { at: peer, id });
    } else {
        let p = w.lg_port(peer);
        let pkt = p.pool.get(id);
        lg_trace!(
            Level::Pkt,
            Comp::Link,
            Kind::CorruptDrop,
            label,
            now.as_ps(),
            pkt.uid,
            lg_seq(pkt),
            id.index()
        );
        p.sw.rx_corrupt(p.port);
        p.pool.release(id);
    }
    w.departed(at);
    kick(w, at, now);
}

/// A frame arrived over the link at port `at`: count it, hand it to the
/// port's receiver, pass the receiver's in-order deliveries to the
/// port's sender (ACK, notification and pause absorption), and route
/// whatever survives onward. Without a receiver the frame goes straight
/// to the sender; with neither half it is routed. Kept out of line: the
/// inlined copy made the dispatcher's frame heavier for every event kind
/// (`testbed_fct` ran ≈3 % slower).
#[inline(never)]
fn ingress<L: PortLoop>(w: &mut L, at: L::Port, id: PktId, now: Time) {
    // the direction arriving at `at` is the twin of the one leaving it
    let label = w.link(at).1 ^ 1;
    let p = w.lg_port(at);
    let pkt = p.pool.get(id);
    lg_trace!(
        Level::Pkt,
        Comp::Link,
        Kind::WireRx,
        label,
        now.as_ps(),
        pkt.uid,
        lg_seq(pkt),
        id.index()
    );
    if matches!(pkt.payload, Payload::Lg(LgControl::Pause(_))) {
        p.sw.note_pause_rx(p.port);
    }
    let flen = pkt.frame_len();
    p.sw.rx_ok(p.port, flen);
    if p.rx.is_none() {
        return sender_rx(w, at, id, now);
    }
    receive(w, at, now, |rx, pool, out| {
        rx.on_protected_rx(id, now, pool, out)
    });
}

/// Send a tenant frame that arrived through `from` through its switch's
/// pipeline to the port it leaves by: a link port's egress queue, or the
/// computed port facing a host, whose one `HostArrive` ends the hop.
fn route<L: PortLoop>(w: &mut L, from: L::Port, id: PktId, now: Time) {
    match w.exit(from) {
        Exit::Link(out) => {
            let arrive = now + w.lg_port(from).sw.pipeline_latency;
            let class = Class::Normal;
            schedule(w, arrive, Ev::PortEnqueue { at: out, class, id });
        }
        Exit::Host(host) => {
            let p = w.parts();
            let ser = p.speed.serialize(p.pool.get(id).wire_len());
            let (sw, port, link, pool) = w.host_port(host);
            debug_assert_eq!(sw.route(pool.get(id).dst), Some(port), "no hairpin route");
            let arrive = now + sw.pipeline_latency;
            let counters = sw.counters_mut(port);
            if let Some(done) = link.enqueue(now, arrive, ser, id, pool, counters) {
                schedule(w, done + HOST_HOP, Ev::HostArrive { host, id });
            }
        }
    }
}

/// Start serializing the next eligible frame on port `at`, engaging the
/// idle fillers when the port runs dry.
pub(crate) fn kick<L: PortLoop>(w: &mut L, at: L::Port, now: Time) {
    let (next, refresh) = w.lg_port(at).next_frame(now);
    if refresh {
        schedule(w, now + DUMMY_REFRESH, Ev::DummyRefresh { at });
    }
    if let Some((id, ser)) = next {
        schedule(w, now + ser, Ev::PortTxDone { at, id });
    }
}

impl LgPort<'_> {
    /// Dequeue and stamp the port's next frame and mark the port busy;
    /// returns the frame with its serialization time, and whether the
    /// sender's dummy refresh must be armed.
    fn next_frame(self, now: Time) -> (Option<(PktId, Duration)>, bool) {
        let LgPort {
            sw,
            index: _,
            port,
            mut tx,
            mut rx,
            tx_first,
            speed,
            pool,
            scratch,
        } = self;
        if sw.port(port).busy {
            return (None, false);
        }
        let mut refresh = false;
        let mut next = sw.dequeue(port);
        if next.is_none() {
            let filler = &mut scratch.filler;
            // Self-replenishing strictly-low-priority queues (Fig 5):
            // the sender's dummies and the receiver's explicit ACKs, the
            // outer tunnel's first.
            for dummies in [tx_first, !tx_first] {
                match (dummies, &mut tx, &mut rx) {
                    (true, Some((s, _)), _) => s.make_dummies(now, pool, filler),
                    (false, _, Some(r)) => r.make_explicit_acks(now, pool, filler),
                    _ => {}
                }
            }
            if let Some((s, armed)) = &mut tx {
                if s.has_unacked() && s.config().dummy_copies > 0 && !**armed {
                    **armed = true;
                    refresh = true;
                }
            }
            let got = !filler.is_empty();
            for f in filler.drain(..) {
                sw.enqueue(port, Class::Low, f, pool);
            }
            if got {
                next = sw.dequeue(port);
            }
        }
        let Some((_class, mut id)) = next else {
            return (None, refresh);
        };
        // Egress hooks: piggyback the arriving direction's ACK first so
        // it rides inside the leaving direction's protection, then stamp.
        // Each hook copies-on-write, so a retransmit copy sharing its
        // buffer with the Tx mirror never mutates the shared slot.
        if pool.get(id).lg_ack.is_none() {
            if let Some(r) = rx {
                id = r.stamp_ack(id, pool);
            }
        }
        if let Some((s, _)) = tx {
            id = s.on_transmit(id, now, pool);
        }
        sw.port_mut(port).busy = true;
        let ser = speed.serialize(pool.get(id).wire_len());
        (Some((id, ser)), refresh)
    }
}

/// Hand a frame at port `at` to the port's sender and route whatever
/// survives onward.
fn sender_rx<L: PortLoop>(w: &mut L, at: L::Port, id: PktId, now: Time) {
    let p = w.lg_port(at);
    let Some((s, _)) = p.tx else {
        return route(w, at, id, now);
    };
    let pipeline = p.sw.pipeline_latency;
    let mut actions = std::mem::take(&mut p.scratch.tx);
    if let Some(id) = s.on_reverse_rx(id, now, p.pool, &mut actions) {
        route(w, at, id, now);
    }
    for &a in &actions {
        match a {
            // retransmitted copies re-enter the port's egress queue
            SenderAction::Emit { id, class, delay } => schedule(
                w,
                now + (delay + pipeline),
                Ev::PortEnqueue { at, class, id },
            ),
            SenderAction::PauseNormal(pause) => {
                schedule(w, now + PAUSE_APPLY, Ev::PauseApply { pause, at })
            }
        }
    }
    actions.clear();
    w.lg_port(at).scratch.tx = actions;
}

/// Feed the receiver at port `at` one input, apply the actions it asks
/// for in order, then kick the port.
fn receive<L: PortLoop>(
    w: &mut L,
    at: L::Port,
    now: Time,
    input: impl FnOnce(&mut LgReceiver, &mut PacketPool, &mut Vec<ReceiverAction>),
) {
    let p = w.lg_port(at);
    let mut actions = std::mem::take(&mut p.scratch.rx);
    if let Some(rx) = p.rx {
        input(rx, p.pool, &mut actions);
    }
    for &a in &actions {
        match a {
            ReceiverAction::Deliver(id) => sender_rx(w, at, id, now),
            ReceiverAction::SendReverse { id, class } => {
                // Ingress-mirrored control (loss notifications, pause
                // frames) reaches the reverse egress queue immediately;
                // enqueueing it before the port is kicked guarantees it
                // beats the self-replenishing explicit-ACK queue, as
                // strict priority does in hardware.
                let p = w.lg_port(at);
                p.sw.enqueue(p.port, class, id, p.pool);
            }
            ReceiverAction::ArmTimeout {
                deadline,
                generation,
            } => schedule(w, deadline.max(now), Ev::LgTimeout { generation, at }),
            ReceiverAction::ArmBpTimer { at: t } => schedule(w, t.max(now), Ev::LgBpTimer { at }),
        }
    }
    actions.clear();
    w.lg_port(at).scratch.rx = actions;
    // The receiver may now owe an explicit ACK; if the port is idle, the
    // self-replenishing ACK queue must transmit it.
    kick(w, at, now);
}
