//! The LinkGuardian rules at one link-facing switch port, shared by both
//! testbed loops.
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
//! The rules here are the same for every port of either loop; a loop
//! supplies only its topology and its event enum through [`PortLoop`].

use lg_link::LinkSpeed;
use lg_packet::{PacketPool, PktId};
use lg_sim::{Duration, Time};
use lg_switch::{Class, PortId, Switch};
use linkguardian::{LgReceiver, LgSender, ReceiverAction, SenderAction};

use crate::host::DUMMY_REFRESH;

/// RX MAC absorbs a PFC frame and applies it after the MAC/scheduler
/// processing delay; with the reverse-path latency this reproduces the
/// paper's measured tflight_resume of 1.6-1.9 us (Appendix B.1).
const PAUSE_APPLY: Duration = Duration::from_ns(1_100);

/// One link-facing port, borrowed from its loop.
pub(crate) struct LgPort<'a> {
    /// The switch the port belongs to.
    pub sw: &'a mut Switch,
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

/// What the port rules schedule for a port; each loop maps it onto an
/// event of its own and hands it back to the matching function here
/// ([`enqueue`], [`tx_done`], [`timeout`], ...) when it is due.
#[derive(Clone, Copy)]
pub(crate) enum PortEv {
    /// The frame reaches the port's egress queue (post-pipeline).
    Enqueue {
        /// Traffic class.
        class: Class,
        /// The frame.
        id: PktId,
    },
    /// The frame finished serializing out of the port.
    TxDone(PktId),
    /// The port receiver's ackNoTimeout of the given stall generation.
    Timeout(u64),
    /// Timer-packet evaluation of the port receiver's backpressure state.
    BpTimer,
    /// PFC pause (true) or resume reaches the port's normal queue.
    Pause(bool),
    /// Re-offer the port sender's dummies while data is unACKed (paced
    /// stand-in for the continuously self-replenishing dummy queue).
    DummyRefresh,
}

/// A testbed loop as the port rules see it: where the halves sit, where
/// a frame goes next, and how a [`PortEv`] becomes one of its events.
pub(crate) trait PortLoop {
    /// Names one link-facing port of the loop.
    type Port: Copy;
    /// Borrow the port, its halves, the packet pool and the buffers.
    fn lg_port(&mut self, at: Self::Port) -> LgPort<'_>;
    /// Route a tenant frame that arrived through `from` onward.
    fn route(&mut self, from: Self::Port, id: PktId, now: Time);
    /// A frame finished serializing out of `from`: put it on the wire.
    fn depart(&mut self, from: Self::Port, id: PktId, now: Time);
    /// Schedule `ev` for port `at` at instant `t`.
    fn schedule(&mut self, t: Time, at: Self::Port, ev: PortEv);
}

/// A frame reaches port `at`'s egress queue.
pub(crate) fn enqueue<L: PortLoop>(w: &mut L, at: L::Port, class: Class, id: PktId, now: Time) {
    let p = w.lg_port(at);
    p.sw.enqueue(p.port, class, id, p.pool);
    kick(w, at, now);
}

/// The frame serializing out of port `at` is done: put it on the wire
/// and start the next.
pub(crate) fn tx_done<L: PortLoop>(w: &mut L, at: L::Port, id: PktId, now: Time) {
    let p = w.lg_port(at);
    let flen = p.pool.get(id).frame_len();
    p.sw.port_mut(p.port).busy = false;
    p.sw.tx_complete(p.port, flen);
    w.depart(at, id, now);
    kick(w, at, now);
}

/// The ackNoTimeout of stall `generation` at port `at`'s receiver.
pub(crate) fn timeout<L: PortLoop>(w: &mut L, at: L::Port, generation: u64, now: Time) {
    receive(w, at, now, |rx, pool, out| {
        rx.on_timeout(generation, now, pool, out)
    });
}

/// A timer packet re-evaluates port `at`'s receiver backpressure state.
pub(crate) fn bp_timer<L: PortLoop>(w: &mut L, at: L::Port, now: Time) {
    receive(w, at, now, |rx, pool, out| rx.on_bp_timer(now, pool, out));
}

/// A PFC pause (true) or resume reaches port `at`'s normal queue.
pub(crate) fn pause<L: PortLoop>(w: &mut L, at: L::Port, pause: bool, now: Time) {
    let p = w.lg_port(at);
    p.sw.port_mut(p.port).set_paused(Class::Normal, pause);
    kick(w, at, now);
}

/// The dummy refresh armed for port `at`'s sender fires.
pub(crate) fn dummy_refresh<L: PortLoop>(w: &mut L, at: L::Port, now: Time) {
    if let Some((_, armed)) = w.lg_port(at).tx {
        *armed = false;
    }
    kick(w, at, now);
}

/// A frame arrived over the link at port `at`: count it, hand it to the
/// port's receiver, pass the receiver's in-order deliveries to the
/// port's sender (ACK, notification and pause absorption), and route
/// whatever survives onward. Without a receiver the frame goes straight
/// to the sender; with neither half it is routed.
pub(crate) fn ingress<L: PortLoop>(w: &mut L, at: L::Port, id: PktId, now: Time) {
    let p = w.lg_port(at);
    let flen = p.pool.get(id).frame_len();
    p.sw.rx_ok(p.port, flen);
    if p.rx.is_none() {
        return sender_rx(w, at, id, now);
    }
    receive(w, at, now, |rx, pool, out| {
        rx.on_protected_rx(id, now, pool, out)
    });
}

/// Start serializing the next eligible frame on port `at`, engaging the
/// idle fillers when the port runs dry.
pub(crate) fn kick<L: PortLoop>(w: &mut L, at: L::Port, now: Time) {
    let (next, refresh) = w.lg_port(at).next_frame(now);
    if refresh {
        w.schedule(now + DUMMY_REFRESH, at, PortEv::DummyRefresh);
    }
    if let Some((id, ser)) = next {
        w.schedule(now + ser, at, PortEv::TxDone(id));
    }
}

impl LgPort<'_> {
    /// Dequeue and stamp the port's next frame and mark the port busy;
    /// returns the frame with its serialization time, and whether the
    /// sender's dummy refresh must be armed.
    fn next_frame(self, now: Time) -> (Option<(PktId, Duration)>, bool) {
        let LgPort {
            sw,
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
        return w.route(at, id, now);
    };
    let pipeline = p.sw.pipeline_latency;
    let mut actions = std::mem::take(&mut p.scratch.tx);
    if let Some(id) = s.on_reverse_rx(id, now, p.pool, &mut actions) {
        w.route(at, id, now);
    }
    for &a in &actions {
        match a {
            // retransmitted copies re-enter the port's egress queue
            SenderAction::Emit { id, class, delay } => {
                w.schedule(now + (delay + pipeline), at, PortEv::Enqueue { class, id })
            }
            SenderAction::PauseNormal(pause) => {
                w.schedule(now + PAUSE_APPLY, at, PortEv::Pause(pause))
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
            } => w.schedule(deadline.max(now), at, PortEv::Timeout(generation)),
            ReceiverAction::ArmBpTimer { at: t } => w.schedule(t.max(now), at, PortEv::BpTimer),
        }
    }
    actions.clear();
    w.lg_port(at).scratch.rx = actions;
    // The receiver may now owe an explicit ACK; if the port is idle, the
    // self-replenishing ACK queue must transmit it.
    kick(w, at, now);
}
