//! A multi-hop testbed: a chain of switches with *multiple corrupting
//! links on one path* (paper §5 "Multiple corrupting links on a path").
//!
//! ```text
//!  host0 ──► sw0 ══link0══► sw1 ══link1══► ... ══► swN-1 ──► host1
//! ```
//!
//! Each switch-to-switch link direction can corrupt independently, and
//! each link can carry its own LinkGuardian instance (sender on the
//! upstream switch, receiver on the downstream one) — LinkGuardian
//! "naturally handles such a scenario since it operates on each link
//! independently" (§5). The paper could not evaluate this for lack of
//! optical hardware; here we can.
//!
//! This module reuses every state machine from the two-switch
//! [`crate::world`] but generalizes the event loop to `N` hops. Only the
//! forward direction is protected (like the main testbed); reverse
//! traffic carries ACKs and LinkGuardian control.

use crate::host::{Host, DUMMY_REFRESH, HOST_HOP};
use lg_link::{LinkConfig, LinkDirection, LinkSpeed, LossModel};
use lg_packet::{FlowId, NodeId, Packet, PacketPool, Payload, PktId};
use lg_sim::{Duration, EventQueue, Rng, Time};
use lg_switch::{Class, PortId, SerialLink, Switch};
use lg_transport::{
    CcVariant, RdmaConfig, RdmaRequester, RdmaResponder, TcpReceiver, TransportAction,
};
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender, ReceiverAction, SenderAction};

/// Toward host0 (decreasing switch index).
pub const PORT_LEFT: PortId = 0;
/// Toward host1 (increasing switch index).
pub const PORT_RIGHT: PortId = 1;

/// Host addresses.
pub const C_HOST0: NodeId = NodeId(0);
/// Receiver-side host.
pub const C_HOST1: NodeId = NodeId(1);

/// Events of the chain world. Packet-carrying variants hold [`PktId`]
/// pool handles, mirroring [`crate::world::Ev`].
#[derive(Debug)]
pub enum CEv {
    /// Enqueue on switch `sw`'s `port` in `class` (post-pipeline).
    PortEnqueue {
        /// Switch index.
        sw: usize,
        /// Egress port.
        port: PortId,
        /// Class.
        class: Class,
        /// Packet.
        id: PktId,
    },
    /// A frame finished serializing out of `sw`'s `port`.
    PortTxDone {
        /// Switch index.
        sw: usize,
        /// Egress port.
        port: PortId,
        /// The frame.
        id: PktId,
    },
    /// A frame arrived at switch `sw` over the link on its `from_right`
    /// side (false = from the left neighbour).
    WireArrive {
        /// Switch index.
        sw: usize,
        /// True when the frame came from the right-hand link.
        from_right: bool,
        /// The frame.
        id: PktId,
    },
    /// A frame arrived at a host.
    HostArrive {
        /// 0 or 1.
        host: usize,
        /// The frame.
        id: PktId,
    },
    /// Transport timer.
    HostWake {
        /// 0 or 1.
        host: usize,
    },
    /// LinkGuardian receiver ackNoTimeout on hop `hop`.
    LgTimeout {
        /// Protected hop index.
        hop: usize,
        /// Stall generation.
        generation: u64,
    },
    /// Backpressure timer-packet evaluation on hop `hop`.
    LgBpTimer {
        /// Protected hop index.
        hop: usize,
    },
    /// PFC pause/resume applies at hop `hop`'s sender queue.
    PauseApply {
        /// Protected hop index.
        hop: usize,
        /// Pause or resume.
        pause: bool,
    },
    /// Dummy keepalive for hop `hop`.
    DummyRefresh {
        /// Protected hop index.
        hop: usize,
    },
    /// Start the next trial.
    TrialStart,
}

/// One protected hop: LinkGuardian pair guarding `links[hop]`'s forward
/// direction (sender on switch `hop`, receiver on switch `hop + 1`).
struct Hop {
    lg_tx: LgSender,
    lg_rx: LgReceiver,
    dummy_refresh_armed: bool,
}

/// Traffic driver for the chain.
#[derive(Debug, Clone)]
pub enum ChainApp {
    /// Serial TCP messages host0 → host1.
    TcpTrials {
        /// CC variant.
        variant: CcVariant,
        /// Message bytes.
        msg_len: u32,
        /// Trials.
        trials: u32,
    },
    /// Serial RDMA WRITEs host0 → host1.
    RdmaTrials {
        /// Message bytes.
        msg_len: u32,
        /// Trials.
        trials: u32,
    },
}

/// Chain configuration.
pub struct ChainConfig {
    /// Link speed everywhere.
    pub speed: LinkSpeed,
    /// Per-hop forward-direction loss models (length = switches − 1).
    pub losses: Vec<LossModel>,
    /// Which hops get a LinkGuardian pair (same length).
    pub protected: Vec<bool>,
    /// Traffic.
    pub app: ChainApp,
    /// Seed.
    pub seed: u64,
}

impl ChainConfig {
    /// Refuse a configuration [`ChainWorld::new`] cannot run.
    pub fn validate(&self) -> Result<(), String> {
        if self.losses.is_empty() || self.protected.len() != self.losses.len() {
            return Err("a chain needs >= 1 link and one `protected` flag per link".into());
        }
        match self.app {
            ChainApp::TcpTrials {
                msg_len, trials, ..
            }
            | ChainApp::RdmaTrials { msg_len, trials } => {
                crate::world::check_trials(msg_len, trials)
            }
        }
    }

    /// A chain with the given per-hop loss models, all protected.
    pub fn protected_chain(speed: LinkSpeed, losses: Vec<LossModel>, app: ChainApp) -> ChainConfig {
        let n = losses.len();
        ChainConfig {
            speed,
            losses,
            protected: vec![true; n],
            app,
            seed: 1,
        }
    }
}

/// The multi-hop world.
pub struct ChainWorld {
    cfg: ChainConfig,
    /// Event queue.
    pub q: EventQueue<CEv>,
    switches: Vec<Switch>,
    /// links[i].0 = forward (sw i → sw i+1), links[i].1 = reverse.
    links: Vec<(LinkDirection, LinkDirection)>,
    hops: Vec<Option<Hop>>,
    /// The edge switches' host-facing ports (index = host), computed
    /// like the NICs rather than simulated (DESIGN.md §19).
    host_ports: [SerialLink; 2],
    hosts: [Host; 2],
    /// Completed-flow FCTs.
    pub fct: FctCollector,
    /// Transport retransmissions observed.
    pub e2e_retx: u64,
    /// Slab pool backing every in-flight packet of the chain.
    pub pool: PacketPool,
    trials_remaining: u32,
    next_flow: u64,
    rx_scratch: Vec<ReceiverAction>,
    tx_scratch: Vec<SenderAction>,
    filler_scratch: Vec<PktId>,
    transport_scratch: Vec<TransportAction>,
}

impl ChainWorld {
    /// Build a chain of `losses.len() + 1` switches.
    pub fn new(cfg: ChainConfig) -> ChainWorld {
        if let Err(msg) = cfg.validate() {
            panic!("invalid ChainConfig: {msg}");
        }
        let n_links = cfg.losses.len();
        let n_sw = n_links + 1;
        let mut rng = Rng::new(cfg.seed);
        let link_cfg = LinkConfig::new(cfg.speed);

        let mut switches = Vec::with_capacity(n_sw);
        for i in 0..n_sw {
            let mut sw = Switch::new(format!("sw{i}"), 2);
            sw.add_route(C_HOST1, PORT_RIGHT);
            sw.add_route(C_HOST0, PORT_LEFT);
            switches.push(sw);
        }
        let links: Vec<(LinkDirection, LinkDirection)> = cfg
            .losses
            .iter()
            .map(|m| {
                (
                    LinkDirection::corrupting(link_cfg, m.clone(), rng.fork()),
                    LinkDirection::healthy(link_cfg, rng.fork()),
                )
            })
            .collect();
        let hops: Vec<Option<Hop>> = (0..n_links)
            .map(|i| {
                if !cfg.protected[i] {
                    return None;
                }
                let actual = cfg.losses[i].mean_rate().max(1e-9);
                let lg_cfg = LgConfig::for_speed(cfg.speed, actual);
                // distinct synthetic addresses per hop
                let a = NodeId(100 + 2 * i as u32);
                let b = NodeId(101 + 2 * i as u32);
                let mut lg_tx = LgSender::new(lg_cfg.clone(), a, b);
                let mut lg_rx = LgReceiver::new(lg_cfg, b, a);
                lg_tx.activate(actual);
                lg_rx.activate();
                Some(Hop {
                    lg_tx,
                    lg_rx,
                    dummy_refresh_armed: false,
                })
            })
            .collect();

        let mut q = EventQueue::new();
        q.schedule_at(Time::ZERO, CEv::TrialStart);
        let trials_remaining = match cfg.app {
            ChainApp::TcpTrials { trials, .. } | ChainApp::RdmaTrials { trials, .. } => trials,
        };
        ChainWorld {
            cfg,
            q,
            switches,
            links,
            hops,
            host_ports: Default::default(),
            hosts: [Host::new(C_HOST0), Host::new(C_HOST1)],
            fct: FctCollector::new(),
            e2e_retx: 0,
            pool: PacketPool::new(),
            trials_remaining,
            next_flow: 1,
            rx_scratch: Vec::new(),
            tx_scratch: Vec::new(),
            filler_scratch: Vec::new(),
            transport_scratch: Vec::new(),
        }
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// Sum of LinkGuardian recoveries across hops.
    pub fn total_recovered(&self) -> u64 {
        self.hops
            .iter()
            .flatten()
            .map(|h| h.lg_rx.stats().recovered)
            .sum()
    }

    /// Sum of receiver timeouts across hops.
    pub fn total_lg_timeouts(&self) -> u64 {
        self.hops
            .iter()
            .flatten()
            .map(|h| h.lg_rx.stats().timeouts)
            .sum()
    }

    /// Earliest pending timestamp, or `None` when the chain is idle.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.q.peek_time()
    }

    /// Run every event due at or before `until`, returning the number
    /// dispatched. Window-sliced execution is exact: a chain run as a
    /// sequence of bounded `run_until` calls dispatches the identical
    /// event stream as one unbounded call, which is what `perf`'s traced
    /// `chain_rdma` run relies on.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut ran = 0u64;
        while let Some((now, ev)) = self.q.pop_if_before(until) {
            ran += 1;
            self.handle(ev, now);
        }
        ran
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) {
        self.run_until(Time::MAX);
    }

    fn handle(&mut self, ev: CEv, now: Time) {
        match ev {
            CEv::PortEnqueue {
                sw,
                port,
                class,
                id,
            } => {
                self.switches[sw].enqueue(port, class, id, &mut self.pool);
                self.kick_port(sw, port);
            }
            CEv::PortTxDone { sw, port, id } => {
                let flen = self.pool.get(id).frame_len();
                self.switches[sw].port_mut(port).busy = false;
                self.switches[sw].tx_complete(port, flen);
                self.deliver_from_port(sw, port, id);
                self.kick_port(sw, port);
            }
            CEv::WireArrive { sw, from_right, id } => self.on_wire_arrive(sw, from_right, id, now),
            CEv::HostArrive { host, id } => self.on_host_arrive(host, id, now),
            CEv::HostWake { host } => {
                let mut actions = std::mem::take(&mut self.transport_scratch);
                if self.hosts[host].on_wake(now, &mut actions) {
                    self.apply_transport_actions(host, &mut actions, now);
                    if let Some(at) = self.hosts[host].rearm_wake(now) {
                        self.q.schedule_at(at, CEv::HostWake { host });
                    }
                }
                self.transport_scratch = actions;
            }
            CEv::LgTimeout { hop, generation } => {
                let mut actions = std::mem::take(&mut self.rx_scratch);
                if let Some(h) = self.hops[hop].as_mut() {
                    h.lg_rx
                        .on_timeout(generation, now, &mut self.pool, &mut actions);
                }
                self.apply_receiver_actions(hop, &actions, now);
                actions.clear();
                self.rx_scratch = actions;
            }
            CEv::LgBpTimer { hop } => {
                let mut actions = std::mem::take(&mut self.rx_scratch);
                if let Some(h) = self.hops[hop].as_mut() {
                    h.lg_rx.on_bp_timer(now, &mut self.pool, &mut actions);
                }
                self.apply_receiver_actions(hop, &actions, now);
                actions.clear();
                self.rx_scratch = actions;
            }
            CEv::PauseApply { hop, pause } => {
                self.switches[hop]
                    .port_mut(PORT_RIGHT)
                    .set_paused(Class::Normal, pause);
                self.kick_port(hop, PORT_RIGHT);
            }
            CEv::DummyRefresh { hop } => {
                if let Some(h) = self.hops[hop].as_mut() {
                    h.dummy_refresh_armed = false;
                }
                self.kick_port(hop, PORT_RIGHT);
            }
            CEv::TrialStart => self.start_trial(now),
        }
    }

    /// The protected hop whose sender sits on (sw, PORT_RIGHT), if any.
    fn hop_for_tx(&self, sw: usize, port: PortId) -> Option<usize> {
        (port == PORT_RIGHT && sw < self.hops.len() && self.hops[sw].is_some()).then_some(sw)
    }

    /// The protected hop whose receiver piggybacks ACKs on (sw, PORT_LEFT):
    /// hop `sw - 1` (reverse traffic toward that hop's sender).
    fn hop_for_rx_egress(&self, sw: usize, port: PortId) -> Option<usize> {
        if port != PORT_LEFT || sw == 0 {
            return None;
        }
        let hop = sw - 1;
        self.hops[hop].is_some().then_some(hop)
    }

    fn kick_port(&mut self, sw: usize, port: PortId) {
        let now = self.q.now();
        if self.switches[sw].port(port).busy {
            return;
        }
        let mut next = self.switches[sw].dequeue(port);
        if next.is_none() {
            // idle fillers
            if let Some(hop) = self.hop_for_tx(sw, port) {
                let mut filler = std::mem::take(&mut self.filler_scratch);
                let h = self.hops[hop].as_mut().expect("protected");
                h.lg_tx.make_dummies(now, &mut self.pool, &mut filler);
                let got = !filler.is_empty();
                for d in filler.drain(..) {
                    self.switches[sw].enqueue(port, Class::Low, d, &mut self.pool);
                }
                self.filler_scratch = filler;
                let h = self.hops[hop].as_mut().expect("protected");
                if h.lg_tx.has_unacked()
                    && h.lg_tx.config().dummy_copies > 0
                    && !h.dummy_refresh_armed
                {
                    h.dummy_refresh_armed = true;
                    self.q
                        .schedule_after(DUMMY_REFRESH, CEv::DummyRefresh { hop });
                }
                if got {
                    next = self.switches[sw].dequeue(port);
                }
            } else if let Some(hop) = self.hop_for_rx_egress(sw, port) {
                let mut filler = std::mem::take(&mut self.filler_scratch);
                let h = self.hops[hop].as_mut().expect("protected");
                h.lg_rx.make_explicit_acks(now, &mut self.pool, &mut filler);
                let got = !filler.is_empty();
                for a in filler.drain(..) {
                    self.switches[sw].enqueue(port, Class::Low, a, &mut self.pool);
                }
                self.filler_scratch = filler;
                if got {
                    next = self.switches[sw].dequeue(port);
                }
            }
        }
        let Some((_class, mut id)) = next else {
            return;
        };
        if let Some(hop) = self.hop_for_tx(sw, port) {
            id = self.hops[hop]
                .as_mut()
                .expect("protected")
                .lg_tx
                .on_transmit(id, now, &mut self.pool);
        } else if let Some(hop) = self.hop_for_rx_egress(sw, port) {
            if self.pool.get(id).lg_ack.is_none() {
                id = self.hops[hop]
                    .as_mut()
                    .expect("protected")
                    .lg_rx
                    .stamp_ack(id, &mut self.pool);
            }
        }
        self.switches[sw].port_mut(port).busy = true;
        let ser = self.cfg.speed.serialize(self.pool.get(id).wire_len());
        self.q.schedule_after(ser, CEv::PortTxDone { sw, port, id });
    }

    fn deliver_from_port(&mut self, sw: usize, port: PortId, id: PktId) {
        // forward link sw → sw+1, or reverse link sw → sw-1
        let (link, peer, from_right) = match port {
            PORT_RIGHT => (&mut self.links[sw].0, sw + 1, false),
            _ => (&mut self.links[sw - 1].1, sw - 1, true),
        };
        if link.deliver() {
            let ev = CEv::WireArrive {
                sw: peer,
                from_right,
                id,
            };
            self.q.schedule_after(link.propagation(), ev);
        } else {
            let peer_port = if from_right { PORT_RIGHT } else { PORT_LEFT };
            self.switches[peer].rx_corrupt(peer_port);
            self.pool.release(id);
        }
    }

    /// Send a packet through `sw`'s pipeline to egress `port`. The two
    /// host-facing ports are computed: the frame goes straight to the
    /// one `HostArrive` that ends the hop.
    fn forward(&mut self, sw: usize, port: PortId, id: PktId, now: Time) {
        let arrive = now + self.switches[sw].pipeline_latency;
        let host = match (sw, port) {
            (0, PORT_LEFT) => 0,
            (_, PORT_RIGHT) if sw + 1 == self.switches.len() => 1,
            _ => {
                let ev = CEv::PortEnqueue {
                    sw,
                    port,
                    class: Class::Normal,
                    id,
                };
                self.q.schedule_at(arrive, ev);
                return;
            }
        };
        let ser = self.cfg.speed.serialize(self.pool.get(id).wire_len());
        let counters = self.switches[sw].counters_mut(port);
        let link = &mut self.host_ports[host];
        if let Some(done) = link.enqueue(now, arrive, ser, id, &mut self.pool, counters) {
            let at = done + HOST_HOP;
            self.q.schedule_at(at, CEv::HostArrive { host, id });
        }
    }

    fn on_wire_arrive(&mut self, sw: usize, from_right: bool, id: PktId, now: Time) {
        let flen = self.pool.get(id).frame_len();
        if !from_right {
            // forward arrival over link (sw-1 → sw): hop sw-1's receiver
            self.switches[sw].rx_ok(PORT_LEFT, flen);
            let hop = sw - 1;
            if self.hops[hop].is_some() {
                let mut actions = std::mem::take(&mut self.rx_scratch);
                if let Some(h) = self.hops[hop].as_mut() {
                    h.lg_rx
                        .on_protected_rx(id, now, &mut self.pool, &mut actions);
                }
                self.apply_receiver_actions(hop, &actions, now);
                actions.clear();
                self.rx_scratch = actions;
            } else {
                // unprotected hop: plain forwarding
                self.forward(sw, PORT_RIGHT, id, now);
            }
        } else {
            // reverse arrival over link (sw+1 → sw): hop sw's sender
            self.switches[sw].rx_ok(PORT_RIGHT, flen);
            let hop = sw;
            if self.hops[hop].is_some() {
                let mut actions = std::mem::take(&mut self.tx_scratch);
                let fwd = self.hops[hop]
                    .as_mut()
                    .expect("protected")
                    .lg_tx
                    .on_reverse_rx(id, now, &mut self.pool, &mut actions);
                if let Some(p) = fwd {
                    self.forward(sw, PORT_LEFT, p, now);
                }
                self.apply_sender_actions(hop, &actions);
                actions.clear();
                self.tx_scratch = actions;
            } else {
                self.forward(sw, PORT_LEFT, id, now);
            }
        }
    }

    fn apply_receiver_actions(&mut self, hop: usize, actions: &[ReceiverAction], now: Time) {
        // the receiver of hop `hop` lives on switch hop+1
        let sw = hop + 1;
        for &a in actions {
            match a {
                ReceiverAction::Deliver(id) => self.forward(sw, PORT_RIGHT, id, now),
                ReceiverAction::SendReverse { id, class } => {
                    self.switches[sw].enqueue(PORT_LEFT, class, id, &mut self.pool);
                }
                ReceiverAction::ArmTimeout {
                    deadline,
                    generation,
                } => {
                    self.q.schedule_at(
                        deadline.max(self.q.now()),
                        CEv::LgTimeout { hop, generation },
                    );
                }
                ReceiverAction::ArmBpTimer { at } => {
                    self.q
                        .schedule_at(at.max(self.q.now()), CEv::LgBpTimer { hop });
                }
            }
        }
        self.kick_port(sw, PORT_LEFT);
    }

    fn apply_sender_actions(&mut self, hop: usize, actions: &[SenderAction]) {
        let sw = hop; // sender lives on switch `hop`
        let pipeline = self.switches[sw].pipeline_latency;
        for &a in actions {
            match a {
                SenderAction::Emit { id, class, delay } => {
                    self.q.schedule_after(
                        delay + pipeline,
                        CEv::PortEnqueue {
                            sw,
                            port: PORT_RIGHT,
                            class,
                            id,
                        },
                    );
                }
                SenderAction::PauseNormal(pause) => {
                    self.q
                        .schedule_after(Duration::from_ns(1_100), CEv::PauseApply { hop, pause });
                }
            }
        }
    }

    // ----------------------------------------------------------- hosts

    fn on_host_arrive(&mut self, host: usize, id: PktId, now: Time) {
        let mut actions = std::mem::take(&mut self.transport_scratch);
        let reply = self.hosts[host].on_frame(self.pool.get(id), now, &mut actions);
        self.pool.release(id);
        if let Some(r) = reply {
            self.host_send(host, r);
        }
        self.apply_transport_actions(host, &mut actions, now);
        self.transport_scratch = actions;
    }

    fn apply_transport_actions(
        &mut self,
        host: usize,
        actions: &mut Vec<TransportAction>,
        now: Time,
    ) {
        for a in actions.drain(..) {
            match a {
                TransportAction::Send(pkt) => {
                    if let Payload::Tcp(t) = &pkt.payload {
                        if t.is_retx {
                            self.e2e_retx += 1;
                        }
                    }
                    self.host_send(host, pkt);
                }
                TransportAction::WakeAt { deadline } => {
                    let at = deadline.max(now);
                    if self.hosts[host].request_wake(at) {
                        self.q.schedule_at(at, CEv::HostWake { host });
                    }
                }
                TransportAction::Complete {
                    started, completed, ..
                } => {
                    self.fct.record(completed.saturating_since(started));
                    self.finish_trial(host);
                }
            }
        }
    }

    fn host_send(&mut self, host: usize, pkt: Packet) {
        let ser = self.cfg.speed.serialize(pkt.wire_len());
        let id = self.pool.insert(pkt);
        let sent = self.hosts[host].nic.depart(self.q.now(), ser);
        let (sw, port) = if host == 0 {
            (0, PORT_RIGHT)
        } else {
            (self.switches.len() - 1, PORT_LEFT)
        };
        let pipeline = self.switches[sw].pipeline_latency;
        self.q.schedule_at(
            sent + HOST_HOP + pipeline,
            CEv::PortEnqueue {
                sw,
                port,
                class: Class::Normal,
                id,
            },
        );
    }

    fn start_trial(&mut self, now: Time) {
        if self.trials_remaining == 0 {
            return;
        }
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        let mut actions = std::mem::take(&mut self.transport_scratch);
        match self.cfg.app.clone() {
            ChainApp::TcpTrials {
                variant, msg_len, ..
            } => {
                self.hosts[1].tcp_rx = Some(TcpReceiver::new(flow, C_HOST1, C_HOST0));
                self.hosts[0].start_tcp(C_HOST1, flow, variant, msg_len, now, &mut actions);
                self.apply_transport_actions(0, &mut actions, now);
            }
            ChainApp::RdmaTrials { msg_len, .. } => {
                self.hosts[1].rdma_rx = Some(RdmaResponder::new(flow, C_HOST1, C_HOST0, false));
                let mut tx =
                    RdmaRequester::new(RdmaConfig::default(), flow, C_HOST0, C_HOST1, msg_len);
                tx.start_into(now, &mut actions);
                self.hosts[0].rdma_tx = Some(tx);
                self.apply_transport_actions(0, &mut actions, now);
            }
        }
        self.transport_scratch = actions;
    }

    fn finish_trial(&mut self, host: usize) {
        self.hosts[host].tcp_spent = self.hosts[host].tcp_tx.take();
        self.hosts[host].rdma_tx = None;
        self.trials_remaining = self.trials_remaining.saturating_sub(1);
        if self.trials_remaining > 0 {
            let at = self.q.now() + Duration::from_us(10);
            self.q.schedule_at(at, CEv::TrialStart);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sliced_chain_equals_one_shot_run() {
        let chain = || {
            let mut cfg = ChainConfig::protected_chain(
                LinkSpeed::G100,
                vec![LossModel::Iid { rate: 1e-3 }, LossModel::Iid { rate: 5e-4 }],
                ChainApp::RdmaTrials {
                    msg_len: 4_000,
                    trials: 30,
                },
            );
            cfg.seed = 1000;
            ChainWorld::new(cfg)
        };
        let mut one_shot = chain();
        one_shot.run_to_completion();
        let mut sliced = chain();
        let mut ran = 0;
        while let Some(t) = sliced.next_event_time() {
            ran += sliced.run_until(t + Duration::from_ns(500));
        }
        assert!(ran > 0);
        assert_eq!(sliced.fct.samples_us(), one_shot.fct.samples_us());
        assert_eq!(sliced.e2e_retx, one_shot.e2e_retx);
    }
}
