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
//! [`crate::world`], and the same LinkGuardian port rules
//! ([`crate::port`]), over `N` hops. Only the forward direction is
//! protected (like the main testbed); reverse traffic carries ACKs and
//! LinkGuardian control.

use crate::host::{Host, HOST_HOP};
use crate::port::{self, LgPort, PortEv, PortLoop, PortScratch};
use lg_link::{LinkConfig, LinkDirection, LinkSpeed, LossModel};
use lg_packet::{FlowId, NodeId, Packet, PacketPool, Payload, PktId};
use lg_sim::{Duration, EventQueue, Rng, Time};
use lg_switch::{Class, PortId, SerialLink, Switch};
use lg_transport::{
    CcVariant, RdmaConfig, RdmaRequester, RdmaResponder, TcpReceiver, TransportAction,
};
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender};

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
        /// Hop index.
        hop: usize,
        /// Stall generation.
        generation: u64,
    },
    /// Backpressure timer-packet evaluation on hop `hop`.
    LgBpTimer {
        /// Hop index.
        hop: usize,
    },
    /// PFC pause/resume applies at hop `hop`'s sender queue.
    PauseApply {
        /// Hop index.
        hop: usize,
        /// Pause or resume.
        pause: bool,
    },
    /// Dummy keepalive for hop `hop`.
    DummyRefresh {
        /// Hop index.
        hop: usize,
    },
    /// Start the next trial.
    TrialStart,
}

/// The LinkGuardian pair of `links[hop]`'s forward direction: sender
/// on switch `hop`'s right port, receiver on switch `hop + 1`'s left
/// port. An unprotected hop's pair is never activated, and an inactive
/// pair passes every frame through (the testbed's `lg: None`).
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
    hops: Vec<Hop>,
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
    lg_scratch: PortScratch,
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
        let hops: Vec<Hop> = (0..n_links)
            .map(|i| {
                let actual = cfg.losses[i].mean_rate().max(1e-9);
                let lg_cfg = LgConfig::for_speed(cfg.speed, actual);
                // distinct synthetic addresses per hop
                let a = NodeId(100 + 2 * i as u32);
                let b = NodeId(101 + 2 * i as u32);
                let mut lg_tx = LgSender::new(lg_cfg.clone(), a, b);
                let mut lg_rx = LgReceiver::new(lg_cfg, b, a);
                if cfg.protected[i] {
                    lg_tx.activate(actual);
                    lg_rx.activate();
                }
                Hop {
                    lg_tx,
                    lg_rx,
                    dummy_refresh_armed: false,
                }
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
            lg_scratch: PortScratch::default(),
            transport_scratch: Vec::new(),
        }
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// Sum of LinkGuardian recoveries across hops.
    pub fn total_recovered(&self) -> u64 {
        self.hops.iter().map(|h| h.lg_rx.stats().recovered).sum()
    }

    /// Sum of receiver timeouts across hops.
    pub fn total_lg_timeouts(&self) -> u64 {
        self.hops.iter().map(|h| h.lg_rx.stats().timeouts).sum()
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
            } => port::enqueue(self, (sw, port), class, id, now),
            CEv::PortTxDone { sw, port, id } => port::tx_done(self, (sw, port), id, now),
            CEv::WireArrive { sw, from_right, id } => {
                let port = if from_right { PORT_RIGHT } else { PORT_LEFT };
                port::ingress(self, (sw, port), id, now)
            }
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
                port::timeout(self, (hop + 1, PORT_LEFT), generation, now)
            }
            CEv::LgBpTimer { hop } => port::bp_timer(self, (hop + 1, PORT_LEFT), now),
            CEv::PauseApply { hop, pause } => port::pause(self, (hop, PORT_RIGHT), pause, now),
            CEv::DummyRefresh { hop } => port::dummy_refresh(self, (hop, PORT_RIGHT), now),
            CEv::TrialStart => self.start_trial(now),
        }
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

/// The chain's topology for the port rules: a port is `(switch, side)`;
/// hop `i`'s sender sits on `(i, PORT_RIGHT)`, its receiver on
/// `(i + 1, PORT_LEFT)`, and a frame leaves by the port opposite the
/// one it arrived through.
impl PortLoop for ChainWorld {
    type Port = (usize, PortId);

    fn lg_port(&mut self, (sw, port): (usize, PortId)) -> LgPort<'_> {
        let (tx, rx) = match port {
            PORT_RIGHT => {
                let h = &mut self.hops[sw];
                (Some((&mut h.lg_tx, &mut h.dummy_refresh_armed)), None)
            }
            _ => (None, Some(&mut self.hops[sw - 1].lg_rx)),
        };
        LgPort {
            sw: &mut self.switches[sw],
            port,
            tx,
            rx,
            tx_first: true,
            speed: self.cfg.speed,
            pool: &mut self.pool,
            scratch: &mut self.lg_scratch,
        }
    }

    fn route(&mut self, (sw, from): (usize, PortId), id: PktId, now: Time) {
        let out = if from == PORT_LEFT {
            PORT_RIGHT
        } else {
            PORT_LEFT
        };
        self.forward(sw, out, id, now);
    }

    fn depart(&mut self, (sw, port): (usize, PortId), id: PktId, _now: Time) {
        self.deliver_from_port(sw, port, id);
    }

    fn schedule(&mut self, t: Time, (sw, port): (usize, PortId), ev: PortEv) {
        // a receiver's hop is the link to its left, a sender's to its right
        let ev = match ev {
            PortEv::Enqueue { class, id } => CEv::PortEnqueue {
                sw,
                port,
                class,
                id,
            },
            PortEv::TxDone(id) => CEv::PortTxDone { sw, port, id },
            PortEv::Timeout(generation) => CEv::LgTimeout {
                hop: sw - 1,
                generation,
            },
            PortEv::BpTimer => CEv::LgBpTimer { hop: sw - 1 },
            PortEv::Pause(pause) => CEv::PauseApply { hop: sw, pause },
            PortEv::DummyRefresh => CEv::DummyRefresh { hop: sw },
        };
        self.q.schedule_at(t, ev);
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
