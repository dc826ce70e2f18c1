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
//! This module is the chain's topology only; its events run through the
//! event path the two-switch [`crate::world`] runs through, and its clean
//! trials are computed by the period code `World` computes its
//! stretches and trials with (the `cycle` module, DESIGN.md §23). Only
//! the forward direction is protected
//! (like the main testbed); reverse traffic carries ACKs and
//! LinkGuardian control.

use crate::cycle::{self, Cycle, Periodic};
use crate::host::{Host, Trials};
use crate::port::{self, Ev, Exit, LgPort, Parts, PortLoop, PortScratch};
use crate::world::{App, StretchCensus};
use lg_link::{LinkConfig, LinkDirection, LinkSpeed, LossModel};
use lg_packet::{NodeId, PacketPool};
use lg_sim::{Duration, EventQueue, Rng, Time};
use lg_switch::{PortCounters, PortId, SerialLink, Switch};
use lg_transport::CcVariant;
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender};

/// Toward host0 (decreasing switch index).
pub const PORT_LEFT: PortId = 0;
/// Toward host1 (increasing switch index).
pub const PORT_RIGHT: PortId = 1;

/// Host addresses: the testbed's.
pub use crate::world::{HOST0 as C_HOST0, HOST1 as C_HOST1};

/// A chain port: `(switch, PORT_LEFT | PORT_RIGHT)`.
type ChainPort = (usize, PortId);

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

impl ChainApp {
    /// The testbed driver this app runs as: serial trials 10 µs apart,
    /// RDMA under go-back-N.
    fn lower(&self) -> App {
        let gap = Duration::from_us(10);
        match *self {
            ChainApp::TcpTrials {
                variant,
                msg_len,
                trials,
            } => App::TcpTrials {
                variant,
                msg_len,
                trials,
                gap,
            },
            ChainApp::RdmaTrials { msg_len, trials } => App::RdmaTrials {
                msg_len,
                trials,
                gap,
                selective_repeat: false,
            },
        }
    }
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
        self.app.lower().check()
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
    speed: LinkSpeed,
    /// Event queue.
    pub q: EventQueue<Ev<ChainPort>>,
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
    /// TCP segments sent again by either host's transport. RDMA
    /// go-back-N re-sends are not counted, so an RDMA chain reads 0.
    pub e2e_retx: u64,
    /// Slab pool backing every in-flight packet of the chain.
    pub pool: PacketPool,
    trials: Trials,
    lg_scratch: PortScratch,
    /// The marks, census and event count of `run_until`'s computed trials.
    cycle: Cycle,
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

        let switches = (0..n_sw)
            .map(|i| {
                let mut sw = Switch::new(format!("sw{i}"), 2);
                sw.add_route(C_HOST1, PORT_RIGHT);
                sw.add_route(C_HOST0, PORT_LEFT);
                sw
            })
            .collect();
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
        q.schedule_at(Time::ZERO, Ev::TrialStart);
        ChainWorld {
            speed: cfg.speed,
            q,
            switches,
            links,
            hops,
            host_ports: Default::default(),
            hosts: [Host::new(C_HOST0), Host::new(C_HOST1)],
            fct: FctCollector::new(),
            e2e_retx: 0,
            pool: PacketPool::new(),
            trials: Trials::new(cfg.app.lower()),
            lg_scratch: PortScratch::default(),
            cycle: Cycle::default(),
        }
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// The counters of port `port` of switch `sw`.
    pub fn port_counters(&self, sw: usize, port: PortId) -> PortCounters {
        self.switches[sw].counters(port)
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
    /// handled, and settle the host-facing ports' counters to `until`.
    /// The clean trials of the series are computed rather than
    /// simulated, and a computed trial counts the events it stands for,
    /// so the count is the event path's. Window-sliced execution is
    /// exact: a batch of trials never reaches past `until`, so a chain
    /// run as a sequence of bounded `run_until` calls ends in the state
    /// one unbounded call reaches and counts the same events, which is
    /// what `perf`'s traced `chain_rdma` run relies on.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let start = self.cycle.begin(until);
        while let Some((now, ev)) = self.q.pop_if_before(until) {
            self.cycle.events += 1;
            port::handle(self, ev, now);
        }
        let ran = self.cycle.end(start);
        port::settle_host_ports(self, until);
        ran
    }

    /// Handle one event on the event path, computing nothing: the
    /// reference `run_until` is checked against.
    pub fn handle_pub(&mut self, ev: Ev<(usize, PortId)>, now: Time) {
        port::handle(self, ev, now);
    }

    /// The census of the trials [`ChainWorld::run_until`] computed.
    pub fn stretch_census(&self) -> StretchCensus {
        self.cycle.census
    }

    /// Hop `hop`'s LinkGuardian sender and receiver (inactive on an
    /// unprotected hop).
    pub fn lg_pair(&self, hop: usize) -> (&LgSender, &LgReceiver) {
        let h = &self.hops[hop];
        (&h.lg_tx, &h.lg_rx)
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) {
        self.run_until(Time::MAX);
    }
}

/// The chain's topology for the shared event path: a port is
/// `(switch, side)`; hop `i`'s sender sits on `(i, PORT_RIGHT)`, its
/// receiver on `(i + 1, PORT_LEFT)`, and a frame leaves a switch by the
/// port opposite the one it arrived through. The edge switches' outer
/// ports face the hosts.
impl PortLoop for ChainWorld {
    type Port = ChainPort;

    fn lg_port(&mut self, (sw, port): ChainPort) -> LgPort<'_> {
        let (tx, rx) = match port {
            PORT_RIGHT => {
                let h = &mut self.hops[sw];
                (Some((&mut h.lg_tx, &mut h.dummy_refresh_armed)), None)
            }
            _ => (None, Some(&mut self.hops[sw - 1].lg_rx)),
        };
        LgPort {
            sw: &mut self.switches[sw],
            index: sw,
            port,
            tx,
            rx,
            tx_first: true,
            speed: self.speed,
            pool: &mut self.pool,
            scratch: &mut self.lg_scratch,
        }
    }

    fn parts(&mut self) -> Parts<'_, ChainPort> {
        Parts {
            q: &mut self.q,
            pool: &mut self.pool,
            speed: self.speed,
            hosts: &mut self.hosts,
            trials: &mut self.trials,
            fct: &mut self.fct,
            e2e_retx: &mut self.e2e_retx,
        }
    }

    fn link(&mut self, (sw, port): ChainPort) -> (&mut LinkDirection, usize, ChainPort) {
        // forward link sw → sw+1, or reverse link sw → sw-1
        match port {
            PORT_RIGHT => (&mut self.links[sw].0, 2 * sw, (sw + 1, PORT_LEFT)),
            _ => (&mut self.links[sw - 1].1, 2 * sw - 1, (sw - 1, PORT_RIGHT)),
        }
    }

    fn exit(&self, (sw, from): ChainPort) -> Exit<ChainPort> {
        match from {
            PORT_LEFT if sw + 1 == self.switches.len() => Exit::Host(1),
            PORT_LEFT => Exit::Link((sw, PORT_RIGHT)),
            _ if sw == 0 => Exit::Host(0),
            _ => Exit::Link((sw, PORT_LEFT)),
        }
    }

    fn uplink(&self, host: usize) -> ChainPort {
        match host {
            0 => (0, PORT_RIGHT),
            _ => (self.switches.len() - 1, PORT_LEFT),
        }
    }

    fn host_port(
        &mut self,
        host: usize,
    ) -> (&mut Switch, PortId, &mut SerialLink, &mut PacketPool) {
        let (sw, port) = match host {
            0 => (0, PORT_LEFT),
            _ => (self.switches.len() - 1, PORT_RIGHT),
        };
        let link = &mut self.host_ports[host];
        (&mut self.switches[sw], port, link, &mut self.pool)
    }

    fn trial_start(&mut self, now: Time) -> Time {
        cycle::trial_start(self, now)
    }
}

/// What a trial moves in the chain: every hop's pair, every switch and
/// both directions of every link.
impl Periodic for ChainWorld {
    fn cycle(&mut self) -> &mut Cycle {
        &mut self.cycle
    }

    /// A batch runs no handler, so it would leave out a trace's
    /// control-level rows.
    fn batches(&self) -> bool {
        !lg_obs::trace::enabled(lg_obs::trace::Level::Ctl)
    }

    fn pairs(&self) -> usize {
        self.hops.len()
    }

    fn pair(&mut self, i: usize) -> (&mut LgSender, &mut LgReceiver, &mut bool) {
        let h = &mut self.hops[i];
        (&mut h.lg_tx, &mut h.lg_rx, &mut h.dummy_refresh_armed)
    }

    /// A switch's right port sends its hop's data, its left port returns
    /// the ACKs of the hop before.
    fn pair_at(sw: usize, port: PortId) -> usize {
        match port {
            PORT_RIGHT => sw,
            _ => sw.saturating_sub(1),
        }
    }

    fn locate(at: ChainPort) -> (usize, PortId) {
        at
    }

    fn switches(&self) -> usize {
        self.switches.len()
    }

    fn switch(&mut self, i: usize) -> &mut Switch {
        &mut self.switches[i]
    }

    fn directions(&self) -> usize {
        2 * self.links.len()
    }

    fn direction(&mut self, label: usize) -> &mut LinkDirection {
        let (fwd, rev) = &mut self.links[label / 2];
        if label.is_multiple_of(2) {
            fwd
        } else {
            rev
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
