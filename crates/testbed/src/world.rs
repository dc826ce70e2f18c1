//! The simulated testbed of Figure 7: a sender host, the LinkGuardian
//! sender switch ("sw2"), the corrupting optical link (the VOA), the
//! LinkGuardian receiver switch ("sw6"), and a receiver host.
//!
//! ```text
//!  host0 ──► sw_tx ══(corrupting link)══► sw_rx ──► host1
//!        ◄──       ◄═(clean reverse)════╡       ◄──
//! ```
//!
//! All components are the pure state machines from the other crates; this
//! module owns the event loop that binds them: serialization and
//! propagation timing, pipeline latencies, the PFC pause path, the
//! self-replenishing dummy/ACK queues (port-idle fillers), LinkGuardian
//! timeouts and transport timers. The host NICs and the host-facing
//! switch ports have none of that structure, so they are computed
//! ([`SerialLink`]) rather than simulated (DESIGN.md §19).

use lg_guardd::{GuardAction, GuardInput, GuardManager};
use lg_link::{LinkConfig, LinkDirection, LinkSpeed, LossModel};
use lg_obs::health::{HealthConfig, HealthEstimator, HealthEvent};
use lg_obs::timeseries::SeriesBank;
use lg_obs::trace::{Comp, Kind, Level};
use lg_obs::{lg_trace, MetricsRegistry};
use lg_packet::lg::LgPacketType;
use lg_packet::{FlowId, LgControl, NodeId, Packet, PacketPool, Payload, PktId};
use lg_sim::{Duration, EventQueue, Rng, Time};
use lg_switch::{Class, EgressPort, PortId, SerialLink, Switch};
use lg_transport::{
    CcVariant, RdmaConfig, RdmaRequester, RdmaResponder, TcpReceiver, TransportAction,
};
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender, ReceiverAction, SenderAction};

use crate::host::DUMMY_REFRESH;
pub use crate::host::{Host, HOST_HOP};

/// Which switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The LinkGuardian sender switch (upstream of the corrupting link).
    Tx,
    /// The LinkGuardian receiver switch (downstream).
    Rx,
}

/// Which LinkGuardian instance, named by its protected direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LgInstance {
    /// The forward instance: sender at the Tx switch (the outer tunnel).
    Forward,
    /// The reverse instance (bidirectional mode): sender at the Rx switch.
    Reverse,
}

/// Port 0 of each switch faces the protected link; port 1 faces its host.
pub const PORT_LINK: PortId = 0;
/// Host-facing port.
pub const PORT_HOST: PortId = 1;

/// Node addresses.
pub const HOST0: NodeId = NodeId(0);
/// Receiver-side host.
pub const HOST1: NodeId = NodeId(1);
/// The sender switch (control-packet origin).
pub const SW_TX: NodeId = NodeId(100);
/// The receiver switch (control-packet origin).
pub const SW_RX: NodeId = NodeId(101);

/// Events of the testbed world.
///
/// Packet-carrying variants hold a [`PktId`] pool handle (8 bytes), not an
/// owned [`Packet`]; the event that holds the handle owns its pool
/// reference. `size_of::<Ev>()` is bounded by a regression test so the
/// timer-wheel entries stay cache-compact.
#[derive(Debug)]
pub enum Ev {
    /// A packet enters a switch egress queue (after pipeline traversal).
    PortEnqueue {
        /// Which switch.
        side: Side,
        /// Egress port.
        port: PortId,
        /// Traffic class.
        class: Class,
        /// The packet.
        id: PktId,
    },
    /// A frame finished serializing out of a port.
    PortTxDone {
        /// Which switch.
        side: Side,
        /// Egress port.
        port: PortId,
        /// The frame that completed.
        id: PktId,
    },
    /// A frame fully arrived at a switch from a wire.
    WireArrive {
        /// The switch it arrived at.
        side: Side,
        /// True if it came over the protected (forward or reverse) link.
        from_link: bool,
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
        /// Which instance's receiver.
        instance: LgInstance,
    },
    /// Timer-packet evaluation of the backpressure state while paused.
    LgBpTimer {
        /// Which instance's receiver.
        instance: LgInstance,
    },
    /// PFC pause/resume takes effect at the sender's normal queue.
    PauseApply {
        /// Pause or resume.
        pause: bool,
        /// Which instance's sender (Forward → Tx switch, Reverse → Rx).
        instance: LgInstance,
    },
    /// Re-offer a dummy while data is unACKed (paced stand-in for the
    /// continuously self-replenishing dummy queue).
    DummyRefresh {
        /// Which instance's sender.
        instance: LgInstance,
    },
    /// Activate LinkGuardian on the corrupting link.
    ActivateLg,
    /// Change the forward loss model (the "VOA knob"). Boxed: this rare
    /// control event must not widen the hot packet events.
    SetLoss(Box<LossModel>),
    /// Periodic probe sample.
    Sample,
    /// Start the next FCT trial.
    TrialStart,
}

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

/// Observability state of one world: its metrics registry and sampled
/// profile, plus the uid base used to normalize packet uids. Packet
/// uids come from a thread-local counter shared by every world a worker
/// thread runs, so raw values depend on `--threads`; published records
/// carry `uid - uid_base + 1` instead, which is identical at any thread
/// count.
pub struct WorldObs {
    /// First uid a packet of this world can carry.
    pub uid_base: u64,
    /// Metric snapshots accumulated at sample points and at publish.
    pub registry: MetricsRegistry,
    /// Streaming windowed telemetry, fed on every `Ev::Sample`; drained
    /// as `timeseries` JSONL rows at publish.
    pub series: SeriesBank,
    /// Interned series indices for the per-tick samples (set on the
    /// first tick; skips per-sample key lookups on the hot path).
    ts_keys: Option<[usize; 6]>,
    /// Sample windows taken so far (the `window_id` of telemetry rows).
    pub next_window: u64,
    /// Online health estimator for the protected (forward) link, fed
    /// from the Rx switch's observed frame counters at sample points.
    pub link_health: HealthEstimator,
    /// Health-state transitions accumulated since the last publish.
    pub health_events: Vec<HealthEvent>,
    /// How many of `health_events` the guardian manager has ingested
    /// (reset when the events are drained at publish).
    guard_fed: usize,
    /// Windowed retx-delay bookkeeping: (count, sum) seen at the
    /// previous sample, so each window reports its own mean.
    retx_delay_seen: (u64, f64),
    /// Events handled so far when the world profiles itself (the sink
    /// was on at construction), else `None`. Every
    /// [`lg_obs::sink::PROFILE_STRIDE`]-th event is timed into
    /// `profile_counts`/`profile_ns` by kind; wall-clock data is
    /// non-golden, so `publish_obs` files the rows behind the
    /// `zz-profile/` sort key.
    profile_seen: Option<u64>,
    profile_counts: [u64; Ev::N_KINDS],
    profile_ns: [u64; Ev::N_KINDS],
}

/// Recent windows each telemetry series keeps for min/max/p99.
const SERIES_RING_CAP: usize = 64;
/// Ewma half-life of telemetry series, in sample windows.
const SERIES_EWMA_HALF_LIFE: f64 = 16.0;

impl Default for WorldObs {
    fn default() -> WorldObs {
        WorldObs {
            uid_base: 0,
            registry: MetricsRegistry::new(),
            series: SeriesBank::new(SERIES_RING_CAP, SERIES_EWMA_HALF_LIFE),
            ts_keys: None,
            next_window: 0,
            link_health: HealthEstimator::new(HealthConfig::default()),
            health_events: Vec::new(),
            guard_fed: 0,
            retx_delay_seen: (0, 0.0),
            profile_seen: None,
            profile_counts: [0; Ev::N_KINDS],
            profile_ns: [0; Ev::N_KINDS],
        }
    }
}

/// Traffic drivers.
#[derive(Debug, Clone)]
pub enum App {
    /// No application traffic (stress mode injects at the switch).
    None,
    /// Serial fixed-size TCP messages host0 → host1.
    TcpTrials {
        /// Congestion control variant.
        variant: CcVariant,
        /// Message size in bytes.
        msg_len: u32,
        /// Number of trials.
        trials: u32,
        /// Gap between a completion and the next start.
        gap: Duration,
    },
    /// Serial fixed-size RDMA WRITEs host0 → host1.
    RdmaTrials {
        /// Message size in bytes.
        msg_len: u32,
        /// Number of trials.
        trials: u32,
        /// Gap between trials.
        gap: Duration,
        /// Selective-repeat mode.
        selective_repeat: bool,
    },
    /// Continuous TCP stream (iperf): back-to-back `chunk` -byte messages
    /// until the world clock passes `end`.
    TcpStream {
        /// Congestion control variant.
        variant: CcVariant,
        /// Bytes per chained message.
        chunk: u32,
        /// Stop starting new chunks after this time.
        end: Time,
    },
}

/// World configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Link speed of every link in the testbed.
    pub speed: LinkSpeed,
    /// Forward-direction corruption model at t = 0.
    pub loss: LossModel,
    /// Reverse-direction corruption model (None unless studying
    /// bidirectional corruption, §5).
    pub rev_loss: LossModel,
    /// LinkGuardian configuration; `None` removes LinkGuardian entirely.
    pub lg: Option<LgConfig>,
    /// Run a parallel LinkGuardian instance protecting the *reverse*
    /// direction as well (§5 "Handling bidirectional corruption"). The
    /// forward instance is the outer tunnel: reverse-instance control
    /// riding the forward direction is itself protected.
    pub bidirectional: bool,
    /// Activate LinkGuardian at t = 0 (otherwise schedule [`Ev::ActivateLg`]).
    pub lg_active_from_start: bool,
    /// Attach a guardian manager (`lg-guardd`) that consumes this
    /// world's streaming health events — the Rx switch's observed frame
    /// counters, windowed at every sample tick — and activates
    /// LinkGuardian from the *measured* loss rate through its budgeted,
    /// journaled decisions. `GuardConfig::oracle()` is the closed-loop
    /// monitoring plane of Appendix C (`corruptd`: one-shot latch, no
    /// budget). Requires `sample_interval` (the poll cadence) and an
    /// `lg` configuration; a dormant start (`lg_active_from_start =
    /// false`) makes it meaningful.
    pub guardd: Option<lg_guardd::GuardConfig>,
    /// ECN marking threshold on the protected port's normal queue
    /// (the paper's DCTCP experiments use 100 KB).
    pub ecn_threshold: Option<u64>,
    /// Traffic driver.
    pub app: App,
    /// Probe sampling interval (None = no probes).
    pub sample_interval: Option<Duration>,
    /// Per-world memory budget in bytes (tor-memquota idiom): one shared
    /// quota covering every switch egress queue and both LinkGuardian
    /// buffer classes. Exceeding it degrades gracefully — the arriving
    /// packet is drop-tailed / rejected exactly like a full queue — and
    /// the high-water mark and denial count surface in the metrics
    /// registry. `None` leaves buffers bounded only by their own caps.
    pub mem_budget: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

/// Refuse a trial series the loops cannot run or report on.
pub(crate) fn check_trials(msg_len: u32, trials: u32) -> Result<(), String> {
    if msg_len == 0 {
        return Err("message length must be at least 1 byte".into());
    }
    if trials == 0 {
        return Err("trials must be at least 1: an empty run has no FCT to report".into());
    }
    Ok(())
}

impl WorldConfig {
    /// Refuse a configuration [`World::new`] would hang or panic deep
    /// inside on: a zero interval re-arms its event at the same instant
    /// forever; an empty message or trial series has nothing to measure;
    /// a guardian with no sample tick never runs, and one with no `lg`
    /// configuration would protect a link the config says is bare.
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_interval == Some(Duration::ZERO) {
            return Err("sample interval must be > 0".into());
        }
        if self.guardd.is_some() {
            if self.sample_interval.is_none() {
                return Err("guardd needs a sample interval: it ingests on Ev::Sample".into());
            }
            if self.lg.is_none() {
                return Err("guardd needs an `lg` configuration to activate".into());
            }
        }
        match self.app {
            App::TcpTrials {
                msg_len, trials, ..
            }
            | App::RdmaTrials {
                msg_len, trials, ..
            } => check_trials(msg_len, trials),
            App::TcpStream { chunk, .. } => check_trials(chunk, 1),
            App::None => Ok(()),
        }
    }

    /// A quiet testbed at the given speed with LinkGuardian configured
    /// (active from the start) and no traffic.
    pub fn new(speed: LinkSpeed, loss: LossModel) -> WorldConfig {
        let actual = loss.mean_rate().max(1e-9);
        WorldConfig {
            speed,
            loss,
            rev_loss: LossModel::None,
            lg: Some(LgConfig::for_speed(speed, actual)),
            bidirectional: false,
            lg_active_from_start: true,
            guardd: None,
            ecn_threshold: None,
            app: App::None,
            sample_interval: None,
            mem_budget: None,
            seed: 1,
        }
    }
}

/// One probe sample (Figs 9/21), taken at every `Ev::Sample`.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRow {
    /// The sample instant: the end of the window this row covers.
    pub t: Time,
    /// Host1 payload goodput over the window `[t - interval, t)`, Gb/s.
    pub goodput: f64,
    /// Protected-port normal-queue depth (bytes) — the paper's "qdepth".
    pub qdepth: u64,
    /// LinkGuardian receiver reordering-buffer occupancy (bytes).
    pub rx_buffer: u64,
    /// End-to-end (transport) retransmissions in the window.
    pub e2e_retx: u64,
}

/// Experiment results accumulated by the world.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// FCTs of completed trials.
    pub fct: FctCollector,
    /// Per-trial flow traces (TCP) for the Fig 13 classification.
    pub tcp_traces: Vec<lg_transport::FlowTrace>,
    /// Per-trial RDMA traces.
    pub rdma_traces: Vec<lg_transport::RdmaTrace>,
    /// Stress frames injected.
    pub stress_tx_frames: u64,
    /// Transport-level retransmitted segments observed leaving host0.
    pub e2e_retx_total: u64,
}

/// The simulated testbed.
pub struct World {
    /// Configuration (immutable after construction).
    pub cfg: WorldConfig,
    /// Event queue.
    pub q: EventQueue<Ev>,
    /// Sender switch.
    pub sw_tx: Switch,
    /// Receiver switch.
    pub sw_rx: Switch,
    /// LinkGuardian sender instance (forward direction, at the Tx switch).
    pub lg_tx: LgSender,
    /// LinkGuardian receiver instance (forward direction, at the Rx switch).
    pub lg_rx: LgReceiver,
    /// Reverse-direction sender (at the Rx switch), bidirectional mode.
    pub lg2_tx: Option<LgSender>,
    /// Reverse-direction receiver (at the Tx switch), bidirectional mode.
    pub lg2_rx: Option<LgReceiver>,
    fwd_link: LinkDirection,
    rev_link: LinkDirection,
    /// The host-facing port of each switch (index = [`Side`] = host).
    host_ports: [SerialLink; 2],
    /// Hosts 0 (sender side) and 1 (receiver side).
    pub hosts: Vec<Host>,
    /// Probe rows, one per sample tick.
    pub probes: Vec<ProbeRow>,
    /// Results.
    pub out: Outcomes,
    /// Slab pool backing every in-flight packet of the testbed.
    pub pool: PacketPool,
    /// Observability state (metric snapshots, uid base, profile).
    pub obs: WorldObs,
    /// Shared memory budget when `WorldConfig::mem_budget` is set.
    pub budget: Option<lg_obs::MemBudget>,
    /// Guardian manager (see `WorldConfig::guardd`), fed the world's
    /// health events at every sample tick; its journal drains to the
    /// sink at publish.
    pub guardd: Option<GuardManager>,
    stress: Option<u32>, // frame_len when stress mode active
    stress_seq: u64,
    next_flow: u64,
    trials_remaining: u32,
    dummy_refresh_armed: [bool; 2],
    e2e_retx_window: u64,
    /// Payload bytes host1 received in the open probe window, and at
    /// its closing instant before `Ev::Sample` closed it: the windows
    /// are `[start, end)`, so those belong to the next row.
    goodput_bytes: [u64; 2],
    // Reusable action buffers (std::mem::take'd around each use) so the
    // steady-state event loop performs no per-packet allocation.
    rx_scratch: Vec<ReceiverAction>,
    tx_scratch: Vec<SenderAction>,
    filler_scratch: Vec<PktId>,
    transport_scratch: Vec<TransportAction>,
}

/// Trace instance label for a switch port: `side * 2 + port`
/// (`0`/`1` = Tx switch link/host port, `2`/`3` = Rx switch).
fn port_inst(side: Side, port: PortId) -> u16 {
    let s = match side {
        Side::Tx => 0u16,
        Side::Rx => 1u16,
    };
    s * 2 + port as u16
}

impl World {
    /// Build the testbed.
    pub fn new(cfg: WorldConfig) -> World {
        if let Err(msg) = cfg.validate() {
            panic!("invalid WorldConfig: {msg}");
        }
        // A fresh world owns its worker thread's trace ring: clear it so a
        // postmortem never mixes records from two worlds sharing a thread,
        // and capture the uid base for publishing normalized uids.
        lg_obs::trace::reset();
        let obs = WorldObs {
            uid_base: lg_packet::peek_next_uid(),
            profile_seen: lg_obs::sink::metrics_enabled().then_some(0),
            ..WorldObs::default()
        };
        let mut rng = Rng::new(cfg.seed);
        let link_cfg = LinkConfig::new(cfg.speed);
        let fwd_link = LinkDirection::corrupting(link_cfg, cfg.loss.clone(), rng.fork());
        let rev_link = LinkDirection::corrupting(link_cfg, cfg.rev_loss.clone(), rng.fork());

        let mut sw_tx = Switch::new("sw_tx", 2);
        let mut sw_rx = Switch::new("sw_rx", 2);
        sw_tx.add_route(HOST1, PORT_LINK);
        sw_tx.add_route(HOST0, PORT_HOST);
        sw_rx.add_route(HOST0, PORT_LINK);
        sw_rx.add_route(HOST1, PORT_HOST);
        if let Some(th) = cfg.ecn_threshold {
            sw_tx.set_port(PORT_LINK, EgressPort::new().with_ecn_threshold(th));
        }
        let budget = cfg.mem_budget.map(lg_obs::MemBudget::new);
        let mut host_ports = [SerialLink::default(), SerialLink::default()];
        if let Some(b) = &budget {
            sw_tx.attach_budget(b);
            sw_rx.attach_budget(b);
            host_ports.iter_mut().for_each(|p| p.set_budget(b));
        }

        let lg_cfg = cfg
            .lg
            .clone()
            .unwrap_or_else(|| LgConfig::for_speed(cfg.speed, 1e-9));
        let mut lg_tx = LgSender::new(lg_cfg.clone(), SW_TX, SW_RX);
        let mut lg_rx = LgReceiver::new(lg_cfg.clone(), SW_RX, SW_TX);
        if let Some(b) = &budget {
            lg_tx.attach_budget(b.clone());
            lg_rx.attach_budget(b.clone());
        }
        if cfg.lg.is_some() && cfg.lg_active_from_start {
            lg_tx.activate(cfg.loss.mean_rate().max(1e-9));
            lg_rx.activate();
        }
        let (lg2_tx, lg2_rx) = if cfg.bidirectional && cfg.lg.is_some() {
            // Control packets cross un-tunneled; under bidirectional
            // corruption they rely on replication (§5).
            let mut cfg2 = lg_cfg.clone();
            cfg2.control_copies = cfg2.control_copies.max(3);
            cfg2.dummy_copies = cfg2.dummy_copies.max(2);
            let mut t = LgSender::new(cfg2.clone(), SW_RX, SW_TX);
            let mut r = LgReceiver::new(cfg2, SW_TX, SW_RX);
            if let Some(b) = &budget {
                t.attach_budget(b.clone());
                r.attach_budget(b.clone());
            }
            if cfg.lg_active_from_start {
                t.activate(cfg.rev_loss.mean_rate().max(1e-9));
                r.activate();
            }
            (Some(t), Some(r))
        } else {
            (None, None)
        };

        let mut q = EventQueue::new();
        if let Some(interval) = cfg.sample_interval {
            q.schedule_after(interval, Ev::Sample);
        }
        match cfg.app {
            App::None => {}
            _ => {
                q.schedule_at(Time::ZERO, Ev::TrialStart);
            }
        }
        let trials_remaining = match cfg.app {
            App::TcpTrials { trials, .. } | App::RdmaTrials { trials, .. } => trials,
            App::TcpStream { .. } => u32::MAX,
            App::None => 0,
        };
        let guardd = cfg.guardd.map(|gc| GuardManager::new("world", gc));

        World {
            cfg,
            q,
            sw_tx,
            sw_rx,
            lg_tx,
            lg_rx,
            lg2_tx,
            lg2_rx,
            fwd_link,
            rev_link,
            host_ports,
            hosts: vec![Host::new(HOST0), Host::new(HOST1)],
            probes: Vec::new(),
            out: Outcomes::default(),
            pool: PacketPool::new(),
            obs,
            budget,
            guardd,
            stress: None,
            stress_seq: 0,
            next_flow: 1,
            trials_remaining,
            dummy_refresh_armed: [false; 2],
            e2e_retx_window: 0,
            goodput_bytes: [0; 2],
            rx_scratch: Vec::new(),
            tx_scratch: Vec::new(),
            filler_scratch: Vec::new(),
            transport_scratch: Vec::new(),
        }
    }

    /// Line-rate stress (the paper's packet generator, §4.1): keep the
    /// protected port's normal queue backlogged with `frame_len`-byte
    /// frames addressed to host1.
    pub fn enable_stress(&mut self, frame_len: u32) {
        self.stress = Some(frame_len);
        self.refill_stress();
        self.kick_port(Side::Tx, PORT_LINK);
    }

    fn refill_stress(&mut self) {
        let Some(frame_len) = self.stress else { return };
        let now = self.q.now();
        while self.sw_tx.port(PORT_LINK).queue(Class::Normal).len() < 4 {
            let dg = lg_packet::UdpDatagram {
                flow: FlowId(0),
                payload_len: frame_len - 46, // headers: 14+20+8+4
                seq: self.stress_seq,
            };
            self.stress_seq += 1;
            self.out.stress_tx_frames += 1;
            let pkt = Packet::udp(HOST0, HOST1, dg, now);
            debug_assert_eq!(pkt.frame_len(), frame_len);
            let id = self.pool.insert(pkt);
            self.sw_tx
                .enqueue(PORT_LINK, Class::Normal, id, &mut self.pool);
        }
    }

    // ---------------------------------------------------------- event loop

    /// Run until the queue is empty or the clock passes `until`;
    /// returns the number of events handled. When the world profiles
    /// itself, every [`lg_obs::sink::PROFILE_STRIDE`]-th event is timed
    /// (the rule `pktsim` samples by); otherwise the loop pays one
    /// predictable branch per event.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut ran = 0u64;
        while let Some((now, ev)) = self.q.pop_if_before(until) {
            ran += 1;
            let timed = self.obs.profile_seen.as_mut().is_some_and(|seen| {
                *seen += 1;
                *seen % lg_obs::sink::PROFILE_STRIDE == 0
            });
            if timed {
                self.handle_timed(ev, now);
            } else {
                self.handle(ev, now);
            }
        }
        self.settle_host_ports(until);
        ran
    }

    /// Handle one event and charge its wall-clock time to its kind.
    #[inline(never)]
    fn handle_timed(&mut self, ev: Ev, now: Time) {
        let kind = ev.kind_idx();
        let t0 = std::time::Instant::now();
        self.handle(ev, now);
        self.obs.profile_counts[kind] += 1;
        self.obs.profile_ns[kind] += t0.elapsed().as_nanos() as u64;
    }

    /// Bring the host-facing ports' counters (and budget charge) to what
    /// they read once every event at or before `upto` has run: a
    /// computed hop has no completion event to count a frame at.
    fn settle_host_ports(&mut self, upto: Time) {
        self.host_ports[0].settle(upto, self.sw_tx.counters_mut(PORT_HOST));
        self.host_ports[1].settle(upto, self.sw_rx.counters_mut(PORT_HOST));
    }

    /// Run until no events remain (traffic drivers finished and drained).
    pub fn run_to_completion(&mut self) {
        self.run_until(Time::MAX);
    }

    /// Snapshot every instrumented component into the metrics registry at
    /// sim-time `now`. Ports, LinkGuardian instances and recirculation
    /// buffers all land as separate `(comp, inst)` rows.
    pub fn snapshot_metrics(&mut self, now: Time) {
        // Taken inside an event at `now`: a host-port frame finishing at
        // exactly `now` completes in a later-filed event, so not yet.
        self.settle_host_ports(Time(now.as_ps().saturating_sub(1)));
        let t = now.as_ps();
        let reg = &mut self.obs.registry;
        for (sw, name) in [(&self.sw_tx, "sw_tx"), (&self.sw_rx, "sw_rx")] {
            for port in 0..sw.n_ports() {
                let inst = format!("{name}:{port}");
                reg.record(t, "switch_port", &inst, &sw.counters(port));
            }
        }
        let mut senders: Vec<(&LgSender, &'static str)> = vec![(&self.lg_tx, "fwd")];
        if let Some(s) = self.lg2_tx.as_ref() {
            senders.push((s, "rev"));
        }
        for (s, inst) in senders {
            let stats = s.stats();
            let buf = s.tx_buffer_stats();
            let bytes = s.tx_buffer_bytes();
            reg.record_with(t, "lg_sender", inst, |m| {
                lg_obs::Observe::observe(&stats, m);
                lg_obs::Observe::observe(&buf, m);
                m.gauge("tx_buffer_bytes", bytes);
            });
        }
        let mut receivers: Vec<(&LgReceiver, &'static str)> = vec![(&self.lg_rx, "fwd")];
        if let Some(r) = self.lg2_rx.as_ref() {
            receivers.push((r, "rev"));
        }
        for (r, inst) in receivers {
            let stats = r.stats();
            let buf = r.rx_buffer_stats();
            let bytes = r.rx_buffer_bytes();
            let summary = r.retx_delay_histogram().summary();
            reg.record_with(t, "lg_receiver", inst, |m| {
                lg_obs::Observe::observe(&stats, m);
                lg_obs::Observe::observe(&buf, m);
                m.gauge("rx_buffer_bytes", bytes);
                m.hist("retx_delay_ps", summary);
            });
        }
        if let Some(b) = &self.budget {
            reg.record(t, "mem_budget", "world", b);
        }
    }

    /// Publish this world's metrics, trace records and profile to the
    /// process-wide JSONL sink under the deterministic sort key `label`,
    /// then clear the thread's trace ring. A no-op (beyond the ring
    /// clear) when the sink is disabled.
    pub fn publish_obs(&mut self, label: &str) {
        if !lg_obs::sink::metrics_enabled() {
            lg_obs::trace::reset();
            return;
        }
        self.snapshot_metrics(self.q.now());
        let mut lines = self.obs.registry.to_jsonl();
        lines.extend(self.obs.series.drain_jsonl(label));
        for ev in self.obs.health_events.drain(..) {
            lines.push(ev.to_json_line(label, "link", "fwd"));
        }
        self.obs.guard_fed = 0;
        if let Some(mgr) = self.guardd.as_mut() {
            lines.extend(mgr.take_journal());
        }
        let dropped = lg_obs::trace::dropped();
        let base = self.obs.uid_base;
        // uid 0 marks control records with no packet; keep it 0.
        lines.extend(lg_obs::trace::to_jsonl(
            &lg_obs::trace::drain(),
            dropped,
            |uid| uid.checked_sub(base).map_or(0, |d| d + 1),
        ));
        lg_obs::sink::submit_all(label, lines);
        if self.obs.profile_seen.is_some() {
            lg_obs::sink::submit_profile(
                label,
                &Ev::KIND_NAMES,
                &self.obs.profile_counts,
                &self.obs.profile_ns,
            );
        }
    }

    /// Public wrapper over the event dispatcher (used by profiling tools).
    pub fn handle_pub(&mut self, ev: Ev, now: Time) {
        self.handle(ev, now);
    }

    fn handle(&mut self, ev: Ev, now: Time) {
        match ev {
            Ev::PortEnqueue {
                side,
                port,
                class,
                id,
            } => {
                let (sw, pool) = self.sw_pool(side);
                sw.enqueue(port, class, id, pool);
                self.kick_port(side, port);
            }
            Ev::PortTxDone { side, port, id } => {
                let pkt = self.pool.get(id);
                let flen = pkt.frame_len();
                lg_trace!(
                    Level::Pkt,
                    Comp::Port,
                    Kind::TxDone,
                    port_inst(side, port),
                    now.as_ps(),
                    pkt.uid,
                    pkt.lg_data.map_or(0, |d| d.seq.raw() as u64),
                    id.index()
                );
                let lg_retx = pkt
                    .lg_data
                    .is_some_and(|d| d.kind == LgPacketType::Retransmit);
                let pause = matches!(pkt.payload, Payload::Lg(LgControl::Pause(_)));
                debug_assert_eq!(port, PORT_LINK, "host-facing ports are computed");
                self.switch_mut(side).port_mut(port).busy = false;
                self.switch_mut(side).tx_complete(port, flen);
                if lg_retx {
                    self.switch_mut(side).note_lg_retx(port);
                }
                if pause {
                    self.switch_mut(side).note_pause_tx(port);
                }
                self.deliver_from_port(side, id, now);
                if side == Side::Tx {
                    self.refill_stress();
                }
                self.kick_port(side, port);
            }
            Ev::WireArrive {
                side,
                from_link,
                id,
            } => self.on_wire_arrive(side, from_link, id, now),
            Ev::HostArrive { host, id } => self.on_host_arrive(host, id, now),
            Ev::HostWake { host } => {
                let mut actions = std::mem::take(&mut self.transport_scratch);
                if self.hosts[host].on_wake(now, &mut actions) {
                    self.apply_transport_actions(host, &mut actions, now);
                    if let Some(at) = self.hosts[host].rearm_wake(now) {
                        self.q.schedule_at(at, Ev::HostWake { host });
                    }
                }
                self.transport_scratch = actions;
            }
            Ev::LgTimeout {
                generation,
                instance,
            } => {
                let mut actions = std::mem::take(&mut self.rx_scratch);
                match instance {
                    LgInstance::Forward => {
                        self.lg_rx
                            .on_timeout(generation, now, &mut self.pool, &mut actions)
                    }
                    LgInstance::Reverse => {
                        if let Some(r) = self.lg2_rx.as_mut() {
                            r.on_timeout(generation, now, &mut self.pool, &mut actions);
                        }
                    }
                }
                self.apply_receiver_actions(&actions, instance, now);
                actions.clear();
                self.rx_scratch = actions;
            }
            Ev::LgBpTimer { instance } => {
                let mut actions = std::mem::take(&mut self.rx_scratch);
                match instance {
                    LgInstance::Forward => {
                        self.lg_rx.on_bp_timer(now, &mut self.pool, &mut actions)
                    }
                    LgInstance::Reverse => {
                        if let Some(r) = self.lg2_rx.as_mut() {
                            r.on_bp_timer(now, &mut self.pool, &mut actions);
                        }
                    }
                }
                self.apply_receiver_actions(&actions, instance, now);
                actions.clear();
                self.rx_scratch = actions;
            }
            Ev::PauseApply { pause, instance } => {
                let side = match instance {
                    LgInstance::Forward => Side::Tx,
                    LgInstance::Reverse => Side::Rx,
                };
                lg_trace!(
                    Level::Ctl,
                    Comp::Port,
                    Kind::PauseApply,
                    instance as u16,
                    now.as_ps(),
                    0u64,
                    0u64,
                    pause as u32
                );
                self.switch_mut(side)
                    .port_mut(PORT_LINK)
                    .set_paused(Class::Normal, pause);
                self.kick_port(side, PORT_LINK);
            }
            Ev::DummyRefresh { instance } => {
                let side = match instance {
                    LgInstance::Forward => Side::Tx,
                    LgInstance::Reverse => Side::Rx,
                };
                self.dummy_refresh_armed[instance as usize] = false;
                self.kick_port(side, PORT_LINK);
            }
            Ev::ActivateLg => {
                // Activation by explicit schedule sizes Eq. 2 from the
                // loss-model parameter; the monitoring plane
                // (`poll_guardd`) uses the rate it measured.
                let rate = self.fwd_link.loss().model().mean_rate().max(1e-9);
                self.lg_tx.activate(rate);
                self.lg_rx.activate();
                let rev_rate = self.rev_link.loss().model().mean_rate().max(1e-9);
                if let Some(t) = self.lg2_tx.as_mut() {
                    t.activate(rev_rate);
                }
                if let Some(r) = self.lg2_rx.as_mut() {
                    r.activate();
                }
                self.kick_port(Side::Tx, PORT_LINK);
                self.kick_port(Side::Rx, PORT_LINK);
            }
            Ev::SetLoss(model) => {
                self.fwd_link.set_loss_model(*model);
            }
            Ev::Sample => self.on_sample(now),
            Ev::TrialStart => self.start_trial(now),
        }
    }

    fn switch_mut(&mut self, side: Side) -> &mut Switch {
        match side {
            Side::Tx => &mut self.sw_tx,
            Side::Rx => &mut self.sw_rx,
        }
    }

    /// Disjoint borrows of one switch and the packet pool.
    fn sw_pool(&mut self, side: Side) -> (&mut Switch, &mut PacketPool) {
        match side {
            Side::Tx => (&mut self.sw_tx, &mut self.pool),
            Side::Rx => (&mut self.sw_rx, &mut self.pool),
        }
    }

    // -------------------------------------------------------- port service

    /// Start serializing the next eligible frame on a port, engaging the
    /// idle fillers (dummy / explicit-ACK queues) when the port runs dry.
    fn kick_port(&mut self, side: Side, port: PortId) {
        let now = self.q.now();
        if self.switch_mut(side).port(port).busy {
            return;
        }
        let mut next = self.switch_mut(side).dequeue(port);
        if next.is_none() && port == PORT_LINK {
            // Self-replenishing strictly-low-priority queues (Fig 5):
            // dummies from this side's sender instance, explicit ACKs from
            // this side's receiver instance (the latter only exists on the
            // Rx switch unless running bidirectionally).
            let mut filler = std::mem::take(&mut self.filler_scratch);
            match side {
                Side::Tx => {
                    self.lg_tx.make_dummies(now, &mut self.pool, &mut filler);
                    if let Some(r) = self.lg2_rx.as_mut() {
                        r.make_explicit_acks(now, &mut self.pool, &mut filler);
                    }
                    if self.lg_tx.has_unacked()
                        && self.lg_tx.config().dummy_copies > 0
                        && !self.dummy_refresh_armed[LgInstance::Forward as usize]
                    {
                        self.dummy_refresh_armed[LgInstance::Forward as usize] = true;
                        self.q.schedule_after(
                            DUMMY_REFRESH,
                            Ev::DummyRefresh {
                                instance: LgInstance::Forward,
                            },
                        );
                    }
                }
                Side::Rx => {
                    self.lg_rx
                        .make_explicit_acks(now, &mut self.pool, &mut filler);
                    if let Some(t) = self.lg2_tx.as_mut() {
                        t.make_dummies(now, &mut self.pool, &mut filler);
                        if t.has_unacked()
                            && t.config().dummy_copies > 0
                            && !self.dummy_refresh_armed[LgInstance::Reverse as usize]
                        {
                            self.dummy_refresh_armed[LgInstance::Reverse as usize] = true;
                            self.q.schedule_after(
                                DUMMY_REFRESH,
                                Ev::DummyRefresh {
                                    instance: LgInstance::Reverse,
                                },
                            );
                        }
                    }
                }
            }
            let got = !filler.is_empty();
            for f in filler.drain(..) {
                let (sw, pool) = self.sw_pool(side);
                sw.enqueue(PORT_LINK, Class::Low, f, pool);
            }
            self.filler_scratch = filler;
            if got {
                next = self.switch_mut(side).dequeue(port);
            }
        }
        let Some((_class, mut id)) = next else {
            return;
        };
        // Egress hooks: piggyback the *other* direction's ACK first so it
        // rides inside this direction's protection, then stamp. Each hook
        // copies-on-write, so a retransmit copy sharing its buffer with the
        // Tx mirror never mutates the shared slot in place.
        if side == Side::Tx && port == PORT_LINK {
            if self.pool.get(id).lg_ack.is_none() {
                if let Some(r) = self.lg2_rx.as_mut() {
                    id = r.stamp_ack(id, &mut self.pool);
                }
            }
            id = self.lg_tx.on_transmit(id, now, &mut self.pool);
        } else if side == Side::Rx && port == PORT_LINK {
            if self.pool.get(id).lg_ack.is_none() {
                // Piggyback the cumulative ACK on reverse-direction traffic.
                id = self.lg_rx.stamp_ack(id, &mut self.pool);
            }
            if let Some(t) = self.lg2_tx.as_mut() {
                id = t.on_transmit(id, now, &mut self.pool);
            }
        }
        self.switch_mut(side).port_mut(port).busy = true;
        let ser = self.cfg.speed.serialize(self.pool.get(id).wire_len());
        self.q
            .schedule_after(ser, Ev::PortTxDone { side, port, id });
    }

    /// A frame left a port: apply wire loss and schedule arrival. A
    /// corrupted frame's pool reference dies here — the LinkGuardian
    /// sender's Tx-buffer reference (if any) keeps the slot alive.
    fn deliver_from_port(&mut self, side: Side, id: PktId, now: Time) {
        // forward over the corrupting link, back over the reverse one
        let (link, peer, peer_sw) = match side {
            Side::Tx => (&mut self.fwd_link, Side::Rx, &mut self.sw_rx),
            Side::Rx => (&mut self.rev_link, Side::Tx, &mut self.sw_tx),
        };
        if link.deliver() {
            let ev = Ev::WireArrive {
                side: peer,
                from_link: true,
                id,
            };
            self.q.schedule_after(link.propagation(), ev);
        } else {
            lg_trace!(
                Level::Pkt,
                Comp::Link,
                Kind::CorruptDrop,
                side as u16,
                now.as_ps(),
                self.pool.get(id).uid,
                self.pool.get(id).lg_data.map_or(0, |d| d.seq.raw() as u64),
                id.index()
            );
            peer_sw.rx_corrupt(PORT_LINK);
            self.pool.release(id);
        }
    }

    /// Send a tenant packet through `side`'s pipeline to its egress
    /// port. A host-facing port is computed: the frame goes straight to
    /// the one `HostArrive` that ends the hop.
    fn forward(&mut self, side: Side, id: PktId, now: Time) {
        let pkt = self.pool.get(id);
        let (dst, ser) = (pkt.dst, self.cfg.speed.serialize(pkt.wire_len()));
        let sw = match side {
            Side::Tx => &mut self.sw_tx,
            Side::Rx => &mut self.sw_rx,
        };
        let port = sw.route(dst).expect("route");
        let arrive = now + sw.pipeline_latency;
        if port != PORT_HOST {
            let ev = Ev::PortEnqueue {
                side,
                port,
                class: Class::Normal,
                id,
            };
            self.q.schedule_at(arrive, ev);
            return;
        }
        let counters = sw.counters_mut(port);
        let link = &mut self.host_ports[side as usize];
        if let Some(done) = link.enqueue(now, arrive, ser, id, &mut self.pool, counters) {
            let at = done + HOST_HOP;
            let host = side as usize;
            self.q.schedule_at(at, Ev::HostArrive { host, id });
        }
    }

    // ----------------------------------------------------- switch ingress

    fn on_wire_arrive(&mut self, side: Side, from_link: bool, id: PktId, now: Time) {
        assert!(from_link, "host links deliver straight to hosts");
        let pkt = self.pool.get(id);
        let flen = pkt.frame_len();
        lg_trace!(
            Level::Pkt,
            Comp::Link,
            Kind::WireRx,
            if side == Side::Rx { 0u16 } else { 1u16 },
            now.as_ps(),
            pkt.uid,
            pkt.lg_data.map_or(0, |d| d.seq.raw() as u64),
            id.index()
        );
        if matches!(pkt.payload, Payload::Lg(LgControl::Pause(_))) {
            self.switch_mut(side).note_pause_rx(PORT_LINK);
        }
        match side {
            Side::Rx => {
                // Forward arrivals: the forward receiver is the outer
                // tunnel; its in-order deliveries then pass through the
                // reverse-instance sender (ACK absorption) before routing.
                self.sw_rx.rx_ok(PORT_LINK, flen);
                let mut actions = std::mem::take(&mut self.rx_scratch);
                self.lg_rx
                    .on_protected_rx(id, now, &mut self.pool, &mut actions);
                self.apply_receiver_actions(&actions, LgInstance::Forward, now);
                actions.clear();
                self.rx_scratch = actions;
            }
            Side::Tx => {
                self.sw_tx.rx_ok(PORT_LINK, flen);
                if self.lg2_rx.is_some() {
                    // Bidirectional: reverse-instance receiver first, its
                    // deliveries then reach the forward sender.
                    let mut actions = std::mem::take(&mut self.rx_scratch);
                    if let Some(r) = self.lg2_rx.as_mut() {
                        r.on_protected_rx(id, now, &mut self.pool, &mut actions);
                    }
                    self.apply_receiver_actions(&actions, LgInstance::Reverse, now);
                    actions.clear();
                    self.rx_scratch = actions;
                } else {
                    self.forward_sender_rx(id, now);
                }
            }
        }
    }

    /// Hand a packet that arrived at the Tx switch to the forward-instance
    /// sender (ACK/notification/pause absorption) and route any surviving
    /// tenant packet onward.
    fn forward_sender_rx(&mut self, id: PktId, now: Time) {
        let mut actions = std::mem::take(&mut self.tx_scratch);
        let fwd = self
            .lg_tx
            .on_reverse_rx(id, now, &mut self.pool, &mut actions);
        if let Some(p) = fwd {
            self.forward(Side::Tx, p, now);
        }
        self.apply_sender_actions(&actions, LgInstance::Forward);
        actions.clear();
        self.tx_scratch = actions;
    }

    /// Hand a packet delivered by the forward receiver (at the Rx switch)
    /// to the reverse-instance sender and route any surviving tenant
    /// packet onward.
    fn reverse_sender_rx(&mut self, id: PktId, now: Time) {
        let Some(t) = self.lg2_tx.as_mut() else {
            // Unidirectional: forward deliveries route directly.
            return self.forward(Side::Rx, id, now);
        };
        let mut actions = std::mem::take(&mut self.tx_scratch);
        let fwd = t.on_reverse_rx(id, now, &mut self.pool, &mut actions);
        if let Some(p) = fwd {
            self.forward(Side::Rx, p, now);
        }
        self.apply_sender_actions(&actions, LgInstance::Reverse);
        actions.clear();
        self.tx_scratch = actions;
    }

    fn apply_receiver_actions(
        &mut self,
        actions: &[ReceiverAction],
        instance: LgInstance,
        now: Time,
    ) {
        // The side hosting this instance's receiver (where its control
        // packets and deliveries originate).
        let rx_side = match instance {
            LgInstance::Forward => Side::Rx,
            LgInstance::Reverse => Side::Tx,
        };
        for &a in actions {
            match a {
                ReceiverAction::Deliver(id) => match instance {
                    // Deliveries pass through the co-located sender of the
                    // opposite direction (ACK absorption), then route.
                    LgInstance::Forward => self.reverse_sender_rx(id, now),
                    LgInstance::Reverse => self.forward_sender_rx(id, now),
                },
                ReceiverAction::SendReverse { id, class } => {
                    // Ingress-mirrored control (loss notifications, pause
                    // frames) reaches the reverse egress queue immediately;
                    // enqueueing it before the port is kicked guarantees it
                    // beats the self-replenishing explicit-ACK queue, as
                    // strict priority does in hardware.
                    let (sw, pool) = self.sw_pool(rx_side);
                    sw.enqueue(PORT_LINK, class, id, pool);
                }
                ReceiverAction::ArmTimeout {
                    deadline,
                    generation,
                } => {
                    self.q.schedule_at(
                        deadline.max(self.q.now()),
                        Ev::LgTimeout {
                            generation,
                            instance,
                        },
                    );
                }
                ReceiverAction::ArmBpTimer { at } => {
                    self.q
                        .schedule_at(at.max(self.q.now()), Ev::LgBpTimer { instance });
                }
            }
        }
        // The receiver may now owe an explicit ACK; if its egress port is
        // idle, the self-replenishing ACK queue must transmit it.
        self.kick_port(rx_side, PORT_LINK);
    }

    fn apply_sender_actions(&mut self, actions: &[SenderAction], instance: LgInstance) {
        // The side hosting this instance's sender (where retransmissions
        // are re-enqueued and pauses apply).
        let tx_side = match instance {
            LgInstance::Forward => Side::Tx,
            LgInstance::Reverse => Side::Rx,
        };
        let pipeline = self.switch_mut(tx_side).pipeline_latency;
        for &a in actions {
            match a {
                SenderAction::Emit { id, class, delay } => {
                    self.q.schedule_after(
                        delay + pipeline,
                        Ev::PortEnqueue {
                            side: tx_side,
                            port: PORT_LINK,
                            class,
                            id,
                        },
                    );
                }
                SenderAction::PauseNormal(pause) => {
                    // RX MAC absorbs the PFC frame and applies it after the
                    // MAC/scheduler processing delay; with the reverse-path
                    // latency this reproduces the paper's measured
                    // tflight_resume of 1.6-1.9 us (Appendix B.1).
                    self.q.schedule_after(
                        Duration::from_ns(1_100),
                        Ev::PauseApply { pause, instance },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------- hosts

    fn on_host_arrive(&mut self, host: usize, id: PktId, now: Time) {
        lg_trace!(
            Level::Pkt,
            Comp::Host,
            Kind::HostDeliver,
            host as u16,
            now.as_ps(),
            self.pool.get(id).uid,
            0u64,
            id.index()
        );
        let mut actions = std::mem::take(&mut self.transport_scratch);
        let pkt = self.pool.get(id);
        let payload_len = pkt.payload_len() as u64;
        let reply = self.hosts[host].on_frame(pkt, now, &mut actions);
        // the frame terminates at the host: its pool slot is done
        self.pool.release(id);
        if host == 1 {
            if let Some(interval) = self.cfg.sample_interval {
                let window_end = self.probes.last().map_or(Time::ZERO, |r| r.t) + interval;
                self.goodput_bytes[usize::from(now >= window_end)] += payload_len;
            }
        }
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
                            self.out.e2e_retx_total += 1;
                            self.e2e_retx_window += 1;
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
                    self.host_send(host, pkt);
                }
                TransportAction::WakeAt { deadline } => {
                    let at = deadline.max(now);
                    if self.hosts[host].request_wake(at) {
                        self.q.schedule_at(at, Ev::HostWake { host });
                    }
                }
                TransportAction::Complete {
                    started, completed, ..
                } => {
                    self.out.fct.record(completed.saturating_since(started));
                    self.finish_trial(host);
                }
            }
        }
    }

    /// Host-generated packets enter the pool here (the transport state
    /// machines build owned `Packet`s; the event loop only moves handles).
    fn host_send(&mut self, host: usize, pkt: Packet) {
        let (dst, ser) = (pkt.dst, self.cfg.speed.serialize(pkt.wire_len()));
        let id = self.pool.insert(pkt);
        let sent = self.hosts[host].nic.depart(self.q.now(), ser);
        // the frame reaches the switch after stack delay + serialization
        // + propagation, and its egress queue one pipeline later
        let side = if host == 0 { Side::Tx } else { Side::Rx };
        let sw = self.switch_mut(side);
        let port = sw.route(dst).expect("route");
        let pipeline = sw.pipeline_latency;
        self.q.schedule_at(
            sent + HOST_HOP + pipeline,
            Ev::PortEnqueue {
                side,
                port,
                class: Class::Normal,
                id,
            },
        );
    }

    // ----------------------------------------------------------- trials

    fn start_trial(&mut self, now: Time) {
        if self.trials_remaining == 0 {
            return;
        }
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        let mut actions = std::mem::take(&mut self.transport_scratch);
        match self.cfg.app.clone() {
            App::None => {}
            App::TcpTrials {
                variant, msg_len, ..
            } => {
                self.hosts[1].tcp_rx = Some(TcpReceiver::new(flow, HOST1, HOST0));
                self.hosts[0].start_tcp(HOST1, flow, variant, msg_len, now, &mut actions);
                self.apply_transport_actions(0, &mut actions, now);
            }
            App::RdmaTrials {
                msg_len,
                selective_repeat,
                ..
            } => {
                self.hosts[1].rdma_rx =
                    Some(RdmaResponder::new(flow, HOST1, HOST0, selective_repeat));
                let mut tx = RdmaRequester::new(
                    RdmaConfig {
                        selective_repeat,
                        ..RdmaConfig::default()
                    },
                    flow,
                    HOST0,
                    HOST1,
                    msg_len,
                );
                tx.start_into(now, &mut actions);
                self.hosts[0].rdma_tx = Some(tx);
                self.apply_transport_actions(0, &mut actions, now);
            }
            App::TcpStream {
                variant,
                chunk,
                end,
            } => {
                if now > end {
                    self.trials_remaining = 0;
                    self.transport_scratch = actions;
                    return;
                }
                self.hosts[1].tcp_rx = Some(TcpReceiver::new(flow, HOST1, HOST0));
                self.hosts[0].start_tcp(HOST1, flow, variant, chunk, now, &mut actions);
                self.apply_transport_actions(0, &mut actions, now);
            }
        }
        self.transport_scratch = actions;
    }

    fn finish_trial(&mut self, host: usize) {
        if let Some(tx) = self.hosts[host].tcp_tx.take() {
            self.out.tcp_traces.push(tx.trace());
            self.hosts[host].tcp_spent = Some(tx);
        }
        if let Some(tx) = self.hosts[host].rdma_tx.take() {
            self.out.rdma_traces.push(tx.trace());
        }
        if self.trials_remaining != u32::MAX {
            self.trials_remaining = self.trials_remaining.saturating_sub(1);
        }
        if self.trials_remaining > 0 {
            let gap = match self.cfg.app {
                App::TcpTrials { gap, .. } | App::RdmaTrials { gap, .. } => gap,
                App::TcpStream { .. } => Duration::ZERO,
                App::None => Duration::ZERO,
            };
            let at = self.q.now() + gap;
            self.q.schedule_at(at, Ev::TrialStart);
        }
    }

    // ------------------------------------------------------------ probes

    fn on_sample(&mut self, now: Time) {
        let interval = self.cfg.sample_interval.expect("sampling enabled");
        // The heavyweight full-registry snapshot only serves the
        // `--metrics-out` dump; the streaming bank and the health
        // estimator are allocation-light and run on every tick, so
        // enabling telemetry costs a few percent, not tens (recorded as
        // `obs.telemetry_ratio` by `perf/run.sh --trace 1`).
        if lg_obs::sink::metrics_enabled() {
            self.snapshot_metrics(now);
        }
        self.sample_timeseries(now, interval);
        let c = self.sw_rx.counters(PORT_LINK);
        if let Some(ev) =
            self.obs
                .link_health
                .observe_cumulative(now.as_ps(), c.frames_rx_all, c.frames_rx_ok)
        {
            self.obs.health_events.push(ev);
        }
        self.poll_guardd(now);
        self.q.schedule_after(interval, Ev::Sample);
    }

    /// Feed one window of every tracked metric into the telemetry bank
    /// and close the window's probe row.
    fn sample_timeseries(&mut self, now: Time, interval: Duration) {
        let t = now.as_ps();
        self.obs.next_window += 1;
        let w = self.obs.next_window;
        let qdepth = self.sw_tx.queue_bytes(PORT_LINK, Class::Normal);
        let rx_buffer = self.lg_rx.rx_buffer_bytes();
        let e2e_retx = std::mem::take(&mut self.e2e_retx_window);
        let drops = self.fwd_link.loss().drops();
        // Per-window mean recovery latency (≈ hole duration at the
        // receiver) from the cumulative retx-delay histogram.
        let h = self.lg_rx.retx_delay_histogram();
        let count = h.len();
        let sum = if count > 0 {
            h.mean() * count as f64
        } else {
            0.0
        };
        let (seen_count, seen_sum) = self.obs.retx_delay_seen;
        let win_mean = if count > seen_count {
            (sum - seen_sum) / (count - seen_count) as f64
        } else {
            0.0
        };
        self.obs.retx_delay_seen = (count, sum);
        let b = &mut self.obs.series;
        let keys = *self.obs.ts_keys.get_or_insert_with(|| {
            [
                b.key("switch_port", "sw_tx:0", "qdepth_bytes"),
                b.key("lg_sender", "fwd", "tx_buffer_bytes"),
                b.key("lg_receiver", "fwd", "rx_buffer_bytes"),
                b.key("lg_receiver", "fwd", "retx_delay_mean_ps"),
                b.key("link", "fwd", "post_fec_drops"),
                b.key("host", "h0", "e2e_retx"),
            ]
        });
        b.sample_at(keys[0], t, w, qdepth as f64);
        b.sample_at(keys[1], t, w, self.lg_tx.tx_buffer_bytes() as f64);
        b.sample_at(keys[2], t, w, rx_buffer as f64);
        b.sample_at(keys[3], t, w, win_mean);
        b.sample_at(keys[4], t, w, drops as f64);
        b.sample_at(keys[5], t, w, e2e_retx as f64);
        let [bytes, late] = self.goodput_bytes;
        self.goodput_bytes = [late, 0];
        self.probes.push(ProbeRow {
            t: now,
            goodput: (bytes as f64 * 8.0) / interval.as_secs_f64() / 1e9,
            qdepth,
            rx_buffer,
            e2e_retx,
        });
    }

    /// Feed the guardian manager (if attached) the health transitions
    /// accumulated since its last look at the stream, tick it, and
    /// actuate its decisions. The testbed has one protected link (id 0),
    /// so `Enable` activates LinkGuardian from the observed windowed
    /// rate, with the Eq. 2 copies toward `LgConfig::target_loss_rate`
    /// on the trace row; `Retire`/`Defer` only move the manager's own
    /// budget bookkeeping (there is no LinkGuardian deactivation path in
    /// the cores — the paper treats repair as out of band, §3.6).
    fn poll_guardd(&mut self, now: Time) {
        let Some(mgr) = self.guardd.as_mut() else {
            return;
        };
        for ev in &self.obs.health_events[self.obs.guard_fed..] {
            mgr.ingest(GuardInput::from_health_event(0, ev));
        }
        self.obs.guard_fed = self.obs.health_events.len();
        mgr.tick(now.as_ps());
        for d in mgr.drain_decisions() {
            if d.action == GuardAction::Enable && !self.lg_tx.is_active() {
                let rate = d.rate.max(1e-9);
                lg_trace!(
                    Level::Ctl,
                    Comp::World,
                    Kind::CorruptdFlip,
                    0u16,
                    now.as_ps(),
                    0u64,
                    0u64,
                    linkguardian::eq::retx_copies(rate, self.lg_tx.config().target_loss_rate)
                );
                self.lg_tx.activate(rate);
                self.lg_rx.activate();
                self.kick_port(Side::Tx, PORT_LINK);
                self.kick_port(Side::Rx, PORT_LINK);
            }
        }
    }

    /// Stop injecting stress frames (the tail drains normally).
    pub fn disable_stress(&mut self) {
        self.stress = None;
    }

    /// Unique stress frames delivered end-to-end.
    pub fn stress_delivered(&self) -> u64 {
        self.hosts[1].stress_rx_frames
    }
}
