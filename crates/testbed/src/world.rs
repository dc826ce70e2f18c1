//! The simulated testbed of Figure 7: a sender host, the LinkGuardian
//! sender switch ("sw2"), the corrupting optical link (the VOA), the
//! LinkGuardian receiver switch ("sw6"), and a receiver host.
//!
//! ```text
//!  host0 ──► sw_tx ══(corrupting link)══► sw_rx ──► host1
//!        ◄──       ◄═(clean reverse)════╡       ◄──
//! ```
//!
//! All components are the pure state machines from the other crates, and
//! the events that bind them run through the event path both testbed
//! loops share (the `port` and `host` modules). This module holds the
//! testbed's topology and what only it has: the stress generator, probes,
//! telemetry, the guardian poll and its control events. The host NICs
//! and host-facing switch ports are computed ([`SerialLink`]), not
//! simulated (DESIGN.md §19).
//!
//! Under line-rate stress the world repeats itself one frame period
//! later until a frame is lost, and a serial trial series one trial
//! later, so [`World::run_until`] computes those clean periods instead
//! of simulating them, through the `cycle` module both loops share
//! (DESIGN.md §23): at a forward departure or a trial start it compares
//! the world with the one a period earlier and, if they match up to the
//! shift, advances every pending instant, sequence, counter and uid by
//! whole periods, drawing the wire losses ahead in order. This module
//! keeps only what is stress-specific, as that module's hooks: when to
//! mark, the stretch's floor, host1's leg as a [`Train`], the receiver's
//! drain, and that a stretch counts no events.
//! [`World::handle_pub`] and everything that is neither a clean stress
//! period nor a clean trial stay event by event.

use lg_guardd::{GuardAction, GuardInput, GuardManager};
use lg_link::{LinkConfig, LinkDirection, LinkSpeed, LossModel};
use lg_obs::health::{HealthConfig, HealthEstimator, HealthEvent};
use lg_obs::timeseries::SeriesBank;
use lg_obs::trace::{Comp, Kind, Level};
use lg_obs::{lg_trace, MetricsRegistry};
use lg_packet::{FlowId, NodeId, Packet, PacketPool};
use lg_sim::{Duration, EventQueue, Rng, Time};
use lg_switch::{Class, EgressPort, PortId, SerialLink, Switch, Train};
use lg_transport::{CcVariant, FlowTrace, RdmaTrace};
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender};

use crate::cycle::{self, shift, Cycle, Feed, Mark, Periodic, NOW};
pub use crate::cycle::{Causes, StretchCensus};
use crate::host::{self, Trials};
pub use crate::host::{Host, HOST_HOP};
use crate::port::{self, Exit, LgPort, Parts, PortLoop, PortScratch};

/// Which switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The LinkGuardian sender switch (upstream of the corrupting link).
    Tx,
    /// The LinkGuardian receiver switch (downstream).
    Rx,
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

pub use crate::port::Ev;

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
    /// RNG seed.
    pub seed: u64,
}

impl App {
    /// Refuse a trial series the loops cannot run or report on.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (msg_len, trials) = match *self {
            App::TcpTrials {
                msg_len, trials, ..
            }
            | App::RdmaTrials {
                msg_len, trials, ..
            } => (msg_len, trials),
            App::TcpStream { chunk, .. } => (chunk, 1),
            App::None => return Ok(()),
        };
        if msg_len == 0 {
            return Err("message length must be at least 1 byte".into());
        }
        if trials == 0 {
            return Err("trials must be at least 1: an empty run has no FCT to report".into());
        }
        Ok(())
    }
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
        self.app.check()
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
    /// TCP segments sent again by either host's transport. RDMA
    /// go-back-N re-sends are not counted (`fct_experiment` adds the
    /// `rdma_traces` sums for its `e2e_retx`).
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
    /// Guardian manager (see `WorldConfig::guardd`), fed the world's
    /// health events at every sample tick; its journal drains to the
    /// sink at publish.
    pub guardd: Option<GuardManager>,
    stress: Option<u32>, // frame_len when stress mode active
    stress_seq: u64,
    trials: Trials,
    /// A dummy refresh is pending for the sender at each side's link port.
    dummy_refresh_armed: [bool; 2],
    /// `out.e2e_retx_total` at the last probe sample.
    e2e_retx_seen: u64,
    /// Payload bytes host1 received in the open probe window, and at
    /// its closing instant before `Ev::Sample` closed it: the windows
    /// are `[start, end)`, so those belong to the next row.
    goodput_bytes: [u64; 2],
    lg_scratch: PortScratch,
    /// The marks, census and event count of `run_until`'s computed
    /// stretches and trials, and the forward departures to let pass
    /// before the next stress mark.
    cycle: Cycle,
    stretch_wait: u64,
    /// The admitted stretch's frame as delivered to host1, how many of
    /// its frames reach host1 inside it, and their length on the link.
    carried: Option<(Packet, u64, u32)>,
    /// The stretch's late frames (a buffer).
    late: Vec<(u64, Time)>,
}

/// A stretch is worth its entry cost from this many periods on.
const MIN_STRETCH: u64 = 64;

/// Forward departures between a failed mark and the next try. A mark
/// costs about what six simulated frames do, and a recovery settles
/// into a period within a few of them after it flushes out.
const RETRY_PERIODS: u64 = 8;

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
        let host_ports = [SerialLink::default(), SerialLink::default()];

        let lg_cfg = cfg
            .lg
            .clone()
            .unwrap_or_else(|| LgConfig::for_speed(cfg.speed, 1e-9));
        let mut lg_tx = LgSender::new(lg_cfg.clone(), SW_TX, SW_RX);
        let mut lg_rx = LgReceiver::new(lg_cfg.clone(), SW_RX, SW_TX);
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
        if !matches!(cfg.app, App::None) {
            q.schedule_at(Time::ZERO, Ev::TrialStart);
        }
        let guardd = cfg.guardd.map(|gc| GuardManager::new("world", gc));
        let trials = Trials::new(cfg.app.clone());

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
            guardd,
            stress: None,
            stress_seq: 0,
            trials,
            dummy_refresh_armed: [false; 2],
            e2e_retx_seen: 0,
            goodput_bytes: [0; 2],
            lg_scratch: PortScratch::default(),
            cycle: Cycle::default(),
            stretch_wait: 0,
            carried: None,
            late: Vec::new(),
        }
    }

    /// Line-rate stress (the paper's packet generator, §4.1): keep the
    /// protected port's normal queue backlogged with `frame_len`-byte
    /// frames addressed to host1.
    ///
    /// # Panics
    /// Panics unless `frame_len` is a whole Ethernet frame, 64 to 1518
    /// bytes: a shorter one is padded (or, below its 46 bytes of
    /// headers, has no payload to carry).
    pub fn enable_stress(&mut self, frame_len: u32) {
        let (lo, hi) = (lg_packet::eth::MIN_FRAME_LEN, lg_packet::eth::MTU_FRAME_LEN);
        assert!(
            (lo..=hi).contains(&frame_len),
            "stress frame length {frame_len} B is outside [{lo}, {hi}] B"
        );
        self.stress = Some(frame_len);
        self.refill_stress();
        port::kick(self, Side::Tx, self.q.now());
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
    /// predictable branch per event. The clean stretches of a stress run
    /// and the clean trials of a trial series are computed rather than
    /// simulated (DESIGN.md §23). A computed trial counts the events it
    /// stands for, so a trial series reports what the event path would;
    /// a computed stretch counts none.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let start = self.cycle.begin(until);
        while let Some((now, ev)) = self.q.pop_if_before(until) {
            self.cycle.events += 1;
            let fwd_done = matches!(ev, Ev::PortTxDone { at: Side::Tx, .. });
            let timed = self.obs.profile_seen.as_mut().is_some_and(|seen| {
                *seen += 1;
                *seen % lg_obs::sink::PROFILE_STRIDE == 0
            });
            if timed {
                self.handle_timed(ev, now);
            } else {
                port::handle(self, ev, now);
            }
            if fwd_done && self.stress.is_some() {
                match self.stretch_wait.checked_sub(1) {
                    Some(wait) => self.stretch_wait = wait,
                    None => self.stretch_wait = self.try_stretch(),
                }
            }
        }
        let ran = self.cycle.end(start);
        port::settle_host_ports(self, until);
        ran
    }

    /// At a forward departure, compute a stretch if the world repeats
    /// (`cycle::period`, DESIGN.md §23); returns the forward departures
    /// to let pass before the next mark. A stretch cut short by a kept
    /// event or `until` tries again once it has run; one cut by a lost
    /// frame, and a mark that missed, a few periods on. Out of line,
    /// like [`cycle::trial_start`], to keep the run loop small.
    #[inline(never)]
    fn try_stretch(&mut self) -> u64 {
        self.cycle.census.marks += 1;
        let r = cycle::period(self, self.q.now());
        let c = &mut self.cycle.census;
        c.stretches += u64::from(r.k > 0);
        c.periods += r.k;
        let wait = if r.missed {
            RETRY_PERIODS
        } else {
            r.to_kept - r.k
        };
        if wait > 0 {
            // The next mark is periods away: it compares with none.
            self.cycle.forget();
        }
        wait
    }

    /// What host1 counts per frame it receives.
    fn host1_counts(&mut self) -> [&mut u64; 5] {
        let [g0, g1] = &mut self.goodput_bytes;
        let [bytes, frames, wire] = self.hosts[1].counters();
        [bytes, frames, wire, g0, g1]
    }

    /// Handle one event and charge its wall-clock time to its kind.
    #[inline(never)]
    fn handle_timed(&mut self, ev: Ev, now: Time) {
        let kind = ev.kind_idx();
        let t0 = std::time::Instant::now();
        port::handle(self, ev, now);
        self.obs.profile_counts[kind] += 1;
        self.obs.profile_ns[kind] += t0.elapsed().as_nanos() as u64;
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
        port::settle_host_ports(self, Time(now.as_ps().saturating_sub(1)));
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
        port::handle(self, ev, now);
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
        let total = self.out.e2e_retx_total;
        let e2e_retx = total - std::mem::replace(&mut self.e2e_retx_seen, total);
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
                port::kick(self, Side::Tx, now);
                port::kick(self, Side::Rx, now);
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

    /// The census of the stretches and trials [`World::run_until`]
    /// computed.
    pub fn stretch_census(&self) -> StretchCensus {
        self.cycle.census
    }
}

/// The testbed's topology for the shared event path: one link port per
/// switch, facing the other's; each switch's other port faces its host.
/// The forward instance is the outer tunnel, so the Tx port's sender
/// and the Rx port's receiver fill an idle port first.
impl PortLoop for World {
    type Port = Side;

    fn lg_port(&mut self, side: Side) -> LgPort<'_> {
        let [tx_armed, rx_armed] = &mut self.dummy_refresh_armed;
        let (sw, tx, rx) = match side {
            Side::Tx => (
                &mut self.sw_tx,
                Some((&mut self.lg_tx, tx_armed)),
                self.lg2_rx.as_mut(),
            ),
            Side::Rx => (
                &mut self.sw_rx,
                self.lg2_tx.as_mut().map(|t| (t, rx_armed)),
                Some(&mut self.lg_rx),
            ),
        };
        LgPort {
            sw,
            index: side as usize,
            port: PORT_LINK,
            tx,
            rx,
            tx_first: side == Side::Tx,
            speed: self.cfg.speed,
            pool: &mut self.pool,
            scratch: &mut self.lg_scratch,
        }
    }

    fn parts(&mut self) -> Parts<'_, Side> {
        Parts {
            q: &mut self.q,
            pool: &mut self.pool,
            speed: self.cfg.speed,
            hosts: &mut self.hosts,
            trials: &mut self.trials,
            fct: &mut self.out.fct,
            e2e_retx: &mut self.out.e2e_retx_total,
        }
    }

    fn link(&mut self, from: Side) -> (&mut LinkDirection, usize, Side) {
        // forward over the corrupting link, back over the reverse one
        match from {
            Side::Tx => (&mut self.fwd_link, 0, Side::Rx),
            Side::Rx => (&mut self.rev_link, 1, Side::Tx),
        }
    }

    fn exit(&self, from: Side) -> Exit<Side> {
        Exit::Host(from as usize)
    }

    fn uplink(&self, host: usize) -> Side {
        [Side::Tx, Side::Rx][host]
    }

    fn host_port(
        &mut self,
        host: usize,
    ) -> (&mut Switch, PortId, &mut SerialLink, &mut PacketPool) {
        let sw = match host {
            0 => &mut self.sw_tx,
            _ => &mut self.sw_rx,
        };
        let link = &mut self.host_ports[host];
        (sw, PORT_HOST, link, &mut self.pool)
    }

    fn departed(&mut self, from: Side) {
        if from == Side::Tx {
            self.refill_stress();
        }
    }

    fn host_rx(&mut self, host: usize, bytes: u64, now: Time) {
        // goodput of the open probe window
        if host == 1 {
            if let Some(interval) = self.cfg.sample_interval {
                let window_end = self.probes.last().map_or(Time::ZERO, |r| r.t) + interval;
                self.goodput_bytes[usize::from(now >= window_end)] += bytes;
            }
        }
    }

    fn trial_start(&mut self, now: Time) -> Time {
        cycle::trial_start(self, now)
    }

    fn trial_done(&mut self, host: usize) {
        let h = &self.hosts[host];
        if let Some(tx) = &h.tcp_tx {
            self.out.tcp_traces.push(tx.trace());
        }
        if let Some(tx) = &h.rdma_tx {
            self.out.rdma_traces.push(tx.trace());
        }
    }

    fn control(&mut self, ev: Ev, now: Time) {
        match ev {
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
                port::kick(self, Side::Tx, now);
                port::kick(self, Side::Rx, now);
            }
            Ev::SetLoss(model) => self.fwd_link.set_loss_model(*model),
            Ev::Sample => self.on_sample(now),
            _ => unreachable!("the shared event path handles {ev:?}"),
        }
    }
}

/// What a period moves in the testbed: its one forward pair (the
/// reverse instance refuses every mark), both switches and both link
/// directions. Under stress a stretch computes host1's leg as a
/// [`Train`] and counts no events. A world that profiles itself (built
/// while the metrics sink is on: its profile samples every 64th event
/// handled) computes no trial.
impl Periodic for World {
    fn cycle(&mut self) -> &mut Cycle {
        &mut self.cycle
    }

    /// No stretch with host traffic (host0 then receives nothing) or
    /// under a packet-level trace, and no trial batch under a
    /// control-level one: a batch runs no handler, so it would leave out
    /// the rows its periods write.
    fn batches(&self) -> bool {
        let (unit, level) = match self.stress {
            Some(_) => (matches!(self.cfg.app, App::None), Level::Pkt),
            None => (self.obs.profile_seen.is_none(), Level::Ctl),
        };
        unit && self.lg2_tx.is_none() && !lg_obs::trace::enabled(level)
    }

    fn pairs(&self) -> usize {
        1
    }

    fn pair(&mut self, _: usize) -> (&mut LgSender, &mut LgReceiver, &mut bool) {
        let armed = &mut self.dummy_refresh_armed[Side::Tx as usize];
        (&mut self.lg_tx, &mut self.lg_rx, armed)
    }

    fn pair_at(_: usize, _: PortId) -> usize {
        0
    }

    fn locate(at: Side) -> (usize, PortId) {
        (at as usize, PORT_LINK)
    }

    fn switches(&self) -> usize {
        2
    }

    fn switch(&mut self, i: usize) -> &mut Switch {
        match i {
            0 => &mut self.sw_tx,
            _ => &mut self.sw_rx,
        }
    }

    /// A stretch leaves out the host ports' counters, which
    /// [`SerialLink::enqueue_train`] computes (high-water marks hold).
    fn moves_counters(&self, port: PortId) -> bool {
        self.stress.is_none() || port == PORT_LINK
    }

    fn directions(&self) -> usize {
        2
    }

    fn direction(&mut self, label: usize) -> &mut LinkDirection {
        match label {
            0 => &mut self.fwd_link,
            _ => &mut self.rev_link,
        }
    }

    fn traces(&mut self) -> Option<(&mut Vec<FlowTrace>, &mut Vec<RdmaTrace>)> {
        Some((&mut self.out.tcp_traces, &mut self.out.rdma_traces))
    }

    /// The stress generator's refill counters, and the goodput window
    /// unless a train computes it.
    fn extras(&mut self, f: &mut dyn FnMut(&mut u64)) {
        [&mut self.stress_seq, &mut self.out.stress_tx_frames]
            .into_iter()
            .for_each(&mut *f);
        if self.stress.is_none() {
            self.goodput_bytes.iter_mut().for_each(f);
        }
    }

    fn udp_seq(&self) -> u64 {
        self.stress_seq
    }

    /// Host1's port drains a backlog at its own rate (the data header
    /// is stripped before it), so a stretch computes it as a train; and
    /// a stretch counts no events.
    fn trains(&self) -> bool {
        self.stress.is_some()
    }

    /// A stretch is worth its entry cost from [`MIN_STRETCH`] periods
    /// on, and must be long enough that every pending host1 arrival
    /// falls inside it. Host1's port is handed its frames one a period,
    /// the first at the next link arrival at the receiver switch, and
    /// refuses a train it cannot compute.
    fn admit(&mut self, now: Time, k: u64, period: Duration, feed: &Feed) -> bool {
        let last = feed.last.map_or(now, |t| t.max(now));
        let least = MIN_STRETCH.max(last.saturating_since(now).as_ps() / period.as_ps() + 1);
        // The receiver files link arrivals in time order, so the first
        // filed is the next.
        let Some((first, next)) = feed.next.filter(|_| k >= least) else {
            return false;
        };
        // The frame as it arrives at the receiver switch, and as delivered.
        let arriving = self.pool.get(next);
        let tmpl = Packet {
            lg_data: None,
            ..arriving.clone()
        };
        let train = Train {
            first,
            n: k,
            period,
            pipe: self.sw_rx.pipeline_latency,
            ser: self.cfg.speed.serialize(tmpl.wire_len()),
            len: tmpl.frame_len(),
        };
        self.late.clear();
        let arriving_len = arriving.frame_len();
        let delivered = self.host_ports[1].enqueue_train(
            &train,
            self.sw_rx.counters_mut(PORT_HOST),
            HOST_HOP,
            now + Duration::from_ps(k * period.as_ps()),
            &mut self.late,
        );
        self.carried = delivered.map(|n| (tmpl, n, arriving_len));
        delivered.is_some()
    }

    /// The receiver drains through the stretch's arrivals; its frames
    /// reach host1 inside it — all alike, so host1 counts one and then
    /// the rest at once — or are filed.
    fn land(&mut self, prev: &Mark, cur: &Mark, k: u64, end: Time) {
        let (tmpl, delivered, arriving_len) = self.carried.take().expect("admitted");
        let period = Duration::from_ps(cycle::steps(prev, cur, 1)(NOW));
        self.lg_rx.advance(k, period, arriving_len);
        if delivered > 0 {
            let before = self.host1_counts().map(|c| *c);
            let id = self.pool.insert(tmpl.clone());
            host::arrive(self, 1, id, end);
            for (c, b) in self.host1_counts().into_iter().zip(before) {
                *c += (delivered - 1) * (*c - b);
            }
        }
        for &(j, at) in &self.late {
            let mut p = tmpl.clone();
            shift(&mut p, cycle::steps(prev, cur, j), 0);
            let id = self.pool.insert(p);
            self.q.schedule_at(at, Ev::HostArrive { host: 1, id });
        }
    }
}
