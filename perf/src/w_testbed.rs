//! The two `testbed::World` workloads: the §4.1 line-rate stress test
//! and the Fig 11 / Table 2 serial-FCT experiment.

use std::path::Path;
use std::time::Instant;

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::world::PORT_LINK;
use lg_testbed::{App, Ev, World, WorldConfig};
use lg_transport::CcVariant;
use linkguardian::LgConfig;

use crate::kernels;
use crate::metrics::{FC, ST};
use crate::span::{since, Recorder, Sampled};
use crate::workload::{
    Ab, AbRatio, Digest, LayerValues, Outcome, Rep, Variant, Workload, MEASURE_SPAN,
};

const SPEED: LinkSpeed = LinkSpeed::G100;
const LOSS: f64 = 1e-3;
const FRAME_LEN: u32 = 1518;
const MSG_LEN: u32 = 24_387;

/// Event kinds whose count and mean cost are per-layer metrics.
const REPORTED_KINDS: [&str; 8] = [
    "port_enqueue",
    "port_tx_done",
    "wire_arrive",
    "host_arrive",
    "host_tx_done",
    "host_wake",
    "dummy_refresh",
    "trial_start",
];

fn kind_metric(kind: &str, suffix: &str) -> &'static str {
    let want = format!("testbed.world.ev.{kind}.{suffix}");
    crate::metrics::PER_LAYER
        .iter()
        .map(|l| l.name)
        .find(|n| *n == want)
        .expect("every reported kind is in the schema")
}

fn world_config(seed: u64, variant: Variant, app: App) -> WorldConfig {
    let mut cfg = WorldConfig::new(SPEED, LossModel::Iid { rate: LOSS });
    cfg.lg = (variant != Variant::LgOff).then(|| LgConfig::for_speed(SPEED, LOSS));
    cfg.seed = seed;
    cfg.app = app;
    if variant == Variant::Telemetry {
        // Same interval as world_guard's telemetry gate.
        cfg.sample_interval = Some(Duration::from_us(500));
    }
    cfg
}

/// What the traced step loop counted.
#[derive(Default)]
struct StepStats {
    kinds: [Sampled; Ev::N_KINDS],
    pop: Sampled,
    ticks: u64,
    singleton_ticks: u64,
    pending_sum: u64,
}

impl StepStats {
    fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    fn fold_into(&self, rec: &mut Recorder) {
        rec.fold("sim.event.pop", self.pop);
        for (i, k) in self.kinds.iter().enumerate() {
            rec.fold(&format!("World::handle_pub/{}", Ev::KIND_NAMES[i]), *k);
        }
    }
}

/// `World::run_until` replaced by its public step calls
/// (`pop_if_before` + `handle_pub`, the shape of `run_until_profiled`),
/// timing every [`Sampled::STRIDE`]-th pop and every STRIDE-th event of
/// each kind.
fn step_world(w: &mut World, until: Time, st: &mut StepStats) {
    let mut last = None;
    let mut run_len = 0u64;
    loop {
        let t0 = st.pop.due().then(Instant::now);
        let Some((now, ev)) = w.q.pop_if_before(until) else {
            break;
        };
        if let Some(t0) = t0 {
            st.pending_sum += w.q.len() as u64 + 1;
            st.pop.add(Some(since(t0)));
        } else {
            st.pop.add(None);
        }
        let k = ev.kind_idx();
        let t1 = st.kinds[k].due().then(Instant::now);
        w.handle_pub(ev, now);
        st.kinds[k].add(t1.map(since));
        if last == Some(now) {
            run_len += 1;
        } else {
            st.ticks += u64::from(run_len > 0);
            st.singleton_ticks += u64::from(run_len == 1);
            last = Some(now);
            run_len = 1;
        }
    }
    st.ticks += u64::from(run_len > 0);
    st.singleton_ticks += u64::from(run_len == 1);
}

/// One event per `pop_if_before` + `handle_pub`, untimed: the B side of
/// the batched-dispatch A/B.
fn single_dispatch(w: &mut World, until: Time) {
    while let Some((now, ev)) = w.q.pop_if_before(until) {
        w.handle_pub(ev, now);
    }
}

/// Counts and simulated values every World workload reports.
fn world_layer(w: &World, st: Option<&StepStats>, o: &mut Outcome) {
    let rx_port = w.sw_rx.counters(PORT_LINK);
    let tx_port = w.sw_tx.counters(PORT_LINK);
    let (tx, rx) = (w.lg_tx.stats(), w.lg_rx.stats());
    let (txb, rxb) = (w.lg_tx.tx_buffer_stats(), w.lg_rx.rx_buffer_stats());
    let delay = w.lg_rx.retx_delay_histogram();
    let us = |ps: u64| ps as f64 / 1e6;
    o.layer.extend([
        ("packet.pool.slots", w.pool.slot_count() as f64),
        ("packet.pool.live_end", w.pool.live() as f64),
        ("link.frames_rx", rx_port.frames_rx_all as f64),
        (
            "link.wire_losses",
            (rx_port.frames_rx_all - rx_port.frames_rx_ok) as f64,
        ),
        ("switch.port.frames_tx", tx_port.frames_tx as f64),
        ("switch.queue.hwm_bytes", tx_port.queue_hwm_bytes as f64),
        ("switch.recirc.tx_loops", txb.loops as f64),
        ("switch.recirc.rx_loops", rxb.loops as f64),
        ("switch.recirc.tx_hwm_bytes", txb.high_watermark as f64),
        ("switch.recirc.rx_hwm_bytes", rxb.high_watermark as f64),
        (
            "switch.recirc.overflows",
            (txb.overflows + rxb.overflows) as f64,
        ),
        ("core.sender.protected_sent", tx.protected_sent as f64),
        ("core.sender.retx_copies_sent", tx.retx_copies_sent as f64),
        ("core.sender.dummies_sent", tx.dummies_sent as f64),
        ("core.sender.buffer_overflows", tx.buffer_overflows as f64),
        ("core.receiver.protected_rx", rx.protected_rx as f64),
        ("core.receiver.lost_reported", rx.lost_reported as f64),
        ("core.receiver.recovered", rx.recovered as f64),
        ("core.receiver.buffered", rx.buffered as f64),
        ("core.receiver.timeouts", rx.timeouts as f64),
        ("core.receiver.pauses_sent", rx.pauses_sent as f64),
        (
            "core.recovery_ratio",
            if rx.lost_reported == 0 {
                1.0
            } else {
                rx.recovered as f64 / rx.lost_reported as f64
            },
        ),
    ]);
    if !delay.is_empty() {
        o.layer.extend([
            ("core.retx_delay_p50_us", us(delay.quantile(0.5))),
            ("core.retx_delay_p99_us", us(delay.quantile(0.99))),
        ]);
    }
    if let Some(st) = st {
        o.events = st.events();
        o.pending = st.pending_sum as f64 / st.pop.timed.max(1) as f64;
        o.layer.extend([
            ("sim.events", o.events as f64),
            ("sim.events_per_work", o.events as f64 / o.work.max(1.0)),
            (
                "sim.event.singleton_share",
                st.singleton_ticks as f64 / st.ticks.max(1) as f64,
            ),
        ]);
        for kind in REPORTED_KINDS {
            let i = Ev::KIND_NAMES
                .iter()
                .position(|k| *k == kind)
                .expect("reported kinds exist");
            o.layer
                .push((kind_metric(kind, "count"), st.kinds[i].count as f64));
        }
    }
}

/// Digest of what the world simulated: every stats struct the figures
/// read, plus the FCT samples.
fn world_digest(w: &World) -> u64 {
    let mut d = Digest::default();
    let (tx, rx) = (w.lg_tx.stats(), w.lg_rx.stats());
    let rxp = w.sw_rx.counters(PORT_LINK);
    let txp = w.sw_tx.counters(PORT_LINK);
    for v in [
        w.q.now().as_ps(),
        w.out.stress_tx_frames,
        w.stress_delivered(),
        w.out.e2e_retx_total,
        tx.protected_sent,
        tx.retx_copies_sent,
        tx.dummies_sent,
        tx.notifications_rx,
        rx.protected_rx,
        rx.lost_reported,
        rx.recovered,
        rx.timeouts,
        rx.delivered,
        rx.pauses_sent,
        rxp.frames_rx_all,
        rxp.frames_rx_ok,
        txp.frames_tx,
        txp.bytes_tx,
        w.lg_tx.tx_buffer_stats().loops,
        w.lg_rx.rx_buffer_stats().loops,
        w.lg_rx.retx_delay_histogram().len(),
    ] {
        d.u64(v);
    }
    for s in w.out.fct.samples_us() {
        d.f64(*s);
    }
    d.finish()
}

fn world_spans(rec: &Recorder, out: &mut LayerValues) {
    let measure_ns: f64 = rec.durations(MEASURE_SPAN).iter().sum();
    let construct = rec.durations("World::new");
    out.insert(
        "testbed.world.construct_ms",
        crate::stats::median(&construct) / 1e6,
    );
    let pop = rec.folded("sim.event.pop");
    out.insert("sim.event.pop_ns", pop.mean_ns());
    out.insert(
        "sim.event.pop_share",
        pop.total_ns() as f64 / measure_ns.max(1.0),
    );
    for kind in REPORTED_KINDS {
        let f = rec.folded(&format!("World::handle_pub/{kind}"));
        out.insert(kind_metric(kind, "ns"), f.mean_ns());
    }
}

/// Kernels of the layers every testbed engine (World or ChainWorld)
/// drives.
pub(crate) fn testbed_kernels(out: &mut LayerValues) {
    out.insert("packet.pool.cycle_ns", kernels::pool_cycle_ns());
    out.insert("link.loss.iid_ns", kernels::loss_iid_ns(LOSS));
    out.insert("switch.queue.push_pop_ns", kernels::queue_push_pop_ns());
    out.insert("switch.port.enq_deq_ns", kernels::port_enq_deq_ns());
    out.insert("switch.recirc.ins_rm_ns", kernels::recirc_ins_rm_ns());
    let (tx, inorder, recover) = kernels::lg_pair_ns(SPEED, LOSS);
    out.insert("core.sender.tx_ns", tx);
    out.insert("core.receiver.rx_inorder_ns", inorder);
    out.insert("core.receiver.rx_recover_ns", recover);
}

// ------------------------------------------------------------ stress

/// `testbed_stress`: 100G, 1518 B line rate, iid 1e-3, LG ordered.
pub struct Stress;

struct StressSize {
    warm: Duration,
    measured: Duration,
}

impl Stress {
    fn sizes(quick: bool) -> StressSize {
        if quick {
            StressSize {
                warm: Duration::from_ms(1),
                measured: Duration::from_ms(10),
            }
        } else {
            StressSize {
                warm: Duration::from_ms(10),
                measured: Duration::from_ms(250),
            }
        }
    }
}

struct StressRep {
    w: World,
    variant: Variant,
    end: Time,
    injected_before: u64,
    st: Option<StepStats>,
}

impl StressRep {
    const DRAIN: Duration = Duration::from_ms(1);
}

impl Rep for StressRep {
    fn run(&mut self) {
        // Exactly `experiments::stress_test`: inject to `end`, stop, drain.
        if self.variant == Variant::SingleDispatch {
            single_dispatch(&mut self.w, self.end);
            self.w.disable_stress();
            single_dispatch(&mut self.w, self.end + Self::DRAIN);
        } else {
            self.w.run_until(self.end);
            self.w.disable_stress();
            self.w.run_until(self.end + Self::DRAIN);
        }
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        let mut st = StepStats::default();
        rec.scope("World::run_until", |rec| {
            step_world(&mut self.w, self.end, &mut st);
            self.w.disable_stress();
            step_world(&mut self.w, self.end + Self::DRAIN, &mut st);
            st.fold_into(rec);
        });
        self.st = Some(st);
    }

    fn outcome(&mut self) -> Outcome {
        let w = &self.w;
        let injected = w.out.stress_tx_frames;
        let delivered = w.stress_delivered();
        let rx = w.lg_rx.stats();
        // Frames LinkGuardian knowingly gave up on are accounted, not failed.
        let accounted = rx.skipped + rx.rx_overflow_drops;
        let mut o = Outcome {
            work: (injected - self.injected_before) as f64,
            attempted: injected,
            failed: injected.saturating_sub(delivered + accounted),
            digest: world_digest(w),
            ..Outcome::default()
        };
        if self.variant != Variant::LgOff {
            o.check(w.lg_tx.stats().protected_sent == injected, || {
                format!(
                    "conservation: protected_sent {} != injected {injected}",
                    w.lg_tx.stats().protected_sent
                )
            });
            o.check(delivered + accounted <= injected, || {
                format!("delivered {delivered} + accounted {accounted} > injected {injected}")
            });
        }
        o.check(w.pool.is_drained(), || {
            format!("pool not drained: {} live slots", w.pool.live())
        });
        world_layer(w, self.st.as_ref(), &mut o);
        o
    }
}

impl Workload for Stress {
    fn name(&self) -> &'static str {
        ST
    }

    fn why(&self) -> &'static str {
        "every frame crosses pool, switch queues, LG sender, loss draw and LG receiver/reorder with no transport: core/switch/packet and the dense timer wheel do most of the work"
    }

    fn work_unit(&self) -> &'static str {
        "frame injected"
    }

    fn size(&self, quick: bool) -> String {
        let s = Self::sizes(quick);
        format!(
            "World 100G 1518B line rate iid 1e-3 LG ordered: {} warm + {} measured + 1ms drain (sim)",
            s.warm, s.measured
        )
    }

    fn prepare(
        &self,
        seed: u64,
        quick: bool,
        variant: Variant,
        _dir: &Path,
        rec: &mut Recorder,
    ) -> Box<dyn Rep> {
        let s = Self::sizes(quick);
        let cfg = world_config(seed, variant, App::None);
        let mut w = rec.scope("World::new", |_| World::new(cfg));
        let warm_end = Time::ZERO + s.warm;
        rec.scope("warm", |_| {
            w.enable_stress(FRAME_LEN);
            w.run_until(warm_end);
        });
        Box::new(StressRep {
            injected_before: w.out.stress_tx_frames,
            end: warm_end + s.measured,
            w,
            variant,
            st: None,
        })
    }

    fn abs(&self) -> &'static [Ab] {
        &[
            Ab {
                metric: "core.cost_ratio",
                variant: Variant::LgOff,
                ratio: AbRatio::BaseOverVariant,
            },
            Ab {
                metric: "obs.telemetry_ratio",
                variant: Variant::Telemetry,
                ratio: AbRatio::BaseOverVariant,
            },
            Ab {
                metric: "sim.event.batch_ratio",
                variant: Variant::SingleDispatch,
                ratio: AbRatio::VariantOverBase,
            },
        ]
    }

    fn layer_from_spans(&self, rec: &Recorder, _traced: &Outcome, out: &mut LayerValues) {
        world_spans(rec, out);
    }

    fn kernels(&self, traced: &Outcome, out: &mut LayerValues) {
        testbed_kernels(out);
        out.insert(
            "sim.event.dense_ns_op",
            kernels::wheel_dense_ns(traced.pending.round().max(1.0) as usize),
        );
        out.insert("link.loss.ge_ns", kernels::loss_ge_ns(LOSS));
        out.insert("obs.timeseries.sample_ns", kernels::series_sample_ns());
        out.insert("obs.health.observe_ns", kernels::health_observe_ns());
        out.insert("obs.trace.record_ns", kernels::trace_record_ns());
    }
}

// --------------------------------------------------------------- fct

/// `testbed_fct`: serial 24,387 B DCTCP trials, 100G, iid 1e-3, LG
/// ordered, 10 µs gap.
pub struct Fct;

struct FctSize {
    warm: u32,
    measured: u32,
}

impl Fct {
    fn sizes(quick: bool) -> FctSize {
        if quick {
            FctSize {
                warm: 100,
                measured: 2_000,
            }
        } else {
            FctSize {
                warm: 2_000,
                measured: 50_000,
            }
        }
    }
}

struct FctRep {
    w: World,
    variant: Variant,
    trials: u32,
    done_before: u32,
    st: Option<StepStats>,
}

impl Rep for FctRep {
    fn run(&mut self) {
        if self.variant == Variant::SingleDispatch {
            single_dispatch(&mut self.w, Time::MAX);
        } else {
            self.w.run_to_completion();
        }
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        let mut st = StepStats::default();
        rec.scope("World::run_to_completion", |rec| {
            step_world(&mut self.w, Time::MAX, &mut st);
            st.fold_into(rec);
        });
        self.st = Some(st);
    }

    fn outcome(&mut self) -> Outcome {
        let done = self.w.out.fct.len() as u32;
        let mut o = Outcome {
            work: f64::from(done.saturating_sub(self.done_before)),
            attempted: u64::from(self.trials),
            failed: u64::from(self.trials - done.min(self.trials)),
            digest: world_digest(&self.w),
            ..Outcome::default()
        };
        o.check(self.w.pool.is_drained(), || {
            format!("pool not drained: {} live slots", self.w.pool.live())
        });
        o.layer.extend([
            ("transport.e2e_retx", self.w.out.e2e_retx_total as f64),
            ("testbed.fct_p50_us", self.w.out.fct.quantile_us(0.5)),
            ("testbed.fct_p999_us", self.w.out.fct.quantile_us(0.999)),
        ]);
        world_layer(&self.w, self.st.as_ref(), &mut o);
        o
    }
}

impl Workload for Fct {
    fn name(&self) -> &'static str {
        FC
    }

    fn why(&self) -> &'static str {
        "Fig 11/Table 2 shape: transport, TcpSender::renew and far-future RTO timers with cancel dominate while the link idles; same wheel and LG layers as the stress test, used differently"
    }

    fn work_unit(&self) -> &'static str {
        "trial"
    }

    fn size(&self, quick: bool) -> String {
        let s = Self::sizes(quick);
        format!(
            "World 100G iid 1e-3 LG ordered, serial {MSG_LEN} B DCTCP trials, 10us gap: {} warm + {} measured",
            s.warm, s.measured
        )
    }

    fn prepare(
        &self,
        seed: u64,
        quick: bool,
        variant: Variant,
        _dir: &Path,
        rec: &mut Recorder,
    ) -> Box<dyn Rep> {
        let s = Self::sizes(quick);
        let trials = s.warm + s.measured;
        let app = App::TcpTrials {
            variant: CcVariant::Dctcp,
            msg_len: MSG_LEN,
            trials,
            gap: Duration::from_us(10),
        };
        let cfg = world_config(seed, variant, app);
        let mut w = rec.scope("World::new", |_| World::new(cfg));
        rec.scope("warm", |_| {
            while (w.out.fct.len() as u32) < s.warm {
                let (now, ev) = w.q.pop().expect("warm trials still in flight");
                w.handle_pub(ev, now);
            }
        });
        Box::new(FctRep {
            done_before: w.out.fct.len() as u32,
            w,
            variant,
            trials,
            st: None,
        })
    }

    fn abs(&self) -> &'static [Ab] {
        &[
            Ab {
                metric: "core.cost_ratio",
                variant: Variant::LgOff,
                ratio: AbRatio::BaseOverVariant,
            },
            Ab {
                metric: "sim.event.batch_ratio",
                variant: Variant::SingleDispatch,
                ratio: AbRatio::VariantOverBase,
            },
        ]
    }

    fn layer_from_spans(&self, rec: &Recorder, _traced: &Outcome, out: &mut LayerValues) {
        world_spans(rec, out);
        let measure_ns: f64 = rec.durations(MEASURE_SPAN).iter().sum();
        let host_ns: u64 = ["host_arrive", "host_tx_done", "host_wake", "trial_start"]
            .iter()
            .map(|k| rec.folded(&format!("World::handle_pub/{k}")).total_ns())
            .sum();
        out.insert("transport.host_share", host_ns as f64 / measure_ns.max(1.0));
    }

    fn kernels(&self, traced: &Outcome, out: &mut LayerValues) {
        testbed_kernels(out);
        out.insert(
            "sim.event.timer_ns_op",
            kernels::wheel_timer_ns(traced.pending.round().max(1.0) as usize),
        );
        let (seg, renew) = kernels::tcp_loopback_ns(MSG_LEN);
        out.insert("transport.tcp.seg_ns", seg);
        out.insert("transport.tcp.renew_ns", renew);
        out.insert("workload.fct.record_ns", kernels::fct_record_ns());
    }
}
