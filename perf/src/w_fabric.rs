//! `fabric_year`: the analytic §4.8 maintenance simulation
//! (`lg_fabric::run`), the Fig 15/16 engine. No packet layer runs.

use std::path::Path;

use lg_fabric::{FabricSimConfig, FabricSimResult, Policy};
use lg_guardd::GuardConfig;

use crate::kernels;
use crate::metrics::FY;
use crate::span::Recorder;
use crate::stats;
use crate::workload::{
    Ab, AbRatio, Digest, LayerValues, Outcome, Rep, Variant, Workload, MEASURE_SPAN,
};

const CONSTRAINT: f64 = 0.75;
const SAMPLE_HOURS: f64 = 4.0;
const CONSTRUCT_SPAN: &str = "lg_fabric::run/construct";

pub struct FabricYear;

struct Size {
    pods: u32,
    warm_days: f64,
    days: f64,
}

impl FabricYear {
    fn sizes(quick: bool) -> Size {
        if quick {
            Size {
                pods: 40,
                warm_days: 1.0,
                days: 10.0,
            }
        } else {
            Size {
                pods: 260,
                warm_days: 5.0,
                days: 20.0,
            }
        }
    }
}

struct FabricRep {
    cfg: FabricSimConfig,
    result: Option<FabricSimResult>,
}

impl Rep for FabricRep {
    fn run(&mut self) {
        self.result = Some(lg_fabric::run(&self.cfg));
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        // The engine is one public call; there is nothing finer to step.
        self.result = Some(rec.scope("lg_fabric::run", |_| lg_fabric::run(&self.cfg)));
    }

    fn outcome(&mut self) -> Outcome {
        let r = self.result.take().expect("outcome follows a run");
        let c = r.counts;
        let expected = (self.cfg.horizon_hours / self.cfg.sample_interval_hours).floor() as u64 + 1;
        let mut d = Digest::default();
        for v in [
            c.corruption_events,
            c.disabled_immediately,
            c.deferred,
            c.optimizer_disabled,
            c.repairs,
            u64::from(c.peak_lg_per_fabric_switch),
            r.health_events.len() as u64,
            r.guard_journal.len() as u64,
        ] {
            d.u64(v);
        }
        for s in &r.samples {
            d.f64(s.t_hours)
                .f64(s.total_penalty)
                .f64(s.least_paths)
                .f64(s.least_capacity)
                .u64(u64::from(s.active_corrupting))
                .u64(u64::from(s.disabled));
        }
        let mut o = Outcome {
            work: self.cfg.horizon_hours / 24.0,
            events: c.corruption_events + c.repairs,
            attempted: expected,
            failed: expected.saturating_sub(r.samples.len() as u64),
            digest: d.finish(),
            ..Outcome::default()
        };
        o.check(
            c.disabled_immediately + c.deferred == c.corruption_events,
            || format!("corruption onsets not all classified: {c:?}"),
        );
        o.check(c.repairs <= c.corruption_events, || {
            format!("more repairs than corruptions: {c:?}")
        });
        o.check(
            r.samples.windows(2).all(|w| w[0].t_hours < w[1].t_hours),
            || "sample times not increasing".to_string(),
        );
        o.check(
            r.samples
                .iter()
                .all(|s| (0.0..=1.0).contains(&s.least_paths) && s.total_penalty >= 0.0),
            || "sample out of range".to_string(),
        );
        o.layer.extend([
            ("fabric.sim.corruption_events", c.corruption_events as f64),
            ("fabric.sim.repairs", c.repairs as f64),
            ("fabric.sim.optimizer_disabled", c.optimizer_disabled as f64),
        ]);
        o
    }
}

impl Workload for FabricYear {
    fn name(&self) -> &'static str {
        FY
    }

    fn why(&self) -> &'static str {
        "Fig 15/16 engine, where figure-suite wall time lives (a year is ~16 s per config); no packet layer runs, so it is the bypass workload for every packet-path change"
    }

    fn work_unit(&self) -> &'static str {
        "simulated day"
    }

    fn size(&self, quick: bool) -> String {
        let s = Self::sizes(quick);
        format!(
            "lg_fabric::run {} pods, constraint {CONSTRAINT}, LgPlusCorrOpt, {SAMPLE_HOURS} h samples: {} d warm + {} d measured",
            s.pods, s.warm_days, s.days
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
        let policy = if variant == Variant::Guardd {
            Policy::LgGuardd(GuardConfig::default())
        } else {
            Policy::LgPlusCorrOpt
        };
        let mut cfg = FabricSimConfig::paper(CONSTRAINT, policy, seed);
        cfg.pods = s.pods;
        cfg.sample_interval_hours = SAMPLE_HOURS;
        // The engine has no separate constructor, so construction is
        // measured as a zero-horizon run (topology, per-link RNG forks,
        // initial failure schedule, one sample) and the cache-fill slice
        // is a short run of the same fabric.
        cfg.horizon_hours = 0.0;
        rec.scope(CONSTRUCT_SPAN, |_| lg_fabric::run(&cfg));
        cfg.horizon_hours = 24.0 * s.warm_days;
        rec.scope("warm", |_| lg_fabric::run(&cfg));
        cfg.horizon_hours = 24.0 * s.days;
        Box::new(FabricRep { cfg, result: None })
    }

    fn abs(&self) -> &'static [Ab] {
        &[Ab {
            metric: "guardd.inloop_ratio",
            variant: Variant::Guardd,
            ratio: AbRatio::VariantOverBase,
        }]
    }

    fn layer_from_spans(&self, rec: &Recorder, traced: &Outcome, out: &mut LayerValues) {
        out.insert(
            "fabric.sim.construct_ms",
            stats::median(&rec.durations(CONSTRUCT_SPAN)) / 1e6,
        );
        let rep_ns = stats::median(&rec.durations(MEASURE_SPAN));
        out.insert(
            "fabric.sim.us_per_event",
            rep_ns / 1e3 / traced.events.max(1) as f64,
        );
    }

    fn kernels(&self, _traced: &Outcome, out: &mut LayerValues) {
        let (optimize, try_disable, paths) = kernels::corropt_kernels(260);
        out.insert("fabric.corropt.optimize_us", optimize);
        out.insert("fabric.corropt.try_disable_ns", try_disable);
        out.insert("fabric.topology.paths_us", paths);
    }
}
