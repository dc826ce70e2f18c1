//! `chain_rdma`: the second testbed loop — four switches, three
//! protected corrupting hops, serial RDMA WRITEs with go-back-N.

use std::path::Path;

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{ChainApp, ChainConfig, ChainWorld};

use crate::kernels;
use crate::metrics::CH;
use crate::span::Recorder;
use crate::stats;
use crate::w_testbed::testbed_kernels;
use crate::workload::{Ab, AbRatio, Digest, LayerValues, Outcome, Rep, Variant, Workload};

const SPEED: LinkSpeed = LinkSpeed::G100;
const LOSS: f64 = 1e-3;
const HOPS: usize = 3;
const MSG_LEN: u32 = 24_387;
/// Simulated length of one traced `run_until` slice.
const SLICE: Duration = Duration::from_ms(1);
const SLICE_SPAN: &str = "ChainWorld::run_until";

pub struct ChainRdma;

struct Size {
    warm: u32,
    measured: u32,
}

impl ChainRdma {
    fn sizes(quick: bool) -> Size {
        if quick {
            Size {
                warm: 100,
                measured: 1_500,
            }
        } else {
            Size {
                warm: 1_000,
                measured: 25_000,
            }
        }
    }
}

struct ChainRep {
    w: ChainWorld,
    trials: u32,
    done_before: u32,
    events: u64,
}

impl Rep for ChainRep {
    fn run(&mut self) {
        self.events += self.w.run_until(Time::MAX);
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        // Window-sliced execution dispatches the identical event stream
        // (see `ChainWorld::run_until`), one span per simulated slice.
        while let Some(next) = self.w.next_event_time() {
            let until = Time::from_ps(next.as_ps().saturating_add(SLICE.as_ps()));
            self.events += rec.scope(SLICE_SPAN, |_| self.w.run_until(until));
        }
    }

    fn outcome(&mut self) -> Outcome {
        let w = &mut self.w;
        let done = w.fct.len() as u32;
        let mut d = Digest::default();
        d.u64(w.q.now().as_ps())
            .u64(w.e2e_retx)
            .u64(w.total_recovered())
            .u64(w.total_lg_timeouts());
        for s in w.fct.samples_us() {
            d.f64(*s);
        }
        let work = f64::from(done.saturating_sub(self.done_before));
        let mut o = Outcome {
            work,
            events: self.events,
            attempted: u64::from(self.trials),
            failed: u64::from(self.trials - done.min(self.trials)),
            digest: d.finish(),
            ..Outcome::default()
        };
        o.check(w.pool.is_drained(), || {
            format!("pool not drained: {} live slots", w.pool.live())
        });
        o.layer.extend([
            ("sim.events", self.events as f64),
            ("sim.events_per_work", self.events as f64 / work.max(1.0)),
            ("packet.pool.slots", w.pool.slot_count() as f64),
            ("packet.pool.live_end", w.pool.live() as f64),
            ("core.receiver.recovered", w.total_recovered() as f64),
            ("core.receiver.timeouts", w.total_lg_timeouts() as f64),
            ("testbed.chain.recovered", w.total_recovered() as f64),
            ("testbed.chain.lg_timeouts", w.total_lg_timeouts() as f64),
            ("transport.e2e_retx", w.e2e_retx as f64),
            ("testbed.fct_p50_us", w.fct.quantile_us(0.5)),
            ("testbed.fct_p999_us", w.fct.quantile_us(0.999)),
        ]);
        o
    }
}

impl Workload for ChainRdma {
    fn name(&self) -> &'static str {
        CH
    }

    fn why(&self) -> &'static str {
        "the second testbed event loop: three LinkGuardian pairs on one path under RDMA go-back-N; the workload that must not slow when World and ChainWorld are merged"
    }

    fn work_unit(&self) -> &'static str {
        "trial"
    }

    fn size(&self, quick: bool) -> String {
        let s = Self::sizes(quick);
        format!(
            "ChainWorld 100G, 4 switches / {HOPS} protected hops each iid 1e-3, serial {MSG_LEN} B RDMA WRITE: {} warm + {} measured",
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
        let mut cfg = ChainConfig::protected_chain(
            SPEED,
            vec![LossModel::Iid { rate: LOSS }; HOPS],
            ChainApp::RdmaTrials {
                msg_len: MSG_LEN,
                trials,
            },
        );
        cfg.seed = seed;
        if variant == Variant::LgOff {
            cfg.protected = vec![false; HOPS];
        }
        let mut w = rec.scope("ChainWorld::new", |_| ChainWorld::new(cfg));
        rec.scope("warm", |_| {
            // The chain exposes no per-event step: advance in 100 µs
            // slices until the warm trials are done.
            while (w.fct.len() as u32) < s.warm {
                let next = w.next_event_time().expect("warm trials still in flight");
                w.run_until(next + Duration::from_us(100));
            }
        });
        Box::new(ChainRep {
            done_before: w.fct.len() as u32,
            w,
            trials,
            events: 0,
        })
    }

    fn abs(&self) -> &'static [Ab] {
        &[Ab {
            metric: "core.cost_ratio",
            variant: Variant::LgOff,
            ratio: AbRatio::BaseOverVariant,
        }]
    }

    fn layer_from_spans(&self, rec: &Recorder, _traced: &Outcome, out: &mut LayerValues) {
        let construct = rec.durations("ChainWorld::new");
        out.insert(
            "testbed.chain.construct_ms",
            stats::median(&construct) / 1e6,
        );
        let slices = rec.durations(SLICE_SPAN);
        out.insert("testbed.chain.slice_ns_p50", stats::quantile(&slices, 0.5));
        out.insert("testbed.chain.slice_ns_p99", stats::quantile(&slices, 0.99));
    }

    fn kernels(&self, _traced: &Outcome, out: &mut LayerValues) {
        testbed_kernels(out);
        // A serial-trial chain keeps a handful of events pending: one
        // in-flight burst plus the RTO and dummy-refresh timers.
        out.insert("sim.event.timer_ns_op", kernels::wheel_timer_ns(8));
        out.insert("transport.rdma.seg_ns", kernels::rdma_loopback_ns(MSG_LEN));
        out.insert("workload.fct.record_ns", kernels::fct_record_ns());
    }
}
