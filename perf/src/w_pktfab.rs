//! `pktfab_pod` and `pktfab_scale`: the sharded packet-level fabric
//! (`lg_fabric::pktsim`) at a cache-resident size and at paper scale.

use std::path::Path;

use lg_fabric::{PktFabric, PktFabricConfig, PktFabricResult, PktProfile, PktTelemetryConfig};
use lg_sim::Time;

use crate::kernels;
use crate::metrics::{PP, PS};
use crate::proc;
use crate::span::Recorder;
use crate::stats;
use crate::workload::{Ab, AbRatio, Digest, LayerValues, Outcome, Rep, Variant, Workload};

/// One of the two packet-fabric workloads.
pub struct PktFab {
    scale: bool,
}

struct Size {
    /// Pod count override (0 keeps the preset's).
    pods: u32,
    warm_us: u64,
    horizon_us: u64,
}

impl PktFab {
    pub fn pod() -> PktFab {
        PktFab { scale: false }
    }

    pub fn scale() -> PktFab {
        PktFab { scale: true }
    }

    fn sizes(&self, quick: bool) -> Size {
        match (self.scale, quick) {
            (false, false) => Size {
                pods: 0,
                warm_us: 500,
                horizon_us: 12_000,
            },
            (false, true) => Size {
                pods: 0,
                warm_us: 100,
                horizon_us: 1_000,
            },
            (true, false) => Size {
                pods: 0,
                warm_us: 10,
                horizon_us: 150,
            },
            (true, true) => Size {
                pods: 24,
                warm_us: 10,
                horizon_us: 100,
            },
        }
    }

    fn config(&self, seed: u64, quick: bool, variant: Variant) -> (PktFabricConfig, Size) {
        let s = self.sizes(quick);
        let mut cfg = if self.scale {
            PktFabricConfig::fabric_scale(seed)
        } else {
            PktFabricConfig::pod_scale(seed)
        };
        if s.pods > 0 {
            cfg.geom.pods = s.pods;
        }
        cfg.threads = 1;
        cfg.horizon = Time::from_us(s.horizon_us);
        match variant {
            Variant::Shards1 => cfg.shards = 1,
            Variant::Threads2 => cfg.threads = 2,
            Variant::Telemetry => {
                cfg.telemetry = PktTelemetryConfig {
                    trace: true,
                    trace_cap: 0,
                    health: Some(PktTelemetryConfig::packet_health()),
                    profile: true,
                }
            }
            Variant::Traced => cfg.telemetry.profile = true,
            _ => {}
        }
        (cfg, s)
    }
}

struct PktRep {
    fabric: Option<PktFabric>,
    links: u32,
    result: Option<PktFabricResult>,
}

impl Rep for PktRep {
    fn run(&mut self) {
        let mut f = self.fabric.take().expect("prepared once, run once");
        let stats = f.run();
        self.result = Some(f.collect(stats));
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        let mut f = self.fabric.take().expect("prepared once, run once");
        let stats = rec.scope("PktFabric::run", |_| f.run());
        self.result = Some(rec.scope("PktFabric::collect", |_| f.collect(stats)));
    }

    fn outcome(&mut self) -> Outcome {
        let r = self.result.take().expect("outcome follows a run");
        let t = r.totals;
        let fd = r.fct_digest;
        let mut d = Digest::default();
        for v in [
            t.events,
            t.flows,
            t.flows_completed,
            t.tx_frames,
            t.corrupt_drops,
            t.recoveries,
            t.source_retx,
            t.overflow_drops,
            fd.count,
            fd.min,
            fd.max,
            fd.p50,
            fd.p99,
            fd.p999,
            r.telemetry.len() as u64,
        ] {
            d.u64(v);
        }
        for l in &r.links {
            d.u64(l.tx_frames)
                .u64(l.corrupt_drops)
                .u64(l.recoveries)
                .u64(l.overflow_drops)
                .u64(u64::from(l.queue_hwm));
        }
        let mut o = Outcome {
            work: t.tx_frames as f64,
            events: t.events,
            attempted: t.flows,
            failed: t.flows - t.flows_completed.min(t.flows),
            digest: d.finish(),
            ..Outcome::default()
        };
        o.check(r.stats.events == t.events, || {
            format!(
                "runner counted {} events, shards {}",
                r.stats.events, t.events
            )
        });
        o.check(fd.count == t.flows_completed, || {
            format!(
                "FCT digest holds {} flows, {} completed",
                fd.count, t.flows_completed
            )
        });
        o.check(r.links.len() as u32 == self.links, || {
            format!("{} link rows for {} links", r.links.len(), self.links)
        });
        let us = |ps: u64| ps as f64 / 1e6;
        o.layer.extend([
            ("sim.events", t.events as f64),
            (
                "sim.events_per_work",
                t.events as f64 / (t.tx_frames.max(1)) as f64,
            ),
            ("sim.shard.windows", r.stats.windows as f64),
            ("sim.shard.messages", r.stats.messages as f64),
            (
                "sim.shard.max_window_messages",
                r.stats.max_window_messages as f64,
            ),
            ("fabric.pktsim.flows", t.flows as f64),
            ("fabric.pktsim.tx_frames", t.tx_frames as f64),
            ("fabric.pktsim.corrupt_drops", t.corrupt_drops as f64),
            ("fabric.pktsim.recoveries", t.recoveries as f64),
            ("fabric.pktsim.source_retx", t.source_retx as f64),
            ("fabric.pktsim.overflow_drops", t.overflow_drops as f64),
            ("fabric.pktsim.budget_denials", r.mem.denials as f64),
            ("fabric.pktsim.budget_hwm_bytes", r.mem.hwm_bytes as f64),
            ("fabric.pktsim.fct_p50_us", us(fd.p50)),
            ("fabric.pktsim.fct_p999_us", us(fd.p999)),
        ]);
        let total_ns = r.profile.total_ns_all();
        if total_ns > 0 {
            for (i, kind) in PktProfile::KINDS.iter().enumerate() {
                let name = match *kind {
                    "tx_done" => "fabric.pktsim.share.tx_done",
                    "arrive" => "fabric.pktsim.share.arrive",
                    "flow_start" => "fabric.pktsim.share.flow_start",
                    "sample" => "fabric.pktsim.share.sample",
                    other => unreachable!("unknown pktsim event kind {other}"),
                };
                o.layer
                    .push((name, r.profile.total_ns[i] as f64 / total_ns as f64));
            }
            // Process peak RSS over links: the fabric's tables dominate
            // the process once a full-size rep has run.
            if let Some(hwm_kb) = proc::vm_hwm_kb() {
                o.layer.push((
                    "fabric.pktsim.rss_bytes_per_link",
                    hwm_kb as f64 * 1024.0 / f64::from(self.links),
                ));
            }
        }
        o
    }
}

impl Workload for PktFab {
    fn name(&self) -> &'static str {
        if self.scale {
            PS
        } else {
            PP
        }
    }

    fn why(&self) -> &'static str {
        if self.scale {
            "same packet-fabric code at 50x the working set: 99,840 links in 8 shards on one thread, memory-bound, with window barriers and mailbox traffic; a fix for the scale gap shows here, not on pktfab_pod"
        } else {
            "cache-resident packet fabric (2,048 links, one shard): the per-event cost floor of lg_fabric::pktsim"
        }
    }

    fn work_unit(&self) -> &'static str {
        "frame-hop"
    }

    fn size(&self, quick: bool) -> String {
        let (cfg, s) = self.config(1, quick, Variant::Base);
        format!(
            "PktFabric {} links, shards {}, threads 1: {} us warm + {} us measured horizon (sim), run to drain",
            cfg.geom.n_links(),
            cfg.shards,
            s.warm_us,
            s.horizon_us
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
        let (cfg, s) = self.config(seed, quick, variant);
        // A run is one-shot, so the cache-fill slice is a whole
        // short-horizon run of the same fabric: it faults the allocator
        // up to the rep's table sizes before the measured instance
        // exists.
        rec.scope("warm", |_| {
            let mut warm = cfg.clone();
            warm.horizon = Time::from_us(s.warm_us);
            lg_fabric::run_packet(&warm)
        });
        let fabric = rec.scope("PktFabric::new", |_| PktFabric::new(&cfg));
        Box::new(PktRep {
            fabric: Some(fabric),
            links: cfg.geom.n_links(),
            result: None,
        })
    }

    fn abs(&self) -> &'static [Ab] {
        if self.scale {
            &[
                Ab {
                    metric: "sim.shard.s8_over_s1",
                    variant: Variant::Shards1,
                    ratio: AbRatio::BaseOverVariant,
                },
                Ab {
                    metric: "sim.shard.speedup_t2",
                    variant: Variant::Threads2,
                    ratio: AbRatio::BaseOverVariant,
                },
                Ab {
                    metric: "sim.shard.cpu_ratio_t2",
                    variant: Variant::Threads2,
                    ratio: AbRatio::CpuVariantOverBase,
                },
            ]
        } else {
            &[Ab {
                metric: "obs.telemetry_ratio",
                variant: Variant::Telemetry,
                ratio: AbRatio::BaseOverVariant,
            }]
        }
    }

    fn layer_from_spans(&self, rec: &Recorder, _traced: &Outcome, out: &mut LayerValues) {
        out.insert(
            "fabric.pktsim.construct_ms",
            stats::median(&rec.durations("PktFabric::new")) / 1e6,
        );
        out.insert(
            "fabric.pktsim.collect_ms",
            stats::median(&rec.durations("PktFabric::collect")) / 1e6,
        );
    }

    fn kernels(&self, _traced: &Outcome, out: &mut LayerValues) {
        let (cfg, _) = self.config(1, false, Variant::Base);
        let g = cfg.geom;
        // Standing population of a shard's queue: one pending
        // `FlowStart` per generator it hosts.
        let pending = (g.pods * g.tors * g.fabrics / cfg.shards) as usize;
        out.insert("sim.event.dense_ns_op", kernels::wheel_dense_ns(pending));
        out.insert("fabric.fct.record_ns", kernels::fabric_fct_record_ns());
        out.insert("fabric.partition.ms", kernels::partition_ms(&g, cfg.shards));
        if self.scale {
            let (window, msg) = kernels::shard_runner_ns();
            out.insert("sim.shard.window_ns", window);
            out.insert("sim.shard.msg_ns", msg);
        } else {
            out.insert("obs.timeseries.sample_ns", kernels::series_sample_ns());
            out.insert("obs.health.observe_ns", kernels::health_observe_ns());
            out.insert("obs.trace.record_ns", kernels::trace_record_ns());
        }
    }
}
