//! The benchmark's metric schema: the end-to-end metrics every workload
//! reports and the per-layer metrics a traced run reports. `BENCHMARK.json`
//! at the repository root lists the same names (`lg-perf schema` prints
//! them in its format; a unit test keeps the two in step).

/// Workload names, in suite order.
pub const ST: &str = "testbed_stress";
pub const FC: &str = "testbed_fct";
pub const CH: &str = "chain_rdma";
pub const FY: &str = "fabric_year";
pub const PP: &str = "pktfab_pod";
pub const PS: &str = "pktfab_scale";
pub const OB: &str = "obs_fold";

/// Every workload, in suite order.
pub const ALL: &[&str] = &[ST, FC, CH, FY, PP, PS, OB];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "cpu_us_per_work",
        unit: "us",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// How a per-layer value is obtained, which decides how two runs of it
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact count from a public stats struct: repeats exactly.
    Count,
    /// Simulated value (simulated time, not host time): repeats exactly.
    Sim,
    /// Layer kernel, host ns per op of a fixed op script.
    Kernel,
    /// Ratio of two host-time measurements (A/B variant or share).
    Ratio,
    /// Host-time measurement taken around a call into the layer.
    Host,
}

impl Kind {
    /// Counts and simulated values must match exactly between two runs
    /// of the same code.
    pub fn exact(self) -> bool {
        matches!(self, Kind::Count | Kind::Sim)
    }

    pub fn letter(self) -> &'static str {
        match self {
            Kind::Count => "c",
            Kind::Sim => "s",
            Kind::Kernel => "k",
            Kind::Ratio => "r",
            Kind::Host => "h",
        }
    }
}

/// One per-layer metric and the workloads whose traced run measures it
/// (every other workload's traced run reports it as 0).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    pub workloads: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
    workloads: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
        workloads,
    }
}

use Kind::{Count as C, Host as H, Kernel as K, Ratio as R, Sim as S};

const WORLD: &[&str] = &[ST, FC];
const TESTBED: &[&str] = &[ST, FC, CH];
const PKT: &[&str] = &[PP, PS];
const EVENTFUL: &[&str] = &[ST, FC, CH, PP, PS];

/// The per-layer metrics, grouped by layer (= crate).
pub const PER_LAYER: &[Layer] = &[
    // ---- sim
    m("sim.events", "count", "lower", C, EVENTFUL),
    m("sim.events_per_s", "1/s", "higher", H, EVENTFUL),
    m("sim.events_per_work", "count", "lower", C, EVENTFUL),
    m("sim.event.pop_ns", "ns", "lower", H, WORLD),
    m("sim.event.pop_share", "ratio", "lower", R, WORLD),
    m("sim.event.singleton_share", "ratio", "higher", S, WORLD),
    m("sim.event.batch_ratio", "ratio", "higher", R, WORLD),
    m("sim.event.dense_ns_op", "ns", "lower", K, &[ST, PP, PS]),
    m("sim.event.timer_ns_op", "ns", "lower", K, &[FC, CH]),
    m("sim.shard.windows", "count", "lower", C, &[PS]),
    m("sim.shard.messages", "count", "lower", C, &[PS]),
    m("sim.shard.max_window_messages", "count", "lower", C, &[PS]),
    m("sim.shard.window_ns", "ns", "lower", K, &[PS]),
    m("sim.shard.msg_ns", "ns", "lower", K, &[PS]),
    m("sim.shard.s8_over_s1", "ratio", "lower", R, &[PS]),
    m("sim.shard.speedup_t2", "ratio", "higher", R, &[PS]),
    m("sim.shard.cpu_ratio_t2", "ratio", "lower", R, &[PS]),
    // ---- packet
    m("packet.pool.cycle_ns", "ns", "lower", K, TESTBED),
    m("packet.pool.slots", "count", "lower", C, TESTBED),
    m("packet.pool.live_end", "count", "lower", C, TESTBED),
    // ---- link
    m("link.loss.iid_ns", "ns", "lower", K, TESTBED),
    m("link.loss.ge_ns", "ns", "lower", K, &[ST]),
    m("link.frames_rx", "count", "lower", C, WORLD),
    m("link.wire_losses", "count", "lower", C, WORLD),
    // ---- switch
    m("switch.queue.push_pop_ns", "ns", "lower", K, TESTBED),
    m("switch.port.enq_deq_ns", "ns", "lower", K, TESTBED),
    m("switch.recirc.ins_rm_ns", "ns", "lower", K, TESTBED),
    m("switch.port.frames_tx", "count", "lower", C, WORLD),
    m("switch.queue.hwm_bytes", "bytes", "lower", C, WORLD),
    m("switch.recirc.tx_loops", "count", "lower", C, WORLD),
    m("switch.recirc.rx_loops", "count", "lower", C, WORLD),
    m("switch.recirc.tx_hwm_bytes", "bytes", "lower", C, WORLD),
    m("switch.recirc.rx_hwm_bytes", "bytes", "lower", C, WORLD),
    m("switch.recirc.overflows", "count", "lower", C, WORLD),
    // ---- core
    m("core.sender.protected_sent", "count", "lower", C, WORLD),
    m("core.sender.retx_copies_sent", "count", "lower", C, WORLD),
    m("core.sender.dummies_sent", "count", "lower", C, WORLD),
    m("core.sender.buffer_overflows", "count", "lower", C, WORLD),
    m("core.receiver.protected_rx", "count", "lower", C, WORLD),
    m("core.receiver.lost_reported", "count", "lower", C, WORLD),
    m("core.receiver.recovered", "count", "higher", C, TESTBED),
    m("core.receiver.buffered", "count", "lower", C, WORLD),
    m("core.receiver.timeouts", "count", "lower", C, TESTBED),
    m("core.receiver.pauses_sent", "count", "lower", C, WORLD),
    m("core.recovery_ratio", "ratio", "higher", S, WORLD),
    m("core.retx_delay_p50_us", "us", "lower", S, WORLD),
    m("core.retx_delay_p99_us", "us", "lower", S, WORLD),
    m("core.sender.tx_ns", "ns", "lower", K, TESTBED),
    m("core.receiver.rx_inorder_ns", "ns", "lower", K, TESTBED),
    m("core.receiver.rx_recover_ns", "ns", "lower", K, TESTBED),
    m("core.cost_ratio", "ratio", "lower", R, TESTBED),
    // ---- transport
    m("transport.tcp.seg_ns", "ns", "lower", K, &[FC]),
    m("transport.tcp.renew_ns", "ns", "lower", K, &[FC]),
    m("transport.rdma.seg_ns", "ns", "lower", K, &[CH]),
    m("transport.e2e_retx", "count", "lower", C, &[FC, CH]),
    m("transport.host_share", "ratio", "lower", R, &[FC]),
    // ---- workload
    m("workload.fct.record_ns", "ns", "lower", K, &[FC, CH]),
    // ---- testbed
    m("testbed.world.construct_ms", "ms", "lower", H, WORLD),
    m(
        "testbed.world.ev.port_enqueue.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.port_enqueue.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.port_tx_done.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.port_tx_done.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.wire_arrive.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.wire_arrive.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.host_arrive.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.host_arrive.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.host_tx_done.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.host_tx_done.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.host_wake.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.host_wake.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.dummy_refresh.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.dummy_refresh.ns", "ns", "lower", H, WORLD),
    m(
        "testbed.world.ev.trial_start.count",
        "count",
        "lower",
        C,
        WORLD,
    ),
    m("testbed.world.ev.trial_start.ns", "ns", "lower", H, WORLD),
    m("testbed.chain.construct_ms", "ms", "lower", H, &[CH]),
    m("testbed.chain.slice_ns_p50", "ns", "lower", H, &[CH]),
    m("testbed.chain.slice_ns_p99", "ns", "lower", H, &[CH]),
    m("testbed.chain.recovered", "count", "higher", C, &[CH]),
    m("testbed.chain.lg_timeouts", "count", "lower", C, &[CH]),
    m("testbed.fct_p50_us", "us", "lower", S, &[FC, CH]),
    m("testbed.fct_p999_us", "us", "lower", S, &[FC, CH]),
    // ---- fabric
    m("fabric.sim.construct_ms", "ms", "lower", H, &[FY]),
    m("fabric.sim.corruption_events", "count", "lower", C, &[FY]),
    m("fabric.sim.repairs", "count", "lower", C, &[FY]),
    m("fabric.sim.optimizer_disabled", "count", "lower", C, &[FY]),
    m("fabric.sim.us_per_event", "us", "lower", H, &[FY]),
    m("fabric.corropt.optimize_us", "us", "lower", K, &[FY]),
    m("fabric.corropt.try_disable_ns", "ns", "lower", K, &[FY]),
    m("fabric.topology.paths_us", "us", "lower", K, &[FY]),
    m("fabric.partition.ms", "ms", "lower", K, PKT),
    m("fabric.pktsim.construct_ms", "ms", "lower", H, PKT),
    m("fabric.pktsim.collect_ms", "ms", "lower", H, PKT),
    m("fabric.pktsim.flows", "count", "lower", C, PKT),
    m("fabric.pktsim.tx_frames", "count", "lower", C, PKT),
    m("fabric.pktsim.corrupt_drops", "count", "lower", C, PKT),
    m("fabric.pktsim.recoveries", "count", "lower", C, PKT),
    m("fabric.pktsim.source_retx", "count", "lower", C, PKT),
    m("fabric.pktsim.overflow_drops", "count", "lower", C, PKT),
    m("fabric.pktsim.budget_denials", "count", "lower", C, PKT),
    m("fabric.pktsim.budget_hwm_bytes", "bytes", "lower", C, PKT),
    m("fabric.pktsim.share.tx_done", "ratio", "lower", R, PKT),
    m("fabric.pktsim.share.arrive", "ratio", "lower", R, PKT),
    m("fabric.pktsim.share.flow_start", "ratio", "lower", R, PKT),
    m("fabric.pktsim.share.sample", "ratio", "lower", R, PKT),
    m("fabric.pktsim.fct_p50_us", "us", "lower", S, PKT),
    m("fabric.pktsim.fct_p999_us", "us", "lower", S, PKT),
    m("fabric.pktsim.rss_bytes_per_link", "bytes", "lower", H, PKT),
    m("fabric.fct.record_ns", "ns", "lower", K, PKT),
    // ---- obs
    m("obs.telemetry_ratio", "ratio", "higher", R, &[ST, PP]),
    m("obs.timeseries.sample_ns", "ns", "lower", K, &[ST, PP]),
    m("obs.health.observe_ns", "ns", "lower", K, &[ST, PP]),
    m("obs.trace.record_ns", "ns", "lower", K, &[ST, PP]),
    m("obs.schema.validate_ns_line", "ns", "lower", H, &[OB]),
    m("obs.analyze.ingest_ns_line", "ns", "lower", H, &[OB]),
    m("obs.analyze.report_ms", "ms", "lower", H, &[OB]),
    m("obs.analyze.lines", "count", "lower", C, &[OB]),
    m("obs.analyze.rejected_lines", "count", "lower", C, &[OB]),
    // ---- guardd
    m("guardd.sort_ms", "ms", "lower", H, &[OB]),
    m("guardd.ingest_ns", "ns", "lower", H, &[OB]),
    m("guardd.decisions", "count", "lower", C, &[OB]),
    m("guardd.snapshot_restore_us", "us", "lower", H, &[OB]),
    m("guardd.inloop_ratio", "ratio", "lower", R, &[FY]),
    // ---- process
    m("proc.allocs_per_kevent", "count", "lower", H, ALL),
    m("proc.cpu_s", "s", "lower", H, ALL),
    m("trace.overhead_ratio", "ratio", "lower", R, ALL),
    m("check.digest_match", "count", "higher", C, ALL),
    m("check.fail_share", "ratio", "lower", C, ALL),
];

/// Look a per-layer metric up by name.
pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|l| l.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(ALL.iter().copied())
            .collect();
        assert!(PER_LAYER.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric or workload name");
        for l in PER_LAYER {
            assert!(l.unit.len() <= 16 && !l.workloads.is_empty(), "{}", l.name);
            assert!(l.better == "lower" || l.better == "higher", "{}", l.name);
        }
    }
}
