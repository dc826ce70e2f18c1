//! Packet-engine rollup shared by the fabric figure binaries.
//!
//! `fig15_fabric_week` and `fig16_fabric_year` answer their questions
//! analytically (per-link loss rollups over maintenance timescales).
//! With `--engine packet` they additionally run the packet-level fabric
//! ([`lg_fabric::run_packet`]) on the same pod geometry as a
//! *cross-check*: microscopic timescale (hundreds of microseconds, not
//! weeks), but real frames through real queues — the FCT tail and the
//! drop ledger come from individual corruption draws instead of closed
//! forms. Everything printed here is a function of the simulation
//! outcome only, so the rollup is byte-identical at any
//! `--shards`/`--threads` layout; CI `cmp`s the stdout of two layouts.

use lg_fabric::{run_packet, PktFabricConfig, PktPolicy};
use lg_sim::Time;
use std::num::NonZeroU32;

/// Picoseconds → microseconds for table display.
fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Run the packet engine at `pods` pods of the fabric-scale preset and
/// print the per-policy rollup table. Returns after printing; the
/// analytic path is skipped entirely when the caller selects this
/// engine.
pub fn packet_rollup(
    pods: NonZeroU32,
    shards: NonZeroU32,
    threads: usize,
    seed: u64,
    horizon_us: u64,
) {
    let mut cfg = PktFabricConfig::fabric_scale(seed);
    cfg.geom.pods = pods.get();
    cfg.shards = shards.get();
    cfg.threads = threads;
    cfg.horizon = Time::from_us(horizon_us);
    // `--health-log`/`--metrics-out` on the figure binaries reach the
    // packet engine too: the rollup publishes merged per-link health
    // transitions (and the rest of the telemetry plane) to the sink.
    cfg.telemetry = crate::obs::pkt_telemetry();
    crate::check_cfgs([cfg.validate()]);

    println!(
        "packet engine: {} pods / {} links, horizon {} us, seed {}",
        cfg.geom.pods,
        cfg.geom.n_links(),
        horizon_us,
        seed,
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "policy",
        "flows",
        "done",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "drops",
        "recovered",
        "src.retx",
        "overflow"
    );
    let mut p999 = Vec::new();
    for (label, policy) in [
        ("no-LG (RTO)", PktPolicy::None),
        ("LinkGuardian", PktPolicy::LinkGuardian),
    ] {
        let mut c = cfg.clone();
        c.policy = policy;
        let r = run_packet(&c);
        // Layout-dependent accounting stays on stderr.
        eprintln!(
            "{label}: {} events in {} windows, {} cross-shard frames, \
             budget hwm {} B / denials {}",
            r.totals.events, r.stats.windows, r.stats.messages, r.mem.hwm_bytes, r.mem.denials,
        );
        let d = r.fct_digest;
        println!(
            "{:<14} {:>9} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>10} {:>9} {:>9}",
            label,
            r.totals.flows,
            r.totals.flows_completed,
            us(d.p50),
            us(d.p99),
            us(d.p999),
            r.totals.corrupt_drops,
            r.totals.recoveries,
            r.totals.source_retx,
            r.totals.overflow_drops,
        );
        crate::obs::publish_pkt_run(label, &c, &r);
        p999.push(d.p999);
    }
    println!(
        "p999 FCT: {:.2} us -> {:.2} us ({:.1}x): the packet engine reproduces the",
        us(p999[0]),
        us(p999[1]),
        us(p999[0]) / us(p999[1]).max(1e-9),
    );
    println!("analytic story frame-by-frame — corruption RTOs drive the tail, LG masks them.");
}
