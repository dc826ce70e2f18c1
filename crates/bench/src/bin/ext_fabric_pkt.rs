//! Extension study: the Fig 15 fabric story replayed at *packet level*.
//!
//! `fig15_fabric_week` answers "how many corruption losses does a week
//! of fabric traffic suffer" analytically; this binary pushes individual
//! frames through the same pod geometry with the sharded conservative-
//! lookahead runner ([`lg_fabric::run_packet`]) and compares the two §2
//! worlds directly: corruption drops surfacing to the source (RTO +
//! re-injection) vs LinkGuardian masking them link-locally.
//!
//! Determinism contract: everything printed to **stdout** is a function
//! of the simulation outcome only, which is byte-identical at any
//! `--shards`/`--threads` layout — CI diffs the stdout of a 1-shard and
//! a 4-shard run. Layout-dependent accounting (partition cuts, window
//! counts, worker threads) goes to **stderr**.
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_fabric_pkt
//! [--shards 4] [--threads 4] [--seed 42] [--horizon-us 2000]
//! [--scale] [--pods N] [--dump PATH] [--layout-out PATH]`
//!
//! `--dump PATH` writes the full FCT table and telemetry rows as JSON
//! lines, replacing any existing file — the machine-readable twin of
//! the stdout table, also
//! layout-invariant. `--scale` switches from the 1K-link pod-scale
//! fixture to the fabric-scale preset (260 pods ≈ 100K links, streaming
//! FCT only), and `--pods N` shrinks either geometry for smoke runs.
//! `--layout-out PATH` writes one JSON object describing the partition
//! (sizes, cut edges, granularity) so CI asserts on structured output
//! instead of grepping stderr.

use lg_bench::{arg, banner, flag};
use lg_fabric::{partition, run_packet, PktFabricConfig, PktFabricResult, PktPolicy};
use lg_sim::Time;
use std::num::NonZeroU32;

/// Picoseconds → microseconds for table display.
fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

fn dump(path: &str, label: &str, r: &PktFabricResult) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?,
    );
    for &(flow, fct) in &r.fct {
        writeln!(
            f,
            "{{\"policy\":\"{label}\",\"flow\":{flow},\"fct_ps\":{fct}}}"
        )?;
    }
    for t in &r.telemetry {
        writeln!(
            f,
            "{{\"policy\":\"{label}\",\"sample\":{},\"link\":{},\"tx\":{},\
             \"drops\":{},\"recoveries\":{}}}",
            t.sample, t.link, t.tx_frames, t.corrupt_drops, t.recoveries
        )?;
    }
    let d = &r.fct_digest;
    writeln!(
        f,
        "{{\"policy\":\"{label}\",\"fct_count\":{},\"fct_min_ps\":{},\"fct_max_ps\":{},\
         \"fct_p50_ps\":{},\"fct_p99_ps\":{},\"fct_p999_ps\":{}}}",
        d.count, d.min, d.max, d.p50, d.p99, d.p999
    )?;
    let t = &r.totals;
    writeln!(
        f,
        "{{\"policy\":\"{label}\",\"events\":{},\"flows\":{},\"completed\":{},\
         \"tx_frames\":{},\"corrupt_drops\":{},\"recoveries\":{},\"source_retx\":{},\
         \"overflow_drops\":{}}}",
        t.events,
        t.flows,
        t.flows_completed,
        t.tx_frames,
        t.corrupt_drops,
        t.recoveries,
        t.source_retx,
        t.overflow_drops
    )?;
    f.flush()
}

/// One JSON object describing the partition layout — the structured
/// twin of the stderr layout line, for CI assertions.
fn write_layout(path: &str, part: &lg_fabric::Partition, threads: usize) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let sizes: Vec<String> = part.links_per_shard.iter().map(|n| n.to_string()).collect();
    writeln!(
        f,
        "{{\"links\":{},\"shards\":{},\"threads\":{threads},\"granularity\":\"{}\",\
         \"cut_edges\":{},\"total_edges\":{},\"links_per_shard\":[{}]}}",
        part.links_per_shard.iter().sum::<u32>(),
        part.shards,
        part.map.granularity().name(),
        part.cut_edges,
        part.total_edges,
        sizes.join(",")
    )?;
    f.flush()
}

fn main() {
    let _obs = lg_bench::obs::session("ext_fabric_pkt");
    let scale = flag("--scale");
    let default_shards = if scale {
        const { NonZeroU32::new(8).unwrap() }
    } else {
        const { NonZeroU32::new(4).unwrap() }
    };
    let shards = arg("--shards", default_shards).get();
    let threads: usize = arg("--threads", shards as usize);
    let seed: u64 = arg("--seed", 42);
    let horizon_us: u64 = arg("--horizon-us", if scale { 400 } else { 2000 });
    let args: Vec<String> = std::env::args().collect();
    let pods = lg_bench::try_arg::<NonZeroU32>(&args, "--pods").unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let dump_path: String = arg("--dump", String::new());
    let layout_path: String = arg("--layout-out", String::new());

    banner(
        "Extension: packet-level fabric (sharded)",
        "pod-scale frames through corrupting links, RTO world vs LinkGuardian world",
    );

    let mut cfg = if scale {
        PktFabricConfig::fabric_scale(seed)
    } else {
        PktFabricConfig::pod_scale(seed)
    };
    if let Some(pods) = pods {
        cfg.geom.pods = pods.get();
    }
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.horizon = Time::from_us(horizon_us);
    // Telemetry plane follows the observability flags: `--trace` turns
    // on per-shard lifecycle rings, any output flag turns on per-link
    // health estimation and sampled profiling. All-off by default, so
    // plain runs keep the bare fast path.
    cfg.telemetry = lg_bench::obs::pkt_telemetry();
    lg_bench::check_cfgs([cfg.validate()]);

    // Layout report: stderr only, so stdout stays byte-identical across
    // shard layouts.
    let part = partition(&cfg.geom, shards);
    let (lo, hi) = (
        part.links_per_shard.iter().min().copied().unwrap_or(0),
        part.links_per_shard.iter().max().copied().unwrap_or(0),
    );
    eprintln!(
        "layout: {} links, {} shards ({lo}-{hi} links/shard), {} threads, \
         cut {}/{} edges",
        cfg.geom.n_links(),
        part.shards,
        threads,
        part.cut_edges,
        part.total_edges,
    );
    if !layout_path.is_empty() {
        if let Err(e) = write_layout(&layout_path, &part, threads) {
            eprintln!("warning: could not write {layout_path}: {e}");
        }
    }

    println!(
        "geometry: {} pods x ({} tors x {} fabrics + {} fabrics x {} uplinks), \
         seed {}, horizon {} us",
        cfg.geom.pods,
        cfg.geom.tors,
        cfg.geom.fabrics,
        cfg.geom.fabrics,
        cfg.geom.uplinks,
        seed,
        horizon_us,
    );
    println!(
        "{:<14} {:>7} {:>7} {:>9} {:>9} {:>9} {:>8} {:>10} {:>9}",
        "policy",
        "flows",
        "done",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "drops",
        "recovered",
        "src.retx"
    );
    // Each policy appends its rows to the dump; start it empty so a
    // rerun to the same path replaces the file instead of growing it.
    if !dump_path.is_empty() {
        if let Err(e) = std::fs::File::create(&dump_path) {
            eprintln!("warning: could not write {dump_path}: {e}");
        }
    }
    let mut results = Vec::new();
    for (label, policy) in [
        ("no-LG (RTO)", PktPolicy::None),
        ("LinkGuardian", PktPolicy::LinkGuardian),
    ] {
        let mut c = cfg.clone();
        c.policy = policy;
        let r = run_packet(&c);
        eprintln!(
            "{label}: {} events in {} windows, {} cross-shard frames, \
             budget hwm {} B / denials {}",
            r.totals.events, r.stats.windows, r.stats.messages, r.mem.hwm_bytes, r.mem.denials
        );
        // Percentiles come from the streaming digest: identical to the
        // retained-Vec path whenever the rank falls inside the top-K
        // tail (always, on these fixtures), and the only option at
        // fabric scale where per-flow FCTs are not retained.
        println!(
            "{:<14} {:>7} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>8} {:>10} {:>9}",
            label,
            r.totals.flows,
            r.totals.flows_completed,
            us(r.fct_digest.p50),
            us(r.fct_digest.p99),
            us(r.fct_digest.p999),
            r.totals.corrupt_drops,
            r.totals.recoveries,
            r.totals.source_retx,
        );
        if !dump_path.is_empty() {
            if let Err(e) = dump(&dump_path, label, &r) {
                eprintln!("warning: could not write {dump_path}: {e}");
            }
        }
        lg_bench::obs::publish_pkt_run(label, &c, &r);
        results.push(r);
    }
    let (none, lg) = (&results[0], &results[1]);
    println!();
    println!(
        "p999 FCT: {:.2} us -> {:.2} us ({:.1}x); drops surfaced to sources: {} -> {}",
        us(none.fct_digest.p999),
        us(lg.fct_digest.p999),
        us(none.fct_digest.p999) / us(lg.fct_digest.p999).max(1e-9),
        none.totals.corrupt_drops,
        lg.totals.corrupt_drops,
    );
    println!("paper §2: link-local retransmission removes the RTO tail that corruption");
    println!("drops put on flow completion; the fabric masks the loss where it happens.");
}
