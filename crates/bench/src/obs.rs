//! Shared observability CLI for the experiment binaries.
//!
//! Every figure/table binary accepts these extra flags, parsed once at
//! the top of `main` by [`session`]:
//!
//! * `--metrics-out <file>` — enable the process-wide JSONL sink and
//!   write the full observability dump (metrics snapshots, trace
//!   records, wall-clock profiles) there when the binary exits;
//! * `--timeseries-out <file>` — route `timeseries` records (the
//!   windowed telemetry samples) into their own JSONL file;
//! * `--health-log <file>` — route `health_event` records (link-health
//!   transitions) into their own JSONL file;
//! * `--guard-log <file>` — route `guard_event`/`guard_snapshot`
//!   records (the `lg-guardd` decision journal) into their own JSONL
//!   file, and enable the post-run guardian replay over packet-engine
//!   health streams ([`publish_pkt_run`]);
//! * `--trace` — enable packet-level trace records ([`Level::Pkt`]);
//! * `--trace-level <off|ctl|pkt>` — set the trace level explicitly
//!   (overrides `--trace`);
//! * `--trace-cap <records>` — size of the overwrite-oldest trace ring
//!   (default 65536; raise it when an analysis pass needs the whole
//!   packet trace of a long run, e.g. `obs_analyze` FCT attribution).
//!
//! Any of the three output flags enables the sink; each written file
//! starts with its own `meta` line naming the binary and the schema
//! version (`schema/obs-schema.json`), followed by the matching sink
//! lines in deterministic key order — identical at any `--threads`
//! value. Records routed to a dedicated file are removed from the
//! `--metrics-out` dump (and discarded entirely if only a subset of the
//! flags was given). None of these flags change what the binary prints
//! on stdout, so golden figure output stays byte-identical with
//! observability on.

use lg_obs::trace::Level;
use lg_obs::JsonLine;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The `--trace-cap` value parsed by [`session`] (0 = default), so the
/// packet engine's per-shard rings can be sized from the same flag.
static TRACE_CAP: AtomicUsize = AtomicUsize::new(0);

/// Whether `--guard-log` was given: gates the guardian replay over
/// packet-engine health streams so default dumps stay byte-identical.
static GUARD: AtomicBool = AtomicBool::new(false);

/// Whether this session routes a guardian journal (`--guard-log`).
pub fn guard_enabled() -> bool {
    GUARD.load(Ordering::Relaxed)
}

/// Observability schema version written to the `meta` line; bump in
/// lockstep with `schema/obs-schema.json`.
pub const SCHEMA_VERSION: u64 = 3;

/// RAII guard for one binary's observability session. On drop it writes
/// the JSONL dumps (if any of the output flags was given), then disables
/// the sink and the trace level so tests sharing the process stay clean.
pub struct Session {
    bin: &'static str,
    out: Option<PathBuf>,
    ts_out: Option<PathBuf>,
    health_out: Option<PathBuf>,
    guard_out: Option<PathBuf>,
}

/// Parse the shared observability flags and start a session. Call first
/// thing in `main`; keep the returned guard alive for the whole run.
pub fn session(bin: &'static str) -> Session {
    let args: Vec<String> = std::env::args().collect();
    let path_arg = |flag: &str| -> Option<PathBuf> {
        match crate::try_arg::<String>(&args, flag) {
            Ok(v) => v.map(PathBuf::from),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    };
    let out = path_arg("--metrics-out");
    let ts_out = path_arg("--timeseries-out");
    let health_out = path_arg("--health-log");
    let guard_out = path_arg("--guard-log");
    GUARD.store(guard_out.is_some(), Ordering::Relaxed);
    let level = match crate::try_arg::<String>(&args, "--trace-level") {
        Ok(Some(s)) => match Level::parse(&s) {
            Some(l) => l,
            None => {
                eprintln!("error: invalid --trace-level {s:?} (off|ctl|pkt)");
                std::process::exit(2);
            }
        },
        Ok(None) => {
            if crate::flag("--trace") {
                Level::Pkt
            } else {
                Level::Off
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    lg_obs::trace::set_level(level);
    match crate::try_arg::<usize>(&args, "--trace-cap") {
        Ok(Some(cap)) => {
            lg_obs::trace::set_ring_capacity(cap);
            TRACE_CAP.store(cap, Ordering::Relaxed);
        }
        Ok(None) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
    if out.is_some() || ts_out.is_some() || health_out.is_some() || guard_out.is_some() {
        lg_obs::sink::enable_metrics();
    }
    Session {
        bin,
        out,
        ts_out,
        health_out,
        guard_out,
    }
}

/// Publish the per-link health transitions of a fabric sweep to the
/// sink, one run label per config (e.g. `c50/CorrOptOnly`). Lines are
/// keyed by label in `cfgs` order, so `drain_sorted` output is
/// byte-identical at any `--threads` value. No-op when the sink is off.
pub fn publish_fabric_health(
    cfgs: &[lg_fabric::FabricSimConfig],
    results: &[lg_fabric::FabricSimResult],
) {
    if !lg_obs::sink::metrics_enabled() {
        return;
    }
    for (cfg, res) in cfgs.iter().zip(results) {
        let run = format!("c{:.0}/{}", cfg.constraint * 100.0, cfg.policy.label());
        let lines: Vec<String> = res
            .health_events
            .iter()
            .map(|ev| ev.to_json_line(&run))
            .collect();
        lg_obs::sink::submit_all(&format!("health/{run}"), lines);
    }
}

/// Publish the guardian decision journals of a fabric sweep to the
/// sink, one run label per `Policy::LgGuardd` config. The journal is a
/// pure fold over that run's health stream, so `drain_sorted` output is
/// byte-identical at any `--threads` value. No-op when the sink is off.
pub fn publish_fabric_guard(
    cfgs: &[lg_fabric::FabricSimConfig],
    results: &[lg_fabric::FabricSimResult],
) {
    if !lg_obs::sink::metrics_enabled() {
        return;
    }
    for (cfg, res) in cfgs.iter().zip(results) {
        if res.guard_journal.is_empty() {
            continue;
        }
        let run = format!("c{:.0}/{}", cfg.constraint * 100.0, cfg.policy.label());
        lg_obs::sink::submit_all(&format!("guard/{run}"), res.guard_journal.clone());
    }
}

/// The packet-engine telemetry plane implied by the session flags:
/// tracing follows the runtime trace level ([`Level::Pkt`]), health
/// estimation and sampled profiling follow the sink. Returns the
/// all-off default when observability is disabled, so the engine's
/// fast path is untouched.
pub fn pkt_telemetry() -> lg_fabric::PktTelemetryConfig {
    lg_fabric::PktTelemetryConfig {
        trace: lg_obs::trace::enabled(Level::Pkt),
        trace_cap: TRACE_CAP.load(Ordering::Relaxed),
        health: if lg_obs::sink::metrics_enabled() {
            Some(lg_fabric::PktTelemetryConfig::packet_health())
        } else {
            None
        },
        profile: lg_obs::sink::metrics_enabled(),
    }
}

/// Publish one packet-engine run's merged telemetry to the sink:
/// per-corrupting-link counter snapshots plus a fabric totals line
/// (`metric`), the merged packet-lifecycle trace (`trace` +
/// `trace_summary`), per-link health transitions (`health_event`), and
/// the sampled event-cost attribution (`profile`, quarantined under
/// [`lg_obs::sink::PROFILE_KEY_PREFIX`]). Everything except the profile
/// rows is a function of the simulation outcome only, so dumps stay
/// byte-identical across shard layouts. No-op when the sink is off.
pub fn publish_pkt_run(
    run: &str,
    cfg: &lg_fabric::PktFabricConfig,
    r: &lg_fabric::PktFabricResult,
) {
    if !lg_obs::sink::metrics_enabled() {
        return;
    }
    let t_end = cfg.horizon.as_ps();

    // Per-corrupting-link counters, link order (layout-invariant).
    let mut metric_lines = Vec::new();
    for l in r.links.iter().filter(|l| l.loss_ppb > 0) {
        let mut line = JsonLine::new();
        line.str("type", "metric")
            .u64("t_ps", t_end)
            .str("comp", "pktlink")
            .str("inst", &l.link.to_string());
        let mut counters = JsonLine::new();
        counters
            .u64("tx_frames", l.tx_frames)
            .u64("corrupt_drops", l.corrupt_drops)
            .u64("recoveries", l.recoveries)
            .u64("overflow_drops", l.overflow_drops)
            .u64("loss_ppb", l.loss_ppb);
        line.raw("counters", &counters.finish());
        let mut gauges = JsonLine::new();
        let mut hwm = JsonLine::new();
        hwm.u64("value", u64::from(l.queue_hwm))
            .u64("hwm", u64::from(l.queue_hwm));
        gauges.raw("queue_frames", &hwm.finish());
        line.raw("gauges", &gauges.finish());
        metric_lines.push(line.finish());
    }
    // Whole-run totals under the run label.
    let t = &r.totals;
    let mut line = JsonLine::new();
    line.str("type", "metric")
        .u64("t_ps", t_end)
        .str("comp", "pktfabric")
        .str("inst", run);
    let mut counters = JsonLine::new();
    counters
        .u64("events", t.events)
        .u64("flows", t.flows)
        .u64("flows_completed", t.flows_completed)
        .u64("tx_frames", t.tx_frames)
        .u64("corrupt_drops", t.corrupt_drops)
        .u64("recoveries", t.recoveries)
        .u64("source_retx", t.source_retx)
        .u64("overflow_drops", t.overflow_drops);
    line.raw("counters", &counters.finish());
    metric_lines.push(line.finish());
    lg_obs::sink::submit_all(&format!("pkt/{run}/0metric"), metric_lines);

    // Merged packet-lifecycle trace (already span_key-sorted; uids are
    // global, so they publish as they are).
    let trace_lines = lg_obs::trace::to_jsonl(&r.trace, r.trace_dropped, |uid| uid);
    lg_obs::sink::submit_all(&format!("pkt/{run}/1trace"), trace_lines);

    // Per-link health transitions, (link, window) order.
    let health_lines: Vec<String> = r
        .health
        .iter()
        .map(|(link, ev)| ev.to_json_line(run, "pktlink", &link.to_string()))
        .collect();
    lg_obs::sink::submit_all(&format!("pkt/{run}/2health"), health_lines);

    // Guardian replay over the run's health stream (`--guard-log`
    // sessions only). The feed is canonicalised to (t_ps, link, window)
    // order — a function of the simulation outcome, not the shard
    // layout — and the manager is a pure fold over it, so the journal
    // is byte-identical at any `--shards` value.
    if guard_enabled() && !r.health.is_empty() {
        let mut feed: Vec<lg_guardd::GuardInput> = r
            .health
            .iter()
            .map(|(link, ev)| lg_guardd::GuardInput::from_health_event(*link, ev))
            .collect();
        lg_guardd::canonical_sort(&mut feed);
        let mut mgr = lg_guardd::GuardManager::new(run, lg_guardd::GuardConfig::default());
        for ev in &feed {
            mgr.ingest(*ev);
        }
        let mut guard_lines = mgr.take_journal();
        guard_lines.push(mgr.snapshot_line());
        lg_obs::sink::submit_all(&format!("pkt/{run}/3guard"), guard_lines);
    }

    // Sampled event-cost attribution (wall-clock; quarantined).
    lg_obs::sink::submit_profile(
        &format!("pktsim/{run}"),
        &lg_fabric::PktProfile::KINDS,
        &r.profile.counts,
        &r.profile.total_ns,
    );
}

/// Write one dump: a fresh `meta` line, then `lines`.
fn write_dump(path: &PathBuf, bin: &str, lines: Vec<String>) {
    let mut meta = JsonLine::new();
    meta.str("type", "meta")
        .u64("schema", SCHEMA_VERSION)
        .str("bin", bin);
    let mut all = vec![meta.finish()];
    all.extend(lines);
    let n = all.len();
    let mut doc = all.join("\n");
    doc.push('\n');
    match std::fs::File::create(path).and_then(|mut f| f.write_all(doc.as_bytes())) {
        Ok(()) => eprintln!("wrote {n} observability records to {}", path.display()),
        Err(e) => eprintln!("error writing {}: {e}", path.display()),
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.out.is_some()
            || self.ts_out.is_some()
            || self.health_out.is_some()
            || self.guard_out.is_some()
        {
            // One drain, partitioned by record type: dedicated outputs
            // claim their lines, the main dump keeps the rest.
            let mut main_lines = Vec::new();
            let mut ts_lines = Vec::new();
            let mut health_lines = Vec::new();
            let mut guard_lines = Vec::new();
            for line in lg_obs::sink::drain_sorted() {
                if self.ts_out.is_some() && line.contains("\"type\":\"timeseries\"") {
                    ts_lines.push(line);
                } else if self.health_out.is_some() && line.contains("\"type\":\"health_event\"") {
                    health_lines.push(line);
                } else if self.guard_out.is_some()
                    && (line.contains("\"type\":\"guard_event\"")
                        || line.contains("\"type\":\"guard_snapshot\""))
                {
                    guard_lines.push(line);
                } else {
                    main_lines.push(line);
                }
            }
            if let Some(path) = self.out.take() {
                write_dump(&path, self.bin, main_lines);
            }
            if let Some(path) = self.ts_out.take() {
                write_dump(&path, self.bin, ts_lines);
            }
            if let Some(path) = self.health_out.take() {
                write_dump(&path, self.bin, health_lines);
            }
            if let Some(path) = self.guard_out.take() {
                write_dump(&path, self.bin, guard_lines);
            }
        }
        GUARD.store(false, Ordering::Relaxed);
        lg_obs::sink::disable_and_clear();
        lg_obs::trace::set_level(Level::Off);
        lg_obs::trace::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The obs sink and trace level are process-global and `cargo test`
    /// runs tests on parallel threads: every test here that enables,
    /// fills, drains or asserts on the sink holds this lock for its
    /// whole body, or one test's `Session` drop drains another's lines.
    static SINK: Mutex<()> = Mutex::new(());

    fn sink_lock() -> MutexGuard<'static, ()> {
        // A panicking test poisons the lock; the sink itself is reset by
        // every `Session` drop, so the next test can proceed.
        SINK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn session_defaults_are_off() {
        let _sink = sink_lock();
        // No flags in the test harness argv: level off, no sink.
        let s = session("test_bin");
        assert_eq!(lg_obs::trace::level(), Level::Off);
        assert!(!lg_obs::sink::metrics_enabled());
        drop(s);
    }

    #[test]
    fn dump_shape_round_trips() {
        let _sink = sink_lock();
        let dir = std::env::temp_dir().join("lg_obs_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        {
            let s = Session {
                bin: "test_bin",
                out: Some(path.clone()),
                ts_out: None,
                health_out: None,
                guard_out: None,
            };
            lg_obs::sink::enable_metrics();
            lg_obs::sink::submit(
                "a",
                "{\"type\":\"trace_summary\",\"records\":0,\"dropped\":0}".into(),
            );
            drop(s);
        }
        let doc = std::fs::read_to_string(&path).unwrap();
        let schema_doc = include_str!("../../../schema/obs-schema.json");
        let schema = lg_obs::schema::Schema::parse(schema_doc).unwrap();
        let counts = schema.validate(&doc).unwrap();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 2, "meta + submitted line");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dedicated_outputs_partition_the_drain() {
        let _sink = sink_lock();
        let dir = std::env::temp_dir().join("lg_obs_session_split_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (main_p, ts_p, health_p, guard_p) = (
            dir.join("dump.jsonl"),
            dir.join("ts.jsonl"),
            dir.join("health.jsonl"),
            dir.join("guard.jsonl"),
        );
        {
            let s = Session {
                bin: "test_bin",
                out: Some(main_p.clone()),
                ts_out: Some(ts_p.clone()),
                health_out: Some(health_p.clone()),
                guard_out: Some(guard_p.clone()),
            };
            lg_obs::sink::enable_metrics();
            lg_obs::sink::submit(
                "a",
                "{\"type\":\"trace_summary\",\"records\":0,\"dropped\":0}".into(),
            );
            lg_obs::sink::submit(
                "a",
                "{\"type\":\"timeseries\",\"t_ps\":1,\"window_id\":1,\"run\":\"r\",\
                 \"comp\":\"c\",\"inst\":\"i\",\"name\":\"n\",\"value\":1.0,\"ewma\":1.0}"
                    .into(),
            );
            lg_obs::sink::submit(
                "a",
                "{\"type\":\"health_event\",\"t_ps\":1,\"window_id\":1,\"run\":\"r\",\
                 \"comp\":\"c\",\"inst\":\"i\",\"from\":\"healthy\",\"to\":\"degraded\",\
                 \"rate\":1e-7}"
                    .into(),
            );
            let mut mgr = lg_guardd::GuardManager::new("r", lg_guardd::GuardConfig::oracle());
            mgr.ingest(lg_guardd::GuardInput {
                t_ps: 1,
                window_id: 1,
                link: 0,
                from: lg_obs::LinkHealth::Healthy,
                to: lg_obs::LinkHealth::Corrupting,
                rate: 1e-3,
            });
            let journal = mgr.take_journal();
            assert_eq!(journal.len(), 1, "one enable decision journaled");
            lg_obs::sink::submit_all("a", journal);
            drop(s);
        }
        let schema_doc = include_str!("../../../schema/obs-schema.json");
        let schema = lg_obs::schema::Schema::parse(schema_doc).unwrap();
        for (path, want_ty) in [
            (&main_p, "trace_summary"),
            (&ts_p, "timeseries"),
            (&health_p, "health_event"),
            (&guard_p, "guard_event"),
        ] {
            let doc = std::fs::read_to_string(path).unwrap();
            schema.validate(&doc).unwrap();
            assert_eq!(doc.lines().count(), 2, "{want_ty}: meta + 1 record");
            assert!(
                doc.lines().nth(1).unwrap().contains(want_ty),
                "{want_ty} routed to {}",
                path.display()
            );
            std::fs::remove_file(path).ok();
        }
    }
}
