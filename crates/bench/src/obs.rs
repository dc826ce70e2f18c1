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
//! Every binary also takes `--threads N` (suite-wide runs pass it to all
//! of them; a binary without a parallel sweep ignores it). Any other
//! `--option` that is not in the binary's own list given to [`session`]
//! is refused before any work, with `error: unknown option --x` and
//! exit status 2: a misspelt option must not run the default experiment.
//!
//! Every output file is created when the session starts, before any
//! work: a path that cannot be written is refused up front with
//! `error: cannot write <path>: <reason>` and exit status 2, not found
//! out after a long run. A write that fails at exit exits 1.
//!
//! Any of the output flags enables the sink; each written file
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

/// Options every binary takes besides its own.
const SESSION_OPTIONS: [&str; 8] = [
    "--metrics-out",
    "--timeseries-out",
    "--health-log",
    "--guard-log",
    "--trace",
    "--trace-level",
    "--trace-cap",
    "--threads",
];

/// The first `--option` in `args` (program name excluded) that is
/// neither a session option nor one of `options`.
fn unknown_option<'a>(args: &'a [String], options: &[&str]) -> Option<&'a str> {
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !SESSION_OPTIONS.contains(a) && !options.contains(a))
}

/// Refuse any `--option` that is neither a session option nor one of
/// the binary's own `options` (stderr, exit 2), parse the shared
/// observability flags and start a session. Call first thing in `main`;
/// keep the returned guard alive for the whole run.
pub fn session(bin: &'static str, options: &[&str]) -> Session {
    let args: Vec<String> = std::env::args().collect();
    if let Some(bad) = unknown_option(&args[1..], options) {
        eprintln!("error: unknown option {bad}");
        std::process::exit(2);
    }
    start(bin, &args)
}

/// [`session`] over `args`, once its options are known to be valid.
fn start(bin: &'static str, args: &[String]) -> Session {
    let path_arg = |flag: &str| -> Option<PathBuf> {
        match crate::try_arg::<String>(args, flag) {
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
    for path in [&out, &ts_out, &health_out, &guard_out]
        .into_iter()
        .flatten()
    {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    GUARD.store(guard_out.is_some(), Ordering::Relaxed);
    let level = match crate::try_arg::<String>(args, "--trace-level") {
        Ok(Some(s)) => match Level::parse(&s) {
            Some(l) => l,
            None => {
                eprintln!("error: invalid --trace-level {s:?} (off|ctl|pkt)");
                std::process::exit(2);
            }
        },
        Ok(None) => {
            if args.iter().any(|a| a == "--trace") {
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
    match crate::try_arg::<usize>(args, "--trace-cap") {
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

    // Per-corrupting-link counters in link order (layout-invariant),
    // then the whole-run totals under the run label.
    let mut reg = lg_obs::MetricsRegistry::new();
    for l in r.links.iter().filter(|l| l.loss_ppb > 0) {
        reg.record(t_end, "pktlink", &l.link.to_string(), l);
    }
    reg.record(t_end, "pktfabric", run, &r.totals);
    lg_obs::sink::submit_all(&format!("pkt/{run}/0metric"), reg.to_jsonl());

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

/// Write one dump: a fresh `meta` line, then `lines`. Returns false
/// (after saying why on stderr) if the file could not be written.
fn write_dump(path: &PathBuf, bin: &str, lines: Vec<String>) -> bool {
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
        Ok(()) => {
            eprintln!("wrote {n} observability records to {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            false
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let mut written = true;
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
            for (path, lines) in [
                (self.out.take(), main_lines),
                (self.ts_out.take(), ts_lines),
                (self.health_out.take(), health_lines),
                (self.guard_out.take(), guard_lines),
            ] {
                if let Some(path) = path {
                    written &= write_dump(&path, self.bin, lines);
                }
            }
        }
        GUARD.store(false, Ordering::Relaxed);
        lg_obs::sink::disable_and_clear();
        lg_obs::trace::set_level(Level::Off);
        lg_obs::trace::reset();
        if !written {
            std::process::exit(1);
        }
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
        // No flags: level off, no sink.
        let s = start("test_bin", &["test_bin".to_string()]);
        assert_eq!(lg_obs::trace::level(), Level::Off);
        assert!(!lg_obs::sink::metrics_enabled());
        drop(s);
    }

    #[test]
    fn only_session_and_own_options_are_known() {
        let argv =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        let own = ["--days", "--guardd"];
        let ok = argv(&["--days", "-1", "--guardd", "--threads", "1", "--trace", "x"]);
        assert_eq!(unknown_option(&ok, &own), None);
        let typo = argv(&["--days", "2", "--sampel-hours", "1", "--trails"]);
        assert_eq!(unknown_option(&typo, &own), Some("--sampel-hours"));
        assert_eq!(unknown_option(&argv(&["--guardd"]), &[]), Some("--guardd"));
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
