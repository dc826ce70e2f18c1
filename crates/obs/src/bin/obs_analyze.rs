//! Post-hoc analysis of observability JSONL dumps.
//!
//! ```text
//! obs_analyze <file.jsonl>... [--compare <file.jsonl>...]
//!             [--attr-window-us <N>] [--out <report.jsonl>] [--rss]
//! ```
//!
//! Positional files form one logical run (a `--metrics-out` dump plus
//! its `--timeseries-out` / `--health-log` splits, in any order — lines
//! are dispatched by their `type` field). The report covers:
//!
//! * **recovery latency** — every `corrupt_drop` trace paired with its
//!   `recovered` trace by packet uid: distribution of the hole duration
//!   the LG receiver masked, plus how many drops never recovered;
//! * **buffer occupancy** — per-series timelines (queue depth, LG tx/rx
//!   buffers) summarized as peak / mean / last;
//! * **FCT-tail attribution** — end-to-end retransmission windows
//!   (`e2e_retx` timeseries) classified as corruption-induced when a
//!   `corrupt_drop` landed within the window (stretched backwards by
//!   `--attr-window-us`, default one extra window) or congestion-induced
//!   otherwise — e2e retx are what put flows into the FCT tail;
//! * **link health** — transition counts and final state per link.
//!
//! With `--compare`, the files after the flag form a second run; the
//! report prints both sides plus deltas and flags regressions (second
//! run worse by >10% on recovery p99 or buffer peaks, or a higher
//! corruption share of e2e retx).
//!
//! `--out` additionally writes the report as `report` records
//! conforming to `schema/obs-schema.json`.
//!
//! Files stream through the analyzer line-at-a-time
//! ([`lg_obs::analyze`]), so memory is bounded by loss events and
//! series counts, not file size; `--rss` prints the process peak RSS
//! (`VmHWM`) to stderr at exit so CI can gate the bound on generated
//! multi-hundred-MB dumps.

use lg_obs::analyze::{compare, report_run, Report, Run};
use lg_obs::JsonLine;
use std::io::Write;
use std::process::ExitCode;

/// Print the kernel-reported peak RSS to stderr (Linux `VmHWM`; silent
/// elsewhere).
fn eprint_peak_rss() {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                eprintln!("peak_rss_kb: {kb}");
                return;
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut a_files = Vec::new();
    let mut b_files = Vec::new();
    let mut comparing = false;
    let mut attr_us = 0u64;
    let mut out_path: Option<String> = None;
    let mut rss = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                comparing = true;
                i += 1;
            }
            "--attr-window-us" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    eprintln!("--attr-window-us needs a number");
                    return ExitCode::FAILURE;
                };
                attr_us = v;
                i += 2;
            }
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = Some(v.clone());
                i += 2;
            }
            "--rss" => {
                rss = true;
                i += 1;
            }
            f => {
                if comparing {
                    b_files.push(f.to_string());
                } else {
                    a_files.push(f.to_string());
                }
                i += 1;
            }
        }
    }
    if a_files.is_empty() || (comparing && b_files.is_empty()) {
        eprintln!(
            "usage: obs_analyze <file.jsonl>... [--compare <file.jsonl>...] \
             [--attr-window-us <N>] [--out <report.jsonl>] [--rss]"
        );
        return ExitCode::FAILURE;
    }
    let attr_ps = attr_us.saturating_mul(1_000_000);
    let mut run_a = Run::default();
    for f in &a_files {
        if let Err(e) = run_a.ingest_file(f) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let mut rep = Report::default();
    let stats_a = report_run(
        if comparing { "A" } else { "run" },
        &run_a,
        attr_ps,
        &mut rep,
    );
    if comparing {
        let mut run_b = Run::default();
        for f in &b_files {
            if let Err(e) = run_b.ingest_file(f) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        let stats_b = report_run("B", &run_b, attr_ps, &mut rep);
        let regressions = compare(&stats_a, &stats_b, &mut rep);
        println!("[compare] {regressions} regression(s) flagged");
    }
    if let Some(path) = out_path {
        let mut meta = JsonLine::new();
        meta.str("type", "meta")
            .u64("schema", 2)
            .str("bin", "obs_analyze");
        let mut doc = meta.finish();
        for r in &rep.records {
            doc.push('\n');
            doc.push_str(r);
        }
        doc.push('\n');
        if let Err(e) = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes())) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} report records to {path}", rep.records.len() + 1);
    }
    if rss {
        eprint_peak_rss();
    }
    ExitCode::SUCCESS
}
