//! `lg-perf` — one command, one schema: end-to-end and per-layer numbers
//! for the four simulation engines and the observability tool chain.
//!
//! ```text
//! lg-perf [--seed N] [--seconds S] [--quick] [--workload W] [--trace 0|1]
//!         [--calibrate] [--record-golden] [--perf-dir DIR]
//! lg-perf compare A.json B.json [--benchmark BENCHMARK.json]
//! lg-perf --selfcheck
//! lg-perf schema
//! ```
//!
//! Without `--workload`/`--trace` every workload runs untraced, then
//! traced. Each (workload, trace) runs in its own child process
//! (`lg-perf child ...`); see `perf/README.md`.

mod compare;
mod kernels;
mod metrics;
mod orchestrate;
mod proc;
mod runner;
mod span;
mod stats;
mod w_chain;
mod w_fabric;
mod w_obs;
mod w_pktfab;
mod w_testbed;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use orchestrate::{Plan, RECORD_PREFIX};
use runner::RunSpec;
use span::Recorder;
use workload::Variant;

#[global_allocator]
static GLOBAL: proc::CountingAlloc = proc::CountingAlloc;

/// Seconds one run measures for when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Command-line options shared by the orchestrator and the child.
struct Opts {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    calibrate: bool,
    record_golden: bool,
    selfcheck: bool,
    perf_dir: PathBuf,
    benchmark: Option<PathBuf>,
    positional: Vec<String>,
}

fn usage() -> String {
    "usage: lg-perf [--seed N] [--seconds S] [--quick] [--workload W] [--trace 0|1] \
     [--calibrate] [--record-golden] [--perf-dir DIR]\n       \
     lg-perf compare A.json B.json [--benchmark BENCHMARK.json]\n       \
     lg-perf --selfcheck | schema"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        trace: None,
        seed: 1,
        seconds: None,
        quick: false,
        calibrate: false,
        record_golden: false,
        selfcheck: false,
        // Where this package was built from; run.sh passes it explicitly.
        perf_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        benchmark: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value(a)?),
            "--trace" => {
                o.trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--seed" => {
                let v = value(a)?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(a)?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                o.seconds = Some(s);
            }
            "--perf-dir" => o.perf_dir = PathBuf::from(value(a)?),
            "--benchmark" => o.benchmark = Some(PathBuf::from(value(a)?)),
            "--quick" => o.quick = true,
            "--calibrate" => o.calibrate = true,
            "--record-golden" => o.record_golden = true,
            "--selfcheck" => o.selfcheck = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

impl Opts {
    fn seconds(&self) -> f64 {
        // A quick run measures its minimum rep count and stops.
        self.seconds
            .unwrap_or(if self.quick { 0.0 } else { DEFAULT_SECONDS })
    }

    fn benchmark_path(&self) -> PathBuf {
        self.benchmark
            .clone()
            .unwrap_or_else(|| self.perf_dir.join("..").join("BENCHMARK.json"))
    }

    fn plan(&self) -> Plan {
        Plan {
            workload: self.workload.clone(),
            trace: self.trace,
            seed: self.seed,
            seconds: self.seconds(),
            quick: self.quick,
            perf_dir: self.perf_dir.clone(),
            record_golden: self.record_golden,
        }
    }
}

/// The measuring child: metric lines, the full record, then the line
/// the benchmark contract asks for.
fn child(o: &Opts, started: Instant) -> Result<(), String> {
    let spec = RunSpec {
        workload: o.workload.clone().ok_or("child needs --workload")?,
        trace: o.trace.ok_or("child needs --trace")?,
        seed: o.seed,
        seconds: o.seconds(),
        quick: o.quick,
        perf_dir: o.perf_dir.clone(),
    };
    let record = runner::run(&spec, started)?;
    println!("{RECORD_PREFIX}{}", record.to_json());
    println!("{}", record.contract_line());
    Ok(())
}

/// Two back-to-back untraced suites of the same code; every bound in
/// `BENCHMARK.json` must be at least twice the spread they show.
fn calibrate(o: &Opts) -> Result<(), String> {
    let mut plan = o.plan();
    plan.trace = Some(false);
    let bench = std::fs::read_to_string(o.benchmark_path())
        .map_err(|e| format!("cannot read {}: {e}", o.benchmark_path().display()))?;
    let first = orchestrate::result_json(&plan, &orchestrate::execute(&plan)?);
    let second = orchestrate::result_json(&plan, &orchestrate::execute(&plan)?);
    let rows = compare::calibrate(&first, &second, &bench)?;
    let path = o.perf_dir.join("out").join("calibration.json");
    std::fs::write(&path, compare::calibration_json(&rows))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut tight = 0;
    for r in &rows {
        println!(
            "{} {} spread {:.2}% bound {:.0}% {}",
            r.workload,
            r.metric,
            100.0 * r.spread,
            100.0 * r.bound,
            if r.ok { "ok" } else { "BOUND UNDER 2x SPREAD" }
        );
        tight += usize::from(!r.ok);
    }
    if tight > 0 {
        return Err(format!(
            "{tight} bounds are under twice the observed spread: raise reps (--seconds), not the bound"
        ));
    }
    Ok(())
}

/// Every workload at `--quick` size, twice untraced and once traced in
/// this process: equal digests, no failed operation, every invariant.
fn selfcheck(o: &Opts) -> Result<(), String> {
    let dir = o
        .perf_dir
        .join("out")
        .join(format!("selfcheck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut bad = Vec::new();
    for wl in workload::all() {
        let mut rec = Recorder::new();
        let mut outcomes = Vec::new();
        for traced in [false, false, true] {
            let variant = if traced {
                Variant::Traced
            } else {
                Variant::Base
            };
            let mut rep = wl.prepare(o.seed, true, variant, &dir, &mut rec);
            if traced {
                rep.run_traced(&mut rec);
            } else {
                rep.run();
            }
            outcomes.push(rep.outcome());
        }
        let digests: Vec<u64> = outcomes.iter().map(|o| o.digest).collect();
        let broken: Vec<&String> = outcomes.iter().flat_map(|o| &o.broken).collect();
        let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
        let ok = digests.windows(2).all(|w| w[0] == w[1]) && broken.is_empty() && failed == 0;
        println!(
            "{} {} digest {:016x} failed {failed} work {}",
            wl.name(),
            if ok { "ok" } else { "FAILED" },
            digests[0],
            outcomes[0].work
        );
        if !ok {
            bad.push(format!(
                "{}: digests {digests:x?}, broken {broken:?}",
                wl.name()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// The `workloads`, `end_to_end` names and `per_layer` entries in the
/// form `BENCHMARK.json` lists them.
fn schema() {
    println!("\"workloads\": [");
    let all = workload::all();
    for (i, w) in all.iter().enumerate() {
        let sep = if i + 1 < all.len() { "," } else { "" };
        println!(
            "  {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name(),
            w.why()
        );
    }
    println!("],\n\"end_to_end\": [");
    for (i, e) in metrics::END_TO_END.iter().enumerate() {
        let sep = if i + 1 < metrics::END_TO_END.len() {
            ","
        } else {
            ""
        };
        println!(
            "  {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": null}}{sep}",
            e.name, e.unit, e.better
        );
    }
    println!("],\n\"per_layer\": [");
    for (i, l) in metrics::PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < metrics::PER_LAYER.len() {
            ","
        } else {
            ""
        };
        println!(
            "  {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            l.name, l.unit, l.better
        );
    }
    println!("]");
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args)?;
    match o.positional.first().map(String::as_str) {
        Some("child") => child(&o, started)?,
        Some("schema") => schema(),
        Some("compare") => {
            let [_, a, b] = o.positional.as_slice() else {
                return Err(usage());
            };
            if compare::compare(a, b, &o.benchmark_path())? > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        Some(other) => return Err(format!("unknown command {other:?}\n{}", usage())),
        None if o.selfcheck => selfcheck(&o)?,
        None if o.calibrate => calibrate(&o)?,
        None => {
            orchestrate::execute(&o.plan())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lg-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_obs::JsonValue;

    fn quick_opts() -> Opts {
        parse_args(&["--quick".to_string()]).expect("valid options")
    }

    /// Every workload at `--quick` size, run twice untraced and once
    /// traced in this process: equal digests and every invariant.
    #[test]
    fn selfcheck_passes_at_seed_1_and_2() {
        let mut o = quick_opts();
        selfcheck(&o).expect("seed 1");
        o.seed = 2;
        selfcheck(&o).expect("seed 2");
    }

    /// A quick traced run of every workload is correct and reports
    /// every per-layer metric the schema maps to it; kernels, host
    /// times and sizes are positive.
    #[test]
    fn traced_runs_report_every_mapped_metric() {
        let o = quick_opts();
        for name in metrics::ALL {
            let spec = RunSpec {
                workload: name.to_string(),
                trace: true,
                seed: 1,
                seconds: 0.0,
                quick: true,
                perf_dir: o.perf_dir.clone(),
            };
            std::fs::create_dir_all(spec.perf_dir.join("out")).expect("out dir");
            let r = runner::run(&spec, Instant::now()).expect("runs");
            assert!(r.correct, "{name}: {:?}", r.broken);
            assert_eq!(r.failed, 0, "{name}");
            assert_eq!(r.values.len(), metrics::PER_LAYER.len());
            for l in metrics::PER_LAYER {
                let v = r
                    .values
                    .iter()
                    .find(|v| v.name == l.name)
                    .expect("every metric is printed")
                    .value;
                assert!(v.is_finite() && v >= 0.0, "{name} {} = {v}", l.name);
                let positive = matches!(l.kind, metrics::Kind::Kernel | metrics::Kind::Ratio)
                    && !l.name.starts_with("fabric.pktsim.share.");
                if l.workloads.contains(name) && positive {
                    assert!(v > 0.0, "{name} {} = {v}", l.name);
                }
            }
            let spans = spec
                .perf_dir
                .join("out")
                .join(format!("{name}.spans.jsonl"));
            let text = std::fs::read_to_string(spans).expect("spans written");
            assert!(text.lines().all(|l| lg_obs::json::parse(l).is_ok()));
            assert!(text.contains("\"name\":\"measure\""));
            // The record and the contract line are valid JSON with the
            // contract's keys.
            let line = lg_obs::json::parse(&r.contract_line()).expect("contract line parses");
            let JsonValue::Obj(keys) = &line else {
                panic!("contract line is an object");
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            lg_obs::json::parse(&r.to_json()).expect("record parses");
        }
    }

    /// A quick untraced run reports exactly the end-to-end metrics, all
    /// positive.
    #[test]
    fn untraced_run_reports_the_end_to_end_metrics() {
        let o = quick_opts();
        let spec = RunSpec {
            workload: metrics::FC.to_string(),
            trace: false,
            seed: 3,
            seconds: 0.0,
            quick: true,
            perf_dir: o.perf_dir.clone(),
        };
        std::fs::create_dir_all(spec.perf_dir.join("out")).expect("out dir");
        let r = runner::run(&spec, Instant::now()).expect("runs");
        assert!(r.correct && r.failed == 0 && r.reps >= 3, "{:?}", r.broken);
        let names: Vec<&str> = r.values.iter().map(|v| v.name.as_str()).collect();
        let want: Vec<&str> = metrics::END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, want);
        assert!(r.values.iter().all(|v| v.value > 0.0));
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics of the
    /// schema, within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let o = quick_opts();
        let text = std::fs::read_to_string(o.benchmark_path()).expect("BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = lg_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let JsonValue::Obj(top) = &doc else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            let Some(JsonValue::Arr(list)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            list.iter()
                .map(|e| {
                    e.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("entry has a name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), metrics::ALL);
        let e2e: Vec<&str> = metrics::END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = metrics::PER_LAYER.iter().map(|l| l.name).collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_num),
            Some(DEFAULT_SECONDS)
        );
        for (name, (bound, higher)) in compare::bounds(&text).expect("bounds parse") {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
            let e = metrics::END_TO_END
                .iter()
                .find(|e| e.name == name)
                .expect("known metric");
            assert_eq!(higher, e.better == "higher");
        }
        let whys = doc.get("workloads").expect("workloads");
        for (w, wl) in workload::all().iter().enumerate() {
            let JsonValue::Arr(list) = whys else {
                panic!("workloads is a list");
            };
            assert_eq!(
                list[w].get("why").and_then(JsonValue::as_str),
                Some(wl.why())
            );
        }
    }
}
