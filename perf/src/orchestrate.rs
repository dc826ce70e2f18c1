//! The orchestrating process: runs every requested (workload, trace) in
//! its own child process, prints each metric as `workload name unit
//! value`, and writes the collected records under `out/`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use lg_obs::json::parse;
use lg_obs::JsonValue;

use crate::metrics::{ALL, END_TO_END, PER_LAYER};
use crate::runner::RunSpec;
use crate::w_obs::REPORT_TAG;

/// A child that has not finished by then is killed: the benchmark
/// contract allows a run 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Prefix of the child's full-record line.
pub const RECORD_PREFIX: &str = "record ";

/// What the orchestrator was asked to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `None` runs every workload.
    pub workload: Option<String>,
    /// `None` runs untraced, then traced.
    pub trace: Option<bool>,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub perf_dir: PathBuf,
    pub record_golden: bool,
}

/// One finished child: its parsed full record and its contract line.
pub struct ChildResult {
    pub record: JsonValue,
    pub record_json: String,
    pub contract_line: String,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("record lacks {key:?}"))
}

/// Run one (workload, trace) in a child process of this executable and
/// collect what it printed. The child is always waited for; one that
/// outlives [`CHILD_DEADLINE`] is killed first.
pub fn run_child(spec: &RunSpec) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", &spec.workload])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .arg("--perf-dir")
        .arg(&spec.perf_dir)
        .stdout(Stdio::piped());
    if spec.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        // `report_run` prints its sections to stdout under this tag.
        let noise = format!("[{REPORT_TAG}]");
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .filter(|l| !l.starts_with(&noise))
            .collect::<Vec<String>>()
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{} trace {} exceeded {} s and was killed",
                    spec.workload,
                    u8::from(spec.trace),
                    CHILD_DEADLINE.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("cannot wait for child: {e}"));
            }
        }
    };
    let lines = reader
        .join()
        .map_err(|_| "child output reader panicked".to_string())?;
    if !status.success() {
        return Err(format!(
            "{} trace {} exited with {status}",
            spec.workload,
            u8::from(spec.trace)
        ));
    }
    let record_json = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or("child printed no record")?
        .to_string();
    let contract_line = lines.last().cloned().ok_or("child printed nothing")?;
    let record = parse(&record_json).map_err(|e| format!("child record is not JSON: {e}"))?;
    Ok(ChildResult {
        record,
        record_json,
        contract_line,
    })
}

/// Print every metric of a record as `workload name unit value`, in
/// schema order.
fn print_metrics(workload: &str, record: &JsonValue) -> Result<(), String> {
    let metrics = field(record, "metrics")?;
    let names = END_TO_END
        .iter()
        .map(|e| e.name)
        .chain(PER_LAYER.iter().map(|l| l.name));
    for name in names {
        let Some(m) = metrics.get(name) else {
            continue;
        };
        let unit = field(m, "unit")?.as_str().unwrap_or("");
        let value = field(m, "value")?.as_num().unwrap_or(0.0);
        println!("{workload} {name} {unit} {}", crate::runner::num(value));
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The collected records of one orchestrated run, as one JSON document.
pub fn result_json(plan: &Plan, records: &[String]) -> String {
    format!(
        "{{\"schema\":1,\"seed\":{},\"quick\":{},\"run_seconds\":{},\"nproc\":{},\"records\":[\n{}\n]}}\n",
        plan.seed,
        plan.quick,
        crate::runner::num(plan.seconds),
        nproc(),
        records.join(",\n")
    )
}

/// Run the plan. Returns the full records (JSON text) in run order, or
/// the first error. Prints the contract line last when the plan is a
/// single (workload, trace).
pub fn execute(plan: &Plan) -> Result<Vec<String>, String> {
    let workloads: Vec<&str> = match &plan.workload {
        Some(w) if ALL.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload {w:?}; known: {}", ALL.join(" "))),
        None => ALL.to_vec(),
    };
    let traces: &[bool] = match plan.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let out = plan.perf_dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let mut records = Vec::new();
    let mut last_contract = String::new();
    let mut incorrect = Vec::new();
    for workload in &workloads {
        for &trace in traces {
            let spec = RunSpec {
                workload: workload.to_string(),
                trace,
                seed: plan.seed,
                seconds: plan.seconds,
                quick: plan.quick,
                perf_dir: plan.perf_dir.clone(),
            };
            let child = run_child(&spec)?;
            print_metrics(workload, &child.record)?;
            let correct = field(&child.record, "correct")? == &JsonValue::Bool(true);
            if !correct {
                eprintln!(
                    "lg-perf: {workload} trace {}: NOT CORRECT: {:?}",
                    u8::from(trace),
                    field(&child.record, "broken")?
                );
                incorrect.push(format!("{workload}/trace{}", u8::from(trace)));
            }
            if plan.record_golden && !trace && !plan.quick {
                let hex = field(&child.record, "digest")?.as_str().unwrap_or("");
                let digest =
                    u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest {hex:?}: {e}"))?;
                crate::runner::write_golden(&plan.perf_dir, workload, plan.seed, digest)
                    .map_err(|e| format!("cannot write golden digest: {e}"))?;
            }
            last_contract = child.contract_line;
            records.push(child.record_json);
        }
    }

    let single = workloads.len() == 1 && traces.len() == 1;
    let path = if single {
        out.join(format!(
            "{}.trace{}.json",
            workloads[0],
            u8::from(traces[0])
        ))
    } else {
        out.join("result.json")
    };
    std::fs::write(&path, result_json(plan, &records))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if single {
        // The benchmark contract: one JSON object on the last line.
        println!("{last_contract}");
    } else if !incorrect.is_empty() {
        return Err(format!("incorrect runs: {}", incorrect.join(" ")));
    }
    Ok(records)
}
