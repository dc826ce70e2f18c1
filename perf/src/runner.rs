//! The measuring process: one (workload, trace) run, fresh set-up per
//! rep, medians over reps, one JSON record on the last line of stdout.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lg_obs::json::write_escaped;

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::proc;
use crate::span::Recorder;
use crate::stats::{self, Summary};
use crate::workload::{
    self, AbRatio, LayerValues, Outcome, Variant, Workload, MEASURE_SPAN, SETUP_SPAN,
};

/// Fewest measured reps a run reports on, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fewest traced reps (each paired with an untraced reference rep) per
/// traced run; more are added until half of `--seconds` is used.
const MIN_TRACED_PAIRS: usize = 2;
/// Reps per A/B variant.
const AB_REPS: usize = 2;

/// What one measuring process is asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub perf_dir: PathBuf,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// How the value came about (end-to-end metrics only).
    pub detail: Option<Detail>,
}

/// The per-rep samples behind an end-to-end value.
#[derive(Debug, Clone, PartialEq)]
pub struct Detail {
    pub summary: Summary,
    pub samples: Vec<f64>,
    /// Median before normalising to nominal processor speed.
    pub raw_median: f64,
}

/// The result of one (workload, trace) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub quick: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub broken: Vec<String>,
    pub digest: u64,
    /// 1 = matches the golden digest, 0 = differs, 2 = no golden for
    /// this (workload, seed, size).
    pub digest_match: u8,
    pub reps: usize,
    /// Processor speed over the run relative to nominal; times are
    /// reported at nominal speed.
    pub speed: f64,
    pub size: String,
    pub work_unit: String,
    pub values: Vec<Value>,
}

/// JSON number: shortest round-trip form, every measured digit kept.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

impl Record {
    /// The line the benchmark contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (`value` + `unit` each).
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quoted(&v.name),
                    num(v.value),
                    quoted(&v.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The full record, one line of JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"trace\":{},\"seed\":{},\"quick\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"digest_match\":{},\
             \"reps\":{},\"speed\":{},\"size\":{},\"work_unit\":{},\"broken\":[{}],\"metrics\":{{",
            quoted(&self.workload),
            u8::from(self.trace),
            self.seed,
            self.quick,
            self.correct,
            self.attempted,
            self.failed,
            self.digest,
            self.digest_match,
            self.reps,
            num(self.speed),
            quoted(&self.size),
            quoted(&self.work_unit),
            self.broken
                .iter()
                .map(|b| quoted(b))
                .collect::<Vec<_>>()
                .join(","),
        );
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"unit\":{},\"value\":{}",
                quoted(&v.name),
                quoted(&v.unit),
                num(v.value)
            );
            if let Some(d) = &v.detail {
                let sm = d.summary;
                let _ = write!(
                    s,
                    ",\"raw_median\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]",
                    num(d.raw_median),
                    num(sm.median),
                    num(sm.q1),
                    num(sm.q3),
                    sm.n,
                    d.samples
                        .iter()
                        .map(|x| num(*x))
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
            if let Some(l) = metrics::layer(&v.name) {
                let _ = write!(s, ",\"kind\":\"{}\"", l.kind.letter());
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// Wall, CPU and allocation cost of one rep's measured region, as the
/// clocks read them.
struct Timed {
    setup_s: f64,
    wall_s: f64,
    cpu_ns: u64,
    process_cpu_ns: u64,
    allocs: u64,
    /// Processor speed just before and just after the measured region,
    /// relative to nominal (see [`proc::speed_now`]).
    speeds: [f64; 2],
    outcome: Outcome,
}

/// Median of one field over a set of reps.
fn median_by(reps: &[Timed], field: impl Fn(&Timed) -> f64) -> f64 {
    stats::median(&reps.iter().map(field).collect::<Vec<_>>())
}

/// Prepare one rep and run its measured region untraced.
fn rep_untraced(wl: &dyn Workload, spec: &RunSpec, variant: Variant, dir: &Path) -> Timed {
    let mut scratch = Recorder::new();
    let t0 = Instant::now();
    let mut rep = wl.prepare(spec.seed, spec.quick, variant, dir, &mut scratch);
    let setup_s = t0.elapsed().as_secs_f64();
    let speed0 = proc::speed_now();
    let pcpu0 = proc::process_cpu_ticks_ns().unwrap_or(0);
    let cpu0 = proc::cpu_ns().unwrap_or(0);
    let a0 = proc::allocs();
    let t1 = Instant::now();
    rep.run();
    let wall_s = t1.elapsed().as_secs_f64();
    let allocs = proc::allocs() - a0;
    let cpu_ns = proc::cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    let process_cpu_ns = proc::process_cpu_ticks_ns()
        .unwrap_or(0)
        .saturating_sub(pcpu0);
    let speeds = [speed0, proc::speed_now()];
    Timed {
        setup_s,
        wall_s,
        cpu_ns,
        process_cpu_ns,
        allocs,
        speeds,
        outcome: rep.outcome(),
    }
}

/// Prepare one rep and run its measured region through the step calls,
/// recording spans into `rec`.
fn rep_traced(
    wl: &dyn Workload,
    spec: &RunSpec,
    dir: &Path,
    rec: &mut Recorder,
    rep_no: u32,
) -> (f64, Outcome) {
    rec.set_rep(rep_no);
    rec.scope("rep", |rec| {
        let mut rep = rec.scope(SETUP_SPAN, |rec| {
            wl.prepare(spec.seed, spec.quick, Variant::Traced, dir, rec)
        });
        let t0 = Instant::now();
        rec.scope(MEASURE_SPAN, |rec| rep.run_traced(rec));
        (t0.elapsed().as_secs_f64(), rep.outcome())
    })
}

/// Accumulates correctness over every rep of a run.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    digest: Option<u64>,
}

impl Verdict {
    fn fold(&mut self, what: &str, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for b in &o.broken {
            self.broken.push(format!("{what}: {b}"));
        }
        match self.digest {
            None => self.digest = Some(o.digest),
            Some(d) if d != o.digest => self.broken.push(format!(
                "{what}: digest {:016x} differs from the first rep's {d:016x}",
                o.digest
            )),
            Some(_) => {}
        }
    }
}

fn golden_path(perf_dir: &Path, workload: &str, seed: u64) -> PathBuf {
    perf_dir
        .join("golden")
        .join(format!("{workload}.seed{seed}.digest"))
}

fn digest_match(spec: &RunSpec, digest: u64) -> u8 {
    if spec.quick {
        return 2;
    }
    match std::fs::read_to_string(golden_path(&spec.perf_dir, &spec.workload, spec.seed)) {
        Ok(text) => u8::from(u64::from_str_radix(text.trim(), 16) == Ok(digest)),
        Err(_) => 2,
    }
}

/// Record `digest` as the golden value of (workload, seed).
pub fn write_golden(
    perf_dir: &Path,
    workload: &str,
    seed: u64,
    digest: u64,
) -> std::io::Result<()> {
    let path = golden_path(perf_dir, workload, seed);
    std::fs::create_dir_all(path.parent().expect("golden dir"))?;
    std::fs::write(path, format!("{digest:016x}\n"))
}

/// An end-to-end value from per-rep `raw` samples: each is multiplied
/// by `scale` (the run's processor speed, or its inverse for a rate)
/// and `add` is a one-off added to every statistic.
fn e2e_value(name: &str, raw: &[f64], scale: f64, add: f64) -> Value {
    let e = END_TO_END
        .iter()
        .find(|e| e.name == name)
        .expect("end-to-end metric in schema");
    let samples: Vec<f64> = raw.iter().map(|x| x * scale + add).collect();
    let sm = stats::summarize(&samples);
    Value {
        name: name.to_string(),
        unit: e.unit.to_string(),
        value: sm.median,
        detail: Some(Detail {
            summary: sm,
            samples,
            raw_median: stats::median(raw) + add,
        }),
    }
}

/// The untraced run: end-to-end metrics.
fn run_untraced(wl: &dyn Workload, spec: &RunSpec, dir: &Path, started: Instant) -> Record {
    let init_s = started.elapsed().as_secs_f64();
    let mut verdict = Verdict::default();
    let (mut setups, mut rates, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut speeds = Vec::new();

    let warm = rep_untraced(wl, spec, Variant::Base, dir);
    setups.push(warm.setup_s);
    verdict.fold("warm-up rep", &warm.outcome);

    let measuring = Instant::now();
    while rates.len() < MIN_REPS || measuring.elapsed().as_secs_f64() < spec.seconds {
        let t = rep_untraced(wl, spec, Variant::Base, dir);
        verdict.fold(&format!("rep {}", rates.len() + 1), &t.outcome);
        setups.push(t.setup_s);
        speeds.extend(t.speeds);
        let work = t.outcome.work.max(f64::MIN_POSITIVE);
        rates.push(work / t.wall_s);
        cpus.push(t.cpu_ns as f64 / 1e3 / work);
    }
    // One speed for the whole run: the drift worth dividing out lasts
    // longer than a run, and a single reading is noisier than a rep.
    let speed = stats::median(&speeds);

    let hwm_mb = proc::vm_hwm_kb().unwrap_or(0) as f64 / 1024.0;
    let digest = verdict.digest.unwrap_or(0);
    let reps = rates.len();
    Record {
        workload: spec.workload.clone(),
        trace: false,
        seed: spec.seed,
        quick: spec.quick,
        correct: verdict.broken.is_empty() && verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        broken: verdict.broken,
        digest,
        digest_match: digest_match(spec, digest),
        reps,
        speed,
        size: wl.size(spec.quick),
        work_unit: wl.work_unit().to_string(),
        values: vec![
            e2e_value("work_per_s", &rates, 1.0 / speed, 0.0),
            e2e_value("cpu_us_per_work", &cpus, speed, 0.0),
            // Process start to the first set-up, once, plus the median
            // of the per-rep set-ups.
            e2e_value("setup_s", &setups, speed, init_s * speed),
            e2e_value("peak_rss_mb", &[hwm_mb], 1.0, 0.0),
        ],
    }
}

/// The traced run: per-layer metrics.
fn run_traced(wl: &dyn Workload, spec: &RunSpec, dir: &Path) -> Record {
    let mut verdict = Verdict::default();
    let mut rec = Recorder::new();
    let mut layer = LayerValues::new();

    let warm = rep_untraced(wl, spec, Variant::Base, dir);
    verdict.fold("warm-up rep", &warm.outcome);

    // Untraced reference reps interleaved with traced reps.
    let (mut base, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_outcome = None;
    let pairing = Instant::now();
    for pair in 0.. {
        if pair >= MIN_TRACED_PAIRS && pairing.elapsed().as_secs_f64() >= spec.seconds / 2.0 {
            break;
        }
        let b = rep_untraced(wl, spec, Variant::Base, dir);
        verdict.fold(&format!("reference rep {}", pair + 1), &b.outcome);
        base.push(b);
        let (wall_s, o) = rep_traced(wl, spec, dir, &mut rec, pair as u32 + 1);
        verdict.fold(&format!("traced rep {}", pair + 1), &o);
        traced_s.push(wall_s);
        traced_outcome = Some(o);
    }
    let traced = traced_outcome.expect("at least one traced rep");
    let base_wall = median_by(&base, |b| b.wall_s);
    let base_pcpu = median_by(&base, |b| b.process_cpu_ns as f64);
    let base_allocs = median_by(&base, |b| b.allocs as f64);
    let speed = stats::median(&base.iter().flat_map(|b| b.speeds).collect::<Vec<_>>());

    // Exact counts and simulated values, then host-time values.
    layer.extend(traced.layer.iter().copied());
    wl.layer_from_spans(&rec, &traced, &mut layer);
    let events = traced.events.max(base[0].outcome.events);
    if events > 0 {
        if metrics::layer("sim.events_per_s").is_some_and(|l| l.workloads.contains(&wl.name())) {
            layer.insert("sim.events_per_s", events as f64 / (base_wall * speed));
        }
        layer.insert(
            "proc.allocs_per_kevent",
            base_allocs / (events as f64 / 1e3),
        );
    }
    layer.insert("trace.overhead_ratio", stats::median(&traced_s) / base_wall);

    // A/B variants: one existing public config field flipped.
    let mut variants: Vec<(Variant, f64, f64)> = Vec::new();
    for ab in wl.abs() {
        if !variants.iter().any(|(v, _, _)| *v == ab.variant) {
            let reps: Vec<Timed> = (0..AB_REPS)
                .map(|_| rep_untraced(wl, spec, ab.variant, dir))
                .collect();
            variants.push((
                ab.variant,
                median_by(&reps, |r| r.wall_s),
                median_by(&reps, |r| r.process_cpu_ns as f64),
            ));
        }
        let (_, wall, pcpu) = variants
            .iter()
            .find(|(v, _, _)| *v == ab.variant)
            .expect("variant just measured");
        layer.insert(
            ab.metric,
            match ab.ratio {
                AbRatio::BaseOverVariant => base_wall / wall,
                AbRatio::VariantOverBase => wall / base_wall,
                AbRatio::CpuVariantOverBase => pcpu / base_pcpu.max(1.0),
            },
        );
    }

    wl.kernels(&traced, &mut layer);

    let digest = verdict.digest.unwrap_or(0);
    let dm = digest_match(spec, digest);
    layer.insert("check.digest_match", f64::from(dm));
    layer.insert(
        "check.fail_share",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
    );
    layer.insert("proc.cpu_s", proc::cpu_ns().unwrap_or(0) as f64 / 1e9);

    let spans = spec
        .perf_dir
        .join("out")
        .join(format!("{}.spans.jsonl", spec.workload));
    if let Err(e) = rec.write_jsonl(&spans) {
        verdict
            .broken
            .push(format!("cannot write {}: {e}", spans.display()));
    }

    for name in layer.keys() {
        assert!(
            metrics::layer(name).is_some(),
            "{name} is not in the per-layer schema"
        );
    }
    Record {
        workload: spec.workload.clone(),
        trace: true,
        seed: spec.seed,
        quick: spec.quick,
        correct: verdict.broken.is_empty() && verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        broken: verdict.broken,
        digest,
        digest_match: dm,
        reps: traced_s.len(),
        speed,
        size: wl.size(spec.quick),
        work_unit: wl.work_unit().to_string(),
        // Every per-layer metric, in schema order; 0 where this
        // workload does not exercise the layer.
        values: PER_LAYER
            .iter()
            .map(|l| Value {
                name: l.name.to_string(),
                unit: l.unit.to_string(),
                value: layer.get(l.name).copied().unwrap_or(0.0),
                detail: None,
            })
            .collect(),
    }
}

/// Run one (workload, trace) in this process.
pub fn run(spec: &RunSpec, started: Instant) -> Result<Record, String> {
    let wl = workload::by_name(&spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let out = spec.perf_dir.join("out");
    // Unique per process and run, so concurrent runs never share inputs.
    let dir = out.join(format!(
        "tmp-{}-{}-{}",
        std::process::id(),
        spec.workload,
        u8::from(spec.trace)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let record = if spec.trace {
        run_traced(wl.as_ref(), spec, &dir)
    } else {
        run_untraced(wl.as_ref(), spec, &dir, started)
    };
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(record)
}
