//! `lg-perf compare A.json B.json` and `--calibrate`: judging two sets
//! of runs against the bounds fixed in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use lg_obs::json::parse;
use lg_obs::JsonValue;

use crate::metrics::{ALL, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};

/// Below this many pairs the pairs rule cannot speak; medians alone are
/// compared against the bound.
const MIN_PAIRS: usize = 3;
/// Share of decided pairs the change must win to count as a gain.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Worse,
    /// Run-to-run spread is wider than the bound, so neither "no
    /// regression" nor "regression" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How B (the change) compares with A (the parent) on one metric of one
/// workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub a: Summary,
    pub b: Summary,
    /// Relative change of the median, positive when B is better.
    pub gain: f64,
    pub wins: usize,
    pub decided: usize,
}

/// Judge per-rep samples of B against A. `higher` says which direction
/// is better; `bound` is the allowed relative worsening of the median.
///
/// * every B sample better than every A sample: improved;
/// * spread (interquartile range over median, either side) wider than
///   the bound: unresolved — unless every B sample is worse than every
///   A sample and the median is beyond the bound: worse;
/// * median worse by more than the bound: worse;
/// * B wins at least nine tenths of the decided pairs and the medians
///   differ by more than A's interquartile range: improved;
/// * otherwise within bound.
pub fn judge(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Judgement {
    let (sa, sb) = (summarize(a), summarize(b));
    let sign = if higher { 1.0 } else { -1.0 };
    let gain = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let better = |x: f64, y: f64| sign * (x - y) > 0.0; // x better than y
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| better(a[i], b[i])).count();
    let decided = wins + losses;
    let every = |f: &dyn Fn(f64, f64) -> bool| {
        !a.is_empty() && !b.is_empty() && b.iter().all(|&y| a.iter().all(|&x| f(y, x)))
    };
    let verdict = if pairs < MIN_PAIRS {
        if gain < -bound {
            Verdict::Worse
        } else if gain > bound {
            Verdict::Improved
        } else {
            Verdict::WithinBound
        }
    } else if every(&|y, x| better(y, x)) {
        Verdict::Improved
    } else if gain < -bound && every(&|y, x| better(x, y)) {
        Verdict::Worse
    } else if sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if decided > 0
        && wins as f64 >= WIN_SHARE * decided as f64
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Judgement {
        verdict,
        a: sa,
        b: sb,
        gain,
        wins,
        decided,
    }
}

/// `name -> (bound, better-is-higher)` of the end-to-end metrics in a
/// `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(JsonValue::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for m in list {
        let name = m.get("name").and_then(JsonValue::as_str);
        let bound = m.get("bound").and_then(JsonValue::as_num);
        let better = m.get("better").and_then(JsonValue::as_str);
        let (Some(name), Some(bound), Some(better)) = (name, bound, better) else {
            return Err("BENCHMARK.json end_to_end entry lacks name, bound or better".into());
        };
        out.insert(name.to_string(), (bound, better == "higher"));
    }
    Ok(out)
}

/// The records of a result document, keyed `(workload, traced)`.
pub fn records(result_json: &str) -> Result<BTreeMap<(String, bool), JsonValue>, String> {
    let doc = parse(result_json)?;
    let Some(JsonValue::Arr(list)) = doc.get("records") else {
        return Err("no records list".into());
    };
    let mut out = BTreeMap::new();
    for r in list {
        let workload = r
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("record lacks workload")?;
        let traced = r.get("trace").and_then(JsonValue::as_num) == Some(1.0);
        out.insert((workload.to_string(), traced), r.clone());
    }
    Ok(out)
}

fn samples(record: &JsonValue, metric: &str) -> Vec<f64> {
    match record
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
    {
        Some(JsonValue::Arr(xs)) => xs.iter().filter_map(JsonValue::as_num).collect(),
        _ => Vec::new(),
    }
}

fn value(record: &JsonValue, metric: &str) -> Option<f64> {
    record.get("metrics")?.get(metric)?.get("value")?.as_num()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Compare two result documents. Prints one row per (workload,
/// end-to-end metric) and every exact per-layer value that differs.
/// Returns how many rows were judged worse.
pub fn compare(a_path: &str, b_path: &str, benchmark_path: &Path) -> Result<usize, String> {
    let bounds = bounds(&read(&benchmark_path.to_string_lossy())?)?;
    let a = records(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = records(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let mut worse = 0;
    println!("workload metric verdict A_median B_median gain% A_spread% B_spread% wins/decided");
    for workload in ALL {
        let key = (workload.to_string(), false);
        let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
            continue;
        };
        for e in END_TO_END {
            let Some(&(bound, higher)) = bounds.get(e.name) else {
                return Err(format!("BENCHMARK.json has no bound for {}", e.name));
            };
            let j = judge(&samples(ra, e.name), &samples(rb, e.name), higher, bound);
            worse += usize::from(j.verdict == Verdict::Worse);
            println!(
                "{workload} {} {} {:.6} {:.6} {:+.2} {:.2} {:.2} {}/{}",
                e.name,
                j.verdict.label(),
                j.a.median,
                j.b.median,
                100.0 * j.gain,
                100.0 * j.a.spread(),
                100.0 * j.b.spread(),
                j.wins,
                j.decided
            );
        }
        for side in [ra, rb] {
            let failed = side
                .get("failed")
                .and_then(JsonValue::as_num)
                .unwrap_or(0.0);
            if failed > 0.0 {
                println!("{workload} failed {failed} operations");
            }
        }
    }
    let mut differing = 0;
    for workload in ALL {
        let key = (workload.to_string(), true);
        let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
            continue;
        };
        for l in PER_LAYER.iter().filter(|l| l.kind.exact()) {
            let (va, vb) = (value(ra, l.name), value(rb, l.name));
            if va != vb {
                differing += 1;
                println!(
                    "{workload} {} differs: {} -> {}",
                    l.name,
                    va.map_or("absent".into(), crate::runner::num),
                    vb.map_or("absent".into(), crate::runner::num)
                );
            }
        }
    }
    println!("{worse} worse, {differing} exact per-layer values differ");
    Ok(worse)
}

/// One calibration row: the spread seen between and within two
/// back-to-back runs of the same code, against the metric's bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    pub workload: String,
    pub metric: String,
    pub bound: f64,
    pub spread: f64,
    pub ok: bool,
}

/// Spread of one metric over two runs of the same code: the widest of
/// each run's interquartile range over its median and the relative
/// distance between the two medians.
pub fn observed_spread(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (summarize(a), summarize(b));
    let lo = sa.median.abs().min(sb.median.abs());
    let between = if lo == 0.0 {
        0.0
    } else {
        (sa.median - sb.median).abs() / lo
    };
    sa.spread().max(sb.spread()).max(between)
}

/// Calibrate: every bound must be at least twice the observed spread.
pub fn calibrate(
    first: &str,
    second: &str,
    benchmark_json: &str,
) -> Result<Vec<Calibration>, String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (records(first)?, records(second)?);
    let mut rows = Vec::new();
    for workload in ALL {
        let key = (workload.to_string(), false);
        let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
            continue;
        };
        for e in END_TO_END {
            let &(bound, _) = bounds
                .get(e.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", e.name))?;
            let spread = observed_spread(&samples(ra, e.name), &samples(rb, e.name));
            rows.push(Calibration {
                workload: workload.to_string(),
                metric: e.name.to_string(),
                bound,
                spread,
                ok: bound >= 2.0 * spread,
            });
        }
    }
    Ok(rows)
}

pub fn calibration_json(rows: &[Calibration]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"bound\":{},\"spread\":{},\"ok\":{}}}",
                r.workload,
                r.metric,
                crate::runner::num(r.bound),
                crate::runner::num(r.spread),
                r.ok
            )
        })
        .collect();
    format!("{{\"schema\":1,\"rows\":[\n{}\n]}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 6] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2];

    #[test]
    fn clear_gain_is_improved() {
        let b: Vec<f64> = TIGHT_A.iter().map(|x| x * 1.2).collect();
        let j = judge(&TIGHT_A, &b, true, 0.1);
        assert_eq!(j.verdict, Verdict::Improved);
        assert!(j.gain > 0.19 && j.wins == 6);
        // The same numbers are a loss when lower is better.
        assert_eq!(judge(&TIGHT_A, &b, false, 0.1).verdict, Verdict::Worse);
    }

    #[test]
    fn small_move_inside_the_bound_is_within_bound() {
        let b: Vec<f64> = TIGHT_A.iter().rev().map(|x| x * 0.97).collect();
        assert_eq!(judge(&TIGHT_A, &b, true, 0.1).verdict, Verdict::WithinBound);
    }

    #[test]
    fn median_beyond_the_bound_is_worse() {
        let b: Vec<f64> = TIGHT_A.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&TIGHT_A, &b, true, 0.1).verdict, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_ranges_separate() {
        let a = [100.0, 140.0, 80.0, 120.0, 60.0, 110.0];
        let b = [95.0, 150.0, 70.0, 90.0, 65.0, 100.0];
        assert_eq!(judge(&a, &b, true, 0.1).verdict, Verdict::Unresolved);
        let far: Vec<f64> = a.iter().map(|x| x * 3.0).collect();
        assert_eq!(judge(&a, &far, true, 0.1).verdict, Verdict::Improved);
        let low: Vec<f64> = a.iter().map(|x| x / 3.0).collect();
        assert_eq!(judge(&a, &low, true, 0.1).verdict, Verdict::Worse);
    }

    #[test]
    fn too_few_pairs_fall_back_to_medians() {
        assert_eq!(
            judge(&[100.0], &[103.0], false, 0.05).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[100.0], &[110.0], false, 0.05).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[80.0], false, 0.05).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn calibration_flags_bounds_under_twice_the_spread() {
        let doc = |xs: &[f64]| {
            let samples: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
            let metric = format!("{{\"samples\":[{}]}}", samples.join(","));
            format!(
                "{{\"records\":[{{\"workload\":\"testbed_stress\",\"trace\":0,\"metrics\":{{\
                 \"work_per_s\":{metric},\"cpu_us_per_work\":{metric},\
                 \"setup_s\":{metric},\"peak_rss_mb\":{metric}}}}}]}}"
            )
        };
        let bench = "{\"end_to_end\":[\
            {\"name\":\"work_per_s\",\"better\":\"higher\",\"bound\":0.15},\
            {\"name\":\"cpu_us_per_work\",\"better\":\"lower\",\"bound\":0.1},\
            {\"name\":\"setup_s\",\"better\":\"lower\",\"bound\":0.25},\
            {\"name\":\"peak_rss_mb\",\"better\":\"lower\",\"bound\":0.01}]}";
        let rows = calibrate(&doc(&TIGHT_A), &doc(&[106.0, 107.0, 105.0, 106.5]), bench)
            .expect("calibrates");
        assert_eq!(rows.len(), 4);
        let by = |m: &str| rows.iter().find(|r| r.metric == m).expect("row");
        // Medians 100.1 and 106.25: 6.1 % apart, wider than either
        // run's own interquartile range.
        assert!((by("work_per_s").spread - 0.0614).abs() < 0.0005);
        assert!(by("work_per_s").ok && by("setup_s").ok);
        assert!(!by("cpu_us_per_work").ok && !by("peak_rss_mb").ok);
    }
}
