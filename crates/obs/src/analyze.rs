//! Streaming analysis core of the `obs_analyze` binary.
//!
//! The analyzer used to slurp every dump into memory and retain every
//! timeseries sample; at fabric scale the dumps run to hundreds of
//! megabytes, dominated by telemetry samples. [`Run`] instead ingests
//! line-at-a-time (via [`LineReader`]) into incremental aggregates, so
//! resident state is bounded by what the report actually needs:
//!
//! * `corrupt_drop`/`recovered` trace pairs — O(loss events), kept as
//!   uid maps because recovery pairing needs both sides;
//! * buffer-occupancy series — O(series), folded online into
//!   `(windows, sum, peak, last)`;
//! * `e2e_retx` series — retained (they are a handful of windows per
//!   run) because FCT attribution needs the full drop set, which is
//!   only complete at end of file;
//! * health transitions — O(instances), folded online into per-link
//!   final state plus global transition count and worst rate (all the
//!   health_summary section reports).
//!
//! Every aggregate folds samples in file order, exactly as the retained
//! path iterated them, so reports are bit-for-bit identical — the
//! property the differential proptest in `tests/analyze_diff.rs` pins
//! against a retained reference implementation.

use crate::json::{number, string, Scanner};
use crate::stream::LineReader;
use crate::JsonLine;
use std::collections::BTreeMap;
use std::io::ErrorKind;

/// Online fold of one buffer-occupancy series, reproducing the retained
/// path's `fold`/`sum`/`last` in file order.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BufAgg {
    /// Samples seen.
    pub windows: u64,
    /// Running sum of values (file-order f64 accumulation, same result
    /// as summing a retained vector).
    pub sum: f64,
    /// Running max of values against a 0.0 floor.
    pub peak: f64,
    /// Last value seen.
    pub last: f64,
}

impl BufAgg {
    fn push(&mut self, v: f64) {
        self.windows += 1;
        self.sum += v;
        self.peak = self.peak.max(v);
        self.last = v;
    }

    /// Mean of the folded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.sum / (self.windows.max(1)) as f64
    }
}

/// Online fold of the `health_event` stream. Health-heavy dumps (one
/// transition per link per window, `obs_genload --mode health`) are as
/// large as telemetry-heavy ones, so retaining transitions would
/// reintroduce the O(file) footprint the streaming analyzer exists to
/// avoid; this keeps exactly what the health_summary section prints.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HealthAgg {
    /// inst -> latest `to` state seen (file order, last write wins).
    pub final_state: BTreeMap<String, String>,
    /// Total transitions folded.
    pub transitions: u64,
    /// Running max of `rate` against a 0.0 floor.
    pub worst_rate: f64,
}

impl HealthAgg {
    fn push(&mut self, inst: &str, to: &str, rate: f64) {
        match self.final_state.get_mut(inst) {
            Some(st) => {
                st.clear();
                st.push_str(to);
            }
            None => {
                self.final_state.insert(inst.to_string(), to.to_string());
            }
        }
        self.transitions += 1;
        self.worst_rate = self.worst_rate.max(rate);
    }
}

/// A series' `(comp, inst, name)`.
type SeriesKey = (String, String, String);

/// Everything obs_analyze keeps from one logical run's files.
#[derive(Default)]
pub struct Run {
    /// uid -> corrupt_drop timestamp (first occurrence wins).
    pub drops: BTreeMap<u64, u64>,
    /// uid -> recovered timestamp (first occurrence wins).
    pub recovered: BTreeMap<u64, u64>,
    /// Buffer-occupancy aggregates keyed `(comp, inst, name)`; only
    /// series the report covers (`*buffer_bytes` / `qdepth_bytes`) are
    /// tracked.
    pub buffers: BTreeMap<SeriesKey, BufAgg>,
    /// Retained `e2e_retx` series keyed `(comp, inst, name)`, samples
    /// in file order (FCT attribution scans them against the final
    /// drop set).
    pub e2e: BTreeMap<SeriesKey, Vec<(u64, f64)>>,
    /// Health-transition aggregates, folded in file order.
    pub health: HealthAgg,
    scanner: Scanner,
    /// The current sample's series, rebuilt in place per line so that
    /// finding a series already seen allocates nothing.
    key: SeriesKey,
}

/// True for series names the buffer-occupancy section covers.
fn is_buffer_series(name: &str) -> bool {
    name.ends_with("buffer_bytes") || name == "qdepth_bytes"
}

/// Apply `f` to the series at `key`, creating it on first sight.
fn upsert<V: Default>(map: &mut BTreeMap<SeriesKey, V>, key: &SeriesKey, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            map.insert(key.clone(), v);
        }
    }
}

impl Run {
    /// Ingest one JSONL line (blank lines and types the report ignores
    /// are skipped). Every field is found in one walk over the line;
    /// they are then read, and a missing one reported, in the order the
    /// retained path read them.
    pub fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let v = self.scanner.scan(line)?;
        let [ty, kind, name, comp, inst, from, to, t_ps, value, uid, rate] = v.fields(&[
            "type", "kind", "name", "comp", "inst", "from", "to", "t_ps", "value", "uid", "rate",
        ]);
        let ty = ty.and_then(|t| t.as_str()).unwrap_or_default();
        match &*ty {
            "trace" => {
                let kind = kind.and_then(|k| k.as_str()).unwrap_or_default();
                let seen = match &*kind {
                    "corrupt_drop" => &mut self.drops,
                    "recovered" => &mut self.recovered,
                    _ => return Ok(()),
                };
                let uid = number(uid, "uid")? as u64;
                let t = number(t_ps, "t_ps")? as u64;
                seen.entry(uid).or_insert(t);
            }
            "timeseries" => {
                let name = string(name, "name")?;
                let buffer = is_buffer_series(&name);
                if !buffer && name != "e2e_retx" {
                    return Ok(());
                }
                for (part, text) in [
                    (&mut self.key.0, string(comp, "comp")?),
                    (&mut self.key.1, string(inst, "inst")?),
                    (&mut self.key.2, name),
                ] {
                    part.clear();
                    part.push_str(&text);
                }
                let t = number(t_ps, "t_ps")? as u64;
                let value = number(value, "value")?;
                if buffer {
                    upsert(&mut self.buffers, &self.key, |agg| agg.push(value));
                } else {
                    upsert(&mut self.e2e, &self.key, |samples| samples.push((t, value)));
                }
            }
            "health_event" => {
                // `from` and `t_ps` aren't aggregated, but stay
                // required (checked in the retained path's field
                // order) so malformed lines fail identically.
                let inst = string(inst, "inst")?;
                string(from, "from")?;
                let to = string(to, "to")?;
                number(t_ps, "t_ps")?;
                let rate = number(rate, "rate")?;
                self.health.push(&inst, &to, rate);
            }
            _ => {}
        }
        Ok(())
    }

    /// Stream one file in, line-at-a-time (O(longest line) transient
    /// memory). Errors carry `path:line`, a line that is not UTF-8
    /// included.
    pub fn ingest_file(&mut self, path: &str) -> Result<(), String> {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut reader = LineReader::new(file);
        let mut line_no = 0usize;
        loop {
            let next = reader.next_line();
            line_no += 1;
            match next {
                Ok(Some(line)) => {
                    self.ingest_line(line)
                        .map_err(|e| format!("{path}:{line_no}: {e}"))?;
                }
                Ok(None) => return Ok(()),
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    return Err(format!("{path}:{line_no}: {e}"))
                }
                Err(e) => return Err(format!("cannot read {path}: {e}")),
            }
        }
    }

    /// Sorted recovery latencies (ps) of drops the receiver masked, plus
    /// the count of drops with no recovery trace.
    pub fn recovery_latencies(&self) -> (Vec<u64>, usize) {
        let mut lat = Vec::new();
        let mut unrecovered = 0usize;
        for (uid, &t_drop) in &self.drops {
            match self.recovered.get(uid) {
                Some(&t_rec) if t_rec >= t_drop => lat.push(t_rec - t_drop),
                _ => unrecovered += 1,
            }
        }
        lat.sort_unstable();
        (lat, unrecovered)
    }

    /// Classify `e2e_retx` windows: (corruption-attributed, congestion-
    /// attributed) retransmission counts. A window is corruption-induced
    /// when a corrupt_drop landed inside it (stretched backwards by
    /// `attr_ps`, so recovery delay crossing a window edge still
    /// attributes correctly).
    pub fn fct_attribution(&self, attr_ps: u64) -> Attribution {
        let mut out = Attribution::default();
        let Some(samples) = self.e2e.values().next() else {
            return out;
        };
        // Window span = min positive gap between consecutive samples.
        let interval = samples
            .windows(2)
            .map(|w| w[1].0.saturating_sub(w[0].0))
            .filter(|&d| d > 0)
            .min()
            .unwrap_or(0);
        let drop_times: Vec<u64> = self.drops.values().copied().collect();
        let mut sorted_drops = drop_times;
        sorted_drops.sort_unstable();
        for &(t, value) in samples {
            if value <= 0.0 {
                continue;
            }
            out.windows += 1;
            let lo = t.saturating_sub(interval + attr_ps);
            // Any drop in (lo, t]?
            let i = sorted_drops.partition_point(|&d| d <= lo);
            let hit = sorted_drops.get(i).is_some_and(|&d| d <= t);
            if hit {
                out.corruption += value as u64;
            } else {
                out.congestion += value as u64;
            }
        }
        out
    }
}

/// FCT-tail attribution counts.
#[derive(Default, Clone, Copy)]
pub struct Attribution {
    /// Windows with at least one e2e retransmission.
    pub windows: u64,
    /// Retransmissions attributed to corruption drops.
    pub corruption: u64,
    /// Retransmissions attributed to congestion.
    pub congestion: u64,
}

impl Attribution {
    /// Total attributed retransmissions.
    pub fn total(&self) -> u64 {
        self.corruption + self.congestion
    }

    /// Corruption fraction of attributed retransmissions (0 when none).
    pub fn corruption_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.corruption as f64 / self.total() as f64
        }
    }
}

fn pctl(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p * (sorted.len() - 1) as f64).round()) as usize;
    sorted[idx]
}

fn mean(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Collected report lines: human text to stdout plus `report` records.
#[derive(Default)]
pub struct Report {
    /// JSONL `report` records in emission order (for `--out`).
    pub records: Vec<String>,
}

impl Report {
    fn emit(&mut self, text: String, rec: JsonLine) {
        println!("{text}");
        self.records.push(rec.finish());
    }

    fn line(section: &str) -> JsonLine {
        let mut l = JsonLine::new();
        l.str("type", "report").str("section", section);
        l
    }
}

/// Print one run's report sections and return the numbers `--compare`
/// diffs.
pub fn report_run(tag: &str, run: &Run, attr_ps: u64, rep: &mut Report) -> RunStats {
    let (lat, unrecovered) = run.recovery_latencies();
    let (p50, p99) = (pctl(&lat, 0.5), pctl(&lat, 0.99));
    {
        let mut l = Report::line("recovery_latency");
        l.str("run", tag)
            .u64("drops", (lat.len() + unrecovered) as u64)
            .u64("recovered", lat.len() as u64)
            .u64("unrecovered", unrecovered as u64)
            .f64("mean_us", us(mean(&lat) as u64))
            .f64("p50_us", us(p50))
            .f64("p99_us", us(p99))
            .f64("max_us", us(lat.last().copied().unwrap_or(0)));
        rep.emit(
            format!(
                "[{tag}] recovery latency: {} drops, {} recovered ({} not), \
                 p50 {:.2} us, p99 {:.2} us, max {:.2} us",
                lat.len() + unrecovered,
                lat.len(),
                unrecovered,
                us(p50),
                us(p99),
                us(lat.last().copied().unwrap_or(0)),
            ),
            l,
        );
    }
    let mut buffer_peaks = BTreeMap::new();
    for ((comp, inst, name), agg) in &run.buffers {
        buffer_peaks.insert(format!("{comp}/{inst}/{name}"), agg.peak);
        let mut l = Report::line("buffer_occupancy");
        l.str("run", tag)
            .str("comp", comp)
            .str("inst", inst)
            .str("name", name)
            .u64("windows", agg.windows)
            .f64("peak_bytes", agg.peak)
            .f64("mean_bytes", agg.mean())
            .f64("last_bytes", agg.last);
        rep.emit(
            format!(
                "[{tag}] {comp}/{inst}/{name}: {} windows, peak {:.0} B, \
                 mean {:.0} B, last {:.0} B",
                agg.windows,
                agg.peak,
                agg.mean(),
                agg.last
            ),
            l,
        );
    }
    let attr = run.fct_attribution(attr_ps);
    {
        let mut l = Report::line("fct_attribution");
        l.str("run", tag)
            .u64("retx_windows", attr.windows)
            .u64("retx_total", attr.total())
            .u64("retx_corruption", attr.corruption)
            .u64("retx_congestion", attr.congestion)
            .f64("corruption_share", attr.corruption_share());
        rep.emit(
            format!(
                "[{tag}] FCT-tail attribution: {} e2e retx in {} windows — \
                 {} corruption-induced, {} congestion-induced \
                 ({:.1}% corruption)",
                attr.total(),
                attr.windows,
                attr.corruption,
                attr.congestion,
                100.0 * attr.corruption_share()
            ),
            l,
        );
    }
    {
        let transitions = run.health.transitions;
        let worst_rate = run.health.worst_rate;
        let states: Vec<String> = run
            .health
            .final_state
            .iter()
            .map(|(inst, st)| format!("{inst}={st}"))
            .collect();
        let mut l = Report::line("health_summary");
        l.str("run", tag)
            .u64("transitions", transitions)
            .f64("worst_rate", worst_rate)
            .str("final_states", &states.join(","));
        rep.emit(
            format!(
                "[{tag}] link health: {transitions} transitions, worst observed \
                 rate {worst_rate:.2e}{}{}",
                if states.is_empty() { "" } else { ", final: " },
                states.join(", ")
            ),
            l,
        );
    }
    RunStats {
        recovery_p99_ps: p99,
        buffer_peaks,
        attr,
    }
}

/// The per-run numbers `--compare` diffs.
pub struct RunStats {
    /// p99 recovery latency (ps).
    pub recovery_p99_ps: u64,
    /// `comp/inst/name` -> peak bytes of each buffer series.
    pub buffer_peaks: BTreeMap<String, f64>,
    /// FCT-tail attribution counts.
    pub attr: Attribution,
}

/// Print the A-vs-B comparison and return the regression count.
pub fn compare(a: &RunStats, b: &RunStats, rep: &mut Report) -> u64 {
    let mut regressions = 0u64;
    let p99_ratio = if a.recovery_p99_ps > 0 {
        b.recovery_p99_ps as f64 / a.recovery_p99_ps as f64
    } else if b.recovery_p99_ps > 0 {
        f64::INFINITY
    } else {
        1.0
    };
    if p99_ratio > 1.10 {
        regressions += 1;
    }
    {
        let mut l = Report::line("compare_recovery");
        l.f64("a_p99_us", us(a.recovery_p99_ps))
            .f64("b_p99_us", us(b.recovery_p99_ps))
            .f64("ratio", p99_ratio)
            .bool("regression", p99_ratio > 1.10);
        rep.emit(
            format!(
                "[compare] recovery p99: {:.2} us -> {:.2} us (x{:.2}){}",
                us(a.recovery_p99_ps),
                us(b.recovery_p99_ps),
                p99_ratio,
                if p99_ratio > 1.10 { "  REGRESSION" } else { "" }
            ),
            l,
        );
    }
    for (key, &pa) in &a.buffer_peaks {
        let pb = b.buffer_peaks.get(key).copied().unwrap_or(0.0);
        let ratio = if pa > 0.0 {
            pb / pa
        } else if pb > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let worse = ratio > 1.10;
        if worse {
            regressions += 1;
        }
        let mut l = Report::line("compare_buffer");
        l.str("series", key)
            .f64("a_peak_bytes", pa)
            .f64("b_peak_bytes", pb)
            .f64("ratio", ratio)
            .bool("regression", worse);
        rep.emit(
            format!(
                "[compare] {key} peak: {pa:.0} B -> {pb:.0} B (x{ratio:.2}){}",
                if worse { "  REGRESSION" } else { "" }
            ),
            l,
        );
    }
    {
        let delta = b.attr.corruption_share() - a.attr.corruption_share();
        let worse = delta > 0.05;
        if worse {
            regressions += 1;
        }
        let mut l = Report::line("compare_fct_attribution");
        l.f64("a_corruption_share", a.attr.corruption_share())
            .f64("b_corruption_share", b.attr.corruption_share())
            .f64("delta", delta)
            .u64("a_retx_total", a.attr.total())
            .u64("b_retx_total", b.attr.total())
            .bool("regression", worse);
        rep.emit(
            format!(
                "[compare] FCT-tail corruption share: {:.1}% -> {:.1}% \
                 (delta {:+.1} points, e2e retx {} -> {}){}",
                100.0 * a.attr.corruption_share(),
                100.0 * b.attr.corruption_share(),
                100.0 * delta,
                a.attr.total(),
                b.attr.total(),
                if worse { "  REGRESSION" } else { "" }
            ),
            l,
        );
    }
    regressions
}
