//! Process-wide JSONL sink.
//!
//! Experiment sweeps run worlds on worker threads (`lg_sim::par_map`);
//! each world publishes its metric/trace lines here under a deterministic
//! label key when it finishes. The final dump sorts by `(key, insertion
//! order within key)`, so the file content is identical at any `--threads`
//! value. Wall-clock profile lines use a key prefix (`"zz-profile/"`)
//! that sorts after every golden section, keeping them quarantined.
//!
//! Enablement is a pair of process-wide flags set once by CLI setup
//! (`lg_bench::obs::session`); `metrics_enabled()` is a relaxed atomic
//! load so `publish` calls in library code are free when observability
//! is off.

use crate::json::JsonLine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Key prefix that quarantines non-golden (wall-clock) lines at the end
/// of the output file.
pub const PROFILE_KEY_PREFIX: &str = "zz-profile/";

/// Every engine's self-profiler times one handled event in this many
/// and charges it to the event's kind, so a `profile` row's `count` is
/// a sampled count: about `events / PROFILE_STRIDE`.
pub const PROFILE_STRIDE: u64 = 64;

static METRICS: AtomicBool = AtomicBool::new(false);
static LINES: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Turn the sink on (worlds start publishing snapshots and traces).
pub fn enable_metrics() {
    METRICS.store(true, Ordering::Relaxed);
}

/// Turn the sink off and discard anything buffered (test hygiene).
pub fn disable_and_clear() {
    METRICS.store(false, Ordering::Relaxed);
    LINES.lock().unwrap().clear();
}

/// Whether worlds should snapshot metrics and publish to the sink.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Submit one JSONL line under a deterministic sort key (typically the
/// experiment label). No-op when the sink is disabled.
pub fn submit(key: &str, line: String) {
    if !metrics_enabled() {
        return;
    }
    LINES.lock().unwrap().push((key.to_string(), line));
}

/// Submit many lines under one key, preserving their order.
pub fn submit_all(key: &str, lines: Vec<String>) {
    if !metrics_enabled() {
        return;
    }
    let mut g = LINES.lock().unwrap();
    g.extend(lines.into_iter().map(|l| (key.to_string(), l)));
}

/// Submit one `profile` row per event kind that was sampled (`counts`,
/// `total_ns` and `kinds` are index-aligned), under the key
/// [`PROFILE_KEY_PREFIX`] + `section` so the rows sort after every
/// golden section. No-op when the sink is disabled.
pub fn submit_profile(section: &str, kinds: &[&str], counts: &[u64], total_ns: &[u64]) {
    let lines = kinds
        .iter()
        .zip(counts.iter().zip(total_ns))
        .filter(|(_, (&n, _))| n > 0)
        .map(|(kind, (&n, &ns))| {
            let mut l = JsonLine::new();
            l.str("type", "profile")
                .str("section", section)
                .str("event", kind)
                .u64("count", n)
                .u64("total_ns", ns)
                .f64("mean_ns", ns as f64 / n as f64);
            l.finish()
        })
        .collect();
    submit_all(&format!("{PROFILE_KEY_PREFIX}{section}"), lines);
}

/// Drain everything, sorted by key (stable: submission order preserved
/// within a key). Returns raw JSONL lines ready to write out.
pub fn drain_sorted() -> Vec<String> {
    let mut lines = std::mem::take(&mut *LINES.lock().unwrap());
    lines.sort_by(|a, b| a.0.cmp(&b.0));
    lines.into_iter().map(|(_, l)| l).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_sorts_by_key_and_respects_enable() {
        disable_and_clear();
        submit("a", "dropped".into());
        assert!(drain_sorted().is_empty(), "disabled sink drops lines");
        enable_metrics();
        submit("b", "line-b1".into());
        submit("a", "line-a1".into());
        submit("b", "line-b2".into());
        submit(&format!("{PROFILE_KEY_PREFIX}x"), "prof".into());
        // Kinds never sampled get no row; the rest sort after "prof".
        submit_profile("y", &["idle", "busy"], &[0, 4], &[0, 10]);
        let out = drain_sorted();
        assert_eq!(
            out,
            vec![
                "line-a1",
                "line-b1",
                "line-b2",
                "prof",
                "{\"type\":\"profile\",\"section\":\"y\",\"event\":\"busy\",\
                 \"count\":4,\"total_ns\":10,\"mean_ns\":2.5}",
            ]
        );
        disable_and_clear();
    }
}
