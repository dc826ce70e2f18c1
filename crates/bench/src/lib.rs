//! `lg-bench` — regenerators for every table and figure in the paper's
//! evaluation, one binary each (`cargo run --release -p lg-bench --bin
//! figXX_...`). Engine speed is measured by `perf/run.sh`, not here.
//!
//! Binaries print the same rows/series the paper reports; absolute
//! numbers come from the simulated substrate, so `EXPERIMENTS.md`
//! compares *shapes* (who wins, by what factor, where crossovers fall)
//! against the paper.

pub mod obs;
pub mod sweep;

use lg_sim::Duration;
use std::env;

/// Parse `--key value` from an explicit argument list.
///
/// Returns `Ok(None)` when `key` is absent, and `Err` with a
/// human-readable message when the key is present but the value is
/// missing or fails to parse — silently falling back to a default on a
/// typo would run the wrong experiment.
pub fn try_arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    for i in 0..args.len() {
        if args[i] == key {
            let Some(v) = args.get(i + 1) else {
                return Err(format!("missing value after {key}"));
            };
            return match v.parse::<T>() {
                Ok(parsed) => Ok(Some(parsed)),
                Err(e) => Err(format!("invalid value for {key}: {v:?} ({e})")),
            };
        }
    }
    Ok(None)
}

/// Parse `--key value` style arguments with a default.
///
/// A present-but-unparsable value is reported on stderr and exits with
/// status 2 rather than being silently replaced by the default.
pub fn arg<T: std::str::FromStr>(key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    let args: Vec<String> = env::args().collect();
    match try_arg(&args, key) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => default,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// `--secs` as the length of a stress test, refused up front (stderr,
/// exit 2) unless it is a whole number of picoseconds in `1..2^64`.
/// `Duration::from_secs_f64` saturates through `as u64`: NaN, negatives
/// and anything under half a picosecond become a zero-length run whose
/// rates print as `inf%`/`NaN%`, and 1e30 becomes 213 simulated days.
pub fn secs_arg(default: f64) -> Duration {
    let secs: f64 = arg("--secs", default);
    let ps = (secs * 1e12).round();
    // NaN is in no range; 2^64 is where `as u64` saturates.
    if (1.0..18_446_744_073_709_551_616.0).contains(&ps) {
        Duration::from_secs_f64(secs)
    } else {
        eprintln!("error: --secs must be at least 1 ps and below 2^64 ps (got {secs} s)");
        std::process::exit(2);
    }
}

/// Whether a bare flag is present.
pub fn flag(key: &str) -> bool {
    env::args().any(|a| a == key)
}

/// Exit with status 2 and the message on stderr if any `validate()`
/// result refuses its config: `World::new` and `ChainWorld::new` panic
/// on one (`--trials 0` used to surface as a quantile-of-nothing
/// backtrace after the whole sweep), `lg_fabric::run` used to loop
/// until out of memory (`--sample-hours 0`).
pub fn check_cfgs(results: impl IntoIterator<Item = Result<(), String>>) {
    for r in results {
        if let Err(msg) = r {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// [`check_cfgs`] over fabric configurations.
pub fn check_fabric_cfgs(cfgs: &[lg_fabric::FabricSimConfig]) {
    check_cfgs(cfgs.iter().map(|cfg| cfg.validate()));
}

/// Print a standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_default_used_when_missing() {
        assert_eq!(arg("--definitely-not-passed", 42u32), 42);
        assert!(!flag("--definitely-not-passed"));
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn try_arg_absent_is_none() {
        let args = argv(&["bin", "--other", "3"]);
        assert_eq!(try_arg::<u32>(&args, "--threads"), Ok(None));
    }

    #[test]
    fn try_arg_parses_present_value() {
        let args = argv(&["bin", "--threads", "8"]);
        assert_eq!(try_arg::<u32>(&args, "--threads"), Ok(Some(8)));
    }

    #[test]
    fn try_arg_reports_bad_value() {
        let args = argv(&["bin", "--threads", "lots"]);
        let err = try_arg::<u32>(&args, "--threads").unwrap_err();
        assert!(err.contains("--threads") && err.contains("lots"), "{err}");
    }

    #[test]
    fn try_arg_reports_missing_value() {
        let args = argv(&["bin", "--threads"]);
        let err = try_arg::<u32>(&args, "--threads").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }
}
