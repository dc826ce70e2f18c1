//! A trial-series binary given `--trials 0` must refuse it up front —
//! one line on stderr, exit status 2 — not panic with a backtrace
//! (`quantile of empty sample set`, status 101) after running the sweep.
//! Likewise the packet-fabric binaries given a horizon whose snapshot
//! count does not fit `u32` (`PktFabric::new` panics on one), the
//! stress binaries given a `--secs` that is not a positive duration, the
//! fixed-size binaries given a zero size, the packet engine given zero
//! pods or shards, the analytic fabric given a zero sample interval,
//! any binary given an option it does not take, and any binary given an
//! output path it cannot create.

use std::process::Command;

/// Run `exe args`; it must exit 2 without panicking. Returns stderr.
fn refused(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    stderr
}

#[test]
fn zero_trials_is_refused_with_exit_2() {
    for exe in [
        env!("CARGO_BIN_EXE_fig10_fct_143b"),
        env!("CARGO_BIN_EXE_fig11_fct_24kb"),
        env!("CARGO_BIN_EXE_fig12_fct_2mb"),
        env!("CARGO_BIN_EXE_fig13_classification"),
        env!("CARGO_BIN_EXE_table2_ablation"),
        env!("CARGO_BIN_EXE_ext_multihop"),
        env!("CARGO_BIN_EXE_ext_bidirectional"),
        env!("CARGO_BIN_EXE_ext_selective_repeat"),
    ] {
        let stderr = refused(exe, &["--trials", "0"]);
        assert!(
            stderr.starts_with("error: trials must be at least 1"),
            "{exe}: {stderr}"
        );
    }
}

#[test]
fn packet_fabric_horizon_past_u32_snapshots_is_refused_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_ext_fabric_pkt");
    for preset in [&[][..], &["--scale", "--pods", "2"]] {
        let args = [preset, &["--horizon-us", "18446744073709"]].concat();
        let stderr = refused(exe, &args);
        assert!(
            stderr.contains("error: horizon / sample_interval must fit in u32 snapshots"),
            "{preset:?}: {stderr}"
        );
    }
}

/// `Duration::from_secs_f64` turned `-1` and `nan` into a zero-length
/// run (`table4_recirc --secs 0` printed `inf%`/`NaN%` rows and exited
/// 0) and `1e30` into 213 simulated days.
#[test]
fn stress_length_that_is_not_a_positive_duration_is_refused_with_exit_2() {
    for exe in [
        env!("CARGO_BIN_EXE_fig08_loss_speed"),
        env!("CARGO_BIN_EXE_fig14_buffers"),
        env!("CARGO_BIN_EXE_fig19_retx_delay"),
        env!("CARGO_BIN_EXE_table4_recirc"),
        env!("CARGO_BIN_EXE_ext_400g"),
    ] {
        for secs in ["0", "-1", "nan", "1e30", "1e-13"] {
            let stderr = refused(exe, &["--secs", secs]);
            assert!(
                stderr.starts_with("error: --secs must be at least 1 ps and below 2^64 ps"),
                "{exe} --secs {secs}: {stderr}"
            );
        }
    }
}

/// A zero-size run used to print a table and exit 0: `NaN%` buckets,
/// a CDF over no bursts, a `0.00` Gb/s goodput, an empty series, or
/// `0 threads`. Under the packet engine `--pods 0` ran a preset (the
/// 8-pod fixture for `ext_fabric_pkt`) and `--shards 0` ran anyway.
/// Each size argument parses as a non-zero integer.
#[test]
fn zero_size_runs_are_refused_with_exit_2() {
    let fig15 = env!("CARGO_BIN_EXE_fig15_fabric_week");
    let ext_pkt = env!("CARGO_BIN_EXE_ext_fabric_pkt");
    for (exe, key, context) in [
        (
            env!("CARGO_BIN_EXE_table1_lossbuckets"),
            "--samples",
            &[][..],
        ),
        (env!("CARGO_BIN_EXE_fig20_consecutive"), "--frames", &[]),
        (env!("CARGO_BIN_EXE_table3_wharf"), "--ms", &[]),
        (env!("CARGO_BIN_EXE_fig09_dctcp_timeseries"), "--ms", &[]),
        (env!("CARGO_BIN_EXE_fig21_cubic_bbr"), "--ms", &[]),
        (ext_pkt, "--shards", &[]),
        (ext_pkt, "--threads", &[]),
        (ext_pkt, "--pods", &["--horizon-us", "10"]),
        (fig15, "--pods", &[]),
    ] {
        let stderr = refused(exe, &[&[key, "0"][..], context].concat());
        let want = format!(
            "error: invalid value for {key}: \"0\" (number would be zero for non-zero type)"
        );
        assert!(
            stderr.starts_with(&want),
            "{exe} {key} 0 {context:?}: {stderr}"
        );
    }
}

/// The packet engine runs on at most one worker per shard, and the shard
/// count is clamped to the link count; the layout report (stderr and
/// `--layout-out`) used to print the raw `--threads`/`--shards`
/// instead: `128 shards … 5000 threads`.
#[test]
fn packet_fabric_reports_the_threads_it_runs_with() {
    let exe = env!("CARGO_BIN_EXE_ext_fabric_pkt");
    let layout = std::env::temp_dir().join(format!("lg_layout_{}.json", std::process::id()));
    for (args, shards) in [
        (&["--shards", "5000"][..], 128),
        (&["--shards", "3", "--threads", "4294967295"], 3),
    ] {
        let out = Command::new(exe)
            .args(["--pods", "1", "--horizon-us", "10", "--layout-out"])
            .arg(&layout)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        let want = format!("{shards} shards");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        let want = format!("{shards} threads");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        let json = std::fs::read_to_string(&layout).expect("layout written");
        let want = format!("\"threads\":{shards},");
        assert!(json.contains(&want), "{args:?}: {json}");
    }
    let _ = std::fs::remove_file(&layout);
}

/// `lg_fabric::run` used to loop until out of memory on a zero sample
/// interval; the fabric config refuses it before any run starts.
#[test]
fn zero_sample_interval_is_refused_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_fig16_fabric_year");
    let stderr = refused(exe, &["--sample-hours", "0"]);
    assert!(
        stderr.contains("sample interval must be finite and > 0"),
        "{exe}: {stderr}"
    );
}

/// A misspelt option used to be ignored: `fig16_fabric_year
/// --sampel-hours 1` printed the 4-hour-sample figure and exited 0, and
/// `fig11_fct_24kb --trails 5` ran every default trial. Each binary now
/// refuses any option outside its own list before doing any work.
#[test]
fn unknown_options_are_refused_before_any_work() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_fig16_fabric_year"),
            &["--sampel-hours", "1"][..],
        ),
        (env!("CARGO_BIN_EXE_fig11_fct_24kb"), &["--trails", "5"]),
        (
            env!("CARGO_BIN_EXE_ext_fabric_pkt"),
            &["--pods", "1", "--shard", "2"],
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        let bad = args
            .iter()
            .rev()
            .find(|a| a.starts_with("--"))
            .expect("an option");
        assert_eq!(stderr, format!("error: unknown option {bad}\n"), "{exe}");
        assert!(
            out.stdout.is_empty(),
            "{exe} {args:?} printed before refusing"
        );
    }
}

/// An output path that cannot be created used to be found out only when
/// the run wrote it: `fig15_fabric_week --metrics-out /nonexistent/x`
/// ran the whole week, printed `error writing …` and exited 0, and
/// `ext_fabric_pkt --dump` warned three times. Every output a binary is
/// given is now created before any work.
#[test]
fn unwritable_output_paths_are_refused_before_any_work() {
    let missing = std::env::temp_dir().join(format!("lg_no_such_dir_{}", std::process::id()));
    let path = missing.join("out.jsonl");
    let path = path.to_str().expect("utf-8 temp path");
    let fig15 = env!("CARGO_BIN_EXE_fig15_fabric_week");
    let ext_pkt = env!("CARGO_BIN_EXE_ext_fabric_pkt");
    for (exe, flag, context) in [
        (fig15, "--metrics-out", &["--pods", "2", "--days", "1"][..]),
        (fig15, "--timeseries-out", &["--pods", "2", "--days", "1"]),
        (fig15, "--health-log", &["--pods", "2", "--days", "1"]),
        (fig15, "--guard-log", &["--pods", "2", "--days", "1"]),
        (ext_pkt, "--dump", &["--pods", "2", "--horizon-us", "100"]),
        (
            ext_pkt,
            "--layout-out",
            &["--pods", "2", "--horizon-us", "100"],
        ),
        (
            ext_pkt,
            "--metrics-out",
            &["--pods", "2", "--horizon-us", "100"],
        ),
    ] {
        let out = Command::new(exe)
            .args(context)
            .args([flag, path])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {flag}: {stderr}");
        let want = format!("error: cannot write {path}: ");
        assert!(stderr.starts_with(&want), "{exe} {flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{exe} {flag}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{exe} {flag} printed before refusing"
        );
    }
    assert!(!missing.exists());
}

/// A write that fails at the end of the run (a full device here) exits
/// 1 after saying so, as `obs_analyze --out` does, instead of 0.
#[test]
fn failed_final_writes_exit_non_zero() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_fig15_fabric_week"),
            &["--pods", "2", "--days", "1", "--metrics-out"][..],
        ),
        (
            env!("CARGO_BIN_EXE_ext_fabric_pkt"),
            &["--pods", "2", "--horizon-us", "100", "--dump"],
        ),
    ] {
        let out = Command::new(exe)
            .args(args)
            .arg(full)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.contains("error: cannot write /dev/full: "),
            "{exe}: {stderr}"
        );
    }
}
