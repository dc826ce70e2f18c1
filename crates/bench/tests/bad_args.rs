//! A trial-series binary given `--trials 0` must refuse it up front —
//! one line on stderr, exit status 2 — not panic with a backtrace
//! (`quantile of empty sample set`, status 101) after running the sweep.
//! Likewise the packet-fabric binaries given a horizon whose snapshot
//! count does not fit `u32` (`PktFabric::new` panics on one), the
//! stress binaries given a `--secs` that is not a positive duration, the
//! fixed-size binaries given a zero size, the packet engine given zero
//! pods or shards, and the analytic fabric given a zero sample interval.

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
    for (exe, engine) in [
        (env!("CARGO_BIN_EXE_ext_fabric_pkt"), &[][..]),
        (
            env!("CARGO_BIN_EXE_fig15_fabric_week"),
            &["--engine", "packet", "--pods", "2"][..],
        ),
    ] {
        let args = [engine, &["--horizon-us", "18446744073709"]].concat();
        let stderr = refused(exe, &args);
        assert!(
            stderr.contains("error: horizon / sample_interval must fit in u32 snapshots"),
            "{exe}: {stderr}"
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
/// 260-pod fabric for fig15, the 8-pod fixture for `ext_fabric_pkt`)
/// and `--shards 0` ran anyway. Each size argument parses as a non-zero
/// integer.
#[test]
fn zero_size_runs_are_refused_with_exit_2() {
    let fig15 = env!("CARGO_BIN_EXE_fig15_fabric_week");
    let fig16 = env!("CARGO_BIN_EXE_fig16_fabric_year");
    let ext_pkt = env!("CARGO_BIN_EXE_ext_fabric_pkt");
    // A short horizon keeps the parent's silent runs short.
    let packet = &["--engine", "packet", "--horizon-us", "10"][..];
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
        (ext_pkt, "--pods", &["--horizon-us", "10"]),
        (fig15, "--pods", packet),
        (fig15, "--shards", packet),
        (fig16, "--shards", packet),
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
