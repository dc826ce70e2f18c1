//! A trial-series binary given `--trials 0` must refuse it up front —
//! one line on stderr, exit status 2 — not panic with a backtrace
//! (`quantile of empty sample set`, status 101) after running the sweep.
//! Likewise the packet-fabric binaries given a horizon whose snapshot
//! count does not fit `u32` (`PktFabric::new` panics on one).

use std::process::Command;

fn refuses_zero_trials(exe: &str) {
    let out = Command::new(exe)
        .args(["--trials", "0"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
    assert!(
        stderr.starts_with("error: trials must be at least 1"),
        "{exe}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
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
        refuses_zero_trials(exe);
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
        let out = Command::new(exe)
            .args(engine)
            .args(["--horizon-us", "18446744073709"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(
            stderr.contains("error: horizon / sample_interval must fit in u32 snapshots"),
            "{exe}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
    }
}
