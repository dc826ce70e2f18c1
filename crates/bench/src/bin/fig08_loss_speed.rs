//! Figure 8: effective loss rates achieved by LinkGuardian (LG) and
//! LinkGuardianNB (LG_NB) and the corresponding effective link speeds,
//! for 25G and 100G links at actual loss rates 1e-5, 1e-4, 1e-3.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig08_loss_speed
//! [--secs 1.0] [--seed 1] [--threads N]`
//!
//! The 12 sweep points (speed × rate × mode) run in parallel; output is
//! identical at any `--threads` value.
//!
//! The paper's effective loss rates (1e-8..1e-10) need >1e10 frames to
//! observe directly; like the paper's own analysis we report the measured
//! unrecovered-loss rate alongside the Eq. 1 expectation `actual^(N+1)`
//! (the exponent law is separately validated at inflated loss rates by
//! `tests/exponent_law.rs`).

use lg_bench::{arg, banner, secs_arg, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{stress_test, Protection};

fn main() {
    let _obs = lg_bench::obs::session("fig08_loss_speed");
    banner(
        "Figure 8",
        "effective loss rate and effective link speed, LG vs LG_NB",
    );
    let duration = secs_arg(0.5);
    let seed: u64 = arg("--seed", 1);

    println!(
        "{:<6} {:<10} {:<6} {:>8} {:>12} {:>14} {:>14} {:>10} {:>9}",
        "speed",
        "actual",
        "mode",
        "N",
        "losses",
        "eff.loss(meas)",
        "eff.loss(exp)",
        "eff.speed",
        "timeouts"
    );
    let mut points = Vec::new();
    for speed in [LinkSpeed::G25, LinkSpeed::G100] {
        for rate in [1e-5, 1e-4, 1e-3] {
            for (label, protection) in [("LG", Protection::Lg), ("LG_NB", Protection::LgNb)] {
                points.push((speed, rate, label, protection));
            }
        }
    }
    let results = sweep::run(&points, |&(speed, rate, _, protection)| {
        stress_test(speed, LossModel::Iid { rate }, protection, duration, seed)
    });
    for (&(speed, rate, label, _), r) in points.iter().zip(&results) {
        println!(
            "{:<6} {:<10.0e} {:<6} {:>8} {:>12} {:>14.3e} {:>14.3e} {:>9.2}% {:>9}",
            speed.name(),
            rate,
            label,
            r.n_copies,
            r.wire_losses,
            r.effective_loss_rate,
            r.expected_loss_rate,
            r.effective_speed * 100.0,
            r.timeouts,
        );
    }
    println!();
    println!("paper: LG_NB >= LG effective speed; both ~100% at <=1e-4;");
    println!("       LG ~92% at 100G/1e-3; expected loss 1e-10/1e-8/1e-9.");
}
