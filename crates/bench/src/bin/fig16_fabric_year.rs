//! Figure 16: CDFs over a year-long simulation of (a) the gain in total
//! penalty and (b) the decrease in least capacity per pod, for
//! LinkGuardian + CorrOpt vs vanilla CorrOpt at 50% and 75% constraints.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig16_fabric_year
//! [--pods 260] [--days 365] [--sample-hours 4] [--threads N]
//! [--guardd]`
//!
//! `--guardd` appends year-long runs driven by the `lg-guardd` control
//! plane (budgeted decisions from the observed health feed); their
//! decision journals reach `--guard-log`/`--metrics-out`. Default
//! stdout (no flag) is unchanged.
//!
//! The four constraint × policy simulations run in parallel; output is
//! identical at any `--threads` value. The packet-level cross-check
//! of the same pod geometry is `ext_fabric_pkt --scale`.

use lg_bench::{arg, banner, sweep};
use lg_fabric::{run_many, FabricSimConfig, Policy};
use std::num::NonZeroU32;

fn main() {
    let _obs = lg_bench::obs::session(
        "fig16_fabric_year",
        &["--pods", "--days", "--sample-hours", "--seed", "--guardd"],
    );
    banner(
        "Figure 16",
        "year-long CDFs: penalty gain and capacity decrease (LG+CorrOpt vs CorrOpt)",
    );
    let pods = arg("--pods", const { NonZeroU32::new(260).unwrap() }).get();
    let days: f64 = arg("--days", 365.0);
    let sample_hours: f64 = arg("--sample-hours", 4.0);
    let seed: u64 = arg("--seed", 16);
    let guardd = lg_bench::flag("--guardd");
    let constraints = [0.50, 0.75];
    let mut cfgs = Vec::new();
    for constraint in constraints {
        for policy in [Policy::CorrOptOnly, Policy::LgPlusCorrOpt] {
            cfgs.push(FabricSimConfig {
                pods,
                horizon_hours: days * 24.0,
                constraint,
                policy,
                sample_interval_hours: sample_hours,
                target_loss_rate: 1e-8,
                seed,
            });
        }
    }
    if guardd {
        for constraint in constraints {
            cfgs.push(FabricSimConfig {
                pods,
                horizon_hours: days * 24.0,
                constraint,
                policy: Policy::LgGuardd(lg_guardd::GuardConfig::default()),
                sample_interval_hours: sample_hours,
                target_loss_rate: 1e-8,
                seed,
            });
        }
    }
    lg_bench::check_fabric_cfgs(&cfgs);
    let all = run_many(&cfgs, sweep::threads());
    lg_bench::obs::publish_fabric_health(&cfgs, &all);
    lg_bench::obs::publish_fabric_guard(&cfgs, &all);
    for (i, constraint) in constraints.into_iter().enumerate() {
        let (co, lg) = (&all[i * 2], &all[i * 2 + 1]);
        let mut gains: Vec<f64> = co
            .samples
            .iter()
            .zip(lg.samples.iter())
            .map(|(a, b)| {
                if a.total_penalty <= 0.0 && b.total_penalty <= 0.0 {
                    1.0
                } else {
                    a.total_penalty / b.total_penalty.max(1e-300)
                }
            })
            .collect();
        gains.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut cap_drop: Vec<f64> = co
            .samples
            .iter()
            .zip(lg.samples.iter())
            .map(|(a, b)| (a.least_capacity - b.least_capacity).max(0.0) * 100.0)
            .collect();
        cap_drop.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let q = |v: &[f64], p: f64| v[((p * v.len() as f64) as usize).min(v.len() - 1)];

        println!("=== capacity constraint {:.0}% ===", constraint * 100.0);
        println!("(a) gain in total penalty (x times):");
        for p in [0.10, 0.25, 0.35, 0.50, 0.75, 0.90, 0.99] {
            println!("    P{:>4.0} : {:>12.3e}", p * 100.0, q(&gains, p));
        }
        let no_gain =
            gains.iter().filter(|&&g| g <= 1.0 + 1e-9).count() as f64 / gains.len() as f64;
        println!(
            "    fraction of time with no gain (all links disabled): {:.1}%",
            no_gain * 100.0
        );
        println!("(b) decrease in least capacity per pod (percentage points):");
        for p in [0.50f64, 0.90, 0.99, 1.0] {
            println!(
                "    P{:>4.0} : {:>8.4}",
                p * 100.0,
                q(&cap_drop, p.min(0.999999))
            );
        }
        println!();
    }
    if guardd {
        println!("=== lg-guardd control plane (observed health, budgeted) ===");
        for (k, constraint) in constraints.into_iter().enumerate() {
            let g = &all[4 + k];
            let mean_pen =
                g.samples.iter().map(|s| s.total_penalty).sum::<f64>() / g.samples.len() as f64;
            println!(
                "c{:.0}: mean total penalty {mean_pen:.3e}, {} journaled decisions",
                constraint * 100.0,
                g.guard_journal.len()
            );
        }
        println!();
    }
    println!("paper: at 50% the gain is 1 about 35% of the time (everything disabled);");
    println!("  otherwise, and nearly always at 75%, the gain is orders of magnitude,");
    println!("  while the capacity decrease stays below ~0.25%.");
}
