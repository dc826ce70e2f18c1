//! Figure 12: top-5% FCTs for 2 MB DCTCP flows on a 100 G link
//! (the Alibaba storage maximum).
//!
//! Usage: `cargo run --release -p lg-bench --bin fig12_fct_2mb
//! [--trials 2000] [--threads N]`
//!
//! The four curves run in parallel; output is identical at any
//! `--threads` value.

use lg_bench::{arg, banner, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{fct_config, fct_experiment, FctTransport, Protection};
use lg_transport::CcVariant;

fn main() {
    let _obs = lg_bench::obs::session("fig12_fct_2mb");
    banner(
        "Figure 12",
        "top 5% FCTs for 2MB DCTCP flows on a 100G link (1e-3 loss)",
    );
    let trials: u32 = arg("--trials", 2_000u32);
    let seed: u64 = arg("--seed", 12);
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "curve", "p95(us)", "p99(us)", "p99.9(us)", "affected(%)", "e2e_retx"
    );
    let curves = [
        ("no loss", LossModel::None, Protection::Off),
        ("+LG (1e-3)", loss.clone(), Protection::Lg),
        ("+LG_NB (1e-3)", loss.clone(), Protection::LgNb),
        ("loss (1e-3)", loss.clone(), Protection::Off),
    ];
    let dctcp = FctTransport::Tcp(CcVariant::Dctcp);
    lg_bench::check_cfgs(curves.iter().map(|(_, lm, prot)| {
        fct_config(speed, lm.clone(), *prot, dctcp, 2_097_152, trials, seed).validate()
    }));
    let results = sweep::run(&curves, |(_, lm, prot)| {
        fct_experiment(speed, lm.clone(), *prot, dctcp, 2_097_152, trials, seed)
    });
    for ((label, _, _), r) in curves.iter().zip(&results) {
        let p95 = r.tail_cdf.first().map(|p| p.0).unwrap_or(0.0);
        let affected = r
            .traces
            .iter()
            .filter(|t| t.e2e_retx > 0 || t.max_sacked_bytes > 0)
            .count() as f64
            / r.traces.len().max(1) as f64
            * 100.0;
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>10}",
            label, p95, r.report.p99_us, r.report.p999_us, affected, r.e2e_retx
        );
    }
    println!();
    println!("paper: a 2MB flow spans ~1,400 packets, so ~80% of flows see >=1 corruption;");
    println!("       LG improves p99.9 ~4x, LG_NB ~2x (longer tail from mid-flow cwnd cuts).");
}
