//! Figure 11: top-5% FCTs for 24,387 B flows (multi-packet) on a 100 G
//! link — DCTCP, BBR and RDMA WRITE.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig11_fct_24kb
//! [--trials 20000] [--threads N]`
//!
//! All transport × curve points run in parallel; output is identical at
//! any `--threads` value.

use lg_bench::{arg, banner, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{fct_config, fct_experiment, FctTransport, Protection};
use lg_transport::CcVariant;

fn main() {
    let _obs = lg_bench::obs::session("fig11_fct_24kb");
    banner(
        "Figure 11",
        "top 5% FCTs for 24,387B flows on a 100G link (1e-3 loss)",
    );
    let trials: u32 = arg("--trials", 20_000u32);
    let seed: u64 = arg("--seed", 11);
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };

    let transports = [
        ("DCTCP", FctTransport::Tcp(CcVariant::Dctcp)),
        ("BBR", FctTransport::Tcp(CcVariant::Bbr)),
        ("RDMA_WR", FctTransport::Rdma),
    ];
    let curves = [
        ("no loss", LossModel::None, Protection::Off),
        ("+LG (1e-3)", loss.clone(), Protection::Lg),
        ("+LG_NB (1e-3)", loss.clone(), Protection::LgNb),
        ("loss (1e-3)", loss.clone(), Protection::Off),
    ];
    let mut points = Vec::new();
    for (_, transport) in &transports {
        for (_, lm, prot) in &curves {
            points.push((*transport, lm.clone(), *prot));
        }
    }
    lg_bench::check_cfgs(points.iter().map(|(transport, lm, prot)| {
        fct_config(speed, lm.clone(), *prot, *transport, 24_387, trials, seed).validate()
    }));
    let results = sweep::run(&points, |(transport, lm, prot)| {
        fct_experiment(speed, lm.clone(), *prot, *transport, 24_387, trials, seed)
    });

    let mut rows = results.iter();
    for (tname, _) in &transports {
        println!("--- {tname} ---");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "curve", "p95(us)", "p99(us)", "p99.9(us)", "p99.99", "e2e_retx"
        );
        for (label, _, _) in &curves {
            let r = rows.next().expect("one result per point");
            let p95 = r.tail_cdf.first().map(|p| p.0).unwrap_or(0.0);
            println!(
                "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
                label, p95, r.report.p99_us, r.report.p999_us, r.report.p9999_us, r.e2e_retx
            );
        }
        println!();
    }
    println!("paper: LG overlaps no-loss; LG_NB matches LG for TCP (to p99) but only");
    println!("       removes RTO tails for reordering-intolerant RDMA; 19x/39x at p99.9.");
}
