//! Figure 10: top-1% FCT CDFs for 143 B (single-packet) flows on a 100 G
//! link with 1e-3 corruption loss — DCTCP and RDMA WRITE, four curves
//! each: no loss, +LG, +LG_NB, loss-unprotected.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig10_fct_143b
//! [--trials 30000] [--threads N]`
//!
//! All transport × curve points run in parallel; output is identical at
//! any `--threads` value.

use lg_bench::{arg, banner, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{fct_config, fct_experiment, FctTransport, Protection};
use lg_transport::CcVariant;

fn main() {
    let _obs = lg_bench::obs::session("fig10_fct_143b", &["--trials", "--seed"]);
    banner(
        "Figure 10",
        "top 1% FCTs for 143B flows on a 100G link (1e-3 loss)",
    );
    let trials: u32 = arg("--trials", 30_000u32);
    let seed: u64 = arg("--seed", 10);
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };

    let transports = [
        ("DCTCP", FctTransport::Tcp(CcVariant::Dctcp)),
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
        fct_config(speed, lm.clone(), *prot, *transport, 143, trials, seed).validate()
    }));
    let results = sweep::run(&points, |(transport, lm, prot)| {
        fct_experiment(speed, lm.clone(), *prot, *transport, 143, trials, seed)
    });

    let mut rows = results.iter();
    for (tname, _) in &transports {
        println!("--- {tname} ---");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "curve", "p99(us)", "p99.9(us)", "p99.99", "max-ish", "e2e_retx"
        );
        let mut noloss_p999 = 0.0;
        let mut loss_p999 = 0.0;
        for (label, _, _) in &curves {
            let r = rows.next().expect("one result per point");
            println!(
                "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
                label,
                r.report.p99_us,
                r.report.p999_us,
                r.report.p9999_us,
                r.report.p99999_us,
                r.e2e_retx
            );
            if *label == "no loss" {
                noloss_p999 = r.report.p999_us;
            }
            if label.starts_with("loss") {
                loss_p999 = r.report.p999_us;
            }
        }
        println!(
            "p99.9 improvement of LG over raw loss (≈ paper's {}x): {:.0}x vs no-loss baseline {:.1} us",
            if *tname == "DCTCP" { 51 } else { 66 },
            loss_p999 / noloss_p999,
            noloss_p999
        );
        println!();
    }
    println!(
        "paper: LG/LG_NB curves indistinguishable from no-loss; raw loss has a ~1ms RTO tail."
    );
}
