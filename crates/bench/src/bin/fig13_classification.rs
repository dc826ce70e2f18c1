//! Figure 13: classification of "affected" 24,387 B DCTCP flows under
//! LinkGuardianNB into groups A–D by SACK'd bytes, tail loss, and pending
//! bytes.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig13_classification
//! [--trials 30000]`

use lg_bench::{arg, banner};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{classify_fig13, fct_config, fct_experiment, FctTransport, Protection};
use lg_transport::CcVariant;

fn main() {
    let _obs = lg_bench::obs::session("fig13_classification", &["--trials", "--seed"]);
    banner(
        "Figure 13",
        "classification of affected 24,387B DCTCP flows with LG_NB",
    );
    let trials: u32 = arg("--trials", 30_000u32);
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };
    let prot = Protection::LgNb;
    let dctcp = FctTransport::Tcp(CcVariant::Dctcp);
    let seed = arg("--seed", 13);
    let cfg = fct_config(speed, loss.clone(), prot, dctcp, 24_387, trials, seed);
    lg_bench::check_cfgs([cfg.validate()]);
    let r = fct_experiment(speed, loss, prot, dctcp, 24_387, trials, seed);
    let affected = r.traces.iter().filter(|t| t.max_sacked_bytes > 0).count();
    println!("trials: {trials}, affected flows (received >=1 SACK): {affected}");
    let groups = classify_fig13(&r.traces, 1460);
    for (g, n) in &groups {
        let what = match g {
            lg_testbed::Fig13Group::A => "<=2MSS SACKed, no tail loss (no cwnd cut)",
            lg_testbed::Fig13Group::B => "<=2MSS SACKed, tail loss (no cwnd cut)",
            lg_testbed::Fig13Group::C => ">2MSS SACKed, nothing pending (cut, no FCT harm)",
            lg_testbed::Fig13Group::D => ">2MSS SACKed, bytes pending (FCT impact)",
        };
        println!("  group {g:?}: {n:>6}  — {what}");
    }
    let cwnd_cut = r.traces.iter().filter(|t| t.cwnd_reductions > 0).count();
    println!("flows with any cwnd reduction: {cwnd_cut}");
    println!();
    println!("paper: A=1179, B=352, C=1079, D=340 of 2950 affected (proportions matter);");
    println!("       only group D (a small fraction) pays an FCT cost under LG_NB.");
}
