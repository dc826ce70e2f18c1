//! Extension study (paper §5 "Incremental Deployment", left as future
//! work there): total-penalty reduction as a function of the fraction of
//! LinkGuardian-capable links, on the fabric maintenance simulation.
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_partial_deployment
//! [--pods 60] [--days 60]`

use lg_bench::{arg, banner};
use lg_fabric::{run, FabricSimConfig, Policy};

fn main() {
    let _obs = lg_bench::obs::session("ext_partial_deployment");
    banner(
        "Extension: incremental deployment",
        "penalty vs fraction of LinkGuardian-capable links (75% constraint)",
    );
    let pods: u32 = arg("--pods", 60u32);
    let days: f64 = arg("--days", 60.0);
    let seed: u64 = arg("--seed", 55);
    let mk = |policy| FabricSimConfig {
        pods,
        horizon_hours: days * 24.0,
        constraint: 0.75,
        policy,
        sample_interval_hours: 6.0,
        target_loss_rate: 1e-8,
        seed,
    };
    lg_bench::check_fabric_cfgs(&[mk(Policy::CorrOptOnly)]);
    let mean = |r: &lg_fabric::FabricSimResult| {
        r.samples.iter().map(|s| s.total_penalty).sum::<f64>() / r.samples.len() as f64
    };
    let base = mean(&run(&mk(Policy::CorrOptOnly)));
    println!(
        "{:>12} {:>16} {:>12}",
        "deployed", "mean penalty", "gain (x)"
    );
    println!("{:>11}% {:>16.3e} {:>12.1}", 0, base, 1.0);
    for f in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let p = mean(&run(&mk(Policy::PartialLg(f))));
        println!(
            "{:>11.0}% {:>16.3e} {:>12.1e}",
            f * 100.0,
            p,
            base / p.max(1e-300)
        );
    }
    println!();
    println!("takeaway: the penalty is dominated by the worst unprotected corrupting");
    println!("link, so the gain stays modest until coverage is nearly complete —");
    println!("supporting the paper's advice to prioritize links that cannot be");
    println!("disabled under the capacity constraint.");
}
