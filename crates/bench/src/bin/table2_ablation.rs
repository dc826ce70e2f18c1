//! Table 2: contribution of LinkGuardian's mechanisms — top-1% FCT for
//! 24,387 B DCTCP flows with (ReTx), (ReTx+Order), (ReTx+Tail) and
//! (ReTx+Tail+Order = full LinkGuardian).
//!
//! Usage: `cargo run --release -p lg-bench --bin table2_ablation
//! [--trials 20000] [--threads N]`
//!
//! The six ablation rows run in parallel; output is identical at any
//! `--threads` value.

use lg_bench::{arg, banner, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{fct_config, fct_experiment, FctTransport, Protection};
use lg_transport::CcVariant;

fn main() {
    let _obs = lg_bench::obs::session("table2_ablation", &["--trials", "--seed"]);
    banner(
        "Table 2",
        "top 1% FCT (us) for 24,387B DCTCP flows per LinkGuardian mechanism",
    );
    let trials: u32 = arg("--trials", 20_000u32);
    let seed: u64 = arg("--seed", 2);
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };

    let configs: [(&str, LossModel, Protection); 6] = [
        ("No Loss", LossModel::None, Protection::Off),
        ("Loss (1e-3)", loss.clone(), Protection::Off),
        (
            "ReTx",
            loss.clone(),
            Protection::Ablation {
                tail: false,
                order: false,
            },
        ),
        (
            "ReTx+Order",
            loss.clone(),
            Protection::Ablation {
                tail: false,
                order: true,
            },
        ),
        (
            "ReTx+Tail",
            loss.clone(),
            Protection::Ablation {
                tail: true,
                order: false,
            },
        ),
        (
            "ReTx+Tail+Order",
            loss.clone(),
            Protection::Ablation {
                tail: true,
                order: true,
            },
        ),
    ];

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "99.00%", "99.90%", "99.99%", "99.999%", "std dev"
    );
    let dctcp = FctTransport::Tcp(CcVariant::Dctcp);
    lg_bench::check_cfgs(configs.iter().map(|(_, lm, prot)| {
        fct_config(speed, lm.clone(), *prot, dctcp, 24_387, trials, seed).validate()
    }));
    let results = sweep::run(&configs, |(_, lm, prot)| {
        fct_experiment(speed, lm.clone(), *prot, dctcp, 24_387, trials, seed)
    });
    for ((label, _, _), r) in configs.iter().zip(&results) {
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            label,
            r.report.p99_us,
            r.report.p999_us,
            r.report.p9999_us,
            r.report.p99999_us,
            r.report.std_dev_us
        );
    }
    println!();
    println!("paper (Table 2): ReTx alone fixes p99.9 but leaves a p99.99 RTO tail;");
    println!("  +Tail removes the tail at all percentiles; +Order adds ~33% at p99.99+.");
}
