//! Extension study (paper §5 "Reordering tolerance in modern transport
//! protocols"): does RoCE's new selective-repeat feature make the cheap
//! LinkGuardianNB variant viable for RDMA?
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_selective_repeat
//! [--trials 3000]`

use lg_bench::{arg, banner};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{fct_config, fct_experiment, FctTransport, Protection};

fn main() {
    let _obs = lg_bench::obs::session("ext_selective_repeat", &["--trials", "--seed"]);
    banner(
        "Extension: LG_NB x RoCE selective repeat",
        "64KB RDMA WRITEs on a corrupting (2e-3) 100G link",
    );
    let trials: u32 = arg("--trials", 3_000u32);
    let seed: u64 = arg("--seed", 77);
    let loss = LossModel::Iid { rate: 2e-3 };
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "p99 (us)", "p99.9 (us)", "p99.99", "e2e retx"
    );
    for (label, prot, transport) in [
        (
            "go-back-N, unprotected",
            Protection::Off,
            FctTransport::Rdma,
        ),
        ("go-back-N + LG_NB", Protection::LgNb, FctTransport::Rdma),
        (
            "go-back-N + LG (ordered)",
            Protection::Lg,
            FctTransport::Rdma,
        ),
        (
            "selective repeat, unprotected",
            Protection::Off,
            FctTransport::RdmaSelectiveRepeat,
        ),
        (
            "selective repeat + LG_NB",
            Protection::LgNb,
            FctTransport::RdmaSelectiveRepeat,
        ),
    ] {
        let speed = LinkSpeed::G100;
        let cfg = fct_config(speed, loss.clone(), prot, transport, 65_536, trials, seed);
        lg_bench::check_cfgs([cfg.validate()]);
        let r = fct_experiment(speed, loss.clone(), prot, transport, 65_536, trials, seed);
        println!(
            "{:<34} {:>10.1} {:>12.1} {:>12.1} {:>10}",
            label, r.report.p99_us, r.report.p999_us, r.report.p9999_us, r.e2e_retx
        );
    }
    println!();
    println!("with selective repeat the NIC tolerates LG_NB's out-of-order");
    println!("retransmissions: one re-sent packet per loss instead of a full window");
    println!("rewind — the cheap variant becomes viable for RDMA, as §5 anticipates.");
}
