//! Extension study (paper §5 "Handling bidirectional corruption"):
//! corruption in *both* directions, comparing control-replication alone
//! against a full parallel LinkGuardian instance for the reverse
//! direction.
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_bidirectional
//! [--trials 2000]`

use lg_bench::{arg, banner};
use lg_link::{LinkSpeed, LossModel};
use lg_sim::Duration;
use lg_testbed::world::{App, World, WorldConfig};
use lg_testbed::Protection;
use lg_transport::CcVariant;

fn run(bidirectional: bool, rev_rate: f64, trials: u32) -> (f64, u64, u64) {
    let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::Iid { rate: 1e-3 });
    cfg.rev_loss = LossModel::Iid { rate: rev_rate };
    cfg.lg = Protection::Lg.lg_config(LinkSpeed::G25, 1e-3);
    if let Some(lg) = cfg.lg.as_mut() {
        lg.control_copies = 3; // §5's replication hardening in both setups
        lg.dummy_copies = 2;
    }
    cfg.bidirectional = bidirectional;
    cfg.seed = 42;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 24_387,
        trials,
        gap: Duration::from_us(10),
    };
    lg_bench::check_cfgs([cfg.validate()]);
    let mut w = World::new(cfg);
    w.run_to_completion();
    let mut fct = std::mem::take(&mut w.out.fct);
    let rev_recovered = w
        .lg2_tx
        .as_ref()
        .map(|t| t.stats().retx_packets)
        .unwrap_or(0);
    (fct.quantile_us(0.999), w.out.e2e_retx_total, rev_recovered)
}

fn main() {
    let _obs = lg_bench::obs::session("ext_bidirectional");
    banner(
        "Extension: bidirectional corruption",
        "24,387B DCTCP trials, forward loss 1e-3, varying reverse loss",
    );
    let trials: u32 = arg("--trials", 2_000u32);
    println!(
        "{:<10} {:<26} {:>12} {:>10} {:>16}",
        "rev loss", "protection", "p99.9 (us)", "e2e retx", "rev recoveries"
    );
    for rev in [1e-4, 1e-3, 5e-3] {
        for (label, bidi) in [
            ("replication only", false),
            ("parallel reverse instance", true),
        ] {
            let (p999, e2e, rev_rec) = run(bidi, rev, trials);
            println!(
                "{:<10.0e} {:<26} {:>12.1} {:>10} {:>16}",
                rev, label, p999, e2e, rev_rec
            );
        }
    }
    println!();
    println!("replication keeps LinkGuardian's own control alive, but lost TCP ACKs");
    println!("still reach the transport; the parallel reverse instance recovers them");
    println!("link-locally, keeping the tail at the no-loss level even at 5e-3.");
}
