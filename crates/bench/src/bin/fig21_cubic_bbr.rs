//! Figure 21 (Appendix B.3): the Fig 9 timeline for CUBIC (25 G) and
//! BBR (10 G).
//!
//! Usage: `cargo run --release -p lg-bench --bin fig21_cubic_bbr [--ms 60]`

use lg_bench::{arg, banner};
use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{time_series, TimeSeriesScenario};
use lg_transport::CcVariant;
use std::num::NonZeroU64;

fn run_one(name: &str, speed: LinkSpeed, variant: CcVariant, total_ms: u64, seed: u64) {
    println!("--- {name} on {} ---", speed.name());
    let s = TimeSeriesScenario {
        speed,
        variant,
        loss: LossModel::Iid { rate: 1e-3 },
        corruption_at: Time::from_ms(total_ms / 6),
        lg_at: Time::from_ms(total_ms / 2),
        end: Time::from_ms(total_ms),
        disable_backpressure: false,
        nb_mode: false,
        sample_interval: Duration::from_ms((total_ms / 30).max(1)),
        seed,
    };
    let r = time_series(&s);
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "t(ms)", "rate(Gbps)", "qdepth(KB)", "e2e_retx"
    );
    for row in &r.rows {
        println!(
            "{:>8.1} {:>12.2} {:>12.1} {:>10}",
            row.t.as_secs_f64() * 1e3,
            row.goodput,
            row.qdepth as f64 / 1024.0,
            row.e2e_retx
        );
    }
    println!();
}

fn main() {
    let _obs = lg_bench::obs::session("fig21_cubic_bbr");
    banner("Figure 21", "CUBIC and BBR under the Fig 9 timeline");
    let total_ms = arg("--ms", const { NonZeroU64::new(60).unwrap() }).get();
    run_one("CUBIC", LinkSpeed::G25, CcVariant::Cubic, total_ms, 21);
    run_one("BBR", LinkSpeed::G10, CcVariant::Bbr, total_ms, 22);
    println!("paper: CUBIC collapses under loss and recovers with LG (qdepth grows:");
    println!("  no ECN response); BBR is barely hurt by loss but still gains with LG.");
}
