//! Figure 19 (Appendix B.1): distribution of the delay from loss
//! detection at the receiver switch to successful reception of the
//! retransmission.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig19_retx_delay
//! [--secs 0.5]`

use lg_bench::{banner, secs_arg};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{stress_test, Protection};

fn main() {
    let _obs = lg_bench::obs::session("fig19_retx_delay", &["--secs"]);
    banner(
        "Figure 19",
        "loss-detection → retransmission-received delay",
    );
    let duration = secs_arg(0.5);
    println!(
        "{:<6} {:<10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "speed", "loss", "samples", "min(us)", "p25(us)", "p50(us)", "p99(us)", "max(us)"
    );
    for speed in [LinkSpeed::G25, LinkSpeed::G100] {
        for rate in [1e-4, 1e-3] {
            let r = stress_test(speed, LossModel::Iid { rate }, Protection::Lg, duration, 7);
            let h = &r.retx_delay_ps;
            if h.is_empty() {
                continue;
            }
            let us = |ps: u64| ps as f64 / 1e6;
            println!(
                "{:<6} {:<10.0e} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                speed.name(),
                rate,
                h.len(),
                us(h.min()),
                us(h.quantile(0.25)),
                us(h.quantile(0.5)),
                us(h.quantile(0.99)),
                us(h.max()),
            );
        }
    }
    println!();
    println!("paper: 2.5–6 us at 25G, 2–5.5 us at 100G; ackNoTimeout is set above the max.");
}
