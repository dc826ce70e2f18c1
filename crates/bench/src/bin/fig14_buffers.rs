//! Figure 14: LinkGuardian packet-buffer usage (Tx and Rx) at 25 G and
//! 100 G across loss rates, plus the LG_NB Tx buffer.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig14_buffers [--secs 0.3]`

use lg_bench::{banner, secs_arg};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{stress_test, Protection};

fn main() {
    let _obs = lg_bench::obs::session("fig14_buffers");
    banner(
        "Figure 14",
        "LinkGuardian packet buffer usage (line-rate stress)",
    );
    let duration = secs_arg(0.3);
    println!(
        "{:<6} {:<8} {:>14} {:>14} {:>16}",
        "speed", "loss", "TX peak (KB)", "RX peak (KB)", "TX peak NB (KB)"
    );
    for speed in [LinkSpeed::G25, LinkSpeed::G100] {
        for rate in [1e-5, 1e-4, 1e-3] {
            let lg = stress_test(speed, LossModel::Iid { rate }, Protection::Lg, duration, 14);
            let nb = stress_test(
                speed,
                LossModel::Iid { rate },
                Protection::LgNb,
                duration,
                14,
            );
            println!(
                "{:<6} {:<8.0e} {:>14.1} {:>14.1} {:>16.1}",
                speed.name(),
                rate,
                lg.tx_buffer_peak as f64 / 1024.0,
                lg.rx_buffer_peak as f64 / 1024.0,
                nb.tx_buffer_peak as f64 / 1024.0,
            );
        }
    }
    println!();
    println!("paper: at 25G TX <=3.6KB and RX <=60KB; at 100G both <=90KB; NB needs no");
    println!("  RX buffer and ~3x less TX at 100G. (Our TX is smaller: the simulated ACK");
    println!("  loop frees buffers faster than Tofino's recirculated ring — see EXPERIMENTS.md.)");
}
