//! Table 4: recirculation overhead as a percentage of a switch pipe's
//! packet-processing capacity, during the line-rate stress test.
//!
//! Usage: `cargo run --release -p lg-bench --bin table4_recirc [--secs 0.3]`

use lg_bench::{banner, secs_arg};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{stress_test, Protection};

fn main() {
    let _obs = lg_bench::obs::session("table4_recirc");
    banner(
        "Table 4",
        "recirculation overhead (% of pipe forwarding capacity)",
    );
    let duration = secs_arg(0.3);
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "port", "1e-5", "1e-4", "1e-3"
    );
    for speed in [LinkSpeed::G25, LinkSpeed::G100] {
        let mut tx_row = Vec::new();
        let mut rx_row = Vec::new();
        for rate in [1e-5, 1e-4, 1e-3] {
            let r = stress_test(speed, LossModel::Iid { rate }, Protection::Lg, duration, 4);
            tx_row.push(r.tx_recirc_overhead * 100.0);
            rx_row.push(r.rx_recirc_overhead * 100.0);
        }
        println!(
            "{:<10} {:>9.3}% {:>9.3}% {:>9.3}%",
            format!("{} TX", speed.name()),
            tx_row[0],
            tx_row[1],
            tx_row[2]
        );
        println!(
            "{:<10} {:>9.3}% {:>9.3}% {:>9.3}%",
            format!("{} RX", speed.name()),
            rx_row[0],
            rx_row[1],
            rx_row[2]
        );
    }
    println!();
    println!("paper: 0.44–0.66% across ports/speeds/rates — under 1% of pipe capacity.");
}
