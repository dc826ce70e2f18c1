//! Extension study (paper §5 "Higher Link Speeds"): does LinkGuardian
//! still work at 400G? The paper predicts LG_NB scales naturally while
//! ordered LG pays a growing effective-speed cost as pipeline latency
//! dominates serialization.
//!
//! Usage: `cargo run --release -p lg-bench --bin ext_400g [--secs 0.1]`

use lg_bench::{banner, secs_arg};
use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{stress_test, Protection};

fn main() {
    let _obs = lg_bench::obs::session("ext_400g", &["--secs"]);
    banner(
        "Extension: higher link speeds",
        "LinkGuardian at 10G → 400G, 1e-3 corruption, line-rate stress",
    );
    let duration = secs_arg(0.1);
    println!(
        "{:<6} {:<6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "speed", "mode", "losses", "unrecovered", "eff.speed", "rx peak(KB)", "timeouts"
    );
    for speed in [
        LinkSpeed::G10,
        LinkSpeed::G25,
        LinkSpeed::G100,
        LinkSpeed::G400,
    ] {
        for (label, prot) in [("LG", Protection::Lg), ("LG_NB", Protection::LgNb)] {
            let r = stress_test(speed, LossModel::Iid { rate: 1e-3 }, prot, duration, 400);
            println!(
                "{:<6} {:<6} {:>10} {:>12} {:>11.2}% {:>12.1} {:>10}",
                speed.name(),
                label,
                r.wire_losses,
                r.unrecovered,
                r.effective_speed * 100.0,
                r.rx_buffer_peak as f64 / 1024.0,
                r.timeouts
            );
        }
    }
    println!();
    println!("prediction (§5): LG_NB holds its effective speed at 400G; ordered LG's");
    println!("reordering buffer grows with speed x recovery-delay, costing more speed.");
}
