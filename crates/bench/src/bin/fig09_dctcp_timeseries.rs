//! Figure 9: a single DCTCP flow on a 25 G link. Corruption (1e-3) starts
//! partway in; LinkGuardian is enabled later. (a) with backpressure,
//! (b) with backpressure disabled — showing Rx-buffer overflow and
//! end-to-end retransmissions.
//!
//! The paper's timeline spans 14 s; we default to a compressed 60 ms
//! timeline (corruption at 10 ms, LG at 30 ms) which shows the same three
//! regimes. `--paper-scale` stretches to seconds.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig09_dctcp_timeseries
//! [--ms 60] [--no-bp] [--bursty]`
//!
//! `--bursty` switches the corruption to a Gilbert–Elliott process (mean
//! burst 3) — the paper observed that its 25G/1e-3 losses were *not*
//! i.i.d. (§4.1); under bursty loss the `--no-bp` run shows the Fig 9b
//! catastrophe (reordering-buffer overflow, mass end-to-end
//! retransmissions) clearly.

use lg_bench::{arg, banner, flag, sweep};
use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{time_series, TimeSeriesScenario};
use lg_transport::CcVariant;
use std::num::NonZeroU64;

fn main() {
    let _obs = lg_bench::obs::session(
        "fig09_dctcp_timeseries",
        &["--ms", "--no-bp", "--bursty", "--seed"],
    );
    banner(
        "Figure 9",
        "DCTCP on a 25G link: corruption starts, then LinkGuardian starts",
    );
    let total_ms = arg("--ms", const { NonZeroU64::new(60).unwrap() }).get();
    let disable_backpressure = flag("--no-bp");
    let loss = if flag("--bursty") {
        LossModel::bursty(1e-3, 3.0)
    } else {
        LossModel::Iid { rate: 1e-3 }
    };
    let s = TimeSeriesScenario {
        speed: LinkSpeed::G25,
        variant: CcVariant::Dctcp,
        loss,
        corruption_at: Time::from_ms(total_ms / 6),
        lg_at: Time::from_ms(total_ms / 2),
        end: Time::from_ms(total_ms),
        disable_backpressure,
        nb_mode: false,
        sample_interval: Duration::from_ms((total_ms / 60).max(1)),
        seed: arg("--seed", 9),
    };
    println!(
        "timeline: corruption(1e-3) at {} ms, LinkGuardian at {} ms, end {} ms; backpressure {}",
        total_ms / 6,
        total_ms / 2,
        total_ms,
        if disable_backpressure {
            "DISABLED (Fig 9b)"
        } else {
            "enabled (Fig 9a)"
        }
    );
    // A single scenario, but routed through the sweep driver so every
    // figure binary shares one execution path (and honors --threads).
    let r = sweep::run(std::slice::from_ref(&s), time_series)
        .pop()
        .expect("one result for one scenario");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "t(ms)", "rate(Gbps)", "qdepth(KB)", "rxbuf(KB)", "e2e_retx"
    );
    for row in &r.rows {
        println!(
            "{:>8.1} {:>12.2} {:>12.1} {:>12.1} {:>10}",
            row.t.as_secs_f64() * 1e3,
            row.goodput,
            row.qdepth as f64 / 1024.0,
            row.rx_buffer as f64 / 1024.0,
            row.e2e_retx
        );
    }
    println!("rx-buffer overflow drops: {}", r.rx_overflow_drops);
    println!();
    println!("paper (9a): throughput collapses under corruption, recovers to the");
    println!("  effective link speed once LG starts; qdepth builds to the ECN knee.");
    println!("paper (9b, --no-bp): Rx buffer overflows; many e2e retransmissions.");
}
