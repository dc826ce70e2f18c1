//! Figure 20 (Appendix B.2): distribution of the number of consecutive
//! packets lost at unreasonably high loss rates (1% and 5%).
//!
//! The paper measured this on real attenuated links and found that 5
//! consecutive losses cover 99.9999% of loss events even at 5%; this is
//! what sizes the 5 one-bit reTxReqs registers (§3.5). We reproduce the
//! run-length distribution under both i.i.d. and bursty (Gilbert–Elliott)
//! loss.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig20_consecutive
//! [--frames 5000000]`

use lg_bench::{arg, banner};
use lg_link::loss::LossProcess;
use lg_link::{LossModel, RunLengthStats};
use lg_sim::Rng;
use std::num::NonZeroU64;

fn run(model: LossModel, frames: u64, seed: u64) -> Vec<u64> {
    let mut p = LossProcess::new(model, Rng::new(seed));
    let mut rl = RunLengthStats::new();
    for _ in 0..frames {
        rl.record(p.should_drop());
    }
    rl.finish()
}

fn main() {
    let _obs = lg_bench::obs::session("fig20_consecutive");
    banner(
        "Figure 20",
        "distribution of consecutive packets lost (1518B)",
    );
    let frames = arg("--frames", const { NonZeroU64::new(5_000_000).unwrap() }).get();
    println!("{:<28} {:>12} CDF by run length 1..7", "model", "bursts");
    for (name, model) in [
        ("iid 1%", LossModel::Iid { rate: 0.01 }),
        ("iid 5%", LossModel::Iid { rate: 0.05 }),
        ("bursty 1% (mean burst 1.5)", LossModel::bursty(0.01, 1.5)),
        ("bursty 5% (mean burst 1.5)", LossModel::bursty(0.05, 1.5)),
    ] {
        let counts = run(model, frames, 11);
        let cdf = RunLengthStats::cdf(&counts);
        let total: u64 = counts.iter().sum();
        print!("{name:<28} {total:>12} ");
        for k in 0..7 {
            let v = cdf.get(k).copied().unwrap_or(1.0);
            print!(" {v:>9.6}");
        }
        println!();
    }
    println!();
    println!("paper: >=99.9999% of loss events involve <=5 consecutive packets at 5% loss,");
    println!("       justifying the 5 one-bit reTxReqs registers.");
}
