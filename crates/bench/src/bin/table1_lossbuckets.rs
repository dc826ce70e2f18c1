//! Table 1: corruption loss-rate buckets observed in Microsoft
//! datacenters — reproduced by sampling the trace generator.
//!
//! Usage: `cargo run --release -p lg-bench --bin table1_lossbuckets
//! [--samples 1000000]`

use lg_bench::{arg, banner};
use lg_fabric::tracegen::{bucket_of, sample_loss_rate, LOSS_BUCKETS};
use lg_sim::Rng;
use std::num::NonZeroU64;

fn main() {
    let _obs = lg_bench::obs::session("table1_lossbuckets", &["--samples", "--seed"]);
    banner(
        "Table 1",
        "corruption loss rates drawn by the trace generator",
    );
    let samples = arg("--samples", const { NonZeroU64::new(1_000_000).unwrap() }).get();
    let mut rng = Rng::new(arg("--seed", 42u64));
    let mut counts = [0u64; 4];
    for _ in 0..samples {
        counts[bucket_of(sample_loss_rate(&mut rng))] += 1;
    }
    println!("{:<18} {:>10} {:>10}", "loss bucket", "sampled", "paper");
    let labels = ["[1e-8, 1e-5)", "[1e-5, 1e-4)", "[1e-4, 1e-3)", "[1e-3+)"];
    for i in 0..4 {
        println!(
            "{:<18} {:>9.2}% {:>9.2}%",
            labels[i],
            counts[i] as f64 / samples as f64 * 100.0,
            LOSS_BUCKETS[i].2 * 100.0
        );
    }
    println!("{:<18} {:>9.2}% {:>9.2}%", "Total", 100.0, 100.0);
}
