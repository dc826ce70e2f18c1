//! Operating a datacenter with corrupting links (§3.6, §4.8): CorrOpt
//! schedules repairs within the capacity constraint; LinkGuardian masks
//! the links that cannot be disabled.
//!
//! Run: `cargo run --release --example fabric_maintenance`

use lg_fabric::{run, FabricSimConfig, Policy};

fn main() {
    let constraint = 0.75;
    println!("Facebook-fabric pod network, 30 pods (11,520 optical links), 90 days,");
    println!(
        "capacity constraint {:.0}% — CorrOpt alone vs LinkGuardian + CorrOpt\n",
        constraint * 100.0
    );

    let mk = |policy| FabricSimConfig {
        pods: 30,
        horizon_hours: 24.0 * 90.0,
        constraint,
        policy,
        sample_interval_hours: 6.0,
        target_loss_rate: 1e-8,
        seed: 2024,
    };
    if let Err(msg) = mk(Policy::CorrOptOnly).validate() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let co = run(&mk(Policy::CorrOptOnly));
    let lg = run(&mk(Policy::LgPlusCorrOpt));

    let mean = |r: &lg_fabric::FabricSimResult, f: fn(&lg_fabric::SamplePoint) -> f64| {
        r.samples.iter().map(f).sum::<f64>() / r.samples.len() as f64
    };
    println!("                         CorrOpt        LinkGuardian+CorrOpt");
    println!(
        "corruption events   {:>12} {:>22}",
        co.counts.corruption_events, lg.counts.corruption_events
    );
    println!(
        "deferred (can't     {:>12} {:>22}",
        co.counts.deferred, lg.counts.deferred
    );
    println!("  disable safely)");
    println!(
        "mean total penalty  {:>12.3e} {:>22.3e}",
        mean(&co, |s| s.total_penalty),
        mean(&lg, |s| s.total_penalty)
    );
    println!(
        "mean least capacity {:>11.3}% {:>21.3}%",
        mean(&co, |s| s.least_capacity) * 100.0,
        mean(&lg, |s| s.least_capacity) * 100.0
    );
    let gain = mean(&co, |s| s.total_penalty) / mean(&lg, |s| s.total_penalty).max(1e-300);
    println!("\npenalty reduction from adding LinkGuardian: {gain:.2e}x");
    println!(
        "peak concurrently-protected links per fabric switch: {}",
        lg.counts.peak_lg_per_fabric_switch
    );
    println!("\nthe joint strategy masks the deferred links' corruption (orders of");
    println!("magnitude lower penalty) at a fraction-of-a-percent capacity cost.");
}
