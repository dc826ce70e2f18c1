//! Figure 2: flow-size CDFs of six datacenter workloads (2008–2019),
//! with the 1024 B / 1500 B single-packet markers.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig02_workloads`

use lg_bench::banner;
use lg_workload::FlowSizeDist;

fn main() {
    let _obs = lg_bench::obs::session("fig02_workloads", &[]);
    banner(
        "Figure 2",
        "flow size distributions of datacenter workloads",
    );
    let dists = FlowSizeDist::figure2();
    let sizes: Vec<u32> = (0..=23).map(|e| 1u32 << e).collect();
    print!("{:<10}", "bytes");
    for d in &dists {
        print!("{:>20}", d.name());
    }
    println!();
    for &s in &sizes {
        print!("{s:<10}");
        for d in &dists {
            print!("{:>20.3}", d.cdf(s));
        }
        println!();
    }
    println!();
    println!("single-packet (<=1500B) fraction per workload:");
    for d in &dists {
        println!(
            "  {:<22} {:>6.1}%",
            d.name(),
            d.single_packet_fraction() * 100.0
        );
    }
    println!();
    println!("paper: most RPC/key-value flows fit in a single packet;");
    println!("       143B is the Google all-RPC mode, 24,387B the web-search mode.");
}
