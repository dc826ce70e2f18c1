//! The Figure 9 story: a DCTCP flow crosses a link that starts corrupting
//! packets mid-run; LinkGuardian is activated later and throughput
//! returns to the effective link speed.
//!
//! Run: `cargo run --release --example corrupting_link_tcp`

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{time_series, TimeSeriesScenario};
use lg_transport::CcVariant;

fn main() {
    let scenario = TimeSeriesScenario {
        speed: LinkSpeed::G25,
        variant: CcVariant::Dctcp,
        loss: LossModel::Iid { rate: 1e-3 },
        corruption_at: Time::from_ms(10),
        lg_at: Time::from_ms(30),
        end: Time::from_ms(50),
        disable_backpressure: false,
        nb_mode: false,
        sample_interval: Duration::from_ms(1),
        seed: 1,
    };
    println!("single DCTCP flow on a 25G link");
    println!("t=10ms: the link starts corrupting (1e-3)   t=30ms: LinkGuardian activates\n");
    let r = time_series(&scenario);
    println!(
        "{:>7} {:>12} {:>12} {:>10}",
        "t(ms)", "rate(Gbps)", "qdepth(KB)", "e2e retx"
    );
    for row in &r.rows {
        let ms = row.t.as_secs_f64() * 1e3;
        let phase = match ms {
            x if x <= 10.0 => "healthy",
            x if x <= 30.0 => "corrupting",
            _ => "LinkGuardian",
        };
        println!(
            "{ms:>7.0} {:>12.2} {:>12.1} {:>10}   {phase}",
            row.goodput,
            row.qdepth as f64 / 1024.0,
            row.e2e_retx
        );
    }
    println!("\nonce LinkGuardian runs, end-to-end retransmissions stop and the");
    println!("throughput returns to the (slightly reduced) effective link speed,");
    println!("with the switch queue settling at the DCTCP ECN marking knee.");
}
