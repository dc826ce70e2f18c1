//! Figure 1: packet loss rate vs optical attenuation for 10GBASE-SR,
//! 25GBASE-SR (with/without FEC) and 50GBASE-SR, 1518 B frames.
//!
//! Usage: `cargo run --release -p lg-bench --bin fig01_phy`

use lg_bench::banner;
use lg_link::Transceiver;

fn main() {
    let _obs = lg_bench::obs::session("fig01_phy", &[]);
    banner(
        "Figure 1",
        "effect of optical attenuation on various Ethernet link speeds (1518B frames)",
    );
    let transceivers = [
        Transceiver::base50g_sr_fec(),
        Transceiver::base25g_sr(),
        Transceiver::base25g_sr_fec(),
        Transceiver::base10g_sr(),
    ];
    print!("{:<8}", "dB");
    for t in &transceivers {
        print!("{:>20}", t.name);
    }
    println!();
    let mut atten = 9.0;
    while atten <= 18.0 + 1e-9 {
        print!("{atten:<8.1}");
        for t in &transceivers {
            let plr = t.packet_loss_rate(atten, 1518);
            if plr < 1e-12 {
                print!("{:>20}", "<1e-12");
            } else {
                print!("{plr:>20.3e}");
            }
        }
        println!();
        atten += 0.5;
    }
    println!();
    println!("paper: loss cliffs ordered 50G(FEC) < 25G < 25G(FEC) < 10G in dB;");
    println!("       higher baudrate and denser modulation fail at lower attenuation.");
}
