//! Table 3: TCP CUBIC goodput on a 10 G link — no protection vs Wharf
//! (numerical, as in the paper) vs LinkGuardian vs LinkGuardianNB
//! (simulated).
//!
//! Usage: `cargo run --release -p lg-bench --bin table3_wharf [--ms 80]`

use lg_bench::{arg, banner};
use lg_fec::WharfModel;
use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{time_series, TimeSeriesScenario};
use lg_transport::CcVariant;
use std::num::NonZeroU64;

/// Steady-state CUBIC goodput measured over the tail of a stream.
fn cubic_goodput(loss: LossModel, protection_lg: Option<bool>, ms: u64, seed: u64) -> f64 {
    // protection_lg: None = off; Some(false) = LG_NB; Some(true) = LG
    let s = TimeSeriesScenario {
        speed: LinkSpeed::G10,
        variant: CcVariant::Cubic,
        loss,
        corruption_at: Time::ZERO,
        lg_at: if protection_lg.is_some() {
            Time::ZERO
        } else {
            Time::from_secs(1_000_000) // never
        },
        end: Time::from_ms(ms),
        disable_backpressure: false,
        nb_mode: matches!(protection_lg, Some(false)),
        sample_interval: Duration::from_ms(2),
        seed,
    };
    let mut scen = s;
    if let Some(ordered) = protection_lg {
        scen.disable_backpressure = false;
        scen.nb_mode = !ordered;
    }
    let r = time_series(&scen);
    // average the second half of the run (steady state)
    let rows = &r.rows;
    let half = rows.len() / 2;
    if rows.len() <= half {
        return 0.0;
    }
    rows[half..].iter().map(|row| row.goodput).sum::<f64>() / (rows.len() - half) as f64
}

fn main() {
    let _obs = lg_bench::obs::session("table3_wharf");
    banner("Table 3", "TCP CUBIC goodput (Gb/s) on a 10G link");
    let ms = arg("--ms", const { NonZeroU64::new(80).unwrap() }).get();
    let model = WharfModel::table3();
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "0", "1e-5", "1e-4", "1e-3", "1e-2"
    );
    // None row: simulated CUBIC under raw loss
    let rates = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];
    print!("{:<14}", "None (sim)");
    for &p in &rates {
        let lm = if p == 0.0 {
            LossModel::None
        } else {
            LossModel::Iid { rate: p }
        };
        print!(" {:>8.2}", cubic_goodput(lm, None, ms, 31));
    }
    println!();
    // None row, analytic Mathis (the paper's own sanity model)
    print!("{:<14}", "None (model)");
    for &p in &rates {
        print!(" {:>8.2}", model.tcp_goodput_gbps(p, 10.0));
    }
    println!();
    // Wharf: numerical reproduction like the paper's
    print!("{:<14}", "Wharf");
    for &p in &rates {
        if p == 0.0 {
            print!(" {:>8}", "n/a");
        } else {
            print!(" {:>8.2}", model.best_wharf(p).1);
        }
    }
    println!();
    // LinkGuardian rows: simulated
    for (label, nb) in [("LinkGuardian", false), ("LG_NB", true)] {
        print!("{label:<14}");
        for &p in &rates {
            let lm = if p == 0.0 {
                LossModel::None
            } else {
                LossModel::Iid { rate: p }
            };
            print!(" {:>8.2}", cubic_goodput(lm, Some(!nb), ms, 32));
        }
        println!();
    }
    println!();
    println!("paper Table 3: None 9.49/9.48/8.01/3.48/1.46; Wharf n/a,9.13,9.13,9.13,7.91;");
    println!("               LG and LG_NB 9.47..9.2 at every rate (compare favorably).");
}
