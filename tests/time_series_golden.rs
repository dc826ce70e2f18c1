//! Golden digests of the Fig 9 / Fig 21 probe timelines
//! (`lg_testbed::time_series`).
//!
//! Each scenario folds every probe row — sample instant, goodput,
//! protected-queue depth, Rx-buffer occupancy and end-to-end
//! retransmissions, as raw `f64` bits — plus the Rx-buffer overflow
//! count into one FNV-1a hash. The scenarios are the ones the figure
//! binaries run at their default arguments: `fig09_dctcp_timeseries`
//! (default and `--bursty --no-bp`) and both rows of `fig21_cubic_bbr`.
//! A refactor of the probe plane must leave every digest as it is; a
//! deliberate model change records new ones (the failure message prints
//! the value).

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{time_series, TimeSeriesResult, TimeSeriesScenario};
use lg_transport::CcVariant;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(t_ps, goodput, qdepth, rx_buffer, e2e_retx)` per probe sample.
fn rows(r: &TimeSeriesResult) -> Vec<(u64, f64, f64, f64, f64)> {
    r.rows
        .iter()
        .map(|row| {
            (
                row.t.as_ps(),
                row.goodput,
                row.qdepth as f64,
                row.rx_buffer as f64,
                row.e2e_retx as f64,
            )
        })
        .collect()
}

fn digest(r: &TimeSeriesResult) -> (usize, u64) {
    let rows = rows(r);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(rows.len() as u64);
    for (t, goodput, qdepth, rx_buffer, e2e_retx) in &rows {
        h.u64(*t);
        for v in [goodput, qdepth, rx_buffer, e2e_retx] {
            h.u64(v.to_bits());
        }
    }
    h.u64(r.rx_overflow_drops);
    (rows.len(), h.0)
}

/// The Fig 9/21 timeline at the binaries' default 60 ms: corruption at
/// 10 ms, LinkGuardian at 30 ms.
fn scenario(
    speed: LinkSpeed,
    variant: CcVariant,
    loss: LossModel,
    no_bp: bool,
    sample: Duration,
    seed: u64,
) -> TimeSeriesScenario {
    TimeSeriesScenario {
        speed,
        variant,
        loss,
        corruption_at: Time::from_ms(10),
        lg_at: Time::from_ms(30),
        end: Time::from_ms(60),
        disable_backpressure: no_bp,
        nb_mode: false,
        sample_interval: sample,
        seed,
    }
}

/// End-to-end retransmissions of each row after LinkGuardian starts.
fn after_lg(r: &TimeSeriesResult) -> impl Iterator<Item = f64> {
    let lg_at = Time::from_ms(30).as_ps();
    rows(r)
        .into_iter()
        .filter(move |row| row.0 > lg_at)
        .map(|row| row.4)
}

fn check(name: &str, s: &TimeSeriesScenario, want: (usize, u64)) -> TimeSeriesResult {
    let r = time_series(s);
    let got = digest(&r);
    assert_eq!(
        got, want,
        "{name}: probe rows moved; got ({}, {:#018x})",
        got.0, got.1
    );
    r
}

#[test]
fn fig09_default_matches_golden() {
    let s = scenario(
        LinkSpeed::G25,
        CcVariant::Dctcp,
        LossModel::Iid { rate: 1e-3 },
        false,
        Duration::from_ms(1),
        9,
    );
    let r = check("fig09", &s, (60, 0x2f9c_7f02_d38e_2f6a));
    assert!(
        after_lg(&r).all(|e2e_retx| e2e_retx == 0.0),
        "LinkGuardian hides every i.i.d. loss from DCTCP"
    );
}

#[test]
fn fig09_bursty_no_backpressure_matches_golden() {
    let s = scenario(
        LinkSpeed::G25,
        CcVariant::Dctcp,
        LossModel::bursty(1e-3, 3.0),
        true,
        Duration::from_ms(1),
        9,
    );
    let r = check("fig09 --bursty --no-bp", &s, (60, 0x657c_4b58_a984_5b94));
    assert!(
        after_lg(&r).any(|e2e_retx| e2e_retx > 0.0),
        "the bursty run keeps retransmitting end to end after LinkGuardian starts"
    );
}

#[test]
fn fig21_cubic_matches_golden() {
    let s = scenario(
        LinkSpeed::G25,
        CcVariant::Cubic,
        LossModel::Iid { rate: 1e-3 },
        false,
        Duration::from_ms(2),
        21,
    );
    check("fig21 CUBIC", &s, (30, 0x1cef_e7bc_b91f_2aaf));
}

#[test]
fn fig21_bbr_matches_golden() {
    let s = scenario(
        LinkSpeed::G10,
        CcVariant::Bbr,
        LossModel::Iid { rate: 1e-3 },
        false,
        Duration::from_ms(2),
        22,
    );
    check("fig21 BBR", &s, (30, 0x1077_3aa8_fd64_3149));
}
