//! The testbed `World` profiles itself inside its one run loop whenever
//! the observability sink is on, and that profile is purely
//! observational: the same config run with the sink off and on
//! simulates the same thing, event for event. With the sink on, the
//! `profile` rows account for every `PROFILE_STRIDE`-th handled event;
//! a world built with the sink off publishes none.
//!
//! Its own file: the sink is process-global, so these tests must not
//! share a process with tests that turn it on or off.

use std::sync::Mutex;

use lg_link::{LinkSpeed, LossModel};
use lg_obs::sink::{self, PROFILE_STRIDE};
use lg_sim::{Duration, Time};
use lg_testbed::world::PORT_LINK;
use lg_testbed::{App, World, WorldConfig};
use lg_transport::CcVariant;

/// Serializes the tests of this file around the process-global sink.
static SINK: Mutex<()> = Mutex::new(());

/// Everything the run simulated that the figures read.
fn outcome(w: &World) -> String {
    format!(
        "now {:?} stress {} -> {} e2e {} fct {:?} tx {:?} rx {:?} txbuf {:?} rxbuf {:?} ports {:?} {:?}",
        w.q.now(),
        w.out.stress_tx_frames,
        w.stress_delivered(),
        w.out.e2e_retx_total,
        w.out
            .fct
            .samples_us()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        w.lg_tx.stats(),
        w.lg_rx.stats(),
        w.lg_tx.tx_buffer_stats(),
        w.lg_rx.rx_buffer_stats(),
        w.sw_tx.counters(PORT_LINK),
        w.sw_rx.counters(PORT_LINK),
    )
}

/// The `count` of every `profile` row in the drained sink, each checked
/// to be filed under the world's label.
fn profile_counts(lines: &[String]) -> Vec<u64> {
    lines
        .iter()
        .filter(|l| l.contains("\"type\":\"profile\""))
        .map(|l| {
            let v = lg_obs::json::parse(l).unwrap();
            assert_eq!(v.get("section").and_then(|s| s.as_str()), Some("run"));
            v.get("count").and_then(|c| c.as_num()).unwrap() as u64
        })
        .collect()
}

/// What one run of `cfg` simulated, how many events it handled, and
/// the profile rows its world published. The sink is on during the run
/// when `sink_on`, and on at publish either way, so a world built with
/// it off shows what it would have published.
fn run(cfg: &WorldConfig, drive: fn(&mut World) -> u64, sink_on: bool) -> (String, u64, Vec<u64>) {
    sink::disable_and_clear();
    if sink_on {
        sink::enable_metrics();
    }
    let mut w = World::new(cfg.clone());
    let events = drive(&mut w);
    sink::enable_metrics();
    w.publish_obs("run");
    let rows = profile_counts(&sink::drain_sorted());
    sink::disable_and_clear();
    (outcome(&w), events, rows)
}

fn check(cfg: &WorldConfig, drive: fn(&mut World) -> u64) {
    let _sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let (out_off, ev_off, rows_off) = run(cfg, drive, false);
    let (out_on, ev_on, rows_on) = run(cfg, drive, true);
    assert_eq!(out_off, out_on, "profiling changed the simulation");
    assert_eq!(ev_off, ev_on, "profiling changed the event count");
    assert!(ev_on > 10 * PROFILE_STRIDE, "run long enough to sample");
    assert!(rows_off.is_empty(), "sink off at construction: no profile");
    assert!(!rows_on.is_empty(), "sink on: the run loop profiles");
    let sampled: u64 = rows_on.iter().sum();
    assert_eq!(
        sampled,
        ev_on / PROFILE_STRIDE,
        "one event in PROFILE_STRIDE"
    );
}

#[test]
fn stress_profile_is_observational() {
    let cfg = WorldConfig::new(LinkSpeed::G100, LossModel::Iid { rate: 1e-3 });
    check(&cfg, |w| {
        w.enable_stress(1518);
        let events = w.run_until(Time::from_ms(1));
        w.disable_stress();
        events + w.run_until(Time::from_ms(1) + Duration::from_us(100))
    });
}

#[test]
fn tcp_trials_profile_is_observational() {
    let mut cfg = WorldConfig::new(LinkSpeed::G100, LossModel::Iid { rate: 1e-3 });
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 24_387,
        trials: 200,
        gap: Duration::from_us(10),
    };
    check(&cfg, |w| w.run_until(Time::MAX));
}
