//! The control-plane loop of Appendix C (`corruptd`): the Rx switch's
//! port counters are polled at every `Ev::Sample`, the windowed health
//! estimator detects corruption, and the guardian manager under
//! `GuardConfig::oracle()` (budget ∞, hold-down 0, one-shot latch)
//! activates LinkGuardian from the rate it measured.
//!
//! `core::corruptd` used to be a second implementation of this loop;
//! the constants below were recorded with both planes driving the same
//! world and agreeing to the bit, and outlive the daemon as the proof.

use lg_guardd::{GuardAction, GuardConfig};
use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::world::{World, WorldConfig};

/// 25 G, 1518 B stress, LinkGuardian configured but dormant, the
/// oracle guardian polling every 5 ms, seed 1.
fn dormant_world(loss: LossModel) -> World {
    let mut cfg = WorldConfig::new(LinkSpeed::G25, loss);
    cfg.lg_active_from_start = false;
    cfg.sample_interval = Some(Duration::from_ms(5));
    cfg.guardd = Some(GuardConfig::oracle());
    let mut w = World::new(cfg);
    w.enable_stress(1518);
    w
}

#[test]
fn corruptd_detects_and_activates_linkguardian() {
    // Corruption present from t = 0; detection within the first polls.
    let mut w = dormant_world(LossModel::Iid { rate: 1e-3 });
    let t_active = Time::ZERO + Duration::from_ms(10);
    w.run_until(t_active);
    assert!(w.lg_tx.is_active(), "detection within the first two polls");
    assert_eq!(w.lg_tx.n_copies(), 2, "Eq. 2 at ~1e-3 toward 1e-8");

    // before activation: losses leaked end-to-end
    let leaked_before = w.out.stress_tx_frames - w.stress_delivered();
    assert!(leaked_before > 0, "losses leaked while dormant");

    // after activation settles: zero further end-to-end loss
    w.run_until(t_active + Duration::from_ms(1));
    let sent0 = w.out.stress_tx_frames;
    let delivered0 = w.stress_delivered();
    w.run_until(t_active + Duration::from_ms(21));
    w.disable_stress();
    w.run_until(t_active + Duration::from_ms(23));
    let sent_delta = w.out.stress_tx_frames - sent0;
    let delivered_delta = w.stress_delivered() - delivered0;
    assert!(sent_delta > 10_000, "meaningful traffic after activation");
    // in-flight packets straddle the snapshot boundary; what matters is
    // that nothing is lost anymore
    assert_eq!(
        sent_delta.saturating_sub(delivered_delta),
        0,
        "protection must stop the bleeding ({sent_delta} sent, {delivered_delta} delivered)"
    );
    assert!(w.lg_rx.stats().recovered > 0, "recoveries happened");
}

#[test]
fn guardd_oracle_closes_the_loop_from_observed_counters() {
    // No manual polling here: the world's own health estimator reads the
    // Rx port counters on every Ev::Sample tick and the guardian
    // activates LinkGuardian from the windowed rate it measured.
    let mut w = dormant_world(LossModel::Iid { rate: 1e-3 });
    w.run_until(Time::ZERO + Duration::from_ms(30));
    assert!(
        w.lg_tx.is_active(),
        "sampled counters must have driven activation"
    );
    let mgr = w.guardd.as_ref().expect("manager attached");
    assert_eq!(mgr.protected_links(), vec![0]);
    let observed = w.obs.link_health.rate();
    assert!(
        observed > 1e-4,
        "activation used the observed rate, got {observed:e}"
    );
    // The health plane saw the same thing: the link left Healthy.
    assert!(
        !w.obs.health_events.is_empty(),
        "health transition recorded"
    );
    assert!(w.obs.health_events[0].to >= lg_obs::LinkHealth::Degraded);

    // And the protection actually works: recoveries happen downstream.
    w.run_until(Time::ZERO + Duration::from_ms(50));
    w.disable_stress();
    w.run_until(Time::ZERO + Duration::from_ms(55));
    assert!(w.lg_rx.stats().recovered > 0, "recoveries happened");
}

/// iid 1e-3 on [`dormant_world`]: the windowed rate latched at the first
/// sample and the counters at 50 ms, recorded on the tree where a world
/// driven by the `corruptd` daemon and one driven by
/// `guardd = Some(GuardConfig::oracle())` both reproduced them.
const PINNED_RATE_BITS: u64 = 0x3f46941f2578adfa; // 6.890441972635102e-4
const PINNED_SENT: u64 = 101_252;
const PINNED_DELIVERED: u64 = 101_220;
const PINNED_RECOVERED: u64 = 83;
const PINNED_LOST_REPORTED: u64 = 83;
const PINNED_PROTECTED_SENT: u64 = 91_089;

#[test]
fn guardd_oracle_reproduces_the_recorded_corruptd_trajectory() {
    // The guardian plane is purely observational-plus-actuation: with
    // budget ∞ and hold-down 0 (the `corruptd` latch) it activates
    // LinkGuardian at the sample tick `corruptd` did, from the rate
    // `corruptd` latched, and the trajectory after is the recorded one.
    let mut w = dormant_world(LossModel::Iid { rate: 1e-3 });
    let first_sample = Time::ZERO + Duration::from_ms(5);
    w.run_until(Time(first_sample.as_ps() - 1));
    assert!(!w.lg_tx.is_active(), "dormant before the first sample");
    w.run_until(first_sample);
    assert!(w.lg_tx.is_active(), "activated at the first sample");
    w.run_until(Time::ZERO + Duration::from_ms(50));
    assert_eq!(w.out.stress_tx_frames, PINNED_SENT);
    assert_eq!(w.stress_delivered(), PINNED_DELIVERED);
    assert_eq!(w.lg_rx.stats().recovered, PINNED_RECOVERED);
    assert_eq!(w.lg_rx.stats().lost_reported, PINNED_LOST_REPORTED);
    assert_eq!(w.lg_tx.stats().protected_sent, PINNED_PROTECTED_SENT);

    // The guardian journaled exactly one enable, with its cause chain.
    let mgr = w.guardd.as_mut().expect("manager attached");
    assert_eq!(mgr.protected_links(), vec![0]);
    let journal = mgr.take_journal().join("\n");
    let j = lg_guardd::query::parse_journal(&journal).expect("valid journal");
    let enables: Vec<_> = j
        .events
        .iter()
        .filter(|e| e.action == GuardAction::Enable)
        .collect();
    assert_eq!(enables.len(), 1, "oracle config latches exactly once");
    assert!(!enables[0].cause.is_empty(), "cause chain recorded");
    assert_eq!(enables[0].rate.to_bits(), PINNED_RATE_BITS);
}

#[test]
fn corruptd_stays_quiet_on_healthy_link() {
    let mut w = dormant_world(LossModel::None);
    w.run_until(Time::ZERO + Duration::from_ms(25));
    assert!(!w.lg_tx.is_active(), "no false activation");
    assert!(
        w.obs.health_events.is_empty(),
        "the link never left Healthy"
    );
    let mgr = w.guardd.as_ref().expect("manager attached");
    assert!(mgr.protected_links().is_empty());
}
