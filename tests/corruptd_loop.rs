//! The control-plane loop (Appendix C): `corruptd` polls port counters,
//! detects corruption, publishes on the bus, and LinkGuardian activates.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::world::{Ev, World, WorldConfig};
use linkguardian::corruptd::{Corruptd, CorruptionBus};

#[test]
fn corruptd_detects_and_activates_linkguardian() {
    // LinkGuardian configured but dormant; corruption present from t=0.
    let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::Iid { rate: 1e-3 });
    cfg.lg_active_from_start = false;
    let mut w = World::new(cfg);
    w.enable_stress(1518);

    let mut daemon = Corruptd::new(101, 1, 1e-8);
    let mut bus = CorruptionBus::new();

    // control-plane polling loop at 1-second-equivalent granularity
    // (compressed: poll every 5 ms of sim time)
    let mut polls = 0;
    let mut activated_at = None;
    for k in 1..=10u64 {
        let t = Time::ZERO + Duration::from_ms(5 * k);
        w.run_until(t);
        polls += 1;
        let counters = w.sw_rx.counters(lg_testbed::world::PORT_LINK);
        if let Some(notice) = daemon.poll(0, counters, t) {
            assert!(notice.loss_rate > 1e-4, "measured {:e}", notice.loss_rate);
            assert_eq!(notice.retx_copies, 2, "Eq. 2 at ~1e-3 toward 1e-8");
            bus.publish(notice);
        }
        // the sender switch's daemon subscribes and activates
        for notice in bus.drain(100) {
            w.q.schedule_at(w.q.now(), Ev::ActivateLg);
            activated_at = Some((w.q.now(), notice));
        }
        if activated_at.is_some() {
            break;
        }
    }
    let (t_active, _) = activated_at.expect("corruptd must trigger activation");
    assert!(polls <= 2, "detection within the first polls (got {polls})");

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
    assert!(w.lg_tx.is_active());
    assert!(w.lg_rx.stats().recovered > 0, "recoveries happened");
}

#[test]
fn corruptd_activation_mode_closes_the_loop_from_observed_counters() {
    // No manual polling here: the world's own corruptd polls the metrics
    // registry on every Ev::Sample tick and activates LinkGuardian from
    // the windowed rate it measured.
    let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::Iid { rate: 1e-3 });
    cfg.lg_active_from_start = false;
    cfg.corruptd_activation = true;
    cfg.sample_interval = Some(Duration::from_ms(5));
    let mut w = World::new(cfg);
    w.enable_stress(1518);

    w.run_until(Time::ZERO + Duration::from_ms(30));
    assert!(
        w.lg_tx.is_active(),
        "sampled counters must have driven activation"
    );
    let d = w.corruptd.as_ref().expect("daemon attached");
    assert!(d.is_active(0));
    assert!(
        d.observed_rate(0) > 1e-4,
        "activation used the observed rate, got {:e}",
        d.observed_rate(0)
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

/// 25 G, iid 1e-3, 1518 B stress, dormant start, 5 ms samples, seed 1:
/// the windowed rate latched at the first sample and the counters at
/// 50 ms.
const PINNED_RATE_BITS: u64 = 0x3f46941f2578adfa; // 6.890441972635102e-4
const PINNED_SENT: u64 = 101_252;
const PINNED_DELIVERED: u64 = 101_220;
const PINNED_RECOVERED: u64 = 83;
const PINNED_LOST_REPORTED: u64 = 83;
const PINNED_PROTECTED_SENT: u64 = 91_089;

#[test]
fn guardd_oracle_matches_corruptd_activation_tick_for_tick() {
    // The guardian plane must be purely observational-plus-actuation:
    // with budget ∞ and hold-down 0 (the `corruptd` latch), a world
    // driven by `lg-guardd` and a world driven by `corruptd` feed the
    // same estimator config the same counters at the same ticks, so
    // LinkGuardian activates at the identical sample tick and the two
    // trajectories are indistinguishable end to end.
    let base = || {
        let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::Iid { rate: 1e-3 });
        cfg.lg_active_from_start = false;
        cfg.sample_interval = Some(Duration::from_ms(5));
        cfg
    };
    let mut a_cfg = base();
    a_cfg.corruptd_activation = true;
    let mut b_cfg = base();
    b_cfg.guardd = Some(lg_guardd::GuardConfig::oracle());
    let mut a = World::new(a_cfg);
    a.enable_stress(1518);
    let mut b = World::new(b_cfg);
    b.enable_stress(1518);
    // Activation is observed at the first `Ev::Sample` (5 ms), not
    // before, and the trajectory to 50 ms is pinned to the values
    // recorded on the tree that still had both planes.
    let first_sample = Time::ZERO + Duration::from_ms(5);
    let end = Time::ZERO + Duration::from_ms(50);
    for (w, plane) in [(&mut a, "corruptd"), (&mut b, "guardd")] {
        w.run_until(Time(first_sample.as_ps() - 1));
        assert!(
            !w.lg_tx.is_active(),
            "{plane}: dormant before the first sample"
        );
        w.run_until(first_sample);
        assert!(
            w.lg_tx.is_active(),
            "{plane}: activated at the first sample"
        );
        w.run_until(end);
        assert_eq!(w.out.stress_tx_frames, PINNED_SENT, "{plane}");
        assert_eq!(w.stress_delivered(), PINNED_DELIVERED, "{plane}");
        assert_eq!(w.lg_rx.stats().recovered, PINNED_RECOVERED, "{plane}");
        assert_eq!(
            w.lg_rx.stats().lost_reported,
            PINNED_LOST_REPORTED,
            "{plane}"
        );
        assert_eq!(
            w.lg_tx.stats().protected_sent,
            PINNED_PROTECTED_SENT,
            "{plane}"
        );
    }

    // The guardian journaled exactly one enable, with its cause chain.
    let mgr = b.guardd.as_mut().expect("manager attached");
    assert_eq!(mgr.protected_links(), vec![0]);
    let journal = mgr.take_journal().join("\n");
    let j = lg_guardd::query::parse_journal(&journal).expect("valid journal");
    let enables: Vec<_> = j
        .events
        .iter()
        .filter(|e| e.action == lg_guardd::GuardAction::Enable)
        .collect();
    assert_eq!(enables.len(), 1, "oracle config latches exactly once");
    assert!(!enables[0].cause.is_empty(), "cause chain recorded");
    assert_eq!(enables[0].rate.to_bits(), PINNED_RATE_BITS);
    // Activation used the same observed rate corruptd latched on.
    let d = a.corruptd.as_ref().expect("daemon attached");
    assert_eq!(d.observed_rate(0).to_bits(), PINNED_RATE_BITS);
    let diff = (enables[0].rate - d.observed_rate(0)).abs();
    assert!(
        diff <= f64::EPSILON * d.observed_rate(0),
        "rates diverge: {:e} vs {:e}",
        enables[0].rate,
        d.observed_rate(0)
    );
}

#[test]
fn corruptd_stays_quiet_on_healthy_link() {
    let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::None);
    cfg.lg_active_from_start = false;
    let mut w = World::new(cfg);
    w.enable_stress(1518);
    let mut daemon = Corruptd::new(101, 1, 1e-8);
    for k in 1..=5u64 {
        let t = Time::ZERO + Duration::from_ms(5 * k);
        w.run_until(t);
        let counters = w.sw_rx.counters(lg_testbed::world::PORT_LINK);
        assert!(daemon.poll(0, counters, t).is_none(), "no false activation");
    }
    assert!(!daemon.is_active(0));
}
