//! End-to-end smoke tests of the simulated testbed.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::Duration;
use lg_testbed::{fct_experiment, stress_test, FctTransport, Protection};
use lg_transport::CcVariant;

#[test]
fn clean_link_stress_delivers_everything() {
    let r = stress_test(
        LinkSpeed::G25,
        LossModel::None,
        Protection::Lg,
        Duration::from_ms(5),
        1,
    );
    assert!(r.sent > 1000, "sent {}", r.sent);
    assert_eq!(r.unrecovered, 0, "no losses on a clean link");
    assert!(
        r.effective_speed > 0.99,
        "effective speed {} on clean link",
        r.effective_speed
    );
    assert_eq!(r.timeouts, 0);
}

#[test]
fn lossy_link_without_lg_loses_frames() {
    let r = stress_test(
        LinkSpeed::G25,
        LossModel::Iid { rate: 1e-3 },
        Protection::Off,
        Duration::from_ms(20),
        2,
    );
    assert!(r.sent > 10_000);
    let rate = r.unrecovered as f64 / r.sent as f64;
    assert!(
        (rate - 1e-3).abs() / 1e-3 < 0.5,
        "loss rate {rate:e} should be ~1e-3"
    );
}

#[test]
fn lg_masks_losses_on_stress() {
    let r = stress_test(
        LinkSpeed::G25,
        LossModel::Iid { rate: 1e-3 },
        Protection::Lg,
        Duration::from_ms(20),
        3,
    );
    assert!(r.sent > 10_000);
    assert_eq!(r.n_copies, 2, "Eq. 2 at 1e-3 toward 1e-8");
    assert_eq!(
        r.unrecovered, 0,
        "all {} wire losses recovered (timeouts {})",
        r.wire_losses, r.timeouts
    );
    assert!(r.wire_losses > 0, "the link did corrupt");
    assert!(
        r.effective_speed > 0.8,
        "effective speed {}",
        r.effective_speed
    );
}

#[test]
fn tcp_fct_clean_link_is_about_one_rtt() {
    let r = fct_experiment(
        LinkSpeed::G100,
        LossModel::None,
        Protection::Off,
        FctTransport::Tcp(CcVariant::Dctcp),
        143,
        200,
        4,
    );
    // single-packet flow: data path + ack path ≈ 30 us RTT
    assert!(
        r.report.p99_us > 20.0 && r.report.p99_us < 60.0,
        "p99 {} us",
        r.report.p99_us
    );
    assert_eq!(r.e2e_retx, 0);
}

#[test]
fn rdma_fct_clean_link_completes() {
    let r = fct_experiment(
        LinkSpeed::G100,
        LossModel::None,
        Protection::Off,
        FctTransport::Rdma,
        143,
        200,
        5,
    );
    assert!(
        r.report.p99_us > 15.0 && r.report.p99_us < 60.0,
        "p99 {} us",
        r.report.p99_us
    );
}

#[test]
fn lossy_tcp_tail_shows_rto_and_lg_removes_it() {
    let lossy = fct_experiment(
        LinkSpeed::G100,
        LossModel::Iid { rate: 5e-3 },
        Protection::Off,
        FctTransport::Tcp(CcVariant::Dctcp),
        143,
        2_000,
        6,
    );
    // tail losses cause ≥1ms FCTs (RTO floor is 1 ms)
    assert!(
        lossy.report.p999_us > 500.0,
        "p99.9 {} us should show RTO",
        lossy.report.p999_us
    );
    let masked = fct_experiment(
        LinkSpeed::G100,
        LossModel::Iid { rate: 5e-3 },
        Protection::Lg,
        FctTransport::Tcp(CcVariant::Dctcp),
        143,
        2_000,
        6,
    );
    assert!(
        masked.report.p999_us < 100.0,
        "LG p99.9 {} us should look lossless",
        masked.report.p999_us
    );
    assert!(masked.report.p999_us * 5.0 < lossy.report.p999_us);
}

#[test]
fn rdma_gets_ordered_recovery() {
    let masked = fct_experiment(
        LinkSpeed::G100,
        LossModel::Iid { rate: 5e-3 },
        Protection::Lg,
        FctTransport::Rdma,
        24_387,
        1_000,
        7,
    );
    assert!(
        masked.report.p999_us < 200.0,
        "LG RDMA p99.9 {} us",
        masked.report.p999_us
    );
    assert_eq!(masked.e2e_retx, 0, "ordered LG hides loss from go-back-N");
}

/// The event payload must stay cache-compact: packet events carry 8-byte
/// pool handles, and the rare `SetLoss` model is boxed. Two events plus a
/// timer-wheel entry header fit in a cache line, at either loop's port.
#[test]
fn event_payload_stays_slim() {
    use lg_testbed::world::{Ev, Side};
    let world = std::mem::size_of::<Ev<Side>>();
    let chain = std::mem::size_of::<Ev<(usize, lg_switch::PortId)>>();
    assert!(
        world <= 32,
        "Ev<Side> grew to {world} bytes; box or shrink the offending variant"
    );
    assert!(chain <= 32, "the chain's Ev grew to {chain} bytes");
}

/// Pool hygiene: once a trial run quiesces (event queue drained, every
/// segment ACKed end-to-end), every packet handed to the pool must have
/// been released — by host delivery, corruption drop, control absorption,
/// or Tx-buffer ACK. A leak here means some path forgot its release.
#[test]
fn pool_drains_after_lossy_tcp_run() {
    use lg_testbed::world::{App, World, WorldConfig};
    let mut cfg = WorldConfig::new(LinkSpeed::G25, LossModel::Iid { rate: 1e-3 });
    cfg.seed = 7;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Cubic,
        msg_len: 50_000,
        trials: 20,
        gap: Duration::from_us(10),
    };
    let mut w = World::new(cfg);
    w.run_to_completion();
    assert_eq!(w.out.fct.len(), 20, "all trials completed");
    assert!(
        w.pool.is_drained(),
        "leaked {} pool slots after quiescence",
        w.pool.live()
    );
}

/// A probe row covers `[t - interval, t)`: payload that reaches host1
/// exactly at a sample instant counts toward the next row, whether its
/// arrival runs before or after that instant's `Ev::Sample`.
#[test]
fn goodput_rows_are_start_inclusive_windows() {
    use lg_packet::{FlowId, Packet, UdpDatagram};
    use lg_sim::Time;
    use lg_testbed::world::{Ev, World, WorldConfig, HOST0, HOST1};
    let mut cfg = WorldConfig::new(LinkSpeed::G100, LossModel::None);
    cfg.sample_interval = Some(Duration::from_us(10));
    let mut w = World::new(cfg);
    let arrive = |w: &mut World, at: Time, payload_len: u32| {
        let dg = UdpDatagram {
            flow: FlowId(0),
            payload_len,
            seq: u64::from(payload_len),
        };
        let id = w.pool.insert(Packet::udp(HOST0, HOST1, dg, Time::ZERO));
        w.q.schedule_at(at, Ev::HostArrive { host: 1, id });
    };
    // Filed after the 10 µs sample (scheduled at construction): runs
    // after it. Filed before the 20 µs sample (scheduled when the 10 µs
    // one runs): runs before it.
    arrive(&mut w, Time::from_us(10), 1_000);
    arrive(&mut w, Time::from_us(20), 2_000);
    w.run_until(Time::from_us(30));
    let gbps = |bytes: f64| bytes * 8.0 / 10e-6 / 1e9;
    let rows: Vec<(Time, f64)> = w.probes.iter().map(|r| (r.t, r.goodput)).collect();
    assert_eq!(
        rows,
        vec![
            (Time::from_us(10), 0.0),
            (Time::from_us(20), gbps(1_000.0)),
            (Time::from_us(30), gbps(2_000.0)),
        ]
    );
}
