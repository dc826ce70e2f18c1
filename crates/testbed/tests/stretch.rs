//! Computed stretches equal simulated frames (DESIGN.md §23).
//!
//! `World::run_until` computes the clean stretches of a line-rate stress
//! run; the same world stepped through `pop_if_before` + `handle_pub`
//! never does, so it is the oracle. Both are cut at the same random
//! instants (mid-stretch included), then stress stops and the tail
//! drains, and every observable is compared at each cut.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Rng, Time};
use lg_testbed::world::{PORT_HOST, PORT_LINK};
use lg_testbed::{Protection, World, WorldConfig};

/// The simulated path: every event handled, no stretch ever computed.
fn step(w: &mut World, until: Time) -> u64 {
    let mut ran = 0;
    while let Some((now, ev)) = w.q.pop_if_before(until) {
        w.handle_pub(ev, now);
        ran += 1;
    }
    // Handles nothing (every event up to `until` is done): it only
    // settles the computed host ports, as the run loop does at its end.
    assert_eq!(w.run_until(until), 0);
    ran
}

/// Everything the stretch must leave exactly as the frames would. The
/// receiver's recirculation occupancy is read by draining it to the cut
/// on both sides alike.
fn observe(w: &mut World) -> String {
    let ports: Vec<_> = [&w.sw_tx, &w.sw_rx]
        .iter()
        .flat_map(|sw| [PORT_LINK, PORT_HOST].map(|p| sw.counters(p)))
        .collect();
    let recirc = w.lg_rx.recirc_occupancy(w.q.now());
    let rx_hist = w.lg_rx.retx_delay_histogram();
    let queues: Vec<_> = [&w.sw_tx, &w.sw_rx]
        .iter()
        .map(|sw| {
            let q = sw.port(PORT_LINK).queue(lg_switch::Class::Normal);
            (q.len(), q.bytes(), q.high_watermark(), q.drops())
        })
        .collect();
    format!(
        "now {:?} len {} live {} uids {}\n\
         stress {} delivered {} host1 {} {}\n\
         tx {:?} {:?} {} sent {} acked {}\n\
         rx {:?} {:?} {} ack_no {} latest {}\n\
         retx_delay {} {:?} recirc {}\nports {ports:?}\nqueues {queues:?}\nprobes {:?}",
        w.q.now(),
        w.q.len(),
        w.pool.live(),
        lg_packet::peek_next_uid() - w.obs.uid_base,
        w.out.stress_tx_frames,
        w.stress_delivered(),
        w.hosts[1].payload_rx_bytes,
        w.hosts[1].stress_rx_wire_bytes,
        w.lg_tx.stats(),
        w.lg_tx.tx_buffer_stats(),
        w.lg_tx.tx_buffer_bytes(),
        w.lg_tx.last_sent(),
        w.lg_tx.acked(),
        w.lg_rx.stats(),
        w.lg_rx.rx_buffer_stats(),
        w.lg_rx.rx_buffer_bytes(),
        w.lg_rx.ack_no(),
        w.lg_rx.latest_rx(),
        rx_hist.len(),
        rx_hist.summary(),
        recirc,
        w.probes,
    )
}

/// One configuration, cut at `cuts` random instants of a `secs`-long
/// stress run and then drained; returns the events each side handled.
fn compare(cfg: &WorldConfig, frame_len: u32, run: Duration, cuts: usize) -> (u64, u64) {
    let mut rng = Rng::new(cfg.seed ^ 0x5EED);
    let mut at: Vec<Time> = (0..cuts)
        .map(|_| Time::from_ps(rng.range(0, run.as_ps())))
        .collect();
    at.sort();
    at.push(Time::ZERO + run);
    let label = format!(
        "{:?} {:?} reverse {:?} lg={} sample={:?}",
        cfg.speed,
        cfg.loss,
        cfg.rev_loss,
        cfg.lg.is_some(),
        cfg.sample_interval
    );
    let mut sides = Vec::new();
    for computed in [false, true] {
        let mut w = World::new(cfg.clone());
        w.enable_stress(frame_len);
        let mut ran = 0;
        let mut seen = Vec::new();
        for &t in &at {
            ran += if computed {
                w.run_until(t)
            } else {
                step(&mut w, t)
            };
            seen.push(observe(&mut w));
        }
        w.disable_stress();
        let drained = Time::ZERO + run + Duration::from_ms(1);
        ran += if computed {
            w.run_until(drained)
        } else {
            step(&mut w, drained)
        };
        seen.push(observe(&mut w));
        assert!(w.pool.is_drained(), "{label}: pool not drained");
        sides.push((ran, seen));
    }
    for (i, (sim, comp)) in sides[0].1.iter().zip(&sides[1].1).enumerate() {
        assert_eq!(sim, comp, "{label}: diverged at cut {i}");
    }
    (sides[0].0, sides[1].0)
}

fn config(
    speed: LinkSpeed,
    loss: LossModel,
    p: Protection,
    sample: bool,
    seed: u64,
) -> WorldConfig {
    let mut cfg = WorldConfig::new(speed, loss.clone());
    cfg.lg = p.lg_config(speed, loss.mean_rate());
    cfg.sample_interval = sample.then(|| Duration::from_us(100));
    cfg.seed = seed;
    cfg
}

#[test]
fn computed_stretches_equal_simulated_frames() {
    let losses = [
        LossModel::Iid { rate: 1e-2 },
        LossModel::Iid { rate: 1e-3 },
        LossModel::Iid { rate: 1e-4 },
        LossModel::Iid { rate: 1e-5 },
        LossModel::bursty(1e-3, 3.0),
    ];
    let mut seed = 0;
    for speed in [LinkSpeed::G25, LinkSpeed::G100, LinkSpeed::G400] {
        let run = Duration::from_us(match speed {
            LinkSpeed::G400 => 300,
            LinkSpeed::G100 => 600,
            _ => 1_200,
        });
        for p in [Protection::Lg, Protection::LgNb, Protection::Off] {
            for loss in &losses {
                // A corrupting reverse link: a stretch must find every
                // explicit ACK clean as well.
                for rev in [LossModel::None, LossModel::Iid { rate: 1e-3 }] {
                    seed += 1;
                    let mut cfg = config(speed, loss.clone(), p, seed % 2 == 0, seed);
                    cfg.rev_loss = rev;
                    let (sim, comp) = compare(&cfg, 1518, run, 4);
                    if loss.mean_rate() <= 1e-4 {
                        assert!(
                            comp * 3 < sim,
                            "{cfg:?}: {comp} of {sim} events: too few stretches"
                        );
                    }
                }
            }
        }
    }
}

/// Short frames, the smallest the generator builds included.
#[test]
fn computed_stretches_hold_at_every_frame_length() {
    for (i, len) in [64, 65, 512, 1500].into_iter().enumerate() {
        let cfg = config(
            LinkSpeed::G100,
            LossModel::Iid { rate: 1e-3 },
            Protection::Lg,
            false,
            i as u64,
        );
        compare(&cfg, len, Duration::from_us(300), 3);
    }
}

/// `ms` of 1518 B stress through `run_until`: the events handled and
/// the world, whose census says how the run was spent.
fn stress_run(cfg: WorldConfig, ms: u64) -> (u64, World) {
    let mut w = World::new(cfg);
    w.enable_stress(1518);
    let ran = w.run_until(Time::ZERO + Duration::from_ms(ms));
    (ran, w)
}

/// The stretches start within a few periods of a recovery: on the
/// `testbed_stress` configuration (100 G LG, iid 1e-3, seed 1) a frame
/// cost 0.78 events under the doubling host-hop back-off, and costs
/// 0.257 with the fixed retry and stretches that resume the last one's
/// step (0.310 if a miss waits one host hop).
/// The counts repeat exactly.
#[test]
fn a_stress_frame_costs_under_three_tenths_of_an_event() {
    let cfg = config(
        LinkSpeed::G100,
        LossModel::Iid { rate: 1e-3 },
        Protection::Lg,
        false,
        1,
    );
    let (ran, w) = stress_run(cfg, 20);
    let frames = w.out.stress_tx_frames;
    let census = w.stretch_census();
    let per_frame = ran as f64 / frames as f64;
    assert!(
        per_frame < 0.3,
        "{ran} events for {frames} frames: {per_frame:.3} per frame"
    );
    let computed = census.periods as f64 / frames as f64;
    assert!(
        computed >= 0.9,
        "{census:?}: {computed:.3} of {frames} frames computed"
    );
}

/// The census DESIGN.md §23 tabulates: 100 ms of stress per
/// configuration. Run with `cargo test --release -p lg-testbed --test
/// stretch -- --ignored --nocapture`.
#[test]
#[ignore]
fn stretch_census() {
    let losses = [
        LossModel::Iid { rate: 1e-2 },
        LossModel::Iid { rate: 1e-3 },
        LossModel::Iid { rate: 1e-4 },
        LossModel::Iid { rate: 1e-5 },
        LossModel::bursty(1e-3, 3.0),
    ];
    println!("| configuration | frames | computed | stretches | mean periods | refused | unequal | events per simulated frame |");
    println!("|---|---|---|---|---|---|---|---|");
    for speed in [LinkSpeed::G25, LinkSpeed::G100, LinkSpeed::G400] {
        for p in [Protection::Lg, Protection::LgNb, Protection::Off] {
            for loss in &losses {
                let (ran, w) = stress_run(config(speed, loss.clone(), p, false, 1), 100);
                let c = w.stretch_census();
                let frames = w.out.stress_tx_frames;
                println!(
                    "| {} {} {:?} | {frames} | {:.1} % | {} | {} | {} | {} | {:.2} |",
                    speed.name(),
                    p.label(),
                    loss,
                    100.0 * c.periods as f64 / frames as f64,
                    c.stretches,
                    c.periods.checked_div(c.stretches).unwrap_or(0),
                    c.refused,
                    c.unequal,
                    ran as f64 / (frames - c.periods) as f64,
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "stress frame length 45 B is outside [64, 1518] B")]
fn a_frame_shorter_than_its_headers_is_refused() {
    World::new(WorldConfig::new(LinkSpeed::G100, LossModel::None)).enable_stress(45);
}

#[test]
#[should_panic(expected = "stress frame length 63 B is outside [64, 1518] B")]
fn a_frame_the_mac_would_pad_is_refused() {
    World::new(WorldConfig::new(LinkSpeed::G100, LossModel::None)).enable_stress(63);
}

#[test]
#[should_panic(expected = "stress frame length 1519 B is outside [64, 1518] B")]
fn a_frame_above_the_mtu_is_refused() {
    World::new(WorldConfig::new(LinkSpeed::G100, LossModel::None)).enable_stress(1519);
}
