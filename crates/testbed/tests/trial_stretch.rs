//! Computed trials equal simulated trials (DESIGN.md §23).
//!
//! `World::run_until` computes the clean trials of a serial trial
//! series; the same world stepped through `pop_if_before` + `handle_pub`
//! never does, so it is the oracle. Both are cut at the same random
//! instants (mid-batch included) and run to completion, and every
//! observable is compared at each cut.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Rng, Time};
use lg_testbed::experiments::{fct_config, FctTransport};
use lg_testbed::world::{PORT_HOST, PORT_LINK};
use lg_testbed::{ChainApp, ChainConfig, ChainWorld, Protection, World, WorldConfig};
use lg_transport::CcVariant;

/// The simulated path: every event handled, no batch ever computed.
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

/// Everything a batch must leave exactly as the trials would: FCT
/// samples bit for bit, traces, every stats struct, the clock, the
/// queue, the pool, the uid counter and the flow ids in use. (Both
/// sides also count the same events: a computed trial counts those it
/// stands for.)
fn observe(w: &mut World) -> String {
    let ports: Vec<_> = [&w.sw_tx, &w.sw_rx]
        .iter()
        .flat_map(|sw| [PORT_LINK, PORT_HOST].map(|p| sw.counters(p)))
        .collect();
    let queues: Vec<_> = [&w.sw_tx, &w.sw_rx]
        .iter()
        .map(|sw| {
            let q = sw.port(PORT_LINK).queue(lg_switch::Class::Normal);
            (q.len(), q.bytes(), q.high_watermark(), q.drops())
        })
        .collect();
    let fct: Vec<u64> = w.out.fct.samples_us().iter().map(|s| s.to_bits()).collect();
    let hosts: Vec<_> = w
        .hosts
        .iter()
        .map(|h| {
            let flows = [
                h.tcp_tx.as_ref().map(|t| t.flow()),
                h.tcp_rx.as_ref().map(|t| t.flow()),
                h.rdma_tx.as_ref().map(|t| t.flow()),
                h.rdma_rx.as_ref().map(|t| t.flow()),
            ];
            (h.payload_rx_bytes, h.stress_rx_frames, flows)
        })
        .collect();
    let recirc = w.lg_rx.recirc_occupancy(w.q.now());
    let rx_hist = w.lg_rx.retx_delay_histogram();
    format!(
        "now {:?} len {} live {} uids {}\nfct {fct:?}\ntcp {:?}\nrdma {:?}\n\
         e2e {} hosts {hosts:?}\n\
         tx {:?} {:?} {} sent {} acked {}\n\
         rx {:?} {:?} {} ack_no {} latest {}\n\
         retx_delay {} {:?} recirc {recirc}\nports {ports:?}\nqueues {queues:?}\nprobes {:?}",
        w.q.now(),
        w.q.len(),
        w.pool.live(),
        lg_packet::peek_next_uid() - w.obs.uid_base,
        w.out.tcp_traces,
        w.out.rdma_traces,
        w.out.e2e_retx_total,
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
        w.probes,
    )
}

/// One configuration, cut at `cuts` random instants and then run to
/// completion on both sides; returns the census of the computed side.
fn compare(cfg: &WorldConfig, cuts: usize) -> lg_testbed::StretchCensus {
    let label = format!(
        "{:?} {:?} lg={:?}",
        cfg.app,
        cfg.loss,
        cfg.lg.as_ref().map(|l| l.mode)
    );
    // Sample ticks go on for ever: such a run ends a little after the
    // unsampled one.
    let mut probe = World::new(WorldConfig {
        sample_interval: None,
        ..cfg.clone()
    });
    step(&mut probe, Time::MAX);
    let end = probe.q.now().as_ps();
    let mut rng = Rng::new(cfg.seed ^ 0x7121);
    let mut at: Vec<Time> = (0..cuts)
        .map(|_| Time::from_ps(rng.range(0, end)))
        .collect();
    at.sort();
    at.push(match cfg.sample_interval {
        Some(_) => Time::from_ps(end) + Duration::from_ms(2),
        None => Time::MAX,
    });
    let mut sides = Vec::new();
    let mut census = None;
    for computed in [false, true] {
        let mut w = World::new(cfg.clone());
        let mut seen = Vec::new();
        for &t in &at {
            let ran = if computed {
                w.run_until(t)
            } else {
                step(&mut w, t)
            };
            seen.push(format!("events {ran}\n{}", observe(&mut w)));
        }
        assert!(w.pool.is_drained(), "{label}: pool not drained");
        census = Some(w.stretch_census());
        sides.push(seen);
    }
    for (i, (sim, comp)) in sides[0].iter().zip(&sides[1]).enumerate() {
        assert_eq!(sim, comp, "{label}: diverged at cut {i}");
    }
    census.expect("ran")
}

const TRANSPORTS: [FctTransport; 5] = [
    FctTransport::Tcp(CcVariant::Dctcp),
    FctTransport::Tcp(CcVariant::Cubic),
    FctTransport::Tcp(CcVariant::Bbr),
    FctTransport::Rdma,
    FctTransport::RdmaSelectiveRepeat,
];

/// Message sizes and trial counts: the Fig 10 and Fig 11 sizes, and
/// Fig 12's 2 MB scaled down to 200 KB.
const SIZES: [(u32, u32); 3] = [(143, 400), (24_387, 200), (200_000, 40)];

fn config(
    t: FctTransport,
    (len, trials): (u32, u32),
    loss: LossModel,
    p: Protection,
    sample: bool,
    seed: u64,
) -> WorldConfig {
    let mut cfg = fct_config(LinkSpeed::G100, loss, p, t, len, trials, seed);
    cfg.sample_interval = sample.then(|| Duration::from_us(100));
    cfg
}

/// Every transport and size, each under two of the loss models,
/// protections and sampling settings in turn.
#[test]
fn computed_trials_equal_simulated_trials() {
    let losses = [
        LossModel::None,
        LossModel::Iid { rate: 1e-3 },
        LossModel::Iid { rate: 1e-2 },
        LossModel::bursty(1e-3, 3.0),
        LossModel::Trace {
            drops: vec![5, 6, 40, 41, 42, 400, 1_000],
        },
    ];
    let protections = [
        Protection::Lg,
        Protection::LgNb,
        Protection::Off,
        Protection::Ablation {
            tail: true,
            order: false,
        },
    ];
    let mut seed = 0;
    for t in TRANSPORTS {
        for size in SIZES {
            for _ in 0..2 {
                seed += 1;
                let loss = losses[seed as usize % losses.len()].clone();
                let p = protections[seed as usize / 2 % protections.len()];
                let sample = seed % 3 == 0;
                let clean = loss == LossModel::None && !sample;
                let cfg = config(t, size, loss, p, sample, seed);
                let c = compare(&cfg, 4);
                if clean {
                    assert!(c.trials > 0, "{cfg:?}: {c:?}: no trial computed");
                }
            }
        }
    }
}

/// A trial's own shape: 143 B and 24,387 B trials, sampling that stops
/// a batch short of each tick, and the three congestion controls under
/// every protection.
#[test]
fn computed_trials_hold_under_every_protection() {
    let mut seed = 100;
    for p in [
        Protection::Lg,
        Protection::LgNb,
        Protection::Off,
        Protection::Ablation {
            tail: false,
            order: true,
        },
    ] {
        for t in &TRANSPORTS[..3] {
            for (loss, sample) in [
                (LossModel::None, true),
                (LossModel::Iid { rate: 1e-3 }, false),
            ] {
                seed += 1;
                let cfg = config(*t, SIZES[seed as usize % 2], loss, p, sample, seed);
                compare(&cfg, 3);
            }
        }
    }
}

/// The `testbed_fct` configuration (100 G LG, iid 1e-3, 24,387 B DCTCP,
/// seed 1): most trials are computed (1,954 of 2,000), the last one
/// never is, and no trial mark is refused (none finds a wake pending).
#[test]
fn most_testbed_fct_trials_are_computed() {
    let cfg = config(
        FctTransport::Tcp(CcVariant::Dctcp),
        (24_387, 2_000),
        LossModel::Iid { rate: 1e-3 },
        Protection::Lg,
        false,
        1,
    );
    let mut w = World::new(cfg);
    w.run_until(Time::MAX);
    let c = w.stretch_census();
    assert_eq!(w.out.fct.len(), 2_000);
    assert!(c.trials < 2_000 - 1, "{c:?}: the last trial runs as events");
    assert!(c.trials * 100 >= 2_000 * 97, "{c:?}: under 97 % computed");
    // A drain that ended long ago does not refuse the next mark.
    assert_eq!(c.refused, 0, "{c:?}");
}

/// Fig 10's 143 B RDMA series (100 G LG, seed 1), its forward link
/// dropping every 100th frame: each recovered loss cuts a batch every
/// ≈50 trials, and the trial start after it resumes from the last
/// batch's step, so almost every trial is computed (1,957 of 2,000).
/// (At iid 1e-3 this seed loses no frame in 2,000 trials, which then
/// run as one batch and never resume.)
#[test]
fn most_short_rdma_trials_are_computed() {
    let cfg = config(
        FctTransport::Rdma,
        (143, 2_000),
        LossModel::Trace {
            drops: (1..100).map(|i| i * 100).collect(),
        },
        Protection::Lg,
        false,
        1,
    );
    let mut w = World::new(cfg);
    w.run_until(Time::MAX);
    let c = w.stretch_census();
    assert_eq!(w.out.fct.len(), 2_000);
    assert!(c.trials < 2_000 - 1, "{c:?}: the last trial runs as events");
    assert!(c.trials * 100 >= 2_000 * 95, "{c:?}: under 95 % computed");
    assert!(c.resumed > 0, "{c:?}: no batch resumed");
}

/// The `chain_rdma` shape (100 G, three protected hops at iid 1e-3 each,
/// 24,387 B RDMA go-back-N, seed 1): most trials are computed (1,856 of
/// 2,000), and the last one never is.
#[test]
fn most_chain_rdma_trials_are_computed() {
    let mut w = chain_rdma(2_000, true, 1);
    w.run_until(Time::MAX);
    let c = w.stretch_census();
    assert_eq!(w.fct.len(), 2_000);
    assert!(c.trials < 2_000 - 1, "{c:?}: the last trial runs as events");
    assert!(c.trials * 100 >= 2_000 * 92, "{c:?}: under 92 % computed");
}

/// The `chain_rdma` chain: three hops at iid 1e-3, every hop protected,
/// or only the middle one.
fn chain_rdma(trials: u32, protected: bool, seed: u64) -> ChainWorld {
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        vec![LossModel::Iid { rate: 1e-3 }; 3],
        ChainApp::RdmaTrials {
            msg_len: 24_387,
            trials,
        },
    );
    if !protected {
        cfg.protected = vec![false, true, false];
    }
    cfg.seed = seed;
    ChainWorld::new(cfg)
}

/// The census DESIGN.md §23 tabulates for trial series: the share of
/// trials computed, 100 G at seed 1, 20,000 trials of the Fig 10, Fig 11,
/// Fig 13 and Table 2 shapes and 300 of Fig 12's. Run with `cargo test
/// --release -p lg-testbed --test trial_stretch -- --ignored --nocapture`.
#[test]
#[ignore]
fn stretch_census() {
    let iid = LossModel::Iid { rate: 1e-3 };
    let dctcp = CcVariant::Dctcp;
    let ablation = Protection::Ablation {
        tail: false,
        order: false,
    };
    let configs = [
        (
            "fig10 143 B DCTCP LG",
            FctTransport::Tcp(dctcp),
            143,
            &iid,
            Protection::Lg,
        ),
        (
            "fig10 143 B RDMA LG",
            FctTransport::Rdma,
            143,
            &iid,
            Protection::Lg,
        ),
        (
            "fig11 24,387 B DCTCP LG",
            FctTransport::Tcp(dctcp),
            24_387,
            &iid,
            Protection::Lg,
        ),
        (
            "fig11 24,387 B DCTCP no LG",
            FctTransport::Tcp(dctcp),
            24_387,
            &iid,
            Protection::Off,
        ),
        (
            "fig11 24,387 B RDMA LG",
            FctTransport::Rdma,
            24_387,
            &iid,
            Protection::Lg,
        ),
        (
            "fig12 2 MB DCTCP no loss",
            FctTransport::Tcp(dctcp),
            2_097_152,
            &LossModel::None,
            Protection::Off,
        ),
        (
            "fig12 2 MB DCTCP LG",
            FctTransport::Tcp(dctcp),
            2_097_152,
            &iid,
            Protection::Lg,
        ),
        (
            "table2 24,387 B ReTx",
            FctTransport::Tcp(dctcp),
            24_387,
            &iid,
            ablation,
        ),
        (
            "fig13 24,387 B LG_NB",
            FctTransport::Tcp(dctcp),
            24_387,
            &iid,
            Protection::LgNb,
        ),
    ];
    let mut rows = Vec::new();
    for (label, t, len, loss, p) in configs {
        let trials = if len > 1_000_000 { 300 } else { 20_000 };
        let mut w = World::new(fct_config(
            LinkSpeed::G100,
            loss.clone(),
            p,
            t,
            len,
            trials,
            1,
        ));
        w.run_until(Time::MAX);
        rows.push((label, trials, w.stretch_census()));
    }
    for (label, protected) in [
        ("chain_rdma 3 hops, all LG", true),
        ("chain_rdma 3 hops, middle LG", false),
    ] {
        let mut w = chain_rdma(20_000, protected, 1);
        w.run_until(Time::MAX);
        rows.push((label, 20_000, w.stretch_census()));
    }
    println!("| configuration, iid 1e-3 unless noted | trials | computed | batches | mean trials per batch | resumed | refused | unequal |");
    println!("|---|---|---|---|---|---|---|---|");
    for &(label, trials, c) in &rows {
        println!(
            "| {label} | {trials} | {:.1} % | {} | {} | {} | {} | {} |",
            100.0 * c.trials as f64 / f64::from(trials),
            c.batches,
            c.trials.checked_div(c.batches).unwrap_or(0),
            c.resumed,
            c.refused,
            c.unequal,
        );
    }
    println!();
    println!("| unequal trial marks, first cause | lost | pair | switch | events | host | host port | packets | moved | kept |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (label, _, c) in rows {
        let u = c.causes;
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            u.lost, u.pair, u.switch, u.events, u.host, u.host_port, u.packets, u.moved, u.kept,
        );
    }
}
