//! Computed periods equal simulated ones, on both testbed loops and for
//! both period units (DESIGN.md §23): the clean trials of a serial trial
//! series, and the clean stretches of a line-rate stress run.
//!
//! `World::run_until` and `ChainWorld::run_until` compute them; the same
//! loop stepped through `pop_if_before` + `handle_pub` never does, so it
//! is the oracle. Each world is drawn from a seeded generator, and both
//! sides are cut at the same random instants, mid-batch included, and
//! compared at every cut. A trial world draws the loop (the two-switch
//! testbed, or a chain of one to three hops, all protected or mixed),
//! the transport (RDMA go-back-N or DCTCP), the message size (143 B or
//! 24,387 B) and the loss (none, i.i.d. 1e-3 or 1e-2, Gilbert–Elliott)
//! of every forward link and of the testbed's reverse link. A stress
//! world draws the speed (25 or 100 G), the protection (LG, LG_NB or
//! none), the forward and reverse losses, a 100 µs sample interval or
//! none, and 1518 B or 64 B frames; after its cuts, stress stops and the
//! tail drains.

use lg_link::{LinkSpeed, LossModel};
use lg_packet::peek_next_uid;
use lg_sim::{Duration, Rng, Time};
use lg_testbed::chain::{PORT_LEFT, PORT_RIGHT};
use lg_testbed::world::{PORT_HOST, PORT_LINK};
use lg_testbed::{
    fct_config, ChainApp, ChainConfig, ChainWorld, FctTransport, Protection, StretchCensus, World,
    WorldConfig,
};
use lg_transport::CcVariant;

/// One drawn world: its label and a constructor for either side.
struct Case {
    label: String,
    build: Box<dyn Fn() -> Loop>,
    /// A loss-free world computes some of its trials.
    clean: bool,
}

enum Loop {
    World(Box<World>),
    Chain(Box<ChainWorld>),
}

impl Loop {
    /// The simulated path: every event handled, no trial computed.
    fn step(&mut self, until: Time) -> u64 {
        let mut ran = 0;
        match self {
            Loop::World(w) => {
                while let Some((now, ev)) = w.q.pop_if_before(until) {
                    w.handle_pub(ev, now);
                    ran += 1;
                }
            }
            Loop::Chain(w) => {
                while let Some((now, ev)) = w.q.pop_if_before(until) {
                    w.handle_pub(ev, now);
                    ran += 1;
                }
            }
        }
        // Handles nothing: it only settles the computed host ports, as
        // the run loop does at its end.
        assert_eq!(self.run_until(until), 0);
        ran
    }

    fn run_until(&mut self, until: Time) -> u64 {
        match self {
            Loop::World(w) => w.run_until(until),
            Loop::Chain(w) => w.run_until(until),
        }
    }

    fn census(&self) -> StretchCensus {
        match self {
            Loop::World(w) => w.stretch_census(),
            Loop::Chain(w) => w.stretch_census(),
        }
    }

    fn now(&self) -> Time {
        match self {
            Loop::World(w) => w.q.now(),
            Loop::Chain(w) => w.q.now(),
        }
    }

    /// Everything a batch must leave exactly as the trials would: FCT
    /// samples bit for bit, transport retransmissions, every hop's
    /// sender and receiver, every switch port's counters, the clock,
    /// the queue and the pool.
    fn observe(&self) -> String {
        let (fct, e2e, len, live, hops, ports) = match self {
            Loop::World(w) => (
                &w.out.fct,
                w.out.e2e_retx_total,
                w.q.len(),
                w.pool.live(),
                vec![(&w.lg_tx, &w.lg_rx)],
                [&w.sw_tx, &w.sw_rx]
                    .iter()
                    .flat_map(|sw| [PORT_LINK, PORT_HOST].map(|p| sw.counters(p)))
                    .collect::<Vec<_>>(),
            ),
            Loop::Chain(w) => (
                &w.fct,
                w.e2e_retx,
                w.q.len(),
                w.pool.live(),
                (0..w.n_switches() - 1).map(|h| w.lg_pair(h)).collect(),
                (0..w.n_switches())
                    .flat_map(|sw| [PORT_LEFT, PORT_RIGHT].map(|p| w.port_counters(sw, p)))
                    .collect(),
            ),
        };
        let bits: Vec<u64> = fct.samples_us().iter().map(|s| s.to_bits()).collect();
        let mut out = format!(
            "now {:?} len {len} live {live} e2e {e2e}\nfct {bits:?}\nports {ports:?}\n",
            self.now()
        );
        for (tx, rx) in hops {
            out += &format!(
                "tx {:?} {:?} {} sent {} acked {}\nrx {:?} {:?} {} ack_no {} latest {} delays {}\n",
                tx.stats(),
                tx.tx_buffer_stats(),
                tx.tx_buffer_bytes(),
                tx.last_sent(),
                tx.acked(),
                rx.stats(),
                rx.rx_buffer_stats(),
                rx.rx_buffer_bytes(),
                rx.ack_no(),
                rx.latest_rx(),
                rx.retx_delay_histogram().len(),
            );
        }
        out
    }

    fn drained(&self) -> bool {
        match self {
            Loop::World(w) => w.pool.is_drained(),
            Loop::Chain(w) => w.pool.is_drained(),
        }
    }
}

const LOSSES: usize = 4;

fn loss(i: usize) -> LossModel {
    match i {
        0 => LossModel::None,
        1 => LossModel::Iid { rate: 1e-3 },
        2 => LossModel::Iid { rate: 1e-2 },
        _ => LossModel::bursty(1e-3, 3.0),
    }
}

/// One of `n` choices.
fn pick(rng: &mut Rng, n: usize) -> usize {
    rng.range(0, n as u64 - 1) as usize
}

/// Draw a world from the axes.
fn draw(rng: &mut Rng, seed: u64) -> Case {
    let rdma = pick(rng, 2) == 1;
    let len = [143, 24_387][pick(rng, 2)];
    // A few hundred short trials, or about a hundred longer ones.
    let trials = if len == 143 { 300 } else { 100 };
    let hops = pick(rng, 4);
    let losses: Vec<usize> = (0..hops.max(1)).map(|_| pick(rng, LOSSES)).collect();
    let mut clean = losses.iter().all(|&l| l == 0);
    let mixed = pick(rng, 2) == 1;
    let transport = if rdma { "RDMA" } else { "DCTCP" };
    if hops == 0 {
        // The testbed's reverse link may corrupt too: a batch must find
        // both directions' frames clean.
        let rev = pick(rng, LOSSES);
        let p = if mixed {
            Protection::Off
        } else {
            Protection::Lg
        };
        let label = format!(
            "World {transport} {len} B {:?} reverse {:?} {p:?} seed {seed}",
            loss(losses[0]),
            loss(rev)
        );
        let t = if rdma {
            FctTransport::Rdma
        } else {
            FctTransport::Tcp(CcVariant::Dctcp)
        };
        let mut cfg = fct_config(LinkSpeed::G100, loss(losses[0]), p, t, len, trials, seed);
        cfg.rev_loss = loss(rev);
        clean &= rev == 0;
        return Case {
            label,
            build: Box::new(move || Loop::World(Box::new(World::new(cfg.clone())))),
            clean,
        };
    }
    // Mixed protection leaves every other hop bare, the first included.
    let protected: Vec<bool> = (0..hops).map(|h| !mixed || h % 2 == 1).collect();
    let models: Vec<LossModel> = losses.iter().map(|&l| loss(l)).collect();
    let label = format!("Chain {transport} {len} B {models:?} {protected:?} seed {seed}");
    let build = move || {
        let app = if rdma {
            ChainApp::RdmaTrials {
                msg_len: len,
                trials,
            }
        } else {
            ChainApp::TcpTrials {
                variant: CcVariant::Dctcp,
                msg_len: len,
                trials,
            }
        };
        let mut cfg = ChainConfig::protected_chain(LinkSpeed::G100, models.clone(), app);
        cfg.protected = protected.clone();
        cfg.seed = seed;
        Loop::Chain(Box::new(ChainWorld::new(cfg)))
    };
    Case {
        label,
        build: Box::new(build),
        clean,
    }
}

/// Cut both sides of `case` at `cuts` random instants, then run them to
/// completion, comparing at each cut; returns the computed side's census.
fn compare(case: &Case, rng: &mut Rng, cuts: usize) -> StretchCensus {
    let mut probe = (case.build)();
    probe.step(Time::MAX);
    let end = probe.now().as_ps();
    let mut at: Vec<Time> = (0..cuts)
        .map(|_| Time::from_ps(rng.range(0, end)))
        .collect();
    at.sort();
    at.push(Time::MAX);
    let mut sides = Vec::new();
    let mut census = StretchCensus::default();
    for computed in [false, true] {
        let uid0 = peek_next_uid();
        let mut w = (case.build)();
        let mut seen = Vec::new();
        for &t in &at {
            let ran = if computed { w.run_until(t) } else { w.step(t) };
            let uids = peek_next_uid() - uid0;
            seen.push(format!("events {ran} uids {uids}\n{}", w.observe()));
        }
        assert!(w.drained(), "{}: pool not drained", case.label);
        census = w.census();
        sides.push(seen);
    }
    for (i, (sim, comp)) in sides[0].iter().zip(&sides[1]).enumerate() {
        assert_eq!(sim, comp, "{}: diverged at cut {i}", case.label);
    }
    census
}

#[test]
fn computed_trials_equal_simulated_trials_on_both_loops() {
    let mut rng = Rng::new(0xc0_7e1a);
    let (mut chains, mut computed) = (0, 0);
    for seed in 1..=28 {
        let case = draw(&mut rng, seed);
        let c = compare(&case, &mut rng, 4);
        if case.clean {
            assert!(c.trials > 0, "{}: {c:?}: no trial computed", case.label);
        }
        chains += u64::from(case.label.starts_with("Chain"));
        computed += c.trials;
    }
    assert!(chains >= 10, "only {chains} chains drawn");
    assert!(computed > 0);
}

/// The simulated path of a stress world: every event handled, then the
/// host ports settled as the run loop settles them.
fn step(w: &mut World, until: Time) {
    while let Some((now, ev)) = w.q.pop_if_before(until) {
        w.handle_pub(ev, now);
    }
    assert_eq!(w.run_until(until), 0);
}

/// Everything a stretch must leave exactly as the frames would: the
/// clock, queue, pool and uid count; the stress generator and host1's
/// counters; the sender and receiver with their buffers, retx delays and
/// recirculation occupancy (drained to the cut on both sides alike);
/// every switch port and queue; and the probes.
fn observe_stress(w: &mut World, uid0: u64) -> String {
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
    let recirc = w.lg_rx.recirc_occupancy(w.q.now());
    let (tx, rx) = (&w.lg_tx, &w.lg_rx);
    let rx_hist = rx.retx_delay_histogram();
    format!(
        "now {:?} len {} live {} uids {}\n\
         stress {} delivered {} host1 {} {}\n\
         tx {:?} {:?} {} sent {} acked {}\n\
         rx {:?} {:?} {} ack_no {} latest {} retx_delay {} {:?}\n\
         recirc {recirc}\nports {ports:?}\nqueues {queues:?}\nprobes {:?}",
        w.q.now(),
        w.q.len(),
        w.pool.live(),
        peek_next_uid() - uid0,
        w.out.stress_tx_frames,
        w.stress_delivered(),
        w.hosts[1].payload_rx_bytes,
        w.hosts[1].stress_rx_wire_bytes,
        tx.stats(),
        tx.tx_buffer_stats(),
        tx.tx_buffer_bytes(),
        tx.last_sent(),
        tx.acked(),
        rx.stats(),
        rx.rx_buffer_stats(),
        rx.rx_buffer_bytes(),
        rx.ack_no(),
        rx.latest_rx(),
        rx_hist.len(),
        rx_hist.summary(),
        w.probes,
    )
}

/// Draw a stress world: its label, configuration, frame length and run.
fn draw_stress(rng: &mut Rng, seed: u64) -> (String, WorldConfig, u32, Duration) {
    let speed = [LinkSpeed::G25, LinkSpeed::G100][pick(rng, 2)];
    let p = [Protection::Lg, Protection::LgNb, Protection::Off][pick(rng, 3)];
    let (fwd, rev) = (loss(pick(rng, LOSSES)), loss(pick(rng, LOSSES)));
    let sample = pick(rng, 2) == 1;
    // Short frames come ≈20 times as fast: a run of as many frames.
    let (len, run) = match pick(rng, 2) {
        0 => (1518, Duration::from_ms(2)),
        _ => (64, Duration::from_us(100)),
    };
    let mut cfg = WorldConfig::new(speed, fwd.clone());
    cfg.lg = p.lg_config(speed, fwd.mean_rate());
    cfg.rev_loss = rev;
    cfg.sample_interval = sample.then(|| Duration::from_us(100));
    cfg.seed = seed;
    let label = format!(
        "stress {speed:?} {p:?} {fwd:?} reverse {:?} sample {sample} {len} B seed {seed}",
        cfg.rev_loss
    );
    (label, cfg, len, run)
}

/// Cut both sides of a stress world at `cuts` random instants of its
/// run, then stop the stress and drain the tail, comparing at each cut;
/// returns the computed side's census.
fn compare_stress(rng: &mut Rng, seed: u64, cuts: usize) -> (String, StretchCensus) {
    let (label, cfg, len, run) = draw_stress(rng, seed);
    let mut at: Vec<Time> = (0..cuts)
        .map(|_| Time::from_ps(rng.range(0, run.as_ps())))
        .collect();
    at.sort();
    at.push(Time::ZERO + run);
    let drained = Time::ZERO + run + Duration::from_ms(1);
    let mut sides = Vec::new();
    let mut census = StretchCensus::default();
    for computed in [false, true] {
        let uid0 = peek_next_uid();
        let mut w = World::new(cfg.clone());
        w.enable_stress(len);
        let mut seen = Vec::new();
        for (i, &t) in at.iter().chain([&drained]).enumerate() {
            if i == cuts + 1 {
                w.disable_stress();
            }
            // A stretch counts no events, so the counts differ.
            if computed {
                w.run_until(t);
            } else {
                step(&mut w, t);
            }
            seen.push(observe_stress(&mut w, uid0));
        }
        assert!(w.pool.is_drained(), "{label}: pool not drained");
        census = w.stretch_census();
        sides.push(seen);
    }
    for (i, (sim, comp)) in sides[0].iter().zip(&sides[1]).enumerate() {
        assert_eq!(sim, comp, "{label}: diverged at cut {i}");
    }
    (label, census)
}

#[test]
fn computed_stretches_equal_simulated_frames() {
    let mut rng = Rng::new(0x57_2e55);
    let mut computed = 0;
    for seed in 1..=16 {
        let (label, c) = compare_stress(&mut rng, seed, 4);
        if label.contains("None reverse None") {
            assert!(c.stretches > 0, "{label}: {c:?}: no stretch computed");
        }
        computed += c.periods;
    }
    assert!(computed > 0);
}
