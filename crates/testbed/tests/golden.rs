//! Golden-output determinism tests.
//!
//! The packet pool, inline SACK storage, and slim event payloads are pure
//! memory-layout changes: they must not perturb uid assignment, RNG
//! draws, or event ordering. These tests pin a short fig10-style run's
//! exact FCT samples (bit-for-bit, recording order) as a fixture.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test -p lg-testbed --test golden`
//! — only when an *intentional* behavior change lands.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::world::{Ev, HOST_HOP, PORT_HOST, PORT_LINK};
use lg_testbed::{App, ChainApp, ChainConfig, ChainWorld, World, WorldConfig};
use lg_transport::CcVariant;
use linkguardian::LgConfig;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fct.txt");
const TRIALS: u32 = 400;

/// A short fig10-style run: 143 B DCTCP trials over a corrupting 100 G
/// link protected by LinkGuardian, default seed. The loss rate is turned
/// up (1e-2) so the run exercises gap detection, link-local retransmits
/// and dummy-driven tail recovery, not just the clean path.
fn run() -> Vec<f64> {
    let speed = LinkSpeed::G100;
    let mut cfg = WorldConfig::new(speed, LossModel::Iid { rate: 1e-2 });
    cfg.lg = Some(LgConfig::for_speed(speed, 1e-2));
    cfg.seed = 10;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 143,
        trials: TRIALS,
        gap: Duration::from_us(10),
    };
    let mut w = World::new(cfg);
    w.run_to_completion();
    assert_eq!(w.out.fct.len() as u32, TRIALS);
    assert_eq!(w.q.now(), w.q.now().max(Time::ZERO));
    w.out.fct.samples_us().to_vec()
}

fn encode(samples: &[f64]) -> String {
    let mut s = String::new();
    for v in samples {
        s.push_str(&format!("{:016x}\n", v.to_bits()));
    }
    s
}

#[test]
fn fig10_style_fct_samples_match_fixture() {
    let samples = run();
    let encoded = encode(&samples);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(FIXTURE, &encoded).expect("write fixture");
        return;
    }
    let expect = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(
        encoded, expect,
        "FCT samples diverged from the pinned fixture: the change \
         perturbed uid assignment, RNG draws, or event order"
    );
}

#[test]
fn repeated_runs_are_identical() {
    let a = run();
    let b = run();
    assert_eq!(encode(&a), encode(&b));
}

// ------------------------------------------------------------------
// Hop-level pins: besides FCT samples these fix the final clock, the
// transport retransmission count and the MAC counters of all four
// switch ports, read mid-run at instants chosen to straddle a frame
// that is still serializing out of a host-facing port. They hold any
// change to *how* a hop is simulated to the observable behaviour of
// the event-per-hop loop they were recorded on.

/// One line per port: every `PortCounters` field, in declaration order.
fn ports(w: &World, out: &mut String) {
    for (name, sw) in [("sw_tx", &w.sw_tx), ("sw_rx", &w.sw_rx)] {
        for port in [PORT_LINK, PORT_HOST] {
            let c = sw.counters(port);
            out.push_str(&format!(
                "{name}:{port} rx_ok={} rx_all={} tx={} bytes_tx={} bytes_rx_ok={} lg_retx={} \
                 pause_tx={} pause_rx={} hwm={}\n",
                c.frames_rx_ok,
                c.frames_rx_all,
                c.frames_tx,
                c.bytes_tx,
                c.bytes_rx_ok,
                c.lg_retx_tx,
                c.pause_tx,
                c.pause_rx,
                c.queue_hwm_bytes
            ));
        }
    }
}

/// What a stepped scouting pass learns about a run: when each host
/// received a frame, and when a transport timer actually transmitted.
struct Scout {
    host_arrivals: [Vec<Time>; 2],
    timer_sends: Vec<Time>,
    host_wakes: u64,
}

/// Step a world event by event through its public single-step surface.
fn scout(mut w: World) -> Scout {
    let mut s = Scout {
        host_arrivals: [Vec::new(), Vec::new()],
        timer_sends: Vec::new(),
        host_wakes: 0,
    };
    while let Some((now, ev)) = w.q.pop_if_before(Time::MAX) {
        let wake = matches!(ev, Ev::HostWake { .. });
        if let Ev::HostArrive { host, .. } = ev {
            s.host_arrivals[host].push(now);
        }
        let fired = |w: &World| {
            let t = w.hosts[0].tcp_tx.as_ref().map(|t| t.trace());
            (
                w.out.e2e_retx_total,
                t.is_some_and(|t| t.rto_fired),
                t.is_some_and(|t| t.tlp_fired),
            )
        };
        let before = fired(&w);
        w.handle_pub(ev, now);
        if wake {
            s.host_wakes += 1;
            if fired(&w) != before {
                s.timer_sends.push(now);
            }
        }
    }
    s
}

/// A frame reaches its host one fixed host hop (wire + stack delay)
/// after the host-facing switch port finished serializing it.
fn port_done(host_arrival: Time) -> Time {
    host_arrival - HOST_HOP
}

/// Run `cfg` with counters read at three mid-run instants — one
/// picosecond before a frame leaves `sw_rx`'s host port, exactly when
/// another does, and one picosecond before an ACK leaves `sw_tx`'s —
/// and at the end.
fn hop_level_dump(cfg: &WorldConfig) -> (String, Scout) {
    let s = scout(World::new(cfg.clone()));
    let pick = |v: &Vec<Time>, frac: usize| port_done(v[v.len() * frac / 8]);
    let mut instants = [
        pick(&s.host_arrivals[1], 2) - Duration::from_ps(1),
        pick(&s.host_arrivals[1], 4),
        pick(&s.host_arrivals[0], 6) - Duration::from_ps(1),
    ];
    instants.sort();
    let mut w = World::new(cfg.clone());
    let mut out = String::new();
    for t in instants {
        w.run_until(t);
        out.push_str(&format!("@{}\n", t.as_ps()));
        ports(&w, &mut out);
    }
    w.run_to_completion();
    out.push_str(&format!(
        "end now={} e2e_retx={}\n",
        w.q.now().as_ps(),
        w.out.e2e_retx_total
    ));
    ports(&w, &mut out);
    out.push_str(&encode(w.out.fct.samples_us()));
    (out, s)
}

fn check_fixture(name: &str, encoded: &str) {
    let path = format!("{}/tests/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, encoded).expect("write fixture");
        return;
    }
    let expect = std::fs::read_to_string(&path).expect("fixture present");
    assert_eq!(encoded, expect, "{name} diverged from the pinned fixture");
}

const LOSSY_TRIALS: u32 = 400;

/// Unprotected 1e-2 link, 24,387 B DCTCP messages: losses reach the
/// transport, so fast retransmit, tail-loss probes and RTOs all fire.
fn lossy_cfg() -> WorldConfig {
    let mut cfg = WorldConfig::new(LinkSpeed::G100, LossModel::Iid { rate: 1e-2 });
    cfg.lg = None;
    cfg.seed = 11;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 24_387,
        trials: LOSSY_TRIALS,
        gap: Duration::from_us(10),
    };
    cfg
}

#[test]
fn unprotected_lossy_run_matches_fixture() {
    let (mut dump, s) = hop_level_dump(&lossy_cfg());
    assert!(
        s.timer_sends.len() >= 10,
        "the fixture must exercise RTO/TLP: {} timer transmissions",
        s.timer_sends.len()
    );
    for t in &s.timer_sends {
        dump.push_str(&format!("timer@{}\n", t.as_ps()));
    }
    check_fixture("golden_lossy.txt", &dump);
}

#[test]
fn bidirectional_run_matches_fixture() {
    let speed = LinkSpeed::G25;
    let mut cfg = WorldConfig::new(speed, LossModel::Iid { rate: 5e-3 });
    cfg.rev_loss = LossModel::Iid { rate: 5e-3 };
    cfg.lg = Some(LgConfig::for_speed(speed, 5e-3));
    cfg.bidirectional = true;
    cfg.seed = 12;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 24_387,
        trials: 300,
        gap: Duration::from_us(10),
    };
    let (dump, _) = hop_level_dump(&cfg);
    check_fixture("golden_bidir.txt", &dump);
}

/// Each host keeps one live pending wake-up instead of one per armed
/// timer, and a finished trial cancels its own, so wake events track
/// the real timer expirations (each ACK used to leave a stale ≈1 ms wake
/// behind: 17 per trial on this run; then each trial's last wake fired
/// in a later one) — while every RTO/TLP still fires at its pinned
/// instant. The bound allows each expiration one early wake, and the
/// series' final-clock wake (23 for 12 expirations here).
#[test]
fn wakes_are_coalesced_and_timers_fire_on_time() {
    let s = scout(World::new(lossy_cfg()));
    let due = 2 * s.timer_sends.len() as u64 + 1;
    assert!(
        s.host_wakes <= due,
        "{} host_wake events for {LOSSY_TRIALS} trials and {} timer expirations",
        s.host_wakes,
        s.timer_sends.len()
    );
    let path = format!("{}/tests/golden_lossy.txt", env!("CARGO_MANIFEST_DIR"));
    let pinned: Vec<u64> = std::fs::read_to_string(path)
        .expect("fixture present")
        .lines()
        .filter_map(|l| l.strip_prefix("timer@"))
        .map(|t| t.parse().expect("picoseconds"))
        .collect();
    let fired: Vec<u64> = s.timer_sends.iter().map(|t| t.as_ps()).collect();
    assert_eq!(fired, pinned);
}

/// The same messages over a protected 100 G link: recovered frames
/// leave the reordering buffer in bursts, so `sw_rx`'s host port queues
/// (at 100 G a frame serializes faster than the pipeline hands the next
/// one over; at the bidirectional run's 25 G, slower).
#[test]
fn protected_bursty_run_matches_fixture() {
    let mut cfg = lossy_cfg();
    cfg.lg = Some(LgConfig::for_speed(cfg.speed, 1e-2));
    cfg.seed = 14;
    let (dump, _) = hop_level_dump(&cfg);
    check_fixture("golden_lg100.txt", &dump);
}

#[test]
fn three_hop_chain_rdma_matches_fixture() {
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        vec![
            LossModel::Iid { rate: 1e-2 },
            LossModel::Iid { rate: 5e-3 },
            LossModel::Iid { rate: 1e-2 },
        ],
        ChainApp::RdmaTrials {
            msg_len: 24_387,
            trials: 300,
        },
    );
    cfg.seed = 13;
    check_fixture("golden_chain.txt", &chain_dump(cfg));
}

/// Run a chain to completion: final clock, transport retransmissions,
/// summed recoveries and timeouts, then every FCT sample.
fn chain_dump(cfg: ChainConfig) -> String {
    let mut w = ChainWorld::new(cfg);
    w.run_to_completion();
    format!(
        "end now={} e2e_retx={} recovered={} lg_timeouts={}\n{}",
        w.q.now().as_ps(),
        w.e2e_retx,
        w.total_recovered(),
        w.total_lg_timeouts(),
        encode(w.fct.samples_us())
    )
}

/// A 4-switch chain under DCTCP with every kind of hop: a corrupting
/// hop left bare (its losses reach the transport), a corrupting hop
/// under LinkGuardian, and a clean bare hop. Unprotected hops sit on
/// both sides of the protected one, so its sender and receiver share
/// their switches with ports that carry no LinkGuardian state.
#[test]
fn mixed_protection_chain_dctcp_matches_fixture() {
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        vec![
            LossModel::Iid { rate: 5e-3 },
            LossModel::Iid { rate: 1e-2 },
            LossModel::None,
        ],
        ChainApp::TcpTrials {
            variant: CcVariant::Dctcp,
            msg_len: 24_387,
            trials: 300,
        },
    );
    cfg.protected = vec![false, true, false];
    cfg.seed = 15;
    let dump = chain_dump(cfg);
    let head = dump.lines().next().expect("summary line");
    assert!(
        !head.contains(" e2e_retx=0 ") && !head.contains(" recovered=0 "),
        "the fixture must exercise both transport and link-local recovery: {head}"
    );
    check_fixture("golden_chain_mixed.txt", &dump);
}
