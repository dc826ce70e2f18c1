//! Multiple corrupting links on one path (paper §5): LinkGuardian
//! instances operate per link, independently; the end-to-end benefit
//! compounds because the unprotected baseline gets *worse* with each
//! corrupting hop.

use lg_link::{LinkSpeed, LossModel};
use lg_testbed::{ChainApp, ChainConfig, ChainWorld};
use lg_transport::CcVariant;

fn run_chain(losses: Vec<LossModel>, protected: bool, trials: u32, seed: u64) -> (f64, u64, u64) {
    let n = losses.len();
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        losses,
        ChainApp::TcpTrials {
            variant: CcVariant::Dctcp,
            msg_len: 24_387,
            trials,
        },
    );
    cfg.protected = vec![protected; n];
    cfg.seed = seed;
    let mut w = ChainWorld::new(cfg);
    w.run_to_completion();
    assert_eq!(w.fct.len() as u32, trials, "all trials complete");
    let p999 = w.fct.quantile_us(0.999);
    (p999, w.e2e_retx, w.total_recovered())
}

#[test]
fn two_corrupting_hops_fully_masked() {
    let losses = vec![LossModel::Iid { rate: 2e-3 }, LossModel::Iid { rate: 2e-3 }];
    let (p999, e2e, recovered) = run_chain(losses, true, 2_000, 501);
    assert_eq!(e2e, 0, "both hops' losses recovered link-locally");
    assert!(recovered > 50, "recoveries happened on the chain");
    assert!(p999 < 150.0, "p99.9 {p999} us near the no-loss level");
}

#[test]
fn unprotected_multi_hop_is_worse_than_single_hop() {
    // §5: "multiple corrupting links on a path would lead to a greater
    // fraction of the flows suffering corruption packet loss".
    let one = vec![LossModel::Iid { rate: 2e-3 }, LossModel::None];
    let two = vec![LossModel::Iid { rate: 2e-3 }, LossModel::Iid { rate: 2e-3 }];
    let (_, retx_one, _) = run_chain(one, false, 3_000, 502);
    let (_, retx_two, _) = run_chain(two, false, 3_000, 502);
    assert!(
        retx_two > retx_one,
        "two corrupting hops ({retx_two}) must beat one ({retx_one})"
    );
}

#[test]
fn three_hop_rdma_with_mixed_protection() {
    // protect only the corrupting middle hop; healthy outer hops bare
    let losses = vec![
        LossModel::None,
        LossModel::Iid { rate: 2e-3 },
        LossModel::None,
    ];
    let mut cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        losses,
        ChainApp::RdmaTrials {
            msg_len: 24_387,
            trials: 1_500,
        },
    );
    cfg.protected = vec![false, true, false];
    cfg.seed = 503;
    let mut w = ChainWorld::new(cfg);
    assert_eq!(w.n_switches(), 4);
    w.run_to_completion();
    assert_eq!(w.fct.len(), 1_500);
    assert_eq!(w.e2e_retx, 0, "go-back-N never triggered");
    assert!(w.fct.quantile_us(0.999) < 200.0);
}

#[test]
fn chain_world_clean_path_baseline() {
    let losses = vec![LossModel::None, LossModel::None];
    let (p999, e2e, recovered) = run_chain(losses, true, 500, 504);
    assert_eq!(e2e, 0);
    assert_eq!(recovered, 0);
    // 3 switches: RTT slightly above the 2-switch testbed's ~62 us FCT
    assert!(p999 < 120.0, "p99.9 {p999}");
}

/// A one-link chain is the two-switch testbed: the same switches, link
/// streams and LinkGuardian pair (an unprotected hop is the testbed's
/// `lg: None`, an inactive pair), so the two loops must agree bit for
/// bit on every trial — FCT samples, transport retransmissions,
/// link-local recoveries and timeouts, the final clock, and the work
/// behind them: the events each loop handled (a computed trial counts
/// the events it stands for), the packets it created and the pool slots
/// it grew to. Both loops compute their clean trials through the same
/// code, so they compute the same trials in the same batches.
#[test]
fn one_hop_chain_is_the_world() {
    use lg_packet::peek_next_uid;
    use lg_sim::{Duration, Time};
    use lg_testbed::{App, World, WorldConfig};

    const TRIALS: u32 = 200;
    const MSG_LEN: u32 = 24_387;
    let speed = LinkSpeed::G100;
    for rdma in [false, true] {
        for protected in [false, true] {
            for loss in [LossModel::Iid { rate: 1e-2 }, LossModel::None] {
                for seed in [1, 7] {
                    let (chain_app, app) = if rdma {
                        (
                            ChainApp::RdmaTrials {
                                msg_len: MSG_LEN,
                                trials: TRIALS,
                            },
                            App::RdmaTrials {
                                msg_len: MSG_LEN,
                                trials: TRIALS,
                                gap: Duration::from_us(10),
                                selective_repeat: false,
                            },
                        )
                    } else {
                        (
                            ChainApp::TcpTrials {
                                variant: CcVariant::Dctcp,
                                msg_len: MSG_LEN,
                                trials: TRIALS,
                            },
                            App::TcpTrials {
                                variant: CcVariant::Dctcp,
                                msg_len: MSG_LEN,
                                trials: TRIALS,
                                gap: Duration::from_us(10),
                            },
                        )
                    };
                    let mut ccfg =
                        ChainConfig::protected_chain(speed, vec![loss.clone()], chain_app);
                    ccfg.protected = vec![protected];
                    ccfg.seed = seed;
                    let mut chain = ChainWorld::new(ccfg);
                    let uid0 = peek_next_uid();
                    let chain_events = chain.run_until(Time::MAX);
                    let chain_packets = peek_next_uid() - uid0;

                    let mut wcfg = WorldConfig::new(speed, loss.clone());
                    if !protected {
                        wcfg.lg = None;
                    }
                    wcfg.app = app;
                    wcfg.seed = seed;
                    let mut world = World::new(wcfg);
                    let uid0 = peek_next_uid();
                    let world_events = world.run_until(Time::MAX);
                    let world_packets = peek_next_uid() - uid0;

                    let case = format!("rdma={rdma} protected={protected} {loss:?} seed={seed}");
                    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(chain.fct.len() as u32, TRIALS, "{case}");
                    assert_eq!(
                        bits(chain.fct.samples_us()),
                        bits(world.out.fct.samples_us()),
                        "{case}: FCT samples"
                    );
                    assert_eq!(chain.e2e_retx, world.out.e2e_retx_total, "{case}");
                    let rx = world.lg_rx.stats();
                    assert_eq!(chain.total_recovered(), rx.recovered, "{case}");
                    assert_eq!(chain.total_lg_timeouts(), rx.timeouts, "{case}");
                    assert_eq!(chain.q.now(), world.q.now(), "{case}: final clock");
                    assert_eq!(chain_events, world_events, "{case}: events handled");
                    assert_eq!(
                        chain.stretch_census(),
                        world.stretch_census(),
                        "{case}: trials and batches computed"
                    );
                    assert_eq!(chain_packets, world_packets, "{case}: packets created");
                    assert_eq!(
                        chain.pool.slot_count(),
                        world.pool.slot_count(),
                        "{case}: pool slots"
                    );
                }
            }
        }
    }
}
