//! Configurations the loops cannot run are refused at construction with
//! a message — they used to spin forever at one instant (zero
//! intervals) or trip a bare `assert!` inside `lg-transport` (an empty
//! message).

use lg_link::{LinkSpeed, LossModel};
use lg_sim::Duration;
use lg_testbed::{App, ChainApp, ChainConfig, ChainWorld, World, WorldConfig};
use lg_transport::CcVariant;

fn cfg() -> WorldConfig {
    WorldConfig::new(LinkSpeed::G100, LossModel::Iid { rate: 1e-3 })
}

fn trials(msg_len: u32, trials: u32) -> App {
    App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len,
        trials,
        gap: Duration::from_us(10),
    }
}

#[test]
#[should_panic(expected = "sample interval must be > 0")]
fn zero_sample_interval_is_refused() {
    let mut c = cfg();
    c.sample_interval = Some(Duration::ZERO);
    World::new(c);
}

#[test]
#[should_panic(expected = "message length must be at least 1 byte")]
fn empty_message_is_refused() {
    let mut c = cfg();
    c.app = trials(0, 10);
    World::new(c);
}

#[test]
#[should_panic(expected = "guardd needs a sample interval")]
fn guardd_without_a_sample_tick_is_refused() {
    let mut c = cfg();
    c.guardd = Some(lg_guardd::GuardConfig::oracle());
    World::new(c);
}

#[test]
fn guardd_cannot_protect_a_link_configured_bare() {
    // `lg = None` is the figures' `Protection::Off`; a guardian on top
    // used to activate a default `LgConfig` on it silently.
    let mut c = cfg();
    c.guardd = Some(lg_guardd::GuardConfig::oracle());
    c.sample_interval = Some(Duration::from_ms(5));
    assert_eq!(c.validate(), Ok(()));
    c.lg = None;
    assert!(c
        .validate()
        .unwrap_err()
        .contains("guardd needs an `lg` configuration"));
}

#[test]
fn validate_names_the_problem_without_panicking() {
    let mut c = cfg();
    assert_eq!(c.validate(), Ok(()));
    c.app = trials(143, 0);
    assert!(c
        .validate()
        .unwrap_err()
        .contains("trials must be at least 1"));
    c.app = App::TcpStream {
        variant: CcVariant::Cubic,
        chunk: 0,
        end: lg_sim::Time::from_ms(1),
    };
    assert!(c.validate().unwrap_err().contains("message length"));
}

#[test]
#[should_panic(expected = "invalid ChainConfig: trials must be at least 1")]
fn chain_refuses_zero_trials() {
    let app = ChainApp::RdmaTrials {
        msg_len: 4_000,
        trials: 0,
    };
    let losses = vec![LossModel::Iid { rate: 1e-3 }];
    ChainWorld::new(ChainConfig::protected_chain(LinkSpeed::G100, losses, app));
}

#[test]
fn chain_validate_checks_its_shape() {
    let app = ChainApp::RdmaTrials {
        msg_len: 4_000,
        trials: 1,
    };
    let mut c = ChainConfig::protected_chain(LinkSpeed::G100, vec![LossModel::None; 2], app);
    assert_eq!(c.validate(), Ok(()));
    c.protected.pop();
    assert!(c
        .validate()
        .unwrap_err()
        .contains("one `protected` flag per link"));
}
