//! `lg-testbed` — the simulated Figure 7 testbed and the §4 experiment
//! drivers.
//!
//! [`world::World`] binds the pure state machines of the other crates —
//! switches, the corrupting link, LinkGuardian sender/receiver, transport
//! endpoints — into one deterministic event loop. [`experiments`] provides
//! one driver per experiment class:
//!
//! * [`experiments::stress_test`] — line-rate MTU stress (Fig 8 effective
//!   loss/speed, Fig 14 buffers, Table 4 recirculation, Fig 19 delays);
//! * [`experiments::fct_experiment`] — serial message trials
//!   (Figs 10–12, Table 2 ablation, Fig 13 classification inputs);
//! * [`experiments::time_series`] — the Fig 9/21 throughput timelines
//!   with the VOA engaged mid-run and LinkGuardian activated later.

pub mod chain;
pub mod experiments;
mod host;
pub mod world;

pub use chain::{ChainApp, ChainConfig, ChainWorld};
pub use experiments::{
    classify_fig13, fct_config, fct_experiment, stress_test, time_series, FctResult, FctTransport,
    Fig13Group, Protection, StressResult, TimeSeriesResult, TimeSeriesScenario,
};
pub use world::{App, Ev, Host, ProbeRow, World, WorldConfig, HOST0, HOST1};
