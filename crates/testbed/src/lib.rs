//! `lg-testbed` — the simulated Figure 7 testbed and the §4 experiment
//! drivers.
//!
//! [`world::World`] binds the pure state machines of the other crates —
//! switches, the corrupting link, LinkGuardian sender/receiver, transport
//! endpoints — into one deterministic event loop, and [`chain::ChainWorld`]
//! into a multi-hop path. Both run one event enum ([`Ev`]) through one
//! event path and differ only in struct, constructor and topology. Their
//! `run_until` computes the clean periods of a run — the stretches of a
//! line-rate stress run, the batches of a serial trial series — through
//! one mark/compare/advance module (DESIGN.md §23); `handle_pub` never
//! does, and is the reference the computed runs are checked against.
//! [`experiments`] provides one driver per experiment class:
//!
//! * [`experiments::stress_test`] — line-rate MTU stress (Fig 8 effective
//!   loss/speed, Fig 14 buffers, Table 4 recirculation, Fig 19 delays);
//! * [`experiments::fct_experiment`] — serial message trials
//!   (Figs 10–12, Table 2 ablation, Fig 13 classification inputs);
//! * [`experiments::time_series`] — the Fig 9/21 throughput timelines
//!   with the VOA engaged mid-run and LinkGuardian activated later.

pub mod chain;
mod cycle;
pub mod experiments;
mod host;
mod port;
pub mod world;

pub use chain::{ChainApp, ChainConfig, ChainWorld};
pub use experiments::{
    classify_fig13, fct_config, fct_experiment, stress_test, time_series, FctResult, FctTransport,
    Fig13Group, Protection, StressResult, TimeSeriesResult, TimeSeriesScenario,
};
pub use world::{App, Ev, Host, ProbeRow, StretchCensus, World, WorldConfig, HOST0, HOST1};
