//! `lg-sim` — deterministic discrete-event simulation kernel.
//!
//! This crate provides the foundation every other crate in the LinkGuardian
//! reproduction builds on:
//!
//! * [`time`]: integer-picosecond [`Time`]/[`Duration`] and exact [`Rate`]
//!   arithmetic (serialization delays).
//! * [`event`]: the deterministic [`EventQueue`] (time order with FIFO
//!   tie-break).
//! * [`rng`]: seeded xoshiro256** [`Rng`] with the distributions the paper
//!   needs (Bernoulli loss, Weibull link lifetimes, exponential arrivals).
//! * [`par`]: deterministic [`par_map`] for fanning independent sweep
//!   points across threads with input-order (thread-count-independent)
//!   results.
//! * [`shard`]: conservative-lookahead sharding for parallelism *inside*
//!   one run — per-shard event queues advancing in lockstep windows with
//!   deterministic cross-shard mailbox exchange.
//!
//! Measurement lives with its users: FCT samples in
//! `lg_workload::FctCollector` and `lg_fabric::FctStream`, histograms
//! and the rank rule in `lg_obs::hist`.
//!
//! Design follows the event-driven, allocation-light, "no surprises" style
//! of smoltcp: components are pure state machines, all randomness is owned
//! and seeded, and two runs with the same seed are bit-identical.

pub mod event;
pub mod par;
pub mod rng;
pub mod shard;
pub mod time;

pub use event::{EventHandle, EventQueue};
pub use par::par_map;
pub use rng::{Rng, WeibullHorizon};
pub use shard::{run_sharded, ShardMsg, ShardStats, ShardWorld};
pub use time::{Duration, Rate, Time};
