//! `lg-obs` — the simulator's observability layer.
//!
//! Its layers, all dependency-free (the build is offline and the vendored
//! `compat/serde` is a no-op stand-in, so JSONL is hand-written):
//!
//! * [`metrics`] — a poll-based metrics registry. Components keep owning
//!   their stats structs; anything implementing [`Observe`] is visited at
//!   sim-time snapshot points and its counters/gauges/histograms recorded
//!   per component instance. Gauges track high-water marks across
//!   snapshots. The registry serializes to deterministic JSONL and is the
//!   one writer of `metric` rows, whichever engine publishes them.
//! * [`trace`] — a structured trace layer: fixed-capacity per-thread ring
//!   of compact [`TraceRecord`]s behind a runtime level filter. The
//!   disabled path is a single branch on a relaxed [`AtomicU8`] load,
//!   taken before the [`lg_trace!`] macro's argument expressions are
//!   evaluated.
//! * [`postmortem`] — packet-lifecycle reconstruction: trace records carry
//!   the packet `uid`, so one call filters a drained ring down to a
//!   packet's full causal history (TX → corrupt drop → LOSS_NOTIFICATION →
//!   recirc retx → delivery) for dumping when an invariant trips.
//! * [`timeseries`] — streaming windowed telemetry: per-metric Ewma plus a
//!   fixed-capacity ring of recent windows (min/max/mean/p99 per row),
//!   sampled on the world's periodic sim event and dumped as `timeseries`
//!   JSONL rows with strictly monotone window ids.
//! * [`health`] — the online link-health plane: a sliding-window
//!   corruption-rate estimator with hysteresis (healthy → degraded →
//!   corrupting) emitting `health_event` rows; the testbed's guardian
//!   plane and the fabric rollups both run on it, so activation
//!   decisions come from observed counters rather than oracle
//!   loss-model parameters.
//! * [`hist`] — the workspace's one histogram ([`LogHist`]) and its one
//!   rank rule for retained, sorted samples ([`hist::quantile_index`]).
//! * [`stream`] — bounded-memory ingestion: a reusable line-at-a-time
//!   reader with [`str::lines`] semantics, so the analysis binaries hold
//!   O(1) state over multi-GB dumps.
//! * [`analyze`] — the streaming analysis core behind `obs_analyze`:
//!   incremental per-section aggregates fed line-at-a-time, bit-for-bit
//!   equal to the retained whole-file path it replaced.
//!
//! Determinism contract: everything the registry and trace layers emit is
//! derived from simulation state (sim-time keyed, normalized packet uids).
//! Wall-clock profile rows are quarantined under `"type":"profile"` with
//! keys sorting after all golden sections; golden comparisons must ignore
//! them (see `DESIGN.md` §9). The `trace`, `trace_summary` and `profile`
//! row shapes are written here only ([`trace::to_jsonl`],
//! [`sink::submit_profile`]), whichever engine publishes them.
//!
//! [`AtomicU8`]: std::sync::atomic::AtomicU8

pub mod analyze;
pub mod health;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod postmortem;
pub mod schema;
pub mod sink;
pub mod stream;
pub mod timeseries;
pub mod trace;

pub use health::{HealthConfig, HealthEstimator, HealthEvent, LinkHealth};
pub use hist::{HistSummary, LogHist};
pub use json::{JsonLine, JsonValue};
pub use metrics::{Counters, MetricSink, MetricsRegistry, Observe};
pub use stream::LineReader;
pub use timeseries::{Ewma, SeriesBank, WindowedRate};
pub use trace::{Comp, Kind, Level, TraceRecord};
