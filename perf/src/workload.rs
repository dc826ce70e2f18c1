//! What a benchmark workload is: fixed simulated work, prepared fresh
//! for every rep, run once untraced through the engine's one-shot call
//! or once traced through its public step calls.

use std::collections::BTreeMap;
use std::path::Path;

use crate::span::Recorder;

/// Per-layer values measured so far, keyed by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Name of the span the runner opens around a rep's set-up.
pub const SETUP_SPAN: &str = "setup";
/// Name of the span the runner opens around a rep's measured region.
pub const MEASURE_SPAN: &str = "measure";

/// FNV-1a digest over a rep's simulated outputs. Two runs of the same
/// code on the same seed must produce the same digest; a golden value
/// per (workload, seed 1) makes a model change visible.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Hash the bit pattern, so -0.0 and 0.0 (or two NaNs) differ.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.u64(s.len() as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one rep produced, extracted after the timed region.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Work units completed in the measured region.
    pub work: f64,
    /// Simulated events (or input lines) in the measured region, when
    /// the engine or the traced step loop counted them; 0 otherwise.
    pub events: u64,
    /// Mean number of pending events seen by the traced step loop (sizes
    /// the event-queue kernels); 0 when not observed.
    pub pending: f64,
    /// Operations attempted and failed (trials not completed, frames
    /// neither delivered nor accounted, lines rejected).
    pub attempted: u64,
    pub failed: u64,
    /// Invariants that did not hold (empty when the rep is correct).
    pub broken: Vec<String>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Exact counts and simulated values read from public stats structs.
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a broken invariant unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// One existing public config field flipped for an A/B measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as `BENCHMARK.json` describes it.
    Base,
    /// The same, prepared for a traced run: the engine's own profiler is
    /// switched on where it has one (purely observational).
    Traced,
    /// LinkGuardian off (`cfg.lg = None` / `protected = false`).
    LgOff,
    /// Streaming telemetry on (`sample_interval` / `telemetry`).
    Telemetry,
    /// One `pop` + `handle_pub` per event instead of batched dispatch.
    SingleDispatch,
    /// `shards = 1`.
    Shards1,
    /// `threads = 2`.
    Threads2,
    /// `Policy::LgGuardd` instead of `Policy::LgPlusCorrOpt`.
    Guardd,
}

/// How an A/B pair turns into a ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbRatio {
    /// Base rep time ÷ variant rep time.
    BaseOverVariant,
    /// Variant rep time ÷ base rep time.
    VariantOverBase,
    /// Variant process CPU ÷ base process CPU.
    CpuVariantOverBase,
}

/// One A/B measurement of a traced run.
pub struct Ab {
    pub metric: &'static str,
    pub variant: Variant,
    pub ratio: AbRatio,
}

/// A prepared rep: engine constructed, inputs generated, caches filled.
pub trait Rep {
    /// The measured region, through the engine's production calls.
    fn run(&mut self);
    /// The same region through the engine's public step calls, with a
    /// span (or a fold, for per-event calls) around each.
    fn run_traced(&mut self, rec: &mut Recorder);
    /// Checks, counts and digest; called once, after the timed region.
    fn outcome(&mut self) -> Outcome;
}

/// A benchmark workload.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Why the workload exists (one line, ≤ 200 characters).
    fn why(&self) -> &'static str;
    /// What one unit of `work_per_s` is.
    fn work_unit(&self) -> &'static str;
    /// Per-rep size, for the record.
    fn size(&self, quick: bool) -> String;
    /// Set one rep up: generate its inputs from `seed` into `dir`,
    /// construct the engine and run the cache-fill slice, with a span
    /// around each step.
    fn prepare(
        &self,
        seed: u64,
        quick: bool,
        variant: Variant,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Box<dyn Rep>;
    /// The A/B variants a traced run measures.
    fn abs(&self) -> &'static [Ab];
    /// Host-time layer values derived from the traced reps' spans and
    /// the (deterministic) outcome of one of them.
    fn layer_from_spans(&self, rec: &Recorder, traced: &Outcome, out: &mut LayerValues);
    /// Layer kernels mapped to this workload: fixed op scripts through
    /// public functions, sized from the traced rep's own counts.
    fn kernels(&self, traced: &Outcome, out: &mut LayerValues);
}

/// Every workload, in suite order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::w_testbed::Stress),
        Box::new(crate::w_testbed::Fct),
        Box::new(crate::w_chain::ChainRdma),
        Box::new(crate::w_fabric::FabricYear),
        Box::new(crate::w_pktfab::PktFab::pod()),
        Box::new(crate::w_pktfab::PktFab::scale()),
        Box::new(crate::w_obs::ObsFold),
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_bits() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.finish()
        };
        assert_ne!(
            d(&|d| {
                d.u64(1).u64(2);
            }),
            d(&|d| {
                d.u64(2).u64(1);
            })
        );
        assert_ne!(
            d(&|d| {
                d.f64(0.0);
            }),
            d(&|d| {
                d.f64(-0.0);
            })
        );
        assert_eq!(
            d(&|d| {
                d.str("ab");
            }),
            d(&|d| {
                d.str("ab");
            })
        );
    }

    #[test]
    fn registry_matches_the_schema() {
        let names: Vec<&str> = all().iter().map(|w| w.name()).collect();
        assert_eq!(names, crate::metrics::ALL);
        for w in all() {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            for ab in w.abs() {
                let l = crate::metrics::layer(ab.metric).expect("A/B metric in schema");
                assert!(l.workloads.contains(&w.name()), "{}", ab.metric);
            }
        }
    }
}
