//! Corruption loss models.
//!
//! Corruption manifests as frames dropped by the receiving MAC (FCS
//! failure). The paper evaluates i.i.d. loss rates of 1e-5..1e-3 (Table 1)
//! but also observes that at 25G/1e-3 the losses were *not* i.i.d. (§4.1)
//! and measures consecutive-loss run lengths (Fig 20, Appendix B.2). We
//! provide an i.i.d. model, a Gilbert–Elliott bursty model, and a scripted
//! trace model for failure injection in tests.

use lg_sim::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a corruption loss process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No corruption (healthy link).
    None,
    /// Independent, identically distributed per-frame loss.
    Iid {
        /// Per-frame drop probability.
        rate: f64,
    },
    /// Two-state Gilbert–Elliott model: a Good state with `loss_good` and a
    /// Bad (burst) state with `loss_bad`, switching with the given
    /// per-frame transition probabilities.
    GilbertElliott {
        /// P(Good → Bad) per frame.
        p_g2b: f64,
        /// P(Bad → Good) per frame.
        p_b2g: f64,
        /// Drop probability in the Good state.
        loss_good: f64,
        /// Drop probability in the Bad state.
        loss_bad: f64,
    },
    /// Drop exactly the frames whose 0-based index is listed (sorted).
    /// Used for deterministic failure injection.
    Trace {
        /// Sorted frame indices to drop.
        drops: Vec<u64>,
    },
}

impl LossModel {
    /// A Gilbert–Elliott parameterization with the given average loss rate
    /// and mean burst length (expected consecutive losses per burst).
    ///
    /// In the Bad state every frame is lost; bursts end with probability
    /// `1/mean_burst` per frame. `p_g2b` is solved so the stationary loss
    /// rate equals `rate`.
    pub fn bursty(rate: f64, mean_burst: f64) -> LossModel {
        assert!(rate > 0.0 && rate < 1.0);
        assert!(mean_burst >= 1.0);
        let p_b2g = 1.0 / mean_burst;
        // stationary fraction of Bad frames: pi_b = p_g2b / (p_g2b + p_b2g)
        // want pi_b = rate  =>  p_g2b = rate * p_b2g / (1 - rate)
        let p_g2b = rate * p_b2g / (1.0 - rate);
        LossModel::GilbertElliott {
            p_g2b,
            p_b2g,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// The long-run average frame loss rate of this model.
    pub fn mean_rate(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Iid { rate } => *rate,
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                let pi_b = p_g2b / (p_g2b + p_b2g);
                pi_b * loss_bad + (1.0 - pi_b) * loss_good
            }
            LossModel::Trace { .. } => 0.0, // undefined without a frame count
        }
    }
}

/// A running loss process: stateful application of a [`LossModel`].
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    rng: Rng,
    frame_index: u64,
    trace_pos: usize,
    in_bad_state: bool,
    drops: u64,
}

impl LossProcess {
    /// Create a process with its own RNG stream.
    pub fn new(model: LossModel, rng: Rng) -> LossProcess {
        LossProcess {
            model,
            rng,
            frame_index: 0,
            trace_pos: 0,
            in_bad_state: false,
            drops: 0,
        }
    }

    /// Decide the fate of the next frame. Returns `true` if it is lost.
    #[inline]
    pub fn should_drop(&mut self) -> bool {
        let idx = self.frame_index;
        self.frame_index += 1;
        let lost = match &self.model {
            LossModel::None => false,
            LossModel::Iid { rate } => self.rng.bernoulli(*rate),
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                // transition first, then sample loss in the new state
                if self.in_bad_state {
                    if self.rng.bernoulli(*p_b2g) {
                        self.in_bad_state = false;
                    }
                } else if self.rng.bernoulli(*p_g2b) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    *loss_bad
                } else {
                    *loss_good
                };
                self.rng.bernoulli(p)
            }
            LossModel::Trace { drops } => {
                if self.trace_pos < drops.len() && drops[self.trace_pos] == idx {
                    self.trace_pos += 1;
                    true
                } else {
                    false
                }
            }
        };
        if lost {
            self.drops += 1;
        }
        lost
    }

    /// Frames processed so far.
    pub fn frames(&self) -> u64 {
        self.frame_index
    }

    /// Frames dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Observed loss rate so far.
    pub fn observed_rate(&self) -> f64 {
        if self.frame_index == 0 {
            0.0
        } else {
            self.drops as f64 / self.frame_index as f64
        }
    }

    /// The configured model.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Replace the model (used when corruption "starts" mid-experiment,
    /// like the VOA being engaged at the 2-second mark in Fig 9).
    pub fn set_model(&mut self, model: LossModel) {
        self.model = model;
        self.in_bad_state = false;
        self.trace_pos = 0;
    }
}

/// Telemetry producer: the link's post-FEC frame/drop counters, the raw
/// feed the health plane differentiates into windowed loss rates. (The
/// loss process models what survives FEC — `drops` are frames the FEC
/// could not repair, exactly what `framesRxAll - framesRxOk` counts.)
impl lg_obs::Observe for LossProcess {
    fn observe(&self, m: &mut lg_obs::MetricSink) {
        m.counter("frames", self.frames());
        m.counter("post_fec_drops", self.drops());
    }
}

/// Distribution of consecutive-loss run lengths (Fig 20 / Appendix B.2).
///
/// Feed per-frame outcomes; query the run-length histogram.
#[derive(Debug, Clone, Default)]
pub struct RunLengthStats {
    current_run: u32,
    /// `runs[k]` counts completed loss bursts of length `k+1`.
    runs: Vec<u64>,
}

impl RunLengthStats {
    /// Empty statistics.
    pub fn new() -> RunLengthStats {
        RunLengthStats::default()
    }

    /// Record the fate of one frame.
    pub fn record(&mut self, lost: bool) {
        if lost {
            self.current_run += 1;
        } else if self.current_run > 0 {
            let k = self.current_run as usize - 1;
            if self.runs.len() <= k {
                self.runs.resize(k + 1, 0);
            }
            self.runs[k] += 1;
            self.current_run = 0;
        }
    }

    /// Finish (close any open run) and return counts of bursts by length
    /// (index 0 = length 1).
    pub fn finish(mut self) -> Vec<u64> {
        self.record(false);
        self.runs
    }

    /// CDF over burst lengths: fraction of bursts with length ≤ k+1.
    pub fn cdf(counts: &[u64]) -> Vec<f64> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![];
        }
        let mut acc = 0u64;
        counts
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut p = LossProcess::new(LossModel::None, Rng::new(1));
        assert!((0..10_000).all(|_| !p.should_drop()));
        assert_eq!(p.drops(), 0);
    }

    #[test]
    fn iid_rate_converges() {
        let mut p = LossProcess::new(LossModel::Iid { rate: 1e-3 }, Rng::new(2));
        let n = 2_000_000;
        for _ in 0..n {
            p.should_drop();
        }
        let observed = p.observed_rate();
        assert!(
            (observed - 1e-3).abs() / 1e-3 < 0.1,
            "observed {observed:e}"
        );
    }

    #[test]
    fn bursty_matches_mean_rate_and_bursts() {
        let model = LossModel::bursty(1e-2, 3.0);
        assert!((model.mean_rate() - 1e-2).abs() / 1e-2 < 1e-9);
        let mut p = LossProcess::new(model, Rng::new(3));
        let mut rl = RunLengthStats::new();
        let n = 3_000_000;
        for _ in 0..n {
            rl.record(p.should_drop());
        }
        let observed = p.observed_rate();
        assert!(
            (observed - 1e-2).abs() / 1e-2 < 0.15,
            "observed rate {observed:e}"
        );
        let counts = rl.finish();
        let total: u64 = counts.iter().sum();
        let mean_burst: f64 = counts
            .iter()
            .enumerate()
            .map(|(k, &c)| (k as f64 + 1.0) * c as f64)
            .sum::<f64>()
            / total as f64;
        assert!(
            (mean_burst - 3.0).abs() < 0.3,
            "mean burst length {mean_burst}"
        );
    }

    #[test]
    fn iid_runs_are_mostly_single() {
        let mut p = LossProcess::new(LossModel::Iid { rate: 0.01 }, Rng::new(4));
        let mut rl = RunLengthStats::new();
        for _ in 0..1_000_000 {
            rl.record(p.should_drop());
        }
        let counts = rl.finish();
        let total: u64 = counts.iter().sum();
        // With i.i.d. 1% loss, ~99% of bursts have length 1.
        assert!(counts[0] as f64 / total as f64 > 0.98);
    }

    #[test]
    fn ge_burst_trips_the_health_estimator_steady_low_rate_does_not() {
        use lg_obs::health::{HealthConfig, HealthEstimator, LinkHealth};

        // Steady 1e-8 loss: polls of 200k frames carry ~0.002 expected
        // errors each — the estimator never leaves Healthy.
        let mut steady = HealthEstimator::new(HealthConfig::default());
        let mut lp = LossProcess::new(LossModel::Iid { rate: 1e-8 }, Rng::new(42));
        for poll in 1..=20u64 {
            for _ in 0..200_000 {
                let _ = lp.should_drop();
            }
            let ok = lp.frames() - lp.drops();
            assert!(steady.observe_cumulative(poll, lp.frames(), ok).is_none());
        }
        assert_eq!(steady.state(), LinkHealth::Healthy);

        // A Gilbert–Elliott process (mean rate 1e-3, mean burst 30): the
        // bad-state burst trips the degraded threshold within a single
        // poll window.
        let mut bursty = HealthEstimator::new(HealthConfig::default());
        let mut lp = LossProcess::new(LossModel::bursty(1e-3, 30.0), Rng::new(7));
        for _ in 0..300_000 {
            let _ = lp.should_drop();
        }
        assert!(lp.drops() > 0, "the GE process actually dropped frames");
        let ev = bursty
            .observe_cumulative(1, lp.frames(), lp.frames() - lp.drops())
            .expect("burst trips the threshold within one window");
        assert!(ev.rate >= HealthConfig::default().degraded_rate);
        assert!(ev.to >= LinkHealth::Degraded);
    }

    #[test]
    fn trace_drops_exact_indices() {
        let mut p = LossProcess::new(
            LossModel::Trace {
                drops: vec![0, 3, 4, 9],
            },
            Rng::new(5),
        );
        let outcomes: Vec<bool> = (0..12).map(|_| p.should_drop()).collect();
        let expect = [
            true, false, false, true, true, false, false, false, false, true, false, false,
        ];
        assert_eq!(outcomes, expect);
        assert_eq!(p.drops(), 4);
    }

    #[test]
    fn set_model_switches_behavior() {
        let mut p = LossProcess::new(LossModel::None, Rng::new(6));
        for _ in 0..100 {
            assert!(!p.should_drop());
        }
        p.set_model(LossModel::Iid { rate: 1.0 });
        assert!(p.should_drop());
    }

    #[test]
    fn run_length_cdf() {
        let counts = vec![90u64, 8, 2];
        let cdf = RunLengthStats::cdf(&counts);
        assert_eq!(cdf, vec![0.90, 0.98, 1.0]);
    }
}
