//! Online link-health monitoring: a windowed corruption-rate estimator
//! with hysteresis thresholds.
//!
//! The paper's control plane (`corruptd`, Appendix C) decides when to
//! activate LinkGuardian from *observed* `framesRxOk`/`framesRxAll`
//! counters, not from the loss model driving the simulation. This module
//! is that decision logic (the latch on top of it is `lg-guardd`),
//! shared by the testbed world and the fabric-scale rollups: feed per-poll frame/error counts (or cumulative
//! counters) into a [`HealthEstimator`], and it classifies the link as
//! healthy → degraded → corrupting over a sliding window, emitting a
//! structured [`HealthEvent`] on every state transition.
//!
//! Hysteresis: a link is *upgraded* the moment its windowed rate crosses
//! a threshold, but only *downgraded* once the rate falls below
//! `clear_factor` times the threshold it is leaving — so a rate
//! oscillating around a boundary does not flap the state machine.
//! Everything is sim-time driven; window ids increase by one per poll.

use crate::json::JsonLine;
use crate::timeseries::WindowedRate;

/// Health classification of a link, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkHealth {
    /// Loss rate below the degraded threshold (or too few errors to call).
    Healthy,
    /// Loss rate at or above the activation threshold (paper: 1e-8) —
    /// LinkGuardian should be activated.
    Degraded,
    /// Loss rate at or above the corrupting threshold (default 1e-6) —
    /// the link should also be queued for repair (CorrOpt's fast checker).
    Corrupting,
}

impl LinkHealth {
    /// Stable lowercase name used in JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            LinkHealth::Healthy => "healthy",
            LinkHealth::Degraded => "degraded",
            LinkHealth::Corrupting => "corrupting",
        }
    }
}

/// Estimator thresholds and window shape.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Rate at which a link leaves `Healthy` (the paper's LinkGuardian
    /// activation threshold).
    pub degraded_rate: f64,
    /// Rate at which a link becomes `Corrupting`.
    pub corrupting_rate: f64,
    /// Downgrade hysteresis: to leave a state, the windowed rate must be
    /// at or below `clear_factor` × that state's entry threshold.
    pub clear_factor: f64,
    /// Sliding window length in polls.
    pub window_polls: usize,
    /// Minimum frames in the window before any classification is made
    /// (avoids calling an idle link healthy or one early error a trend).
    pub min_frames: u64,
    /// Minimum errors in the window to leave `Healthy` (a single
    /// corrupted frame in a hundred million is noise, not a signal).
    pub min_errors: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            degraded_rate: 1e-8,
            corrupting_rate: 1e-6,
            clear_factor: 0.5,
            window_polls: 100,
            min_frames: 1_000,
            min_errors: 2,
        }
    }
}

/// A health state transition, emitted by [`HealthEstimator::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEvent {
    /// Sim time of the poll that caused the transition.
    pub t_ps: u64,
    /// Poll window index (strictly increasing per estimator).
    pub window_id: u64,
    /// State before.
    pub from: LinkHealth,
    /// State after.
    pub to: LinkHealth,
    /// Windowed loss rate at the transition.
    pub rate: f64,
    /// Frames in the window.
    pub frames: u64,
    /// Errored frames in the window.
    pub errors: u64,
}

impl HealthEvent {
    /// Render as a `health_event` JSONL line tagged with the run label
    /// and the component/instance that owns the link.
    pub fn to_json_line(&self, run: &str, comp: &str, inst: &str) -> String {
        let mut l = JsonLine::new();
        l.str("type", "health_event")
            .u64("t_ps", self.t_ps)
            .u64("window_id", self.window_id)
            .str("run", run)
            .str("comp", comp)
            .str("inst", inst)
            .str("from", self.from.name())
            .str("to", self.to.name())
            .f64("rate", self.rate)
            .u64("frames", self.frames)
            .u64("errors", self.errors);
        l.finish()
    }
}

/// Online per-link corruption-rate estimator with hysteresis.
#[derive(Debug, Clone)]
pub struct HealthEstimator {
    cfg: HealthConfig,
    win: WindowedRate,
    state: LinkHealth,
    window_id: u64,
    last_cum: (u64, u64), // (frames_rx_all, frames_rx_ok)
}

impl HealthEstimator {
    /// A fresh estimator in the `Healthy` state.
    pub fn new(cfg: HealthConfig) -> HealthEstimator {
        HealthEstimator {
            win: WindowedRate::new(cfg.window_polls),
            cfg,
            state: LinkHealth::Healthy,
            window_id: 0,
            last_cum: (0, 0),
        }
    }

    /// Current state.
    pub fn state(&self) -> LinkHealth {
        self.state
    }

    /// Windowed loss rate.
    pub fn rate(&self) -> f64 {
        self.win.rate()
    }

    /// Polls observed so far.
    pub fn window_id(&self) -> u64 {
        self.window_id
    }

    /// The entry threshold of a (non-healthy) state.
    fn threshold(&self, s: LinkHealth) -> f64 {
        match s {
            LinkHealth::Healthy => 0.0,
            LinkHealth::Degraded => self.cfg.degraded_rate,
            LinkHealth::Corrupting => self.cfg.corrupting_rate,
        }
    }

    /// Classify a windowed observation, ignoring hysteresis.
    fn classify(&self, rate: f64, frames: u64, errors: u64) -> Option<LinkHealth> {
        if frames < self.cfg.min_frames {
            return None; // not enough signal to make any call
        }
        Some(if errors < self.cfg.min_errors {
            LinkHealth::Healthy
        } else if rate >= self.cfg.corrupting_rate {
            LinkHealth::Corrupting
        } else if rate >= self.cfg.degraded_rate {
            LinkHealth::Degraded
        } else {
            LinkHealth::Healthy
        })
    }

    /// Feed one poll's frame/error counts (deltas, not cumulative).
    /// Returns a transition event when the state changes.
    pub fn observe(&mut self, t_ps: u64, frames: u64, errors: u64) -> Option<HealthEvent> {
        self.window_id += 1;
        self.win.push(errors, frames);
        let rate = self.win.rate();
        let (wf, we) = (self.win.den(), self.win.num());
        let class = self.classify(rate, wf, we)?;
        let next = match class.cmp(&self.state) {
            std::cmp::Ordering::Greater => class, // upgrade immediately
            std::cmp::Ordering::Less => {
                // downgrade only once the rate clears the hysteresis band
                // below the current state's entry threshold
                let clear = self.threshold(self.state) * self.cfg.clear_factor;
                if we < self.cfg.min_errors || rate <= clear {
                    class
                } else {
                    self.state
                }
            }
            std::cmp::Ordering::Equal => self.state,
        };
        if next == self.state {
            return None;
        }
        let ev = HealthEvent {
            t_ps,
            window_id: self.window_id,
            from: self.state,
            to: next,
            rate,
            frames: wf,
            errors: we,
        };
        self.state = next;
        Some(ev)
    }

    /// Feed cumulative `framesRxAll`/`framesRxOk` counters (the shape the
    /// switch driver exposes); the estimator differences them internally.
    /// Counters must be monotone; the first call is differenced from 0.
    pub fn observe_cumulative(
        &mut self,
        t_ps: u64,
        frames_rx_all: u64,
        frames_rx_ok: u64,
    ) -> Option<HealthEvent> {
        let (last_all, last_ok) = self.last_cum;
        let frames = frames_rx_all.saturating_sub(last_all);
        let ok = frames_rx_ok.saturating_sub(last_ok);
        self.last_cum = (frames_rx_all, frames_rx_ok);
        self.observe(t_ps, frames, frames.saturating_sub(ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            window_polls: 4,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn clean_link_stays_healthy() {
        let mut e = HealthEstimator::new(cfg());
        for i in 1..=20u64 {
            assert!(e.observe(i * 1_000, 1_000_000, 0).is_none());
        }
        assert_eq!(e.state(), LinkHealth::Healthy);
        assert_eq!(e.window_id(), 20);
    }

    #[test]
    fn single_error_is_noise() {
        let mut e = HealthEstimator::new(cfg());
        // one bad frame in the window: below min_errors, stays healthy
        assert!(e.observe(1, 1_000_000, 1).is_none());
        assert_eq!(e.state(), LinkHealth::Healthy);
    }

    #[test]
    fn burst_upgrades_within_one_window() {
        let mut e = HealthEstimator::new(cfg());
        let ev = e.observe(5, 1_000_000, 1_000).expect("transition");
        assert_eq!(ev.from, LinkHealth::Healthy);
        assert_eq!(ev.to, LinkHealth::Corrupting);
        assert_eq!(ev.window_id, 1);
        assert!((ev.rate - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn degraded_band_between_thresholds() {
        let mut e = HealthEstimator::new(cfg());
        // 1e-7: above degraded (1e-8), below corrupting (1e-6)
        let ev = e.observe(5, 100_000_000, 10).expect("transition");
        assert_eq!(ev.to, LinkHealth::Degraded);
    }

    #[test]
    fn hysteresis_blocks_flapping_downgrade() {
        let mut e = HealthEstimator::new(cfg());
        e.observe(1, 1_000_000, 1_000).unwrap(); // corrupting at 1e-3
                                                 // Heavy clean traffic dilutes the window toward the corrupting
                                                 // threshold; while the rate hovers at/just under it (and above
                                                 // the clear band at 5e-7) the state must not move.
        for t in 2..=5u64 {
            assert!(e.observe(t, 1_000_000_000, 700).is_none());
        }
        assert_eq!(e.state(), LinkHealth::Corrupting);
        // Clean polls push the dirty buckets out; once the rate falls
        // through the clear band the state steps back down.
        let mut last = None;
        for t in 6..=10u64 {
            if let Some(ev) = e.observe(t, 1_000_000_000, 0) {
                last = Some(ev);
            }
        }
        let ev = last.expect("downgrade");
        assert_eq!(ev.to, LinkHealth::Healthy);
        assert_eq!(e.state(), LinkHealth::Healthy);
    }

    #[test]
    fn idle_window_makes_no_call() {
        let mut e = HealthEstimator::new(cfg());
        e.observe(1, 1_000_000, 1_000).unwrap();
        // a near-idle link (below min_frames) must not flap to healthy
        let mut e2 = e.clone();
        for t in 2..=40u64 {
            assert!(e2.observe(t, 0, 0).is_none());
        }
        assert_eq!(e2.state(), LinkHealth::Corrupting);
    }

    #[test]
    fn min_errors_noise_floor_bounds_the_hysteresis_band() {
        // At the noise floor the error *count*, not the clear band,
        // governs both edges: one windowed error is never a signal, two
        // are, and once old errors slide out of the window the link is
        // released even while its rate still sits above the clear band.
        let mut e = HealthEstimator::new(cfg());
        // one error in a hundred million frames: below min_errors
        assert!(e.observe(1, 100_000_000, 1).is_none());
        // second error: window now holds exactly min_errors at 1e-8,
        // the degraded threshold — upgrade fires
        let up = e.observe(2, 100_000_000, 1).expect("at the floor");
        assert_eq!(
            (up.from, up.to),
            (LinkHealth::Healthy, LinkHealth::Degraded)
        );
        assert_eq!(up.errors, 2);
        // small clean polls keep the windowed rate inside the hysteresis
        // band (above clear = 0.5e-8): state must hold
        assert!(e.observe(3, 25_000_000, 0).is_none());
        assert!(e.observe(4, 25_000_000, 0).is_none());
        assert_eq!(e.state(), LinkHealth::Degraded);
        // poll 5 slides poll 1's error out: one windowed error is below
        // min_errors, so the link clears even though its rate (~5.7e-9)
        // is still above the clear band — the floor wins
        let down = e.observe(5, 25_000_000, 0).expect("floor releases");
        assert_eq!(
            (down.from, down.to),
            (LinkHealth::Degraded, LinkHealth::Healthy)
        );
        assert_eq!(down.errors, 1);
        assert!(down.rate > 0.5 * e.cfg.degraded_rate, "rate still in band");
    }

    #[test]
    fn ge_burst_straddling_a_window_boundary_clears_and_re_enters() {
        // A Gilbert-Elliott-style burst split across two polls: the
        // window boundary slides through the middle of the burst, so the
        // estimator must hold `Corrupting` while the first half is still
        // in the window, step down through `Degraded` as it exits, fully
        // clear, and then re-enter cleanly on the next burst.
        let mut e = HealthEstimator::new(cfg());
        let mut evs = Vec::new();
        let feed: &[(u64, u64)] = &[
            // degraded baseline: 2e-8, above activation
            (100_000_000, 2),
            (100_000_000, 2),
            (100_000_000, 2),
            (100_000_000, 2),
            // the burst, straddling polls 5 and 6
            (1_000_000, 300),
            (1_000_000, 300),
            // clean traffic drains the window
            (1_000_000_000, 0),
            (1_000_000_000, 0),
            (1_000_000_000, 0),
            (1_000_000_000, 0),
            // second burst after the full clear: re-entry
            (1_000_000, 2000),
            (100_000, 1500),
        ];
        for (i, &(frames, errors)) in feed.iter().enumerate() {
            if let Some(ev) = e.observe((i as u64 + 1) * 1_000, frames, errors) {
                evs.push((ev.window_id, ev.from, ev.to));
            }
        }
        use LinkHealth::{Corrupting as C, Degraded as D, Healthy as H};
        assert_eq!(
            evs,
            vec![
                (1, H, D), // baseline trips activation
                (5, D, C), // first burst half crosses corrupting
                (8, C, D), // held through poll 7 (rate ~5.5e-7 > clear),
                // released once the straddled half slides out
                (10, D, H), // window fully drained: clear
                (11, H, D), // re-entry: second burst trips activation...
                (12, D, C), // ...and crosses corrupting again
            ]
        );
    }

    #[test]
    fn cumulative_counters_difference_correctly() {
        let mut e = HealthEstimator::new(cfg());
        assert!(e.observe_cumulative(1, 1_000_000, 1_000_000).is_none());
        let ev = e
            .observe_cumulative(2, 2_000_000, 1_999_000)
            .expect("transition");
        assert!((ev.rate - 1_000.0 / 2_000_000.0).abs() < 1e-12);
        assert_eq!(ev.to, LinkHealth::Corrupting);
    }

    #[test]
    fn event_renders_valid_jsonl() {
        let ev = HealthEvent {
            t_ps: 42,
            window_id: 7,
            from: LinkHealth::Healthy,
            to: LinkHealth::Degraded,
            rate: 2.5e-8,
            frames: 100_000_000,
            errors: 3,
        };
        let line = ev.to_json_line("fig15/c50/CorrOptOnly", "fabric_link", "link:19");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("health_event"));
        assert_eq!(v.get("to").unwrap().as_str(), Some("degraded"));
        assert_eq!(v.get("window_id").unwrap().as_num(), Some(7.0));
    }
}
