//! Automatic fallback (§5 "Automatic fallback"): LinkGuardian is designed
//! for the low corruption rates of Table 1. If a link's loss rate
//! suddenly escalates, preserving packet ordering becomes expensive
//! (deep reordering buffers, long pauses), so the monitoring plane should
//! demote the link — first to LinkGuardianNB, then to fully disabling
//! protection (and letting CorrOpt take the link out).
//!
//! This module adds that policy to the activation plane. It is an
//! implementation of the paper's *future work* sketch, driven by the same
//! windowed loss-rate estimate the activation path uses.

use crate::config::Mode;
use lg_sim::Time;
use serde::{Deserialize, Serialize};

/// The protection level the fallback controller selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtectionLevel {
    /// Full LinkGuardian, ordering preserved.
    Ordered,
    /// LinkGuardianNB: out-of-order recovery only.
    NonBlocking,
    /// Protection withdrawn; the link should be disabled/repaired.
    Off,
}

impl ProtectionLevel {
    /// The LinkGuardian mode, if any protection is still on.
    pub fn mode(self) -> Option<Mode> {
        match self {
            ProtectionLevel::Ordered => Some(Mode::Ordered),
            ProtectionLevel::NonBlocking => Some(Mode::NonBlocking),
            ProtectionLevel::Off => None,
        }
    }
}

/// Fallback thresholds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FallbackPolicy {
    /// Loss rate above which ordered mode is demoted to non-blocking
    /// (ordering cost grows with the loss rate; default 5e-3).
    pub nb_threshold: f64,
    /// Loss rate above which protection is withdrawn entirely
    /// (default 5e-2: even N = 6 copies cannot hold a 1e-8 target and the
    /// link must come out of service).
    pub off_threshold: f64,
    /// Consecutive polls a threshold must hold before acting (hysteresis
    /// against transient spikes).
    pub confirm_polls: u32,
}

impl Default for FallbackPolicy {
    fn default() -> FallbackPolicy {
        FallbackPolicy {
            nb_threshold: 5e-3,
            off_threshold: 5e-2,
            confirm_polls: 2,
        }
    }
}

/// A fallback decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackDecision {
    /// New protection level.
    pub to: ProtectionLevel,
    /// Loss rate that triggered the change.
    pub loss_rate: f64,
    /// When.
    pub at: Time,
}

/// Per-link fallback controller: feed it the windowed loss rate at each
/// poll; it emits a decision when the level changes.
#[derive(Debug)]
pub struct FallbackController {
    policy: FallbackPolicy,
    level: ProtectionLevel,
    streak_level: ProtectionLevel,
    streak: u32,
}

impl FallbackController {
    /// Controller starting at full (ordered) protection.
    pub fn new(policy: FallbackPolicy) -> FallbackController {
        FallbackController {
            policy,
            level: ProtectionLevel::Ordered,
            streak_level: ProtectionLevel::Ordered,
            streak: 0,
        }
    }

    /// The protection level currently in force.
    pub fn level(&self) -> ProtectionLevel {
        self.level
    }

    fn desired(&self, loss_rate: f64) -> ProtectionLevel {
        if loss_rate >= self.policy.off_threshold {
            ProtectionLevel::Off
        } else if loss_rate >= self.policy.nb_threshold {
            ProtectionLevel::NonBlocking
        } else {
            ProtectionLevel::Ordered
        }
    }

    /// Feed one poll's measured loss rate. Demotions require
    /// `confirm_polls` consecutive confirmations; promotions (loss rate
    /// recovered) require the same. Returns a decision when the level
    /// changes.
    pub fn poll(&mut self, loss_rate: f64, now: Time) -> Option<FallbackDecision> {
        let want = self.desired(loss_rate);
        if want == self.level {
            self.streak = 0;
            self.streak_level = self.level;
            return None;
        }
        if want == self.streak_level {
            self.streak += 1;
        } else {
            self.streak_level = want;
            self.streak = 1;
        }
        if self.streak >= self.policy.confirm_polls {
            self.level = want;
            self.streak = 0;
            return Some(FallbackDecision {
                to: want,
                loss_rate,
                at: now,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> FallbackController {
        FallbackController::new(FallbackPolicy::default())
    }

    #[test]
    fn stays_ordered_at_table1_rates() {
        let mut c = ctl();
        for (i, rate) in [1e-5, 1e-4, 1e-3, 4.9e-3].iter().enumerate() {
            assert!(c.poll(*rate, Time::from_secs(i as u64)).is_none());
        }
        assert_eq!(c.level(), ProtectionLevel::Ordered);
    }

    #[test]
    fn demotes_to_nb_after_confirmation() {
        let mut c = ctl();
        assert!(c.poll(1e-2, Time::from_secs(1)).is_none(), "first strike");
        let d = c.poll(1e-2, Time::from_secs(2)).expect("second confirms");
        assert_eq!(d.to, ProtectionLevel::NonBlocking);
        assert_eq!(c.level(), ProtectionLevel::NonBlocking);
        assert_eq!(d.to.mode(), Some(Mode::NonBlocking));
    }

    #[test]
    fn transient_spike_is_ignored() {
        let mut c = ctl();
        assert!(c.poll(1e-2, Time::from_secs(1)).is_none());
        assert!(c.poll(1e-4, Time::from_secs(2)).is_none(), "spike over");
        assert!(c.poll(1e-2, Time::from_secs(3)).is_none(), "streak reset");
        assert_eq!(c.level(), ProtectionLevel::Ordered);
    }

    #[test]
    fn catastrophic_loss_withdraws_protection() {
        let mut c = ctl();
        c.poll(0.1, Time::from_secs(1));
        let d = c.poll(0.1, Time::from_secs(2)).expect("confirmed");
        assert_eq!(d.to, ProtectionLevel::Off);
        assert_eq!(d.to.mode(), None);
    }

    #[test]
    fn recovers_back_to_ordered() {
        let mut c = ctl();
        c.poll(1e-2, Time::from_secs(1));
        c.poll(1e-2, Time::from_secs(2));
        assert_eq!(c.level(), ProtectionLevel::NonBlocking);
        assert!(c.poll(1e-4, Time::from_secs(3)).is_none());
        let d = c
            .poll(1e-4, Time::from_secs(4))
            .expect("promotion confirmed");
        assert_eq!(d.to, ProtectionLevel::Ordered);
    }

    #[test]
    fn mixed_streaks_do_not_leak() {
        let mut c = ctl();
        c.poll(1e-2, Time::from_secs(1)); // NB strike 1
        c.poll(0.1, Time::from_secs(2)); // Off strike 1 (resets NB streak)
        assert_eq!(c.level(), ProtectionLevel::Ordered);
        let d = c.poll(0.1, Time::from_secs(3)).expect("Off confirmed");
        assert_eq!(d.to, ProtectionLevel::Off);
    }
}
