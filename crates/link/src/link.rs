//! The link abstraction used by the testbed: serialization + propagation
//! delay plus a per-direction corruption loss process.

use crate::loss::{LossModel, LossProcess};
use crate::speed::LinkSpeed;
use lg_sim::{Duration, Rng};

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// MAC rate.
    pub speed: LinkSpeed,
    /// One-way propagation delay (≈5 ns/m of fiber; datacenter runs of
    /// tens of meters give tens to hundreds of ns).
    pub propagation: Duration,
}

impl LinkConfig {
    /// A link of the given speed with a 100 ns propagation delay (~20 m).
    pub fn new(speed: LinkSpeed) -> LinkConfig {
        LinkConfig {
            speed,
            propagation: Duration::from_ns(100),
        }
    }
}

/// A (possibly corrupting) unidirectional link direction.
///
/// The testbed asks `transmit(wire_len)` for the serialization delay and
/// `deliver()` for the corruption verdict of each frame. Corrupted frames
/// are dropped at the receiving MAC (FCS failure), exactly how the
/// protocol observes corruption in the paper.
#[derive(Debug)]
pub struct LinkDirection {
    cfg: LinkConfig,
    loss: LossProcess,
}

impl LinkDirection {
    /// A healthy link direction.
    pub fn healthy(cfg: LinkConfig, rng: Rng) -> LinkDirection {
        LinkDirection {
            cfg,
            loss: LossProcess::new(LossModel::None, rng),
        }
    }

    /// A corrupting link direction with the given loss model.
    pub fn corrupting(cfg: LinkConfig, model: LossModel, rng: Rng) -> LinkDirection {
        LinkDirection {
            cfg,
            loss: LossProcess::new(model, rng),
        }
    }

    /// Serialization delay for a frame of `wire_bytes`.
    #[inline]
    pub fn serialize(&self, wire_bytes: u32) -> Duration {
        self.cfg.speed.serialize(wire_bytes)
    }

    /// One-way propagation delay.
    #[inline]
    pub fn propagation(&self) -> Duration {
        self.cfg.propagation
    }

    /// Total latency from start-of-transmission to full reception.
    #[inline]
    pub fn latency(&self, wire_bytes: u32) -> Duration {
        self.serialize(wire_bytes) + self.cfg.propagation
    }

    /// Decide whether the next transmitted frame survives. Returns `false`
    /// if it is corrupted (dropped by the receiving MAC).
    #[inline]
    pub fn deliver(&mut self) -> bool {
        !self.loss.should_drop()
    }

    /// Switch the corruption model (the "VOA knob").
    pub fn set_loss_model(&mut self, model: LossModel) {
        self.loss.set_model(model);
    }

    /// The underlying loss process statistics.
    pub fn loss(&self) -> &LossProcess {
        &self.loss
    }

    /// The underlying loss process, for drawing ahead
    /// ([`LossProcess::skip_clean`]).
    pub fn loss_mut(&mut self) -> &mut LossProcess {
        &mut self.loss
    }

    /// The link configuration.
    pub fn config(&self) -> LinkConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_link_delivers_everything() {
        let mut l = LinkDirection::healthy(LinkConfig::new(LinkSpeed::G100), Rng::new(1));
        assert!((0..10_000).all(|_| l.deliver()));
    }

    #[test]
    fn latency_includes_propagation() {
        let l = LinkDirection::healthy(LinkConfig::new(LinkSpeed::G100), Rng::new(1));
        assert_eq!(
            l.latency(1538),
            Duration::from_ps(123_040) + Duration::from_ns(100)
        );
    }

    #[test]
    fn corrupting_link_drops_at_rate() {
        let mut l = LinkDirection::corrupting(
            LinkConfig::new(LinkSpeed::G25),
            LossModel::Iid { rate: 0.01 },
            Rng::new(2),
        );
        let delivered = (0..100_000).filter(|_| l.deliver()).count();
        let rate = 1.0 - delivered as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.002, "observed {rate}");
    }

    #[test]
    fn voa_knob_changes_model_midstream() {
        let mut l = LinkDirection::healthy(LinkConfig::new(LinkSpeed::G25), Rng::new(3));
        assert!(l.deliver());
        l.set_loss_model(LossModel::Iid { rate: 1.0 });
        assert!(!l.deliver());
        l.set_loss_model(LossModel::None);
        assert!(l.deliver());
    }
}
