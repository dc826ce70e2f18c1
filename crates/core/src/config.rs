//! LinkGuardian configuration (§3.5, §4, Appendix B.1).

use lg_link::LinkSpeed;
use lg_sim::Duration;
use serde::{Deserialize, Serialize};

/// Operation mode (§3, "Operation modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Default: preserve packet ordering with the receiver-side reordering
    /// buffer, backpressure and ackNoTimeout.
    Ordered,
    /// LinkGuardianNB: out-of-order retransmission; no reordering buffer,
    /// no backpressure, no timeout.
    NonBlocking,
}

/// Tunable parameters of one LinkGuardian instance (one protected link
/// direction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LgConfig {
    /// Protected link speed (determines default timeouts/thresholds).
    pub speed: LinkSpeed,
    /// Ordered (default) or non-blocking.
    pub mode: Mode,
    /// Operator-specified target effective loss rate (paper uses 1e-8).
    pub target_loss_rate: f64,
    /// The measured actual loss rate on the link, used with
    /// [`retx_copies`](crate::eq::retx_copies) to pick N.
    pub actual_loss_rate: f64,
    /// Receiver-side timeout after which an unrecoverable packet is
    /// skipped (§3.5 "Preventing transmission stalls").
    pub ack_timeout: Duration,
    /// Reordering-buffer depth at which a resume is sent (Algorithm 2).
    pub resume_threshold: u64,
    /// Reordering-buffer depth at which a pause is sent
    /// (resume + 2 MTU hysteresis, following DCQCN).
    pub pause_threshold: u64,
    /// Byte capacity of the sender Tx (recirculation) buffer.
    pub tx_buffer_cap: u64,
    /// Byte capacity of the receiver reordering (recirculation) buffer.
    pub rx_buffer_cap: u64,
    /// Copies of each dummy packet sent when the normal queue empties
    /// (multiple copies guard against bursty loss of the dummy itself, §5).
    pub dummy_copies: u32,
    /// Copies of each reverse-direction control packet (loss notification /
    /// explicit ACK / pause). 1 under unidirectional corruption; >1 when
    /// handling bidirectional corruption (§5).
    pub control_copies: u32,
    /// Extra dataplane delay (min, max; uniform) a retransmission incurs
    /// inside the recirculation-based Tx buffer before it reaches the
    /// high-priority queue. §5 identifies this as a hardware artifact of
    /// Tofino's recirculation buffering; we calibrate it so the measured
    /// loss-detection → recovery delay reproduces Fig 19 (2.5–6 µs at
    /// 25 G, 2–5.5 µs at 100 G).
    pub retx_extra_delay: (Duration, Duration),
}

/// 2 MTU of on-wire bytes, the hysteresis and the "small non-zero" target
/// level the backpressure aims to keep in the reordering buffer (Fig 6).
pub const TWO_MTU: u64 = 2 * 1538;

impl LgConfig {
    /// The paper's tuned parameters for a given speed (§4 "Parameters",
    /// Appendix B.1):
    ///
    /// * ackNoTimeout: 7.5 µs (25G) / 7 µs (100G);
    /// * resumeThreshold: 40 KB (25G) / 37 KB (100G);
    /// * pauseThreshold: resume + 2 MTU;
    /// * recirculation buffers restricted to 200 KB.
    pub fn for_speed(speed: LinkSpeed, actual_loss_rate: f64) -> LgConfig {
        let (ack_timeout, resume_threshold) = match speed {
            LinkSpeed::G25 => (Duration::from_ns(7_500), 40 * 1024),
            LinkSpeed::G100 => (Duration::from_ns(7_000), 37 * 1024),
            // Speeds the paper did not tune: scale the 25G numbers by the
            // serialization-time ratio, conservatively rounded up.
            LinkSpeed::G10 => (Duration::from_ns(9_000), 40 * 1024),
            LinkSpeed::G50 => (Duration::from_ns(7_200), 38 * 1024),
            LinkSpeed::G400 => (Duration::from_ns(6_800), 36 * 1024),
        };
        let retx_extra_delay = match speed {
            LinkSpeed::G25 | LinkSpeed::G10 => (Duration::from_ns(500), Duration::from_ns(3_300)),
            _ => (Duration::from_ns(800), Duration::from_ns(4_200)),
        };
        LgConfig {
            speed,
            mode: Mode::Ordered,
            target_loss_rate: 1e-8,
            actual_loss_rate,
            ack_timeout,
            resume_threshold,
            pause_threshold: resume_threshold + TWO_MTU,
            tx_buffer_cap: 200 * 1024,
            rx_buffer_cap: 200 * 1024,
            dummy_copies: 1,
            control_copies: 1,
            retx_extra_delay,
        }
    }

    /// Switch to the non-blocking (out-of-order) variant.
    pub fn non_blocking(mut self) -> LgConfig {
        self.mode = Mode::NonBlocking;
        self
    }

    /// Number of retransmitted copies per lost packet (Eq. 2).
    pub fn n_copies(&self) -> u32 {
        crate::eq::retx_copies(self.actual_loss_rate, self.target_loss_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_for_25g_and_100g() {
        let c25 = LgConfig::for_speed(LinkSpeed::G25, 1e-4);
        assert_eq!(c25.ack_timeout, Duration::from_ns(7_500));
        assert_eq!(c25.resume_threshold, 40 * 1024);
        assert_eq!(c25.pause_threshold, 40 * 1024 + TWO_MTU);

        let c100 = LgConfig::for_speed(LinkSpeed::G100, 1e-4);
        assert_eq!(c100.ack_timeout, Duration::from_ns(7_000));
        assert_eq!(c100.resume_threshold, 37 * 1024);
    }

    #[test]
    fn default_mode_preserves_order() {
        let c = LgConfig::for_speed(LinkSpeed::G100, 1e-3);
        assert_eq!(c.mode, Mode::Ordered);
        assert_eq!(c.non_blocking().mode, Mode::NonBlocking);
    }

    #[test]
    fn buffer_caps_match_testbed() {
        let c = LgConfig::for_speed(LinkSpeed::G100, 1e-3);
        assert_eq!(c.tx_buffer_cap, 200 * 1024);
        assert_eq!(c.rx_buffer_cap, 200 * 1024);
    }
}
