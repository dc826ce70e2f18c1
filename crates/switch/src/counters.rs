//! Per-port MAC counters, matching what the paper's `corruptd` polls from
//! the switch driver (Appendix C): `framesRxOk` and `framesRxAll`, plus TX
//! counters used by the experiment harnesses to measure rates and loss,
//! and the LinkGuardian-specific counters the paper's dashboards read: retx
//! frames out, PFC-style pause frames in both directions, and the egress
//! queue-depth high-water mark.
//!
//! [`PortCounters`] implements [`lg_obs::Observe`], so worlds snapshot
//! ports into the metrics registry; the health estimator that drives
//! activation differences the same two Rx counters.

use lg_obs::{MetricSink, Observe};
use serde::{Deserialize, Serialize};

/// Port statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCounters {
    /// Frames received with a good FCS.
    pub frames_rx_ok: u64,
    /// All frames that arrived at the MAC, including corrupted ones.
    pub frames_rx_all: u64,
    /// Frames transmitted.
    pub frames_tx: u64,
    /// Payload-carrying frame bytes transmitted (frame lengths).
    pub bytes_tx: u64,
    /// Frame bytes received OK.
    pub bytes_rx_ok: u64,
    /// LinkGuardian retransmission frames transmitted (copies out of the
    /// recirc Tx buffer, including the n-copies burst).
    pub lg_retx_tx: u64,
    /// Pause/resume frames transmitted out of this port.
    pub pause_tx: u64,
    /// Pause/resume frames absorbed at this port.
    pub pause_rx: u64,
    /// High-water mark of the egress queue depth in bytes (all classes).
    pub queue_hwm_bytes: u64,
}

impl PortCounters {
    /// Record a good reception.
    pub fn rx_ok(&mut self, frame_len: u32) {
        self.frames_rx_all += 1;
        self.frames_rx_ok += 1;
        self.bytes_rx_ok += frame_len as u64;
    }

    /// Record a corrupted reception (FCS failure — frame dropped by MAC).
    pub fn rx_corrupt(&mut self) {
        self.frames_rx_all += 1;
    }

    /// Record a transmission.
    pub fn tx(&mut self, frame_len: u32) {
        self.frames_tx += 1;
        self.bytes_tx += frame_len as u64;
    }

    /// Record a transmitted LinkGuardian retransmission copy (in addition
    /// to the plain [`PortCounters::tx`] accounting).
    pub fn tx_lg_retx(&mut self) {
        self.lg_retx_tx += 1;
    }

    /// Record a transmitted pause/resume frame.
    pub fn tx_pause(&mut self) {
        self.pause_tx += 1;
    }

    /// Record an absorbed pause/resume frame.
    pub fn rx_pause(&mut self) {
        self.pause_rx += 1;
    }

    /// Fold an observed egress queue depth into the high-water mark.
    pub fn note_queue_depth(&mut self, bytes: u64) {
        self.queue_hwm_bytes = self.queue_hwm_bytes.max(bytes);
    }

    /// The loss rate observed between two snapshots: corrupted / all.
    pub fn loss_rate_since(&self, earlier: &PortCounters) -> f64 {
        let all = self.frames_rx_all - earlier.frames_rx_all;
        let ok = self.frames_rx_ok - earlier.frames_rx_ok;
        if all == 0 {
            0.0
        } else {
            (all - ok) as f64 / all as f64
        }
    }
}

impl Observe for PortCounters {
    fn observe(&self, m: &mut MetricSink) {
        m.counter("frames_rx_ok", self.frames_rx_ok);
        m.counter("frames_rx_all", self.frames_rx_all);
        m.counter("frames_tx", self.frames_tx);
        m.counter("bytes_tx", self.bytes_tx);
        m.counter("bytes_rx_ok", self.bytes_rx_ok);
        m.counter("lg_retx_tx", self.lg_retx_tx);
        m.counter("pause_tx", self.pause_tx);
        m.counter("pause_rx", self.pause_rx);
        m.gauge("queue_hwm_bytes", self.queue_hwm_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut c = PortCounters::default();
        c.rx_ok(100);
        c.rx_ok(200);
        c.rx_corrupt();
        c.tx(300);
        assert_eq!(c.frames_rx_all, 3);
        assert_eq!(c.frames_rx_ok, 2);
        assert_eq!(c.bytes_rx_ok, 300);
        assert_eq!(c.frames_tx, 1);
        assert_eq!(c.bytes_tx, 300);
    }

    #[test]
    fn lg_counters() {
        let mut c = PortCounters::default();
        c.tx(64);
        c.tx_lg_retx();
        c.tx_pause();
        c.rx_pause();
        c.note_queue_depth(500);
        c.note_queue_depth(200);
        assert_eq!(c.lg_retx_tx, 1);
        assert_eq!(c.pause_tx, 1);
        assert_eq!(c.pause_rx, 1);
        assert_eq!(c.queue_hwm_bytes, 500);
    }

    #[test]
    fn observes_into_registry() {
        let mut c = PortCounters::default();
        c.rx_ok(100);
        c.tx_lg_retx();
        c.note_queue_depth(300);
        let mut reg = lg_obs::MetricsRegistry::new();
        reg.record(7, "switch_port", "sw_tx:0", &c);
        assert_eq!(
            reg.latest_counter("switch_port", "sw_tx:0", "frames_rx_ok"),
            Some(1)
        );
        assert_eq!(
            reg.latest_counter("switch_port", "sw_tx:0", "lg_retx_tx"),
            Some(1)
        );
        assert_eq!(
            reg.latest_gauge("switch_port", "sw_tx:0", "queue_hwm_bytes"),
            Some((300, 300))
        );
    }

    #[test]
    fn windowed_loss_rate() {
        let mut c = PortCounters::default();
        for _ in 0..90 {
            c.rx_ok(100);
        }
        for _ in 0..10 {
            c.rx_corrupt();
        }
        let snapshot = c;
        assert!((c.loss_rate_since(&PortCounters::default()) - 0.1).abs() < 1e-12);
        // a new clean window reads zero loss
        for _ in 0..100 {
            c.rx_ok(100);
        }
        assert_eq!(c.loss_rate_since(&snapshot), 0.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let c = PortCounters::default();
        assert_eq!(c.loss_rate_since(&c), 0.0);
    }
}
