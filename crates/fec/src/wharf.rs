//! The numerical Wharf goodput model behind Table 3.
//!
//! The paper reproduces Wharf's results numerically, "picking the Wharf
//! FEC parameters that gave their best-reported goodput for each loss
//! rate" (§4.7). We do the same: a `(k, r)` frame-group code costs
//! `r/(k+r)` of the link (enforced by Wharf's meter-based dropping), and
//! the transport sees the post-FEC residual loss rate. TCP goodput at a
//! given loss rate follows the Mathis throughput bound capped by the
//! remaining capacity.

use crate::group::GroupFec;
use lg_sim::Duration;
use serde::{Deserialize, Serialize};

/// Payload efficiency of a 1,500-byte-MTU TCP stream on Ethernet:
/// 1460 payload / 1538 on-wire bytes ≈ 0.949 (the 9.49 Gb/s ceiling in
/// Table 3's 10 G column).
pub const TCP_WIRE_EFFICIENCY: f64 = 1460.0 / 1538.0;

/// A Wharf `(k, r)` parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WharfParams {
    /// Data frames per group.
    pub k: u32,
    /// Parity frames per group.
    pub r: u32,
}

impl WharfParams {
    /// The configuration that gave Wharf's best *reported* goodput at each
    /// loss rate (Giesen et al., Fig 8) — what the paper's Table 3 uses.
    pub fn best_reported(loss_rate: f64) -> WharfParams {
        if loss_rate > 3e-3 {
            WharfParams { k: 10, r: 2 }
        } else {
            WharfParams { k: 25, r: 1 }
        }
    }
}

/// The numerical goodput model.
#[derive(Debug, Clone)]
pub struct WharfModel {
    /// Link capacity in Gb/s.
    pub capacity_gbps: f64,
    /// TCP round-trip time used in the Mathis bound.
    pub rtt: Duration,
    /// TCP maximum segment size.
    pub mss: u32,
}

impl WharfModel {
    /// Model for a 10 G link (the Table 3 setup) with a 100 µs RTT.
    pub fn table3() -> WharfModel {
        WharfModel {
            capacity_gbps: 10.0,
            rtt: Duration::from_us(100),
            mss: 1460,
        }
    }

    /// Mathis-bound TCP goodput (Gb/s) at packet loss rate `p` on a link
    /// with `available_gbps` of usable capacity.
    pub fn tcp_goodput_gbps(&self, p: f64, available_gbps: f64) -> f64 {
        let ceiling = available_gbps * TCP_WIRE_EFFICIENCY;
        if p <= 0.0 {
            return ceiling;
        }
        let mathis_bps = (self.mss as f64 * 8.0 / self.rtt.as_secs_f64()) * 1.22 / p.sqrt();
        (mathis_bps / 1e9).min(ceiling)
    }

    /// Wharf goodput (Gb/s) with explicit parameters at frame loss `p`.
    pub fn wharf_goodput_gbps(&self, params: WharfParams, p: f64) -> f64 {
        let fec = GroupFec::new(params.k, params.r);
        let residual = fec.residual_loss_rate_analytic(p);
        let available = self.capacity_gbps * (1.0 - fec.overhead());
        self.tcp_goodput_gbps(residual, available)
    }

    /// Wharf's goodput with its best-*reported* configuration for this
    /// loss rate (the paper's Table 3 methodology).
    pub fn best_wharf(&self, p: f64) -> (WharfParams, f64) {
        let params = WharfParams::best_reported(p);
        (params, self.wharf_goodput_gbps(params, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_goodput_hits_wire_efficiency_ceiling() {
        let m = WharfModel::table3();
        let g = m.tcp_goodput_gbps(0.0, 10.0);
        assert!((g - 9.49).abs() < 0.01, "{g}");
    }

    #[test]
    fn table3_wharf_row_reproduced() {
        // Paper Table 3, Wharf row: 9.13, 9.13, 9.13, 7.91 for losses
        // 1e-5, 1e-4, 1e-3, 1e-2.
        let m = WharfModel::table3();
        for p in [1e-5, 1e-4, 1e-3] {
            let (params, g) = m.best_wharf(p);
            assert!((g - 9.13).abs() < 0.02, "p={p:e}: {g} with {params:?}");
            assert_eq!(params, WharfParams { k: 25, r: 1 });
        }
        let (params, g) = m.best_wharf(1e-2);
        assert!((g - 7.91).abs() < 0.02, "p=1e-2: {g} with {params:?}");
        assert_eq!(params, WharfParams { k: 10, r: 2 });
    }

    #[test]
    fn raw_tcp_collapses_with_loss() {
        // qualitative match of Table 3's "None" row shape
        let m = WharfModel::table3();
        let g5 = m.tcp_goodput_gbps(1e-5, 10.0);
        let g3 = m.tcp_goodput_gbps(1e-3, 10.0);
        let g2 = m.tcp_goodput_gbps(1e-2, 10.0);
        assert!(g5 > 9.0, "{g5}");
        assert!(g3 < 5.0, "{g3}");
        assert!(g2 < g3);
        assert!(g2 > 1.0 && g2 < 2.0, "{g2}");
    }

    #[test]
    fn more_redundancy_helps_only_at_high_loss() {
        let m = WharfModel::table3();
        let light = WharfParams { k: 25, r: 1 };
        let heavy = WharfParams { k: 10, r: 2 };
        assert!(m.wharf_goodput_gbps(light, 1e-4) > m.wharf_goodput_gbps(heavy, 1e-4));
        assert!(m.wharf_goodput_gbps(heavy, 1e-2) > m.wharf_goodput_gbps(light, 1e-2));
    }
}
