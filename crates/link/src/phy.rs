//! Optical PHY model: attenuation → pre-FEC BER → packet loss rate.
//!
//! Reproduces the *measurement* behind Figure 1 of the paper: packet loss
//! rate versus optical attenuation for 10GBASE-SR, 25GBASE-SR (with and
//! without FEC) and 50GBASE-SR transceivers over OM4 fiber with a Variable
//! Optical Attenuator.
//!
//! The model follows standard optical-receiver theory:
//!
//! * the received optical power falls linearly (in dB) with attenuation;
//! * the decision Q-factor (in dB) is the link's power margin minus the
//!   attenuation, minus a **baud-rate penalty** (receiver noise bandwidth
//!   scales with baud: `10·log10(baud/baud_ref)`) and a **modulation
//!   penalty** (PAM4 eyes are one third of the NRZ amplitude:
//!   `20·log10(3) ≈ 9.5 dB`);
//! * pre-FEC BER = `0.5·erfc(Q/√2)` with `Q = 10^(Q_dB/20)`;
//! * RS-FEC (see [`crate::fec`]) corrects symbol errors up to its budget,
//!   producing the characteristic post-FEC "cliff".
//!
//! This captures exactly the paper's observation: as speeds rise through
//! higher baudrate (10G→25G) and denser modulation (25G→50G), the same
//! attenuation produces far higher loss, and fixed-parameter FEC only
//! shifts the cliff rather than removing it.

use crate::fec::RsFec;
use serde::{Deserialize, Serialize};

/// Line modulation format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Modulation {
    /// Non-return-to-zero (2 levels).
    Nrz,
    /// 4-level pulse amplitude modulation.
    Pam4,
}

/// A transceiver model for the Fig 1 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transceiver {
    /// Marketing name, e.g. "25GBASE-SR".
    pub name: &'static str,
    /// Per-lane baud rate in GBd.
    pub baud_gbd: f64,
    /// Modulation format.
    pub modulation: Modulation,
    /// Link power margin in dB at zero attenuation, calibrated so the loss
    /// cliff falls where the paper's measurement places it.
    pub margin_db: f64,
    /// Optional PHY-layer FEC applied per codeword.
    pub fec: Option<RsFec>,
    /// Number of parallel PHY lanes (frame data is striped; for loss-rate
    /// purposes each bit sees the same per-lane BER).
    pub lanes: u32,
}

/// Reference baud for the noise-bandwidth penalty (10GBASE-SR).
const BAUD_REF_GBD: f64 = 10.3125;

/// Complementary error function (Abramowitz & Stegun 7.1.26-based, with
/// the symmetry `erfc(-x) = 2 - erfc(x)`). Max abs error ≈ 1.5e-7, adequate
/// for BER curves spanning 1e-15..1.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

impl Transceiver {
    /// 10GBASE-SR: NRZ at 10.3125 GBd, no FEC.
    pub fn base10g_sr() -> Transceiver {
        Transceiver {
            name: "10GBASE-SR",
            baud_gbd: 10.3125,
            modulation: Modulation::Nrz,
            // 10GBASE-SR receivers have the largest sensitivity margin of
            // the family (Fig 1: the 10G curve survives to ~17-18 dB).
            margin_db: 33.5,
            fec: None,
            lanes: 1,
        }
    }

    /// 25GBASE-SR without FEC: NRZ at 25.78125 GBd.
    pub fn base25g_sr() -> Transceiver {
        Transceiver {
            name: "25GBASE-SR",
            baud_gbd: 25.78125,
            modulation: Modulation::Nrz,
            margin_db: 31.0,
            fec: None,
            lanes: 1,
        }
    }

    /// 25GBASE-SR with RS(528,514) "KR4" FEC.
    pub fn base25g_sr_fec() -> Transceiver {
        Transceiver {
            fec: Some(RsFec::kr4()),
            name: "25GBASE-SR (FEC)",
            ..Transceiver::base25g_sr()
        }
    }

    /// 50GBASE-SR: PAM4 at 26.5625 GBd with mandatory RS(544,514) "KP4" FEC.
    pub fn base50g_sr_fec() -> Transceiver {
        Transceiver {
            name: "50GBASE-SR (FEC)",
            baud_gbd: 26.5625,
            modulation: Modulation::Pam4,
            margin_db: 32.5,
            fec: Some(RsFec::kp4()),
            lanes: 1,
        }
    }

    /// Decision Q-factor in dB at the given attenuation.
    pub fn q_db(&self, attenuation_db: f64) -> f64 {
        let baud_penalty = 10.0 * (self.baud_gbd / BAUD_REF_GBD).log10();
        let mod_penalty = match self.modulation {
            Modulation::Nrz => 0.0,
            Modulation::Pam4 => 20.0 * 3.0f64.log10(), // eye is 1/3 amplitude
        };
        self.margin_db - attenuation_db - baud_penalty - mod_penalty
    }

    /// Pre-FEC bit error rate at the given attenuation.
    pub fn pre_fec_ber(&self, attenuation_db: f64) -> f64 {
        let q = 10f64.powf(self.q_db(attenuation_db) / 20.0);
        (0.5 * erfc(q / core::f64::consts::SQRT_2)).clamp(1e-300, 0.5)
    }

    /// Packet loss rate for frames of `frame_bytes` at the given
    /// attenuation, including FEC if the transceiver has it.
    pub fn packet_loss_rate(&self, attenuation_db: f64, frame_bytes: u32) -> f64 {
        let ber = self.pre_fec_ber(attenuation_db);
        let bits = frame_bytes as f64 * 8.0;
        match &self.fec {
            // Without FEC the frame survives only if every bit survives.
            None => at_least_one(ber, bits),
            Some(fec) => fec.frame_loss_rate(ber, frame_bytes),
        }
    }
}

/// Numerically stable `1 - (1-p)^n` (probability at least one of `n`
/// independent events with probability `p` occurs).
pub fn at_least_one(p: f64, n: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    // 1 - exp(n * ln(1-p))
    -(n * (-p).ln_1p()).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004678).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
        // deep tail stays positive and tiny
        assert!(erfc(6.0) > 0.0 && erfc(6.0) < 1e-15);
    }

    #[test]
    fn at_least_one_stability() {
        assert_eq!(at_least_one(0.0, 1e6), 0.0);
        assert_eq!(at_least_one(1.0, 2.0), 1.0);
        // small p * n approximation: 1-(1-1e-12)^12304 ≈ 1.23e-8
        let p = at_least_one(1e-12, 12_304.0);
        assert!((p - 1.2304e-8).abs() / 1.2304e-8 < 1e-3);
    }

    #[test]
    fn ber_monotonic_in_attenuation() {
        let t = Transceiver::base25g_sr();
        let mut last = 0.0;
        for a in 0..20 {
            let ber = t.pre_fec_ber(a as f64);
            assert!(ber >= last, "BER must rise with attenuation");
            last = ber;
        }
    }

    #[test]
    fn faster_links_lose_more_at_equal_attenuation() {
        // The central claim of Fig 1: higher baud and denser modulation are
        // more susceptible at the same attenuation (pre-FEC).
        let a = 14.0;
        let b10 = Transceiver::base10g_sr().pre_fec_ber(a);
        let b25 = Transceiver::base25g_sr().pre_fec_ber(a);
        let b50 = Transceiver::base50g_sr_fec().pre_fec_ber(a);
        assert!(b10 < b25, "10G {b10:e} should beat 25G {b25:e}");
        assert!(b25 < b50, "25G {b25:e} should beat 50G-PAM4 {b50:e}");
    }

    #[test]
    fn fec_improves_loss_at_moderate_attenuation() {
        let plain = Transceiver::base25g_sr();
        let fec = Transceiver::base25g_sr_fec();
        // pick an attenuation where the unprotected link is degraded but
        // not destroyed
        let mut found = false;
        for a in 8..20 {
            let p_plain = plain.packet_loss_rate(a as f64, 1518);
            let p_fec = fec.packet_loss_rate(a as f64, 1518);
            if p_plain > 1e-8 && p_plain < 1e-2 {
                assert!(
                    p_fec < p_plain,
                    "at {a} dB: fec {p_fec:e} !< plain {p_plain:e}"
                );
                found = true;
            }
        }
        assert!(found, "no attenuation hit the comparison window");
    }

    #[test]
    fn loss_rate_scales_with_frame_size_without_fec() {
        let t = Transceiver::base25g_sr();
        let a = 13.0;
        let small = t.packet_loss_rate(a, 64);
        let big = t.packet_loss_rate(a, 1518);
        assert!(big > small);
    }

    #[test]
    fn fig1_shape_cliff_ordering() {
        // The attenuation at which each transceiver crosses 1e-6 loss must
        // be ordered: 50G(FEC) fails first, then 25G, then 25G(FEC),
        // then 10G — matching Figure 1's layout.
        let cross = |t: &Transceiver| -> f64 {
            let mut a = 0.0;
            while a < 30.0 {
                if t.packet_loss_rate(a, 1518) > 1e-6 {
                    return a;
                }
                a += 0.05;
            }
            30.0
        };
        let c50 = cross(&Transceiver::base50g_sr_fec());
        let c25 = cross(&Transceiver::base25g_sr());
        let c25f = cross(&Transceiver::base25g_sr_fec());
        let c10 = cross(&Transceiver::base10g_sr());
        assert!(c50 < c25, "50G cliff {c50} before 25G {c25}");
        assert!(c25 < c25f, "25G cliff {c25} before 25G-FEC {c25f}");
        assert!(c25f < c10, "25G-FEC cliff {c25f} before 10G {c10}");
        // and the cliffs should fall within Fig 1's 9–18 dB x-axis window
        for c in [c50, c25, c25f, c10] {
            assert!((8.0..19.0).contains(&c), "cliff at {c} dB out of window");
        }
    }
}
