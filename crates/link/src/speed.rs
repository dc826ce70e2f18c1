//! Ethernet link speeds used throughout the reproduction.

use lg_sim::{Duration, Rate};
use serde::{Deserialize, Serialize};

/// The link speeds evaluated in the paper (Figures 1 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkSpeed {
    /// 10GBASE-SR (NRZ, 10.3125 GBd).
    G10,
    /// 25GBASE-SR (NRZ, 25.78125 GBd).
    G25,
    /// 50GBASE-SR (PAM4, 26.5625 GBd).
    G50,
    /// 100GBASE-SR4 (4 × 25G NRZ lanes).
    G100,
    /// 400GBASE-SR8 (8 × 50G PAM4 lanes).
    G400,
}

impl LinkSpeed {
    /// The MAC data rate.
    pub fn rate(self) -> Rate {
        match self {
            LinkSpeed::G10 => Rate::from_gbps(10),
            LinkSpeed::G25 => Rate::from_gbps(25),
            LinkSpeed::G50 => Rate::from_gbps(50),
            LinkSpeed::G100 => Rate::from_gbps(100),
            LinkSpeed::G400 => Rate::from_gbps(400),
        }
    }

    /// Time to put `wire_bytes` (frame + preamble + IFG) on the wire:
    /// every speed takes a whole number of picoseconds per byte, so this
    /// is [`Rate::serialize`] of [`LinkSpeed::rate`] without its `u128`
    /// division.
    #[inline]
    pub fn serialize(self, wire_bytes: u32) -> Duration {
        Duration::from_ps(u64::from(wire_bytes) * self.ps_per_byte())
    }

    /// Picoseconds one byte takes on the wire.
    fn ps_per_byte(self) -> u64 {
        match self {
            LinkSpeed::G10 => 800,
            LinkSpeed::G25 => 320,
            LinkSpeed::G50 => 160,
            LinkSpeed::G100 => 80,
            LinkSpeed::G400 => 20,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LinkSpeed::G10 => "10G",
            LinkSpeed::G25 => "25G",
            LinkSpeed::G50 => "50G",
            LinkSpeed::G100 => "100G",
            LinkSpeed::G400 => "400G",
        }
    }
}

impl core::fmt::Display for LinkSpeed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delays() {
        // MTU frame on wire = 1538 B: 1230.4 ns at 10G, 123.04 ns at 100G.
        assert_eq!(LinkSpeed::G10.serialize(1538).as_ps(), 1_230_400);
        assert_eq!(LinkSpeed::G100.serialize(1538).as_ps(), 123_040);
        assert_eq!(LinkSpeed::G25.serialize(1538).as_ps(), 492_160);
    }

    #[test]
    fn serialize_is_the_rate_division() {
        let speeds = [
            LinkSpeed::G10,
            LinkSpeed::G25,
            LinkSpeed::G50,
            LinkSpeed::G100,
            LinkSpeed::G400,
        ];
        for s in speeds {
            for n in (0..=u32::from(u16::MAX)).chain([u32::MAX]) {
                assert_eq!(
                    s.serialize(n),
                    s.rate().serialize(u64::from(n)),
                    "{s} {n} B"
                );
            }
        }
    }

    #[test]
    fn rates() {
        assert_eq!(LinkSpeed::G400.rate().bps(), 400_000_000_000);
        assert_eq!(LinkSpeed::G25.name(), "25G");
    }
}
