//! LinkGuardian sequence numbers with era-bit wrap-around handling (§3.5).
//!
//! The dataplane header carries a 16-bit sequence number plus one "era bit"
//! that toggles each time the sequence number wraps around. When two
//! sequence numbers from *different* eras are compared, an "era correction"
//! subtracts `N/2` (N = 65,536) from both raw values before comparing. The
//! paper notes this is correct as long as the two numbers are less than
//! `N/2` apart, which LinkGuardian guarantees because the Tx buffer holds
//! far fewer than 32,768 outstanding packets.

use core::cmp::Ordering;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Size of the sequence-number space (16-bit).
pub const SEQ_SPACE: u32 = 1 << 16;
/// Maximum distance at which era-corrected comparison is valid.
pub const MAX_VALID_DISTANCE: u16 = (SEQ_SPACE / 2) as u16; // N/2 = 32768

/// A 16-bit sequence number tagged with its era bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SeqNo {
    raw: u16,
    era: bool,
}

impl SeqNo {
    /// The initial sequence number (raw 0, era 0).
    pub const ZERO: SeqNo = SeqNo { raw: 0, era: false };

    /// Construct from raw parts.
    pub const fn new(raw: u16, era: bool) -> SeqNo {
        SeqNo { raw, era }
    }

    /// The 16-bit raw value.
    pub const fn raw(self) -> u16 {
        self.raw
    }

    /// The era bit.
    pub const fn era(self) -> bool {
        self.era
    }

    /// The next sequence number, toggling the era on wrap-around.
    pub const fn succ(self) -> SeqNo {
        let (raw, wrapped) = self.raw.overflowing_add(1);
        SeqNo {
            raw,
            era: if wrapped { !self.era } else { self.era },
        }
    }

    /// Advance by `n` steps (`n` may exceed one wrap; each wrap toggles era).
    pub fn advance(self, n: u32) -> SeqNo {
        let total = self.raw as u32 + n;
        let wraps = total / SEQ_SPACE;
        SeqNo {
            raw: (total % SEQ_SPACE) as u16,
            era: self.era ^ (wraps % 2 == 1),
        }
    }

    /// Era-corrected raw value used for cross-era comparison.
    ///
    /// When comparing two sequence numbers of different eras, the paper
    /// subtracts `N/2` from both (wrapping), which maps the window spanning
    /// the wrap point onto a contiguous range.
    fn corrected(self) -> u16 {
        self.raw.wrapping_sub(MAX_VALID_DISTANCE)
    }

    /// Era-corrected comparison (the paper's §3.5 "era correction").
    ///
    /// Valid while the true distance between the two numbers is less than
    /// `N/2`; LinkGuardian's small buffers guarantee this.
    pub fn cmp_seq(self, other: SeqNo) -> Ordering {
        if self.era == other.era {
            self.raw.cmp(&other.raw)
        } else {
            self.corrected().cmp(&other.corrected())
        }
    }

    /// `self < other` under era-corrected comparison.
    pub fn is_before(self, other: SeqNo) -> bool {
        self.cmp_seq(other) == Ordering::Less
    }

    /// `self > other` under era-corrected comparison.
    pub fn is_after(self, other: SeqNo) -> bool {
        self.cmp_seq(other) == Ordering::Greater
    }

    /// Forward distance from `earlier` to `self` (number of `succ` steps),
    /// assuming `self` is at or after `earlier` within the valid window.
    pub fn forward_dist(self, earlier: SeqNo) -> u16 {
        self.raw.wrapping_sub(earlier.raw)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}e{}", self.raw, self.era as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succ_increments_and_wraps_era() {
        let s = SeqNo::new(65_534, false);
        let s1 = s.succ();
        assert_eq!(s1, SeqNo::new(65_535, false));
        let s2 = s1.succ();
        assert_eq!(s2, SeqNo::new(0, true));
        assert_eq!(s2.succ(), SeqNo::new(1, true));
    }

    #[test]
    fn advance_multiple_wraps() {
        let s = SeqNo::ZERO;
        assert_eq!(s.advance(SEQ_SPACE), SeqNo::new(0, true));
        assert_eq!(s.advance(2 * SEQ_SPACE), SeqNo::new(0, false));
        assert_eq!(s.advance(SEQ_SPACE + 5), SeqNo::new(5, true));
    }

    #[test]
    fn same_era_comparison_is_raw() {
        let a = SeqNo::new(10, false);
        let b = SeqNo::new(20, false);
        assert!(a.is_before(b));
        assert!(b.is_after(a));
        assert_eq!(a.cmp_seq(a), Ordering::Equal);
    }

    #[test]
    fn cross_era_comparison_with_correction() {
        // Near the wrap point: 65530 (era 0) should be before 5 (era 1).
        let old = SeqNo::new(65_530, false);
        let new = SeqNo::new(5, true);
        assert!(old.is_before(new));
        assert!(new.is_after(old));
        assert_eq!(new.forward_dist(old), 11);
    }

    #[test]
    fn forward_dist_across_wrap() {
        let a = SeqNo::new(65_535, false);
        let b = a.succ(); // 0, era 1
        assert_eq!(b.forward_dist(a), 1);
        assert_eq!(a.forward_dist(a), 0);
    }

    #[test]
    fn ordering_holds_through_long_walk() {
        // Walk 200k steps (3 wraps) and check each successor is "after".
        let mut s = SeqNo::ZERO;
        for _ in 0..200_000 {
            let n = s.succ();
            assert!(s.is_before(n), "{s} should be before {n}");
            assert!(n.is_after(s));
            s = n;
        }
    }
}
