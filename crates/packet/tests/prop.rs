//! Property-based tests for sequence-number arithmetic.

use lg_packet::seqno::{SeqNo, MAX_VALID_DISTANCE};
use proptest::prelude::*;

fn arb_seqno() -> impl Strategy<Value = SeqNo> {
    (any::<u16>(), any::<bool>()).prop_map(|(raw, era)| SeqNo::new(raw, era))
}

proptest! {
    #[test]
    fn seqno_advance_is_ordered(start in arb_seqno(), k in 1u32..(MAX_VALID_DISTANCE as u32)) {
        let later = start.advance(k);
        prop_assert!(start.is_before(later), "{start} < {later} for k={k}");
        prop_assert!(later.is_after(start));
        prop_assert_eq!(later.forward_dist(start) as u32, k);
    }

    #[test]
    fn seqno_comparison_antisymmetric(a in arb_seqno(), k in 1u32..(MAX_VALID_DISTANCE as u32)) {
        let b = a.advance(k);
        prop_assert!(!(a.is_after(b) && a.is_before(b)));
        prop_assert!(b.is_after(a) && !b.is_before(a));
    }

    #[test]
    fn seqno_succ_equals_advance_one(s in arb_seqno()) {
        prop_assert_eq!(s.succ(), s.advance(1));
    }
}
