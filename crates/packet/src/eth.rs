//! Ethernet II framing constants.

/// Length of the Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: u32 = 14;
/// Length of the frame check sequence trailer.
pub const FCS_LEN: u32 = 4;
/// Preamble + start-of-frame delimiter + inter-frame gap, counted when
/// computing on-wire occupancy (the paper's "1,538 octets on wire" for a
/// 1,500-byte-MTU frame).
pub const WIRE_OVERHEAD: u32 = 20;
/// Minimum Ethernet frame length (header + payload + FCS).
pub const MIN_FRAME_LEN: u32 = 64;
/// Standard MTU (maximum L3 payload carried by one frame).
pub const MTU: u32 = 1500;
/// Frame length of a full-MTU frame (1500 + 14 + 4).
pub const MTU_FRAME_LEN: u32 = MTU + HEADER_LEN + FCS_LEN; // 1518

/// Frame length (incl. header and FCS) for an L3 payload of `l3_len` bytes,
/// respecting the 64-byte minimum.
pub const fn frame_len_for_payload(l3_len: u32) -> u32 {
    let len = l3_len + HEADER_LEN + FCS_LEN;
    if len < MIN_FRAME_LEN {
        MIN_FRAME_LEN
    } else {
        len
    }
}

/// On-wire bytes consumed by a frame of `frame_len` bytes.
pub const fn wire_len(frame_len: u32) -> u32 {
    frame_len + WIRE_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_wire_length_matches_paper() {
        // §4.6: "the standard MTU-sized frame is 1,538 octets on wire"
        assert_eq!(wire_len(MTU_FRAME_LEN), 1538);
        assert_eq!(MTU_FRAME_LEN, 1518);
    }

    #[test]
    fn min_frame_enforced() {
        assert_eq!(frame_len_for_payload(1), 64);
        assert_eq!(frame_len_for_payload(46), 64);
        assert_eq!(frame_len_for_payload(47), 65);
        assert_eq!(frame_len_for_payload(1500), 1518);
    }
}
