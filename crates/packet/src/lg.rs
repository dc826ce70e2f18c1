//! LinkGuardian headers and control packets (§3.5, Appendix A).
//!
//! The sender switch adds a **3-byte data header** to every protected
//! packet: a 16-bit sequence number plus metadata (era bit, packet type).
//! The receiver switch adds a similar **3-byte ACK header** to piggyback
//! the cumulative ACK (`latestRxSeqNo`) on reverse-direction traffic.
//! Dedicated control packets carry loss notifications, explicit ACKs and
//! pause/resume backpressure.

use crate::seqno::SeqNo;
use serde::{Deserialize, Serialize};

/// Size of the LinkGuardian data header added to protected packets.
pub const DATA_HEADER_LEN: u32 = 3;
/// Size of the LinkGuardian ACK header piggybacked on reverse traffic.
pub const ACK_HEADER_LEN: u32 = 3;
/// Frame length of a minimum-sized explicit control packet (dummy /
/// explicit ACK / loss notification): a minimum Ethernet frame.
pub const CONTROL_FRAME_LEN: u32 = crate::eth::MIN_FRAME_LEN;

/// Type of a protected packet, carried in the data header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LgPacketType {
    /// First transmission of a protected packet.
    Original,
    /// A retransmitted copy (one of the N copies of Eq. 2).
    Retransmit,
    /// A self-replenishing dummy packet used for tail-loss detection (§3.2).
    Dummy,
}

/// The 3-byte LinkGuardian data header: 16-bit seqNo, era bit, packet type.
///
/// A dummy packet carries the sequence number of the *last transmitted*
/// protected packet so the receiver can detect a tail loss from the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LgData {
    /// Sequence number (with era) of this packet (or, for a dummy, of the
    /// last protected packet sent before it).
    pub seq: SeqNo,
    /// Original, retransmitted copy, or dummy.
    pub kind: LgPacketType,
}

/// The 3-byte LinkGuardian ACK header: cumulative `latestRxSeqNo` + era.
///
/// Piggybacked on reverse-direction traffic, or carried by a minimum-sized
/// explicit ACK packet from the self-replenishing ACK queue (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LgAck {
    /// Highest in-order-received protected sequence number.
    pub latest_rx: SeqNo,
    /// True when carried by a dedicated (explicit) ACK packet rather than
    /// piggybacked on a normal packet.
    pub explicit: bool,
}

/// Maximum number of consecutive losses one notification can report.
///
/// §3.5: the implementation provisions 5 one-bit `reTxReqs` registers,
/// which covers 99.9999% of loss events even at a 5% loss rate (Fig 20).
pub const MAX_CONSECUTIVE_LOSSES: u16 = 5;

/// A loss notification (Appendix A.1), sent receiver → sender through a
/// high-priority queue when a gap in sequence numbers is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossNotification {
    /// First missing sequence number.
    pub first_lost: SeqNo,
    /// Number of consecutive missing packets (1..=[`MAX_CONSECUTIVE_LOSSES`]).
    pub count: u16,
    /// The receiver's `latestRxSeqNo` at notification time, so the sender
    /// can also free acknowledged buffer entries.
    pub latest_rx: SeqNo,
}

/// A PFC-style pause/resume frame used by the backpressure mechanism
/// (§3.3/§3.5). The receiver switch generates these; the RX MAC of the
/// corrupting link on the sender switch absorbs them and pauses/resumes the
/// normal packet queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PauseFrame {
    /// True to pause the normal packet queue, false to resume it.
    pub pause: bool,
    /// Priority class the pause applies to (the normal packet queue's
    /// class; retransmissions ride a higher class and are never paused).
    pub class: u8,
}
