//! RoCEv2 (RDMA over Converged Ethernet v2) packet kinds.
//!
//! We model the subset needed for one-sided `RDMA_WRITE` over a reliable
//! connection (RC): WRITE first/middle/last/only opcodes, per-packet PSNs,
//! and ACK/NAK with the go-back-N "PSN sequence error" NAK that makes RDMA
//! reordering-intolerant (§1, §4.3 of the paper). Frame lengths count the
//! BTH and AETH (`Packet::rdma_frame_len`, `Packet::rdma_ack_frame_len`).

use serde::{Deserialize, Serialize};

/// RC opcodes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RdmaOpcode {
    /// RC RDMA WRITE First.
    WriteFirst,
    /// RC RDMA WRITE Middle.
    WriteMiddle,
    /// RC RDMA WRITE Last.
    WriteLast,
    /// RC RDMA WRITE Only (single-packet message).
    WriteOnly,
    /// RC Acknowledge (carries an AETH).
    Acknowledge,
}

/// AETH syndrome: ACK or the NAK codes the simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AethSyndrome {
    /// Positive acknowledgment (cumulative up to the BTH PSN).
    Ack,
    /// NAK: PSN sequence error — the go-back-N trigger.
    NakSequenceError,
}
