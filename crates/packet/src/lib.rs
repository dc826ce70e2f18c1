//! `lg-packet` — the simulator's packet model.
//!
//! The simulator exchanges [`Packet`] structs: typed header fields plus
//! an on-wire length summed from the real header sizes. Nothing is
//! encoded to or decoded from bytes.
//!
//! LinkGuardian-specific headers (§3.5 / Appendix A of the paper):
//!
//! * [`lg::LgData`] — the 3-byte data header (16-bit seqNo + era + type);
//! * [`lg::LgAck`] — the 3-byte ACK header (cumulative `latestRxSeqNo`);
//! * [`lg::LossNotification`], [`lg::PauseFrame`] — control packets;
//! * [`seqno::SeqNo`] — era-corrected sequence-number arithmetic.

pub mod eth;
pub mod lg;
pub mod packet;
pub mod pool;
pub mod rdma;
pub mod seqno;
pub mod tcp;

pub use packet::{
    peek_next_uid, Ecn, FlowId, LgControl, NodeId, Packet, Payload, RdmaAck, RdmaSegment,
    TcpSegment, UdpDatagram,
};
pub use pool::{PacketPool, PktId};
pub use seqno::SeqNo;
