//! The simulator's packet representation.
//!
//! Packets move between crates as structured metadata plus an honest
//! on-wire length. No header is ever encoded: frame lengths add up the
//! real header sizes (the constants beside [`Packet::tcp_frame_len`] and
//! `lg`'s 3-byte headers), so serialization delays and buffer byte
//! accounting match what hardware would see.

use crate::eth;
use crate::lg::{LgAck, LgData, LossNotification, PauseFrame, ACK_HEADER_LEN, DATA_HEADER_LEN};
use crate::rdma::{AethSyndrome, RdmaOpcode};
use crate::tcp::{SackList, TcpFlags};
use lg_sim::Time;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// ECN codepoints (RFC 3168). DCTCP requires ECT marking on data packets
/// and CE marking by switches above the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Ecn {
    /// Not ECN-capable transport.
    #[default]
    NotEct,
    /// ECN-capable transport (1).
    Ect1,
    /// ECN-capable transport (0).
    Ect0,
    /// Congestion experienced.
    Ce,
}

impl Ecn {
    /// True if this packet may be CE-marked by a congested queue.
    pub fn is_ect(self) -> bool {
        matches!(self, Ecn::Ect0 | Ecn::Ect1 | Ecn::Ce)
    }
}

/// Identifier of a simulation endpoint (host NIC) used for forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a flow (a TCP connection or an RDMA queue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

thread_local! {
    static NEXT_UID: Cell<u64> = const { Cell::new(1) };
}

fn next_uid() -> u64 {
    NEXT_UID.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    })
}

/// The uid the *next* packet created on this thread will receive.
///
/// The uid counter is thread-local and keeps running across worlds that
/// share a worker thread, so raw uids are not deterministic across
/// `--threads` values. Worlds capture this at construction as a base and
/// publish `uid - base + 1` in trace output, which is deterministic.
pub fn peek_next_uid() -> u64 {
    NEXT_UID.with(|c| c.get())
}

/// Advance this thread's uid counter past `n` uids, as if `n` packets
/// had been created (a computed run of periods creates none).
pub fn skip_uids(n: u64) {
    NEXT_UID.with(|c| c.set(c.get() + n));
}

/// A TCP segment's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpSegment {
    /// Owning connection.
    pub flow: FlowId,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Payload bytes carried.
    pub payload_len: u32,
    /// Cumulative ACK (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// SACK blocks on ACK segments (inline — no per-segment allocation).
    pub sack: SackList,
    /// True if this is a transport-layer retransmission (end-to-end, not
    /// LinkGuardian); used by the experiment probes that count e2e ReTx.
    pub is_retx: bool,
}

/// A UDP datagram's metadata (used by stress tests and as RoCE framing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpDatagram {
    /// Owning flow.
    pub flow: FlowId,
    /// Payload bytes carried.
    pub payload_len: u32,
    /// Application-level sequence number for loss accounting.
    pub seq: u64,
}

/// An RDMA RC data packet's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdmaSegment {
    /// Queue pair.
    pub flow: FlowId,
    /// Opcode (WRITE first/middle/last/only).
    pub opcode: RdmaOpcode,
    /// Packet sequence number.
    pub psn: u32,
    /// Payload bytes carried.
    pub payload_len: u32,
}

/// An RDMA RC acknowledgment's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdmaAck {
    /// Queue pair.
    pub flow: FlowId,
    /// ACK or NAK(sequence error).
    pub syndrome: AethSyndrome,
    /// The PSN this ACK/NAK refers to (cumulative for ACK; expected PSN for
    /// a sequence-error NAK).
    pub psn: u32,
}

/// LinkGuardian control packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LgControl {
    /// Receiver → sender: packets lost, please retransmit.
    LossNotification(LossNotification),
    /// Receiver → sender: explicit (non-piggybacked) cumulative ACK from
    /// the self-replenishing ACK queue. The ACK value rides in
    /// [`Packet::lg_ack`].
    ExplicitAck,
    /// Sender → receiver: self-replenishing dummy for tail-loss detection.
    /// The last-sent sequence number rides in [`Packet::lg_data`].
    Dummy,
    /// Receiver → sender: PFC-style pause/resume of the normal queue.
    Pause(PauseFrame),
}

/// What a packet carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// TCP segment.
    Tcp(TcpSegment),
    /// UDP datagram.
    Udp(UdpDatagram),
    /// RDMA data packet.
    Rdma(RdmaSegment),
    /// RDMA acknowledgment.
    RdmaAck(RdmaAck),
    /// LinkGuardian control.
    Lg(LgControl),
    /// Opaque filler of a given size (packet-generator stress traffic).
    Raw,
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id for tracing and de-duplication checks in tests. Copies
    /// made by LinkGuardian retransmission share the original's uid.
    pub uid: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Ethernet frame length in bytes (header + payload + FCS), *excluding*
    /// any LinkGuardian headers, which are accounted separately so they can
    /// be added and removed as the packet crosses a protected link.
    pub base_frame_len: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Payload metadata.
    pub payload: Payload,
    /// LinkGuardian data header, present while crossing a protected link.
    pub lg_data: Option<LgData>,
    /// LinkGuardian ACK header (piggybacked or explicit).
    pub lg_ack: Option<LgAck>,
    /// Creation timestamp (for FCT/latency accounting).
    pub created_at: Time,
}

/// IPv4 header length (no options).
const IPV4_HEADER_LEN: u32 = 20;
/// UDP header length (also the RoCEv2 carrier).
const UDP_HEADER_LEN: u32 = 8;
/// TCP header length without options.
const TCP_BASE_HEADER_LEN: u32 = 20;
/// RoCEv2 Base Transport Header length.
const BTH_LEN: u32 = 12;
/// RoCEv2 ACK Extended Transport Header length.
const AETH_LEN: u32 = 4;
/// RoCEv2 invariant CRC trailer length.
const ICRC_LEN: u32 = 4;

impl Packet {
    /// Current frame length including any attached LinkGuardian headers.
    pub fn frame_len(&self) -> u32 {
        self.base_frame_len
            + self.lg_data.map_or(0, |_| DATA_HEADER_LEN)
            + self.lg_ack.map_or(0, |_| ACK_HEADER_LEN)
    }

    /// On-wire length (frame + preamble + IFG) used for serialization time
    /// and link-utilization accounting.
    pub fn wire_len(&self) -> u32 {
        eth::wire_len(self.frame_len())
    }

    /// Frame length of a TCP segment with the given payload and SACK count.
    pub fn tcp_frame_len(payload_len: u32, n_sack: usize) -> u32 {
        // SACK option: kind(1) + len(1) + 8*n, NOP-padded to 4 bytes.
        let tcp_hdr = if n_sack == 0 {
            TCP_BASE_HEADER_LEN
        } else {
            TCP_BASE_HEADER_LEN + ((2 + 8 * n_sack).div_ceil(4) * 4) as u32
        };
        eth::frame_len_for_payload(IPV4_HEADER_LEN + tcp_hdr + payload_len)
    }

    /// Frame length of a UDP datagram with the given payload.
    pub fn udp_frame_len(payload_len: u32) -> u32 {
        eth::frame_len_for_payload(IPV4_HEADER_LEN + UDP_HEADER_LEN + payload_len)
    }

    /// Frame length of a RoCEv2 data packet with the given payload
    /// (IP + UDP + BTH + payload + ICRC).
    pub fn rdma_frame_len(payload_len: u32) -> u32 {
        eth::frame_len_for_payload(
            IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN + payload_len + ICRC_LEN,
        )
    }

    /// Frame length of a RoCEv2 ACK (IP + UDP + BTH + AETH + ICRC).
    pub fn rdma_ack_frame_len() -> u32 {
        eth::frame_len_for_payload(IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN + AETH_LEN + ICRC_LEN)
    }

    /// Build a TCP packet.
    pub fn tcp(src: NodeId, dst: NodeId, seg: TcpSegment, ecn: Ecn, now: Time) -> Packet {
        let frame = Self::tcp_frame_len(seg.payload_len, seg.sack.len());
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: frame,
            ecn,
            payload: Payload::Tcp(seg),
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// Build a UDP packet.
    pub fn udp(src: NodeId, dst: NodeId, dg: UdpDatagram, now: Time) -> Packet {
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: Self::udp_frame_len(dg.payload_len),
            ecn: Ecn::NotEct,
            payload: Payload::Udp(dg),
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// Build an RDMA data packet. RoCEv2 data is ECT-marked (DCQCN-style
    /// deployments run ECN) but our RDMA experiments use uncongested links,
    /// so the codepoint is informational.
    pub fn rdma(src: NodeId, dst: NodeId, seg: RdmaSegment, now: Time) -> Packet {
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: Self::rdma_frame_len(seg.payload_len),
            ecn: Ecn::Ect0,
            payload: Payload::Rdma(seg),
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// Build an RDMA acknowledgment packet.
    pub fn rdma_ack(src: NodeId, dst: NodeId, ack: RdmaAck, now: Time) -> Packet {
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: Self::rdma_ack_frame_len(),
            ecn: Ecn::NotEct,
            payload: Payload::RdmaAck(ack),
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// Build a raw filler frame of the given frame length (stress traffic).
    pub fn raw(src: NodeId, dst: NodeId, frame_len: u32, now: Time) -> Packet {
        debug_assert!(frame_len >= eth::MIN_FRAME_LEN);
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: frame_len,
            ecn: Ecn::NotEct,
            payload: Payload::Raw,
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// Build a minimum-sized LinkGuardian control packet.
    pub fn lg_control(src: NodeId, dst: NodeId, ctrl: LgControl, now: Time) -> Packet {
        Packet {
            uid: next_uid(),
            src,
            dst,
            base_frame_len: crate::lg::CONTROL_FRAME_LEN,
            ecn: Ecn::NotEct,
            payload: Payload::Lg(ctrl),
            lg_data: None,
            lg_ack: None,
            created_at: now,
        }
    }

    /// True for LinkGuardian dummy packets.
    pub fn is_lg_dummy(&self) -> bool {
        matches!(self.payload, Payload::Lg(LgControl::Dummy))
    }

    /// True for packets that carry end-to-end payload (i.e. that the
    /// experiment's delivered-goodput counters should include).
    pub fn is_data(&self) -> bool {
        match &self.payload {
            Payload::Tcp(t) => t.payload_len > 0,
            Payload::Udp(_) | Payload::Rdma(_) => true,
            Payload::Raw => true,
            _ => false,
        }
    }

    /// Payload bytes carried (zero for pure control).
    pub fn payload_len(&self) -> u32 {
        match &self.payload {
            Payload::Tcp(t) => t.payload_len,
            Payload::Udp(u) => u.payload_len,
            Payload::Rdma(r) => r.payload_len,
            Payload::Raw => self
                .base_frame_len
                .saturating_sub(eth::HEADER_LEN + eth::FCS_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lg::LgPacketType;
    use crate::seqno::SeqNo;

    fn mk_tcp(payload: u32) -> Packet {
        Packet::tcp(
            NodeId(1),
            NodeId(2),
            TcpSegment {
                flow: FlowId(1),
                seq: 0,
                payload_len: payload,
                ack: 0,
                flags: TcpFlags::default(),
                sack: SackList::new(),
                is_retx: false,
            },
            Ecn::Ect0,
            Time::ZERO,
        )
    }

    #[test]
    fn tcp_frame_len_matches_wire_encoding() {
        // 1448 payload + 20 IP + 20 TCP + 14 eth + 4 FCS = 1506
        assert_eq!(mk_tcp(1448).frame_len(), 1506);
        // full MSS for 1500 MTU with no options: 1460 payload -> 1518 frame
        assert_eq!(mk_tcp(1460).frame_len(), eth::MTU_FRAME_LEN);
    }

    #[test]
    fn ecn_capable_codepoints() {
        assert!(Ecn::Ect0.is_ect());
        assert!(Ecn::Ect1.is_ect());
        assert!(Ecn::Ce.is_ect());
        assert!(!Ecn::NotEct.is_ect());
    }

    /// Every frame length the engines read, as literals: the header-size
    /// constants are checked against numbers not computed from them.
    #[test]
    fn frame_length_table() {
        // payload -> frame length at 0..=4 SACK blocks
        let tcp: [(u32, [u32; 5]); 5] = [
            (0, [64, 70, 78, 86, 94]),
            (1, [64, 71, 79, 87, 95]),
            (143, [201, 213, 221, 229, 237]),
            (1448, [1506, 1518, 1526, 1534, 1542]),
            (1460, [1518, 1530, 1538, 1546, 1554]),
        ];
        for (payload, by_sack) in tcp {
            for (n, want) in by_sack.into_iter().enumerate() {
                assert_eq!(
                    Packet::tcp_frame_len(payload, n),
                    want,
                    "payload={payload} n_sack={n}"
                );
            }
        }
        for (payload, want) in [(0, 64), (18, 64), (1472, 1518)] {
            assert_eq!(Packet::udp_frame_len(payload), want, "udp {payload}");
        }
        for (payload, want) in [(0, 64), (1024, 1086), (4096, 4158)] {
            assert_eq!(Packet::rdma_frame_len(payload), want, "rdma {payload}");
        }
        assert_eq!(Packet::rdma_ack_frame_len(), 66);

        let data = LgData {
            seq: SeqNo::ZERO,
            kind: LgPacketType::Original,
        };
        let ack = LgAck {
            latest_rx: SeqNo::ZERO,
            explicit: true,
        };
        let ctl = Packet::lg_control(NodeId(1), NodeId(2), LgControl::ExplicitAck, Time::ZERO);
        let headers = [
            (None, None),
            (Some(data), None),
            (None, Some(ack)),
            (Some(data), Some(ack)),
        ];
        for (base, want) in [
            (
                mk_tcp(1460),
                [(1518, 1538), (1521, 1541), (1521, 1541), (1524, 1544)],
            ),
            (ctl, [(64, 84), (67, 87), (67, 87), (70, 90)]),
        ] {
            for ((lg_data, lg_ack), want) in headers.into_iter().zip(want) {
                let p = Packet {
                    lg_data,
                    lg_ack,
                    ..base.clone()
                };
                assert_eq!((p.frame_len(), p.wire_len()), want, "{p:?}");
            }
        }

        let raw = Packet::raw(NodeId(1), NodeId(2), 1538, Time::ZERO);
        assert_eq!(raw.payload_len(), 1492);
    }

    #[test]
    fn lg_header_adds_three_bytes() {
        let mut p = mk_tcp(1460);
        let base = p.frame_len();
        p.lg_data = Some(LgData {
            seq: SeqNo::ZERO,
            kind: LgPacketType::Original,
        });
        assert_eq!(p.frame_len(), base + 3);
        p.lg_ack = Some(LgAck {
            latest_rx: SeqNo::ZERO,
            explicit: false,
        });
        assert_eq!(p.frame_len(), base + 6);
        assert_eq!(p.wire_len(), base + 6 + eth::WIRE_OVERHEAD);
    }

    #[test]
    fn min_frame_applies_to_tiny_payloads() {
        // 143 B flows from the paper: 143 + 20 + 20 = 183 L2 payload -> 201 frame
        let p = mk_tcp(143);
        assert_eq!(p.frame_len(), 143 + 20 + 20 + 14 + 4);
        // 1-byte payload is padded to the 64-byte minimum
        assert_eq!(mk_tcp(1).frame_len(), 64);
    }

    #[test]
    fn rdma_frame_lengths() {
        let seg = RdmaSegment {
            flow: FlowId(9),
            opcode: RdmaOpcode::WriteOnly,
            psn: 0,
            payload_len: 1024,
        };
        let p = Packet::rdma(NodeId(1), NodeId(2), seg, Time::ZERO);
        // 1024 + 20 + 8 + 12 + 4(ICRC) + 14 + 4 = 1086
        assert_eq!(p.frame_len(), 1086);
        let a = Packet::rdma_ack(
            NodeId(2),
            NodeId(1),
            RdmaAck {
                flow: FlowId(9),
                syndrome: AethSyndrome::Ack,
                psn: 0,
            },
            Time::ZERO,
        );
        assert_eq!(a.frame_len(), 66); // 20+8+12+4+4 + 18 = 66
    }

    #[test]
    fn control_packets_are_min_sized() {
        let p = Packet::lg_control(NodeId(1), NodeId(2), LgControl::ExplicitAck, Time::ZERO);
        assert_eq!(p.frame_len(), 64);
        assert!(!p.is_data());
        assert!(
            Packet::lg_control(NodeId(1), NodeId(2), LgControl::Dummy, Time::ZERO).is_lg_dummy()
        );
    }

    #[test]
    fn uids_are_unique() {
        let a = mk_tcp(100);
        let b = mk_tcp(100);
        assert_ne!(a.uid, b.uid);
    }

    #[test]
    fn payload_len_accessor() {
        assert_eq!(mk_tcp(777).payload_len(), 777);
        let raw = Packet::raw(NodeId(1), NodeId(2), 1538, Time::ZERO);
        assert!(raw.is_data());
    }
}
