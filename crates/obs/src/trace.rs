//! Structured trace layer: compact records in a per-thread ring buffer
//! behind a runtime level filter.
//!
//! Emission sites use the [`lg_trace!`](crate::lg_trace) macro, which
//! checks [`enabled`] *before* evaluating any of its argument expressions,
//! so a disabled trace point costs one relaxed atomic load plus a
//! predictable branch — measured ≤1% on the world benchmark.
//!
//! Records land in a thread-local ring ([`TraceRing`]) with fixed capacity
//! and overwrite-oldest semantics: tracing a long run keeps the most
//! recent window, which is what a postmortem wants. Records within the
//! ring are strictly ordered by emission; wraparound never reorders them
//! (property-tested in `tests/prop.rs`).

use crate::json::JsonLine;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Runtime trace verbosity. Stored process-wide in an `AtomicU8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No records are emitted.
    Off = 0,
    /// Control-plane events only (loss notifications, pauses, timeouts,
    /// activation-plane decisions) — low volume.
    Ctl = 1,
    /// Every per-packet event (TX, RX, drops, buffering, delivery).
    Pkt = 2,
}

impl Level {
    /// Parse a `--trace-level` argument value.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" | "0" => Some(Level::Off),
            "ctl" | "1" => Some(Level::Ctl),
            "pkt" | "2" => Some(Level::Pkt),
            _ => None,
        }
    }
}

/// Which component emitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Comp {
    /// Switch egress port.
    Port = 0,
    /// A link direction (corruption happens here).
    Link = 1,
    /// LinkGuardian sender state machine.
    LgSender = 2,
    /// LinkGuardian receiver state machine.
    LgReceiver = 3,
    /// A host NIC / transport endpoint.
    Host = 4,
    /// Transport state machine (TCP/RDMA).
    Transport = 5,
    /// The packet pool.
    Pool = 6,
    /// The event loop itself.
    World = 7,
}

impl Comp {
    /// Stable lower-case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Comp::Port => "port",
            Comp::Link => "link",
            Comp::LgSender => "lg_sender",
            Comp::LgReceiver => "lg_receiver",
            Comp::Host => "host",
            Comp::Transport => "transport",
            Comp::Pool => "pool",
            Comp::World => "world",
        }
    }
}

/// What happened. The packet-lifecycle kinds are ordered roughly along a
/// packet's causal chain; [`postmortem`](crate::postmortem) renders them
/// in emission order regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Frame finished serializing out of a port.
    TxDone = 0,
    /// Frame survived the wire and arrived at the far switch.
    WireRx = 1,
    /// Frame was corrupted on the wire and dropped.
    CorruptDrop = 2,
    /// LG sender stamped a sequence number and mirrored into the Tx buffer.
    LgStamp = 3,
    /// LG receiver detected a sequence gap.
    GapDetect = 4,
    /// LG receiver emitted a LOSS_NOTIFICATION.
    LossNotify = 5,
    /// LG sender retransmitted a buffered packet from the recirc buffer.
    Retx = 6,
    /// LG sender received a notification for a packet no longer buffered.
    RetxMiss = 7,
    /// LG receiver buffered an out-of-order packet (ordered mode).
    Buffered = 8,
    /// LG receiver recovered a previously-lost sequence via retx.
    Recovered = 9,
    /// LG receiver dropped a duplicate retx copy.
    DupDrop = 10,
    /// LG receiver released a packet up the stack.
    Deliver = 11,
    /// Packet reached the destination host.
    HostDeliver = 12,
    /// Transport performed an end-to-end retransmission.
    E2eRetx = 13,
    /// LG receiver's tail timeout skipped an unrecoverable sequence.
    TimeoutSkip = 14,
    /// LG receiver sent pause (aux=1) or resume (aux=0) backpressure.
    Pause = 15,
    /// A pause/resume took effect at the sender-side port.
    PauseApply = 16,
    /// LG sender emitted a tail-loss-detection dummy.
    DummyTx = 17,
    /// Receiver Rx buffer overflow drop.
    RxOverflow = 18,
    /// The activation plane (the paper's `corruptd`; `lg-guardd` here)
    /// activated protection on a link (aux = Eq. 2 copies).
    CorruptdFlip = 19,
}

impl Kind {
    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TxDone => "tx_done",
            Kind::WireRx => "wire_rx",
            Kind::CorruptDrop => "corrupt_drop",
            Kind::LgStamp => "lg_stamp",
            Kind::GapDetect => "gap_detect",
            Kind::LossNotify => "loss_notify",
            Kind::Retx => "retx",
            Kind::RetxMiss => "retx_miss",
            Kind::Buffered => "buffered",
            Kind::Recovered => "recovered",
            Kind::DupDrop => "dup_drop",
            Kind::Deliver => "deliver",
            Kind::HostDeliver => "host_deliver",
            Kind::E2eRetx => "e2e_retx",
            Kind::TimeoutSkip => "timeout_skip",
            Kind::Pause => "pause",
            Kind::PauseApply => "pause_apply",
            Kind::DummyTx => "dummy_tx",
            Kind::RxOverflow => "rx_overflow",
            Kind::CorruptdFlip => "corruptd_flip",
        }
    }
}

/// One trace record: 32 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time in picoseconds.
    pub t_ps: u64,
    /// The packet's `uid` (0 when no packet is involved). Worlds normalize
    /// this to a per-world-relative value before publishing so JSONL stays
    /// deterministic across thread counts.
    pub uid: u64,
    /// Protocol sequence number (LG seq, TCP seq, PSN… per component), or 0.
    pub seq: u64,
    /// Kind-specific extra (pool slot index for packet events, pause state…).
    pub aux: u32,
    /// Component instance within its kind (port id, link direction, node id).
    pub inst: u16,
    /// Emitting component.
    pub comp: Comp,
    /// Event kind.
    pub kind: Kind,
}

impl TraceRecord {
    /// The record as one `trace` JSONL line.
    pub fn json_line(&self) -> String {
        let mut l = JsonLine::new();
        l.str("type", "trace")
            .u64("t_ps", self.t_ps)
            .str("comp", self.comp.name())
            .str("kind", self.kind.name())
            .u64("inst", u64::from(self.inst))
            .u64("uid", self.uid)
            .u64("seq", self.seq)
            .u64("aux", u64::from(self.aux));
        l.finish()
    }
}

/// One `trace` line per record, its uid mapped through `uid` (a world
/// publishes uids relative to its own base), then a `trace_summary`
/// line with the record and `dropped` counts. Nothing when there is
/// nothing to report.
pub fn to_jsonl(records: &[TraceRecord], dropped: u64, uid: impl Fn(u64) -> u64) -> Vec<String> {
    if records.is_empty() && dropped == 0 {
        return Vec::new();
    }
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| {
            TraceRecord {
                uid: uid(r.uid),
                ..*r
            }
            .json_line()
        })
        .collect();
    let mut s = JsonLine::new();
    s.str("type", "trace_summary")
        .u64("records", records.len() as u64)
        .u64("dropped", dropped);
    lines.push(s.finish());
    lines
}

/// Fixed-capacity overwrite-oldest ring of [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Index of the oldest record (== write position once full).
    head: usize,
    len: usize,
    /// Records overwritten since the last [`TraceRing::drain`].
    dropped: u64,
}

/// Default per-thread ring capacity (records; 32 B each → 2 MiB).
pub const DEFAULT_RING_CAP: usize = 1 << 16;

impl TraceRing {
    /// A ring holding at most `cap` records (`cap` ≥ 1).
    pub fn new(cap: usize) -> TraceRing {
        assert!(cap >= 1, "trace ring capacity must be >= 1");
        TraceRing {
            buf: Vec::new(),
            cap,
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Append a record, overwriting the oldest when full.
    pub fn push(&mut self, r: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
            self.len = self.buf.len();
            return;
        }
        self.buf[self.head] = r;
        self.head = (self.head + 1) % self.cap;
        self.dropped += 1;
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records overwritten (lost) since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Remove and return all records, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.clear();
        out
    }

    /// Copy out all records, oldest first, without clearing.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Discard all records and reset drop accounting.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
    }
}

/// Process-wide trace level. Relaxed ordering: the level only changes at
/// run boundaries (CLI setup / tests), never mid-simulation, so emission
/// sites need no synchronization beyond the load itself.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

thread_local! {
    static RING: RefCell<TraceRing> = RefCell::new(TraceRing::new(DEFAULT_RING_CAP));
}

/// Set the process-wide trace level.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// The current process-wide trace level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Ctl,
        _ => Level::Pkt,
    }
}

/// Whether records at `l` are currently emitted. This is THE hot-path
/// check: one relaxed `AtomicU8` load and a compare.
#[inline(always)]
pub fn enabled(l: Level) -> bool {
    LEVEL.load(Ordering::Relaxed) >= l as u8
}

/// Append `r` to this thread's ring. Callers must check [`enabled`] first
/// (the [`lg_trace!`](crate::lg_trace) macro does).
#[cold]
pub fn record(r: TraceRecord) {
    RING.with(|ring| ring.borrow_mut().push(r));
}

/// Resize this thread's ring (drops existing records).
pub fn set_ring_capacity(cap: usize) {
    RING.with(|ring| *ring.borrow_mut() = TraceRing::new(cap));
}

/// Drain this thread's ring, oldest first.
pub fn drain() -> Vec<TraceRecord> {
    RING.with(|ring| ring.borrow_mut().drain())
}

/// Copy this thread's ring without clearing (for invariant-trip dumps).
pub fn snapshot() -> Vec<TraceRecord> {
    RING.with(|ring| ring.borrow().snapshot())
}

/// Clear this thread's ring (worlds call this at construction so a ring
/// never mixes records from two worlds sharing a worker thread).
pub fn reset() {
    RING.with(|ring| ring.borrow_mut().clear());
}

/// Records overwritten on this thread since the last drain/reset.
pub fn dropped() -> u64 {
    RING.with(|ring| ring.borrow().dropped())
}

/// Emit a trace record if the given [`Level`] is enabled.
///
/// Arguments: `level, comp, kind, inst, t_ps, uid, seq, aux`. All value
/// expressions are evaluated **only when enabled**, so sites may
/// dereference the packet pool (`pool.get(id).uid`) for free on the
/// disabled path.
#[macro_export]
macro_rules! lg_trace {
    ($lvl:expr, $comp:expr, $kind:expr, $inst:expr, $t_ps:expr, $uid:expr, $seq:expr, $aux:expr) => {
        if $crate::trace::enabled($lvl) {
            $crate::trace::record($crate::trace::TraceRecord {
                t_ps: $t_ps,
                uid: $uid,
                seq: $seq as u64,
                aux: $aux as u32,
                inst: $inst as u16,
                comp: $comp,
                kind: $kind,
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            t_ps: i,
            uid: i,
            seq: i,
            aux: 0,
            inst: 0,
            comp: Comp::Port,
            kind: Kind::TxDone,
        }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let out = r.drain();
        let ids: Vec<u64> = out.iter().map(|x| x.t_ps).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_partial_fill_preserves_order() {
        let mut r = TraceRing::new(8);
        for i in 0..3 {
            r.push(rec(i));
        }
        let ids: Vec<u64> = r.snapshot().iter().map(|x| x.t_ps).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("pkt"), Some(Level::Pkt));
        assert_eq!(Level::parse("ctl"), Some(Level::Ctl));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Pkt > Level::Ctl);
    }

    #[test]
    fn jsonl_maps_uids_and_closes_with_a_summary() {
        assert!(to_jsonl(&[], 0, |u| u).is_empty(), "nothing to report");
        let lines = to_jsonl(&[rec(7), rec(9)], 3, |u| u - 6);
        assert_eq!(
            lines,
            vec![
                "{\"type\":\"trace\",\"t_ps\":7,\"comp\":\"port\",\"kind\":\"tx_done\",\
                 \"inst\":0,\"uid\":1,\"seq\":7,\"aux\":0}",
                "{\"type\":\"trace\",\"t_ps\":9,\"comp\":\"port\",\"kind\":\"tx_done\",\
                 \"inst\":0,\"uid\":3,\"seq\":9,\"aux\":0}",
                "{\"type\":\"trace_summary\",\"records\":2,\"dropped\":3}",
            ]
        );
        assert_eq!(to_jsonl(&[], 5, |u| u).len(), 1, "a drop is reported");
    }

    #[test]
    fn record_size_stays_compact() {
        assert!(std::mem::size_of::<TraceRecord>() <= 32);
    }

    #[test]
    fn macro_defers_argument_evaluation() {
        set_level(Level::Off);
        reset();
        let mut evaluated = false;
        lg_trace!(
            Level::Pkt,
            Comp::Port,
            Kind::TxDone,
            0,
            0,
            {
                evaluated = true;
                1u64
            },
            0u64,
            0u32
        );
        assert!(!evaluated, "disabled trace point must not evaluate args");
        set_level(Level::Pkt);
        lg_trace!(
            Level::Pkt,
            Comp::Port,
            Kind::TxDone,
            0,
            0,
            {
                evaluated = true;
                1u64
            },
            0u64,
            0u32
        );
        assert!(evaluated);
        assert_eq!(drain().len(), 1);
        set_level(Level::Off);
    }
}
