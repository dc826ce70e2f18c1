//! Packet-level fabric simulation, sharded across cores.
//!
//! The analytic [`run`](crate::run) models the year-long maintenance
//! study with per-link loss rollups; this module simulates the same
//! pod-structured fabric at *packet* granularity — per-frame loss
//! draws, store-and-forward egress queues, LinkGuardian's link-local
//! retransmission masking versus end-to-end recovery — and scales it
//! across cores with [`lg_sim::shard`]'s conservative-lookahead runner.
//!
//! ## Model
//!
//! Every link is one egress *cell*: a FIFO of frames, a busy flag, a
//! per-cell RNG for loss draws, and a frame loss rate (zero for healthy
//! links, a Table 1 draw for corrupting ones). Flows are generated per
//! (pod, fabric, ToR) source with exponential interarrivals, choose a
//! destination ToR (same-pod or, with [`PktFabricConfig::cross_pod`]
//! probability, another pod reached through a spine column), and dump
//! their frames into the first-hop FIFO. A frame that serializes
//! cleanly hands off to its next hop after
//! [`PktFabricConfig::hop_latency`]; a corrupted frame is either
//! retransmitted link-locally after the LinkGuardian recovery delay
//! (policy [`PktPolicy::LinkGuardian`], the loss never surfaces) or
//! dropped and re-injected at its source after an RTO (policy
//! [`PktPolicy::None`], the paper's end-to-end baseline).
//!
//! Only corrupting cells are *simulated* (`Arrive` → FIFO → `TxDone`):
//! their service draws a loss and may stall on a recovery. A healthy
//! cell is one FIFO of equal frames with nothing decided at service
//! time, so `on_arrive` serves it in closed form — `depart = max(now,
//! free_at) + ser`, one queue event per frame-hop instead of two — and
//! a new flow's frames reach their first hop as one `Burst` event.
//! Occupancy, cap, budget, trace and completion instants are exactly
//! the simulated cell's (DESIGN.md §20): only [`PktTotals::events`]
//! can tell the two apart.
//!
//! ## Determinism across shard layouts
//!
//! Byte-identical output at any `--shards`/`--threads` requires more
//! than the sorted mailbox exchange: it must not matter *which* queue
//! two same-instant events came out of. Three rules deliver that:
//!
//! * every RNG is seeded from the master seed and a *global* id (link
//!   or generator), never from shard-local state;
//! * every handler schedules strictly into the future (serialization,
//!   hop latency, recovery delay and RTO are all positive — a frame
//!   that serializes in 0 ps is rejected up front), so a tick's event
//!   set is closed before it runs;
//! * each shard drains a whole tick and sorts it by the
//!   layout-invariant key `(global link, kind, frame)` before
//!   dispatching, so queue insertion order (which *does* depend on the
//!   layout) never reaches the handlers.
//!
//! The cross-shard hop latency equals the local hop latency, so the
//! lookahead window is [`PktFabricConfig::hop_latency`] — the link
//! propagation + pipeline delay, exactly the conservative bound the
//! shard runner needs.
//!
//! ## Fabric-scale memory discipline
//!
//! At the paper's ~100K-link geometry, anything O(fabric) *per shard*
//! or O(flows) *per run* dominates the footprint, so:
//!
//! * shard lookup state is a *pod-span slab*: the partition assigns
//!   every shard a contiguous pod range, so its global→local link and
//!   generator indices live in a vector spanning only its own pods
//!   (`span_base` + span-sized slab), and shard routing uses the O(1)
//!   arithmetic [`PartitionMap`] instead of a global table;
//! * FCTs stream into a per-shard [`FctStream`] (fixed-size histogram
//!   plus exact top-K tail) merged deterministically at collect time;
//!   the retained per-flow vector is opt-in
//!   ([`PktFabricConfig::retain_fct`]) for differential tests;
//! * egress cells run under admission control: a layout-invariant
//!   per-cell frame cap plus a per-shard [`MemBudget`] charged before
//!   every enqueue and released on departure. A healthy cell's
//!   departures are not events: their `(instant, link)` keys wait in a
//!   calendar-ring ledger and are given back to the budget — in the
//!   canonical order, so exactly — only before a charge that would
//!   pass the high-water mark, the one place a stale `used` could be
//!   told from the true one (DESIGN.md §20, tie rule 2). A refused
//!   frame is dropped tail-first and re-injected at its source after
//!   the RTO — congestion loss surfaces to the transport under *both*
//!   policies (LinkGuardian only masks corruption), so runs still drain
//!   and every flow completes. Budget drops are layout-*dependent* (the
//!   quota is per shard); presets are sized so the budget never binds
//!   (`denials == 0`), keeping output byte-identical across layouts
//!   while still enforcing the bound.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use lg_obs::sink::PROFILE_STRIDE;
use lg_obs::trace::{Comp, Kind, TraceRecord, TraceRing, DEFAULT_RING_CAP};
use lg_obs::{postmortem, HealthConfig, HealthEstimator, HealthEvent, MemBudget};
use lg_sim::shard::{run_sharded, ShardMsg, ShardStats, ShardWorld};
use lg_sim::{Duration, EventQueue, Rate, Rng, Time};

use crate::fct::{FctDigest, FctStream};
use crate::partition::{partition, Partition, PartitionMap, PodGeom};
use crate::tracegen;

/// Loss-recovery policy for the packet-level run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktPolicy {
    /// Corrupted frames are dropped; the source re-injects the frame
    /// after `rto` (end-to-end recovery, the no-LG baseline).
    None,
    /// Corrupted frames are retransmitted link-locally after
    /// `lg_recovery`; the loss never surfaces to the transport.
    LinkGuardian,
}

/// Configuration of one packet-level fabric run.
#[derive(Debug, Clone)]
pub struct PktFabricConfig {
    /// Fabric geometry (link-id layout shared with the partitioner).
    pub geom: PodGeom,
    /// Shard count (clamped to `[1, n_links]`).
    pub shards: u32,
    /// Worker threads for the shard runner.
    pub threads: usize,
    /// Master seed; every stream forks from it by global id.
    pub seed: u64,
    /// Link speed (serialization delays).
    pub speed: Rate,
    /// Switch pipeline + propagation delay per hop handoff. This is the
    /// conservative lookahead of the sharded run.
    pub hop_latency: Duration,
    /// Flow generation stops at this instant; the run then drains.
    pub horizon: Time,
    /// Mean flow interarrival per (pod, fabric, ToR) generator.
    pub mean_interarrival: Duration,
    /// Mean flow size in frames (geometric, capped at 64).
    pub mean_flow_frames: f64,
    /// Frame payload size in bytes.
    pub frame_bytes: u16,
    /// Probability a flow leaves its pod through the spine.
    pub cross_pod: f64,
    /// Fraction of links corrupting (loss rates drawn from Table 1).
    pub corrupting_fraction: f64,
    /// Loss-recovery policy.
    pub policy: PktPolicy,
    /// LinkGuardian link-local recovery delay (NACK turnaround).
    pub lg_recovery: Duration,
    /// End-to-end retransmission timeout for the no-LG policy.
    pub rto: Duration,
    /// Cumulative per-link telemetry snapshot interval.
    pub sample_interval: Duration,
    /// Per-cell FIFO cap in frames (0 = unbounded). Layout-invariant
    /// drop-tail: a frame arriving at a full cell is dropped and
    /// re-injected at its source after `rto`.
    pub cell_cap_frames: u32,
    /// Egress-buffer byte budget per owned link; each shard runs one
    /// [`MemBudget`] of `mem_bytes_per_link × local links` charged
    /// before every enqueue (0 = unbounded). Per-shard, so budget
    /// drops are layout-dependent — size it to not bind (see module
    /// docs) when byte-identical output across layouts matters.
    pub mem_bytes_per_link: u64,
    /// Also retain the O(flows) per-flow FCT vector
    /// ([`PktFabricResult::fct`]). On for the small presets (the
    /// differential tests need it); off at fabric scale.
    pub retain_fct: bool,
    /// Per-shard observability (trace ring, link-health estimators,
    /// sampled self-profiling). Entirely observational: enabling any of
    /// it changes no RNG draw, no event, no non-telemetry result field.
    pub telemetry: PktTelemetryConfig,
}

/// Per-shard observability of a packet run. Each shard owns its own
/// trace ring (drained at window close), its own health estimators over
/// the corrupting cells it hosts, and its own profiling accumulators;
/// everything merges layout-invariantly at collect time (same sorted-
/// merge discipline as the FCT digest), except the wall-clock profile,
/// which is inherently nondeterministic and excluded from
/// [`PktFabricResult::simulation_eq`].
#[derive(Debug, Clone, Default)]
pub struct PktTelemetryConfig {
    /// Record packet-lifecycle trace events (corruption drops,
    /// link-local recoveries, admission refusals, and deliveries of
    /// frames that were previously dropped/recovered) into a per-shard
    /// [`TraceRing`].
    pub trace: bool,
    /// Per-shard ring capacity (0 = [`DEFAULT_RING_CAP`]). Trace volume
    /// is O(loss events), not O(frames); the merged log is
    /// layout-invariant only while no ring overwrites
    /// ([`PktFabricResult::trace_dropped`]` == 0` — the same sizing
    /// philosophy as the memory budget's `denials == 0`).
    pub trace_cap: usize,
    /// Run a per-link [`HealthEstimator`] over every corrupting cell,
    /// observed from cumulative frame/error counters at each telemetry
    /// sample. Estimator inputs are simulation counters, so the merged
    /// event stream is layout-invariant.
    pub health: Option<HealthConfig>,
    /// Sampled per-event-kind wall-clock attribution (every 64th event
    /// is timed). Merged additively; excluded from `simulation_eq`.
    pub profile: bool,
}

impl PktTelemetryConfig {
    /// Health thresholds tuned for packet-granularity µs horizons:
    /// per-link frame counts are thousands, not the analytic path's
    /// hundreds of millions, so the windows are short and the rate
    /// thresholds sit in the Table 1 heavy-loss decades where a µs run
    /// can actually resolve them.
    pub fn packet_health() -> HealthConfig {
        HealthConfig {
            degraded_rate: 1e-4,
            corrupting_rate: 5e-3,
            clear_factor: 0.5,
            window_polls: 4,
            min_frames: 32,
            min_errors: 1,
        }
    }
}

impl PktFabricConfig {
    /// A pod-scale default: 8 pods × (16·4 + 4·16) = 1024 links at
    /// 100G, tuned so a run is seconds, not minutes, on one core.
    pub fn pod_scale(seed: u64) -> PktFabricConfig {
        PktFabricConfig {
            geom: PodGeom {
                pods: 8,
                tors: 16,
                fabrics: 4,
                uplinks: 16,
            },
            shards: 1,
            threads: 1,
            seed,
            speed: Rate::from_gbps(100),
            hop_latency: Duration::from_ns(600),
            horizon: Time::from_ms(2),
            mean_interarrival: Duration::from_us(30),
            mean_flow_frames: 8.0,
            frame_bytes: 1500,
            cross_pod: 0.3,
            corrupting_fraction: 0.10,
            policy: PktPolicy::LinkGuardian,
            lg_recovery: Duration::from_us(2),
            rto: Duration::from_ms(1),
            sample_interval: Duration::from_us(500),
            cell_cap_frames: 0,
            mem_bytes_per_link: 0,
            retain_fct: true,
            telemetry: PktTelemetryConfig::default(),
        }
    }

    /// The paper's §4.8 geometry at packet granularity: 260 pods ×
    /// (48·4 + 4·48) = 99,840 links, Table 1 loss rates on 2% of them,
    /// run under the fabric-scale memory discipline — streaming FCTs
    /// only (no retained vector), a 256-frame cell cap and a 64 KB/link
    /// shard budget. The horizon is short (it is a *scale* preset, not
    /// a duration preset): ~100K links already yield millions of events
    /// in 400 µs.
    pub fn fabric_scale(seed: u64) -> PktFabricConfig {
        PktFabricConfig {
            geom: PodGeom::paper_scale(),
            shards: 8,
            threads: 1,
            seed,
            speed: Rate::from_gbps(100),
            hop_latency: Duration::from_ns(600),
            horizon: Time::from_us(400),
            mean_interarrival: Duration::from_us(60),
            mean_flow_frames: 8.0,
            frame_bytes: 1500,
            cross_pod: 0.3,
            corrupting_fraction: 0.02,
            policy: PktPolicy::LinkGuardian,
            lg_recovery: Duration::from_us(2),
            rto: Duration::from_ms(1),
            sample_interval: Duration::from_us(200),
            cell_cap_frames: 256,
            mem_bytes_per_link: 64 * 1024,
            retain_fct: false,
            telemetry: PktTelemetryConfig::default(),
        }
    }

    /// Refuse a run the engine cannot keep its contracts on: a zero
    /// lookahead or a 0 ps frame breaks the closed-tick rule, and the
    /// snapshot count and the shard quota must fit their words.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, msg: &str| ok.then_some(()).ok_or_else(|| msg.to_string());
        let n_links = self.geom.n_links() as u64;
        check(n_links > 0, "empty fabric")?;
        check(self.geom.tors >= 2, "need at least two ToRs per pod")?;
        check(
            self.hop_latency.as_ps() > 0,
            "hop latency must be > 0: it is the lookahead",
        )?;
        check(
            self.lg_recovery >= self.hop_latency && self.rto >= self.hop_latency,
            "recovery delays below the hop latency would violate the lookahead contract",
        )?;
        check(
            self.sample_interval.as_ps() > 0 && self.mean_interarrival.as_ps() > 0,
            "sample_interval and mean_interarrival must be > 0",
        )?;
        check(
            self.mean_flow_frames >= 1.0,
            &format!(
                "mean_flow_frames must be >= 1 (got {}): it is the mean of a geometric frame count",
                self.mean_flow_frames
            ),
        )?;
        check(
            self.speed.bps() > 0 && self.speed.serialize(self.frame_bytes as u64).as_ps() > 0,
            &format!(
                "a {} B frame must take at least 1 ps to serialize at {} b/s (closed-tick rule)",
                self.frame_bytes,
                self.speed.bps()
            ),
        )?;
        check(
            (0.0..=1.0).contains(&self.cross_pod)
                && (0.0..=1.0).contains(&self.corrupting_fraction),
            "cross_pod and corrupting_fraction must be in [0, 1]",
        )?;
        check(
            self.horizon.as_ps() / self.sample_interval.as_ps() <= u32::MAX as u64,
            "horizon / sample_interval must fit in u32 snapshots: raise sample_interval",
        )?;
        check(
            self.mem_bytes_per_link == 0 || self.mem_bytes_per_link >= self.frame_bytes as u64,
            "a budget below one frame per link could never admit anything",
        )?;
        check(
            self.mem_bytes_per_link.checked_mul(n_links).is_some(),
            "mem_bytes_per_link x links overflows the shard quota",
        )
    }
}

/// Frames per flow are capped so a single burst cannot monopolize a
/// FIFO and flow keys stay dense in 8 bits.
const MAX_FLOW_FRAMES: u64 = 64;

/// Tail-reservoir depth of each shard's streaming FCT aggregator: the
/// largest `FCT_TAIL_K` FCTs are kept exactly.
const FCT_TAIL_K: usize = 65_536;

/// One frame in flight. Carries its whole route so any shard can
/// forward it without global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    /// Globally unique: `flow << 8 | index`, the flow id being
    /// `generator << 24 | per-generator counter`.
    key: u64,
    /// Flow start instant (FCT epoch; survives source re-injection).
    start: Time,
    /// Route as global link ids; `u32::MAX` past `n_hops`.
    hops: [u32; 4],
    /// Current hop index.
    hop: u8,
    /// Hops in the route (2 same-pod, 4 cross-pod).
    n_hops: u8,
    /// Frames in the flow (destination-side completion count).
    frames: u16,
    /// The frame has already hit a trace-worthy event (drop, recovery,
    /// admission refusal), so its eventual delivery is traced too —
    /// completing the postmortem span while keeping trace volume
    /// O(loss events). Travels with the frame across shard mailboxes,
    /// which is what keeps cross-shard uid chains intact.
    traced: bool,
}

/// "No frame" in the intrusive slot chains.
const NIL: u32 = u32::MAX;

/// One slab slot: a frame plus the link that threads it into the chain
/// it is waiting in — its flow's burst on the way to the first hop,
/// then the FIFO of the corrupting cell it is queued at.
struct Slot {
    frame: Frame,
    next: u32,
}

/// A shard's private frame store (the shape of `lg_packet::PacketPool`:
/// slots plus a free list). A frame is written once when it enters the
/// shard and its slot freed when it leaves — delivered, or copied out
/// into a [`PktMsg`] for a foreign next hop; events and FIFOs carry the
/// slot id. A slot id never crosses a mailbox.
#[derive(Default)]
struct FrameSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl FrameSlab {
    fn insert(&mut self, frame: Frame, next: u32) -> u32 {
        let slot = Slot { frame, next };
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = slot;
            id
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        }
    }

    fn remove(&mut self, id: u32) -> Frame {
        self.free.push(id);
        self.slots[id as usize].frame
    }
}

/// log2 of a ledger slot's width in ps: 4.096 ns, a thirtieth of a
/// 1500 B frame at 100G — at the scale preset's ≈ 0.8 departures per ns
/// per shard a slot chains three or four keys, so the scan of `now`'s
/// slot stays a handful of compares.
const DEP_SLOT_SHIFT: u32 = 12;
/// Ledger ring slots: 2^13 × 4.096 ns = 33.5 µs, past the deepest
/// backlog the scale preset can admit (256-frame cap × 120 ns =
/// 30.7 µs), so with a cap in force every key lands in the ring.
const DEP_SLOTS: u64 = 1 << 13;

/// One pending release: its exact key and the link of its slot's chain
/// (or of the free list).
struct DepNode {
    ps: u64,
    link: u32,
    next: u32,
}

/// The `(departure ps, global link)` of every frame a healthy cell has
/// admitted and the shard's budget has not yet been given back: a
/// one-level calendar ring of unordered chains over an arena with a
/// free list, plus a heap for keys past the ring's horizon (no cell
/// cap, slow links), as `EventQueue`'s overflow heap. It holds no
/// events and dispatches nothing; [`Departures::settle`] only counts.
struct Departures {
    /// Chain head per ring slot, indexed by `(ps >> DEP_SLOT_SHIFT) %
    /// DEP_SLOTS`.
    heads: Vec<u32>,
    nodes: Vec<DepNode>,
    free: u32,
    /// Absolute slot (`ps >> DEP_SLOT_SHIFT`) of the last settle: every
    /// ring key's slot is in `[base, base + DEP_SLOTS)`.
    base: u64,
    ring_len: u32,
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Departures {
    fn new() -> Departures {
        Departures {
            heads: vec![NIL; DEP_SLOTS as usize],
            nodes: Vec::new(),
            free: NIL,
            base: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
        }
    }

    /// File a key above every `settle` so far (a departure is later
    /// than the arrival that computes it).
    fn push(&mut self, ps: u64, link: u32) {
        let slot = ps >> DEP_SLOT_SHIFT;
        debug_assert!(slot >= self.base, "departure below the settled instant");
        if slot - self.base >= DEP_SLOTS {
            self.far.push(Reverse((ps, link)));
            return;
        }
        let head = &mut self.heads[(slot % DEP_SLOTS) as usize];
        let node = DepNode {
            ps,
            link,
            next: *head,
        };
        if self.free == NIL {
            *head = self.nodes.len() as u32;
            self.nodes.push(node);
        } else {
            *head = self.free;
            self.free = std::mem::replace(&mut self.nodes[*head as usize], node).next;
        }
        self.ring_len += 1;
    }

    /// Remove every key `<= (now_ps, link)` and return how many there
    /// were. Calls come in nondecreasing key order (the canonical
    /// dispatch order), so the slots before `now`'s hold nothing else
    /// and only `now`'s own is split by the comparison.
    fn settle(&mut self, now_ps: u64, link: u32) -> u64 {
        let (upto, now_slot) = ((now_ps, link), now_ps >> DEP_SLOT_SHIFT);
        let before = self.ring_len;
        let mut slot = self.base;
        while self.ring_len > 0 && slot <= now_slot {
            let head = (slot % DEP_SLOTS) as usize;
            let mut id = std::mem::replace(&mut self.heads[head], NIL);
            while id != NIL {
                let node = &mut self.nodes[id as usize];
                let next = node.next;
                if (node.ps, node.link) <= upto {
                    node.next = std::mem::replace(&mut self.free, id);
                    self.ring_len -= 1;
                } else {
                    node.next = std::mem::replace(&mut self.heads[head], id);
                }
                id = next;
            }
            slot += 1;
        }
        // An emptied ring ends the walk early: jump.
        self.base = self.base.max(now_slot);
        let mut far = 0;
        while self.far.peek().is_some_and(|d| d.0 <= upto) {
            self.far.pop();
            far += 1;
        }
        (before - self.ring_len) as u64 + far
    }
}

/// Events of the packet-level world. Same-instant batches are sorted by
/// [`canon_key`] before dispatch, so variants only need to be
/// self-describing — handlers never rely on queue order.
#[derive(Debug, Clone, Copy)]
enum PEv {
    /// Telemetry snapshot `sample_idx` of every local corrupting cell.
    Sample { idx: u32 },
    /// The corrupting cell finished serializing its head frame.
    TxDone { link: u32 },
    /// The frame in slab slot `frame` reaches the ingress of `hops[hop]`.
    Arrive { frame: u32 },
    /// A new flow's frames — the slot chain from `head` — reach their
    /// first hop: what one `Arrive` per frame would do, in one event.
    Burst { head: u32 },
    /// Generator `gen` (global id) emits a flow and reschedules itself.
    FlowStart { gen: u32 },
}

/// Shard-layout-invariant dispatch key for one tick's events: cells in
/// global-link order; within a cell the serializer completion runs
/// before new arrivals; unique frame keys break remaining ties.
/// `Sample` sorts first so snapshots never observe same-instant work.
/// A `Burst` sorts as its head frame's arrival: a flow's keys are
/// consecutive, so nothing can sort between its frames.
fn canon_key(frames: &FrameSlab, ev: &PEv) -> (u32, u8, u64) {
    match *ev {
        PEv::Sample { idx } => (0, 0, idx as u64),
        PEv::TxDone { link } => (link, 1, 0),
        PEv::Arrive { frame } | PEv::Burst { head: frame } => {
            let f = &frames.slots[frame as usize].frame;
            (f.hops[f.hop as usize], 2, f.key)
        }
        PEv::FlowStart { gen } => (gen, 3, 0),
    }
}

/// Cross-shard payload: a frame plus nothing — the destination link is
/// `frame.hops[frame.hop]` and the arrival instant is `ShardMsg::at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PktMsg {
    frame: Frame,
}

/// One egress cell (link direction pair collapsed to a single queue):
/// the part every frame-hop touches, one cache line. A healthy cell
/// (`loss == 0`) is only `free_at` and its counters; a corrupting one is
/// a real queue whose FIFO is intrusive — `head`/`tail` are slab slot
/// ids chained through [`Slot::next`].
#[derive(Debug)]
#[repr(align(64))]
struct Cell {
    global: u32,
    head: u32,
    tail: u32,
    len: u32,
    queue_hwm: u32,
    busy: bool,
    /// Frame loss rate; 0.0 for healthy links.
    loss: f64,
    tx_frames: u64,
    overflow_drops: u64,
    /// Healthy cells: the instant the serializer has sent everything
    /// admitted so far.
    free_at: Time,
}

/// The part of a cell only a corrupting link (`loss > 0`) ever touches,
/// in an array parallel to the cells.
struct CellLoss {
    rng: Rng,
    corrupt_drops: u64,
    recoveries: u64,
}

/// Final per-link accounting, merged across shards in link order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Global link id.
    pub link: u32,
    /// Loss rate in effect (scaled by 1e9 to stay `Eq`-comparable).
    pub loss_ppb: u64,
    /// Frames serialized successfully.
    pub tx_frames: u64,
    /// Frames dropped to corruption (surfaced to the source).
    pub corrupt_drops: u64,
    /// Frames recovered link-locally by LinkGuardian.
    pub recoveries: u64,
    /// Frames refused by admission control (cell cap or shard budget)
    /// and re-injected at their source.
    pub overflow_drops: u64,
    /// FIFO occupancy high-water mark.
    pub queue_hwm: u32,
}

/// One cumulative telemetry snapshot of a corrupting link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRow {
    /// Snapshot index (`idx * sample_interval` on the sim clock).
    pub sample: u32,
    /// Global link id.
    pub link: u32,
    /// Cumulative frames serialized.
    pub tx_frames: u64,
    /// Cumulative corruption drops.
    pub corrupt_drops: u64,
    /// Cumulative link-local recoveries.
    pub recoveries: u64,
}

/// Whole-run totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PktTotals {
    /// Queue events executed across all shards (`Sample` excluded): a
    /// count of the engine's mechanics, not of the fabric — a frame-hop
    /// costs two at a corrupting cell, one at a healthy one.
    pub events: u64,
    /// Flows generated.
    pub flows: u64,
    /// Flows fully delivered.
    pub flows_completed: u64,
    /// Frames serialized successfully (per hop).
    pub tx_frames: u64,
    /// Frames dropped to corruption.
    pub corrupt_drops: u64,
    /// Frames recovered link-locally.
    pub recoveries: u64,
    /// Source re-injections (end-to-end recoveries).
    pub source_retx: u64,
    /// Frames refused by admission control (cell cap or shard budget).
    pub overflow_drops: u64,
}

/// Memory-budget accounting of one run. Per-shard quotas summed, so
/// every field except `denials == 0` is layout-dependent — excluded
/// from [`PktFabricResult::simulation_eq`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Sum of the shard budget limits (0 when unbounded).
    pub limit_bytes: u64,
    /// Sum of the per-shard peak occupancies.
    pub hwm_bytes: u64,
    /// Charges refused across all shards. 0 means the budget never
    /// bound and the output is layout-invariant despite it.
    pub denials: u64,
}

/// Sampled per-event-kind wall-clock cost attribution of one run.
/// Every [`PROFILE_STRIDE`]-th handled event is timed and charged to
/// its kind; shards merge additively at collect. Wall-clock, so layout- and
/// machine-dependent — excluded from [`PktFabricResult::simulation_eq`]
/// and quarantined under `"type":"profile"` in JSONL dumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PktProfile {
    /// Sampled events per kind, indexed like [`PktProfile::KINDS`].
    pub counts: [u64; 4],
    /// Wall-clock nanoseconds over the sampled events, per kind.
    pub total_ns: [u64; 4],
}

impl PktProfile {
    /// Event-kind names, index-aligned with the count/cost arrays.
    pub const KINDS: [&'static str; 4] = ["sample", "tx_done", "arrive", "flow_start"];

    /// Add another shard's accumulators into this one.
    pub fn merge(&mut self, other: &PktProfile) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
            self.total_ns[i] += other.total_ns[i];
        }
    }

    /// Total sampled events across kinds.
    pub fn sampled(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total attributed nanoseconds across kinds.
    pub fn total_ns_all(&self) -> u64 {
        self.total_ns.iter().sum()
    }
}

/// Result of a packet-level fabric run. Every field is sorted by a
/// global key, so two runs are byte-identical iff the structs are equal
/// — the differential tests compare these directly and the binaries
/// print them directly.
#[derive(Debug, Clone, PartialEq)]
pub struct PktFabricResult {
    /// `(flow id, completion time in ps since flow start)`, flow order.
    /// Empty unless [`PktFabricConfig::retain_fct`] — the digest is the
    /// O(1)-memory answer at fabric scale.
    pub fct: Vec<(u64, u64)>,
    /// Streaming FCT summary (exact top-K tail + histogram), merged
    /// deterministically across shards.
    pub fct_digest: FctDigest,
    /// Per-link accounting, link order.
    pub links: Vec<LinkStats>,
    /// Corrupting-link snapshots, `(sample, link)` order.
    pub telemetry: Vec<TelemetryRow>,
    /// Whole-run totals.
    pub totals: PktTotals,
    /// Shard-runner accounting (windows, messages). `events` matches
    /// `totals.events` at any layout.
    pub stats: ShardStats,
    /// Cut-edge count of the partition used (layout-dependent;
    /// excluded from `PartialEq` comparisons by the differential tests
    /// via [`PktFabricResult::simulation_eq`]).
    pub cut_edges: u64,
    /// Memory-budget accounting (layout-dependent, see [`MemStats`]).
    pub mem: MemStats,
    /// Merged packet-lifecycle trace, sorted by
    /// [`postmortem::span_key`] — layout-invariant while
    /// [`PktFabricResult::trace_dropped`] is 0. Empty unless
    /// [`PktTelemetryConfig::trace`].
    pub trace: Vec<TraceRecord>,
    /// Records lost to ring overwrites, summed over shards. Per-shard
    /// ring capacities make this layout-*dependent* once nonzero, so it
    /// is excluded from `simulation_eq`; size the cap so it stays 0.
    pub trace_dropped: u64,
    /// Merged link-health transitions `(global link, event)`, sorted by
    /// `(link, window_id)`. Estimator inputs are simulation counters
    /// observed at sample instants, so the stream is layout-invariant.
    /// Empty unless [`PktTelemetryConfig::health`].
    pub health: Vec<(u32, HealthEvent)>,
    /// Sampled event-cost attribution (wall-clock; excluded from
    /// `simulation_eq`). Zeroed unless [`PktTelemetryConfig::profile`].
    pub profile: PktProfile,
}

impl PktFabricResult {
    /// Equality of simulation outcomes only — everything except the
    /// layout-dependent runner and budget accounting
    /// (`stats.windows/messages`, `cut_edges` and `mem` legitimately
    /// vary with the shard count) and the wall-clock profile. The
    /// merged trace and health streams *are* compared: telemetry is
    /// part of the byte-identical-across-layouts contract.
    pub fn simulation_eq(&self, other: &PktFabricResult) -> bool {
        self.fct == other.fct
            && self.fct_digest == other.fct_digest
            && self.links == other.links
            && self.telemetry == other.telemetry
            && self.totals == other.totals
            && self.stats.events == other.stats.events
            && self.trace == other.trace
            && self.health == other.health
    }

    /// FCT percentile in picoseconds (`q` in `[0, 1]`), over flows
    /// sorted by completion time. Returns 0 when no flow completed —
    /// including when the run streamed instead of retaining
    /// (`retain_fct: false`); fabric-scale callers read the digest.
    pub fn fct_percentile(&self, q: f64) -> u64 {
        if self.fct.is_empty() {
            return 0;
        }
        let mut fcts: Vec<u64> = self.fct.iter().map(|&(_, f)| f).collect();
        fcts.sort_unstable();
        let i = ((fcts.len() - 1) as f64 * q).round() as usize;
        fcts[i.min(fcts.len() - 1)]
    }
}

/// Mixer for deriving per-entity seeds from the master seed and a
/// global id (splitmix64-style odd constants).
fn mix_seed(master: u64, class: u64, id: u64) -> u64 {
    master
        .wrapping_add(class.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(id.wrapping_mul(0xBF58476D1CE4E5B9))
}

/// A flow generator: fixed first hop (its ToR↔fabric link), its own
/// RNG stream, and a flow counter.
#[derive(Debug)]
struct FlowGen {
    /// Global generator id == global id of its first-hop link.
    id: u32,
    pod: u32,
    tor: u32,
    fabric: u32,
    rng: Rng,
    flows: u64,
}

/// Immutable run context shared (read-only) by all shards. Carries the
/// O(1) arithmetic [`PartitionMap`], not the O(links) table — shard
/// routing costs a few words however large the fabric.
struct Shared {
    geom: PodGeom,
    map: PartitionMap,
    /// Serialization time of one frame (every frame is `frame_bytes`).
    ser: Duration,
    hop_latency: Duration,
    horizon: Time,
    mean_interarrival: Duration,
    mean_flow_frames: f64,
    frame_bytes: u16,
    cross_pod: f64,
    policy: PktPolicy,
    lg_recovery: Duration,
    rto: Duration,
    sample_interval: Duration,
    samples: u32,
    cell_cap: u32,
    retain_fct: bool,
    /// Serve every cell through the event-driven path.
    #[cfg(test)]
    all_eventful: bool,
}

#[cfg(test)]
thread_local! {
    /// Fabrics built on this thread while set treat every cell as
    /// corrupting cells are treated: the reference the differential
    /// tests hold the computed cells to.
    static ALL_EVENTFUL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One shard of the packet-level fabric: the cells and generators of
/// its partition class, an event queue, and local result accumulators.
///
/// Lookup state is a *pod-span slab*: the partition assigns each shard
/// a contiguous pod range, so the global→local indices span only
/// `[span_base, span_base + slab len)` in link-id space — O(local
/// links) per shard, never O(fabric).
pub struct FabricShard {
    id: u32,
    shared: std::sync::Arc<Shared>,
    q: EventQueue<PEv>,
    /// Local cells, indexed by the slabs below.
    cells: Vec<Cell>,
    /// Loss state, parallel to `cells`.
    cell_loss: Vec<CellLoss>,
    /// Local indices of the corrupting cells (`loss > 0`), link order.
    corrupting: Vec<u32>,
    /// Every frame currently inside this shard.
    frames: FrameSlab,
    /// First link id of the shard's pod span.
    span_base: u32,
    /// Global→local cell index over the pod span (u32::MAX = not ours).
    link_slab: Vec<u32>,
    gens: Vec<FlowGen>,
    /// Global→local generator index over the pod span.
    gen_slab: Vec<u32>,
    /// Per-shard egress-buffer quota (None = unbounded) and the
    /// releases its healthy cells still owe it.
    budget: Option<(MemBudget, Departures)>,
    /// Delivered-frame counts of flows terminating in this shard
    /// (O(in-flight flows), drained as flows complete).
    delivered: HashMap<u64, u16>,
    fct_stream: FctStream,
    fct: Vec<(u64, u64)>,
    telemetry: Vec<TelemetryRow>,
    flows: u64,
    flows_completed: u64,
    source_retx: u64,
    tick_buf: Vec<PEv>,
    /// This shard's trace ring (None = tracing off). Drained into
    /// `trace_log` at every window close, so the ring capacity bounds
    /// the burst within one lookahead window, not the whole run.
    trace_ring: Option<TraceRing>,
    trace_log: Vec<TraceRecord>,
    trace_dropped: u64,
    /// Health estimators, parallel to `corrupting`. Empty when health
    /// is off.
    health_ests: Vec<HealthEstimator>,
    health_events: Vec<(u32, HealthEvent)>,
    /// `(sampling counter, accumulators)`; None = profiling off.
    profile: Option<(u64, PktProfile)>,
}

impl FabricShard {
    /// Record one packet-lifecycle trace event. Every field is global
    /// (uid = frame key + 1 so 0 stays the no-packet sentinel, link in
    /// `aux`, hop in `inst`), never shard-local — the invariant that
    /// makes the merged log identical at any layout.
    #[inline]
    fn trace(&mut self, kind: Kind, id: u32, link: u32, now: Time) {
        if let Some(ring) = &mut self.trace_ring {
            let frame = &self.frames.slots[id as usize].frame;
            ring.push(TraceRecord {
                t_ps: now.as_ps(),
                uid: frame.key + 1,
                seq: frame.key >> 8,
                aux: link,
                inst: frame.hop as u16,
                comp: Comp::Link,
                kind,
            });
        }
    }

    /// Local cell index of an owned link (slab lookup over the pod
    /// span).
    fn local_cell(&self, link: u32) -> u32 {
        let local = self.link_slab[(link - self.span_base) as usize];
        debug_assert_ne!(local, u32::MAX, "frame routed to a foreign shard");
        local
    }

    /// Schedule the arrival of the frame in slot `id` at its current
    /// hop: locally the slot is reused; when the hop belongs to another
    /// shard the frame is copied into the outbox and the slot freed.
    fn route(&mut self, id: u32, at: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let frame = &self.frames.slots[id as usize].frame;
        let dst = self.shared.map.shard_of(frame.hops[frame.hop as usize]);
        if dst == self.id {
            self.q.schedule_at(at, PEv::Arrive { frame: id });
        } else {
            out.push(ShardMsg {
                at,
                seq: out.len() as u64,
                src_shard: self.id,
                dst_shard: dst,
                payload: PktMsg {
                    frame: self.frames.remove(id),
                },
            });
        }
    }

    fn kick(&mut self, local: u32, now: Time) {
        let cell = &mut self.cells[local as usize];
        if cell.busy || cell.head == NIL {
            return;
        }
        cell.busy = true;
        self.q
            .schedule_at(now + self.shared.ser, PEv::TxDone { link: cell.global });
    }

    /// A dropped frame goes back to its source: re-injected at its
    /// first hop after the RTO, `start` preserved.
    fn reinject(&mut self, id: u32, now: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let frame = &mut self.frames.slots[id as usize].frame;
        frame.traced = true;
        frame.hop = 0;
        self.route(id, now + self.shared.rto, out);
    }

    /// Frame reaches a cell's ingress: admission control (layout-
    /// invariant per-cell cap, then the shard budget, charged before
    /// the store), then enqueue — or drop-tail and re-inject at the
    /// source after the RTO. Congestion loss surfaces to the transport
    /// under both policies; LinkGuardian only masks corruption.
    ///
    /// An admitted frame's departure from a healthy cell is known here,
    /// so the cell is served in closed form: no FIFO, no `TxDone`. A
    /// corrupting cell decides at service time and stays a queue.
    fn on_arrive(&mut self, id: u32, now: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let frame = &self.frames.slots[id as usize].frame;
        let link = frame.hops[frame.hop as usize];
        let local = self.local_cell(link);
        let (cap, ser) = (self.shared.cell_cap, self.shared.ser);
        let bytes = self.shared.frame_bytes as u64;
        let cell = &mut self.cells[local as usize];
        let computed = cell.loss == 0.0;
        #[cfg(test)]
        let computed = computed && !self.shared.all_eventful;
        if let Some((b, owed)) = &mut self.budget {
            // Healthy cells' departures the canonical tick order runs
            // before this arrival: earlier instants, and at this instant
            // the cells up to this one (`TxDone` sorts before `Arrive`).
            // Unsettled, `used` only reads high — and a charge that
            // stays within the high-water mark even so can be neither
            // refused nor raise the mark, whatever is still owed.
            if b.used() + bytes > b.high_watermark() {
                b.release(bytes * owed.settle(now.as_ps(), link));
            }
        }
        // Frames still here — departing strictly after `now`, a cell's
        // completion sorting before its arrivals — in a gap-free busy
        // period of equal frames.
        let len = if computed {
            let backlog = cell.free_at.saturating_since(now).as_ps();
            backlog.div_ceil(ser.as_ps()) as u32
        } else {
            cell.len
        };
        let admitted = (cap == 0 || len < cap)
            && self
                .budget
                .as_ref()
                .is_none_or(|(b, _)| b.try_charge(bytes));
        if !admitted {
            cell.overflow_drops += 1;
            self.trace(Kind::RxOverflow, id, link, now);
            self.reinject(id, now, out);
            return;
        }
        cell.queue_hwm = cell.queue_hwm.max(len + 1);
        if computed {
            let depart = cell.free_at.max(now) + ser;
            cell.free_at = depart;
            cell.tx_frames += 1;
            if let Some((_, owed)) = &mut self.budget {
                owed.push(depart.as_ps(), link);
            }
            self.forward(id, link, depart, out);
            return;
        }
        self.frames.slots[id as usize].next = NIL;
        if cell.head == NIL {
            cell.head = id;
        } else {
            self.frames.slots[cell.tail as usize].next = id;
        }
        cell.tail = id;
        cell.len = len + 1;
        self.kick(local, now);
    }

    /// The frame in slot `id` left `link` cleanly at `at`: on to the
    /// next hop, or delivered.
    fn forward(&mut self, id: u32, link: u32, at: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let frame = &mut self.frames.slots[id as usize].frame;
        if frame.hop + 1 == frame.n_hops {
            if frame.traced {
                self.trace(Kind::Deliver, id, link, at);
            }
            let frame = self.frames.remove(id);
            self.on_delivered(&frame, at);
        } else {
            frame.hop += 1;
            self.route(id, at + self.shared.hop_latency, out);
        }
    }

    fn on_tx_done(&mut self, link: u32, now: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let local = self.local_cell(link) as usize;
        let cell = &mut self.cells[local];
        let id = cell.head;
        assert_ne!(id, NIL, "TxDone with empty FIFO");
        let corrupted = cell.loss > 0.0 && self.cell_loss[local].rng.bernoulli(cell.loss);
        if corrupted && self.shared.policy == PktPolicy::LinkGuardian {
            // Link-local retransmission: the frame stays at the head,
            // the link stays busy through the NACK turnaround plus the
            // repeat serialization. The loss never surfaces.
            self.cell_loss[local].recoveries += 1;
            self.frames.slots[id as usize].frame.traced = true;
            let delay = self.shared.lg_recovery + self.shared.ser;
            self.trace(Kind::Recovered, id, link, now);
            self.q.schedule_at(now + delay, PEv::TxDone { link });
            return;
        }
        cell.head = self.frames.slots[id as usize].next;
        cell.len -= 1;
        cell.busy = false;
        if let Some((b, _)) = &self.budget {
            b.release(self.shared.frame_bytes as u64);
        }
        if corrupted {
            // End-to-end recovery: drop, and the source re-injects after
            // the RTO, so the flow's FCT absorbs the full timeout — the
            // paper's no-LG cost.
            self.cell_loss[local].corrupt_drops += 1;
            self.source_retx += 1;
            self.trace(Kind::CorruptDrop, id, link, now);
            self.reinject(id, now, out);
        } else {
            cell.tx_frames += 1;
            self.forward(id, link, now, out);
        }
        self.kick(local as u32, now);
    }

    /// Final-hop serialization succeeded: the frame reaches its
    /// destination ToR one hop latency later.
    fn on_delivered(&mut self, frame: &Frame, now: Time) {
        let flow = frame.key >> 8;
        let seen = self.delivered.entry(flow).or_insert(0);
        *seen += 1;
        if *seen == frame.frames {
            self.delivered.remove(&flow);
            let done = now + self.shared.hop_latency;
            let fct = done.saturating_since(frame.start).as_ps();
            self.fct_stream.record(fct);
            if self.shared.retain_fct {
                self.fct.push((flow, fct));
            }
            self.flows_completed += 1;
        }
    }

    fn on_flow_start(&mut self, gen_global: u32, now: Time) {
        let s = std::sync::Arc::clone(&self.shared);
        let local = self.gen_slab[(gen_global - self.span_base) as usize] as usize;
        let g = &mut self.gens[local];
        // Destination: a different ToR, same pod or (with probability
        // cross_pod, pods permitting) behind a spine column.
        let cross = s.geom.pods > 1 && g.rng.bernoulli(s.cross_pod);
        let mut dst_tor = g.rng.below(s.geom.tors as u64 - 1) as u32;
        let (n_hops, hops) = if cross {
            let mut dst_pod = g.rng.below(s.geom.pods as u64 - 1) as u32;
            if dst_pod >= g.pod {
                dst_pod += 1;
            }
            let spine = g.rng.below(s.geom.uplinks as u64) as u32;
            (
                4u8,
                [
                    g.id,
                    s.geom.fabric_spine(g.pod, g.fabric, spine),
                    s.geom.fabric_spine(dst_pod, g.fabric, spine),
                    s.geom.tor_fabric(dst_pod, dst_tor, g.fabric),
                ],
            )
        } else {
            if dst_tor >= g.tor {
                dst_tor += 1;
            }
            (
                2u8,
                [
                    g.id,
                    s.geom.tor_fabric(g.pod, dst_tor, g.fabric),
                    u32::MAX,
                    u32::MAX,
                ],
            )
        };
        let frames = (1 + g.rng.geometric(1.0 / s.mean_flow_frames)).min(MAX_FLOW_FRAMES) as u16;
        let flow = ((g.id as u64) << 24) | g.flows;
        g.flows += 1;
        assert!(g.flows < 1 << 24, "flow counter overflow");
        self.flows += 1;
        // The first hop is always local (generators live with their
        // first-hop link), so the whole burst is one local event.
        debug_assert_eq!(s.map.shard_of(g.id), self.id);
        let mut head = NIL;
        for i in (0..frames).rev() {
            head = self.frames.insert(
                Frame {
                    key: (flow << 8) | i as u64,
                    start: now,
                    hops,
                    hop: 0,
                    n_hops,
                    frames,
                    traced: false,
                },
                head,
            );
        }
        self.q.schedule_at(now + s.hop_latency, PEv::Burst { head });
        let g = &mut self.gens[local];
        let gap = Duration::from_ps((g.rng.exp(s.mean_interarrival.as_ps() as f64) as u64).max(1));
        let next = now + gap;
        if next <= s.horizon {
            self.q.schedule_at(next, PEv::FlowStart { gen: gen_global });
        }
    }

    fn on_sample(&mut self, idx: u32) {
        for &local in &self.corrupting {
            let (cell, loss) = (&self.cells[local as usize], &self.cell_loss[local as usize]);
            self.telemetry.push(TelemetryRow {
                sample: idx,
                link: cell.global,
                tx_frames: cell.tx_frames,
                corrupt_drops: loss.corrupt_drops,
                recoveries: loss.recoveries,
            });
        }
        // Feed the health estimators from the same cumulative counters
        // the telemetry rows snapshot (framesRxAll = clean + corrupted
        // attempts; errors = drops + recoveries, i.e. corruption under
        // either policy). Counters are simulation state sampled at a
        // fixed instant, so the resulting event stream is
        // layout-invariant.
        let t_ps = self.shared.sample_interval.as_ps() * idx as u64;
        for (&local, est) in self.corrupting.iter().zip(&mut self.health_ests) {
            let (cell, loss) = (&self.cells[local as usize], &self.cell_loss[local as usize]);
            let errors = loss.corrupt_drops + loss.recoveries;
            let all = cell.tx_frames + errors;
            if let Some(ev) = est.observe_cumulative(t_ps, all, cell.tx_frames) {
                self.health_events.push((cell.global, ev));
            }
        }
        if idx < self.shared.samples {
            let at = Time::ZERO + self.shared.sample_interval.saturating_mul(idx as u64 + 1);
            self.q.schedule_at(at, PEv::Sample { idx: idx + 1 });
        }
    }

    fn handle(&mut self, ev: PEv, now: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        match ev {
            PEv::Sample { idx } => self.on_sample(idx),
            PEv::TxDone { link } => self.on_tx_done(link, now, out),
            PEv::Arrive { frame } => self.on_arrive(frame, now, out),
            PEv::Burst { mut head } => {
                while head != NIL {
                    // Read the link first: `on_arrive` may free the
                    // slot or thread it into a FIFO.
                    let next = self.frames.slots[head as usize].next;
                    self.on_arrive(head, now, out);
                    head = next;
                }
            }
            PEv::FlowStart { gen } => self.on_flow_start(gen, now),
        }
    }

    /// Dispatch one event; when profiling is on, every
    /// [`PROFILE_STRIDE`]-th event is wall-clock timed and charged to
    /// its kind. Sampling keeps the overhead a fraction of an `Instant`
    /// read per 64 events — well under the ≥0.95 telemetry A/B gate.
    fn dispatch(&mut self, ev: PEv, now: Time, out: &mut Vec<ShardMsg<PktMsg>>) {
        let Some((seen, _)) = &mut self.profile else {
            self.handle(ev, now, out);
            return;
        };
        *seen += 1;
        if *seen % PROFILE_STRIDE != 0 {
            self.handle(ev, now, out);
            return;
        }
        let kind = match &ev {
            PEv::Sample { .. } => 0,
            PEv::TxDone { .. } => 1,
            PEv::Arrive { .. } | PEv::Burst { .. } => 2,
            PEv::FlowStart { .. } => 3,
        };
        let t0 = std::time::Instant::now();
        self.handle(ev, now, out);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some((_, p)) = &mut self.profile {
            p.counts[kind] += 1;
            p.total_ns[kind] += ns;
        }
    }
}

impl ShardWorld for FabricShard {
    type Msg = PktMsg;

    fn next_time(&mut self) -> Option<Time> {
        self.q.peek_time()
    }

    fn run_window(&mut self, until: Time, out: &mut Vec<ShardMsg<PktMsg>>) -> u64 {
        let mut ran = 0u64;
        let mut tick = std::mem::take(&mut self.tick_buf);
        // `Sample` is per-shard bookkeeping (each shard runs its own
        // snapshot chain), so it is excluded from the event count to
        // keep `events` — the CI exact-match headline — identical at
        // any shard layout.
        let sim_event = |ev: &PEv| !matches!(ev, PEv::Sample { .. }) as u64;
        while let Some((now, first)) = self.q.pop_tick_into(until, &mut tick) {
            if tick.is_empty() {
                ran += sim_event(&first);
                self.dispatch(first, now, out);
            } else {
                // Canonicalize the tick: dispatch order must not depend
                // on which shard's queue the events came out of (see
                // module docs). Handlers only schedule strictly-future
                // events, so the drained batch is the whole tick.
                tick.push(first);
                tick.sort_unstable_by_key(|ev| canon_key(&self.frames, ev));
                for ev in tick.drain(..) {
                    ran += sim_event(&ev);
                    self.dispatch(ev, now, out);
                }
            }
        }
        self.tick_buf = tick;
        // Window close: drain this shard's ring into the retained log
        // so the ring capacity bounds one lookahead window's burst, not
        // the whole run's trace volume.
        if let Some(ring) = &mut self.trace_ring {
            if !ring.is_empty() || ring.dropped() > 0 {
                self.trace_dropped += ring.dropped();
                self.trace_log.extend(ring.drain());
            }
        }
        #[cfg(debug_assertions)]
        self.q.check_invariants();
        ran
    }

    fn inject(&mut self, msg: ShardMsg<PktMsg>) {
        let frame = self.frames.insert(msg.payload.frame, NIL);
        self.q.schedule_at(msg.at, PEv::Arrive { frame });
    }
}

/// A constructed (but not yet run) packet-level fabric — exposed so
/// benchmarks can separate construction from execution.
pub struct PktFabric {
    shards: Vec<FabricShard>,
    lookahead: Duration,
    threads: usize,
    cut_edges: u64,
}

impl PktFabric {
    /// Build every shard: assign links and generators, draw the
    /// corrupting set and loss rates (by global link id, independent of
    /// the partition), and schedule the initial events.
    pub fn new(cfg: &PktFabricConfig) -> PktFabric {
        cfg.validate().unwrap_or_else(|msg| panic!("{msg}"));
        let part: Partition = partition(&cfg.geom, cfg.shards);
        let n_links = cfg.geom.n_links();
        // Fits, and so does the shard quota below: `validate`.
        let samples = (cfg.horizon.as_ps() / cfg.sample_interval.as_ps()) as u32;
        let shared = std::sync::Arc::new(Shared {
            geom: cfg.geom,
            map: part.map,
            ser: cfg.speed.serialize(cfg.frame_bytes as u64),
            hop_latency: cfg.hop_latency,
            horizon: cfg.horizon,
            mean_interarrival: cfg.mean_interarrival,
            mean_flow_frames: cfg.mean_flow_frames,
            frame_bytes: cfg.frame_bytes,
            cross_pod: cfg.cross_pod,
            policy: cfg.policy,
            lg_recovery: cfg.lg_recovery,
            rto: cfg.rto,
            sample_interval: cfg.sample_interval,
            samples,
            cell_cap: cfg.cell_cap_frames,
            retain_fct: cfg.retain_fct,
            #[cfg(test)]
            all_eventful: ALL_EVENTFUL.get(),
        });

        // Pod spans: every granularity assigns each shard a contiguous
        // pod range (see the partitioner's contiguity test), so a
        // shard's slab need only cover [min owned link, max owned link]
        // — O(local links), never O(fabric).
        let mut span = vec![(u32::MAX, 0u32); part.shards as usize];
        for (link, &s) in part.shard_of_link.iter().enumerate() {
            let e = &mut span[s as usize];
            e.0 = e.0.min(link as u32);
            e.1 = e.1.max(link as u32);
        }

        let mut shards: Vec<FabricShard> = (0..part.shards)
            .map(|id| {
                let (lo, hi) = span[id as usize];
                let n_local = part.links_per_shard[id as usize];
                FabricShard {
                    id,
                    shared: std::sync::Arc::clone(&shared),
                    q: EventQueue::new(),
                    cells: Vec::with_capacity(n_local as usize),
                    cell_loss: Vec::with_capacity(n_local as usize),
                    corrupting: Vec::new(),
                    frames: FrameSlab::default(),
                    span_base: lo,
                    link_slab: vec![u32::MAX; (hi - lo + 1) as usize],
                    gens: Vec::new(),
                    gen_slab: vec![u32::MAX; (hi - lo + 1) as usize],
                    budget: (cfg.mem_bytes_per_link > 0).then(|| {
                        let quota = MemBudget::new(cfg.mem_bytes_per_link * n_local as u64);
                        (quota, Departures::new())
                    }),
                    delivered: HashMap::new(),
                    fct_stream: FctStream::new(FCT_TAIL_K),
                    fct: Vec::new(),
                    telemetry: Vec::new(),
                    flows: 0,
                    flows_completed: 0,
                    source_retx: 0,
                    tick_buf: Vec::new(),
                    trace_ring: cfg.telemetry.trace.then(|| {
                        TraceRing::new(if cfg.telemetry.trace_cap == 0 {
                            DEFAULT_RING_CAP
                        } else {
                            cfg.telemetry.trace_cap
                        })
                    }),
                    trace_log: Vec::new(),
                    trace_dropped: 0,
                    health_ests: Vec::new(),
                    health_events: Vec::new(),
                    profile: cfg.telemetry.profile.then(|| (0, PktProfile::default())),
                }
            })
            .collect();

        // Cells: loss model drawn per global link so the corrupting set
        // is partition-invariant.
        for link in 0..n_links {
            let mut loss_rng = Rng::new(mix_seed(cfg.seed, 1, link as u64));
            let loss = if loss_rng.bernoulli(cfg.corrupting_fraction) {
                tracegen::sample_loss_rate(&mut loss_rng)
            } else {
                0.0
            };
            let shard = &mut shards[part.shard_of_link[link as usize] as usize];
            let local = shard.cells.len() as u32;
            shard.link_slab[(link - shard.span_base) as usize] = local;
            if loss > 0.0 {
                shard.corrupting.push(local);
            }
            shard.cells.push(Cell {
                global: link,
                head: NIL,
                tail: NIL,
                len: 0,
                queue_hwm: 0,
                busy: false,
                loss,
                tx_frames: 0,
                overflow_drops: 0,
                free_at: Time::ZERO,
            });
            shard.cell_loss.push(CellLoss {
                rng: Rng::new(mix_seed(cfg.seed, 2, link as u64)),
                corrupt_drops: 0,
                recoveries: 0,
            });
        }

        // Generators: one per (pod, ToR, fabric), living in the shard
        // of its first-hop link, with a deterministic staggered start.
        for pod in 0..cfg.geom.pods {
            for tor in 0..cfg.geom.tors {
                for fabric in 0..cfg.geom.fabrics {
                    let id = cfg.geom.tor_fabric(pod, tor, fabric);
                    let mut rng = Rng::new(mix_seed(cfg.seed, 3, id as u64));
                    let first = Duration::from_ps(
                        (rng.exp(cfg.mean_interarrival.as_ps() as f64) as u64).max(1),
                    );
                    let shard = &mut shards[part.shard_of_link[id as usize] as usize];
                    shard.gen_slab[(id - shard.span_base) as usize] = shard.gens.len() as u32;
                    shard.gens.push(FlowGen {
                        id,
                        pod,
                        tor,
                        fabric,
                        rng,
                        flows: 0,
                    });
                    let at = Time::ZERO + first;
                    if at <= cfg.horizon {
                        shard.q.schedule_at(at, PEv::FlowStart { gen: id });
                    }
                }
            }
        }

        // Retained FCTs: one row per flow, sized up front from the
        // shard's own generators (+1/16) so the vector never doubles.
        if cfg.retain_fct {
            let per_gen = (cfg.horizon.as_ps() / cfg.mean_interarrival.as_ps() + 1) as usize;
            for shard in shards.iter_mut() {
                shard.fct.reserve(shard.gens.len() * per_gen * 17 / 16);
            }
        }

        // Telemetry: one snapshot chain per shard (rows are per link,
        // so the merged output is partition-invariant).
        if samples > 0 {
            for shard in shards.iter_mut() {
                let at = Time::ZERO + cfg.sample_interval;
                shard.q.schedule_at(at, PEv::Sample { idx: 1 });
            }
        }

        // Health plane: one estimator per corrupting cell, owned by the
        // shard hosting the cell. The corrupting set is drawn by global
        // link id, so each link gets exactly one estimator at any
        // layout and its observation sequence is identical.
        if let Some(hcfg) = cfg.telemetry.health {
            for shard in shards.iter_mut() {
                shard.health_ests = shard
                    .corrupting
                    .iter()
                    .map(|_| HealthEstimator::new(hcfg))
                    .collect();
            }
        }

        PktFabric {
            shards,
            lookahead: cfg.hop_latency,
            threads: cfg.threads.max(1),
            cut_edges: part.cut_edges,
        }
    }

    /// Run to completion (flow generation is horizon-bounded; the run
    /// drains every in-flight frame afterwards).
    pub fn run(&mut self) -> ShardStats {
        run_sharded(&mut self.shards, self.lookahead, Time::MAX, self.threads)
    }

    /// Merge the shards' accumulators into the sorted, layout-invariant
    /// result.
    pub fn collect(mut self, stats: ShardStats) -> PktFabricResult {
        // The first shard's rows are moved, not copied: a second buffer
        // the size of the result is what peak RSS would measure.
        let mut fct = std::mem::take(&mut self.shards[0].fct);
        let mut links = Vec::new();
        let mut telemetry = std::mem::take(&mut self.shards[0].telemetry);
        let mut stream: Option<FctStream> = None;
        let mut mem = MemStats::default();
        let mut trace_logs = Vec::new();
        let mut trace_dropped = 0u64;
        let mut health = Vec::new();
        let mut profile = PktProfile::default();
        let mut totals = PktTotals {
            events: stats.events,
            ..PktTotals::default()
        };
        for mut shard in self.shards {
            assert!(
                shard.delivered.is_empty(),
                "run ended with partially delivered flows"
            );
            assert_eq!(
                shard.frames.slots.len(),
                shard.frames.free.len(),
                "run ended with frames still in the shard's slab"
            );
            // Belt and braces: run_window drains at every window close,
            // but collect() must not silently lose a residue.
            if let Some(ring) = &mut shard.trace_ring {
                shard.trace_dropped += ring.dropped();
                shard.trace_log.extend(ring.drain());
            }
            trace_dropped += shard.trace_dropped;
            trace_logs.push(shard.trace_log);
            health.extend(shard.health_events);
            if let Some((_, p)) = &shard.profile {
                profile.merge(p);
            }
            fct.extend(shard.fct);
            telemetry.extend(shard.telemetry);
            totals.flows += shard.flows;
            totals.flows_completed += shard.flows_completed;
            totals.source_retx += shard.source_retx;
            // Stream merging is exact and order-invariant (see
            // `crate::fct` module docs), so folding in shard order — or
            // any order — yields the same digest as a single global
            // stream would have.
            match &mut stream {
                Some(s) => s.merge(shard.fct_stream),
                None => stream = Some(shard.fct_stream),
            }
            if let Some((b, owed)) = &mut shard.budget {
                let bytes = shard.shared.frame_bytes as u64;
                b.release(bytes * owed.settle(u64::MAX, u32::MAX));
                assert_eq!(b.used(), 0, "run ended with budget bytes never released");
                mem.limit_bytes += b.limit();
                mem.hwm_bytes += b.high_watermark();
                mem.denials += b.denials();
            }
            for (cell, loss) in shard.cells.iter().zip(&shard.cell_loss) {
                totals.tx_frames += cell.tx_frames;
                totals.corrupt_drops += loss.corrupt_drops;
                totals.recoveries += loss.recoveries;
                totals.overflow_drops += cell.overflow_drops;
                links.push(LinkStats {
                    link: cell.global,
                    loss_ppb: (cell.loss * 1e9).round() as u64,
                    tx_frames: cell.tx_frames,
                    corrupt_drops: loss.corrupt_drops,
                    recoveries: loss.recoveries,
                    overflow_drops: cell.overflow_drops,
                    queue_hwm: cell.queue_hwm,
                });
            }
        }
        fct.sort_unstable();
        links.sort_unstable_by_key(|l| l.link);
        telemetry.sort_unstable_by_key(|t| (t.sample, t.link));
        // Same sorted-merge discipline as the FCT digest: per-shard
        // logs carry only global identifiers, so sorting by a global
        // key erases the layout.
        let trace = postmortem::merge_shard_logs(trace_logs);
        health.sort_unstable_by_key(|(link, ev)| (*link, ev.window_id));
        PktFabricResult {
            fct,
            fct_digest: stream.map(|s| s.digest()).unwrap_or_default(),
            links,
            telemetry,
            totals,
            stats,
            cut_edges: self.cut_edges,
            mem,
            trace,
            trace_dropped,
            health,
            profile,
        }
    }
}

/// Packet-level counterpart of the analytic [`run`](crate::run): build,
/// execute and merge one sharded packet-level fabric simulation.
pub fn run_packet(cfg: &PktFabricConfig) -> PktFabricResult {
    let mut fabric = PktFabric::new(cfg);
    let stats = fabric.run();
    fabric.collect(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PktPolicy) -> PktFabricConfig {
        let mut cfg = PktFabricConfig::pod_scale(7);
        cfg.geom = PodGeom {
            pods: 2,
            tors: 4,
            fabrics: 2,
            uplinks: 4,
        };
        cfg.horizon = Time::from_us(200);
        cfg.mean_interarrival = Duration::from_us(20);
        cfg.sample_interval = Duration::from_us(50);
        cfg.corrupting_fraction = 0.25;
        cfg.policy = policy;
        cfg
    }

    #[test]
    fn flows_complete_and_losses_are_accounted() {
        let r = run_packet(&tiny(PktPolicy::LinkGuardian));
        assert!(r.totals.flows > 10);
        assert_eq!(r.totals.flows, r.totals.flows_completed);
        assert_eq!(r.totals.flows, r.fct.len() as u64);
        assert!(r.totals.recoveries > 0, "corrupting links must fire");
        assert_eq!(r.totals.corrupt_drops, 0, "LG masks every loss");
        assert_eq!(r.totals.source_retx, 0);
        assert!(!r.telemetry.is_empty());
    }

    #[test]
    fn no_lg_surfaces_losses_as_source_retx() {
        let lg = run_packet(&tiny(PktPolicy::LinkGuardian));
        let none = run_packet(&tiny(PktPolicy::None));
        assert!(none.totals.corrupt_drops > 0);
        assert_eq!(none.totals.corrupt_drops, none.totals.source_retx);
        assert_eq!(none.totals.recoveries, 0);
        // The RTO penalty must show in the FCT tail.
        assert!(none.fct_percentile(0.999) > lg.fct_percentile(0.999));
        // Same flows were generated either way (loss draws differ, but
        // generator streams are policy-independent).
        assert_eq!(lg.totals.flows, none.totals.flows);
        // One pod per shard: a frame dropped at hop >= 2 sits in its
        // destination pod, so its RTO re-injection is copied out of
        // that shard's slab and crosses the mailbox back to the source
        // shard. collect() asserts both slabs end drained.
        // (Seed and fraction picked so drops happen at all four hops.)
        let mut cfg = tiny(PktPolicy::None);
        cfg.seed = 6;
        cfg.corrupting_fraction = 1.0;
        cfg.telemetry.trace = true;
        let one = run_packet(&cfg);
        cfg.shards = 2;
        let two = run_packet(&cfg);
        assert!(two
            .trace
            .iter()
            .any(|t| t.kind == Kind::CorruptDrop && t.inst >= 2));
        assert!(two.simulation_eq(&one));
    }

    /// What a frame-hop touches must stay small: an event is one word
    /// (two wheel entries per cache line), a cell exactly one line, a
    /// frame slot three quarters of one.
    #[test]
    fn hot_layout_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<PEv>() <= 8,
            "PEv grew to {} bytes",
            size_of::<PEv>()
        );
        assert_eq!(size_of::<Cell>(), 64, "hot Cell must be one cache line");
        assert!(
            size_of::<Slot>() <= 48,
            "Slot grew to {} bytes",
            size_of::<Slot>()
        );
        assert!(
            size_of::<ShardMsg<PktMsg>>() <= 72,
            "ShardMsg<PktMsg> grew to {} bytes",
            size_of::<ShardMsg<PktMsg>>()
        );
    }

    #[test]
    #[should_panic(expected = "mean_flow_frames must be >= 1")]
    fn sub_one_mean_flow_frames_is_rejected_up_front() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.mean_flow_frames = 0.5;
        PktFabric::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "mean_flow_frames must be >= 1")]
    fn nan_mean_flow_frames_is_rejected_up_front() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.mean_flow_frames = f64::NAN;
        PktFabric::new(&cfg);
    }

    /// Rule 2 of the module docs: 1 B above 8 Tb/s serializes in 0 ps,
    /// which would file a `TxDone` at the current instant (and divide
    /// an occupancy by zero).
    #[test]
    #[should_panic(expected = "must take at least 1 ps to serialize")]
    fn zero_serialization_time_is_rejected_up_front() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.frame_bytes = 1;
        cfg.speed = Rate::from_bps(8_000_000_000_001);
        PktFabric::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "must fit in u32 snapshots")]
    fn snapshot_count_past_u32_is_rejected_up_front() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.horizon = Time::from_ms(5);
        cfg.sample_interval = Duration::from_ps(1);
        PktFabric::new(&cfg);
    }

    /// A quota past `u64` used to wrap to a tiny one in release builds.
    #[test]
    fn quota_overflow_is_refused_by_validate() {
        assert_eq!(PktFabricConfig::fabric_scale(1).validate(), Ok(()));
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.mem_bytes_per_link = u64::MAX / 2;
        let e = cfg.validate().expect_err("quota overflows");
        assert!(e.starts_with("mem_bytes_per_link x links overflows"), "{e}");
    }

    #[test]
    fn shard_layout_is_invisible_to_results() {
        let base = run_packet(&tiny(PktPolicy::None));
        for (shards, threads) in [(2, 1), (2, 2), (4, 2), (7, 3)] {
            let mut cfg = tiny(PktPolicy::None);
            cfg.shards = shards;
            cfg.threads = threads;
            let r = run_packet(&cfg);
            assert!(
                r.simulation_eq(&base),
                "diverged at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn streaming_digest_matches_retained_vec() {
        let r = run_packet(&tiny(PktPolicy::None));
        assert!(!r.fct.is_empty());
        let d = r.fct_digest;
        assert_eq!(d.count, r.fct.len() as u64);
        assert_eq!(d.p50, r.fct_percentile(0.5));
        assert_eq!(d.p99, r.fct_percentile(0.99));
        assert_eq!(d.p999, r.fct_percentile(0.999));
        assert_eq!(d.min, r.fct_percentile(0.0));
        assert_eq!(d.max, r.fct_percentile(1.0));
    }

    #[test]
    fn streaming_only_run_matches_retained_run() {
        let retained = run_packet(&tiny(PktPolicy::LinkGuardian));
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.retain_fct = false;
        let streamed = run_packet(&cfg);
        assert!(streamed.fct.is_empty(), "streaming run retains nothing");
        assert_eq!(streamed.fct_digest, retained.fct_digest);
        assert_eq!(streamed.totals, retained.totals);
        assert_eq!(streamed.links, retained.links);
    }

    #[test]
    fn cell_cap_drops_overflow_and_flows_still_complete() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.cell_cap_frames = 2; // mean flow is 8 frames: bursts overflow
        let r = run_packet(&cfg);
        assert!(r.totals.overflow_drops > 0, "cap must bind");
        assert_eq!(r.totals.flows, r.totals.flows_completed);
        assert_eq!(r.mem, MemStats::default(), "no budget configured");
        // The per-cell cap is layout-invariant: byte-identical results
        // at any shard count even while dropping.
        for shards in [2, 5] {
            let mut c = cfg.clone();
            c.shards = shards;
            c.threads = 2;
            assert!(run_packet(&c).simulation_eq(&r), "shards={shards}");
        }
    }

    #[test]
    fn shard_budget_charges_before_store_and_degrades_gracefully() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        // Overload the fabric (offered load past first-hop capacity) so
        // queue growth is guaranteed to hit a one-frame-per-link quota.
        cfg.mean_interarrival = Duration::from_us(3);
        cfg.mean_flow_frames = 32.0;
        cfg.mem_bytes_per_link = 1_500;
        let r = run_packet(&cfg);
        assert_eq!(r.mem.limit_bytes, 1_500 * cfg.geom.n_links() as u64);
        assert!(r.mem.hwm_bytes > 0 && r.mem.hwm_bytes <= r.mem.limit_bytes);
        assert!(r.mem.denials > 0, "budget must bind at two frames/link");
        assert_eq!(r.totals.overflow_drops, r.mem.denials);
        assert_eq!(r.totals.flows, r.totals.flows_completed);
    }

    #[test]
    fn unbinding_budget_is_invisible() {
        let base = run_packet(&tiny(PktPolicy::None));
        let mut cfg = tiny(PktPolicy::None);
        cfg.mem_bytes_per_link = 1 << 30; // never binds
        cfg.cell_cap_frames = 1 << 20;
        let r = run_packet(&cfg);
        assert_eq!(r.mem.denials, 0);
        assert!(r.simulation_eq(&base));
        assert!(r.mem.hwm_bytes > 0, "charges were made and released");
    }

    /// Tiny config with the full telemetry plane on: tracing, an
    /// aggressive health config (any error fires), no profiling.
    fn tiny_telemetry(policy: PktPolicy) -> PktFabricConfig {
        let mut cfg = tiny(policy);
        cfg.telemetry = PktTelemetryConfig {
            trace: true,
            trace_cap: 0,
            health: Some(HealthConfig {
                degraded_rate: 1e-6,
                corrupting_rate: 1e-3,
                clear_factor: 0.5,
                window_polls: 2,
                min_frames: 1,
                min_errors: 1,
            }),
            profile: false,
        };
        cfg
    }

    #[test]
    fn telemetry_is_purely_observational() {
        let off = run_packet(&tiny(PktPolicy::None));
        let on = run_packet(&tiny_telemetry(PktPolicy::None));
        assert_eq!(on.totals, off.totals);
        assert_eq!(on.links, off.links);
        assert_eq!(on.fct, off.fct);
        assert_eq!(on.fct_digest, off.fct_digest);
        assert_eq!(on.telemetry, off.telemetry);
        assert_eq!(on.stats.events, off.stats.events);
        assert!(off.trace.is_empty() && off.health.is_empty());
        assert!(!on.trace.is_empty(), "no-LG drops must be traced");
        assert!(!on.health.is_empty(), "corrupting links must transition");
        assert_eq!(on.trace_dropped, 0, "default cap must not overwrite");
    }

    #[test]
    fn telemetry_streams_are_layout_invariant() {
        let base = run_packet(&tiny_telemetry(PktPolicy::None));
        for (shards, threads) in [(2, 2), (4, 2), (7, 3)] {
            let mut cfg = tiny_telemetry(PktPolicy::None);
            cfg.shards = shards;
            cfg.threads = threads;
            let r = run_packet(&cfg);
            assert_eq!(r.trace_dropped, 0);
            assert!(
                r.simulation_eq(&base),
                "telemetry diverged at shards={shards} threads={threads}"
            );
        }
        // Per-link health streams must satisfy the schema's stream
        // order: strictly increasing window ids.
        let mut last: HashMap<u32, u64> = HashMap::new();
        for (link, ev) in &base.health {
            if let Some(prev) = last.insert(*link, ev.window_id) {
                assert!(ev.window_id > prev, "link {link} window regressed");
            }
        }
    }

    #[test]
    fn cross_shard_spans_keep_uid_chains() {
        let mut cfg = tiny_telemetry(PktPolicy::None);
        cfg.shards = 2; // one pod per shard: spine transit is cut
        let r = run_packet(&cfg);
        let part = partition(&cfg.geom, 2);
        // Find a frame whose lifecycle records live on different shards
        // (dropped in one pod, delivered in the other): its uid chain
        // must survive the mailbox crossing intact.
        let mut found = false;
        let uids: std::collections::BTreeSet<u64> = r.trace.iter().map(|t| t.uid).collect();
        for uid in uids {
            let hist = postmortem::history(&r.trace, uid);
            let shards_touched: std::collections::BTreeSet<u32> = hist
                .iter()
                .map(|t| part.shard_of_link[t.aux as usize])
                .collect();
            if shards_touched.len() < 2 {
                continue;
            }
            let kinds = postmortem::chain(&r.trace, uid);
            if kinds.contains(&Kind::CorruptDrop) && kinds.contains(&Kind::Deliver) {
                assert_eq!(*kinds.last().unwrap(), Kind::Deliver, "span ends delivered");
                found = true;
                break;
            }
        }
        assert!(found, "no cross-shard drop→deliver span found");
    }

    #[test]
    fn profiling_accumulates_without_touching_results() {
        let base = run_packet(&tiny(PktPolicy::LinkGuardian));
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.telemetry.profile = true;
        let r = run_packet(&cfg);
        assert!(r.simulation_eq(&base), "profiling must be invisible");
        assert!(r.profile.sampled() > 0, "sampler must fire");
        assert_eq!(
            r.profile.sampled(),
            r.profile.counts.iter().sum::<u64>(),
            "per-kind counts account for every sampled event"
        );
        assert_eq!(base.profile, PktProfile::default());
    }

    #[test]
    fn cross_shard_messages_flow_on_cut_edges() {
        let mut cfg = tiny(PktPolicy::None);
        cfg.shards = 2; // one pod per shard: spine transit is cut
        let mut fabric = PktFabric::new(&cfg);
        let stats = fabric.run();
        assert!(stats.messages > 0, "cross-pod traffic must cross shards");
        let r = fabric.collect(stats);
        assert!(r.cut_edges > 0);
    }

    // ---- Computed cells against simulated cells --------------------
    //
    // Healthy cells are served in closed form; corrupting cells by the
    // `Arrive` → FIFO → `TxDone` queue. `ALL_EVENTFUL` sends every cell
    // through the queue, which makes the simulated cell the oracle of
    // the computed one: everything but the event count must agree.

    const S: u64 = 120_000; // 1500 B at 100G, ps
    const H: u64 = 600_000; // hop latency, ps
    const RTO: u64 = 1_000_000_000;
    const T0: u64 = 1_000_000;

    /// Run `cfg` (after `script` has filed its own arrivals into shard
    /// 0) with healthy cells computed and again with every cell
    /// simulated; check the two agree and return the computed result.
    fn both(cfg: &PktFabricConfig, script: impl Fn(&mut FabricShard)) -> PktFabricResult {
        let run = |simulated: bool| {
            ALL_EVENTFUL.set(simulated);
            let mut fabric = PktFabric::new(cfg);
            ALL_EVENTFUL.set(false);
            script(&mut fabric.shards[0]);
            let stats = fabric.run();
            fabric.collect(stats)
        };
        let (computed, simulated) = (run(false), run(true));
        let sans_events = |t: PktTotals| PktTotals { events: 0, ..t };
        assert_eq!(computed.fct, simulated.fct);
        assert_eq!(computed.fct_digest, simulated.fct_digest);
        assert_eq!(computed.links, simulated.links);
        assert_eq!(computed.telemetry, simulated.telemetry);
        assert_eq!(sans_events(computed.totals), sans_events(simulated.totals));
        assert_eq!(computed.trace, simulated.trace);
        assert_eq!(computed.health, simulated.health);
        assert_eq!(computed.mem, simulated.mem, "same layout, same budget");
        assert_eq!(computed.stats.messages, simulated.stats.messages);
        assert!(computed.totals.events <= simulated.totals.events);
        computed
    }

    /// One pod, two ToRs, one fabric switch: link 0 (ToR 0), link 1
    /// (ToR 1), link 2 (the spine uplink), all healthy, no generator
    /// ever firing — frames enter through the test's script only.
    fn quiet() -> PktFabricConfig {
        let mut cfg = PktFabricConfig::pod_scale(1);
        cfg.geom = PodGeom {
            pods: 1,
            tors: 2,
            fabrics: 1,
            uplinks: 1,
        };
        cfg.horizon = Time::ZERO;
        cfg.corrupting_fraction = 0.0;
        cfg.telemetry.trace = true;
        cfg
    }

    /// Frame `i` of the `n` of `flow`, routed over `hops`, started at
    /// t = 0 — so a one-frame flow's FCT is its last departure plus `H`.
    fn frame(flow: u64, i: u16, n: u16, hops: &[u32]) -> Frame {
        let mut route = [u32::MAX; 4];
        route[..hops.len()].copy_from_slice(hops);
        Frame {
            key: (flow << 8) | i as u64,
            start: Time::ZERO,
            hops: route,
            hop: 0,
            n_hops: hops.len() as u8,
            frames: n,
            traced: false,
        }
    }

    /// `frame` reaches the ingress of its current hop at `at` ps, the
    /// way a cross-shard handoff files it.
    fn arrive(shard: &mut FabricShard, at: u64, frame: Frame) {
        shard.inject(ShardMsg {
            at: Time::from_ps(at),
            seq: 0,
            src_shard: 0,
            dst_shard: 0,
            payload: PktMsg { frame },
        });
    }

    /// A one-frame flow whose only hop is `link`.
    fn single(shard: &mut FabricShard, at: u64, flow: u64, link: u32) {
        arrive(shard, at, frame(flow, 0, 1, &[link]));
    }

    /// The `n` frames of `flow` reach `hops[0]` at `at` ps as one
    /// `Burst`, the way `on_flow_start` files them.
    fn burst(shard: &mut FabricShard, at: u64, flow: u64, n: u16, hops: &[u32]) {
        let mut head = NIL;
        for i in (0..n).rev() {
            head = shard.frames.insert(frame(flow, i, n, hops), head);
        }
        shard.q.schedule_at(Time::from_ps(at), PEv::Burst { head });
    }

    /// `TxDone` sorts before `Arrive` in a cell's tick: a frame arriving
    /// at the picosecond the serializer frees finds the cell empty, one
    /// arriving a picosecond earlier finds it occupied.
    #[test]
    fn arrival_as_the_serializer_frees_sees_an_empty_cell() {
        let mut cfg = quiet();
        cfg.cell_cap_frames = 1;
        let r = both(&cfg, |sh| {
            single(sh, T0, 1, 0);
            single(sh, T0 + S, 2, 0);
            single(sh, T0 + 2 * S - 1, 3, 0);
        });
        assert_eq!(
            r.fct,
            [
                (1, T0 + S + H),
                (2, T0 + 2 * S + H),
                (3, T0 + 2 * S - 1 + RTO + S + H), // refused, back an RTO later
            ]
        );
        let l = r.links[0];
        assert_eq!((l.tx_frames, l.overflow_drops, l.queue_hwm), (3, 1, 1));
    }

    #[test]
    fn cell_cap_binds_at_exactly_cap_frames() {
        let mut cfg = quiet();
        cfg.cell_cap_frames = 3;
        let r = both(&cfg, |sh| {
            for flow in 1..=4 {
                single(sh, T0, flow, 0); // the fourth finds three
            }
            single(sh, T0 + S, 5, 0); // one gone: two left, admitted
            single(sh, T0 + S + 1, 6, 0); // three again
        });
        assert_eq!(
            r.fct,
            [
                (1, T0 + S + H),
                (2, T0 + 2 * S + H),
                (3, T0 + 3 * S + H),
                (4, T0 + RTO + S + H),
                (5, T0 + 4 * S + H),
                (6, T0 + S + 1 + RTO + S + H),
            ]
        );
        let l = r.links[0];
        assert_eq!((l.tx_frames, l.overflow_drops, l.queue_hwm), (6, 2, 3));
    }

    /// A three-frame shard budget, full. A departure at the arrival's
    /// own instant has released its bytes if it is in a lower-numbered
    /// cell or the arrival's own (`TxDone` first), and has not if it is
    /// in a higher-numbered one.
    #[test]
    fn budget_release_ties_break_by_link() {
        let mut cfg = quiet();
        cfg.mem_bytes_per_link = 1_500; // x 3 links
        let t1 = 10 * T0;
        let r = both(&cfg, |sh| {
            single(sh, T0, 1, 0); // leaves link 0 at T0 + S
            single(sh, T0, 2, 2); // leaves link 2 at T0 + S
            single(sh, T0 + S / 2, 3, 1); // budget full
            single(sh, T0 + S, 4, 1); // link 0's frame is out: admitted
            single(sh, T0 + S, 5, 1); // link 2's is not yet: refused
            for flow in 7..=9 {
                single(sh, t1, flow, 1); // budget full again
            }
            single(sh, t1 + S, 10, 1); // flow 7 left this cell: admitted
            single(sh, t1 + 2 * S, 11, 0); // flow 8 leaves link 1 > 0: refused
        });
        assert_eq!(r.mem.limit_bytes, 4_500);
        assert_eq!(r.mem.hwm_bytes, 4_500);
        assert_eq!(r.mem.denials, 2);
        assert_eq!(r.links[0].overflow_drops, 1);
        assert_eq!(r.links[1].overflow_drops, 1);
        assert_eq!(r.links[2].overflow_drops, 0);
        let fct = |flow: u64| r.fct.iter().find(|&&(f, _)| f == flow).unwrap().1;
        assert_eq!(fct(4), T0 + S / 2 + 2 * S + H);
        assert_eq!(fct(5), T0 + S + RTO + S + H);
        assert_eq!(fct(10), t1 + 4 * S + H);
        assert_eq!(fct(11), t1 + 2 * S + RTO + S + H);
    }

    /// No cell cap and 320 frames into one cell: a 38 µs backlog, past
    /// the ledger ring's 33.5 µs, so the last forty-odd departures wait
    /// in its far heap. The budget holds 300 frames; arrivals at another
    /// cell as the 290th and the 300th leave are admitted only if the
    /// far keys are settled like the ring's.
    #[test]
    fn backlog_past_the_ring_horizon_settles_from_the_far_heap() {
        let mut cfg = quiet();
        cfg.mem_bytes_per_link = 150_000; // x 3 links = 300 frames
        let r = both(&cfg, |sh| {
            for flow in 1..=5 {
                burst(sh, T0, flow, 64, &[0]); // the last 20 frames refused
            }
            burst(sh, T0 + 290 * S, 6, 64, &[1]); // 10 + 64 held
            burst(sh, T0 + 300 * S, 7, 64, &[2]); // 54 + 64 held
        });
        const { assert!(300 * S > DEP_SLOTS << DEP_SLOT_SHIFT) };
        assert_eq!(r.mem.hwm_bytes, r.mem.limit_bytes);
        assert_eq!((r.mem.limit_bytes, r.mem.denials), (450_000, 20));
        assert_eq!(r.links[0].queue_hwm, 300);
        assert_eq!(
            (r.links[1].overflow_drops, r.links[2].overflow_drops),
            (0, 0)
        );
    }

    /// The two regimes of the lazy settle, each held to the all-eventful
    /// reference's `mem` by `both`: a binding budget (`used` sits at the
    /// mark, every charge settles first) and one a frame above the run's
    /// own high-water mark (most charges skip the settle, none may be
    /// refused, and the mark must come out the same).
    #[test]
    fn lazy_settle_is_exact_with_a_binding_budget_and_one_frame_of_slack() {
        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.mean_interarrival = Duration::from_us(3);
        cfg.mean_flow_frames = 32.0;
        cfg.mem_bytes_per_link = 1_500;
        let bound = both(&cfg, |_| {});
        assert_eq!(bound.mem.hwm_bytes, bound.mem.limit_bytes);
        assert!(bound.mem.denials > 0);

        let mut cfg = tiny(PktPolicy::LinkGuardian);
        cfg.mem_bytes_per_link = 1 << 30;
        let free = both(&cfg, |_| {});
        let links = cfg.geom.n_links() as u64;
        cfg.mem_bytes_per_link = (free.mem.hwm_bytes + 1_500).div_ceil(links);
        let slack = both(&cfg, |_| {});
        assert!(slack.mem.limit_bytes - free.mem.hwm_bytes < 1_500 + links);
        assert_eq!(
            (slack.mem.hwm_bytes, slack.mem.denials),
            (free.mem.hwm_bytes, 0)
        );
        assert!(slack.simulation_eq(&free));
    }

    /// A charge nothing gives back must not pass for a drained run.
    #[test]
    #[should_panic(expected = "budget bytes never released")]
    fn a_lost_release_fails_collect() {
        let mut cfg = quiet();
        cfg.mem_bytes_per_link = 1_500;
        let mut fabric = PktFabric::new(&cfg);
        single(&mut fabric.shards[0], T0, 1, 0);
        let (b, _) = fabric.shards[0].budget.as_ref().unwrap();
        assert!(b.try_charge(1_500));
        let stats = fabric.run();
        fabric.collect(stats);
    }

    /// A five-frame burst into a two-frame cell: the head is admitted,
    /// frames 2..5 are refused mid-chain and come back an RTO later as
    /// three arrivals of their own (one of them refused once more),
    /// while the admitted ones reach the last hop exactly `S` apart —
    /// each as the one before it leaves.
    #[test]
    fn burst_cut_by_the_cap_reinjects_its_tail() {
        let mut cfg = quiet();
        cfg.cell_cap_frames = 2;
        let r = both(&cfg, |sh| burst(sh, T0, 7, 5, &[0, 1]));
        assert_eq!(r.fct, [(7, T0 + 2 * RTO + S + H + S + H)]);
        let (first, last) = (r.links[0], r.links[1]);
        assert_eq!(
            (first.tx_frames, first.overflow_drops, first.queue_hwm),
            (5, 4, 2)
        );
        assert_eq!(
            (last.tx_frames, last.overflow_drops, last.queue_hwm),
            (5, 0, 1)
        );
        let kinds = |k: Kind| r.trace.iter().filter(|t| t.kind == k).count();
        assert_eq!((kinds(Kind::RxOverflow), kinds(Kind::Deliver)), (4, 3));
    }

    /// Link 0 is ToR 0's first hop and the last hop of everything sent
    /// to ToR 0. A maximal burst lands on it in the same tick as two
    /// last-hop frames whose keys sort either side of the flow's: the
    /// burst sorts as its head frame's arrival, between them.
    #[test]
    fn burst_shares_its_first_hop_with_last_hop_traffic() {
        let mut cfg = quiet();
        cfg.cell_cap_frames = 65;
        let n = MAX_FLOW_FRAMES;
        let last_hop = |flow: u64| Frame {
            hop: 1,
            ..frame(flow, 0, 1, &[1, 0])
        };
        let r = both(&cfg, |sh| {
            arrive(sh, T0, last_hop(150)); // sorts last: finds 65, refused
            burst(sh, T0, 100, n as u16, &[0, 1]);
            arrive(sh, T0, last_hop(50)); // sorts first
            arrive(sh, T0 + 10 * S + 1, last_hop(160)); // 55 still queued
        });
        assert_eq!(
            r.fct,
            [
                (50, T0 + S + H),
                (100, T0 + (n + 1) * S + H + S + H),
                (150, T0 + RTO + S + H + S + H), // re-enters at its source
                (160, T0 + (n + 2) * S + H),
            ]
        );
        let (shared, other) = (r.links[0], r.links[1]);
        assert_eq!(
            (shared.tx_frames, shared.overflow_drops, shared.queue_hwm),
            (n + 3, 1, 65)
        );
        assert_eq!((other.tx_frames, other.queue_hwm), (n + 1, 1));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The ledger against the heap it replaced: pushes above a
            /// nondecreasing `(ps, link)` threshold — equal-`ps` keys on
            /// both sides of the link, keys past the ring's horizon —
            /// and settles after gaps from nothing to several ring
            /// lengths return the same counts, and the same final drain.
            #[test]
            fn ledger_equals_the_release_heap(
                ops in proptest::collection::vec(
                    (
                        any::<bool>(),
                        prop_oneof![
                            Just(0u64),
                            0u64..4,
                            0u64..9_000,
                            0u64..400_000,
                            30_000_000u64..80_000_000
                        ],
                        0u32..6,
                    ),
                    1..400,
                ),
            ) {
                let mut ledger = Departures::new();
                let mut heap = BinaryHeap::new();
                let (mut now, mut at_link) = (0u64, 0u32);
                for (push, dt, link) in ops {
                    if push {
                        // Strictly above the threshold, as a departure is.
                        let ps = now + dt + u64::from(dt == 0u64 && link <= at_link);
                        ledger.push(ps, link);
                        heap.push(Reverse((ps, link)));
                    } else {
                        if dt > 0u64 || link > at_link {
                            (now, at_link) = (now + dt, link);
                        }
                        let mut n = 0;
                        while heap.peek().is_some_and(|d| d.0 <= (now, at_link)) {
                            heap.pop();
                            n += 1;
                        }
                        prop_assert_eq!(ledger.settle(now, at_link), n);
                    }
                }
                prop_assert_eq!(ledger.settle(u64::MAX, u32::MAX), heap.len() as u64);
                prop_assert_eq!(ledger.ring_len as usize + ledger.far.len(), 0);
            }

            /// Random geometry, load, admission limits (binding and
            /// not), loss, policy and layout: the computed cells and
            /// the simulated ones produce the same run.
            #[test]
            fn computed_cells_equal_simulated_cells(
                geom in (1u32..4, 2u32..5, 1u32..3, 1u32..4),
                load in (2u64..30, 1.0f64..24.0, 0.0f64..1.0),
                limits in (
                    prop_oneof![Just(0u32), 1u32..6, Just(48u32)],
                    prop_oneof![Just(0u64), Just(1_500u64), 1_500u64..6_000, Just(1u64 << 20)],
                ),
                loss in (prop_oneof![Just(0.0f64), 0.05f64..0.5, Just(1.0f64)], any::<bool>()),
                layout in (any::<u64>(), 1u32..4),
            ) {
                let mut cfg = PktFabricConfig::pod_scale(layout.0);
                cfg.geom = PodGeom { pods: geom.0, tors: geom.1, fabrics: geom.2, uplinks: geom.3 };
                cfg.horizon = Time::from_us(120);
                cfg.sample_interval = Duration::from_us(30);
                cfg.rto = Duration::from_us(40);
                cfg.mean_interarrival = Duration::from_us(load.0);
                cfg.mean_flow_frames = load.1;
                cfg.cross_pod = load.2;
                cfg.cell_cap_frames = limits.0;
                cfg.mem_bytes_per_link = limits.1;
                cfg.corrupting_fraction = loss.0;
                cfg.policy = if loss.1 { PktPolicy::LinkGuardian } else { PktPolicy::None };
                cfg.shards = layout.1;
                cfg.telemetry.trace = true;
                cfg.telemetry.trace_cap = 1 << 20;
                cfg.telemetry.health = Some(PktTelemetryConfig::packet_health());
                let r = both(&cfg, |_| {});
                prop_assert_eq!(r.totals.flows, r.totals.flows_completed);
                prop_assert_eq!(r.trace_dropped, 0);
            }
        }
    }
}
