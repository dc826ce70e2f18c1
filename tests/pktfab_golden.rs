//! Golden digests of the packet-level fabric engine
//! (`lg_fabric::run_packet`).
//!
//! Every field [`PktFabricResult::simulation_eq`] compares — retained
//! FCTs, the streaming digest, every `LinkStats` row incl. `queue_hwm`,
//! telemetry rows, the merged trace, health events, totals — is folded
//! into one FNV-1a hash per configuration, *except* the event count
//! (`totals.events` / `stats.events`): how many queue events a run costs
//! is a property of the engine's mechanics, not of the fabric it
//! simulates, and an optimisation may change it. At `shards = 1` the
//! memory-budget accounting (`mem.limit_bytes`, `hwm_bytes`, `denials`)
//! is folded too; at other layouts it is legitimately layout-dependent.
//!
//! Recorded on the event-per-hop engine (every cell an
//! `Arrive`→FIFO→`TxDone` queue). An optimisation of `pktsim` must leave
//! every digest as it is; a deliberate model change records new ones
//! (the failure message prints the value).

use lg_fabric::{run_packet, PktFabricConfig, PktFabricResult, PktPolicy, PktTelemetryConfig};
use lg_sim::{Duration, Time};

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(r: &PktFabricResult, with_mem: bool) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(r.fct.len() as u64);
    for &(flow, fct) in &r.fct {
        h.u64(flow);
        h.u64(fct);
    }
    let d = r.fct_digest;
    for v in [d.count, d.min, d.max, d.p50, d.p99, d.p999] {
        h.u64(v);
    }
    h.u64(r.links.len() as u64);
    for l in &r.links {
        for v in [
            u64::from(l.link),
            l.loss_ppb,
            l.tx_frames,
            l.corrupt_drops,
            l.recoveries,
            l.overflow_drops,
            u64::from(l.queue_hwm),
        ] {
            h.u64(v);
        }
    }
    h.u64(r.telemetry.len() as u64);
    for t in &r.telemetry {
        for v in [
            u64::from(t.sample),
            u64::from(t.link),
            t.tx_frames,
            t.corrupt_drops,
            t.recoveries,
        ] {
            h.u64(v);
        }
    }
    let t = r.totals;
    for v in [
        t.flows,
        t.flows_completed,
        t.tx_frames,
        t.corrupt_drops,
        t.recoveries,
        t.source_retx,
        t.overflow_drops,
    ] {
        h.u64(v);
    }
    h.u64(r.trace.len() as u64);
    for rec in &r.trace {
        for v in [
            rec.t_ps,
            rec.uid,
            rec.seq,
            u64::from(rec.aux),
            u64::from(rec.inst),
            rec.comp as u64,
            rec.kind as u64,
        ] {
            h.u64(v);
        }
    }
    h.u64(r.health.len() as u64);
    for (link, e) in &r.health {
        h.u64(u64::from(*link));
        h.u64(e.t_ps);
        h.u64(e.window_id);
        h.bytes(e.from.name().as_bytes());
        h.bytes(e.to.name().as_bytes());
        h.u64(e.rate.to_bits());
        h.u64(e.frames);
        h.u64(e.errors);
    }
    if with_mem {
        for v in [r.mem.limit_bytes, r.mem.hwm_bytes, r.mem.denials] {
            h.u64(v);
        }
    }
    h.0
}

/// The pod preset (8 pods, 1,024 links, 10 % corrupting) with the whole
/// telemetry plane on, cut to a debug-build horizon: 600 µs of flow
/// generation, a snapshot every 50 µs so the 4-poll health windows
/// close several times.
fn pod(policy: PktPolicy) -> PktFabricConfig {
    let mut cfg = PktFabricConfig::pod_scale(1);
    cfg.horizon = Time::from_us(600);
    cfg.sample_interval = Duration::from_us(50);
    cfg.policy = policy;
    cfg.threads = 2;
    cfg.telemetry = PktTelemetryConfig {
        trace: true,
        trace_cap: 0,
        health: Some(PktTelemetryConfig::packet_health()),
        profile: false,
    };
    cfg
}

/// One digest for a configuration run at `shards = 1` (budget
/// accounting folded in) and at `other` (it must fold to the same
/// simulation outcome; `other = 1` skips the second run).
fn check(
    name: &str,
    cfg: &PktFabricConfig,
    other: u32,
    want: (u64, u64),
    probe: fn(&PktFabricResult),
) {
    let mut one = cfg.clone();
    one.shards = 1;
    let r = run_packet(&one);
    assert_eq!(r.totals.flows, r.totals.flows_completed, "{name}: drained");
    assert_eq!(r.trace_dropped, 0, "{name}: ring sized for the run");
    probe(&r);
    let got = (digest(&r, false), digest(&r, true));
    assert_eq!(
        got, want,
        "{name}: PktFabricResult digests moved; got ({:#018x}, {:#018x})",
        got.0, got.1
    );
    if other > 1 {
        let mut many = cfg.clone();
        many.shards = other;
        let r = run_packet(&many);
        assert_eq!(
            digest(&r, false),
            want.0,
            "{name}: shards={other} diverged from the recorded outcome"
        );
    }
}

#[test]
fn pod_preset_linkguardian_matches_golden() {
    check(
        "pod/lg",
        &pod(PktPolicy::LinkGuardian),
        4,
        (0x2e1e_e358_561e_38f6, 0xa55e_0c55_3c6a_7136),
        |r| {
            assert!(r.totals.recoveries > 0 && r.totals.corrupt_drops == 0);
            assert!(!r.trace.is_empty() && !r.health.is_empty() && !r.telemetry.is_empty());
            assert!(r.links.iter().any(|l| l.queue_hwm > 8), "queues must build");
        },
    );
}

#[test]
fn pod_preset_no_lg_matches_golden() {
    check(
        "pod/none",
        &pod(PktPolicy::None),
        4,
        (0x9df3_936d_ae3e_5bb8, 0x67a1_3a86_7bee_f0b8),
        |r| {
            assert!(r.totals.corrupt_drops > 0 && r.totals.source_retx == r.totals.corrupt_drops);
            assert!(!r.trace.is_empty() && !r.health.is_empty());
        },
    );
}

/// A 4-frame cell cap against 8-frame mean bursts: drop-tail binds on
/// most flows, and the re-injections land an RTO later on queues that
/// are busy again. Layout-invariant, so checked at 4 shards too.
#[test]
fn binding_cell_cap_matches_golden() {
    let mut cfg = pod(PktPolicy::LinkGuardian);
    cfg.cell_cap_frames = 4;
    check(
        "pod/cap4",
        &cfg,
        4,
        (0xd2c5_3733_ad0a_293b, 0x2a2e_13f4_52bc_8d5b),
        |r| {
            assert!(r.totals.overflow_drops > 1_000, "cap must bind");
            assert_eq!(r.mem.denials, 0);
            assert!(r.links.iter().all(|l| l.queue_hwm <= 4));
        },
    );
}

/// One frame of budget per link, shared across the shard: the quota
/// binds whenever bursts coincide. Budget drops are layout-dependent,
/// so this one is pinned at `shards = 1` only — with `hwm_bytes` and
/// `denials`.
#[test]
fn binding_shard_budget_matches_golden() {
    let mut cfg = pod(PktPolicy::None);
    cfg.mean_interarrival = Duration::from_us(8);
    cfg.mem_bytes_per_link = 1_500;
    check(
        "pod/budget",
        &cfg,
        1,
        (0xd099_0c91_f799_58bd, 0xd907_51e5_145d_45c2),
        |r| {
            assert!(r.mem.denials > 100, "budget must bind");
            assert_eq!(r.mem.denials, r.totals.overflow_drops);
            assert_eq!(r.mem.hwm_bytes, r.mem.limit_bytes, "quota was reached");
        },
    );
}

/// A 30-pod slice of the paper-scale preset (11,520 links, 2 %
/// corrupting, 256-frame cap and 64 KB/link budget that never bind,
/// streaming FCTs only), at 1 and 3 shards.
#[test]
fn fabric_scale_slice_matches_golden() {
    for (policy, want) in [
        (
            PktPolicy::LinkGuardian,
            (0x9bc4_d2fd_3726_7d11, 0x13cf_867c_db82_d353),
        ),
        (
            PktPolicy::None,
            (0x7ef9_8078_7a68_f1d1, 0x0327_5856_2e9c_6f93),
        ),
    ] {
        let mut cfg = PktFabricConfig::fabric_scale(1);
        cfg.geom.pods = 30;
        cfg.horizon = Time::from_us(120);
        cfg.sample_interval = Duration::from_us(20);
        cfg.policy = policy;
        cfg.threads = 2;
        cfg.telemetry.trace = true;
        cfg.telemetry.health = Some(PktTelemetryConfig::packet_health());
        check("scale30", &cfg, 3, want, |r| {
            assert!(r.fct.is_empty(), "streaming only");
            assert!(r.fct_digest.count > 10_000);
            assert_eq!(r.mem.denials, 0);
            assert!(r.mem.hwm_bytes > 0, "budget charged and released");
            assert!(r.totals.recoveries + r.totals.corrupt_drops > 0);
        });
    }
}
