//! The §4.8 large-scale maintenance simulation: vanilla CorrOpt vs
//! LinkGuardian + CorrOpt over a year of corruption events on the ~100K
//! link Facebook fabric.
//!
//! Methodology (following the paper): when a link starts corrupting,
//! the joint policy first activates LinkGuardian (reducing the effective
//! loss rate to `rate^(N+1)` per Eq. 2 at the cost of the Fig 8 effective
//! link speed), then runs CorrOpt's fast checker to disable the link for
//! repair if the capacity constraint allows. When a repair completes,
//! CorrOpt's optimizer tries to disable the deferred corrupting links.
//! 80% of repairs take ~2 days, the rest ~4 (§4.8).

use crate::corropt::{CapacityConstraint, CorrOpt};
use crate::topology::{Fabric, Link, LinkId, LinkState, LINKS_PER_POD};
use crate::tracegen::{sample_loss_rate, sample_repair_hours, sample_time_to_corruption, Hours};
use lg_guardd::{GuardAction, GuardConfig, GuardInput, GuardManager};
use lg_obs::health::{HealthConfig, HealthEstimator, LinkHealth};
use lg_sim::Rng;
use linkguardian::eq::{effective_loss_rate, retx_copies};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Maintenance policy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Vanilla CorrOpt: disable what the constraint allows; the rest
    /// keeps corrupting at full rate.
    CorrOptOnly,
    /// LinkGuardian + CorrOpt: activate LinkGuardian on every corrupting
    /// link, then disable what the constraint allows.
    LgPlusCorrOpt,
    /// Incremental deployment (§5): only a fraction of switches have been
    /// upgraded, so each link is LinkGuardian-capable with this
    /// probability; incapable corrupting links behave as under vanilla
    /// CorrOpt. `PartialLg(1.0)` ≡ `LgPlusCorrOpt`.
    PartialLg(f64),
    /// Closed-loop guardian control plane: LinkGuardian is activated
    /// not by the oracle corruption flag but by an [`lg_guardd`]
    /// manager consuming the streaming health feed — links are
    /// protected when their *observed* windowed rate trips the
    /// estimator, subject to the manager's recirculation budget and
    /// flap hold-down. `LgGuardd(GuardConfig::oracle())` reproduces the
    /// oracle policy's protection choices modulo one detection window.
    LgGuardd(GuardConfig),
}

impl Policy {
    /// Short stable label for run keys and filenames.
    pub fn label(self) -> String {
        match self {
            Policy::CorrOptOnly => "CorrOptOnly".into(),
            Policy::LgPlusCorrOpt => "LgPlusCorrOpt".into(),
            Policy::PartialLg(f) => format!("PartialLg{:.0}", f * 100.0),
            Policy::LgGuardd(_) => "LgGuardd".into(),
        }
    }
}

/// Effective link-speed fraction of a LinkGuardian-protected 100 G link,
/// interpolated from the paper's Fig 8 measurements (ordered mode):
/// ≈100% at 1e-5, ≈99% at 1e-4, ≈92% at 1e-3.
pub fn lg_effective_speed(loss_rate: f64) -> f64 {
    let anchors = [
        (1e-6, 1.0),
        (1e-5, 0.998),
        (1e-4, 0.99),
        (1e-3, 0.92),
        (1e-2, 0.70),
    ];
    if loss_rate <= anchors[0].0 {
        return anchors[0].1;
    }
    for w in anchors.windows(2) {
        let (r0, s0) = w[0];
        let (r1, s1) = w[1];
        if loss_rate <= r1 {
            let f = (loss_rate.ln() - r0.ln()) / (r1.ln() - r0.ln());
            return s0 + f * (s1 - s0);
        }
    }
    anchors.last().expect("non-empty").1
}

/// The penalty contribution of an active corrupting link, given whether
/// LinkGuardian is actually running on it.
pub fn link_penalty_with(lg_active: bool, loss_rate: f64, target: f64) -> f64 {
    if lg_active {
        let n = retx_copies(loss_rate, target);
        effective_loss_rate(loss_rate, n)
    } else {
        loss_rate
    }
}

/// The penalty contribution of an active corrupting link under a policy
/// at full deployment.
pub fn link_penalty(policy: Policy, loss_rate: f64, target: f64) -> f64 {
    link_penalty_with(!matches!(policy, Policy::CorrOptOnly), loss_rate, target)
}

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricSimConfig {
    /// Pods in the fabric (260 ≈ the paper's 100K links).
    pub pods: u32,
    /// Simulated horizon in hours (8,760 = one year).
    pub horizon_hours: Hours,
    /// Capacity constraint (0.50 or 0.75 in the paper).
    pub constraint: f64,
    /// Policy under test.
    pub policy: Policy,
    /// Metric sampling interval in hours.
    pub sample_interval_hours: Hours,
    /// LinkGuardian operator target loss rate.
    pub target_loss_rate: f64,
    /// Master RNG seed (same seed ⇒ same per-link failure schedule across
    /// policies, enabling the paired Fig 16 comparison).
    pub seed: u64,
}

impl FabricSimConfig {
    /// The paper's setup at the given constraint and policy.
    pub fn paper(constraint: f64, policy: Policy, seed: u64) -> FabricSimConfig {
        FabricSimConfig {
            pods: 260,
            horizon_hours: 8_760.0,
            constraint,
            policy,
            sample_interval_hours: 1.0,
            target_loss_rate: 1e-8,
            seed,
        }
    }

    /// Reject configs [`run`] cannot finish or make sense of (a zero or
    /// NaN sample interval never advances the sample clock; Eq. 2 has
    /// no copy count for a target outside (0, 1)).
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, rule: &str, got: f64| {
            ok.then_some(()).ok_or_else(|| format!("{rule}, got {got}"))
        };
        let (dt, horizon) = (self.sample_interval_hours, self.horizon_hours);
        check(
            dt.is_finite() && dt > 0.0,
            "sample interval must be finite and > 0 hours",
            dt,
        )?;
        check(self.pods >= 1, "pods must be >= 1", f64::from(self.pods))?;
        check(
            (0.0..=1.0).contains(&self.constraint),
            "capacity constraint must be in [0, 1]",
            self.constraint,
        )?;
        check(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be finite and >= 0 hours",
            horizon,
        )?;
        let target = self.target_loss_rate;
        check(
            target > 0.0 && target < 1.0,
            "target loss rate must be in (0, 1)",
            target,
        )
    }
}

/// One metric sample (a point of Fig 15's three panels).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Sample time (hours).
    pub t_hours: Hours,
    /// Sum of (effective) loss rates over all active corrupting links.
    pub total_penalty: f64,
    /// Least fraction of spine paths over all ToRs.
    pub least_paths: f64,
    /// Least pod uplink-capacity fraction.
    pub least_capacity: f64,
    /// Number of active (not disabled) corrupting links.
    pub active_corrupting: u32,
    /// Number of links currently disabled for repair.
    pub disabled: u32,
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FabricSimCounts {
    /// Corruption onsets.
    pub corruption_events: u64,
    /// Links disabled immediately by the fast checker.
    pub disabled_immediately: u64,
    /// Links that had to keep operating while corrupting.
    pub deferred: u64,
    /// Deferred links later disabled by the optimizer.
    pub optimizer_disabled: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// Peak simultaneous LinkGuardian-enabled links on one switch pipe
    /// (approximated per pod-fabric switch, §5).
    pub peak_lg_per_fabric_switch: u32,
}

/// One health-state transition of a fabric link, as the online
/// monitoring plane ([`lg_obs::health`]) would classify it from windowed
/// post-FEC counters. The estimators watch the *effective* loss rate —
/// what end hosts experience — so a LinkGuardian-protected link at raw
/// 1e-4 reads as healthy (~1e-9): LinkGuardian masks corruption from the
/// monitoring plane, which is exactly the paper's operational story.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricHealthEvent {
    /// Transition time (hours).
    pub t_hours: Hours,
    /// Per-link poll window index, strictly increasing across the whole
    /// run even if the link heals and later corrupts again.
    pub window_id: u64,
    /// The link that changed state.
    pub link: u32,
    /// State before the transition.
    pub from: LinkHealth,
    /// State after the transition.
    pub to: LinkHealth,
    /// Windowed effective loss rate that triggered the transition.
    pub rate: f64,
}

impl FabricHealthEvent {
    /// Render as a `health_event` JSONL line under the given run label.
    /// Timestamps use hour-as-second scaling (`t_ps` = `t_hours` × 1e12):
    /// real picoseconds overflow `u64` at year horizons.
    pub fn to_json_line(&self, run: &str) -> String {
        let mut l = lg_obs::JsonLine::new();
        l.str("type", "health_event")
            .u64("t_ps", (self.t_hours * 1e12) as u64)
            .u64("window_id", self.window_id)
            .str("run", run)
            .str("comp", "fabric_link")
            .str("inst", &format!("link:{}", self.link))
            .str("from", self.from.name())
            .str("to", self.to.name())
            .f64("rate", self.rate);
        l.finish()
    }
}

/// Result of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSimResult {
    /// Time series of samples.
    pub samples: Vec<SamplePoint>,
    /// Aggregate counters.
    pub counts: FabricSimCounts,
    /// Per-link health transitions (week/year rollups for `--health-log`).
    pub health_events: Vec<FabricHealthEvent>,
    /// Guardian decision journal (`guard_event` JSONL lines), non-empty
    /// only under [`Policy::LgGuardd`]. Part of `PartialEq`, so the
    /// thread-count determinism tests cover journal byte-identity too.
    pub guard_journal: Vec<String>,
}

/// A deferred corrupting link: its raw loss rate, whether LinkGuardian
/// runs on it, and its Eq. 2 penalty in that state. The penalty is set
/// where the state changes (onset, guard enable and retire) and read by
/// every sample.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    rate: f64,
    lg_on: bool,
    penalty: f64,
}

impl Deferred {
    fn new(rate: f64, lg_on: bool, target: f64) -> Deferred {
        Deferred {
            rate,
            lg_on,
            penalty: link_penalty_with(lg_on, rate, target),
        }
    }
}

#[derive(Debug, PartialEq)]
enum Ev {
    StartCorrupting(LinkId),
    RepairDone(LinkId),
}

struct Scheduled {
    at: Hours,
    seq: u64,
    ev: Ev,
}
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .partial_cmp(&self.at)
            .expect("no NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Run one policy over one trace.
///
/// Every event costs O(pod), by an invariant checked in debug builds:
/// after each event no deferred (`corrupting`) link passes the fast
/// checker. Onsets and guard decisions add no paths, a repair adds
/// paths to one pod only, and the optimizer's greedy pass leaves nothing
/// disableable behind it, so a repair re-tries its own pod's backlog
/// and no other (DESIGN.md §16).
///
/// # Panics
/// Panics with the [`FabricSimConfig::validate`] message on an invalid
/// config.
pub fn run(cfg: &FabricSimConfig) -> FabricSimResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid FabricSimConfig: {e}");
    }
    let mut fabric = Fabric::new(cfg.pods);
    let corropt = CorrOpt::new(CapacityConstraint(cfg.constraint));
    let n_links = fabric.n_links() as u32;

    // Per-link RNG streams forked from the master seed: the k-th failure
    // of link i draws identical values in every policy run.
    let mut master = Rng::new(cfg.seed);
    let mut link_rngs: Vec<Rng> = (0..n_links).map(|_| master.fork()).collect();

    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Scheduled>, seq: &mut u64, at: Hours, ev: Ev| {
        *seq += 1;
        heap.push(Scheduled { at, seq: *seq, ev });
    };
    for i in 0..n_links {
        let t = sample_time_to_corruption(&mut link_rngs[i as usize]);
        if t <= cfg.horizon_hours {
            push(&mut heap, &mut seq, t, Ev::StartCorrupting(LinkId(i)));
        }
    }

    // BTreeMap, not HashMap: its LinkId-sorted iteration order makes the
    // penalty float-sum and the optimizer backlog order reproducible.
    // HashMap's per-instance random hash keys made both vary from run to
    // run (and thread to thread), which breaks byte-identical sweeps.
    let mut corrupting: BTreeMap<LinkId, Deferred> = BTreeMap::new();
    let mut disabled_count: u32 = 0;
    let mut counts = FabricSimCounts::default();
    let mut samples = Vec::new();
    let mut next_sample: Hours = 0.0;

    // Online per-link health estimators, fed expected windowed counts at
    // every sample tick (deterministic: no extra RNG draws, so the paired
    // per-link failure schedules are untouched). Estimators exist only
    // for links currently corrupting or still draining back to Healthy,
    // kept in link order so a roll-up merges them with `corrupting`
    // without a lookup, into `health_next`; `health_window_base`
    // preserves window-id monotonicity per link across heal/re-corrupt
    // cycles and is touched only at a transition or a heal.
    let health_cfg = HealthConfig {
        window_polls: 8,
        ..HealthConfig::default()
    };
    let mut health: Vec<(LinkId, HealthEstimator)> = Vec::new();
    let mut health_next: Vec<(LinkId, HealthEstimator)> = Vec::new();
    let mut health_window_base: BTreeMap<LinkId, u64> = BTreeMap::new();
    let mut health_events: Vec<FabricHealthEvent> = Vec::new();

    // Which links are LinkGuardian-capable (incremental deployment, §5).
    // Capability is drawn from its own RNG stream so the per-link failure
    // schedules stay identical across policies and deployment fractions.
    let mut capability_rng = Rng::new(cfg.seed ^ 0x00DE_9107);
    let capable: Vec<bool> = match cfg.policy {
        Policy::CorrOptOnly => vec![false; n_links as usize],
        // Guardian mode assumes full hardware deployment; *which* links
        // actually run LinkGuardian is the manager's budgeted choice.
        Policy::LgPlusCorrOpt | Policy::LgGuardd(_) => vec![true; n_links as usize],
        Policy::PartialLg(f) => (0..n_links).map(|_| capability_rng.bernoulli(f)).collect(),
    };
    let guard_mode = matches!(cfg.policy, Policy::LgGuardd(_));
    let mut guard: Option<GuardManager> = match cfg.policy {
        Policy::LgGuardd(gc) => Some(GuardManager::new(
            &format!("c{:.0}/{}", cfg.constraint * 100.0, cfg.policy.label()),
            gc,
        )),
        _ => None,
    };
    let mut guard_fed = 0usize;

    let effective_speed = |l: &Link| -> f64 {
        match l.state {
            LinkState::Up => 1.0,
            LinkState::Disabled => 0.0,
            LinkState::Corrupting {
                loss_rate,
                lg_active,
            } => {
                if lg_active {
                    lg_effective_speed(loss_rate)
                } else {
                    1.0
                }
            }
        }
    };

    // Each pod's (least paths, capacity) pair as of its last change:
    // a sample recomputes only the pods dirtied since the previous one,
    // with the same two functions, so the f64 bits are what a full
    // rescan would give.
    let mut pod_sample = vec![(1.0f64, 1.0f64); cfg.pods as usize];
    let mut take_sample = |t: Hours,
                           fabric: &mut Fabric,
                           corrupting: &BTreeMap<LinkId, Deferred>,
                           disabled_count: u32,
                           samples: &mut Vec<SamplePoint>| {
        // Folded from +0.0, not `sum()` (which starts at -0.0): an
        // all-clear sample must be +0.0 in every build profile.
        let total_penalty = corrupting.values().fold(0.0, |a, d| a + d.penalty);
        let mut least_paths: f64 = 1.0;
        let mut least_capacity: f64 = 1.0;
        for pod in 0..cfg.pods {
            // skip pods with every link nominal
            if fabric.pod_non_up(pod) == 0 {
                continue;
            }
            let cached = &mut pod_sample[pod as usize];
            if fabric.take_dirty(pod) {
                *cached = (
                    fabric.least_paths_fraction_in_pod(pod),
                    fabric.pod_capacity_fraction(pod, effective_speed),
                );
            }
            least_paths = least_paths.min(cached.0);
            least_capacity = least_capacity.min(cached.1);
        }
        samples.push(SamplePoint {
            t_hours: t,
            total_penalty,
            least_paths,
            least_capacity,
            active_corrupting: corrupting.len() as u32,
            disabled: disabled_count,
        });
    };

    // Representative frame volume per link-hour fed to the estimators.
    // Only its order of magnitude matters: it has to clear `min_frames`
    // and resolve effective rates down to ~1e-9 (one error per window).
    const HEALTH_FRAMES_PER_HOUR: f64 = 1e9;
    let roll_health = |t: Hours,
                       corrupting: &BTreeMap<LinkId, Deferred>,
                       health: &mut Vec<(LinkId, HealthEstimator)>,
                       health_next: &mut Vec<(LinkId, HealthEstimator)>,
                       window_base: &mut BTreeMap<LinkId, u64>,
                       events: &mut Vec<FabricHealthEvent>| {
        let frames = (HEALTH_FRAMES_PER_HOUR * cfg.sample_interval_hours).round() as u64;
        // Hour-as-second scaling: real picoseconds overflow u64 at year
        // horizons, so the monitoring plane timestamps 1 h as 1e12 ps.
        let t_ps = (t * 1e12) as u64;
        // One ordered merge of the watched and the corrupting links:
        // every link in either, in link order, each paired with its
        // corrupting entry if it has one. A corrupting link not yet
        // watched gets a fresh estimator; a healed one is not carried
        // into `health_next`.
        let mut watched = health.drain(..).peekable();
        let mut deferred = corrupting.iter().peekable();
        loop {
            let w = watched.peek().map(|&(l, _)| l);
            let c = deferred.peek().map(|(&l, _)| l);
            let from_watched = match (w, c) {
                (None, None) => break,
                (Some(w), Some(c)) => w <= c,
                (w, _) => w.is_some(),
            };
            let (l, mut est, d) = if from_watched {
                let (l, est) = watched.next().expect("peeked");
                let d = if c == Some(l) {
                    deferred.next().map(|(_, &d)| d)
                } else {
                    None
                };
                (l, est, d)
            } else {
                let (&l, &d) = deferred.next().expect("peeked");
                (l, HealthEstimator::new(health_cfg), Some(d))
            };
            // Expected windowed counts: corrupting links show their
            // effective (post-LinkGuardian) loss rate; repaired/disabled
            // links show clean windows until hysteresis clears them.
            let errors = match d {
                Some(d) => {
                    // Guardian mode monitors the link-layer counters:
                    // LinkGuardian retransmits corrupted frames but the
                    // receiver still *counts* them, so the raw rate
                    // stays visible under protection and the control
                    // loop is not blinded by its own actuation. The
                    // oracle policies model the end-host view instead
                    // (the §4.8 masking story).
                    let eff = if guard_mode { d.rate } else { d.penalty };
                    (frames as f64 * eff).round() as u64
                }
                None => 0,
            };
            if let Some(ev) = est.observe(t_ps, frames, errors) {
                let base = window_base.get(&l).copied().unwrap_or(0);
                events.push(FabricHealthEvent {
                    t_hours: t,
                    window_id: base + ev.window_id,
                    link: l.0,
                    from: ev.from,
                    to: ev.to,
                    rate: ev.rate,
                });
            }
            if d.is_none()
                && est.state() == LinkHealth::Healthy
                && est.window_id() >= health_cfg.window_polls as u64
            {
                *window_base.entry(l).or_insert(0) += est.window_id();
            } else {
                health_next.push((l, est));
            }
        }
        drop(watched);
        std::mem::swap(health, health_next);
    };

    // Worst-case concurrent LG links per fabric switch (§5), maintained
    // incrementally as links enter and leave the corrupting set.
    // (Recomputing it from scratch after every event made the year-long
    // LG runs quadratic in the corrupting-set size and dominated the
    // whole sweep's wall clock.)
    let switch_key = |fabric: &Fabric, l: LinkId| -> (u32, u8) {
        let link = fabric.link(l);
        let fswitch = match link.kind {
            crate::topology::LinkKind::TorFabric { fabric, .. } => fabric,
            crate::topology::LinkKind::FabricSpine { fabric, .. } => fabric,
        };
        (link.pod, fswitch)
    };
    let mut lg_per_switch: HashMap<(u32, u8), u32> = HashMap::new();

    // Guardian decision pass, run after every health rollup: feed the
    // new transitions (already in canonical (t, link) order — the
    // rollup iterates the link-sorted estimator map at one tick) plus a
    // tick, then actuate the manager's decisions on the fabric. Enable
    // and retire flip `lg_active` on links still in the corrupting set;
    // a decision about a link the optimizer already disabled is a
    // bookkeeping no-op (the manager freed its budget slot, the fabric
    // has nothing to flip).
    let guard_step = |t: Hours,
                      guard: &mut Option<GuardManager>,
                      fed: &mut usize,
                      events: &[FabricHealthEvent],
                      fabric: &mut Fabric,
                      corrupting: &mut BTreeMap<LinkId, Deferred>,
                      lg_per_switch: &mut HashMap<(u32, u8), u32>,
                      counts: &mut FabricSimCounts| {
        let Some(mgr) = guard.as_mut() else { return };
        for ev in &events[*fed..] {
            mgr.ingest(GuardInput {
                t_ps: (ev.t_hours * 1e12) as u64,
                window_id: ev.window_id,
                link: ev.link,
                from: ev.from,
                to: ev.to,
                rate: ev.rate,
            });
        }
        *fed = events.len();
        mgr.tick((t * 1e12) as u64);
        for d in mgr.drain_decisions() {
            let link = LinkId(d.link);
            match d.action {
                GuardAction::Enable => {
                    if let Some(e) = corrupting.get_mut(&link) {
                        if !e.lg_on {
                            *e = Deferred::new(e.rate, true, cfg.target_loss_rate);
                            fabric.set_state(
                                link,
                                LinkState::Corrupting {
                                    loss_rate: e.rate,
                                    lg_active: true,
                                },
                            );
                            let n = lg_per_switch.entry(switch_key(fabric, link)).or_insert(0);
                            *n += 1;
                            counts.peak_lg_per_fabric_switch =
                                counts.peak_lg_per_fabric_switch.max(*n);
                        }
                    }
                }
                GuardAction::Retire => {
                    if let Some(e) = corrupting.get_mut(&link) {
                        if e.lg_on {
                            *e = Deferred::new(e.rate, false, cfg.target_loss_rate);
                            fabric.set_state(
                                link,
                                LinkState::Corrupting {
                                    loss_rate: e.rate,
                                    lg_active: false,
                                },
                            );
                            if let Some(n) = lg_per_switch.get_mut(&switch_key(fabric, link)) {
                                *n -= 1;
                            }
                        }
                    }
                }
                GuardAction::Defer => {}
            }
        }
    };

    loop {
        // Events past the horizon (late repairs) never run.
        let next = heap.pop().filter(|s| s.at <= cfg.horizon_hours);
        // emit samples up to this event, or to the horizon after the last
        let until = next.as_ref().map_or(cfg.horizon_hours, |s| s.at);
        while next_sample <= until {
            take_sample(
                next_sample,
                &mut fabric,
                &corrupting,
                disabled_count,
                &mut samples,
            );
            roll_health(
                next_sample,
                &corrupting,
                &mut health,
                &mut health_next,
                &mut health_window_base,
                &mut health_events,
            );
            guard_step(
                next_sample,
                &mut guard,
                &mut guard_fed,
                &health_events,
                &mut fabric,
                &mut corrupting,
                &mut lg_per_switch,
                &mut counts,
            );
            next_sample += cfg.sample_interval_hours;
        }
        let Some(Scheduled { at, ev, .. }) = next else {
            break;
        };
        match ev {
            Ev::StartCorrupting(link) => {
                counts.corruption_events += 1;
                let rate = sample_loss_rate(&mut link_rngs[link.0 as usize]);
                // In guardian mode no link starts protected: activation
                // is the manager's decision, made from observed health.
                let lg_on = capable[link.0 as usize] && !guard_mode;
                fabric.set_state(
                    link,
                    LinkState::Corrupting {
                        loss_rate: rate,
                        lg_active: lg_on,
                    },
                );
                if corropt.try_disable(&mut fabric, link) {
                    counts.disabled_immediately += 1;
                    disabled_count += 1;
                    let repair = sample_repair_hours(&mut link_rngs[link.0 as usize]);
                    push(&mut heap, &mut seq, at + repair, Ev::RepairDone(link));
                } else {
                    counts.deferred += 1;
                    corrupting.insert(link, Deferred::new(rate, lg_on, cfg.target_loss_rate));
                    if lg_on {
                        let n = lg_per_switch.entry(switch_key(&fabric, link)).or_insert(0);
                        *n += 1;
                        counts.peak_lg_per_fabric_switch = counts.peak_lg_per_fabric_switch.max(*n);
                    }
                }
            }
            Ev::RepairDone(link) => {
                counts.repairs += 1;
                disabled_count -= 1;
                fabric.set_state(link, LinkState::Up);
                let next_fail = sample_time_to_corruption(&mut link_rngs[link.0 as usize]);
                if at + next_fail <= cfg.horizon_hours {
                    push(
                        &mut heap,
                        &mut seq,
                        at + next_fail,
                        Ev::StartCorrupting(link),
                    );
                }
                // capacity returned to this pod: let the optimizer try
                // its backlog (link ids are pod-contiguous)
                let first = fabric.link(link).pod * LINKS_PER_POD as u32;
                let backlog: Vec<(LinkId, f64)> = corrupting
                    .range(LinkId(first)..LinkId(first + LINKS_PER_POD as u32))
                    .map(|(&l, d)| (l, d.rate))
                    .collect();
                for l in corropt.optimize(&mut fabric, &backlog) {
                    counts.optimizer_disabled += 1;
                    if let Some(Deferred { lg_on: true, .. }) = corrupting.remove(&l) {
                        if let Some(n) = lg_per_switch.get_mut(&switch_key(&fabric, l)) {
                            *n -= 1;
                        }
                    }
                    disabled_count += 1;
                    let repair = sample_repair_hours(&mut link_rngs[l.0 as usize]);
                    push(&mut heap, &mut seq, at + repair, Ev::RepairDone(l));
                }
            }
        }
        debug_assert!(
            corrupting
                .keys()
                .all(|&l| !corropt.can_disable(&mut fabric, l)),
            "a deferred link passes the fast checker after the event at t={at} h"
        );
    }

    let guard_journal = match guard {
        Some(mut mgr) => mgr.take_journal(),
        None => Vec::new(),
    };
    FabricSimResult {
        samples,
        counts,
        health_events,
        guard_journal,
    }
}

/// Run many independent configs, fanning them across up to `threads`
/// worker threads — *per-config fan-out*, not intra-run parallelism.
///
/// Each config owns its master seed (all randomness forks from it), so
/// runs are independent; results come back in `cfgs` order regardless
/// of scheduling, making output byte-identical at any thread count.
/// Every individual run still executes on a single thread. To put
/// multiple cores on *one* simulation, use the sharded packet-level
/// path ([`run_packet`](crate::pktsim::run_packet) with
/// `shards`/`threads` > 1), which partitions the topology itself.
pub fn run_many(cfgs: &[FabricSimConfig], threads: usize) -> Vec<FabricSimResult> {
    lg_sim::par_map(cfgs, threads, |_, cfg| run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: Policy, constraint: f64) -> FabricSimConfig {
        FabricSimConfig {
            pods: 10,
            horizon_hours: 24.0 * 30.0, // one month
            constraint,
            policy,
            sample_interval_hours: 6.0,
            target_loss_rate: 1e-8,
            seed: 7,
        }
    }

    #[test]
    fn run_many_is_deterministic_across_thread_counts() {
        let cfgs: Vec<FabricSimConfig> = (0..6u64)
            .map(|i| {
                let mut c = small_cfg(
                    if i % 2 == 0 {
                        Policy::CorrOptOnly
                    } else {
                        Policy::LgPlusCorrOpt
                    },
                    if i < 3 { 0.5 } else { 0.75 },
                );
                c.horizon_hours = 24.0 * 7.0;
                c.seed = 100 + i;
                c
            })
            .collect();
        let serial = run_many(&cfgs, 1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run_many(&cfgs, threads), "threads={threads}");
        }
    }

    #[test]
    fn deferred_links_never_pass_the_fast_checker() {
        // Under `debug_assertions` (how tier-1 runs) `run` sweeps the
        // pod-locality invariant after every event and panics on the
        // first deferred link the fast checker would let go.
        for policy in [
            Policy::CorrOptOnly,
            Policy::LgPlusCorrOpt,
            Policy::PartialLg(0.5),
            Policy::LgGuardd(GuardConfig::default()),
        ] {
            let r = run(&small_cfg(policy, 0.75));
            assert!(
                r.counts.deferred > 0 && r.counts.optimizer_disabled > 0,
                "{policy:?}: the month must defer links and drain some: {:?}",
                r.counts
            );
        }
    }

    #[test]
    fn validate_names_each_rejected_field() {
        let ok = small_cfg(Policy::CorrOptOnly, 0.75);
        assert_eq!(ok.validate(), Ok(()));
        let zero_horizon = FabricSimConfig {
            horizon_hours: 0.0,
            ..ok.clone()
        };
        assert_eq!(zero_horizon.validate(), Ok(()));
        assert_eq!(run(&zero_horizon).samples.len(), 1);
        for dt in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let bad = FabricSimConfig {
                sample_interval_hours: dt,
                ..ok.clone()
            };
            let e = bad.validate().expect_err("bad interval");
            assert!(e.starts_with("sample interval"), "{e}");
        }
        let bad = FabricSimConfig {
            pods: 0,
            ..ok.clone()
        };
        assert!(bad.validate().expect_err("no pods").starts_with("pods"));
        for constraint in [-0.1, 1.5, f64::NAN] {
            let bad = FabricSimConfig {
                constraint,
                ..ok.clone()
            };
            let e = bad.validate().expect_err("bad constraint");
            assert!(e.starts_with("capacity constraint"), "{e}");
        }
        for horizon_hours in [-1.0, f64::NAN, f64::INFINITY] {
            let bad = FabricSimConfig {
                horizon_hours,
                ..ok.clone()
            };
            let e = bad.validate().expect_err("bad horizon");
            assert!(e.starts_with("horizon"), "{e}");
        }
        for target_loss_rate in [0.0, -1e-8, 1.0, 1.5, f64::NAN] {
            let bad = FabricSimConfig {
                target_loss_rate,
                ..ok.clone()
            };
            let e = bad.validate().expect_err("bad target");
            assert!(e.starts_with("target loss rate"), "{e}");
        }
    }

    #[test]
    #[should_panic(expected = "sample interval must be finite and > 0 hours, got 0")]
    fn run_refuses_a_zero_sample_interval_instead_of_looping() {
        run(&FabricSimConfig {
            sample_interval_hours: 0.0,
            ..small_cfg(Policy::CorrOptOnly, 0.75)
        });
    }

    #[test]
    #[should_panic(
        expected = "invalid FabricSimConfig: target loss rate must be in (0, 1), got NaN"
    )]
    fn run_refuses_a_target_loss_rate_even_where_no_link_reads_it() {
        // CorrOptOnly never computes Eq. 2, so without the check the
        // bad target would be silently ignored here.
        run(&FabricSimConfig {
            target_loss_rate: f64::NAN,
            ..small_cfg(Policy::CorrOptOnly, 0.75)
        });
    }

    #[test]
    fn lg_effective_speed_anchors() {
        assert!((lg_effective_speed(1e-3) - 0.92).abs() < 1e-9);
        assert!((lg_effective_speed(1e-4) - 0.99).abs() < 1e-9);
        assert!(lg_effective_speed(1e-7) > 0.999);
        // monotone decreasing
        assert!(lg_effective_speed(1e-5) > lg_effective_speed(1e-3));
    }

    #[test]
    fn link_penalty_policies() {
        assert_eq!(link_penalty(Policy::CorrOptOnly, 1e-3, 1e-8), 1e-3);
        let p = link_penalty(Policy::LgPlusCorrOpt, 1e-3, 1e-8);
        assert!((p - 1e-9).abs() < 1e-18, "{p:e}");
    }

    #[test]
    fn simulation_runs_and_counts_balance() {
        let r = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        assert!(r.counts.corruption_events > 0);
        assert_eq!(
            r.counts.corruption_events,
            r.counts.disabled_immediately + r.counts.deferred
        );
        assert!(!r.samples.is_empty());
        // paths never fall below the constraint
        for s in &r.samples {
            assert!(
                s.least_paths >= 0.75 - 1e-9,
                "constraint violated: {}",
                s.least_paths
            );
        }
    }

    #[test]
    fn lg_policy_reduces_total_penalty() {
        let corropt = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        let combined = run(&small_cfg(Policy::LgPlusCorrOpt, 0.75));
        let mean = |r: &FabricSimResult| {
            r.samples.iter().map(|s| s.total_penalty).sum::<f64>() / r.samples.len() as f64
        };
        let p_corropt = mean(&corropt);
        let p_combined = mean(&combined);
        assert!(p_corropt > 0.0);
        assert!(
            p_combined < p_corropt / 1_000.0,
            "expected orders of magnitude: {p_corropt:e} vs {p_combined:e}"
        );
    }

    #[test]
    fn lg_policy_costs_some_capacity() {
        let corropt = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        let combined = run(&small_cfg(Policy::LgPlusCorrOpt, 0.75));
        let mean_cap = |r: &FabricSimResult| {
            r.samples.iter().map(|s| s.least_capacity).sum::<f64>() / r.samples.len() as f64
        };
        // the combined policy trades a little capacity (Fig 16b) ...
        assert!(mean_cap(&combined) <= mean_cap(&corropt) + 1e-12);
        // ... but only a little (paper: ≤ a few tenths of a percent)
        assert!(mean_cap(&corropt) - mean_cap(&combined) < 0.02);
    }

    #[test]
    fn same_seed_same_trace_shape() {
        let a = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        let b = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        assert_eq!(a.counts.corruption_events, b.counts.corruption_events);
        assert_eq!(a.samples.len(), b.samples.len());
    }

    #[test]
    fn health_rollups_track_deferred_corruption() {
        // At 0.75 many corrupting links are deferred and later disabled
        // by the optimizer: the health plane must see them leave Healthy
        // and drain back after repair, with per-link window ids strictly
        // increasing across the whole run.
        let r = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        assert!(r.counts.deferred > 0);
        assert!(!r.health_events.is_empty(), "deferred links must trip");
        assert!(r
            .health_events
            .iter()
            .any(|e| e.to == LinkHealth::Corrupting));
        // Repairs drain links back through the hysteresis to Healthy.
        assert!(r.health_events.iter().any(|e| e.to == LinkHealth::Healthy));
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for e in &r.health_events {
            if let Some(&prev) = last.get(&e.link) {
                assert!(
                    e.window_id > prev,
                    "link {} window {} after {}",
                    e.link,
                    e.window_id,
                    prev
                );
            }
            last.insert(e.link, e.window_id);
        }
    }

    #[test]
    fn lg_masks_corruption_from_the_health_plane() {
        // Under LgPlusCorrOpt every deferred link runs at its effective
        // (post-LinkGuardian) rate ≈ 1e-9 < the 1e-8 degraded threshold:
        // the monitoring plane keeps reading the fabric as healthy.
        let cfg = FabricSimConfig {
            constraint: 0.995,
            ..small_cfg(Policy::LgPlusCorrOpt, 0.0)
        };
        let r = run(&cfg);
        assert!(r.counts.deferred > 0, "needs deferred links to be a test");
        assert!(
            r.health_events.is_empty(),
            "LG-protected links must stay Healthy, got {:?}",
            r.health_events.first()
        );
    }

    #[test]
    fn guardd_oracle_latch_matches_observed_degradation() {
        // Budget ∞ + hold-down 0 + no retirement is `corruptd`'s
        // one-shot latch: the set of links ever enabled must be exactly
        // the links whose observed health ever left Healthy, and no
        // retire/defer records may exist.
        let r = run(&small_cfg(
            Policy::LgGuardd(lg_guardd::GuardConfig::oracle()),
            0.75,
        ));
        assert!(!r.guard_journal.is_empty(), "deferred links must trip");
        let j = lg_guardd::query::parse_journal(&r.guard_journal.join("\n")).expect("valid");
        let mut enabled: Vec<u32> = j
            .events
            .iter()
            .filter(|e| e.action == lg_guardd::GuardAction::Enable)
            .map(|e| e.link)
            .collect();
        enabled.sort_unstable();
        enabled.dedup();
        let mut tripped: Vec<u32> = r
            .health_events
            .iter()
            .filter(|e| e.to >= LinkHealth::Degraded)
            .map(|e| e.link)
            .collect();
        tripped.sort_unstable();
        tripped.dedup();
        assert_eq!(enabled, tripped);
        assert!(j
            .events
            .iter()
            .all(|e| e.action == lg_guardd::GuardAction::Enable));
        // Every enable decision carries its cause chain.
        assert!(j.events.iter().all(|e| !e.cause.is_empty()));
    }

    #[test]
    fn guardd_oracle_penalty_sits_between_corropt_and_oracle_lg() {
        // Observed-health activation pays one detection window of full-
        // rate exposure per link, so: CorrOptOnly >> LgGuardd(oracle) >=
        // LgPlusCorrOpt.
        let corropt = run(&small_cfg(Policy::CorrOptOnly, 0.75));
        let oracle_lg = run(&small_cfg(Policy::LgPlusCorrOpt, 0.75));
        let guardd = run(&small_cfg(
            Policy::LgGuardd(lg_guardd::GuardConfig::oracle()),
            0.75,
        ));
        let mean = |r: &FabricSimResult| {
            r.samples.iter().map(|s| s.total_penalty).sum::<f64>() / r.samples.len() as f64
        };
        let (p_c, p_o, p_g) = (mean(&corropt), mean(&oracle_lg), mean(&guardd));
        // Each deferred link runs unprotected for one detection window
        // (6 h at this test's poll cadence) out of a ~2–4 day repair
        // lifetime, so the masking factor is bounded by the cadence,
        // not by Eq. 2 — expect ~an order of magnitude here, not the
        // oracle's ~10^6.
        assert!(
            p_g < p_c / 3.0,
            "guardd must mask most of the penalty: {p_c:e} vs {p_g:e}"
        );
        assert!(
            p_g >= p_o - 1e-15,
            "observed-health activation cannot beat the oracle: {p_o:e} vs {p_g:e}"
        );
        assert!(
            p_g > p_o,
            "detection delay must cost something: {p_o:e} vs {p_g:e}"
        );
    }

    #[test]
    fn guardd_budget_caps_concurrent_protection() {
        let budget = 2;
        let cfg = small_cfg(
            Policy::LgGuardd(lg_guardd::GuardConfig {
                budget,
                hold_down_windows: 0,
                ..lg_guardd::GuardConfig::default()
            }),
            0.75,
        );
        let r = run(&cfg);
        let j = lg_guardd::query::parse_journal(&r.guard_journal.join("\n")).expect("valid");
        assert!(!j.events.is_empty());
        let mut live = 0i64;
        for e in &j.events {
            match e.action {
                lg_guardd::GuardAction::Enable => live += 1,
                lg_guardd::GuardAction::Retire => live -= 1,
                lg_guardd::GuardAction::Defer => {}
            }
            assert!(
                live <= i64::from(budget),
                "budget exceeded at seq {}",
                e.seq
            );
            assert!(e.budget_used <= u64::from(budget));
        }
        // The budget must actually bind in this scenario (otherwise the
        // test proves nothing) — some link had to wait.
        assert!(
            j.events
                .iter()
                .any(|e| e.action == lg_guardd::GuardAction::Defer),
            "expected at least one defer under budget {budget}"
        );
    }

    #[test]
    fn guardd_journal_is_deterministic() {
        let cfg = small_cfg(Policy::LgGuardd(lg_guardd::GuardConfig::default()), 0.75);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.guard_journal, b.guard_journal);
        assert_eq!(a, b);
    }

    #[test]
    fn stricter_constraint_defers_more_links() {
        // higher required capacity ⇒ fewer links can be disabled
        let cfg90 = FabricSimConfig {
            constraint: 0.995,
            ..small_cfg(Policy::CorrOptOnly, 0.0)
        };
        let strict = run(&cfg90);
        let loose = run(&small_cfg(Policy::CorrOptOnly, 0.50));
        assert!(
            strict.counts.deferred > loose.counts.deferred,
            "strict {} vs loose {}",
            strict.counts.deferred,
            loose.counts.deferred
        );
    }
}
