//! `lg-guardd` — the guardian control plane over the streaming health
//! feed.
//!
//! The paper argues LinkGuardian should be enabled *selectively*:
//! recirculation capacity is a budget, so an operator must decide which
//! corrupting links get protection and watch that decision stay correct
//! as links degrade, flap and recover (cf. CorrOpt's capacity-
//! constrained repair, which `corruptd` approximates per switch). The
//! telemetry plane (PR 4/9) produces the raw signal — streaming
//! `health_event` transitions from per-link [`lg_obs::health`]
//! estimators — and this crate is the missing consumer: a
//! [`GuardManager`] ingests that feed, maintains per-link health
//! history, and makes budgeted protection decisions:
//!
//! * **enable** LinkGuardian on the worst links at or above the
//!   protection threshold, ranked by observed windowed loss rate, while
//!   the budget allows;
//! * **defer** a qualifying link when the budget is exhausted,
//!   recording the candidates that beat it;
//! * **retire** protection when the observed rate clears the
//!   estimator's `clear_factor` hysteresis band (the link reads
//!   `healthy` again), with a per-link hold-down on re-protection to
//!   suppress flap churn.
//!
//! Every decision is an observable, schema-valid `guard_event` JSONL
//! record carrying its full cause chain: the health transitions that
//! triggered it and the scores of the candidates it beat. The manager
//! is a pure fold over the (canonically ordered) event stream — no wall
//! clock, no hashing, no allocation-order dependence — so the same
//! stream produces a **byte-identical journal** at any `--threads` /
//! `--shards` layout, and the journal replays deterministically.
//! History and the protected set persist across restarts via a
//! single-line snapshot ([`GuardManager::snapshot_line`] /
//! [`GuardManager::restore`]): restoring mid-stream and feeding the
//! remainder converges to the same final protected set (and the same
//! journal suffix) as the uninterrupted run.
//!
//! The select/retire/persist shape follows arti's `tor-guardmgr`; the
//! one-shot activation semantics of [`GuardConfig::oracle`] make this
//! manager the paper's `corruptd` latch (budget ∞, hold-down 0, no
//! retirement ⇒ the protected set is exactly the links whose observed
//! health ever left `Healthy`) — the only implementation of Appendix C
//! in the workspace.

use lg_obs::health::HealthEvent;
pub use lg_obs::health::LinkHealth;
use lg_obs::json::{Scanned, Scanner};
use lg_obs::JsonLine;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub mod query;
#[cfg(test)]
mod reference;

/// Transitions included in a decision's cause chain (most recent last).
pub const CAUSE_CAP: usize = 4;
/// Beaten candidates recorded per decision (worst-first).
pub const BEAT_CAP: usize = 8;

/// Largest integer the snapshot's JSON-number round-trip preserves
/// exactly (f64 mantissa). Derived per-link times are clamped here so
/// `snapshot_line` → `restore` is byte-exact.
const PS_EXACT: u64 = 1 << 53;

/// Guardian policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Maximum simultaneously protected links (the recirculation-
    /// capacity budget); `u32::MAX` means unbounded.
    pub budget: u32,
    /// After a retirement, re-protection of the link is suppressed for
    /// this many of its poll windows — the flap damper. The suppression
    /// interval is converted to sim time using the link's observed poll
    /// cadence (the `t_ps`/`window_id` deltas of its own health
    /// events), so a suppressed link re-qualifies on any later decision
    /// pass — another link's event or a [`GuardManager::tick`] — rather
    /// than needing a transition of its own. `0` disables the damper.
    pub hold_down_windows: u64,
    /// Retire protection when the link's observed health returns to
    /// `Healthy` (the estimator's `clear_factor` hysteresis has
    /// cleared). `false` reproduces `corruptd`'s one-shot latch.
    pub retire: bool,
    /// Minimum observed health state that qualifies a link for
    /// protection. `Degraded` is the paper's 1e-8 activation boundary
    /// (what `corruptd` latches on); `Corrupting` protects only links
    /// CorrOpt would also queue for repair.
    pub protect_on: LinkHealth,
    /// Health transitions retained per link for cause chains and
    /// `guardctl history`.
    pub history_cap: usize,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            budget: 64,
            hold_down_windows: 16,
            retire: true,
            protect_on: LinkHealth::Degraded,
            history_cap: 16,
        }
    }
}

impl GuardConfig {
    /// The paper's `corruptd` (Appendix C): unbounded budget, no
    /// hold-down, one-shot activation (never retire) at the `Degraded`
    /// boundary. `tests/corruptd_loop.rs` pins a testbed world under
    /// this configuration to the trajectory recorded when a separate
    /// `corruptd` daemon still ran beside it.
    pub fn oracle() -> GuardConfig {
        GuardConfig {
            budget: u32::MAX,
            hold_down_windows: 0,
            retire: false,
            ..GuardConfig::default()
        }
    }
}

/// One normalized health transition fed to the manager. This is the
/// link-id-plus-[`HealthEvent`] shape every producer (testbed world,
/// analytic fabric, packet fabric) can map onto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardInput {
    /// Sim time of the poll that caused the transition.
    pub t_ps: u64,
    /// Per-link poll window index (strictly increasing per link).
    pub window_id: u64,
    /// Global link id.
    pub link: u32,
    /// State before.
    pub from: LinkHealth,
    /// State after.
    pub to: LinkHealth,
    /// Windowed loss rate at the transition.
    pub rate: f64,
}

impl GuardInput {
    /// Adapt an [`lg_obs::health::HealthEvent`] for link `link`.
    pub fn from_health_event(link: u32, ev: &HealthEvent) -> GuardInput {
        GuardInput {
            t_ps: ev.t_ps,
            window_id: ev.window_id,
            link,
            from: ev.from,
            to: ev.to,
            rate: ev.rate,
        }
    }

    /// Write this transition's fields into the object `l` has open.
    fn write(&self, l: &mut JsonLine) {
        l.u64("t_ps", self.t_ps)
            .u64("window_id", self.window_id)
            .u64("link", u64::from(self.link))
            .str("from", self.from.name())
            .str("to", self.to.name())
            .f64("rate", self.rate);
    }

    pub(crate) fn from_json(v: Scanned<'_>) -> Result<GuardInput, String> {
        Ok(GuardInput {
            t_ps: whole(v, "t_ps")?,
            window_id: whole(v, "window_id")?,
            link: whole(v, "link")?,
            from: health_from_name(&v.str("from")?)?,
            to: health_from_name(&v.str("to")?)?,
            rate: rate(v)?,
        })
    }
}

/// A persisted integer field. Journals and snapshots are untrusted
/// across invocations, and `as` would turn `-5` into 0, `4294967297.5`
/// into link `u32::MAX` and `1e30` into a `seq` whose next increment
/// overflows — so a value is taken only if it is a whole number in
/// `0..=`[`PS_EXACT`] that fits the field's type.
fn whole<T: TryFrom<u64>>(v: Scanned<'_>, key: &str) -> Result<T, String> {
    let n = v.num(key)?;
    let exact = n >= 0.0 && n <= PS_EXACT as f64 && n.fract() == 0.0;
    exact
        .then(|| T::try_from(n as u64).ok())
        .flatten()
        .ok_or_else(|| {
            format!(
                "field {key:?} must be a whole number in 0..=2^53 that fits {}, got {n}",
                std::any::type_name::<T>()
            )
        })
}

/// A persisted loss rate: finite and not negative ([`rank`] orders by it).
fn rate(v: Scanned<'_>) -> Result<f64, String> {
    let r = v.num("rate")?;
    if r.is_finite() && r >= 0.0 {
        Ok(r)
    } else {
        Err(format!("field \"rate\" must be finite and >= 0, got {r}"))
    }
}

/// Sort a batch of inputs into the canonical feed order. The manager is
/// a fold, so the journal is a function of the feed order; producers
/// that merge per-shard streams must agree on one. Canonical order is
/// `(t_ps, link, window_id)` — layout-invariant keys only, so any
/// shard/thread layout yields the same order and therefore a
/// byte-identical journal.
pub fn canonical_sort(events: &mut [GuardInput]) {
    events.sort_by_key(|a| (a.t_ps, a.link, a.window_id));
}

/// What a decision did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAction {
    /// LinkGuardian protection enabled on the link.
    Enable,
    /// Protection retired (observed health cleared).
    Retire,
    /// The link qualified but the budget was exhausted.
    Defer,
}

impl GuardAction {
    /// Stable lowercase name used in JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            GuardAction::Enable => "enable",
            GuardAction::Retire => "retire",
            GuardAction::Defer => "defer",
        }
    }

    /// Inverse of [`GuardAction::name`].
    pub fn parse(s: &str) -> Option<GuardAction> {
        match s {
            "enable" => Some(GuardAction::Enable),
            "retire" => Some(GuardAction::Retire),
            "defer" => Some(GuardAction::Defer),
            _ => None,
        }
    }
}

/// A structured decision, for actuation by the embedding simulation
/// (the journal line is the observable twin of this record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardDecision {
    /// Journal sequence number (strictly increasing per manager).
    pub seq: u64,
    /// Sim time of the triggering ingest.
    pub t_ps: u64,
    /// The link decided on.
    pub link: u32,
    /// What was decided.
    pub action: GuardAction,
    /// The link's windowed rate at decision time.
    pub rate: f64,
}

#[derive(Debug, Clone)]
struct LinkEntry {
    state: LinkHealth,
    rate: f64,
    /// Re-protection suppressed until this sim time (set at retirement).
    hold_until_ps: u64,
    /// Observed poll cadence: sim time per window, from the link's own
    /// event deltas (0 until two events have been seen).
    window_ps: u64,
    /// The last `history_cap` transitions, oldest first.
    history: VecDeque<GuardInput>,
}

impl LinkEntry {
    fn new() -> LinkEntry {
        LinkEntry {
            state: LinkHealth::Healthy,
            rate: 0.0,
            hold_until_ps: 0,
            window_ps: 0,
            history: VecDeque::new(),
        }
    }

    /// This link's entry in the waiting pool.
    fn waiting(&self) -> Waiting {
        Waiting {
            rate: self.rate,
            hold_until_ps: self.hold_until_ps,
        }
    }
}

/// Decision ranking: worst observed rate first; link id breaks ties so
/// the order is total and reproducible.
fn rank(a: &(u32, f64), b: &(u32, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("rates are finite")
        .then_with(|| a.0.cmp(&b.0))
}

/// A waiting link's ranking key and hold-down, copied from its
/// [`LinkEntry`] so the enable pass reads no `links` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Waiting {
    rate: f64,
    hold_until_ps: u64,
}

/// The guardian manager: a deterministic fold from the canonical health
/// stream to protection decisions, a JSONL journal, and a restorable
/// snapshot.
///
/// A decision pass costs what changed, not what was ever seen, and
/// looks up `links` only for the links it decides on: the three sets
/// it reads — `protected` (with each link's rate), `cleared` (protected
/// links reading `Healthy`) and `waiting` (unprotected links at or
/// above `protect_on`, with rate and hold-down) — are kept up to date
/// at the only places they change (`ingest` of that link, enable,
/// retire, `restore`), and only the candidates an enable or defer
/// record uses are sorted.
/// Invariant, checked after every pass in debug builds: `protected` and
/// `waiting` are disjoint subsets of `links`' keys whose values equal
/// the entries', a link is in `waiting` exactly when it is not
/// protected and its state is at or above `protect_on`, and `cleared`
/// is exactly the protected links whose state is `Healthy`.
#[derive(Debug)]
pub struct GuardManager {
    cfg: GuardConfig,
    run: String,
    links: BTreeMap<u32, LinkEntry>,
    protected: BTreeMap<u32, f64>,
    cleared: BTreeSet<u32>,
    waiting: BTreeMap<u32, Waiting>,
    seq: u64,
    last_t_ps: u64,
    journal: Vec<String>,
    decisions: Vec<GuardDecision>,
    /// The enable and defer passes' ranking buffer, kept for its
    /// allocation.
    candidates: Vec<(u32, f64)>,
}

/// Sort the `n` best of `pool` by [`rank`] into its front; the rest is
/// left in no particular order. `rank` is a strict total order (link
/// ids are distinct), so the front equals the first `n` of a full sort.
fn rank_front(pool: &mut [(u32, f64)], n: usize) {
    if n < pool.len() {
        pool.select_nth_unstable_by(n, rank);
    }
    let n = n.min(pool.len());
    pool[..n].sort_unstable_by(rank);
}

impl GuardManager {
    /// A fresh manager. `run` labels every journal record (the same run
    /// key the rest of the observability plane uses).
    pub fn new(run: &str, cfg: GuardConfig) -> GuardManager {
        GuardManager {
            cfg,
            run: run.to_string(),
            links: BTreeMap::new(),
            protected: BTreeMap::new(),
            cleared: BTreeSet::new(),
            waiting: BTreeMap::new(),
            seq: 0,
            last_t_ps: 0,
            journal: Vec::new(),
            decisions: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Build a manager and fold a whole (canonically ordered) stream
    /// through it.
    pub fn replay(run: &str, cfg: GuardConfig, events: &[GuardInput]) -> GuardManager {
        let mut m = GuardManager::new(run, cfg);
        for ev in events {
            m.ingest(*ev);
        }
        m
    }

    /// The manager's configuration.
    pub fn config(&self) -> GuardConfig {
        self.cfg
    }

    /// The run label stamped into journal records.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// Links currently protected, ascending.
    pub fn protected_links(&self) -> Vec<u32> {
        self.protected.keys().copied().collect()
    }

    /// Whether a link is currently protected.
    pub fn is_protected(&self, link: u32) -> bool {
        self.protected.contains_key(&link)
    }

    /// Budget slots in use.
    pub fn budget_used(&self) -> u32 {
        self.protected.len() as u32
    }

    /// Decisions made so far (= last journal seq).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Journal lines accumulated since the last take (seq order).
    pub fn journal(&self) -> &[String] {
        &self.journal
    }

    /// Drain the accumulated journal lines.
    pub fn take_journal(&mut self) -> Vec<String> {
        std::mem::take(&mut self.journal)
    }

    /// Drain the structured decisions (for actuation).
    pub fn drain_decisions(&mut self) -> Vec<GuardDecision> {
        std::mem::take(&mut self.decisions)
    }

    /// Ingest one health transition. The caller feeds the canonical
    /// stream order ([`canonical_sort`]); every state change and journal
    /// record is a pure function of that order.
    pub fn ingest(&mut self, ev: GuardInput) {
        debug_assert!(
            ev.t_ps >= self.last_t_ps,
            "guard feed out of order: {} after {}",
            ev.t_ps,
            self.last_t_ps
        );
        self.last_t_ps = ev.t_ps;
        let e = self.links.entry(ev.link).or_insert_with(LinkEntry::new);
        if let Some(prev) = e.history.back() {
            if ev.window_id > prev.window_id && ev.t_ps > prev.t_ps {
                e.window_ps =
                    ((ev.t_ps - prev.t_ps) / (ev.window_id - prev.window_id)).min(PS_EXACT);
            }
        }
        e.state = ev.to;
        e.rate = ev.rate;
        if e.history.len() == self.cfg.history_cap.max(1) {
            e.history.pop_front();
        }
        e.history.push_back(ev);
        if let Some(rate) = self.protected.get_mut(&ev.link) {
            *rate = ev.rate;
            if ev.to == LinkHealth::Healthy {
                self.cleared.insert(ev.link);
            } else {
                self.cleared.remove(&ev.link);
            }
        } else if ev.to >= self.cfg.protect_on {
            self.waiting.insert(ev.link, e.waiting());
        } else {
            self.waiting.remove(&ev.link);
        }
        self.decide(ev.t_ps, Some(ev.link));
    }

    /// Run a decision pass with no new event — embeddings call this at
    /// poll boundaries so a link whose hold-down expired (and which,
    /// still corrupting, will emit no further transitions) re-qualifies
    /// without waiting for another link's event. Tick cadence is part
    /// of the deterministic input: the journal is a function of the
    /// interleaved (event, tick) sequence.
    pub fn tick(&mut self, t_ps: u64) {
        debug_assert!(
            t_ps >= self.last_t_ps,
            "guard tick out of order: {} after {}",
            t_ps,
            self.last_t_ps
        );
        self.last_t_ps = t_ps;
        self.decide(t_ps, None);
    }

    /// Run the decision pass: retire cleared links, then fill the budget
    /// worst-first, then record a defer for the triggering link if it
    /// qualified but lost. Iteration is over the sets (link order) and
    /// an explicitly keyed selection — nothing layout-dependent.
    fn decide(&mut self, t_ps: u64, trigger: Option<u32>) {
        // Retirement: protection is withdrawn as soon as the estimator's
        // clear_factor hysteresis reads the link Healthy again. The
        // hold-down starts here: re-protection is suppressed for
        // `hold_down_windows` × the link's observed poll cadence.
        if self.cfg.retire {
            while let Some(l) = self.cleared.pop_first() {
                let e = self.links.get_mut(&l).expect("protected link exists");
                e.hold_until_ps = t_ps
                    .saturating_add(self.cfg.hold_down_windows.saturating_mul(e.window_ps))
                    .min(PS_EXACT);
                let w = e.waiting();
                self.protected.remove(&l);
                if LinkHealth::Healthy >= self.cfg.protect_on {
                    self.waiting.insert(l, w);
                }
                self.emit(t_ps, l, GuardAction::Retire, &[]);
            }
        }

        // Candidate pool: waiting and out of hold-down. Each enable
        // records the next candidates down as the ones it beat, so only
        // the `free + BEAT_CAP` best are ranked.
        let free = self.cfg.budget - self.budget_used();
        if free > 0 && !self.waiting.is_empty() {
            let mut candidates = std::mem::take(&mut self.candidates);
            candidates.clear();
            candidates.extend(
                self.waiting
                    .iter()
                    .filter(|(_, w)| t_ps >= w.hold_until_ps)
                    .map(|(&l, w)| (l, w.rate)),
            );
            let enabled = (free as usize).min(candidates.len());
            rank_front(&mut candidates, enabled.saturating_add(BEAT_CAP));
            for i in 0..enabled {
                let (link, rate) = candidates[i];
                self.waiting.remove(&link);
                self.protected.insert(link, rate);
                if self.links[&link].state == LinkHealth::Healthy {
                    self.cleared.insert(link);
                }
                let beat = &candidates[i + 1..];
                self.emit(
                    t_ps,
                    link,
                    GuardAction::Enable,
                    &beat[..beat.len().min(BEAT_CAP)],
                );
            }
            self.candidates = candidates;
        }
        // Budget exhausted: record the deferral, but only for the link
        // whose transition triggered this pass — the rest of the pool
        // was already deferred when *their* transitions arrived, and
        // re-recording them every pass would bloat the journal without
        // adding information (ticks have no trigger and record none).
        // The trigger lost exactly when it is still waiting and out of
        // hold-down. A defer's `beat` array is the set of links holding
        // the budget it lost (worst-first) — by this point any
        // candidate ranked above it was just enabled, so the protected
        // set IS the full list of who beat it.
        let lost = trigger.filter(|l| self.waiting.get(l).is_some_and(|w| t_ps >= w.hold_until_ps));
        if let Some(trigger) = lost {
            let mut holders = std::mem::take(&mut self.candidates);
            holders.clear();
            holders.extend(self.protected.iter().map(|(&l, &rate)| (l, rate)));
            rank_front(&mut holders, BEAT_CAP);
            holders.truncate(BEAT_CAP);
            self.emit(t_ps, trigger, GuardAction::Defer, &holders);
            self.candidates = holders;
        }
        #[cfg(debug_assertions)]
        self.assert_sets();
    }

    /// The invariant tying `protected`, `cleared` and `waiting` to
    /// `links`.
    #[cfg(debug_assertions)]
    fn assert_sets(&self) {
        for (l, e) in &self.links {
            let protected = self.protected.get(l);
            assert!(protected.is_none_or(|&r| r == e.rate), "link {l} rate");
            let waits = protected.is_none() && e.state >= self.cfg.protect_on;
            let w = waits.then(|| e.waiting());
            assert_eq!(self.waiting.get(l).copied(), w, "link {l} waiting");
            let cleared = protected.is_some() && e.state == LinkHealth::Healthy;
            assert_eq!(self.cleared.contains(l), cleared, "link {l} cleared");
        }
        let known = |l: &u32| self.links.contains_key(l);
        assert!(self.protected.keys().all(known) && self.waiting.keys().all(known));
        assert!(self.cleared.iter().all(known));
    }

    /// Append one decision to the journal and the actuation queue.
    fn emit(&mut self, t_ps: u64, link: u32, action: GuardAction, beat: &[(u32, f64)]) {
        self.seq += 1;
        let e = &self.links[&link];
        let cause = e.history.len().saturating_sub(CAUSE_CAP);
        let mut l = JsonLine::new();
        l.str("type", "guard_event")
            .u64("t_ps", t_ps)
            .u64("seq", self.seq)
            .str("run", &self.run)
            .u64("link", u64::from(link))
            .str("action", action.name())
            .str("state", e.state.name())
            .f64("rate", e.rate)
            .u64("budget", u64::from(self.cfg.budget))
            .u64("budget_used", u64::from(self.budget_used()))
            .objects("cause", e.history.iter().skip(cause), |l, h| h.write(l))
            .objects("beat", beat, |l, &(link, rate)| {
                l.u64("link", u64::from(link)).f64("rate", rate);
            });
        self.journal.push(l.finish());
        self.decisions.push(GuardDecision {
            seq: self.seq,
            t_ps,
            link,
            action,
            rate: e.rate,
        });
    }

    /// Serialize the complete manager state as one `guard_snapshot`
    /// JSONL record. Restoring it ([`GuardManager::restore`]) and
    /// feeding the rest of the stream produces the same final protected
    /// set — and the same journal suffix — as never having stopped:
    /// every float crosses the text boundary via shortest-roundtrip
    /// formatting, so nothing drifts.
    pub fn snapshot_line(&self) -> String {
        let mut l = JsonLine::new();
        l.str("type", "guard_snapshot")
            .u64("t_ps", self.last_t_ps)
            .u64("seq", self.seq)
            .str("run", &self.run)
            .u64("budget", u64::from(self.cfg.budget))
            .u64("budget_used", u64::from(self.budget_used()))
            .u64("hold_down_windows", self.cfg.hold_down_windows)
            .bool("retire", self.cfg.retire)
            .str("protect_on", self.cfg.protect_on.name())
            .u64("history_cap", self.cfg.history_cap as u64)
            .objects("links", &self.links, |l, (link, e)| {
                l.u64("link", u64::from(*link))
                    .str("state", e.state.name())
                    .f64("rate", e.rate)
                    .bool("protected", self.protected.contains_key(link))
                    .u64("hold_until_ps", e.hold_until_ps)
                    .u64("window_ps", e.window_ps)
                    .objects("history", &e.history, |l, h| h.write(l));
            });
        l.finish()
    }

    /// Rebuild a manager from a [`GuardManager::snapshot_line`] record.
    /// The journal buffer starts empty; `seq` continues where the
    /// snapshot left off, so a journal stitched from
    /// `[prefix, post-restore suffix]` is seamless.
    pub fn restore(line: &str) -> Result<GuardManager, String> {
        let mut scanner = Scanner::default();
        let v = scanner
            .scan(line)
            .map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
        if v.str("type")? != "guard_snapshot" {
            return Err("not a guard_snapshot record".into());
        }
        let is_true =
            |v: Scanned<'_>, key: &str| v.get(key).and_then(|b| b.as_bool()) == Some(true);
        let cfg = GuardConfig {
            budget: whole(v, "budget")?,
            hold_down_windows: whole(v, "hold_down_windows")?,
            retire: is_true(v, "retire"),
            protect_on: health_from_name(&v.str("protect_on")?)?,
            history_cap: whole(v, "history_cap")?,
        };
        let mut m = GuardManager::new("", cfg);
        let Some(items) = v.get("links").and_then(|l| l.as_arr()) else {
            return Err("snapshot missing \"links\" array".into());
        };
        for item in items {
            let link: u32 = whole(item, "link")?;
            let mut history = VecDeque::new();
            if let Some(hs) = item.get("history").and_then(|h| h.as_arr()) {
                for h in hs {
                    // `ingest` keeps at least one transition.
                    if history.len() == cfg.history_cap.max(1) {
                        return Err(format!(
                            "link {link}: \"history\" is longer than history_cap {}",
                            cfg.history_cap
                        ));
                    }
                    history.push_back(GuardInput::from_json(h)?);
                }
            }
            let protected = is_true(item, "protected");
            let e = LinkEntry {
                state: health_from_name(&item.str("state")?)?,
                rate: rate(item)?,
                hold_until_ps: whole(item, "hold_until_ps")?,
                window_ps: whole(item, "window_ps")?,
                history,
            };
            // Last entry wins if a hand-edited snapshot repeats a link.
            m.protected.remove(&link);
            m.cleared.remove(&link);
            m.waiting.remove(&link);
            if protected {
                m.protected.insert(link, e.rate);
                if e.state == LinkHealth::Healthy {
                    m.cleared.insert(link);
                }
            } else if e.state >= cfg.protect_on {
                m.waiting.insert(link, e.waiting());
            }
            m.links.insert(link, e);
        }
        // `decide` only ever compares `budget_used() < budget`: a
        // snapshot over its budget would stay over it.
        let used = m.budget_used();
        if used > cfg.budget {
            return Err(format!(
                "{used} links are \"protected\" over a \"budget\" of {}",
                cfg.budget
            ));
        }
        let recorded: u32 = whole(v, "budget_used")?;
        if recorded != used {
            return Err(format!(
                "\"budget_used\" is {recorded} but {used} links are \"protected\""
            ));
        }
        m.run = v.str("run")?.into_owned();
        m.seq = whole(v, "seq")?;
        m.last_t_ps = whole(v, "t_ps")?;
        Ok(m)
    }
}

/// Parse a [`LinkHealth`] from its stable lowercase name.
pub fn health_from_name(s: &str) -> Result<LinkHealth, String> {
    match s {
        "healthy" => Ok(LinkHealth::Healthy),
        "degraded" => Ok(LinkHealth::Degraded),
        "corrupting" => Ok(LinkHealth::Corrupting),
        other => Err(format!("unknown health state {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_obs::json::parse;
    use lg_obs::JsonValue;

    fn tr(t: u64, w: u64, link: u32, from: LinkHealth, to: LinkHealth, rate: f64) -> GuardInput {
        GuardInput {
            t_ps: t,
            window_id: w,
            link,
            from,
            to,
            rate,
        }
    }

    const H: LinkHealth = LinkHealth::Healthy;
    const D: LinkHealth = LinkHealth::Degraded;
    const C: LinkHealth = LinkHealth::Corrupting;

    #[test]
    fn worst_link_wins_the_budget_and_the_loser_defers() {
        let cfg = GuardConfig {
            budget: 1,
            hold_down_windows: 0,
            ..GuardConfig::default()
        };
        let mut m = GuardManager::new("t", cfg);
        m.ingest(tr(10, 1, 3, H, C, 1e-4));
        assert_eq!(m.protected_links(), vec![3]);
        // A worse link arrives: budget is taken, it defers and records
        // who beat it.
        m.ingest(tr(20, 1, 7, H, C, 1e-3));
        assert_eq!(m.protected_links(), vec![3]);
        let d = m.drain_decisions();
        assert_eq!(d.len(), 2);
        assert_eq!(d[1].action, GuardAction::Defer);
        assert_eq!(d[1].link, 7);
        assert!(m.journal()[1].contains("\"beat\":[{\"link\":3,"));
        // The incumbent clears: retirement frees the slot and the same
        // decision pass promotes the deferred link with it.
        m.ingest(tr(30, 9, 3, C, H, 1e-9));
        assert_eq!(m.protected_links(), vec![7]);
        let d = m.drain_decisions();
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].link, d[0].action), (3, GuardAction::Retire));
        assert_eq!((d[1].link, d[1].action), (7, GuardAction::Enable));
    }

    #[test]
    fn equal_rates_break_ties_by_link_id() {
        let cfg = GuardConfig {
            budget: 1,
            ..GuardConfig::default()
        };
        let mut m = GuardManager::new("t", cfg);
        m.ingest(tr(10, 1, 9, H, C, 1e-3));
        m.ingest(tr(10, 1, 2, H, C, 1e-3));
        // link 9 got there first; after both transitions the pool is
        // re-ranked on every pass but 9 already holds the slot.
        assert_eq!(m.protected_links(), vec![9]);
    }

    #[test]
    fn hold_down_suppresses_flap_churn() {
        let cfg = GuardConfig {
            budget: u32::MAX,
            hold_down_windows: 4,
            ..GuardConfig::default()
        };
        let mut m = GuardManager::new("t", cfg);
        m.ingest(tr(10, 1, 5, H, D, 1e-7));
        assert!(m.is_protected(5));
        // Retire at t=20 with an observed cadence of 10 per window:
        // re-protection is suppressed until t = 20 + 4×10 = 60.
        m.ingest(tr(20, 2, 5, D, H, 1e-9));
        assert!(!m.is_protected(5));
        m.ingest(tr(30, 3, 5, H, D, 1e-7));
        assert!(!m.is_protected(5), "hold-down must block re-protection");
        m.ingest(tr(50, 5, 5, D, C, 1e-5));
        assert!(!m.is_protected(5), "still inside the hold-down");
        m.ingest(tr(60, 6, 5, C, C, 1e-5));
        assert!(m.is_protected(5), "hold-down expired");
    }

    #[test]
    fn tick_requalifies_a_stuck_link_after_hold_down() {
        // A still-corrupting link emits no transitions after its
        // re-trip; with no other links producing events, only a tick
        // can run the pass that re-protects it once the hold expires.
        let cfg = GuardConfig {
            budget: u32::MAX,
            hold_down_windows: 4,
            ..GuardConfig::default()
        };
        let mut m = GuardManager::new("t", cfg);
        m.ingest(tr(10, 1, 5, H, C, 1e-4));
        m.ingest(tr(20, 2, 5, C, H, 1e-9)); // retire; hold until t=60
        m.ingest(tr(30, 3, 5, H, C, 1e-4)); // re-trip, suppressed, then silence
        assert!(!m.is_protected(5));
        m.tick(40);
        assert!(!m.is_protected(5), "tick inside hold-down must not enable");
        m.tick(70);
        assert!(m.is_protected(5), "tick after hold-down must enable");
        // Ticks with nothing to decide add no journal records.
        let n = m.journal().len();
        m.tick(80);
        assert_eq!(m.journal().len(), n);
    }

    #[test]
    fn oracle_config_is_a_one_shot_latch() {
        let events = [
            tr(10, 1, 1, H, D, 1e-7),
            tr(20, 2, 2, H, C, 1e-4),
            tr(30, 5, 1, D, H, 1e-9), // clears, but oracle never retires
            tr(40, 6, 2, C, H, 1e-9),
        ];
        let m = GuardManager::replay("t", GuardConfig::oracle(), &events);
        assert_eq!(m.protected_links(), vec![1, 2]);
        assert_eq!(m.budget_used(), 2);
    }

    #[test]
    fn replay_is_deterministic_and_chunking_invariant() {
        let events: Vec<GuardInput> = (0..200u64)
            .map(|i| {
                let link = (i % 7) as u32;
                let (from, to, rate) = match i % 4 {
                    0 => (H, D, 3e-8),
                    1 => (D, C, 2e-6 + link as f64 * 1e-7),
                    2 => (C, D, 4e-8),
                    _ => (D, H, 1e-9),
                };
                tr(1_000 + i * 50, i / 7 + 1, link, from, to, rate)
            })
            .collect();
        let cfg = GuardConfig {
            budget: 3,
            hold_down_windows: 2,
            ..GuardConfig::default()
        };
        let a = GuardManager::replay("t", cfg, &events);
        let b = GuardManager::replay("t", cfg, &events);
        assert_eq!(a.journal(), b.journal());
        // Feeding one event at a time through fresh borrow patterns (the
        // streaming shape) must produce the identical journal.
        let mut c = GuardManager::new("t", cfg);
        for chunk in events.chunks(7) {
            for ev in chunk {
                c.ingest(*ev);
            }
        }
        assert_eq!(a.journal(), c.journal());
        assert_eq!(a.protected_links(), c.protected_links());
    }

    #[test]
    fn snapshot_restore_converges_to_the_uninterrupted_run() {
        let events: Vec<GuardInput> = (0..120u64)
            .map(|i| {
                let link = (i % 5) as u32;
                let (from, to, rate) = match i % 3 {
                    0 => (H, C, 1e-5 + i as f64 * 1e-9),
                    1 => (C, D, 5e-8),
                    _ => (D, H, 1e-9),
                };
                tr(500 + i * 20, i / 5 + 1, link, from, to, rate)
            })
            .collect();
        let cfg = GuardConfig {
            budget: 2,
            hold_down_windows: 3,
            ..GuardConfig::default()
        };
        let full = GuardManager::replay("t", cfg, &events);
        for cut in [1, 17, 60, 119] {
            let mut prefix = GuardManager::new("t", cfg);
            for ev in &events[..cut] {
                prefix.ingest(*ev);
            }
            let mut journal = prefix.journal().to_vec();
            let snap = prefix.snapshot_line();
            let mut resumed = GuardManager::restore(&snap).expect("snapshot parses");
            for ev in &events[cut..] {
                resumed.ingest(*ev);
            }
            journal.extend(resumed.journal().iter().cloned());
            assert_eq!(journal, full.journal(), "cut at {cut}");
            assert_eq!(
                resumed.protected_links(),
                full.protected_links(),
                "cut at {cut}"
            );
            assert_eq!(resumed.budget_used(), full.budget_used());
            assert_eq!(resumed.seq(), full.seq());
        }
    }

    #[test]
    fn journal_lines_are_schema_shaped() {
        let mut m = GuardManager::new("fig15/c50/LgGuardd", GuardConfig::default());
        m.ingest(tr(10, 1, 42, H, C, 1.5e-4));
        let line = &m.journal()[0];
        let v = parse(line).expect("valid JSON");
        assert_eq!(v.get("type").unwrap().as_str(), Some("guard_event"));
        assert_eq!(v.get("action").unwrap().as_str(), Some("enable"));
        assert_eq!(v.get("seq").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("link").unwrap().as_num(), Some(42.0));
        let JsonValue::Arr(cause) = v.get("cause").unwrap() else {
            panic!("cause must be an array");
        };
        assert_eq!(cause.len(), 1);
        assert_eq!(cause[0].get("to").unwrap().as_str(), Some("corrupting"));
        let snap = m.snapshot_line();
        let sv = parse(&snap).expect("valid JSON");
        assert_eq!(sv.get("type").unwrap().as_str(), Some("guard_snapshot"));
    }

    #[test]
    fn canonical_sort_orders_by_time_link_window() {
        let mut evs = vec![
            tr(20, 1, 1, H, D, 1e-7),
            tr(10, 2, 9, H, D, 1e-7),
            tr(10, 1, 3, H, D, 1e-7),
            tr(10, 2, 3, D, C, 1e-5),
        ];
        canonical_sort(&mut evs);
        let keys: Vec<(u64, u32, u64)> =
            evs.iter().map(|e| (e.t_ps, e.link, e.window_id)).collect();
        assert_eq!(keys, vec![(10, 3, 1), (10, 3, 2), (10, 9, 2), (20, 1, 1)]);
    }
}
