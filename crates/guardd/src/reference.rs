//! The guardian manager as it was before its decision pass kept the
//! protected and waiting sets and its writers appended in place: every
//! `decide` walks every link ever seen, twice, and sorts a fresh
//! vector; every record is built from joined `String`s; `restore`
//! reads the owned JSON tree. Kept, unchanged, as the oracle of the
//! differential property test in `lib.rs`: journals, decisions,
//! protected sets and snapshots must match it byte for byte.

use super::{
    health_from_name, GuardAction, GuardConfig, GuardDecision, GuardInput, LinkHealth, BEAT_CAP,
    CAUSE_CAP, PS_EXACT,
};
use lg_obs::json::{parse, JsonValue};
use lg_obs::JsonLine;
use std::collections::BTreeMap;

fn to_json(h: &GuardInput) -> String {
    let mut l = JsonLine::new();
    l.u64("t_ps", h.t_ps)
        .u64("window_id", h.window_id)
        .u64("link", u64::from(h.link))
        .str("from", h.from.name())
        .str("to", h.to.name())
        .f64("rate", h.rate);
    l.finish()
}

fn from_json(v: &JsonValue) -> Result<GuardInput, String> {
    Ok(GuardInput {
        t_ps: num(v, "t_ps")? as u64,
        window_id: num(v, "window_id")? as u64,
        link: num(v, "link")? as u32,
        from: health_from_name(str_field(v, "from")?)?,
        to: health_from_name(str_field(v, "to")?)?,
        rate: num(v, "rate")?,
    })
}

#[derive(Debug, Clone)]
struct LinkEntry {
    state: LinkHealth,
    rate: f64,
    protected: bool,
    /// Re-protection suppressed until this sim time (set at retirement).
    hold_until_ps: u64,
    /// Observed poll cadence: sim time per window, from the link's own
    /// event deltas (0 until two events have been seen).
    window_ps: u64,
    history: Vec<GuardInput>,
}

impl LinkEntry {
    fn new() -> LinkEntry {
        LinkEntry {
            state: LinkHealth::Healthy,
            rate: 0.0,
            protected: false,
            hold_until_ps: 0,
            window_ps: 0,
            history: Vec::new(),
        }
    }
}

/// The guardian manager: a deterministic fold from the canonical health
/// stream to protection decisions, a JSONL journal, and a restorable
/// snapshot.
#[derive(Debug)]
pub struct GuardManager {
    cfg: GuardConfig,
    run: String,
    links: BTreeMap<u32, LinkEntry>,
    seq: u64,
    budget_used: u32,
    last_t_ps: u64,
    journal: Vec<String>,
    decisions: Vec<GuardDecision>,
}

impl GuardManager {
    /// A fresh manager. `run` labels every journal record (the same run
    /// key the rest of the observability plane uses).
    pub fn new(run: &str, cfg: GuardConfig) -> GuardManager {
        GuardManager {
            cfg,
            run: run.to_string(),
            links: BTreeMap::new(),
            seq: 0,
            budget_used: 0,
            last_t_ps: 0,
            journal: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Links currently protected, ascending.
    pub fn protected_links(&self) -> Vec<u32> {
        self.links
            .iter()
            .filter(|(_, e)| e.protected)
            .map(|(&l, _)| l)
            .collect()
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
        if let Some(prev) = e.history.last() {
            if ev.window_id > prev.window_id && ev.t_ps > prev.t_ps {
                e.window_ps =
                    ((ev.t_ps - prev.t_ps) / (ev.window_id - prev.window_id)).min(PS_EXACT);
            }
        }
        e.state = ev.to;
        e.rate = ev.rate;
        if e.history.len() == self.cfg.history_cap.max(1) {
            e.history.remove(0);
        }
        e.history.push(ev);
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
    /// qualified but lost. Iteration is over the `BTreeMap` (link order)
    /// and an explicitly keyed sort — nothing layout-dependent.
    fn decide(&mut self, t_ps: u64, trigger: Option<u32>) {
        // Retirement: protection is withdrawn as soon as the estimator's
        // clear_factor hysteresis reads the link Healthy again. The
        // hold-down starts here: re-protection is suppressed for
        // `hold_down_windows` × the link's observed poll cadence.
        let hold = self.cfg.hold_down_windows;
        let mut retired: Vec<u32> = Vec::new();
        for (&l, e) in self.links.iter_mut() {
            if e.protected && self.cfg.retire && e.state == LinkHealth::Healthy {
                e.protected = false;
                e.hold_until_ps = t_ps
                    .saturating_add(hold.saturating_mul(e.window_ps))
                    .min(PS_EXACT);
                retired.push(l);
            }
        }
        for l in retired {
            self.budget_used -= 1;
            self.emit(t_ps, l, GuardAction::Retire, &[]);
        }

        // Candidate pool: qualifying, unprotected, out of hold-down.
        // Worst observed rate first; link id breaks ties so the order is
        // total and reproducible.
        let mut candidates: Vec<(u32, f64)> = self
            .links
            .iter()
            .filter(|(_, e)| {
                !e.protected && e.state >= self.cfg.protect_on && t_ps >= e.hold_until_ps
            })
            .map(|(&l, e)| (l, e.rate))
            .collect();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("rates are finite")
                .then_with(|| a.0.cmp(&b.0))
        });

        let mut i = 0;
        while i < candidates.len() && self.budget_used < self.cfg.budget {
            let (link, _) = candidates[i];
            let beat: Vec<(u32, f64)> =
                candidates[i + 1..].iter().take(BEAT_CAP).copied().collect();
            self.links
                .get_mut(&link)
                .expect("candidate exists")
                .protected = true;
            self.budget_used += 1;
            self.emit(t_ps, link, GuardAction::Enable, &beat);
            i += 1;
        }
        // Budget exhausted: record the deferral, but only for the link
        // whose transition triggered this pass — the rest of the pool
        // was already deferred when *their* transitions arrived, and
        // re-recording them every pass would bloat the journal without
        // adding information (ticks have no trigger and record none).
        // A defer's `beat` array is the set of
        // links holding the budget it lost (worst-first) — by this
        // point any candidate ranked above it was just enabled, so the
        // protected set IS the full list of who beat it.
        let Some(trigger) = trigger else { return };
        if candidates[i..].iter().any(|&(l, _)| l == trigger) {
            let mut holders: Vec<(u32, f64)> = self
                .links
                .iter()
                .filter(|(_, e)| e.protected)
                .map(|(&l, e)| (l, e.rate))
                .collect();
            holders.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("rates are finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            holders.truncate(BEAT_CAP);
            self.emit(t_ps, trigger, GuardAction::Defer, &holders);
        }
    }

    /// Append one decision to the journal and the actuation queue.
    fn emit(&mut self, t_ps: u64, link: u32, action: GuardAction, beat: &[(u32, f64)]) {
        self.seq += 1;
        let e = &self.links[&link];
        let cause: String = {
            let from = e.history.len().saturating_sub(CAUSE_CAP);
            let items: Vec<String> = e.history[from..].iter().map(to_json).collect();
            format!("[{}]", items.join(","))
        };
        let beat_json: String = {
            let items: Vec<String> = beat
                .iter()
                .map(|&(l, r)| {
                    let mut j = JsonLine::new();
                    j.u64("link", u64::from(l)).f64("rate", r);
                    j.finish()
                })
                .collect();
            format!("[{}]", items.join(","))
        };
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
            .u64("budget_used", u64::from(self.budget_used))
            .raw("cause", &cause)
            .raw("beat", &beat_json);
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
        let links_json: String = {
            let items: Vec<String> = self
                .links
                .iter()
                .map(|(&l, e)| {
                    let hist: Vec<String> = e.history.iter().map(to_json).collect();
                    let mut j = JsonLine::new();
                    j.u64("link", u64::from(l))
                        .str("state", e.state.name())
                        .f64("rate", e.rate)
                        .bool("protected", e.protected)
                        .u64("hold_until_ps", e.hold_until_ps)
                        .u64("window_ps", e.window_ps)
                        .raw("history", &format!("[{}]", hist.join(",")));
                    j.finish()
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let mut l = JsonLine::new();
        l.str("type", "guard_snapshot")
            .u64("t_ps", self.last_t_ps)
            .u64("seq", self.seq)
            .str("run", &self.run)
            .u64("budget", u64::from(self.cfg.budget))
            .u64("budget_used", u64::from(self.budget_used))
            .u64("hold_down_windows", self.cfg.hold_down_windows)
            .bool("retire", self.cfg.retire)
            .str("protect_on", self.cfg.protect_on.name())
            .u64("history_cap", self.cfg.history_cap as u64)
            .raw("links", &links_json);
        l.finish()
    }

    /// Rebuild a manager from a [`GuardManager::snapshot_line`] record.
    /// The journal buffer starts empty; `seq` continues where the
    /// snapshot left off, so a journal stitched from
    /// `[prefix, post-restore suffix]` is seamless.
    pub fn restore(line: &str) -> Result<GuardManager, String> {
        let v = parse(line).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
        if str_field(&v, "type")? != "guard_snapshot" {
            return Err("not a guard_snapshot record".into());
        }
        let cfg = GuardConfig {
            budget: num(&v, "budget")? as u32,
            hold_down_windows: num(&v, "hold_down_windows")? as u64,
            retire: matches!(v.get("retire"), Some(JsonValue::Bool(true))),
            protect_on: health_from_name(str_field(&v, "protect_on")?)?,
            history_cap: num(&v, "history_cap")? as usize,
        };
        let mut links = BTreeMap::new();
        let mut budget_used = 0u32;
        let Some(JsonValue::Arr(items)) = v.get("links") else {
            return Err("snapshot missing \"links\" array".into());
        };
        for item in items {
            let mut history = Vec::new();
            if let Some(JsonValue::Arr(hs)) = item.get("history") {
                for h in hs {
                    history.push(from_json(h)?);
                }
            }
            let protected = matches!(item.get("protected"), Some(JsonValue::Bool(true)));
            if protected {
                budget_used += 1;
            }
            links.insert(
                num(item, "link")? as u32,
                LinkEntry {
                    state: health_from_name(str_field(item, "state")?)?,
                    rate: num(item, "rate")?,
                    protected,
                    hold_until_ps: num(item, "hold_until_ps")? as u64,
                    window_ps: num(item, "window_ps")? as u64,
                    history,
                },
            );
        }
        Ok(GuardManager {
            cfg,
            run: str_field(&v, "run")?.to_string(),
            links,
            seq: num(&v, "seq")? as u64,
            budget_used,
            last_t_ps: num(&v, "t_ps")? as u64,
            journal: Vec::new(),
            decisions: Vec::new(),
        })
    }
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|f| f.as_num())
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(|f| f.as_str())
        .ok_or_else(|| format!("missing string field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::GuardManager as Reference;
    use crate::{GuardConfig, GuardInput, GuardManager, LinkHealth};
    use proptest::prelude::*;

    const STATES: [LinkHealth; 3] = [
        LinkHealth::Healthy,
        LinkHealth::Degraded,
        LinkHealth::Corrupting,
    ];
    /// Few distinct rates, so that ties (broken by link id) are common.
    const RATES: [f64; 5] = [0.0, 1e-9, 5e-8, 2e-6, 1.5e-4];
    /// The widest feed: with budgets 4 and 8 its waiting pool outgrows
    /// `free + BEAT_CAP`, so the enable pass ranks only part of it, and
    /// with budget 24 a defer ranks only part of the protected set.
    const MAX_LINKS: u32 = 40;

    /// Budget × retire × hold-down × `protect_on` × `history_cap`.
    fn configs() -> Vec<GuardConfig> {
        let mut out = Vec::new();
        for budget in [0, 1, 3, 4, 8, 24, u32::MAX] {
            for retire in [true, false] {
                for hold_down_windows in [0, 16] {
                    for protect_on in STATES {
                        for history_cap in [1, 16] {
                            out.push(GuardConfig {
                                budget,
                                hold_down_windows,
                                retire,
                                protect_on,
                                history_cap,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Event(GuardInput),
        Tick(u64),
    }

    /// Turn raw draws into a time-ordered interleaving of transitions
    /// over links `0..width` (each link's `from` is its previous `to`,
    /// its windows increase) and ticks.
    fn steps(width: u32, raw: &[(u8, u32, usize, usize, u64)]) -> Vec<Step> {
        let mut t_ps = 1_000_000;
        let mut last = [(LinkHealth::Healthy, 0u64); MAX_LINKS as usize];
        raw.iter()
            .map(|&(kind, link, to, rate, dt)| {
                t_ps += dt * 1_000_000;
                if kind == 0 {
                    return Step::Tick(t_ps);
                }
                let link = link % width;
                let (from, window) = &mut last[link as usize];
                *window += 1 + dt;
                let ev = GuardInput {
                    t_ps,
                    window_id: *window,
                    link,
                    from: *from,
                    to: STATES[to],
                    rate: RATES[rate],
                };
                *from = ev.to;
                Step::Event(ev)
            })
            .collect()
    }

    proptest! {
        /// The set-keeping manager and its in-place writers produce the
        /// journal, decisions, protected set and snapshots of the
        /// walk-everything reference, byte for byte, through a
        /// snapshot/restore at any point of the feed.
        #[test]
        fn manager_equals_reference(
            width in prop_oneof![Just(6u32), 1u32..MAX_LINKS + 1],
            raw in proptest::collection::vec(
                (0u8..6, 0u32..MAX_LINKS, 0usize..3, 0usize..RATES.len(), 0u64..3),
                0..120,
            ),
            cut in 0usize..121,
        ) {
            let steps = steps(width, &raw);
            let cut = cut.min(steps.len());
            for cfg in configs() {
                let mut new = GuardManager::new("diff", cfg);
                let mut old = Reference::new("diff", cfg);
                let (mut new_journal, mut old_journal) = (Vec::new(), Vec::new());
                let (mut new_decisions, mut old_decisions) = (Vec::new(), Vec::new());
                for (i, step) in steps.iter().enumerate() {
                    if i == cut {
                        let snap = new.snapshot_line();
                        prop_assert_eq!(&snap, &old.snapshot_line(), "{:?}", cfg);
                        new_journal.extend(new.take_journal());
                        old_journal.extend(old.take_journal());
                        new_decisions.extend(new.drain_decisions());
                        old_decisions.extend(old.drain_decisions());
                        new = GuardManager::restore(&snap).expect("own snapshot restores");
                        old = Reference::restore(&snap).expect("own snapshot restores");
                    }
                    match *step {
                        Step::Event(ev) => {
                            new.ingest(ev);
                            old.ingest(ev);
                        }
                        Step::Tick(t_ps) => {
                            new.tick(t_ps);
                            old.tick(t_ps);
                        }
                    }
                    prop_assert_eq!(new.protected_links(), old.protected_links(), "{:?}", cfg);
                }
                new_journal.extend(new.take_journal());
                old_journal.extend(old.take_journal());
                new_decisions.extend(new.drain_decisions());
                old_decisions.extend(old.drain_decisions());
                prop_assert_eq!(new_journal, old_journal, "{:?}", cfg);
                prop_assert_eq!(new_decisions, old_decisions, "{:?}", cfg);
                prop_assert_eq!(new.snapshot_line(), old.snapshot_line(), "{:?}", cfg);
            }
        }
    }
}
