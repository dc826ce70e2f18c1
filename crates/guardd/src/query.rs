//! Query surface over a guardian journal — the library half of
//! `guardctl`.
//!
//! A journal file is JSONL: `guard_event` records in `seq` order,
//! optionally preceded by a session `meta` line and/or interleaved with
//! a `guard_snapshot`. Parsing skips record types it does not own (so
//! `guardctl` can be pointed at a whole session dump), but a malformed
//! `guard_event` is an error with its line number.
//!
//! The reports answer the operator questions the tentpole names:
//! `status` (who is protected right now, and on whose budget),
//! `history <link>` (every decision about one link), `why <link>` (the
//! postmortem for the latest decision: the health transitions that
//! caused it and the candidates it beat), and `timeline` (every
//! decision in order).

use crate::{health_from_name, GuardAction, GuardInput, LinkHealth};
use lg_obs::json::{number, string, Scanned, Scanner};

/// One decoded `guard_event` record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Journal sequence number.
    pub seq: u64,
    /// Sim time of the decision.
    pub t_ps: u64,
    /// The link decided on.
    pub link: u32,
    /// What was decided.
    pub action: GuardAction,
    /// The link's health state at decision time.
    pub state: LinkHealth,
    /// The link's windowed loss rate at decision time.
    pub rate: f64,
    /// Budget ceiling in force.
    pub budget: u64,
    /// Budget slots in use after this decision.
    pub budget_used: u64,
    /// The health transitions that led here (most recent last).
    pub cause: Vec<GuardInput>,
    /// Candidates this decision outranked (for `enable`) or lost to
    /// (for `defer`), as `(link, rate)`.
    pub beat: Vec<(u32, f64)>,
}

/// A decoded journal document.
#[derive(Debug, Default)]
pub struct Journal {
    /// Run label from the first `guard_event` (empty if none).
    pub run: String,
    /// Events in file (= `seq`) order.
    pub events: Vec<JournalEvent>,
    /// Number of `guard_snapshot` records seen while parsing.
    pub snapshots: usize,
}

/// The fields a journal line is read through, found in one walk.
const FIELDS: [&str; 12] = [
    "type",
    "run",
    "action",
    "cause",
    "beat",
    "seq",
    "t_ps",
    "link",
    "state",
    "rate",
    "budget",
    "budget_used",
];

/// A journal line's [`FIELDS`], by slot.
type Fields<'a> = [Option<Scanned<'a>>; FIELDS.len()];

/// Parse a journal document. Lines whose `type` is not `guard_event` or
/// `guard_snapshot` are skipped (session dumps carry a `meta` line);
/// malformed guard records fail with their line number.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut j = Journal::default();
    let mut scanner = Scanner::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = scanner
            .scan(line)
            .map_err(|e| format!("line {n}: not valid JSON: {e}"))?;
        let f = v.fields(&FIELDS);
        let [ty, run, ..] = f;
        match ty.and_then(|t| t.as_str()).as_deref() {
            Some("guard_event") => {
                let ev = decode_event(&f).map_err(|e| format!("line {n}: {e}"))?;
                if j.events.is_empty() {
                    j.run = string(run, "run")?.into_owned();
                }
                j.events.push(ev);
            }
            Some("guard_snapshot") => j.snapshots += 1,
            _ => {}
        }
    }
    Ok(j)
}

/// Decode one `guard_event`, reading (and reporting a missing field) in
/// the order the per-field reader did.
fn decode_event(f: &Fields<'_>) -> Result<JournalEvent, String> {
    let [_, _, action, cause, beat, seq, t_ps, link, state, rate, budget, budget_used] = *f;
    let action_name = string(action, "action")?;
    let action = GuardAction::parse(&action_name)
        .ok_or_else(|| format!("unknown action {action_name:?}"))?;
    let mut cause_chain = Vec::new();
    if let Some(items) = cause.and_then(|c| c.as_arr()) {
        for item in items {
            cause_chain.push(GuardInput::from_json(item)?);
        }
    }
    let mut beaten = Vec::new();
    if let Some(items) = beat.and_then(|b| b.as_arr()) {
        for item in items {
            beaten.push((item.num("link")? as u32, item.num("rate")?));
        }
    }
    Ok(JournalEvent {
        seq: number(seq, "seq")? as u64,
        t_ps: number(t_ps, "t_ps")? as u64,
        link: number(link, "link")? as u32,
        action,
        state: health_from_name(&string(state, "state")?)?,
        rate: number(rate, "rate")?,
        budget: number(budget, "budget")? as u64,
        budget_used: number(budget_used, "budget_used")? as u64,
        cause: cause_chain,
        beat: beaten,
    })
}

impl Journal {
    /// Fold the journal to the current protected set: for each
    /// protected link, the `enable` event that put it there.
    pub fn protected(&self) -> Vec<&JournalEvent> {
        let mut active: Vec<&JournalEvent> = Vec::new();
        for ev in &self.events {
            match ev.action {
                GuardAction::Enable => {
                    active.retain(|e| e.link != ev.link);
                    active.push(ev);
                }
                GuardAction::Retire => active.retain(|e| e.link != ev.link),
                GuardAction::Defer => {}
            }
        }
        active.sort_by_key(|e| e.link);
        active
    }

    /// Every decision about one link, in order.
    pub fn history(&self, link: u32) -> Vec<&JournalEvent> {
        self.events.iter().filter(|e| e.link == link).collect()
    }

    /// The most recent decision about one link (the `why` postmortem).
    pub fn latest(&self, link: u32) -> Option<&JournalEvent> {
        self.events.iter().rev().find(|e| e.link == link)
    }
}

fn fmt_t(t_ps: u64) -> String {
    format!("t={:.3}ms", t_ps as f64 / 1e9)
}

fn fmt_line(ev: &JournalEvent) -> String {
    format!(
        "#{:<5} {:>14}  link {:<5} {:<7} state={} rate={:.3e} budget {}/{}",
        ev.seq,
        fmt_t(ev.t_ps),
        ev.link,
        ev.action.name(),
        ev.state.name(),
        ev.rate,
        ev.budget_used,
        fmt_budget(ev.budget),
    )
}

fn fmt_budget(b: u64) -> String {
    if b == u64::from(u32::MAX) {
        "inf".into()
    } else {
        b.to_string()
    }
}

/// `guardctl status`: the current protected set and budget pressure.
pub fn render_status(j: &Journal) -> String {
    let mut out = String::new();
    let active = j.protected();
    let (used, budget) = j
        .events
        .last()
        .map_or((0, 0), |e| (e.budget_used, e.budget));
    out.push_str(&format!(
        "run {:?}: {} decisions, {} protected, budget {}/{}\n",
        j.run,
        j.events.len(),
        active.len(),
        used,
        fmt_budget(budget),
    ));
    for ev in active {
        out.push_str(&format!(
            "  link {:<5} protected since seq {} ({}) rate={:.3e}\n",
            ev.link,
            ev.seq,
            fmt_t(ev.t_ps),
            ev.rate
        ));
    }
    let deferred: Vec<u32> = {
        let mut seen = Vec::new();
        for ev in j.events.iter().rev() {
            if !seen.iter().any(|&(l, _)| l == ev.link) {
                seen.push((ev.link, ev.action));
            }
        }
        seen.sort_by_key(|&(l, _)| l);
        seen.iter()
            .filter(|&&(_, a)| a == GuardAction::Defer)
            .map(|&(l, _)| l)
            .collect()
    };
    if !deferred.is_empty() {
        out.push_str(&format!(
            "  waiting on budget: {}\n",
            deferred
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out
}

/// `guardctl timeline`: every decision, in order.
pub fn render_timeline(j: &Journal) -> String {
    let mut out = String::new();
    for ev in &j.events {
        out.push_str(&fmt_line(ev));
        out.push('\n');
    }
    out
}

/// `guardctl history <link>`: every decision about one link.
pub fn render_history(j: &Journal, link: u32) -> String {
    let evs = j.history(link);
    if evs.is_empty() {
        return format!("link {link}: no decisions in journal\n");
    }
    let mut out = String::new();
    for ev in evs {
        out.push_str(&fmt_line(ev));
        out.push('\n');
    }
    out
}

/// `guardctl why <link>`: postmortem of the latest decision — the full
/// cause chain (health transitions) and the candidate scores it was
/// ranked against.
pub fn render_why(j: &Journal, link: u32) -> String {
    let Some(ev) = j.latest(link) else {
        return format!("link {link}: no decisions in journal\n");
    };
    let mut out = String::new();
    out.push_str(&fmt_line(ev));
    out.push('\n');
    out.push_str("  cause chain:\n");
    if ev.cause.is_empty() {
        out.push_str("    (none recorded)\n");
    }
    for c in &ev.cause {
        out.push_str(&format!(
            "    {} window {:<6} {} -> {} rate={:.3e}\n",
            fmt_t(c.t_ps),
            c.window_id,
            c.from.name(),
            c.to.name(),
            c.rate
        ));
    }
    match ev.action {
        GuardAction::Enable => {
            out.push_str(&format!("  outranked {} candidate(s):\n", ev.beat.len()));
        }
        GuardAction::Defer => {
            out.push_str(&format!(
                "  lost the budget to {} candidate(s):\n",
                ev.beat.len()
            ));
        }
        GuardAction::Retire => {
            out.push_str("  retired: observed health cleared the hysteresis band\n");
        }
    }
    for &(l, r) in &ev.beat {
        out.push_str(&format!("    link {l:<5} rate={r:.3e}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardConfig, GuardManager};

    fn sample_journal() -> Journal {
        const H: LinkHealth = LinkHealth::Healthy;
        const C: LinkHealth = LinkHealth::Corrupting;
        let cfg = GuardConfig {
            budget: 1,
            hold_down_windows: 0,
            ..GuardConfig::default()
        };
        let mut m = GuardManager::new("q", cfg);
        let tr = |t, w, link, from, to, rate| GuardInput {
            t_ps: t,
            window_id: w,
            link,
            from,
            to,
            rate,
        };
        m.ingest(tr(10, 1, 3, H, C, 1e-4));
        m.ingest(tr(20, 1, 7, H, C, 1e-3)); // defers behind 3
        m.ingest(tr(30, 9, 3, C, H, 1e-9)); // retires
        m.ingest(tr(40, 2, 7, C, C, 9e-4)); // promoted
        let text = m.take_journal().join("\n");
        parse_journal(&text).expect("round-trips")
    }

    #[test]
    fn journal_round_trips_and_folds_to_status() {
        let j = sample_journal();
        assert_eq!(j.run, "q");
        assert_eq!(j.events.len(), 4);
        let active = j.protected();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].link, 7);
        assert_eq!(active[0].action, GuardAction::Enable);
        let status = render_status(&j);
        assert!(status.contains("1 protected"), "{status}");
        assert!(status.contains("link 7"), "{status}");
    }

    #[test]
    fn why_reconstructs_cause_chain_and_beaten_candidates() {
        let j = sample_journal();
        // The defer decision for link 7 recorded who beat it.
        let defer = &j.events[1];
        assert_eq!(defer.action, GuardAction::Defer);
        assert_eq!(defer.beat, vec![(3, 1e-4)]);
        assert_eq!(defer.cause.len(), 1);
        assert_eq!(defer.cause[0].to, LinkHealth::Corrupting);
        let why = render_why(&j, 7);
        assert!(why.contains("cause chain"), "{why}");
        assert!(
            why.contains("healthy -> corrupting") || why.contains("corrupting -> corrupting"),
            "{why}"
        );
        let hist = render_history(&j, 3);
        assert!(hist.contains("enable"), "{hist}");
        assert!(hist.contains("retire"), "{hist}");
        assert!(render_history(&j, 99).contains("no decisions"));
    }

    #[test]
    fn non_guard_lines_are_skipped() {
        let doc = "{\"type\":\"meta\",\"schema\":3,\"bin\":\"x\"}\n\n{\"type\":\"timeseries\",\"t_ps\":1}\n";
        let j = parse_journal(doc).expect("skips foreign records");
        assert!(j.events.is_empty());
        let err = parse_journal("{\"type\":\"guard_event\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
