//! Packet-lifecycle postmortems.
//!
//! Every packet-carrying [`TraceRecord`] stores the packet's `uid`
//! (shared by LinkGuardian retransmission copies, so a retx shows up in
//! the original's history). Filtering a drained/snapshotted ring by uid
//! reconstructs the packet's full causal chain: TX → corrupt drop →
//! LOSS_NOTIFICATION → recirc retx → delivery. [`report`] renders it
//! human-readably for invariant-trip dumps (stale pool handle, pool leak,
//! golden-FCT divergence).
//!
//! ## Cross-shard spans
//!
//! In a sharded run each shard owns its own ring, and a packet that
//! crosses a shard boundary leaves records in several of them. Because
//! records carry the *global* identifiers (uid, link in `aux`, hop in
//! `inst`) rather than anything shard-local, [`merge_shard_logs`]
//! reassembles the per-shard logs into one timeline whose order depends
//! only on simulation outcomes — the same uid chain falls out whatever
//! the shard layout, which is what lets drop → link-retx → deliver
//! timelines span shards and still compare byte-identical across
//! layouts.

use crate::trace::{Kind, TraceRecord};

/// The canonical layout-invariant ordering of merged shard logs:
/// `(t_ps, aux, kind, uid, seq, inst)`. Every field is derived from
/// simulation state, so two runs with different shard layouts sort
/// their merged logs identically.
pub fn span_key(r: &TraceRecord) -> (u64, u32, u8, u64, u64, u16) {
    (r.t_ps, r.aux, r.kind as u8, r.uid, r.seq, r.inst)
}

/// Merge per-shard trace logs into one layout-invariant timeline
/// (sorted by [`span_key`]). [`history`]/[`chain`]/[`report`] on the
/// merged log reconstruct packet lifecycles that span shards.
pub fn merge_shard_logs(logs: impl IntoIterator<Item = Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut out: Vec<TraceRecord> = logs.into_iter().flatten().collect();
    out.sort_unstable_by_key(span_key);
    out
}

/// All records for packet `uid`, in emission order.
pub fn history(records: &[TraceRecord], uid: u64) -> Vec<TraceRecord> {
    records.iter().filter(|r| r.uid == uid).copied().collect()
}

/// The ordered kinds in packet `uid`'s history (compact form for tests).
pub fn chain(records: &[TraceRecord], uid: u64) -> Vec<Kind> {
    records
        .iter()
        .filter(|r| r.uid == uid)
        .map(|r| r.kind)
        .collect()
}

/// All records touching pool slot `idx` (for stale-handle dumps, where
/// only the slot index is known), in emission order. Packet-carrying
/// records store the slot index in `aux`.
pub fn slot_history(records: &[TraceRecord], idx: u32) -> Vec<TraceRecord> {
    records
        .iter()
        .filter(|r| r.uid != 0 && r.aux == idx)
        .copied()
        .collect()
}

/// Render packet `uid`'s history as a multi-line report.
pub fn report(records: &[TraceRecord], uid: u64) -> String {
    render(&history(records, uid), &format!("packet uid={uid}"))
}

/// Render a pre-filtered record list with a heading.
pub fn render(records: &[TraceRecord], what: &str) -> String {
    use std::fmt::Write as _;
    let mut out = format!("postmortem for {what}: {} records\n", records.len());
    for r in records {
        let _ = writeln!(
            out,
            "  t={:>14} ps  {:<11} {:<13} inst={:<5} uid={} seq={} aux={}",
            r.t_ps,
            r.comp.name(),
            r.kind.name(),
            r.inst,
            r.uid,
            r.seq,
            r.aux
        );
    }
    out
}

/// Dump the current thread's ring for pool slot `idx` to stderr.
pub fn eprint_for_slot(idx: u32) {
    let snap = crate::trace::snapshot();
    if !snap.is_empty() {
        eprintln!(
            "{}",
            render(&slot_history(&snap, idx), &format!("slot {idx}"))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Comp;

    fn rec(t: u64, uid: u64, kind: Kind, aux: u32) -> TraceRecord {
        TraceRecord {
            t_ps: t,
            uid,
            seq: uid,
            aux,
            inst: 0,
            comp: Comp::Link,
            kind,
        }
    }

    #[test]
    fn history_filters_and_keeps_order() {
        let recs = vec![
            rec(1, 7, Kind::TxDone, 3),
            rec(2, 8, Kind::TxDone, 4),
            rec(3, 7, Kind::CorruptDrop, 3),
            rec(4, 7, Kind::Retx, 3),
            rec(5, 7, Kind::HostDeliver, 3),
        ];
        assert_eq!(
            chain(&recs, 7),
            vec![
                Kind::TxDone,
                Kind::CorruptDrop,
                Kind::Retx,
                Kind::HostDeliver
            ]
        );
        assert_eq!(history(&recs, 8).len(), 1);
        assert_eq!(slot_history(&recs, 3).len(), 4);
        let rep = report(&recs, 7);
        assert!(rep.contains("corrupt_drop"));
        assert!(rep.contains("4 records"));
    }

    #[test]
    fn merged_shard_logs_are_layout_invariant() {
        // One packet's lifecycle scattered across three "shards"; any
        // split of the same records must merge to the same timeline.
        let all = vec![
            rec(1, 7, Kind::TxDone, 3),
            rec(2, 7, Kind::CorruptDrop, 3),
            rec(2, 9, Kind::TxDone, 4),
            rec(3, 7, Kind::Retx, 5),
            rec(5, 7, Kind::HostDeliver, 6),
        ];
        let merged_one = merge_shard_logs(vec![all.clone()]);
        let split = vec![vec![all[3], all[0]], vec![all[4], all[2]], vec![all[1]]];
        let merged_split = merge_shard_logs(split);
        assert_eq!(merged_one, merged_split);
        assert_eq!(
            chain(&merged_split, 7),
            vec![
                Kind::TxDone,
                Kind::CorruptDrop,
                Kind::Retx,
                Kind::HostDeliver
            ]
        );
    }
}
