//! Differential property test: the streaming analyzer equals a
//! retained whole-file reference.
//!
//! The reference here is the pre-streaming `obs_analyze` ingestion path
//! (retain every sample, compute each section from the full vectors),
//! re-implemented verbatim. The property feeds randomized synthetic
//! JSONL — shuffled record interleavings (the shape of out-of-order
//! shard drains), mixed `\n`/`\r\n` terminators, blank and
//! whitespace-only lines, unknown record types, duplicate keys (the
//! last wins) and `\u`-escaped key spellings — through both paths
//! and demands identical section
//! outputs. The streaming side reads through [`LineReader`] at tiny
//! buffer capacities, so every record straddles refill boundaries.

use lg_obs::analyze::Run;
use lg_obs::LineReader;
use proptest::prelude::*;
use std::collections::BTreeMap;

const COMPS: [&str; 2] = ["port", "lg"];
const INSTS: [&str; 3] = ["sw:0", "sw:1", "host"];
const NAMES: [&str; 4] = [
    "qdepth_bytes",
    "tx_buffer_bytes",
    "e2e_retx",
    "ignored_series",
];
const STATES: [&str; 3] = ["healthy", "degraded", "corrupting"];

/// One synthetic record before serialization.
#[derive(Debug, Clone)]
enum Rec {
    Ts {
        comp: usize,
        inst: usize,
        name: usize,
        t: u64,
        v: u64,
    },
    Trace {
        drop: bool,
        uid: u64,
        t: u64,
    },
    Health {
        inst: usize,
        from: usize,
        to: usize,
        t: u64,
        rate: u64,
    },
    Junk,
    /// A line both paths skip: empty, or whitespace only.
    Blank(&'static str),
}

/// A record's members as `(key, JSON value)`, in writing order (`None`
/// for a line with no members).
fn members(r: &Rec) -> Option<Vec<(&'static str, String)>> {
    let q = |s: &str| format!("\"{s}\"");
    Some(match r {
        Rec::Ts {
            comp,
            inst,
            name,
            t,
            v,
        } => vec![
            ("type", q("timeseries")),
            ("t_ps", t.to_string()),
            ("window_id", "1".into()),
            ("run", q("p")),
            ("comp", q(COMPS[*comp])),
            ("inst", q(INSTS[*inst])),
            ("name", q(NAMES[*name])),
            ("value", v.to_string()),
            ("ewma", "0".into()),
        ],
        Rec::Trace { drop, uid, t } => vec![
            ("type", q("trace")),
            ("t_ps", t.to_string()),
            ("comp", q("link")),
            ("kind", q(if *drop { "corrupt_drop" } else { "recovered" })),
            ("inst", "0".into()),
            ("uid", uid.to_string()),
            ("seq", uid.to_string()),
            ("aux", "3".into()),
        ],
        Rec::Health {
            inst,
            from,
            to,
            t,
            rate,
        } => vec![
            ("type", q("health_event")),
            ("t_ps", t.to_string()),
            ("window_id", "1".into()),
            ("run", q("p")),
            ("comp", q("pktlink")),
            ("inst", q(INSTS[*inst])),
            ("from", q(STATES[*from])),
            ("to", q(STATES[*to])),
            ("rate", rate.to_string()),
        ],
        Rec::Junk => vec![
            ("type", q("trace_summary")),
            ("records", "0".into()),
            ("dropped", "0".into()),
        ],
        Rec::Blank(_) => return None,
    })
}

/// How one line spells its members: which key is written with a `\u`
/// escape, and which member gets a duplicate (a decoy of the same JSON
/// type, written before the real one or after it, where it wins).
#[derive(Debug, Clone, Copy)]
struct Spelling {
    escaped: Option<usize>,
    dup: Option<(usize, bool)>,
}

fn spelling_strategy() -> impl Strategy<Value = Spelling> {
    // A member index under 10 picks one; 10..30 (two times in three)
    // leaves the line plain.
    (0usize..30, 0usize..30, any::<bool>()).prop_map(|(e, d, after)| Spelling {
        escaped: (e < 10).then_some(e),
        dup: (d < 10).then_some((d, after)),
    })
}

fn render(r: &Rec, sp: Spelling) -> String {
    let Some(mut members) = members(r) else {
        let Rec::Blank(ws) = r else { unreachable!() };
        return ws.to_string();
    };
    if let Some((d, after)) = sp.dup {
        let d = d % members.len();
        let (k, v) = members[d].clone();
        let decoy = if v.starts_with('"') {
            "\"decoy\"".into()
        } else {
            "7777".into()
        };
        members.insert(if after { d + 1 } else { d }, (k, decoy));
    }
    let escaped = sp.escaped.map(|e| e % members.len());
    let body: Vec<String> = members
        .iter()
        .enumerate()
        .map(|(i, (k, v))| {
            if escaped == Some(i) {
                // `t_ps` -> `t_p\u0073`: the same name once unescaped.
                let (head, last) = k.split_at(k.len() - 1);
                format!("\"{head}\\u{:04x}\":{v}", u32::from(last.as_bytes()[0]))
            } else {
                format!("\"{k}\":{v}")
            }
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    prop_oneof![
        4 => (0..COMPS.len(), 0..INSTS.len(), 0..NAMES.len(), 0u64..10_000_000, 0u64..1_000_000)
            .prop_map(|(comp, inst, name, t, v)| Rec::Ts { comp, inst, name, t, v }),
        3 => (any::<bool>(), 1u64..40, 0u64..10_000_000)
            .prop_map(|(drop, uid, t)| Rec::Trace { drop, uid, t }),
        1 => (0..INSTS.len(), 0..STATES.len(), 0..STATES.len(), 0u64..10_000_000, 0u64..1000)
            .prop_map(|(inst, from, to, t, rate)| Rec::Health { inst, from, to, t, rate }),
        1 => Just(Rec::Junk),
        1 => (0usize..3).prop_map(|i| Rec::Blank(["", "  ", "\t"][i])),
    ]
}

/// The retained whole-file path the streaming analyzer replaced.
#[derive(Default)]
struct Retained {
    drops: BTreeMap<u64, u64>,
    recovered: BTreeMap<u64, u64>,
    series: BTreeMap<(String, String, String), Vec<(u64, f64)>>,
    health: Vec<(String, String, String, u64, f64)>,
}

impl Retained {
    fn ingest(&mut self, doc: &str) {
        for line in doc.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let v = lg_obs::json::parse(line).expect("synthetic line parses");
            let get_s = |k: &str| v.get(k).and_then(|f| f.as_str()).unwrap().to_string();
            let get_n = |k: &str| v.get(k).and_then(|f| f.as_num()).unwrap();
            match v.get("type").and_then(|t| t.as_str()).unwrap() {
                "trace" => {
                    let kind = get_s("kind");
                    if kind != "corrupt_drop" && kind != "recovered" {
                        continue;
                    }
                    let (uid, t) = (get_n("uid") as u64, get_n("t_ps") as u64);
                    if kind == "corrupt_drop" {
                        self.drops.entry(uid).or_insert(t);
                    } else {
                        self.recovered.entry(uid).or_insert(t);
                    }
                }
                "timeseries" => {
                    let key = (get_s("comp"), get_s("inst"), get_s("name"));
                    self.series
                        .entry(key)
                        .or_default()
                        .push((get_n("t_ps") as u64, get_n("value")));
                }
                "health_event" => {
                    self.health.push((
                        get_s("inst"),
                        get_s("from"),
                        get_s("to"),
                        get_n("t_ps") as u64,
                        get_n("rate"),
                    ));
                }
                _ => {}
            }
        }
    }

    fn recovery_latencies(&self) -> (Vec<u64>, usize) {
        let mut lat = Vec::new();
        let mut unrecovered = 0usize;
        for (uid, &t_drop) in &self.drops {
            match self.recovered.get(uid) {
                Some(&t_rec) if t_rec >= t_drop => lat.push(t_rec - t_drop),
                _ => unrecovered += 1,
            }
        }
        lat.sort_unstable();
        (lat, unrecovered)
    }

    /// Buffer sections in report order: (key, windows, peak, mean, last).
    fn buffers(&self) -> Vec<(String, u64, f64, f64, f64)> {
        let mut out = Vec::new();
        for ((comp, inst, name), samples) in &self.series {
            if !name.ends_with("buffer_bytes") && name != "qdepth_bytes" {
                continue;
            }
            let peak = samples.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
            let mn = samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len().max(1) as f64;
            let last = samples.last().map(|&(_, v)| v).unwrap_or(0.0);
            out.push((
                format!("{comp}/{inst}/{name}"),
                samples.len() as u64,
                peak,
                mn,
                last,
            ));
        }
        out
    }

    fn fct_attribution(&self, attr_ps: u64) -> (u64, u64, u64) {
        let Some(samples) = self
            .series
            .iter()
            .find(|((_, _, name), _)| name == "e2e_retx")
            .map(|(_, s)| s)
        else {
            return (0, 0, 0);
        };
        let interval = samples
            .windows(2)
            .map(|w| w[1].0.saturating_sub(w[0].0))
            .filter(|&d| d > 0)
            .min()
            .unwrap_or(0);
        let mut sorted_drops: Vec<u64> = self.drops.values().copied().collect();
        sorted_drops.sort_unstable();
        let (mut windows, mut corruption, mut congestion) = (0u64, 0u64, 0u64);
        for &(t, value) in samples {
            if value <= 0.0 {
                continue;
            }
            windows += 1;
            let lo = t.saturating_sub(interval + attr_ps);
            let i = sorted_drops.partition_point(|&d| d <= lo);
            if sorted_drops.get(i).is_some_and(|&d| d <= t) {
                corruption += value as u64;
            } else {
                congestion += value as u64;
            }
        }
        (windows, corruption, congestion)
    }
}

proptest! {
    /// Streaming ingestion at any read-buffer size produces exactly the
    /// section outputs of the retained whole-file path, on any record
    /// interleaving (shard drains land in arbitrary order) with mixed
    /// line terminators and blank/unknown lines in between.
    #[test]
    fn streaming_equals_retained(
        recs in proptest::collection::vec(rec_strategy(), 0..120),
        spellings in proptest::collection::vec(spelling_strategy(), 120),
        crlf_mask in proptest::collection::vec(any::<bool>(), 0..120),
        cap in 1usize..96,
        attr_us in 0u64..5,
        trailing_newline in any::<bool>(),
    ) {
        // Serialize with per-line terminator choice.
        let mut doc = String::new();
        for (i, r) in recs.iter().enumerate() {
            doc.push_str(&render(r, spellings[i]));
            let last = i + 1 == recs.len();
            if !last || trailing_newline {
                doc.push_str(if crlf_mask.get(i).copied().unwrap_or(false) { "\r\n" } else { "\n" });
            }
        }

        // Retained reference over the whole document.
        let mut reference = Retained::default();
        reference.ingest(&doc);

        // Streaming path through a boundary-straddling LineReader.
        let mut streaming = Run::default();
        let mut reader = LineReader::with_capacity(cap, doc.as_bytes());
        while let Some(line) = reader.next_line().expect("valid utf8") {
            streaming.ingest_line(line).expect("synthetic line ingests");
        }

        // Section 1: recovery latencies.
        prop_assert_eq!(streaming.recovery_latencies(), reference.recovery_latencies());

        // Section 2: buffer occupancy aggregates, in report order.
        let got: Vec<(String, u64, f64, f64, f64)> = streaming
            .buffers
            .iter()
            .map(|((c, i, n), a)| (format!("{c}/{i}/{n}"), a.windows, a.peak, a.mean(), a.last))
            .collect();
        prop_assert_eq!(got, reference.buffers());

        // Section 3: FCT attribution at a few window stretches.
        let attr_ps = attr_us * 1_000_000;
        let a = streaming.fct_attribution(attr_ps);
        prop_assert_eq!(
            (a.windows, a.corruption, a.congestion),
            reference.fct_attribution(attr_ps)
        );

        // Section 4: health aggregates against a fold of the retained
        // transition list (final state per inst, count, worst rate —
        // exactly what the health_summary section prints).
        let mut ref_final: BTreeMap<String, String> = BTreeMap::new();
        let mut ref_transitions = 0u64;
        let mut ref_worst = 0.0f64;
        for (inst, _, to, _, rate) in &reference.health {
            ref_final.insert(inst.clone(), to.clone());
            ref_transitions += 1;
            ref_worst = ref_worst.max(*rate);
        }
        prop_assert_eq!(&streaming.health.final_state, &ref_final);
        prop_assert_eq!(streaming.health.transitions, ref_transitions);
        prop_assert_eq!(streaming.health.worst_rate, ref_worst);
    }
}
