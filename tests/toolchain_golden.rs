//! Golden digest of the observability tool chain: `lg_obs::schema`
//! (what `obs_validate` runs), `lg_obs::analyze` (`obs_analyze`) and
//! `lg_guardd` with its `query` surface (`guardctl`).
//!
//! One deterministic ≈300-line dump — every record type of
//! `schema/obs-schema.json`, a line with string escapes, nested
//! `metric` counters, a real guardian journal and snapshot — is
//! streamed from a file through the three tools exactly as their
//! binaries do. Validator counts, every `report` record, every journal
//! line, the `guardctl` renderings, the snapshot and a table of
//! rejection messages are folded into one FNV-1a hash and compared with
//! the value recorded before the tool chain's reader was rewritten. A
//! change to the JSON reader, the validator, the analyzer or the
//! guardian's decision pass must leave the digest as it is; a
//! deliberate format change records a new one (the failure message
//! prints it).

use lg_guardd::{query, GuardConfig, GuardInput, GuardManager, LinkHealth};
use lg_obs::analyze::{report_run, Report, Run};
use lg_obs::schema::Schema;
use lg_obs::{JsonLine, LineReader};
use std::path::PathBuf;

const SCHEMA: &str = include_str!("../schema/obs-schema.json");
const RUN: &str = "golden";

struct Fnv(u64);

impl Fnv {
    fn str(&mut self, s: &str) {
        for &x in s.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.str(&v.to_string());
    }
}

/// Knuth's 64-bit LCG; the high bits are the output.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

const STATES: [LinkHealth; 3] = [
    LinkHealth::Healthy,
    LinkHealth::Degraded,
    LinkHealth::Corrupting,
];

fn timeseries(t_ps: u64, window: u64, comp: &str, inst: &str, name: &str, v: f64) -> String {
    let mut l = JsonLine::new();
    l.str("type", "timeseries")
        .u64("t_ps", t_ps)
        .u64("window_id", window)
        .str("run", RUN)
        .str("comp", comp)
        .str("inst", inst)
        .str("name", name)
        .f64("value", v)
        .f64("ewma", v / 2.0);
    l.finish()
}

fn trace(t_ps: u64, kind: &str, uid: u64) -> String {
    let mut l = JsonLine::new();
    l.str("type", "trace")
        .u64("t_ps", t_ps)
        .str("comp", "link")
        .str("kind", kind)
        .u64("inst", 0)
        .u64("uid", uid)
        .u64("seq", uid)
        .u64("aux", uid % 7);
    l.finish()
}

/// The telemetry half of the dump plus the guardian's health feed.
fn telemetry() -> (Vec<String>, Vec<GuardInput>) {
    let mut rng = Lcg(0x6c67_2d6f_6273);
    let mut lines = vec![format!(
        "{{\"type\":\"meta\",\"schema\":3,\"bin\":\"toolchain_golden\"}}"
    )];
    let mut feed = Vec::new();
    let mut state = [0usize; 6];
    let mut uid = 1u64;
    for window in 1..=16u64 {
        let t_ps = window * 1_000_000;
        for s in 0..4 {
            let v = rng.below(1 << 20) as f64;
            lines.push(timeseries(
                t_ps,
                window,
                "port",
                &format!("sw:{s}"),
                "qdepth_bytes",
                v,
            ));
        }
        for (comp, name) in [
            ("lg_receiver", "rx_buffer_bytes"),
            ("lg_sender", "tx_buffer_bytes"),
        ] {
            let v = rng.below(200 * 1024) as f64 + 0.5;
            lines.push(timeseries(t_ps, window, comp, "fwd", name, v));
        }
        let retx = rng.below(4) as f64;
        lines.push(timeseries(t_ps, window, "host", "h0", "e2e_retx", retx));
        lines.push(timeseries(
            t_ps,
            window,
            "port",
            "sw:0",
            "util",
            rng.below(1000) as f64 * 1.5e-4,
        ));
        // Each link takes a step of its own random walk over the three
        // health states; staying put is a (C, C)-style refresh.
        for (link, st) in state.iter_mut().enumerate() {
            let from = STATES[*st];
            *st = rng.below(3) as usize;
            let to = STATES[*st];
            let rate = match to {
                LinkHealth::Healthy => (rng.below(90) + 10) as f64 * 1e-11,
                LinkHealth::Degraded => (rng.below(900) + 100) as f64 * 1e-10,
                LinkHealth::Corrupting => (rng.below(900) + 100) as f64 * 1e-7,
            };
            let mut l = JsonLine::new();
            l.str("type", "health_event")
                .u64("t_ps", t_ps)
                .u64("window_id", window)
                .str("run", RUN)
                .str("comp", "fabric_link")
                .str("inst", &format!("link:{link}"))
                .str("from", from.name())
                .str("to", to.name())
                .f64("rate", rate)
                .u64("frames", 100_000)
                .u64("errors", rng.below(50) + 1);
            lines.push(l.finish());
            feed.push(GuardInput {
                t_ps,
                window_id: window,
                link: link as u32,
                from,
                to,
                rate,
            });
        }
        if window % 2 == 0 {
            lines.push(trace(t_ps, "corrupt_drop", uid));
            if window % 6 != 0 {
                lines.push(trace(t_ps + 5_000 + rng.below(50_000), "recovered", uid));
            }
            lines.push(trace(t_ps + 70_000, "tx", uid));
            uid += 1;
        }
        if window % 4 == 0 {
            // Nested values: an object holding an object and an array.
            lines.push(format!(
                "{{\"type\":\"metric\",\"t_ps\":{t_ps},\"comp\":\"switch_port\",\
                 \"inst\":\"sw_tx:0\",\"counters\":{{\"frames_tx\":{},\
                 \"fct\":{{\"p50\":1.5,\"p99\":2.5e3,\"buckets\":[1,2,[3,null,true]]}},\
                 \"drops\":0}}}}",
                window * 813
            ));
        }
    }
    // String escapes, in a series the report prints and in a health
    // instance whose final state it lists; multi-byte UTF-8 both raw and
    // as \u escapes.
    lines.push(
        "{\"type\":\"timeseries\",\"t_ps\":17000000,\"window_id\":17,\"run\":\"golden\",\
         \"comp\":\"lg_sender\",\"inst\":\"q\\\"uote\\\\back\\/slash\\u00e9\\n\\t\\u0001é→\",\
         \"name\":\"tx_buffer_bytes\",\"value\":4096.0,\"ewma\":1e-7}"
            .to_string(),
    );
    lines.push(
        "{\"type\":\"health_event\",\"t_ps\":17000000,\"window_id\":17,\"run\":\"golden\",\
         \"comp\":\"fabric_link\",\"inst\":\"l\\u00efnk\\b\\f\\r:9\",\"from\":\"healthy\",\
         \"to\":\"degraded\",\"rate\":1.5e-4}"
            .to_string(),
    );
    // Whitespace between tokens, a duplicate key (last wins), an empty
    // line, and the record types nothing above produced.
    lines.push(
        " { \"type\" : \"trace_summary\" , \"records\" : 1 , \"records\" : 24 ,\t\"dropped\" : 0 } "
            .to_string(),
    );
    lines.push(String::new());
    lines.push(
        "{\"type\":\"profile\",\"section\":\"pktsim\",\"event\":\"arrive\",\"count\":12,\
         \"total_ns\":3456,\"mean_ns\":288.0}"
            .to_string(),
    );
    lines.push("{\"type\":\"report\",\"section\":\"recovery_latency\",\"run\":\"x\"}".to_string());
    (lines, feed)
}

/// Fold the feed, one tick per poll boundary, and return the manager
/// with its journal still inside.
fn guardian(feed: &[GuardInput]) -> GuardManager {
    let cfg = GuardConfig {
        budget: 2,
        hold_down_windows: 2,
        retire: true,
        protect_on: LinkHealth::Degraded,
        history_cap: 6,
    };
    let mut mgr = GuardManager::new(RUN, cfg);
    let mut last_t = 0;
    for ev in feed {
        if ev.t_ps != last_t && last_t != 0 {
            mgr.tick(last_t);
        }
        last_t = ev.t_ps;
        mgr.ingest(*ev);
    }
    mgr.tick(last_t + 5_000_000);
    mgr
}

/// Inputs each reader must refuse, and with which words.
fn rejections(schema: &Schema, h: &mut Fnv) {
    let ts = |t: u64, w: u64| timeseries(t, w, "port", "sw:0", "qdepth_bytes", 1.0);
    let ge = |t: u64, seq: u64| {
        format!(
            "{{\"type\":\"guard_event\",\"t_ps\":{t},\"seq\":{seq},\"run\":\"r\",\"link\":3,\
             \"action\":\"enable\",\"state\":\"degraded\",\"rate\":1e-3,\"budget\":1,\
             \"budget_used\":1,\"cause\":[],\"beat\":[]}}"
        )
    };
    let docs: Vec<String> = vec![
        "{".into(),
        "{}x".into(),
        "{\"a\":}".into(),
        "[1,]".into(),
        "nul".into(),
        "{\"a\" 1}".into(),
        "{\"a\":1 \"b\":2}".into(),
        "{\"a\":[1 2]}".into(),
        "{\"a\":\"unterminated}".into(),
        "{\"a\":\"bad \\x escape\"}".into(),
        "{\"a\":\"\\u12\"}".into(),
        "{\"a\":\"\\uzzzz\"}".into(),
        "{\"a\":-}".into(),
        "{\"a\":1.2.3}".into(),
        "{a:1}".into(),
        "\"just a string\"".into(),
        "{\"no_type\":1}".into(),
        "{\"type\":\"bogus\"}".into(),
        "{\"type\":\"meta\",\"schema\":\"three\",\"bin\":\"x\"}".into(),
        "{\"type\":\"meta\",\"schema\":3}".into(),
        "{\"type\":\"guard_event\",\"t_ps\":1,\"seq\":1,\"run\":\"r\",\"link\":3,\
         \"action\":\"enable\",\"state\":\"degraded\",\"rate\":1e-3,\"budget\":1,\
         \"budget_used\":1,\"cause\":{},\"beat\":[]}"
            .into(),
        [ts(20, 1), ts(10, 2)].join("\n"),
        [ts(10, 2), ts(20, 2)].join("\n"),
        [ge(10, 1), ge(20, 1)].join("\n"),
        [ge(20, 1), ge(10, 2)].join("\n"),
        String::new(),
    ];
    for doc in &docs {
        let err = schema.validate(doc).expect_err(doc);
        h.str(&err);
    }
    for line in [
        "{\"type\":\"trace\",\"kind\":\"corrupt_drop\",\"t_ps\":1}",
        "{\"type\":\"trace\",\"kind\":\"recovered\",\"uid\":\"7\",\"t_ps\":1}",
        "{\"type\":\"timeseries\",\"name\":\"e2e_retx\",\"comp\":\"host\"}",
        "{\"type\":\"timeseries\",\"name\":\"qdepth_bytes\",\"comp\":\"c\",\"inst\":\"i\",\"t_ps\":1}",
        "{\"type\":\"health_event\",\"inst\":\"l\",\"from\":\"healthy\",\"to\":7}",
        "{\"type\":\"health_event\",\"inst\":\"l\",\"from\":\"healthy\",\"to\":\"degraded\",\"t_ps\":1}",
        "{\"type\":\"trace\",\"kind\":\"corrupt_drop\"",
    ] {
        let err = Run::default().ingest_line(line).expect_err(line);
        h.str(&err);
    }
    for doc in [
        "{\"type\":\"guard_event\"}",
        "\n{\"type\":\"guard_event\",\"action\":\"explode\"}",
        "{\"type\":\"meta\"}\n{\"type\":",
        "{\"type\":\"guard_event\",\"action\":\"enable\",\"cause\":[{\"t_ps\":1}]}",
        "{\"type\":\"guard_event\",\"action\":\"enable\",\"beat\":[{\"link\":1}]}",
        "{\"type\":\"guard_event\",\"action\":\"defer\",\"seq\":1,\"t_ps\":1,\"link\":2,\"state\":\"sick\"}",
    ] {
        let err = query::parse_journal(doc).expect_err(doc);
        h.str(&err);
    }
    for line in [
        "{\"type\":\"guard_snapshot\"",
        "{\"type\":\"guard_event\"}",
        "{\"type\":\"guard_snapshot\",\"budget\":1}",
        "{\"type\":\"guard_snapshot\",\"budget\":1,\"hold_down_windows\":0,\"retire\":true,\
         \"protect_on\":\"degraded\",\"history_cap\":4}",
        "{\"type\":\"guard_snapshot\",\"budget\":1,\"hold_down_windows\":0,\"retire\":true,\
         \"protect_on\":\"degraded\",\"history_cap\":4,\"links\":[{\"link\":1}]}",
    ] {
        let err = GuardManager::restore(line).expect_err(line);
        h.str(&err);
    }
}

#[test]
fn toolchain_outputs_match_golden() {
    let schema = Schema::parse(SCHEMA).expect("repository schema parses");
    let (mut lines, feed) = telemetry();
    let mut mgr = guardian(&feed);
    let snapshot = mgr.snapshot_line();
    let journal = mgr.journal().to_vec();
    assert!(
        journal.len() >= 20,
        "the feed must exercise the guardian: {} decisions",
        journal.len()
    );
    lines.extend(journal.iter().cloned());
    lines.push(snapshot.clone());
    assert!(
        (280..=360).contains(&lines.len()),
        "dump is {} lines",
        lines.len()
    );

    // The dump goes through a file, CRLF on every third line, and is
    // read back the way the binaries read: `LineReader` for the
    // validator, `Run::ingest_file` for the analyzer.
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("toolchain_golden.jsonl");
    let mut text = String::new();
    for (i, line) in lines.iter().enumerate() {
        text.push_str(line);
        text.push_str(if i % 3 == 2 { "\r\n" } else { "\n" });
    }
    std::fs::write(&path, &text).expect("write dump");

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);

    // obs_validate.
    let mut validator = schema.validator();
    let mut reader = LineReader::with_capacity(61, std::fs::File::open(&path).expect("dump"));
    while let Some(line) = reader.next_line().expect("dump is UTF-8") {
        validator.feed(line).expect("dump is schema-valid");
    }
    let counts = validator.finish().expect("records found");
    assert_eq!(counts, schema.validate(&text).expect("whole-document API"));
    assert_eq!(
        counts.len(),
        10,
        "every record type of the schema: {counts:?}"
    );
    for (ty, n) in &counts {
        h.str(ty);
        h.u64(*n as u64);
    }

    // obs_analyze.
    let mut run = Run::default();
    run.ingest_file(path.to_str().expect("UTF-8 path"))
        .expect("dump ingests");
    let mut report = Report::default();
    let stats = report_run(RUN, &run, 50_000_000, &mut report);
    h.u64(stats.recovery_p99_ps);
    for (series, peak) in &stats.buffer_peaks {
        h.str(series);
        h.u64(peak.to_bits());
    }
    h.u64(report.records.len() as u64);
    for rec in &report.records {
        schema
            .validate_line(rec)
            .expect("report records are schema-valid");
        h.str(rec);
    }

    // lg-guardd and guardctl.
    for d in mgr.drain_decisions() {
        h.u64(d.seq);
        h.u64(d.t_ps);
        h.u64(u64::from(d.link));
        h.str(d.action.name());
        h.u64(d.rate.to_bits());
    }
    for line in &journal {
        h.str(line);
    }
    let parsed = query::parse_journal(&text).expect("dump parses as a journal");
    assert_eq!(parsed.events.len(), journal.len());
    assert_eq!(parsed.snapshots, 1);
    h.str(&parsed.run);
    h.str(&query::render_status(&parsed));
    h.str(&query::render_timeline(&parsed));
    for link in 0..7 {
        h.str(&query::render_history(&parsed, link));
        h.str(&query::render_why(&parsed, link));
    }
    let protected: Vec<u32> = parsed.protected().iter().map(|e| e.link).collect();
    assert_eq!(protected, mgr.protected_links());

    // Snapshot → restore → snapshot is the identity, and the restored
    // manager continues the journal exactly as the original does.
    h.str(&snapshot);
    let mut restored = GuardManager::restore(&snapshot).expect("own snapshot restores");
    assert_eq!(restored.snapshot_line(), snapshot);
    assert_eq!(restored.protected_links(), mgr.protected_links());
    mgr.take_journal();
    for m in [&mut mgr, &mut restored] {
        m.ingest(GuardInput {
            t_ps: 40_000_000,
            window_id: 40,
            link: 4,
            from: LinkHealth::Healthy,
            to: LinkHealth::Corrupting,
            rate: 2.5e-3,
        });
        m.tick(90_000_000);
    }
    assert_eq!(restored.journal(), mgr.journal());
    for line in mgr.journal() {
        h.str(line);
    }
    h.str(&mgr.snapshot_line());

    rejections(&schema, &mut h);

    let want = 0x42e9_60b4_6ecd_6ece_u64;
    assert_eq!(
        h.0, want,
        "tool-chain outputs changed: digest {:#018x}, recorded {want:#018x}",
        h.0
    );
}
