//! `obs_fold`: the observability tool chain over benchmark-generated
//! JSONL — schema validation, the streaming analyzer and its report,
//! and the guardian fold with snapshot/restore. No simulation runs.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lg_guardd::{canonical_sort, query, GuardConfig, GuardInput, GuardManager, LinkHealth};
use lg_obs::analyze::{report_run, Report, Run};
use lg_obs::schema::Schema;
use lg_obs::LineReader;
use lg_sim::Rng;

use crate::metrics::OB;
use crate::span::{since, Recorder, Sampled};
use crate::stats;
use crate::workload::{Ab, Digest, LayerValues, Outcome, Rep, Variant, Workload};

/// The repository's observability schema, compiled in so the benchmark
/// validates against exactly the file the tools ship with.
const SCHEMA: &str = include_str!("../../schema/obs-schema.json");

/// Run label handed to `report_run`, which prints its sections to
/// stdout: the orchestrating process drops lines carrying this tag.
pub const REPORT_TAG: &str = "lg-perf-report";

/// FCT-attribution window, the `obs_analyze` default (50 µs).
const ATTR_PS: u64 = 50_000_000;

const LADDER: [LinkHealth; 4] = [
    LinkHealth::Healthy,
    LinkHealth::Degraded,
    LinkHealth::Corrupting,
    LinkHealth::Degraded,
];

pub struct ObsFold;

struct Size {
    mixed_bytes: u64,
    health_bytes: u64,
}

impl ObsFold {
    fn sizes(quick: bool) -> Size {
        if quick {
            Size {
                mixed_bytes: 1_500_000,
                health_bytes: 500_000,
            }
        } else {
            Size {
                mixed_bytes: 15_000_000,
                health_bytes: 5_000_000,
            }
        }
    }
}

/// What one generated document holds, for the checks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Generated {
    pub bytes: u64,
    pub lines: u64,
    pub drops: u64,
    pub health_events: u64,
    /// FNV-1a over the document's bytes.
    pub digest: u64,
    /// The health document's transitions, as the guardian's feed.
    pub guard_feed: Vec<GuardInput>,
}

/// A document being generated into `out`, one line at a time, so that
/// no more than a line is ever held in memory: the process's peak RSS
/// must stay the tool chain's, not the generator's.
struct Doc<'a> {
    out: &'a mut dyn Write,
    line: String,
    digest: Digest,
    gen: Generated,
}

impl<'a> Doc<'a> {
    fn start(out: &'a mut dyn Write) -> std::io::Result<Doc<'a>> {
        let mut d = Doc {
            out,
            line: String::new(),
            digest: Digest::default(),
            gen: Generated::default(),
        };
        d.put(format_args!(
            "{{\"type\":\"meta\",\"schema\":3,\"bin\":\"lg-perf\"}}"
        ))?;
        Ok(d)
    }

    fn put(&mut self, line: std::fmt::Arguments<'_>) -> std::io::Result<()> {
        self.line.clear();
        self.line
            .write_fmt(line)
            .expect("writing to a String cannot fail");
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        self.digest.str(&self.line);
        self.gen.bytes += self.line.len() as u64;
        self.gen.lines += 1;
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<Generated> {
        self.out.flush()?;
        self.gen.digest = self.digest.finish();
        Ok(self.gen)
    }
}

type Generator = fn(u64, u64, &mut dyn Write) -> std::io::Result<Generated>;

/// Generate the rep's input (that is its set-up) and make sure `path`
/// holds it. Every rep regenerates, into a sink, and compares digests;
/// only a missing or different file is rewritten, because rewriting
/// tens of megabytes per rep makes the host's writeback compete with
/// the measured region.
fn ensure(path: &Path, generate: Generator, seed: u64, target: u64) -> std::io::Result<Generated> {
    let sidecar = path.with_extension("fnv");
    let g = generate(seed, target, &mut std::io::sink())?;
    let stored = std::fs::read_to_string(&sidecar)
        .ok()
        .and_then(|t| u64::from_str_radix(t.trim(), 16).ok());
    if stored != Some(g.digest) || !path.exists() {
        let mut file = std::io::BufWriter::new(File::create(path)?);
        let written = generate(seed, target, &mut file)?;
        assert_eq!(written, g, "generator is not a function of its seed");
        std::fs::write(sidecar, format!("{:016x}\n", g.digest))?;
    }
    Ok(g)
}

/// Telemetry-dominated dump: queue-depth and buffer series, an
/// `e2e_retx` stream, drop/recover trace pairs, sparse metric snapshots
/// and health transitions — every section `obs_analyze` reports on.
pub fn generate_mixed(seed: u64, target: u64, sink: &mut dyn Write) -> std::io::Result<Generated> {
    let mut out = Doc::start(sink)?;
    let mut rng = Rng::new(seed);
    let (mut window, mut uid) = (0u64, 1u64);
    let mut flipped = [false; 8];
    while out.gen.bytes < target {
        window += 1;
        let t_ps = window * 1_000_000;
        for s in 0..16 {
            let v = rng.below(1 << 20);
            out.put(format_args!(
                "{{\"type\":\"timeseries\",\"t_ps\":{t_ps},\"window_id\":{window},\
                 \"run\":\"perf\",\"comp\":\"port\",\"inst\":\"sw:{s}\",\
                 \"name\":\"qdepth_bytes\",\"value\":{v}.0,\"ewma\":{v}.0}}"
            ))?;
        }
        for (comp, name) in [
            ("lg_receiver", "rx_buffer_bytes"),
            ("lg_sender", "tx_buffer_bytes"),
        ] {
            let v = rng.below(200 * 1024);
            out.put(format_args!(
                "{{\"type\":\"timeseries\",\"t_ps\":{t_ps},\"window_id\":{window},\
                 \"run\":\"perf\",\"comp\":\"{comp}\",\"inst\":\"fwd\",\
                 \"name\":\"{name}\",\"value\":{v}.0,\"ewma\":{v}.0}}"
            ))?;
        }
        let retx = rng.below(4);
        out.put(format_args!(
            "{{\"type\":\"timeseries\",\"t_ps\":{t_ps},\"window_id\":{window},\
             \"run\":\"perf\",\"comp\":\"host\",\"inst\":\"h0\",\
             \"name\":\"e2e_retx\",\"value\":{retx}.0,\"ewma\":{retx}.0}}"
        ))?;
        if rng.below(4) == 0 {
            let link = rng.below(64);
            out.put(format_args!(
                "{{\"type\":\"trace\",\"t_ps\":{t_ps},\"comp\":\"link\",\
                 \"kind\":\"corrupt_drop\",\"inst\":0,\"uid\":{uid},\"seq\":{uid},\"aux\":{link}}}"
            ))?;
            out.gen.drops += 1;
            if rng.below(16) != 0 {
                let t_rec = t_ps + 5_000 + rng.below(50_000);
                out.put(format_args!(
                    "{{\"type\":\"trace\",\"t_ps\":{t_rec},\"comp\":\"link\",\
                     \"kind\":\"recovered\",\"inst\":0,\"uid\":{uid},\"seq\":{uid},\"aux\":{link}}}"
                ))?;
            }
            uid += 1;
        }
        if window % 64 == 0 {
            out.put(format_args!(
                "{{\"type\":\"metric\",\"t_ps\":{t_ps},\"comp\":\"switch_port\",\
                 \"inst\":\"sw_tx:0\",\"counters\":{{\"frames_tx\":{}}}}}",
                window * 813
            ))?;
        }
        if window % 1024 == 0 {
            let l = rng.below(8) as usize;
            let (from, to) = if flipped[l] {
                ("degraded", "healthy")
            } else {
                ("healthy", "degraded")
            };
            flipped[l] = !flipped[l];
            out.put(format_args!(
                "{{\"type\":\"health_event\",\"t_ps\":{t_ps},\"window_id\":{window},\
                 \"run\":\"perf\",\"comp\":\"pktlink\",\"inst\":\"{l}\",\
                 \"from\":\"{from}\",\"to\":\"{to}\",\"rate\":1.5e-4,\
                 \"frames\":1000,\"errors\":3}}"
            ))?;
            out.gen.health_events += 1;
        }
    }
    out.finish()
}

/// Health-dominated dump: 64 link streams each walking healthy →
/// degraded → corrupting and back, one transition per link per window,
/// with a sparse `guard_event` journal riding along.
pub fn generate_health(seed: u64, target: u64, sink: &mut dyn Write) -> std::io::Result<Generated> {
    const LINKS: usize = 64;
    let mut out = Doc::start(sink)?;
    let mut rng = Rng::new(seed ^ 0x6865_616c_7468);
    let mut phase = [0usize; LINKS];
    let (mut window, mut seq) = (0u64, 0u64);
    while out.gen.bytes < target {
        window += 1;
        let t_ps = window * 1_000_000;
        for (l, ph) in phase.iter_mut().enumerate() {
            let from = LADDER[*ph];
            *ph = (*ph + 1) % LADDER.len();
            let to = LADDER[*ph];
            let rate = (rng.below(900) + 100) as f64 * 1e-7;
            out.put(format_args!(
                "{{\"type\":\"health_event\",\"t_ps\":{t_ps},\"window_id\":{window},\
                 \"run\":\"perf\",\"comp\":\"fabric_link\",\"inst\":\"link:{l}\",\
                 \"from\":\"{}\",\"to\":\"{}\",\"rate\":{rate:e},\
                 \"frames\":100000,\"errors\":{}}}",
                from.name(),
                to.name(),
                rng.below(50) + 1
            ))?;
            out.gen.health_events += 1;
            out.gen.guard_feed.push(GuardInput {
                t_ps,
                window_id: window,
                link: l as u32,
                from,
                to,
                rate,
            });
        }
        if window % 64 == 0 {
            seq += 1;
            let link = rng.below(LINKS as u64);
            out.put(format_args!(
                "{{\"type\":\"guard_event\",\"t_ps\":{t_ps},\"seq\":{seq},\
                 \"run\":\"perf\",\"link\":{link},\"action\":\"enable\",\
                 \"state\":\"corrupting\",\"rate\":1.5e-5,\"budget\":64,\
                 \"budget_used\":1,\"cause\":[],\"beat\":[]}}"
            ))?;
        }
    }
    out.finish()
}

/// What the fold produced, for the checks and the digest.
#[derive(Default)]
struct Folded {
    validated: u64,
    rejected: u64,
    first_reject: Option<String>,
    counts: Vec<(String, usize)>,
    run_drops: u64,
    run_transitions: u64,
    report: Vec<String>,
    journal: Vec<String>,
    protected: Vec<u32>,
    restored: Vec<u32>,
    status: String,
}

/// What both generated documents hold, summed.
struct Inputs {
    bytes: u64,
    lines: u64,
    drops: u64,
    health_events: u64,
}

struct ObsRep {
    files: [PathBuf; 2],
    gen: Inputs,
    feed: Vec<GuardInput>,
    schema: Schema,
    folded: Folded,
}

impl ObsRep {
    /// `rec` is `None` in the untraced run: same calls, no timers.
    fn fold(&mut self, mut rec: Option<&mut Recorder>) {
        let mut f = Folded::default();

        // 1. Schema validation, streamed line by line like obs_validate.
        let mut feed_stats = Sampled::default();
        let mut validator = self.schema.validator();
        let span = rec.as_deref_mut().map(|r| r.enter("Schema::validator"));
        for path in &self.files {
            let file = File::open(path).expect("generated input exists");
            let mut reader = LineReader::new(file);
            while let Some(line) = reader.next_line().expect("generated input readable") {
                let t0 = (rec.is_some() && feed_stats.due()).then(Instant::now);
                let r = validator.feed(line);
                feed_stats.add(t0.map(since));
                f.validated += 1;
                if let Err(e) = r {
                    f.rejected += 1;
                    f.first_reject.get_or_insert(e);
                }
            }
        }
        f.counts = validator.finish().unwrap_or_default();
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.fold("Validator::feed", feed_stats);
            r.exit(id);
        }

        // 2. Streaming analyzer and its report.
        let mut run = Run::default();
        for path in &self.files {
            let path = path.to_str().expect("benchmark paths are UTF-8");
            let ingest = |run: &mut Run| run.ingest_file(path).expect("generated input ingests");
            match rec.as_deref_mut() {
                Some(r) => r.scope("Run::ingest_file", |_| ingest(&mut run)),
                None => ingest(&mut run),
            }
        }
        let mut report = Report::default();
        match rec.as_deref_mut() {
            Some(r) => r.scope("report_run", |_| {
                report_run(REPORT_TAG, &run, ATTR_PS, &mut report)
            }),
            None => report_run(REPORT_TAG, &run, ATTR_PS, &mut report),
        };
        f.run_drops = run.drops.len() as u64;
        f.run_transitions = run.health.transitions;
        f.report = report.records;

        // 3. Guardian fold over the health feed, then snapshot/restore.
        let mut feed = std::mem::take(&mut self.feed);
        match rec.as_deref_mut() {
            Some(r) => r.scope("canonical_sort", |_| canonical_sort(&mut feed)),
            None => canonical_sort(&mut feed),
        }
        let mut mgr = GuardManager::new("perf", GuardConfig::default());
        let mut ingest_stats = Sampled::default();
        let span = rec.as_deref_mut().map(|r| r.enter("GuardManager::fold"));
        let mut last_t = 0;
        for ev in &feed {
            if ev.t_ps != last_t && last_t != 0 {
                mgr.tick(last_t);
            }
            last_t = ev.t_ps;
            let t0 = (rec.is_some() && ingest_stats.due()).then(Instant::now);
            mgr.ingest(*ev);
            ingest_stats.add(t0.map(since));
        }
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.fold("GuardManager::ingest", ingest_stats);
            r.exit(id);
        }
        let roundtrip = |mgr: &GuardManager| {
            GuardManager::restore(&mgr.snapshot_line()).expect("own snapshot restores")
        };
        let restored = match rec {
            Some(r) => r.scope("GuardManager::snapshot_restore", |_| roundtrip(&mgr)),
            None => roundtrip(&mgr),
        };
        f.protected = mgr.protected_links();
        f.restored = restored.protected_links();
        f.journal = mgr.take_journal();
        let journal = query::parse_journal(&f.journal.join("\n")).expect("own journal parses");
        f.status = query::render_status(&journal);
        self.feed = feed;
        self.folded = f;
    }
}

impl Rep for ObsRep {
    fn run(&mut self) {
        self.fold(None);
    }

    fn run_traced(&mut self, rec: &mut Recorder) {
        self.fold(Some(rec));
    }

    fn outcome(&mut self) -> Outcome {
        let f = std::mem::take(&mut self.folded);
        let g = &self.gen;
        let mut d = Digest::default();
        d.u64(g.bytes).u64(g.lines).u64(f.validated).u64(f.rejected);
        for (ty, n) in &f.counts {
            d.str(ty).u64(*n as u64);
        }
        for line in f.report.iter().chain(&f.journal) {
            d.str(line);
        }
        d.str(&f.status);
        let mut o = Outcome {
            work: g.bytes as f64 / 1e6,
            events: g.lines,
            attempted: g.lines,
            failed: f.rejected,
            digest: d.finish(),
            ..Outcome::default()
        };
        o.check(f.rejected == 0, || {
            format!("{} lines rejected, first: {:?}", f.rejected, f.first_reject)
        });
        o.check(f.validated == g.lines, || {
            format!("validated {} of {} lines", f.validated, g.lines)
        });
        let counted: usize = f.counts.iter().map(|(_, n)| n).sum();
        o.check(counted as u64 == g.lines, || {
            format!("validator counted {counted} records of {}", g.lines)
        });
        o.check(f.run_drops == g.drops, || {
            format!("analyzer saw {} drops of {}", f.run_drops, g.drops)
        });
        o.check(f.run_transitions == g.health_events, || {
            format!(
                "analyzer saw {} transitions of {}",
                f.run_transitions, g.health_events
            )
        });
        o.check(f.protected == f.restored, || {
            "restored guardian protects a different set".to_string()
        });
        o.layer.extend([
            ("obs.analyze.lines", g.lines as f64),
            ("obs.analyze.rejected_lines", f.rejected as f64),
            ("guardd.decisions", f.journal.len() as f64),
        ]);
        o
    }
}

impl Workload for ObsFold {
    fn name(&self) -> &'static str {
        OB
    }

    fn why(&self) -> &'static str {
        "the tool-chain path (JSON parse, schema, histograms, guardd fold) with no simulation: it moves only for obs and guardd changes, and is the bypass workload for every engine change"
    }

    fn work_unit(&self) -> &'static str {
        "MB of JSONL"
    }

    fn size(&self, quick: bool) -> String {
        let s = Self::sizes(quick);
        format!(
            "generated JSONL {:.1} MB mixed + {:.1} MB health-heavy -> Validator -> Run::ingest_file + report_run -> canonical_sort + GuardManager fold + snapshot/restore",
            s.mixed_bytes as f64 / 1e6,
            s.health_bytes as f64 / 1e6
        )
    }

    fn prepare(
        &self,
        seed: u64,
        quick: bool,
        _variant: Variant,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Box<dyn Rep> {
        let s = Self::sizes(quick);
        let files = [
            dir.join("obs_fold.mixed.jsonl"),
            dir.join("obs_fold.health.jsonl"),
        ];
        let (gen, feed) = rec.scope("generate", |_| {
            let mixed = ensure(&files[0], generate_mixed, seed, s.mixed_bytes)
                .expect("write generated input");
            let health = ensure(&files[1], generate_health, seed, s.health_bytes)
                .expect("write generated input");
            let gen = Inputs {
                bytes: mixed.bytes + health.bytes,
                lines: mixed.lines + health.lines,
                drops: mixed.drops + health.drops,
                health_events: mixed.health_events + health.health_events,
            };
            (gen, health.guard_feed)
        });
        let schema = rec.scope("Schema::parse", |_| {
            Schema::parse(SCHEMA).expect("repository schema parses")
        });
        Box::new(ObsRep {
            files,
            feed,
            gen,
            schema,
            folded: Folded::default(),
        })
    }

    fn abs(&self) -> &'static [Ab] {
        &[]
    }

    fn layer_from_spans(&self, rec: &Recorder, traced: &Outcome, out: &mut LayerValues) {
        let reps = rec.durations("report_run").len().max(1) as f64;
        let ingest_ns: f64 = rec.durations("Run::ingest_file").iter().sum();
        out.insert(
            "obs.schema.validate_ns_line",
            rec.folded("Validator::feed").mean_ns(),
        );
        out.insert(
            "obs.analyze.ingest_ns_line",
            ingest_ns / reps / traced.events.max(1) as f64,
        );
        out.insert(
            "obs.analyze.report_ms",
            stats::median(&rec.durations("report_run")) / 1e6,
        );
        out.insert(
            "guardd.sort_ms",
            stats::median(&rec.durations("canonical_sort")) / 1e6,
        );
        out.insert(
            "guardd.ingest_ns",
            rec.folded("GuardManager::ingest").mean_ns(),
        );
        out.insert(
            "guardd.snapshot_restore_us",
            stats::median(&rec.durations("GuardManager::snapshot_restore")) / 1e3,
        );
    }

    fn kernels(&self, _traced: &Outcome, _out: &mut LayerValues) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(generate: Generator, seed: u64, target: u64) -> (String, Generated) {
        let mut buf = Vec::new();
        let g = generate(seed, target, &mut buf).expect("writing to memory");
        (String::from_utf8(buf).expect("JSONL is UTF-8"), g)
    }

    #[test]
    fn generated_jsonl_validates_against_the_repository_schema() {
        let schema = Schema::parse(SCHEMA).expect("schema parses");
        let mut total = 0usize;
        for generate in [generate_mixed as Generator, generate_health] {
            let (text, g) = text(generate, 9, 300_000);
            assert!(g.bytes >= 300_000 && g.bytes == text.len() as u64);
            assert_eq!(text.lines().count() as u64, g.lines);
            let counts = schema.validate(&text).expect("schema-valid");
            total += counts.iter().map(|(_, n)| n).sum::<usize>();
        }
        assert!(total > 1_000);
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        for generate in [generate_mixed as Generator, generate_health] {
            assert_eq!(text(generate, 1, 50_000), text(generate, 1, 50_000));
            let (a, b) = (text(generate, 1, 50_000), text(generate, 2, 50_000));
            assert!(a.0 != b.0 && a.1.digest != b.1.digest);
        }
    }

    #[test]
    fn ensure_writes_once_and_rewrites_on_change() {
        // Inside the benchmark's own (git-ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-ensure", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("doc.jsonl");
        let mtime = |p: &Path| {
            std::fs::metadata(p)
                .expect("stored")
                .modified()
                .expect("mtime")
        };
        let a = ensure(&path, generate_health, 1, 10_000).expect("first write");
        let written = mtime(&path);
        assert_eq!(ensure(&path, generate_health, 1, 10_000).expect("no-op"), a);
        assert_eq!(mtime(&path), written);
        let b = ensure(&path, generate_health, 2, 10_000).expect("rewrite");
        let (want, _) = text(generate_health, 2, 10_000);
        assert_eq!(std::fs::read_to_string(&path).expect("read back"), want);
        assert_eq!(b.bytes, want.len() as u64);
        std::fs::remove_dir_all(dir).expect("clean up");
    }
}
