//! Generate a large, schema-valid observability dump for CI load tests.
//!
//! ```text
//! obs_genload --out <file.jsonl> [--mb <N>] [--series <S>] [--seed <K>]
//!             [--mode <mixed|health>]
//! ```
//!
//! Emits at least `N` megabytes (default 200) of JSONL conforming to
//! `schema/obs-schema.json`. The default `mixed` mode is dominated by
//! `timeseries` samples across `S` queue-depth streams (the shape of a
//! fabric-scale telemetry run), interleaved with
//! `corrupt_drop`/`recovered` trace pairs, `e2e_retx` windows, and
//! sparse `health_event` transitions — every section `obs_analyze`
//! reports on. `--mode health` inverts the mix: the dump is dominated
//! by `health_event` transitions across `S` per-link streams (each link
//! walking healthy→degraded→corrupting and back) with a sparse
//! `guard_event` journal riding along, so the analyzer-RSS gate also
//! exercises the health/guard section paths at scale. Fully
//! deterministic from `--seed`, so the CI peak-RSS gate replays the
//! same document every run: the streaming analyzer must hold its
//! aggregates (not the file) in memory, a property this generator
//! exists to falsify at scale.

use lg_obs::trace::{Comp, Kind, TraceRecord};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

/// Minimal deterministic generator (splitmix64 step).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn put(w: &mut BufWriter<File>, line: String) -> io::Result<u64> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    Ok(line.len() as u64 + 1)
}

fn generate(w: &mut BufWriter<File>, rng: &mut Lcg, target: u64, series: u64) -> io::Result<u64> {
    let mut total = put(
        w,
        "{\"type\":\"meta\",\"schema\":3,\"bin\":\"obs_genload\"}".into(),
    )?;
    let mut window = 0u64;
    let mut uid = 1u64;
    let mut health_flip = [false; 8];
    while total < target {
        window += 1;
        let t_ps = window * 1_000_000;
        // The bulk: one queue-depth sample per stream per window.
        for s in 0..series {
            let v = rng.below(1 << 20);
            total += put(
                w,
                format!(
                    "{{\"type\":\"timeseries\",\"t_ps\":{t_ps},\"window_id\":{window},\
                     \"run\":\"genload\",\"comp\":\"port\",\"inst\":\"sw:{s}\",\
                     \"name\":\"qdepth_bytes\",\"value\":{v}.0,\"ewma\":{v}.0}}"
                ),
            )?;
        }
        // A thin e2e_retx stream for FCT attribution.
        let retx = rng.below(4);
        total += put(
            w,
            format!(
                "{{\"type\":\"timeseries\",\"t_ps\":{t_ps},\"window_id\":{window},\
                 \"run\":\"genload\",\"comp\":\"host\",\"inst\":\"h0\",\
                 \"name\":\"e2e_retx\",\"value\":{retx}.0,\"ewma\":{retx}.0}}"
            ),
        )?;
        // Loss traces: a drop, usually recovered shortly after.
        if rng.below(4) == 0 {
            let drop = TraceRecord {
                t_ps,
                uid,
                seq: uid,
                aux: rng.below(64) as u32,
                inst: 0,
                comp: Comp::Link,
                kind: Kind::CorruptDrop,
            };
            total += put(w, drop.json_line())?;
            if rng.below(16) != 0 {
                let recovered = TraceRecord {
                    t_ps: t_ps + 5_000 + rng.below(50_000),
                    kind: Kind::Recovered,
                    ..drop
                };
                total += put(w, recovered.json_line())?;
            }
            uid += 1;
        }
        // Sparse health transitions, monotone per link stream.
        if window.is_multiple_of(1024) {
            let l = (rng.below(8)) as usize;
            let (from, to) = if health_flip[l] {
                ("degraded", "healthy")
            } else {
                ("healthy", "degraded")
            };
            health_flip[l] = !health_flip[l];
            total += put(
                w,
                format!(
                    "{{\"type\":\"health_event\",\"t_ps\":{t_ps},\"window_id\":{window},\
                     \"run\":\"genload\",\"comp\":\"pktlink\",\"inst\":\"{l}\",\
                     \"from\":\"{from}\",\"to\":\"{to}\",\"rate\":1.5e-4,\
                     \"frames\":1000,\"errors\":3}}"
                ),
            )?;
        }
    }
    w.flush()?;
    Ok(total)
}

/// `--mode health`: the dump is almost entirely `health_event` lines —
/// every link stream walks the healthy→degraded→corrupting ladder and
/// back, one transition per link per window — plus one `guard_event`
/// journal line (strictly increasing `seq`) every 64 windows, enabling
/// the worst link of the moment. Per-stream `window_id` stays strictly
/// increasing and per-run `seq` strictly increasing, so the dump also
/// regression-tests the validator's stream-order checks at scale.
fn generate_health(
    w: &mut BufWriter<File>,
    rng: &mut Lcg,
    target: u64,
    series: u64,
) -> io::Result<u64> {
    let mut total = put(
        w,
        "{\"type\":\"meta\",\"schema\":3,\"bin\":\"obs_genload\"}".into(),
    )?;
    const LADDER: [&str; 4] = ["healthy", "degraded", "corrupting", "degraded"];
    let mut phase = vec![0usize; series as usize];
    let mut window = 0u64;
    let mut seq = 0u64;
    while total < target {
        window += 1;
        let t_ps = window * 1_000_000;
        for l in 0..series as usize {
            let from = LADDER[phase[l]];
            phase[l] = (phase[l] + 1) % LADDER.len();
            let to = LADDER[phase[l]];
            let rate = (rng.below(900) + 100) as f64 * 1e-7;
            total += put(
                w,
                format!(
                    "{{\"type\":\"health_event\",\"t_ps\":{t_ps},\"window_id\":{window},\
                     \"run\":\"genload\",\"comp\":\"pktlink\",\"inst\":\"{l}\",\
                     \"from\":\"{from}\",\"to\":\"{to}\",\"rate\":{rate:e},\
                     \"frames\":100000,\"errors\":{}}}",
                    rng.below(50) + 1
                ),
            )?;
        }
        if window.is_multiple_of(64) {
            seq += 1;
            let link = rng.below(series);
            total += put(
                w,
                format!(
                    "{{\"type\":\"guard_event\",\"t_ps\":{t_ps},\"seq\":{seq},\
                     \"run\":\"genload\",\"link\":{link},\"action\":\"enable\",\
                     \"state\":\"corrupting\",\"rate\":1.5e-5,\"budget\":64,\
                     \"budget_used\":1,\"cause\":[],\"beat\":[]}}"
                ),
            )?;
        }
    }
    w.flush()?;
    Ok(total)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out: String = arg(&args, "--out", String::new());
    let mb: u64 = arg(&args, "--mb", 200);
    let series: u64 = arg(&args, "--series", 64);
    let seed: u64 = arg(&args, "--seed", 42);
    let mode: String = arg(&args, "--mode", "mixed".to_string());
    if out.is_empty() || !matches!(mode.as_str(), "mixed" | "health") {
        eprintln!(
            "usage: obs_genload --out <file.jsonl> [--mb <N>] [--series <S>] [--seed <K>] \
             [--mode <mixed|health>]"
        );
        return ExitCode::FAILURE;
    }
    let file = match File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut w = BufWriter::new(file);
    let mut rng = Lcg(seed);
    let gen = match mode.as_str() {
        "health" => generate_health,
        _ => generate,
    };
    match gen(&mut w, &mut rng, mb * 1024 * 1024, series) {
        Ok(total) => {
            eprintln!("wrote {total} bytes to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error writing {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
