//! Event-loop throughput guard for CI.
//!
//! Runs the same fig10-style FCT world as `benches/world.rs` several
//! times and prints the median `events_per_sec`. CI runs this binary
//! twice — default features vs `--no-default-features` (trace emission
//! compiled out) — and fails if the default build falls below 97% of the
//! trace-free build, i.e. if the disabled-path trace checks ever grow
//! beyond a branch. A second gate runs `--ab-telemetry`, which
//! interleaves baseline reps with `--telemetry` reps (500 µs streaming
//! sampling) inside one process and prints both medians plus their
//! ratio — interleaving cancels the machine drift that makes two
//! sequential invocations useless for resolving a few percent. CI fails
//! if the ratio shows telemetry costing more than 5% of throughput.
//! (`tick_cost` prints the per-tick nanosecond cost directly when the
//! ratio needs explaining.)
//!
//! Two further switches:
//!
//! - `--allocs` counts heap allocations across the steady-state reps
//!   (warm-up excluded) and prints `allocs_per_event`; CI fails the
//!   run if it exceeds 0.01 — the hot path must stay allocation-free.
//! - `--history <path>` makes the fabric modes below append their
//!   headline numbers as one JSON line to a trajectory file
//!   (`BENCH_history.json`). A CI perf gate reads the *last* entry
//!   matching its mode as its reference, so the threshold tracks the
//!   repo's own recorded trajectory instead of a hard-coded count.
//!
//! Two modes guard the sharded packet-level fabric
//! ([`lg_fabric::run_packet`]):
//!
//! - `--ab-shard` interleaves serial reps (`--shards 1 --threads 1`)
//!   with sharded reps (`--shards N`, workers capped at the machine's
//!   available parallelism) of the same pod-scale packet run and prints
//!   both medians plus the sharded/serial speedup ratio. `--shards`
//!   takes a comma list (`--shards 1,4,8`): each layout runs the full
//!   interleaved protocol, prints its own block, and appends its own
//!   history line, so one invocation sweeps the scaling curve. The
//!   per-run event count is layout-invariant (determinism), so it
//!   doubles as an exact-match reference. When the machine exposes
//!   fewer hardware threads than shards the speedup honestly reports
//!   what the hardware allows; the CI gate runs on multi-core runners.
//! - `--allocs-shard` counts steady-state heap allocations of a sharded
//!   (4-shard, serial-path) packet run, construction excluded. Same
//!   ≤ 0.01 allocs/event bar as `--allocs`: per-shard arenas must make
//!   the sharded hot path as allocation-free as the single-world one.
//!   With `--pods N` it runs an N-pod slice of the fabric-scale preset,
//!   where per-*cell* heap blocks would show (CI gates `--pods 30
//!   --horizon-us 150`).
//! - `--rss` runs the fabric-scale preset once (260 pods ≈ 100K links,
//!   or `--pods N` for a smoke-sized slice) and prints events/s, the
//!   per-shard memory-budget accounting, and the process peak RSS
//!   (`VmHWM` from `/proc/self/status`). CI gates `vm_hwm_kb` so the
//!   bounded-memory claim is enforced, not just documented.
//! - `--ab-pkt-telemetry` interleaves packet-level runs with the
//!   telemetry plane off vs fully on (per-shard lifecycle tracing,
//!   per-link health estimation, sampled event-cost profiling) and
//!   prints both medians plus the on/off ratio — the packet-engine
//!   sibling of `--ab-telemetry`, gated at ≥ 0.95 in CI. It also
//!   prints the sampled per-component cost shares from the profiling
//!   plane and appends them (with `pkt_telemetry_ratio`) as the run's
//!   history line, so the trajectory file records where event time
//!   goes, not just how much of it there is.
//! - `--ab-guardd` interleaves packet-level runs (health telemetry on
//!   both sides) with the guardian control plane off vs on: the "on"
//!   side additionally folds the run's health stream through an
//!   `lg-guardd` manager (canonical sort + ingest + journal), exactly
//!   what a `--guard-log` session does after a run. The median per-pair
//!   ratio is the guardian plane's whole-run throughput cost, gated at
//!   ≥ 0.95 in CI and appended (keyed `guardd_ratio`) to the history
//!   file.
//!
//! Usage: `cargo run --release -p lg-bench --bin world_guard
//! [--trials 300] [--reps 5] [--telemetry | --ab-telemetry |
//! --ab-shard | --ab-pkt-telemetry | --ab-guardd |
//! --rss] [--allocs | --allocs-shard] [--shards 4[,8,...]] [--pods N]
//! [--seed 42] [--horizon-us 2000] [--history PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lg_bench::arg;
use lg_fabric::{run_packet, PktFabricConfig, PktProfile, PktTelemetryConfig};
use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{App, World, WorldConfig};
use lg_transport::CcVariant;
use linkguardian::LgConfig;

/// Allocation-counting shim over the system allocator. Always installed
/// in this binary: one relaxed fetch_add per allocation is far below the
/// noise floor of the throughput numbers, and it lets `--allocs` measure
/// the exact same process that produced them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fig10_world(trials: u32, telemetry: bool) -> World {
    let speed = LinkSpeed::G100;
    let loss = LossModel::Iid { rate: 1e-3 };
    let mut cfg = WorldConfig::new(speed, loss);
    cfg.lg = Some(LgConfig::for_speed(speed, 1e-3));
    cfg.seed = 10;
    cfg.app = App::TcpTrials {
        variant: CcVariant::Dctcp,
        msg_len: 143,
        trials,
        gap: Duration::from_us(10),
    };
    if telemetry {
        // 4x finer than the finest interval any experiment binary
        // actually uses (table3_wharf samples at 2 ms), so the gate
        // binds with margin without turning into a microbenchmark of
        // tick frequency: this world is sparse (~0.7 events/us of sim
        // time), so an unrealistically fine interval would measure how
        // often the sampler runs, not what sampling costs.
        cfg.sample_interval = Some(Duration::from_us(500));
    }
    World::new(cfg)
}

/// `World::run_until`'s loop, counting events. The stop condition is the
/// FCT count, not queue exhaustion: under `--telemetry` the
/// self-rescheduling `Ev::Sample` keeps the queue non-empty.
fn run_counting(w: &mut World, trials: u32) -> u64 {
    let mut events = 0u64;
    while w.out.fct.len() as u32 != trials {
        let (now, ev) = w.q.pop().expect("trials still in flight");
        w.handle_pub(ev, now);
        events += 1;
    }
    events
}

/// One timed run; returns events per wall-clock second.
fn timed_rate(trials: u32, telemetry: bool) -> f64 {
    let mut w = fig10_world(trials, telemetry);
    let t0 = std::time::Instant::now();
    let events = run_counting(&mut w, trials);
    events as f64 / t0.elapsed().as_secs_f64()
}

/// Pod-scale packet-level config for the shard gates. Horizon is the
/// knob: 2 ms is the pod_scale default; CI can shorten it if runner
/// minutes matter more than measurement floor.
fn pkt_cfg(shards: u32, threads: usize, horizon_us: u64) -> PktFabricConfig {
    let mut cfg = PktFabricConfig::pod_scale(42);
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.horizon = Time::from_us(horizon_us);
    cfg
}

/// The fabric-scale preset for the `--rss` and `--allocs-shard` gates,
/// sliced to `pods` pods when nonzero (CI smoke size); `horizon_us` 0
/// keeps the preset horizon.
fn scale_cfg(
    seed: u64,
    pods: u32,
    shards: u32,
    threads: usize,
    horizon_us: u64,
) -> PktFabricConfig {
    let mut cfg = PktFabricConfig::fabric_scale(seed);
    if pods > 0 {
        cfg.geom.pods = pods;
    }
    cfg.shards = shards;
    cfg.threads = threads;
    if horizon_us > 0 {
        cfg.horizon = Time::from_us(horizon_us);
    }
    cfg
}

/// One timed packet-level run; returns (events per wall-clock second,
/// events per run). The event count is layout-invariant by the
/// determinism contract, so it is printed once and checked exactly.
fn timed_pkt(cfg: &PktFabricConfig) -> (f64, u64) {
    let t0 = std::time::Instant::now();
    let r = run_packet(cfg);
    (
        r.totals.events as f64 / t0.elapsed().as_secs_f64(),
        r.totals.events,
    )
}

fn median(rates: &mut [f64]) -> f64 {
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    rates[rates.len() / 2]
}

/// Append one JSON line for an `--ab-shard` run. JSONL by hand: a few
/// numeric fields don't justify pulling serde into the binary, and
/// appending lines never rewrites history. A distinct field name
/// (`shard_speedup`) keys the line so each gate can `grep` its own
/// latest entry out of the shared trajectory file.
fn append_history_shard(
    path: &str,
    events_per_run: u64,
    events_per_sec: f64,
    shard_speedup: f64,
    shards: u32,
    threads: usize,
) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"unix_ts\":{ts},\"events_per_run\":{events_per_run},\
         \"events_per_sec\":{events_per_sec:.0},\"shard_speedup\":{shard_speedup:.4},\
         \"shards\":{shards},\"threads\":{threads}}}\n"
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = r {
        eprintln!("warning: could not append {path}: {e}");
    }
}

/// Append one JSON line for an `--ab-pkt-telemetry` run. Keyed by
/// `pkt_telemetry_ratio` so the packet-telemetry gate greps its own
/// latest entry; the per-kind cost shares ride along so the trajectory
/// file records where sampled event time went, not just the headline
/// ratio.
fn append_history_pkt_telemetry(
    path: &str,
    events_per_run: u64,
    events_per_sec: f64,
    ratio: f64,
    profile: &PktProfile,
) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let total_ns = profile.total_ns_all();
    let shares: String = PktProfile::KINDS
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let share = if total_ns > 0 {
                profile.total_ns[i] as f64 / total_ns as f64
            } else {
                0.0
            };
            format!(",\"profile_share_{kind}\":{share:.4}")
        })
        .collect();
    let line = format!(
        "{{\"unix_ts\":{ts},\"events_per_run\":{events_per_run},\
         \"events_per_sec\":{events_per_sec:.0},\"pkt_telemetry_ratio\":{ratio:.4},\
         \"profile_sampled\":{}{shares}}}\n",
        profile.sampled()
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = r {
        eprintln!("warning: could not append {path}: {e}");
    }
}

/// Append one JSON line for an `--ab-guardd` run. Keyed by
/// `guardd_ratio` so the guardian-plane gate greps its own latest
/// entry; the decision count rides along as the workload fingerprint.
fn append_history_guardd(
    path: &str,
    events_per_run: u64,
    events_per_sec: f64,
    ratio: f64,
    decisions: usize,
) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"unix_ts\":{ts},\"events_per_run\":{events_per_run},\
         \"events_per_sec\":{events_per_sec:.0},\"guardd_ratio\":{ratio:.4},\
         \"guardd_decisions\":{decisions}}}\n"
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = r {
        eprintln!("warning: could not append {path}: {e}");
    }
}

/// Append one JSON line for an `--rss` run. Keyed by `vm_hwm_kb` +
/// `scale_links` so the memory gate greps its own latest entry.
fn append_history_rss(
    path: &str,
    scale_links: u32,
    events_per_run: u64,
    events_per_sec: f64,
    vm_hwm_kb: u64,
) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"unix_ts\":{ts},\"scale_links\":{scale_links},\"events_per_run\":{events_per_run},\
         \"events_per_sec\":{events_per_sec:.0},\"vm_hwm_kb\":{vm_hwm_kb}}}\n"
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = r {
        eprintln!("warning: could not append {path}: {e}");
    }
}

/// Peak resident set size of this process in KiB, from the kernel's
/// `VmHWM` line in `/proc/self/status`. `None` off Linux or on a parse
/// failure — the caller reports 0 rather than inventing a number.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn main() {
    let trials: u32 = arg("--trials", 300);
    let reps: usize = arg("--reps", 5).max(1);
    let history: String = arg("--history", String::new());
    // `--telemetry` turns on 100 µs sampling: the streaming bank, the
    // health estimator, and the probes all run per tick. The sink (full
    // registry snapshots + end-of-run dump) stays off — that is the
    // `--metrics-out` path, not the steady-state telemetry cost this
    // gate guards.
    let telemetry = lg_bench::flag("--telemetry");
    if lg_bench::flag("--ab-telemetry") {
        // Interleaved A/B: baseline rep, telemetry rep, repeat. Both
        // sides see the same slice of machine noise, so the *ratio* is
        // trustworthy even when absolute rates drift between reps. The
        // pair order flips every rep so monotone drift (thermal ramp,
        // background load building up) cancels instead of always
        // penalizing whichever side runs second.
        run_counting(&mut fig10_world(trials, true), trials); // warm-up
        let (mut base, mut tele, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..reps {
            let (b, t) = if i % 2 == 0 {
                let b = timed_rate(trials, false);
                (b, timed_rate(trials, true))
            } else {
                let t = timed_rate(trials, true);
                (timed_rate(trials, false), t)
            };
            base.push(b);
            tele.push(t);
            // Per-pair ratio: the two runs of a pair are adjacent in
            // time, so they see nearly the same machine state and their
            // ratio is far tighter than the ratio of the two medians.
            ratios.push(t / b);
        }
        let (b, t) = (median(&mut base), median(&mut tele));
        println!("events_per_sec_baseline: {b:.0}");
        println!("events_per_sec_telemetry: {t:.0}");
        println!("telemetry_ratio: {:.4}", median(&mut ratios));
        return;
    }
    if lg_bench::flag("--ab-shard") {
        // Interleaved A/B of the packet-level fabric: serial layout
        // (shards=1, threads=1) vs sharded layout (shards=N, workers
        // capped at available parallelism). Same flip-the-pair-order
        // protocol as `--ab-telemetry`; the ratio is the honest
        // within-process scaling of the shard runner on this machine.
        // `--shards` is a comma list; each layout gets the complete
        // protocol (warm-up, determinism check, interleaved reps) and
        // its own output block + history line.
        let shard_list: String = arg("--shards", "4".to_string());
        let horizon_us: u64 = arg("--horizon-us", 2000);
        let layouts: Vec<u32> = shard_list
            .split(',')
            .map(|s| match s.trim().parse::<u32>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("error: invalid value for --shards: {s:?}");
                    std::process::exit(2);
                }
            })
            .collect();
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial_cfg = pkt_cfg(1, 1, horizon_us);
        for (li, &shards) in layouts.iter().enumerate() {
            if li > 0 {
                println!();
            }
            let threads = (shards as usize).min(hw);
            let sharded_cfg = pkt_cfg(shards, threads, horizon_us);
            // Warm-up doubles as the event-count calibration; the count
            // is layout-invariant, so asserting it across both configs
            // is a cheap end-to-end determinism check inside the gate.
            let (_, ev_serial) = timed_pkt(&serial_cfg);
            let (_, ev_sharded) = timed_pkt(&sharded_cfg);
            assert_eq!(
                ev_serial, ev_sharded,
                "sharded layout changed the event count — determinism bug"
            );
            let (mut ser, mut shd, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..reps {
                let (s, p) = if i % 2 == 0 {
                    let s = timed_pkt(&serial_cfg).0;
                    (s, timed_pkt(&sharded_cfg).0)
                } else {
                    let p = timed_pkt(&sharded_cfg).0;
                    (timed_pkt(&serial_cfg).0, p)
                };
                ser.push(s);
                shd.push(p);
                ratios.push(p / s);
            }
            let (s, p) = (median(&mut ser), median(&mut shd));
            let speedup = median(&mut ratios);
            println!("events_per_run: {ev_serial}");
            println!("hw_threads: {hw}");
            println!("shards: {shards}");
            println!("worker_threads: {threads}");
            println!("events_per_sec_serial: {s:.0}");
            println!("events_per_sec_sharded: {p:.0}");
            println!("shard_speedup: {speedup:.4}");
            if hw < shards as usize {
                println!(
                    "note: machine exposes {hw} hardware thread(s) for {shards} shards; \
                     speedup is bounded by the hardware, not the runner"
                );
            }
            if !history.is_empty() {
                append_history_shard(&history, ev_serial, p, speedup, shards, threads);
            }
        }
        return;
    }
    if lg_bench::flag("--ab-pkt-telemetry") {
        // Packet-engine sibling of `--ab-telemetry`: interleave runs of
        // the same pod-scale packet fabric with the telemetry plane off
        // vs fully on (per-shard lifecycle tracing + per-link health
        // estimation + sampled profiling). Same flip-the-pair-order
        // protocol; CI gates the median per-pair ratio at ≥ 0.95.
        let shards: u32 = arg("--shards", 4);
        let horizon_us: u64 = arg("--horizon-us", 2000);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = (shards as usize).min(hw);
        let base_cfg = pkt_cfg(shards, threads, horizon_us);
        let mut tele_cfg = base_cfg.clone();
        tele_cfg.telemetry = PktTelemetryConfig {
            trace: true,
            trace_cap: 0,
            health: Some(PktTelemetryConfig::packet_health()),
            profile: true,
        };
        // Warm-up doubles as the purely-observational check: the event
        // count must be identical with the telemetry plane on, and the
        // telemetry-on run supplies the profiling rollup below.
        let (_, ev_off) = timed_pkt(&base_cfg);
        let r_on = run_packet(&tele_cfg);
        assert_eq!(
            ev_off, r_on.totals.events,
            "telemetry changed the event count — observational-purity bug"
        );
        let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..reps {
            let (o, t) = if i % 2 == 0 {
                let o = timed_pkt(&base_cfg).0;
                (o, timed_pkt(&tele_cfg).0)
            } else {
                let t = timed_pkt(&tele_cfg).0;
                (timed_pkt(&base_cfg).0, t)
            };
            off.push(o);
            on.push(t);
            ratios.push(t / o);
        }
        let (o, t) = (median(&mut off), median(&mut on));
        let ratio = median(&mut ratios);
        println!("events_per_run: {ev_off}");
        println!("shards: {shards}");
        println!("worker_threads: {threads}");
        println!("events_per_sec_pkt_baseline: {o:.0}");
        println!("events_per_sec_pkt_telemetry: {t:.0}");
        println!("pkt_telemetry_ratio: {ratio:.4}");
        // Profiling rollup: where the sampled event time went, by kind.
        // Shares of attributed nanoseconds, not of event counts, so a
        // rare-but-expensive kind still shows up.
        let total_ns = r_on.profile.total_ns_all();
        println!("profile_sampled: {}", r_on.profile.sampled());
        for (i, kind) in PktProfile::KINDS.iter().enumerate() {
            let share = if total_ns > 0 {
                r_on.profile.total_ns[i] as f64 / total_ns as f64
            } else {
                0.0
            };
            println!("profile_share_{kind}: {share:.4}");
        }
        if !history.is_empty() {
            append_history_pkt_telemetry(&history, ev_off, t, ratio, &r_on.profile);
        }
        return;
    }
    if lg_bench::flag("--ab-guardd") {
        // Guardian-plane sibling of `--ab-pkt-telemetry`: both sides run
        // the identical pod-scale packet fabric with per-link health
        // estimation on; the "on" side additionally folds the health
        // stream through an `lg-guardd` manager, the same replay a
        // `--guard-log` session performs. Flip-the-pair-order protocol;
        // CI gates the median per-pair ratio at ≥ 0.95.
        let shards: u32 = arg("--shards", 4);
        let horizon_us: u64 = arg("--horizon-us", 2000);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = (shards as usize).min(hw);
        let mut cfg = pkt_cfg(shards, threads, horizon_us);
        cfg.telemetry.health = Some(PktTelemetryConfig::packet_health());
        let timed_off = |cfg: &PktFabricConfig| timed_pkt(cfg).0;
        let timed_on = |cfg: &PktFabricConfig| -> (f64, u64, usize) {
            let t0 = std::time::Instant::now();
            let r = run_packet(cfg);
            let mut feed: Vec<lg_guardd::GuardInput> = r
                .health
                .iter()
                .map(|(link, ev)| lg_guardd::GuardInput::from_health_event(*link, ev))
                .collect();
            lg_guardd::canonical_sort(&mut feed);
            let mut mgr = lg_guardd::GuardManager::new("ab", lg_guardd::GuardConfig::default());
            for ev in &feed {
                mgr.ingest(*ev);
            }
            let decisions = mgr.take_journal().len();
            (
                r.totals.events as f64 / t0.elapsed().as_secs_f64(),
                r.totals.events,
                decisions,
            )
        };
        // Warm-up doubles as the purely-observational check: the
        // guardian fold runs after the simulation, so the event count
        // must be identical on both sides.
        let (_, ev_off) = timed_pkt(&cfg);
        let (_, ev_on, decisions) = timed_on(&cfg);
        assert_eq!(
            ev_off, ev_on,
            "guardian plane changed the event count — observational-purity bug"
        );
        let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..reps {
            let (o, g) = if i % 2 == 0 {
                let o = timed_off(&cfg);
                (o, timed_on(&cfg).0)
            } else {
                let g = timed_on(&cfg).0;
                (timed_off(&cfg), g)
            };
            off.push(o);
            on.push(g);
            ratios.push(g / o);
        }
        let (o, g) = (median(&mut off), median(&mut on));
        let ratio = median(&mut ratios);
        println!("events_per_run: {ev_off}");
        println!("shards: {shards}");
        println!("worker_threads: {threads}");
        println!("guardd_decisions: {decisions}");
        println!("events_per_sec_guardd_off: {o:.0}");
        println!("events_per_sec_guardd_on: {g:.0}");
        println!("guardd_ratio: {ratio:.4}");
        if !history.is_empty() {
            append_history_guardd(&history, ev_off, g, ratio, decisions);
        }
        return;
    }
    if lg_bench::flag("--rss") {
        // Fabric-scale memory gate: one run of the scale preset, peak
        // RSS from the kernel's own high-water mark. A single run is
        // the honest measurement here — VmHWM is monotone across the
        // process lifetime, so reps could only inflate it.
        let shards: u32 = arg("--shards", 8);
        let threads: usize = arg("--threads", shards as usize);
        let cfg = scale_cfg(
            arg("--seed", 42),
            arg("--pods", 0),
            shards,
            threads,
            arg("--horizon-us", 0),
        );
        let links = cfg.geom.n_links();
        let t0 = std::time::Instant::now();
        let r = run_packet(&cfg);
        let rate = r.totals.events as f64 / t0.elapsed().as_secs_f64();
        let hwm_kb = vm_hwm_kb().unwrap_or_else(|| {
            eprintln!("warning: could not read VmHWM from /proc/self/status");
            0
        });
        println!("scale_links: {links}");
        println!("shards: {shards}");
        println!("worker_threads: {threads}");
        println!("events_per_run: {}", r.totals.events);
        println!("events_per_sec: {rate:.0}");
        println!("flows_completed: {}", r.totals.flows_completed);
        println!("overflow_drops: {}", r.totals.overflow_drops);
        println!("budget_limit_bytes: {}", r.mem.limit_bytes);
        println!("budget_hwm_bytes: {}", r.mem.hwm_bytes);
        println!("budget_denials: {}", r.mem.denials);
        println!("vm_hwm_kb: {hwm_kb}");
        if !history.is_empty() {
            append_history_rss(&history, links, r.totals.events, rate, hwm_kb);
        }
        return;
    }
    if lg_bench::flag("--allocs-shard") {
        // Sharded sibling of `--allocs`: the packet-level run on the
        // serial path (threads=1 never spawns workers, so thread-stack
        // and channel allocations cannot pollute the count) with a
        // 4-shard layout, so per-shard queues/arenas/mailboxes are all
        // live. Construction is excluded the same way: first run eats
        // first-touch growth, second run on a fresh fabric measures the
        // loop alone. `--pods N`: an N-pod slice of the fabric-scale
        // preset instead (see the module docs).
        let shards: u32 = arg("--shards", 4);
        let horizon_us: u64 = arg("--horizon-us", 2000);
        let pods: u32 = arg("--pods", 0);
        let cfg = if pods > 0 {
            scale_cfg(42, pods, shards, 1, horizon_us)
        } else {
            pkt_cfg(shards, 1, horizon_us)
        };
        let mut f = lg_fabric::PktFabric::new(&cfg);
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let stats = f.run();
        let first_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
        let events_per_run = f.collect(stats).totals.events;
        let mut f = lg_fabric::PktFabric::new(&cfg);
        let a1 = ALLOCS.load(Ordering::Relaxed);
        let stats = f.run();
        let loop_allocs = ALLOCS.load(Ordering::Relaxed) - a1;
        let events = f.collect(stats).totals.events;
        let per_event = loop_allocs as f64 / events as f64;
        println!("events_per_run: {events_per_run}");
        println!("first_run_allocs: {first_allocs}");
        println!("steady_state_allocs: {loop_allocs}");
        println!("allocs_per_event: {per_event:.6}");
        return;
    }
    if lg_bench::flag("--allocs") {
        // Allocation regression gate. Warm-up run excluded: World::new
        // and first-touch growth of pools/lanes/scratch may allocate;
        // the steady-state loop must not. Each rep constructs a fresh
        // World, so per-rep setup allocations are measured and divided
        // out by using the warm-up to size an allowance: we count only
        // the delta beyond one construction's worth per rep.
        let mut w = fig10_world(trials, telemetry);
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let events_per_run = run_counting(&mut w, trials);
        let run_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
        drop(w);
        // Second run on a fresh world: construction allocates, but the
        // dispatch loop has no first-touch growth left to hide behind —
        // every lane and scratch buffer size was already exercised.
        // Measure only the loop.
        let mut w = fig10_world(trials, telemetry);
        let a1 = ALLOCS.load(Ordering::Relaxed);
        let events = run_counting(&mut w, trials);
        let loop_allocs = ALLOCS.load(Ordering::Relaxed) - a1;
        let per_event = loop_allocs as f64 / events as f64;
        println!("events_per_run: {events_per_run}");
        println!("first_run_allocs: {run_allocs}");
        println!("steady_state_allocs: {loop_allocs}");
        println!("allocs_per_event: {per_event:.6}");
        return;
    }
    // Warm-up run (also calibrates the per-run event count).
    let events_per_run = run_counting(&mut fig10_world(trials, telemetry), trials);
    let mut rates: Vec<f64> = (0..reps).map(|_| timed_rate(trials, telemetry)).collect();
    let median = median(&mut rates);
    println!("events_per_run: {events_per_run}");
    println!("events_per_sec: {median:.0}");
}
