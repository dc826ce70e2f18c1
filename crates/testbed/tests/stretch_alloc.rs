//! A computed stretch allocates nothing (DESIGN.md §23): its marks, the
//! host1 arrivals it consumes, the late frames it files and the queue's
//! translation all reuse buffers the world and its queue keep. A
//! computed batch of trials allocates only what the FCT samples and the
//! traces it records grow by, on either testbed loop.
//!
//! One test per binary: the counting allocator sees every thread.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::experiments::{fct_config, FctTransport};
use lg_testbed::{ChainApp, ChainConfig, ChainWorld, Protection, World, WorldConfig};
use lg_transport::CcVariant;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn stretches_allocate_nothing_after_warm_up() {
    stress_stretches();
    trial_batches();
    chain_batches();
}

fn stress_stretches() {
    // `testbed_stress`: 100 G, LinkGuardian ordered, iid 1e-3, seed 1.
    let mut w = World::new(WorldConfig::new(
        LinkSpeed::G100,
        LossModel::Iid { rate: 1e-3 },
    ));
    w.enable_stress(1518);
    let warm = Time::ZERO + Duration::from_ms(2);
    w.run_until(warm);
    let (before, census) = (ALLOCS.load(Ordering::Relaxed), w.stretch_census());
    w.run_until(warm + Duration::from_ms(20));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let ran = w.stretch_census().stretches - census.stretches;
    assert!(ran > 100, "only {ran} stretches ran");
    assert_eq!(allocs, 0, "{allocs} allocations across {ran} stretches");
}

/// Allocations a vector growing from `before` to `after` elements can
/// make: each at least doubles its capacity.
fn growth(before: usize, after: usize) -> u64 {
    u64::from((after / before.max(1)).max(1).ilog2()) + 2
}

/// A drop every 50th forward frame: at 143 B, one every ≈25 trials.
fn cuts() -> LossModel {
    LossModel::Trace {
        drops: (1..200).map(|i| i * 50).collect(),
    }
}

fn trial_batches() {
    // A 143 B DCTCP series whose forward link drops a frame every ≈25
    // trials: each recovered loss cuts a batch, so batches alternate
    // with the trials that run as events.
    let cfg = fct_config(
        LinkSpeed::G100,
        cuts(),
        Protection::Lg,
        FctTransport::Tcp(CcVariant::Dctcp),
        143,
        2_000,
        1,
    );
    let mut w = World::new(cfg);
    w.run_until(Time::ZERO + Duration::from_ms(4));
    let census = w.stretch_census();
    let lens = |w: &World| (w.out.fct.len(), w.out.tcp_traces.len());
    let (before, at) = (lens(&w), ALLOCS.load(Ordering::Relaxed));
    w.run_until(Time::ZERO + Duration::from_ms(40));
    let allocs = ALLOCS.load(Ordering::Relaxed) - at;
    let after = lens(&w);
    let batches = w.stretch_census().batches - census.batches;
    assert!(batches > 20, "only {batches} batches ran");
    let grown = growth(before.0, after.0) + growth(before.1, after.1);
    assert!(
        allocs <= grown,
        "{allocs} allocations across {batches} batches, samples {before:?} -> {after:?}"
    );
}

fn chain_batches() {
    // The same series across three protected hops, the first one cut
    // alike: every hop's pair, switch and link is marked, compared and
    // advanced per batch.
    let cfg = ChainConfig::protected_chain(
        LinkSpeed::G100,
        vec![cuts(), LossModel::None, LossModel::None],
        ChainApp::TcpTrials {
            variant: CcVariant::Dctcp,
            msg_len: 143,
            trials: 2_000,
        },
    );
    let mut w = ChainWorld::new(cfg);
    w.run_until(Time::ZERO + Duration::from_ms(4));
    let census = w.stretch_census();
    let (before, at) = (w.fct.len(), ALLOCS.load(Ordering::Relaxed));
    w.run_until(Time::ZERO + Duration::from_ms(40));
    let allocs = ALLOCS.load(Ordering::Relaxed) - at;
    let after = w.fct.len();
    let batches = w.stretch_census().batches - census.batches;
    assert!(batches > 20, "only {batches} batches ran");
    assert!(
        allocs <= growth(before, after),
        "{allocs} allocations across {batches} batches, samples {before} -> {after}"
    );
}
