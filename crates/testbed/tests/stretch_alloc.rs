//! A computed stretch allocates nothing (DESIGN.md §23): its marks, the
//! host1 arrivals it consumes, the late frames it files and the queue's
//! translation all reuse buffers the world and its queue keep.
//!
//! One test per binary: the counting allocator sees every thread.

use lg_link::{LinkSpeed, LossModel};
use lg_sim::{Duration, Time};
use lg_testbed::{World, WorldConfig};
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
