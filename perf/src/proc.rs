//! Process-level measurements read from `/proc`, plus the counting
//! allocator behind `proc.allocs_per_kevent`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation-counting shim over the system allocator. One relaxed
/// `fetch_add` per allocation is far below the noise floor of the
/// throughput numbers, so it stays installed in untraced runs too and
/// both run kinds measure the same binary.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Nanoseconds the two halves of one reference chunk take on the
/// machine the first result was recorded on, in its usual state. Only
/// ratios of normalised values between two commits on one machine
/// matter, so any constants would do; these keep normalised values near
/// raw ones.
const WALK_NOMINAL_NS: f64 = 2_900_000.0;
const HEAP_NOMINAL_NS: f64 = 2_830_000.0;

/// Reference half one: dependent loads over a 1 MiB table mixed with
/// integer arithmetic — the part of a simulator that waits for its
/// caches.
fn reference_walk(table: &[u64]) -> f64 {
    let mask = table.len() - 1;
    let t0 = std::time::Instant::now();
    let mut x = 1u64;
    for _ in 0..400_000u32 {
        x = table[(x as usize) & mask] ^ x.rotate_left(13).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64
}

/// Reference half two: a 32-entry binary heap popped and refilled with
/// data-dependent branches in between — the part of an event loop that
/// is bound by the core, not the caches.
fn reference_heap(table: &[u64]) -> f64 {
    use std::cmp::Reverse;
    let t0 = std::time::Instant::now();
    let mut heap: std::collections::BinaryHeap<Reverse<u64>> =
        (0..32u64).map(|i| Reverse(i * 977)).collect();
    let (mut x, mut acc) = (88_172_645_463_325_252u64, 0u64);
    for _ in 0..150_000u32 {
        let Reverse(t) = heap.pop().expect("standing population");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(t);
        } else if x & 4 == 0 {
            acc ^= table[(x as usize) & 0x3fff];
        }
        heap.push(Reverse(t + 1 + (x & 0xfff)));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// How fast the processor is right now relative to nominal: above 1
/// when it runs faster. Multiply a duration measured next to this call
/// by it to get the duration at nominal speed.
///
/// The sandbox's processor speed drifts by tens of percent over seconds
/// to minutes (frequency steps, neighbours on the host), far more than
/// any bound a regression check could use, so a fixed reference kernel
/// is timed beside every rep and the drift divided out. The kernel has
/// a cache-bound half and a core-bound half, because the disturbance
/// does not slow the two alike: measured against all seven workloads
/// over ten runs each, a cache walk alone over-corrects them (they slow
/// 0.5–0.8 % per 1 % of the walk) and a core-bound loop alone
/// under-corrects (1.3–1.7 %); the simulators sit between, and the
/// geometric mean of the two tracks them best. Five chunks, median
/// taken, so one interrupt does not read as a slow machine.
pub fn speed_now() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..1usize << 17)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    });
    let mut chunks = [0f64; 5];
    for c in &mut chunks {
        let walk = WALK_NOMINAL_NS / reference_walk(table).max(1.0);
        let heap = HEAP_NOMINAL_NS / reference_heap(table).max(1.0);
        *c = (walk * heap).sqrt();
    }
    crate::stats::median(&chunks)
}

/// On-CPU nanoseconds from one `schedstat` document: the first of its
/// three whitespace-separated fields.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of every live thread of this process, summed over
/// `/proc/self/task/*/schedstat`. Threads that already exited are not
/// counted, so callers measuring multi-threaded regions read
/// [`process_cpu_ticks_ns`] instead. `None` when `/proc` is unreadable.
pub fn cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread can exit between readdir and read; skip it.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += parse_schedstat(&text)?;
        }
    }
    Some(total)
}

/// `utime + stime` of a `/proc/<pid>/stat` document, in clock ticks.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process-wide CPU time including exited threads, at the kernel's
/// 10 ms tick resolution (USER_HZ is 100 on every Linux ABI).
pub fn process_cpu_ticks_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_ticks(&text)? * 10_000_000)
}

/// A `kB` field of a `/proc/<pid>/status` document.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn vm_hwm_kb() -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn schedstat_reader_sees_this_thread_burn_cpu() {
        let before = cpu_ns().expect("/proc/self/task readable");
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = cpu_ns().expect("/proc/self/task readable");
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let line = "42 (a b) c)) R 1 1 1 0 -1 4194304 100 0 0 0 7 5 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_ticks(line), Some(12));
        assert_eq!(parse_stat_ticks("no paren"), None);
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let doc = "Name:\tx\nVmHWM:\t  106904 kB\nVmRSS:\t    512 kB\n";
        assert_eq!(parse_status_kb(doc, "VmHWM"), Some(106_904));
        assert_eq!(parse_status_kb(doc, "VmRSS"), Some(512));
        assert_eq!(parse_status_kb(doc, "VmSwap"), None);
        assert!(vm_hwm_kb().expect("VmHWM present") > 0);
    }
}
