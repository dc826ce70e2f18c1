//! Shared memory budget for packet buffers (per world or per shard).
//!
//! Follows the arti `tor-memquota` idiom: one shared quota covers every
//! participating buffer (egress queues, LinkGuardian tx/rx recirculation
//! buffers, packet-fabric egress cells), each buffer charges the quota
//! before accepting bytes and releases on departure, and exceeding the
//! quota fails *gracefully* — the enqueue is refused exactly like a full
//! queue (drop-tail or overflow), never an allocation beyond the cap.
//! High-water-mark and denial counters make the pressure observable
//! after the fact.
//!
//! Lives in `lg-obs` (the dependency-free bottom of the crate graph) so
//! the testbed switch buffers (`lg-switch`), LinkGuardian's recirculation
//! buffers (`linkguardian`) and the sharded packet fabric (`lg-fabric`)
//! can all name this one type without a dependency cycle.
//!
//! Counters are relaxed atomics rather than `Cell`s only so the holder
//! stays `Send` for the experiment harness's thread fan-out (each world
//! or shard owns its budget; there is no cross-thread contention to
//! order).

use crate::{MetricSink, Observe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

struct BudgetInner {
    limit: u64,
    used: AtomicU64,
    high_watermark: AtomicU64,
    denials: AtomicU64,
}

/// A shared byte quota. Clones refer to the same quota, so one budget
/// can bound the sum of many buffers' occupancy.
#[derive(Clone)]
pub struct MemBudget {
    inner: Arc<BudgetInner>,
}

impl std::fmt::Debug for MemBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemBudget")
            .field("limit", &self.inner.limit)
            .field("used", &self.used())
            .field("high_watermark", &self.high_watermark())
            .field("denials", &self.denials())
            .finish()
    }
}

impl MemBudget {
    /// A budget capping total charged bytes at `limit`.
    pub fn new(limit: u64) -> MemBudget {
        MemBudget {
            inner: Arc::new(BudgetInner {
                limit,
                used: AtomicU64::new(0),
                high_watermark: AtomicU64::new(0),
                denials: AtomicU64::new(0),
            }),
        }
    }

    /// Charge `bytes` against the quota. Returns false — and counts a
    /// denial — if the charge would exceed the limit; the caller must
    /// then refuse the bytes (drop-tail / overflow), not store them.
    #[must_use]
    pub fn try_charge(&self, bytes: u64) -> bool {
        let used = self.inner.used.load(Relaxed);
        let new = used + bytes;
        if new > self.inner.limit {
            self.inner.denials.fetch_add(1, Relaxed);
            return false;
        }
        self.inner.used.store(new, Relaxed);
        if new > self.inner.high_watermark.load(Relaxed) {
            self.inner.high_watermark.store(new, Relaxed);
        }
        true
    }

    /// Return `bytes` to the quota (on dequeue / departure).
    pub fn release(&self, bytes: u64) {
        let used = self.inner.used.load(Relaxed);
        debug_assert!(used >= bytes, "budget release underflow");
        self.inner.used.store(used.saturating_sub(bytes), Relaxed);
    }

    /// The byte limit.
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Relaxed)
    }

    /// Peak bytes ever charged.
    pub fn high_watermark(&self) -> u64 {
        self.inner.high_watermark.load(Relaxed)
    }

    /// Charges refused because they would exceed the limit.
    pub fn denials(&self) -> u64 {
        self.inner.denials.load(Relaxed)
    }
}

impl Observe for MemBudget {
    fn observe(&self, m: &mut MetricSink) {
        m.gauge("limit", self.limit());
        m.gauge("used", self.used());
        m.gauge("high_watermark", self.high_watermark());
        m.counter("denials", self.denials());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_high_watermark() {
        let b = MemBudget::new(1000);
        assert!(b.try_charge(400));
        assert!(b.try_charge(600));
        assert_eq!(b.used(), 1000);
        assert!(!b.try_charge(1), "at the limit: refused");
        assert_eq!(b.denials(), 1);
        b.release(600);
        assert_eq!(b.used(), 400);
        assert!(b.try_charge(100));
        assert_eq!(b.high_watermark(), 1000, "peak persists across release");
    }

    #[test]
    fn clones_share_the_quota() {
        let a = MemBudget::new(500);
        let b = a.clone();
        assert!(a.try_charge(300));
        assert!(!b.try_charge(300), "clone sees the same usage");
        b.release(300);
        assert!(b.try_charge(500));
        assert_eq!(a.used(), 500);
    }
}
