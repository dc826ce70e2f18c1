//! Slab-backed packet pool with generation-checked handles.
//!
//! The simulation's hot path moves packets between switch queues, the
//! LinkGuardian recirculation buffers and the event queue. Passing owned
//! [`Packet`]s around means a ~130-byte memcpy per hand-off and a deep
//! clone wherever two parties need the same packet (the LG sender's
//! egress mirror, the n-copies retransmit burst). The pool replaces all
//! of that with 8-byte [`PktId`] handles into a slab, mirroring the
//! event-arena pattern in `lg-sim`'s scheduler:
//!
//! * slots are recycled through a free list — steady state allocates
//!   nothing;
//! * each slot carries a **generation** bumped on final release, so a
//!   stale handle held past its packet's lifetime panics loudly instead
//!   of silently aliasing a reused slot;
//! * slots are **reference counted**: [`PacketPool::retain`] lets the LG
//!   sender's tx-buffer mirror and the n-copies retransmit path share
//!   one buffer, and [`PacketPool::cow`] gives a writer its own copy
//!   only when the slot is actually shared.
//!
//! Determinism contract: the pool never touches [`Packet::uid`] or any
//! RNG — [`PacketPool::cow`] clones the packet bit-for-bit (uid
//! included), exactly like the deep clones it replaces, so slot reuse is
//! invisible to the simulation's observable behavior.

use crate::packet::Packet;

/// Generation-checked handle to a pooled [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktId {
    idx: u32,
    gen: u32,
}

impl PktId {
    /// The slot index behind this handle. Trace records store it in their
    /// `aux` field so a stale-handle panic can reconstruct the slot's
    /// recent history (see `lg_obs::postmortem::slot_history`).
    pub fn index(self) -> u32 {
        self.idx
    }
}

/// Invariant trip: dump the slot's recent trace history (when tracing is
/// on) before panicking with the stale-handle diagnostics.
#[cold]
#[inline(never)]
fn stale_handle(id: PktId, slot_gen: u32) -> ! {
    lg_obs::postmortem::eprint_for_slot(id.idx);
    panic!(
        "stale PktId {{idx: {}, gen: {}}} (slot gen {})",
        id.idx, id.gen, slot_gen
    );
}

#[derive(Debug)]
struct Slot {
    pkt: Option<Packet>,
    gen: u32,
    rc: u32,
}

/// A slab of packets addressed by [`PktId`] handles.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> PacketPool {
        PacketPool::default()
    }

    /// An empty pool with room for `n` packets before regrowing.
    pub fn with_capacity(n: usize) -> PacketPool {
        PacketPool {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            live: 0,
        }
    }

    /// Insert a packet, returning its handle (refcount 1).
    pub fn insert(&mut self, pkt: Packet) -> PktId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.pkt.is_none() && slot.rc == 0);
            slot.pkt = Some(pkt);
            slot.rc = 1;
            PktId { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("pool index fits u32");
            self.slots.push(Slot {
                pkt: Some(pkt),
                gen: 0,
                rc: 1,
            });
            PktId { idx, gen: 0 }
        }
    }

    fn slot(&self, id: PktId) -> &Slot {
        let slot = &self.slots[id.idx as usize];
        if slot.gen != id.gen || slot.pkt.is_none() {
            stale_handle(id, slot.gen);
        }
        slot
    }

    fn slot_mut(&mut self, id: PktId) -> &mut Slot {
        let slot = &mut self.slots[id.idx as usize];
        if slot.gen != id.gen || slot.pkt.is_none() {
            stale_handle(id, slot.gen);
        }
        slot
    }

    /// Borrow the packet behind `id`. Panics on a stale handle.
    pub fn get(&self, id: PktId) -> &Packet {
        self.slot(id).pkt.as_ref().expect("checked in slot()")
    }

    /// Mutably borrow the packet behind `id`. Panics on a stale handle.
    ///
    /// Mutating a *shared* slot would be visible through every other
    /// handle — callers that may hold a shared slot go through [`cow`]
    /// first; this debug-asserts they did.
    ///
    /// [`cow`]: PacketPool::cow
    pub fn get_mut(&mut self, id: PktId) -> &mut Packet {
        let slot = self.slot_mut(id);
        debug_assert_eq!(slot.rc, 1, "get_mut on a shared slot — cow() first");
        slot.pkt.as_mut().expect("checked in slot_mut()")
    }

    /// Add one reference to `id`'s slot (sharing, not copying).
    pub fn retain(&mut self, id: PktId) {
        self.slot_mut(id).rc += 1;
    }

    /// Drop one reference; the slot is freed (and its generation bumped)
    /// when the last reference goes.
    pub fn release(&mut self, id: PktId) {
        let idx = id.idx;
        let slot = self.slot_mut(id);
        slot.rc -= 1;
        if slot.rc == 0 {
            slot.pkt = None;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// Copy-on-write: returns a handle whose slot is exclusively owned.
    ///
    /// When `id` is unshared it is returned as-is (no copy); when shared,
    /// one reference is dropped and the packet is cloned — uid included —
    /// into a fresh slot, exactly like the deep clone this replaces.
    pub fn cow(&mut self, id: PktId) -> PktId {
        let slot = self.slot_mut(id);
        if slot.rc == 1 {
            return id;
        }
        slot.rc -= 1; // still ≥1: the slot stays live for the other holders
        let copy = slot.pkt.as_ref().expect("checked in slot_mut()").clone();
        self.insert(copy)
    }

    /// Apply `f` to every live packet once, shared slots included.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut Packet)) {
        self.slots
            .iter_mut()
            .filter_map(|s| s.pkt.as_mut())
            .for_each(&mut f);
    }

    /// Visit every live packet with its slot index ([`PktId::index`]),
    /// in index order, shared or not.
    pub fn for_each_indexed_mut(&mut self, mut f: impl FnMut(u32, &mut Packet)) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(p) = s.pkt.as_mut() {
                f(i as u32, p);
            }
        }
    }

    /// Current reference count of `id`'s slot.
    pub fn refcount(&self, id: PktId) -> u32 {
        self.slot(id).rc
    }

    /// Number of live (referenced) packets — the leak-check observable.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True when no packet is live.
    pub fn is_drained(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free-listed).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Packet};
    use lg_sim::Time;

    fn pkt(len: u32) -> Packet {
        Packet::raw(NodeId(0), NodeId(1), len, Time::ZERO)
    }

    #[test]
    fn insert_get_release_reuses_slots() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(100));
        let b = pool.insert(pkt(200));
        assert_eq!(pool.get(a).frame_len(), 100);
        assert_eq!(pool.get(b).frame_len(), 200);
        assert_eq!(pool.live(), 2);
        pool.release(a);
        assert_eq!(pool.live(), 1);
        // freed slot is recycled with a new generation
        let c = pool.insert(pkt(300));
        assert_eq!(pool.slot_count(), 2, "no new slot allocated");
        assert_eq!(pool.get(c).frame_len(), 300);
        pool.release(b);
        pool.release(c);
        assert!(pool.is_drained());
    }

    #[test]
    #[should_panic(expected = "stale PktId")]
    fn stale_handle_panics_after_slot_reuse() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(100));
        pool.release(a);
        let _b = pool.insert(pkt(200)); // reuses a's slot, new generation
        let _ = pool.get(a); // must panic, not alias _b
    }

    #[test]
    #[should_panic(expected = "stale PktId")]
    fn double_release_panics() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(100));
        pool.release(a);
        pool.release(a);
    }

    #[test]
    fn retain_shares_one_buffer() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(100));
        pool.retain(a);
        pool.retain(a);
        assert_eq!(pool.refcount(a), 3);
        assert_eq!(pool.live(), 1, "three handles, one packet");
        pool.release(a);
        pool.release(a);
        assert_eq!(pool.get(a).frame_len(), 100, "still alive at rc 1");
        pool.release(a);
        assert!(pool.is_drained());
    }

    #[test]
    fn cow_is_noop_when_unshared_and_copies_when_shared() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(100));
        assert_eq!(pool.cow(a), a, "exclusive slot: no copy");
        pool.retain(a);
        let b = pool.cow(a);
        assert_ne!(b, a, "shared slot: fresh copy");
        assert_eq!(pool.refcount(a), 1);
        assert_eq!(pool.refcount(b), 1);
        // the copy preserves the uid (determinism contract)
        assert_eq!(pool.get(a).uid, pool.get(b).uid);
        // and is independent: mutating one leaves the other alone
        pool.get_mut(b).ecn = crate::Ecn::Ce;
        assert_ne!(pool.get(a).ecn, pool.get(b).ecn);
        pool.release(a);
        pool.release(b);
        assert!(pool.is_drained());
    }
}
