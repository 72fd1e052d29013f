//! Lock-free fixed-size slab for per-connection reactor state.
//!
//! Accept and close are the FrontEnd's hot control-plane path; under a
//! reactor pool they race across threads. The indices of slots a `remove`
//! emptied live in a [`SlotStack`] — the workspace's one tagged Treiber
//! stack (Blelloch & Wei's constant-time fixed-size allocation) — and
//! slots never used are claimed in index order from a counter, so both
//! `insert` and `remove` are O(1) with no global lock, and the free list
//! grows only to the connections that were ever open at once.
//!
//! Each slot additionally carries a **generation** counter, bumped on
//! every `remove`: completion tokens `(slot, generation)` handed to the
//! scheduler stay valid identifiers even after the connection closes and
//! the slot is recycled — a stale completion simply fails the generation
//! check and is dropped instead of writing into someone else's connection.
//!
//! A slot boxes its value, so an empty slot is 16 bytes however large the
//! per-connection state grows: `max_connections` slots are written when
//! the front end starts, and a server that holds two connections should
//! not pay for thousands of idle ones.

use pretzel_data::slot_alloc::SlotStack;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

struct Slot<T> {
    /// Bumped on every `remove`; tokens carry the value they observed.
    generation: AtomicU32,
    value: UnsafeCell<Option<Box<T>>>,
}

/// A fixed-capacity concurrent slab. `insert`/`remove` are lock-free;
/// value access is single-owner (the reactor thread that owns the slot).
pub(crate) struct ConnSlab<T> {
    slots: Box<[Slot<T>]>,
    /// Indices of the slots a `remove` emptied.
    free: SlotStack<u32>,
    /// Slots from here on were never used (claimed in index order).
    fresh: AtomicU32,
    occupied: AtomicUsize,
}

// Safety: values move in through `insert` and out through `remove`; between
// those, `with` hands out exclusive access only to the slot's unique owner
// (enforced by the caller per the method contracts below).
unsafe impl<T: Send> Sync for ConnSlab<T> {}
unsafe impl<T: Send> Send for ConnSlab<T> {}

impl<T> ConnSlab<T> {
    /// Builds a slab of `capacity` slots, all free.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, u32::MAX as usize - 1);
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|_| Slot {
                generation: AtomicU32::new(0),
                value: UnsafeCell::new(None),
            })
            .collect();
        ConnSlab {
            slots,
            free: SlotStack::new(capacity),
            fresh: AtomicU32::new(0),
            occupied: AtomicUsize::new(0),
        }
    }

    /// Total slot count.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a value.
    pub(crate) fn occupied(&self) -> usize {
        self.occupied.load(Ordering::Acquire)
    }

    /// Claims a free slot for `value`; returns its `(slot, generation)`
    /// token, or `None` when the slab is full.
    pub(crate) fn insert(&self, value: T) -> Option<(u32, u32)> {
        let capacity = self.slots.len() as u32;
        let index = match self.free.pop() {
            Some(index) => index,
            None => self
                .fresh
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |i| {
                    (i < capacity).then_some(i + 1)
                })
                .ok()?,
        };
        let slot = &self.slots[index as usize];
        // SAFETY: the index came off the free list or the fresh counter,
        // so the slot is exclusively ours until `remove` pushes it back.
        unsafe { *slot.value.get() = Some(Box::new(value)) };
        self.occupied.fetch_add(1, Ordering::AcqRel);
        Some((index, slot.generation.load(Ordering::Acquire)))
    }

    /// The slot's current generation (for validating completion tokens).
    pub(crate) fn generation(&self, slot: u32) -> u32 {
        self.slots[slot as usize].generation.load(Ordering::Acquire)
    }

    /// Runs `f` with exclusive access to the slot's value.
    ///
    /// # Safety
    /// The caller must be the slot's unique owner (it obtained `slot` from
    /// [`Self::insert`] and has not yet called [`Self::remove`]), and must
    /// not re-enter `with`/`remove` for the *same* slot from `f`.
    pub(crate) unsafe fn with<R>(&self, slot: u32, f: impl FnOnce(&mut T) -> R) -> R {
        let value = &mut *self.slots[slot as usize].value.get();
        f(value.as_mut().expect("slot occupied by owner"))
    }

    /// Takes the value out, bumps the generation (invalidating outstanding
    /// tokens), and returns the slot to the free list.
    ///
    /// # Safety
    /// Same ownership contract as [`Self::with`]; after `remove` the slot
    /// token must not be used again.
    pub(crate) unsafe fn remove(&self, slot: u32) -> T {
        let value = (*self.slots[slot as usize].value.get())
            .take()
            .expect("slot occupied by owner");
        // Invalidate tokens before the slot becomes claimable again.
        self.slots[slot as usize]
            .generation
            .fetch_add(1, Ordering::AcqRel);
        self.occupied.fetch_sub(1, Ordering::AcqRel);
        // Every index fits: the stack holds as many as there are slots.
        let _ = self.free.push(slot);
        *value
    }
}

impl<T> std::fmt::Debug for ConnSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnSlab")
            .field("capacity", &self.capacity())
            .field("occupied", &self.occupied())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_remove_roundtrip_and_capacity() {
        let slab = ConnSlab::new(2);
        let (a, _) = slab.insert(10u32).unwrap();
        let (b, _) = slab.insert(20u32).unwrap();
        assert_eq!(slab.occupied(), 2);
        assert!(slab.insert(30).is_none(), "full slab refuses");
        unsafe {
            assert_eq!(slab.with(a, |v| *v), 10);
            assert_eq!(slab.remove(b), 20);
        }
        let (c, _) = slab.insert(40).unwrap();
        unsafe {
            assert_eq!(slab.with(c, |v| *v), 40);
            slab.remove(a);
            slab.remove(c);
        }
        assert_eq!(slab.occupied(), 0);
    }

    #[test]
    fn an_empty_slot_costs_two_words_whatever_the_value() {
        assert_eq!(std::mem::size_of::<Slot<[u8; 152]>>(), 16);
    }

    #[test]
    fn generation_invalidates_stale_tokens() {
        let slab = ConnSlab::new(1);
        let (slot, gen0) = slab.insert(1u8).unwrap();
        unsafe { slab.remove(slot) };
        let (slot2, gen1) = slab.insert(2u8).unwrap();
        assert_eq!(slot, slot2, "single slot recycles");
        assert_ne!(gen0, gen1, "recycled slot has a fresh generation");
        assert_eq!(slab.generation(slot), gen1);
        unsafe { slab.remove(slot2) };
    }

    #[test]
    fn concurrent_churn_never_double_allocates() {
        let slab = Arc::new(ConnSlab::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let slab = Arc::clone(&slab);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        if let Some((slot, _)) = slab.insert(t * 10_000 + i) {
                            // Exclusive ownership: the value we read must be
                            // exactly the one we put in.
                            let seen = unsafe { slab.with(slot, |v| *v) };
                            assert_eq!(seen, t * 10_000 + i);
                            unsafe { slab.remove(slot) };
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(slab.occupied(), 0, "all slots returned");
    }
}
