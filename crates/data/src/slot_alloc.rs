//! Lock-free fixed-size slot allocation for pooled buffers.
//!
//! [`SlotStack`] is a bounded concurrent LIFO of owned values built on the
//! constant-time fixed-size allocation recipe of Blelloch & Wei
//! (arXiv:2008.04296), and the workspace's one tagged Treiber stack: the
//! `VectorPool` arenas and the FrontEnd's connection slab (which keeps its free
//! slot indices in one) both use it. Every slot carries an atomic
//! free-list link, and the two list heads (free slots, occupied slots) each
//! pack `(aba_tag << 32) | (index + 1)` into a single `AtomicU64`, so both
//! `push` and `pop` are one pointer-width CAS loop each. The tag bump on
//! every successful head exchange makes the classic ABA reuse race
//! unobservable: a thread holding a stale head value always fails its CAS,
//! even if the same slot index cycled back to the top in between.
//!
//! This is the hot lease/return path of the sharded `VectorPool` arenas:
//! the owning executor pushes and pops its own arena with no lock, and a
//! *cross-core return* (a stolen chunk's buffers going home) is just a CAS
//! push into the owning arena's stack from another thread — the per-arena
//! return stack is unified with the free stack, which a bounded MPMC LIFO
//! supports natively.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Sentinel for "no next slot" in a list link (links store `index + 1`).
const NIL: u32 = 0;

struct Slot<T> {
    /// Intrusive list link: `next_index + 1`, or [`NIL`].
    next: AtomicU32,
    value: UnsafeCell<Option<T>>,
}

/// A fixed-capacity lock-free stack of owned values.
///
/// `push` moves a value in (failing with the value back when full); `pop`
/// moves one out. Any thread may do either — ownership of a slot's value
/// cell transfers through the head CAS that unlinks the slot, so the cell
/// is only ever touched by the thread that currently owns the slot.
pub struct SlotStack<T> {
    slots: Box<[Slot<T>]>,
    /// Packed head of the free-slot list: `(tag << 32) | (index + 1)`.
    free: AtomicU64,
    /// Packed head of the occupied-slot list (the stored values, LIFO).
    used: AtomicU64,
    /// Number of stored values (maintained after the fact; exact once the
    /// mutating threads quiesce, approximate while they race).
    len: AtomicUsize,
}

// Safety: a value enters a slot only between a free-list pop and a
// used-list push (and symmetrically on the way out), and head CASes
// transfer exclusive slot ownership between threads with AcqRel ordering.
unsafe impl<T: Send> Sync for SlotStack<T> {}
unsafe impl<T: Send> Send for SlotStack<T> {}

impl<T> SlotStack<T> {
    /// Builds a stack with room for `capacity` values, all slots free.
    pub fn new(capacity: usize) -> Self {
        Self::with_initial_tag(capacity, 0)
    }

    /// Like [`Self::new`] with both list heads starting at `tag` — lets
    /// tests park the ABA tag just below `u32::MAX` and drive it across
    /// the wraparound.
    pub fn with_initial_tag(capacity: usize, tag: u32) -> Self {
        let capacity = capacity.clamp(1, u32::MAX as usize - 1);
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|i| Slot {
                // Thread the initial free list 0 -> 1 -> ... -> NIL.
                next: AtomicU32::new(if i + 1 < capacity { i as u32 + 2 } else { NIL }),
                value: UnsafeCell::new(None),
            })
            .collect();
        SlotStack {
            slots,
            free: AtomicU64::new((u64::from(tag) << 32) | 1), // index 0
            used: AtomicU64::new(u64::from(tag) << 32),       // empty
            len: AtomicUsize::new(0),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stored value count (exact at quiescence).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no values are stored (at quiescence).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unlinks and returns the top slot index of the list at `head`, or
    /// `None` when the list is empty. The caller owns the slot afterwards.
    fn pop_slot(&self, head: &AtomicU64) -> Option<u32> {
        let mut current = head.load(Ordering::Acquire);
        loop {
            let link = (current & 0xffff_ffff) as u32;
            if link == NIL {
                return None;
            }
            let index = link - 1;
            let next = self.slots[index as usize].next.load(Ordering::Acquire);
            // The tag wraps at u32::MAX by design (wrapping add keeps the
            // packed word well-formed); correctness only needs the tag to
            // *change* on every successful exchange.
            let tag = (current >> 32) as u32;
            let new_head = (u64::from(tag.wrapping_add(1)) << 32) | u64::from(next);
            match head.compare_exchange_weak(current, new_head, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(index),
                Err(now) => current = now,
            }
        }
    }

    /// Links the (caller-owned) slot `index` onto the list at `head`.
    fn push_slot(&self, head: &AtomicU64, index: u32) {
        let mut current = head.load(Ordering::Acquire);
        loop {
            let link = (current & 0xffff_ffff) as u32;
            self.slots[index as usize]
                .next
                .store(link, Ordering::Release);
            let tag = (current >> 32) as u32;
            let new_head = (u64::from(tag.wrapping_add(1)) << 32) | u64::from(index + 1);
            match head.compare_exchange_weak(current, new_head, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }

    /// Stores `value`, or hands it back when every slot is occupied.
    pub fn push(&self, value: T) -> Result<(), T> {
        let Some(index) = self.pop_slot(&self.free) else {
            return Err(value);
        };
        // Exclusively ours between the two head CASes.
        unsafe { *self.slots[index as usize].value.get() = Some(value) };
        self.push_slot(&self.used, index);
        self.len.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Takes the most recently stored value, if any.
    pub fn pop(&self) -> Option<T> {
        let index = self.pop_slot(&self.used)?;
        let value = unsafe {
            (*self.slots[index as usize].value.get())
                .take()
                .expect("used-list slot holds a value")
        };
        self.push_slot(&self.free, index);
        self.len.fetch_sub(1, Ordering::AcqRel);
        Some(value)
    }
}

impl<T> std::fmt::Debug for SlotStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotStack")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::sync::{Arc, Barrier};

    #[test]
    fn push_pop_lifo_and_capacity_bound() {
        let s = SlotStack::new(2);
        assert!(s.push(1u32).is_ok());
        assert!(s.push(2).is_ok());
        assert_eq!(s.push(3), Err(3), "full stack hands the value back");
        assert_eq!(s.pop(), Some(2), "LIFO order");
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    /// Multi-thread alloc/free storm checked against a reference model:
    /// every pushed value is distinct, so conservation of the value
    /// multiset (sum pushed == sum popped + sum drained) plus the
    /// capacity bound is a full correctness certificate — a lost update,
    /// double pop, or ABA corruption each breaks the sum.
    #[test]
    fn concurrent_storm_conserves_values() {
        const THREADS: u64 = 4;
        const OPS: u64 = 4000;
        let stack = Arc::new(SlotStack::new(16));
        let pushed = Arc::new(TestCounter::new(0));
        let popped = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                let pushed = Arc::clone(&pushed);
                let popped = Arc::clone(&popped);
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        let v = t * 1_000_000 + i + 1;
                        if v % 3 != 0 {
                            if stack.push(v).is_ok() {
                                pushed.fetch_add(v, Ordering::Relaxed);
                            }
                        } else if let Some(got) = stack.pop() {
                            assert!(got > 0, "popped a value that was never pushed");
                            popped.fetch_add(got, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut drained = 0u64;
        let mut n_drained = 0usize;
        while let Some(v) = stack.pop() {
            drained += v;
            n_drained += 1;
        }
        assert!(
            n_drained <= stack.capacity(),
            "never held more than capacity"
        );
        assert_eq!(
            pushed.load(Ordering::Relaxed),
            popped.load(Ordering::Relaxed) + drained,
            "value multiset is conserved across the storm"
        );
        assert_eq!(stack.len(), 0);
    }

    /// Drives both packed heads across the 32-bit ABA-tag wraparound: the
    /// stack starts with its tags parked at `u32::MAX - 8`, then performs
    /// far more successful CAS exchanges than tags remain, under
    /// contention. Wrapping tag arithmetic must keep the packed word
    /// well-formed and the exchange discipline intact.
    #[test]
    fn aba_tag_exhaustion_wraps_cleanly() {
        let stack = Arc::new(SlotStack::with_initial_tag(4, u32::MAX - 8));
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    for i in 0..3000u64 {
                        let v = t * 100_000 + i + 1;
                        if stack.push(v).is_ok() {
                            // Pop-anything keeps churn high while the tag
                            // wraps; values are validated by range.
                            if let Some(got) = stack.pop() {
                                assert!((1..400_000).contains(&got));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        while stack.pop().is_some() {}
        assert!(stack.is_empty());
        // Both heads long since wrapped past zero.
        assert!(stack.free.load(Ordering::Relaxed) >> 32 < u64::from(u32::MAX - 8));
    }

    /// Barrier-scheduled steal-vs-return interleaving: an "owner" thread
    /// returns buffers to the arena while a "thief" concurrently leases
    /// from it, round by round. Each buffer must be observed by exactly
    /// one leaser per circulation (values are unique per round).
    #[test]
    fn barrier_interleaved_steal_vs_return() {
        const ROUNDS: usize = 200;
        const PER_ROUND: usize = 8;
        let stack = Arc::new(SlotStack::new(PER_ROUND));
        let barrier = Arc::new(Barrier::new(2));
        let owner = {
            let stack = Arc::clone(&stack);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    for k in 0..PER_ROUND {
                        // Returns race the thief's leases below.
                        let _ = stack.push((round * PER_ROUND + k) as u64);
                    }
                    barrier.wait();
                }
            })
        };
        let mut seen = std::collections::HashSet::new();
        for round in 0..ROUNDS {
            barrier.wait();
            let lo = (round * PER_ROUND) as u64;
            let hi = lo + PER_ROUND as u64;
            let mut got = 0;
            while got < PER_ROUND {
                if let Some(v) = stack.pop() {
                    assert!(v >= lo && v < hi, "round {round}: stale value {v}");
                    assert!(seen.insert(v), "value {v} leased twice");
                    got += 1;
                }
            }
            barrier.wait();
        }
        owner.join().unwrap();
        assert_eq!(seen.len(), ROUNDS * PER_ROUND);
        assert!(stack.is_empty());
    }
}
