//! Lock-free fixed-size slot allocation for pooled buffers.
//!
//! [`SlotStack`] is a bounded concurrent LIFO of owned values built on the
//! constant-time fixed-size allocation recipe of Blelloch & Wei
//! (arXiv:2008.04296), and the workspace's one lock-free container: the
//! `VectorPool` arenas, one stack per size class, are its only user. Every
//! slot carries an atomic free-list link, and the two list heads (free
//! slots, occupied slots) each pack `(aba_tag << 32) | (index + 1)` into a
//! single `AtomicU64`, so both `push` and `pop` are one pointer-width CAS
//! loop each.
//!
//! # Slots grow with use
//!
//! A stack's capacity is a bound, not an allocation. Slots live in chunks
//! of doubling size — chunk `k` holds indices `2^k - 1 .. 2^(k+1) - 1`,
//! the last one cut at the capacity — and a chunk is allocated by the
//! `push` that finds every existing slot occupied. A stack that never holds
//! more than three values owns three slots, whatever its capacity: the
//! space bound of the fixed-size allocator, "sized by how many can be in
//! use at once". Chunks are published once and freed only when the stack
//! drops, so a slot index read from a head always names live memory, and
//! no reclamation scheme is needed. The one cost of growing on demand: a
//! push that races the push growing the *last* chunk may find no free slot
//! and report the stack full while that chunk is being threaded in.
//!
//! # The ABA tag
//!
//! A `pop` reads the head `(t, i)`, then slot `i`'s link `n`, then swaps
//! the head to `(t + 1, n)`. If between the read and the swap slot `i` was
//! popped and pushed back (so the head shows `i` again, now over another
//! link), a plain index CAS would succeed and install the stale `n`: the
//! ABA race. Every successful exchange of a head bumps its 32-bit tag
//! (wrapping), so a CAS with a stale head succeeds only if the head shows
//! the same index *and* the same tag again — exactly a multiple of `2^32`
//! exchanges of that head later — while the thread holding the stale value
//! was descheduled between two instructions of one loop iteration.
//!
//! This is the bounded-tag approximation of LL/SC. Blelloch & Wei
//! (arXiv:1911.09671) build true LL/SC from pointer-width CAS in constant
//! time and space, with no tag that can wrap, by announcing the value a
//! thread is about to compare; the packed tag gets the same effect from a
//! single CAS as long as `2^32` exchanges cannot happen inside one
//! operation's window. The index half of the check gives no protection on
//! a small stack — with capacity 2 (which on-demand growth makes common:
//! a pool class parking one or two buffers) slot `i` is back on top every
//! other exchange — so there the bound rests on the tag alone: `2^32`
//! exchanges of one head, at the ~10 ns an uncontended exchange takes, is
//! at least 43 s of back-to-back leases and returns on one size class
//! while one thread is stalled mid-`pop` and is then resumed on exactly
//! the count. A preempted thread can be stalled that long only on a host
//! that is not serving. The wraparound itself is harmless: the tag only
//! has to *change* on every exchange, and wrapping addition keeps the
//! packed word well-formed (`aba_tag_exhaustion_wraps_cleanly` drives both
//! heads across it at capacities 4 and 2).
//!
//! This is the hot lease/return path of the sharded `VectorPool` arenas:
//! the owning executor pushes and pops its own arena with no lock, and a
//! *cross-core return* (a stolen chunk's buffers going home) is just a CAS
//! push into the owning arena's stack from another thread — the per-arena
//! return stack is unified with the free stack, which a bounded MPMC LIFO
//! supports natively.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no next slot" in a list link (links store `index + 1`).
const NIL: u32 = 0;

struct Slot<T> {
    /// Intrusive list link: `next_index + 1`, or [`NIL`].
    next: AtomicU32,
    value: UnsafeCell<Option<T>>,
}

/// A run of slots, published once and freed with its stack.
type Chunk<T> = OnceLock<Box<[Slot<T>]>>;

/// The chunk holding slot `index` and the slot's offset in it.
#[inline]
fn chunk_of(index: u32) -> (usize, usize) {
    let k = (index + 1).ilog2();
    (k as usize, (index + 1 - (1 << k)) as usize)
}

/// A bounded lock-free stack of owned values.
///
/// `push` moves a value in (failing with the value back when full); `pop`
/// moves one out. Any thread may do either — ownership of a slot's value
/// cell transfers through the head CAS that unlinks the slot, so the cell
/// is only ever touched by the thread that currently owns the slot.
pub struct SlotStack<T> {
    /// Slot chunks of doubling size, each allocated on first need.
    chunks: Box<[Chunk<T>]>,
    capacity: u32,
    /// Chunks claimed by a growing `push` (published or about to be).
    grown: AtomicUsize,
    /// Packed head of the free-slot list: `(tag << 32) | (index + 1)`.
    free: AtomicU64,
    /// Packed head of the occupied-slot list (the stored values, LIFO).
    used: AtomicU64,
    /// Number of stored values (maintained after the fact; exact once the
    /// mutating threads quiesce, approximate while they race).
    len: AtomicUsize,
}

// SAFETY: a value enters a slot only between a free-list pop and a
// used-list push (and symmetrically on the way out), and head CASes
// transfer exclusive slot ownership between threads with AcqRel ordering;
// `T: Send` because the thread that pops a value may not be the one that
// pushed it. The chunk table is `OnceLock`s (set once by the push that
// claimed the chunk, read-only after) and the heads and counters are
// atomics.
unsafe impl<T: Send> Sync for SlotStack<T> {}
unsafe impl<T: Send> Send for SlotStack<T> {}

impl<T> SlotStack<T> {
    /// Builds an empty stack with room for up to `capacity` values; no
    /// slot is allocated until a value needs one.
    pub fn new(capacity: usize) -> Self {
        Self::with_initial_tag(capacity, 0)
    }

    /// Like [`Self::new`] with both list heads starting at `tag` — lets
    /// tests park the ABA tag just below `u32::MAX` and drive it across
    /// the wraparound.
    pub fn with_initial_tag(capacity: usize, tag: u32) -> Self {
        let capacity = capacity.clamp(1, u32::MAX as usize - 1) as u32;
        let n_chunks = chunk_of(capacity - 1).0 + 1;
        SlotStack {
            chunks: (0..n_chunks).map(|_| OnceLock::new()).collect(),
            capacity,
            grown: AtomicUsize::new(0),
            free: AtomicU64::new(u64::from(tag) << 32), // empty
            used: AtomicU64::new(u64::from(tag) << 32), // empty
            len: AtomicUsize::new(0),
        }
    }

    /// Most values the stack can hold.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Stored value count (exact at quiescence).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no values are stored (at quiescence).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the slots allocated so far (exact at quiescence).
    pub fn slot_bytes(&self) -> usize {
        let slots: usize = self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|c| c.len())
            .sum();
        slots * std::mem::size_of::<Slot<T>>()
    }

    /// Slot `index`, which a list link or a growing push handed out, so
    /// its chunk is published.
    #[inline]
    fn slot(&self, index: u32) -> &Slot<T> {
        let (k, offset) = chunk_of(index);
        &self.chunks[k]
            .get()
            .expect("a linked slot's chunk is published")[offset]
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
            let next = self.slot(index).next.load(Ordering::Acquire);
            // The tag wraps at u32::MAX by design (see the module docs).
            let tag = (current >> 32) as u32;
            let new_head = (u64::from(tag.wrapping_add(1)) << 32) | u64::from(next);
            match head.compare_exchange_weak(current, new_head, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(index),
                Err(now) => current = now,
            }
        }
    }

    /// Links the (caller-owned) chain of slots `first ..= last`, already
    /// linked to each other, onto the list at `head`.
    fn push_chain(&self, head: &AtomicU64, first: u32, last: u32) {
        let mut current = head.load(Ordering::Acquire);
        loop {
            let link = (current & 0xffff_ffff) as u32;
            self.slot(last).next.store(link, Ordering::Release);
            let tag = (current >> 32) as u32;
            let new_head = (u64::from(tag.wrapping_add(1)) << 32) | u64::from(first + 1);
            match head.compare_exchange_weak(current, new_head, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }

    /// A free slot for a push: one off the free list, or the first of a
    /// chunk this call allocates; `None` when every chunk is claimed.
    fn claim_slot(&self) -> Option<u32> {
        loop {
            if let Some(index) = self.pop_slot(&self.free) {
                return Some(index);
            }
            let k = self.grown.load(Ordering::Acquire);
            if k == self.chunks.len() {
                return None;
            }
            if self
                .grown
                .compare_exchange(k, k + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(self.add_chunk(k));
            }
        }
    }

    /// Allocates and publishes chunk `k` (claimed by the caller), keeps
    /// its first slot for the caller and frees the rest.
    fn add_chunk(&self, k: usize) -> u32 {
        let start = (1u32 << k) - 1;
        let len = (1u32 << k).min(self.capacity - start);
        let chunk: Box<[Slot<T>]> = (0..len)
            .map(|j| Slot {
                // Thread the chunk's free slots start+1 -> ... -> last.
                next: AtomicU32::new(if j + 1 < len { start + j + 2 } else { NIL }),
                value: UnsafeCell::new(None),
            })
            .collect();
        assert!(self.chunks[k].set(chunk).is_ok(), "chunk {k} claimed twice");
        if len > 1 {
            self.push_chain(&self.free, start + 1, start + len - 1);
        }
        start
    }

    /// Stores `value`, or hands it back when every slot is occupied.
    pub fn push(&self, value: T) -> Result<(), T> {
        let Some(index) = self.claim_slot() else {
            return Err(value);
        };
        // SAFETY: `claim_slot` unlinked `index` from the free list (or
        // allocated it), so no other thread can reach the slot's cell until
        // the used-list push below publishes it.
        unsafe { *self.slot(index).value.get() = Some(value) };
        self.push_chain(&self.used, index, index);
        self.len.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Takes the most recently stored value, if any.
    pub fn pop(&self) -> Option<T> {
        let index = self.pop_slot(&self.used)?;
        // SAFETY: the used-list CAS unlinked `index`, so this thread owns
        // the slot's cell until the free-list push below.
        let value = unsafe {
            (*self.slot(index).value.get())
                .take()
                .expect("used-list slot holds a value")
        };
        self.push_chain(&self.free, index, index);
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

    /// Drives both packed heads across the 32-bit ABA-tag wraparound: each
    /// stack starts with its tags parked at `u32::MAX - 8`, then performs
    /// far more successful CAS exchanges than tags remain, under
    /// contention. Wrapping tag arithmetic must keep the packed word
    /// well-formed and the exchange discipline intact — also at capacity
    /// 2, where the index half of the head check protects nothing (a slot
    /// is back on top every other exchange) and chunks are claimed while
    /// the tags wrap.
    #[test]
    fn aba_tag_exhaustion_wraps_cleanly() {
        for capacity in [4, 2] {
            let stack = Arc::new(SlotStack::with_initial_tag(capacity, u32::MAX - 8));
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    let stack = Arc::clone(&stack);
                    std::thread::spawn(move || {
                        let mut popped = 0usize;
                        for i in 0..3000u64 {
                            let v = t * 100_000 + i + 1;
                            if stack.push(v).is_ok() {
                                // Pop-anything keeps churn high while the
                                // tag wraps; values are validated by range.
                                if let Some(got) = stack.pop() {
                                    assert!((1..400_000).contains(&got));
                                    popped += 1;
                                }
                            }
                        }
                        popped
                    })
                })
                .collect();
            let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(served > 0, "capacity {capacity}: the stack served");
            while stack.pop().is_some() {}
            assert!(stack.is_empty());
            assert!(stack.slot_bytes() <= capacity * std::mem::size_of::<Slot<u64>>());
            // Both heads long since wrapped past zero.
            for head in [&stack.free, &stack.used] {
                let tag = head.load(Ordering::Relaxed) >> 32;
                assert!(tag < u64::from(u32::MAX - 8), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn slots_are_allocated_as_values_need_them() {
        let s = SlotStack::new(256);
        let slot = std::mem::size_of::<Slot<u64>>();
        assert_eq!(s.slot_bytes(), 0, "an empty stack owns no slot");
        for v in 0..3u64 {
            s.push(v).unwrap();
        }
        assert_eq!(s.slot_bytes(), 3 * slot, "chunks of 1 and 2 slots");
        // Cycling within what is held allocates nothing more.
        for _ in 0..100 {
            let v = s.pop().unwrap();
            s.push(v).unwrap();
        }
        assert_eq!(s.slot_bytes(), 3 * slot);
        for v in 3..256u64 {
            s.push(v).unwrap();
        }
        assert_eq!(s.push(256), Err(256), "the capacity still bounds it");
        assert_eq!(s.slot_bytes(), 256 * slot);
        // The last chunk is cut at the capacity.
        let odd = SlotStack::new(5);
        for v in 0..5u64 {
            odd.push(v).unwrap();
        }
        assert_eq!(odd.push(5), Err(5));
        assert_eq!(odd.slot_bytes(), 5 * slot);
        let mut drained: Vec<u64> = std::iter::from_fn(|| odd.pop()).collect();
        drained.sort_unstable();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
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
