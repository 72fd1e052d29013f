//! Pre-allocated vector pools.
//!
//! PRETZEL pays memory- and thread-allocation cost "upfront at initialization
//! time" (paper §4): when the runtime starts, each executor gets a
//! [`VectorPool`], and every deploy tops the pool's size classes up to the
//! working set one execution of the plan leases — the request-response
//! engine's vectors sized from training statistics (max vector size per
//! stage, §4.1.1), the batch engine's chunk batches with their row
//! structures. On the prediction path, stages
//! *acquire* buffers from the pool and *release* them when the pipeline
//! completes — no global-allocator traffic. Disabling pooling reproduces
//! the paper's ablation (hot latency +47.1%, §5.2.1).
//!
//! Pools are provisioned **per size class, not per plan**: warming
//! ([`VectorPool::warm_sized`], [`VectorPool::warm_batches`]) ensures that a
//! class *holds* a number of buffers and builds only the shortfall, so any
//! number of plans with the same shapes share one working set per pool and
//! a deploy into a warm class allocates nothing. That is the discipline
//! Blelloch & Wei's fixed-size allocator (arXiv:2008.04296) takes its space
//! bound from — a pool holds a bounded number of blocks per size class,
//! sized by how many can be in use at once, never by how many clients might
//! ask. What a class keeps after the plans that used it retire is at most
//! what was ever parked in it: its warmed count plus one buffer per lease
//! that missed, capped by the class capacity.
//!
//! Each pool keeps its free lists — one LIFO `Vec` per size class, for
//! vectors and for batches — and the bytes parked in them behind one
//! mutex. A lease or a return holds it for a class lookup and one push or
//! pop: buffers are built, reset, detached and dropped outside it, and a
//! free list that must grow is grown outside it too. Any thread may
//! return a buffer to any pool, so a *cross-core return* (a stolen chunk's
//! buffers going home) is a plain push into the owning arena. An arena may
//! front a shared **global fallback** pool ([`VectorPool::with_fallback`],
//! Theseus's `multiple_heaps` pattern): arena-dry acquires refill from the
//! global pool before allocating, and arena-full releases spill to it
//! before dropping.

use crate::batch::ColumnBatch;
use crate::schema::ColumnType;
use crate::vector::Vector;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default cap of retained free vectors per size class. Vectors are the
/// request-response engine's working sets: each serving session holds one
/// vector per plan slot and hands them back when it moves to a plan of
/// another layout, so a class parks at most the sessions times the slots
/// of that class in one frame. The cap bounds a class, it is not what a
/// class costs: a class's free list doubles as buffers park, so a class
/// that parks three vectors owns room for four.
const DEFAULT_MAX_PER_CLASS: usize = 256;

/// Cap of retained free *batches* per size class, whatever the pool's
/// per-class cap allows for vectors. A chunk leases one batch per plan slot,
/// so a class parks at most as many batches as were ever out of it at once:
/// chunks started and not yet retired — one per executor thread, the
/// scheduler's invariant — times the slots and scratch buffers of the class
/// in one plan, and deploy-time warming parks two working sets of it. Eight
/// executors (the default configuration's ceiling) times four same-class
/// buffers (the widest stock plan has three) is 32. Like the vector cap it
/// bounds a class and costs nothing itself: a class's free list has room
/// for at most twice the most batches it ever parked at once. Past the cap
/// a release spills to the fallback arena and then drops, counted in
/// [`PoolStats::dropped`].
const MAX_BATCHES_PER_CLASS: usize = 32;

/// Counters describing pool effectiveness; read by benchmarks and tests.
#[derive(Debug, Default)]
pub struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    dropped: AtomicU64,
}

impl PoolStats {
    /// Acquisitions served from a free list.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate a fresh buffer.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Buffers handed back through `release[_batch]`, whether they were
    /// parked, spilled to the fallback, or dropped.
    pub fn released(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
    }

    /// The subset of [`Self::released`] that was dropped instead of parked:
    /// the size class (and any fallback) was full, or pooling is disabled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Leases not yet handed back: `hits + misses − released`. Zero at
    /// quiescence unless a buffer leaked.
    pub fn outstanding(&self) -> i64 {
        (self.hits() + self.misses()) as i64 - self.released() as i64
    }
}

/// Size classes one pool tracks per family (vectors, batches); a plan set
/// uses a handful — text/tokens/scalar plus a few dense widths and sparse
/// dims. Past the bound, acquires allocate and releases drop, which is
/// safe and visible in the miss/drop counters.
const DIR_SLOTS: usize = 128;

/// One family's free lists, by size class.
type Classes<T> = HashMap<ColumnType, Vec<T>>;

/// Everything a pool's lock guards.
#[derive(Default)]
struct FreeLists {
    vectors: Classes<Vector>,
    batches: Classes<ColumnBatch>,
    /// Heap bytes of the buffers parked in `vectors` and `batches`.
    retained: usize,
}

impl std::fmt::Debug for FreeLists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeLists")
            .field("vector_classes", &self.vectors.len())
            .field("batch_classes", &self.batches.len())
            .field("retained", &self.retained)
            .finish()
    }
}

/// A value a pool parks: which family it belongs to and what it holds.
trait Pooled: Sized {
    fn classes(lists: &mut FreeLists) -> &mut Classes<Self>;
    fn heap_bytes(&self) -> usize;
}

impl Pooled for Vector {
    fn classes(lists: &mut FreeLists) -> &mut Classes<Self> {
        &mut lists.vectors
    }
    fn heap_bytes(&self) -> usize {
        Vector::heap_bytes(self)
    }
}

impl Pooled for ColumnBatch {
    fn classes(lists: &mut FreeLists) -> &mut Classes<Self> {
        &mut lists.batches
    }
    fn heap_bytes(&self) -> usize {
        ColumnBatch::heap_bytes(self)
    }
}

/// A size-classed pool of reusable [`Vector`] buffers.
///
/// When pooling is disabled (`VectorPool::disabled()`), every acquisition
/// allocates and every release drops — the black-box baseline behaviour, and
/// the configuration used by the "no vector pooling" ablation.
#[derive(Debug)]
pub struct VectorPool {
    enabled: bool,
    max_per_class: usize,
    lists: Mutex<FreeLists>,
    /// Shared overflow/underflow pool behind a per-core arena: acquires
    /// refill from it before allocating, releases spill to it before
    /// dropping. Its own counters stay untouched on this traffic — the
    /// fronting arena's counters tell the whole story.
    fallback: Option<Arc<VectorPool>>,
    stats: PoolStats,
}

impl VectorPool {
    /// Creates an enabled, empty pool. Any thread may lease from it and
    /// return to it; each lease or return holds the pool's lock for one
    /// push or pop.
    pub fn arena() -> Self {
        VectorPool {
            enabled: true,
            max_per_class: DEFAULT_MAX_PER_CLASS,
            lists: Mutex::default(),
            fallback: None,
            stats: PoolStats::default(),
        }
    }

    /// Creates a pass-through pool that always allocates (ablation mode).
    pub fn disabled() -> Self {
        VectorPool {
            enabled: false,
            ..VectorPool::arena()
        }
    }

    /// Sets the retained-buffer cap per size class.
    pub fn with_max_per_class(mut self, cap: usize) -> Self {
        self.max_per_class = cap;
        self
    }

    /// Fronts this pool with a shared fallback: dry acquires refill from
    /// `global`, full releases spill to it (per-core arena over a global
    /// pool, the Theseus `multiple_heaps` shape).
    pub fn with_fallback(mut self, global: Arc<VectorPool>) -> Self {
        self.fallback = Some(global);
        self
    }

    /// True if the pool retains and reuses buffers.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Pool effectiveness counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Ensures `count` free buffers of type `ty` are parked, building only
    /// the shortfall — each new buffer with storage reserved for
    /// `max_stored` elements (training statistics) — and never more than
    /// the class has room for. Idempotent: warming a class that already
    /// holds `count` allocates nothing, which is what lets every deploy
    /// call it (paper §4.2.1: the allocation cost is paid at
    /// initialization). Buffers already parked keep the capacity they
    /// have; a smaller one grows in place the first time a request needs
    /// more, inside its lease. Warming is not prediction-path traffic:
    /// counters stay untouched.
    pub fn warm_sized(&self, ty: ColumnType, max_stored: usize, count: usize) {
        // Scalars are values, never pooled.
        if !self.enabled || ty == ColumnType::F32Scalar {
            return;
        }
        let shortfall = count
            .min(self.max_per_class)
            .saturating_sub(self.free_len::<Vector>(ty));
        for _ in 0..shortfall {
            let fresh = Vector::with_capacity_hint(ty, max_stored);
            // Only a concurrent release can have filled the class since.
            if self.store_free(fresh).is_err() {
                break;
            }
        }
    }

    /// Ensures `count` free batches of type `ty` are parked, building only
    /// the shortfall — each new batch with storage reserved for `rows` rows
    /// of `stored_hint` stored elements — and never more than the class has
    /// room for. Deploy-time warming for the batch engine: the first
    /// post-deploy chunk leases a pre-built working set instead of paying a
    /// pool miss. Idempotent and counter-neutral like [`Self::warm_sized`];
    /// a parked batch with less storage than a chunk needs grows in place
    /// inside the first chunk that fills it.
    pub fn warm_batches(&self, ty: ColumnType, rows: usize, stored_hint: usize, count: usize) {
        if !self.enabled {
            return;
        }
        let shortfall = count
            .min(self.max_batches_per_class())
            .saturating_sub(self.free_len::<ColumnBatch>(ty));
        for _ in 0..shortfall {
            let fresh = ColumnBatch::with_capacity_hint(ty, rows, stored_hint);
            if self.store_free_batch(fresh).is_err() {
                break;
            }
        }
    }

    /// Cap of parked batches per class: [`MAX_BATCHES_PER_CLASS`], or the
    /// pool's own cap when that is lower.
    fn max_batches_per_class(&self) -> usize {
        self.max_per_class.min(MAX_BATCHES_PER_CLASS)
    }

    /// Free `T`s parked in the class of `ty`.
    fn free_len<T: Pooled>(&self, ty: ColumnType) -> usize {
        T::classes(&mut self.lists.lock())
            .get(&ty)
            .map_or(0, Vec::len)
    }

    /// Pops the most recently parked `T` of class `ty`, without touching
    /// the counters.
    fn take<T: Pooled>(&self, ty: ColumnType) -> Option<T> {
        let mut lists = self.lists.lock();
        let value = T::classes(&mut lists).get_mut(&ty)?.pop()?;
        lists.retained -= value.heap_bytes();
        Some(value)
    }

    /// Parks `value` in class `ty` without touching the counters; hands it
    /// back when the class holds `cap` or a new class would pass
    /// [`DIR_SLOTS`]. A class map or free list with no room left is
    /// replaced by a larger one built outside the lock and swapped in on
    /// the next turn, so the lock never covers an allocation, and what it
    /// replaces is freed after the unlock.
    fn park<T: Pooled>(&self, ty: ColumnType, cap: usize, value: T) -> Result<(), T> {
        let bytes = value.heap_bytes();
        let mut wider: Classes<T> = HashMap::new();
        let mut larger: Vec<T> = Vec::new();
        loop {
            let mut lists = self.lists.lock();
            let classes = T::classes(&mut lists);
            if classes.len() >= DIR_SLOTS.min(classes.capacity()) && !classes.contains_key(&ty) {
                if classes.len() >= DIR_SLOTS {
                    return Err(value);
                }
                if wider.capacity() <= classes.len() {
                    let room = (2 * classes.len()).clamp(4, DIR_SLOTS);
                    drop(lists);
                    wider = HashMap::with_capacity(room);
                    continue;
                }
                wider.extend(classes.drain());
                std::mem::swap(classes, &mut wider);
            }
            let list = classes.entry(ty).or_default();
            if list.len() >= cap {
                return Err(value);
            }
            if list.len() == list.capacity() {
                if larger.capacity() <= list.len() {
                    let room = (2 * list.len()).clamp(1, cap);
                    drop(lists);
                    larger = Vec::with_capacity(room);
                    continue;
                }
                larger.append(list);
                std::mem::swap(list, &mut larger);
            }
            list.push(value);
            lists.retained += bytes;
            return Ok(());
        }
    }

    /// Pops a free vector of type `ty` without touching the counters.
    /// Scalars are plain values: always "available", nothing pooled.
    fn take_free(&self, ty: ColumnType) -> Option<Vector> {
        if ty == ColumnType::F32Scalar {
            return Some(Vector::Scalar(0.0));
        }
        self.take(ty)
    }

    /// Parks a free vector without touching the counters; hands it back
    /// when its size class is at capacity. Scalars always succeed (they
    /// are values, never pooled).
    fn store_free(&self, v: Vector) -> Result<(), Vector> {
        match v {
            Vector::Scalar(_) => Ok(()),
            v => self.park(v.column_type(), self.max_per_class, v),
        }
    }

    /// Parks a free batch without touching the counters; hands it back
    /// when its class is at capacity.
    fn store_free_batch(&self, b: ColumnBatch) -> Result<(), ColumnBatch> {
        self.park(b.column_type(), self.max_batches_per_class(), b)
    }

    /// Acquires a cleared buffer of type `ty`.
    pub fn acquire(&self, ty: ColumnType) -> Vector {
        if self.enabled {
            let found = self
                .take_free(ty)
                .or_else(|| self.fallback.as_ref().and_then(|f| f.take_free(ty)));
            if let Some(mut v) = found {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                v.reset();
                return v;
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        Vector::with_type(ty)
    }

    /// Returns a buffer to the pool (or drops it when disabled/full).
    pub fn release(&self, v: Vector) {
        self.stats.released.fetch_add(1, Ordering::Relaxed);
        let parked = self.enabled
            && match self.store_free(v) {
                Ok(()) => true,
                Err(v) => self
                    .fallback
                    .as_ref()
                    .is_some_and(|f| f.store_free(v).is_ok()),
            };
        if !parked {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Acquires a cleared [`ColumnBatch`] of type `ty` with capacity hinted
    /// for `rows` rows (the batch engine leases one batch per plan slot per
    /// chunk, instead of one vector per slot per *record*).
    ///
    /// Free lists are per column-type class and LIFO, so the most recently
    /// returned (cache-warm) batch goes out first. Reused batches keep their
    /// grown capacity, so a warm pool serves chunks allocation-free: the
    /// lease is one pop under the pool's lock, and the reset runs after it.
    pub fn acquire_batch(&self, ty: ColumnType, rows: usize) -> ColumnBatch {
        if self.enabled {
            let found = self
                .take::<ColumnBatch>(ty)
                .or_else(|| self.fallback.as_ref().and_then(|f| f.take(ty)));
            if let Some(mut b) = found {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                b.reset();
                return b;
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        ColumnBatch::with_capacity_hint(ty, rows, 0)
    }

    /// Returns a batch to the pool (or drops it when disabled/full). A
    /// batch whose rows borrow another batch's backing
    /// ([`ColumnBatch::detach_shared`]) drops the share before parking, so
    /// the source's next reuse stays copy-free.
    pub fn release_batch(&self, mut b: ColumnBatch) {
        self.stats.released.fetch_add(1, Ordering::Relaxed);
        let parked = self.enabled && {
            b.detach_shared();
            match self.store_free_batch(b) {
                Ok(()) => true,
                Err(b) => self
                    .fallback
                    .as_ref()
                    .is_some_and(|f| f.store_free_batch(b).is_ok()),
            }
        };
        if !parked {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total heap bytes currently parked in free lists (excluding any
    /// fallback pool, which reports its own).
    pub fn retained_bytes(&self) -> usize {
        self.lists.lock().retained
    }

    /// Buffers (vectors and batches) currently parked in free lists —
    /// with [`Self::retained_bytes`], the "which pool is holding memory"
    /// pair. Excludes any fallback pool, which reports its own.
    pub fn parked_buffers(&self) -> usize {
        let lists = self.lists.lock();
        total(&lists.vectors, Vec::len) + total(&lists.batches, Vec::len)
    }

    /// Heap bytes of the size classes' free lists, their own cost beside
    /// the buffers parked in them ([`Self::retained_bytes`]). Excludes any
    /// fallback pool, which reports its own.
    pub fn class_bytes(&self) -> usize {
        let lists = self.lists.lock();
        total(&lists.vectors, Vec::capacity) * std::mem::size_of::<Vector>()
            + total(&lists.batches, Vec::capacity) * std::mem::size_of::<ColumnBatch>()
    }
}

/// `measure` summed over a family's free lists.
fn total<T>(classes: &Classes<T>, measure: fn(&Vec<T>) -> usize) -> usize {
    classes.values().map(measure).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn acquire_release_reuses_buffers() {
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len: 8 };
        let v = pool.acquire(ty);
        assert_eq!(pool.stats().misses(), 1);
        pool.release(v);
        let v2 = pool.acquire(ty);
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(v2.column_type(), ty);
    }

    #[test]
    fn acquired_buffers_are_reset() {
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len: 3 };
        let mut v = pool.acquire(ty);
        if let Vector::Dense(d) = &mut v {
            d.copy_from_slice(&[1.0, 2.0, 3.0]);
        }
        pool.release(v);
        let v2 = pool.acquire(ty);
        assert_eq!(v2.as_dense().unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn size_classes_are_separate() {
        let pool = VectorPool::arena();
        pool.release(Vector::Dense(vec![0.0; 4]));
        // Asking for a different dense length must not return the len-4 buffer.
        let v = pool.acquire(ColumnType::F32Dense { len: 8 });
        assert_eq!(v.as_dense().unwrap().len(), 8);
        assert_eq!(pool.stats().misses(), 1);
    }

    #[test]
    fn disabled_pool_always_allocates() {
        let pool = VectorPool::disabled();
        let ty = ColumnType::TokenList;
        let v = pool.acquire(ty);
        pool.release(v);
        let _ = pool.acquire(ty);
        assert_eq!(pool.stats().hits(), 0);
        assert_eq!(pool.stats().misses(), 2);
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn class_cap_drops_excess() {
        let pool = VectorPool::arena().with_max_per_class(2);
        for capacity in [16, 32, 64] {
            pool.release(Vector::Text(String::with_capacity(capacity)));
        }
        assert_eq!(pool.stats().dropped(), 1);
        assert_eq!(pool.parked_buffers(), 2);
        // LIFO: the last buffer parked goes out first.
        for capacity in [32, 16] {
            assert_eq!(pool.acquire(ColumnType::Text).heap_bytes(), capacity);
        }
    }

    #[test]
    fn overfilled_class_keeps_lease_accounting_balanced() {
        // A buffer dropped on a full class is still a returned lease:
        // `dropped` is a subset of `released`, never an extra return.
        let ty = ColumnType::F32Dense { len: 4 };
        let pool = VectorPool::arena().with_max_per_class(1);
        let leased: Vec<_> = (0..3).map(|_| pool.acquire_batch(ty, 2)).collect();
        let vectors: Vec<_> = (0..3).map(|_| pool.acquire(ty)).collect();
        assert_eq!(pool.stats().outstanding(), 6);
        leased.into_iter().for_each(|b| pool.release_batch(b));
        vectors.into_iter().for_each(|v| pool.release(v));
        assert_eq!(pool.stats().dropped(), 4, "two of each overflow the class");
        assert_eq!(pool.stats().outstanding(), 0);
        // The pooling-off ablation drops everything and balances too.
        let off = VectorPool::disabled();
        off.release(off.acquire(ty));
        off.release_batch(off.acquire_batch(ty, 2));
        assert_eq!(off.stats().outstanding(), 0);
    }

    #[test]
    fn warm_prepopulates_without_counting_misses() {
        let pool = VectorPool::arena();
        pool.warm_sized(ColumnType::F32Sparse { len: 100 }, 0, 4);
        for _ in 0..4 {
            let v = pool.acquire(ColumnType::F32Sparse { len: 100 });
            assert!(matches!(v, Vector::Sparse { dim: 100, .. }));
        }
        assert_eq!(pool.stats().hits(), 4);
        assert_eq!(pool.stats().misses(), 0);
    }

    #[test]
    fn warming_ensures_a_count_and_builds_only_the_shortfall() {
        let dense = ColumnType::F32Dense { len: 8 };
        let pool = VectorPool::arena();
        // Idempotent: the second call finds the class provisioned.
        pool.warm_batches(dense, 16, 0, 3);
        pool.warm_sized(ColumnType::Text, 32, 3);
        let (bytes, parked) = (pool.retained_bytes(), pool.parked_buffers());
        assert_eq!(parked, 6);
        pool.warm_batches(dense, 16, 0, 3);
        pool.warm_sized(ColumnType::Text, 32, 3);
        assert_eq!(pool.parked_buffers(), parked);
        assert_eq!(pool.retained_bytes(), bytes);
        // A smaller request takes nothing away.
        pool.warm_batches(dense, 16, 0, 1);
        assert_eq!(pool.parked_buffers(), parked);

        // With leases out, a top-up builds exactly what is missing...
        let out_b: Vec<_> = (0..2).map(|_| pool.acquire_batch(dense, 16)).collect();
        let out_v = pool.acquire(ColumnType::Text);
        assert_eq!(pool.parked_buffers(), 3);
        pool.warm_batches(dense, 16, 0, 3);
        pool.warm_sized(ColumnType::Text, 32, 3);
        assert_eq!(pool.parked_buffers(), 6);
        // ...and the returning leases park beside it.
        out_b.into_iter().for_each(|b| pool.release_batch(b));
        pool.release(out_v);
        assert_eq!(pool.parked_buffers(), 9);

        // Warming is not traffic: only the three leases were counted.
        let s = pool.stats();
        assert_eq!((s.hits(), s.misses(), s.released()), (3, 0, 3));
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn warming_never_exceeds_the_class_capacity() {
        let dense = ColumnType::F32Dense { len: 4 };
        let pool = VectorPool::arena();
        // Batches stop at their own cap, vectors at the pool's.
        pool.warm_batches(dense, 2, 0, MAX_BATCHES_PER_CLASS + 50);
        assert_eq!(pool.parked_buffers(), MAX_BATCHES_PER_CLASS);
        pool.release_batch(ColumnBatch::with_type(dense));
        assert_eq!(pool.stats().dropped(), 1, "a full class drops, visibly");
        pool.warm_sized(dense, 0, DEFAULT_MAX_PER_CLASS + 50);
        assert_eq!(
            pool.parked_buffers(),
            MAX_BATCHES_PER_CLASS + DEFAULT_MAX_PER_CLASS
        );

        let pool = VectorPool::arena().with_max_per_class(2);
        pool.warm_batches(dense, 2, 0, 5);
        pool.warm_sized(dense, 0, 5);
        assert_eq!(pool.parked_buffers(), 4);

        // Scalars are values: nothing to park.
        let pool = VectorPool::arena();
        pool.warm_sized(ColumnType::F32Scalar, 0, 4);
        assert_eq!(pool.parked_buffers(), 0);

        let off = VectorPool::disabled();
        off.warm_batches(dense, 2, 0, 5);
        off.warm_sized(dense, 0, 5);
        assert_eq!(off.parked_buffers(), 0);
    }

    #[test]
    fn a_class_owns_slots_for_what_it_parked_not_for_its_cap() {
        let dense = ColumnType::F32Dense { len: 4 };
        let pool = VectorPool::arena();
        assert_eq!(pool.class_bytes(), 0);
        pool.warm_sized(dense, 0, 3);
        pool.warm_batches(dense, 2, 0, 2);
        let warmed = pool.class_bytes();
        assert!(warmed > 0);
        // Room for four vectors and two batches, far below either cap.
        let cap_bytes = DEFAULT_MAX_PER_CLASS * std::mem::size_of::<Vector>();
        assert!(warmed * 16 < cap_bytes, "{warmed} B for 5 parked buffers");
        // Leasing and returning what is parked grows nothing.
        for _ in 0..10 {
            let v = pool.acquire(dense);
            let b = pool.acquire_batch(dense, 2);
            pool.release(v);
            pool.release_batch(b);
        }
        assert_eq!(pool.class_bytes(), warmed);
        // Parking more grows the class, up to its cap.
        pool.warm_sized(dense, 0, DEFAULT_MAX_PER_CLASS + 1);
        assert_eq!(pool.parked_buffers(), DEFAULT_MAX_PER_CLASS + 2);
        assert!(pool.class_bytes() > warmed);
    }

    #[test]
    fn retained_bytes_tracks_freelists() {
        let pool = VectorPool::arena();
        pool.release(Vector::Dense(Vec::with_capacity(10)));
        assert_eq!(pool.retained_bytes(), 40);
        let _ = pool.acquire(ColumnType::F32Dense { len: 0 });
        // Buffer with capacity 10 but length 0 lives in class 0.
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn batch_acquire_release_reuses_buffers() {
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len: 4 };
        let mut b = pool.acquire_batch(ty, 8);
        assert_eq!(pool.stats().misses(), 1);
        b.push_dense_row().unwrap()[0] = 3.0;
        pool.release_batch(b);
        let b2 = pool.acquire_batch(ty, 8);
        assert_eq!(pool.stats().hits(), 1);
        // Reused batches come back empty and type-stable.
        assert_eq!(b2.rows(), 0);
        assert_eq!(b2.column_type(), ty);
    }

    #[test]
    fn batch_classes_are_per_type() {
        let pool = VectorPool::arena();
        pool.release_batch(ColumnBatch::with_type(ColumnType::F32Dense { len: 4 }));
        let b = pool.acquire_batch(ColumnType::F32Dense { len: 8 }, 1);
        assert_eq!(b.column_type(), ColumnType::F32Dense { len: 8 });
        assert_eq!(pool.stats().misses(), 1);
    }

    #[test]
    fn disabled_pool_never_retains_batches() {
        let pool = VectorPool::disabled();
        let b = pool.acquire_batch(ColumnType::Text, 4);
        pool.release_batch(b);
        let _ = pool.acquire_batch(ColumnType::Text, 4);
        assert_eq!(pool.stats().hits(), 0);
        assert_eq!(pool.stats().misses(), 2);
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn batch_retained_bytes_counted() {
        let pool = VectorPool::arena();
        pool.release_batch(ColumnBatch::with_capacity_hint(
            ColumnType::F32Dense { len: 4 },
            8,
            0,
        ));
        assert!(pool.retained_bytes() >= 8 * 4 * 4);
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VectorPool>();
    }

    #[test]
    fn arena_pool_reuses_vectors_and_batches() {
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len: 8 };
        let v = pool.acquire(ty);
        assert_eq!(pool.stats().misses(), 1);
        pool.release(v);
        let v2 = pool.acquire(ty);
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(v2.column_type(), ty);

        let b = pool.acquire_batch(ColumnType::Text, 4);
        pool.release_batch(b);
        let b2 = pool.acquire_batch(ColumnType::Text, 4);
        assert_eq!(b2.rows(), 0);
        assert_eq!(pool.stats().hits(), 2);
        assert_eq!(pool.stats().misses(), 2);
    }

    #[test]
    fn arena_scalars_never_miss() {
        let pool = VectorPool::arena();
        let v = pool.acquire(ColumnType::F32Scalar);
        assert!(matches!(v, Vector::Scalar(_)));
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(pool.stats().misses(), 0);
        pool.release(v);
        assert_eq!(pool.stats().dropped(), 0);
    }

    #[test]
    fn arena_warm_batches_serve_zero_miss() {
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len: 16 };
        pool.warm_batches(ty, 64, 16, 2);
        let a = pool.acquire_batch(ty, 64);
        let b = pool.acquire_batch(ty, 64);
        assert_eq!(pool.stats().misses(), 0, "warm arena serves miss-free");
        assert_eq!(pool.stats().hits(), 2);
        pool.release_batch(a);
        pool.release_batch(b);
    }

    #[test]
    fn arena_retained_bytes_tracks_stacks() {
        let pool = VectorPool::arena();
        pool.release(Vector::Dense(Vec::with_capacity(10)));
        assert_eq!(pool.retained_bytes(), 40);
        let _ = pool.acquire(ColumnType::F32Dense { len: 0 });
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn arena_spills_to_global_fallback_and_refills() {
        let global = Arc::new(VectorPool::arena());
        let pool = VectorPool::arena()
            .with_max_per_class(1)
            .with_fallback(Arc::clone(&global));
        let ty = ColumnType::F32Dense { len: 4 };
        // Two releases into a 1-cap arena: the second spills to global
        // instead of dropping.
        pool.release(Vector::Dense(vec![0.0; 4]));
        pool.release(Vector::Dense(vec![0.0; 4]));
        assert_eq!(pool.stats().dropped(), 0, "spill, not drop");
        assert_eq!(global.retained_bytes(), 16);
        // Two acquires: arena first, then refill from global — all hits.
        let _a = pool.acquire(ty);
        let _b = pool.acquire(ty);
        assert_eq!(pool.stats().hits(), 2);
        assert_eq!(pool.stats().misses(), 0);
        assert_eq!(global.retained_bytes(), 0);
        // Global's own counters never moved: the arena tells the story.
        assert_eq!(global.stats().hits() + global.stats().misses(), 0);
    }

    /// Cross-core return: a "thief" thread that finished a stolen chunk
    /// pushes the buffers back into the owning arena, then the owner's
    /// next lease hits them — no locks, no misses.
    #[test]
    fn arena_cross_thread_return_then_owner_hit() {
        let pool = Arc::new(VectorPool::arena());
        let ty = ColumnType::F32Dense { len: 32 };
        let owned = pool.acquire_batch(ty, 8); // owner leases (miss: cold)
        let thief_pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            // The stolen chunk completes on the thief; its working set
            // returns to the owner's arena from the thief's thread.
            thief_pool.release_batch(owned);
        })
        .join()
        .unwrap();
        let again = pool.acquire_batch(ty, 8);
        assert_eq!(pool.stats().hits(), 1, "remote return is leasable");
        assert_eq!(again.rows(), 0);
    }

    /// Barrier-scheduled steal-vs-return on pool buffers: an owner returns
    /// working sets while a thief concurrently leases from the same arena,
    /// in lockstep rounds; every buffer is leased, parked or dropped, never
    /// lost or counted twice.
    #[test]
    fn arena_barrier_interleaved_steal_vs_return() {
        const ROUNDS: usize = 100;
        const PER_ROUND: usize = 4;
        let pool = Arc::new(VectorPool::arena());
        let ty = ColumnType::F32Dense { len: 8 };
        let barrier = Arc::new(Barrier::new(2));
        let owner = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..PER_ROUND {
                        pool.release_batch(ColumnBatch::with_capacity_hint(ty, 8, 0));
                    }
                    barrier.wait();
                }
            })
        };
        let mut leased = Vec::new();
        for _ in 0..ROUNDS {
            barrier.wait();
            // Lease concurrently with the owner's returns.
            for _ in 0..PER_ROUND / 2 {
                leased.push(pool.acquire_batch(ty, 8));
            }
            barrier.wait();
        }
        owner.join().unwrap();
        for b in leased.drain(..) {
            pool.release_batch(b);
        }
        let s = pool.stats();
        // Conservation: every lease was served or allocated, every return
        // parked, spilled nowhere (no fallback), or dropped at cap.
        assert_eq!(s.hits() + s.misses(), (ROUNDS * PER_ROUND / 2) as u64);
        assert!(s.released() >= (ROUNDS * PER_ROUND) as u64);
        // The owner's fresh batches and the thief's misses all came home.
        let made = (ROUNDS * PER_ROUND) as u64 + s.misses();
        assert_eq!(pool.parked_buffers() as u64 + s.dropped(), made);
        assert!(pool.parked_buffers() <= MAX_BATCHES_PER_CLASS);
    }

    /// More distinct classes than a pool tracks: the classes past the
    /// bound get no free list, so their acquires miss and their releases
    /// drop, and the lease accounting still balances.
    #[test]
    fn a_full_directory_allocates_and_drops_past_the_bound() {
        const EXTRA: usize = 8;
        let ty = |len| ColumnType::F32Dense { len };
        let one = VectorPool::arena();
        one.release(one.acquire(ty(1)));
        let pool = VectorPool::arena();
        let widths = 1..=DIR_SLOTS + EXTRA;
        for len in widths.clone() {
            pool.release(pool.acquire(ty(len)));
        }
        let s = pool.stats();
        assert_eq!(s.misses(), (DIR_SLOTS + EXTRA) as u64, "a cold pool misses");
        assert_eq!(s.dropped(), EXTRA as u64, "no class past the bound");
        assert_eq!(pool.parked_buffers(), DIR_SLOTS);
        assert_eq!(pool.lists.lock().vectors.len(), DIR_SLOTS);
        let leased: Vec<Vector> = widths.map(|len| pool.acquire(ty(len))).collect();
        assert_eq!(s.hits(), DIR_SLOTS as u64, "every published class serves");
        assert_eq!(s.misses(), (DIR_SLOTS + 2 * EXTRA) as u64);
        for v in leased {
            pool.release(v);
        }
        assert_eq!(s.dropped(), 2 * EXTRA as u64);
        assert_eq!(s.outstanding(), 0);
        // One list entry per tracked class, none for the classes past the bound.
        assert_eq!(pool.class_bytes(), DIR_SLOTS * one.class_bytes());
    }

    /// Threads releasing into one fresh class at once all find the one
    /// free list the first of them made, also while other fresh classes
    /// widen the class map under them.
    #[test]
    fn first_use_of_a_class_publishes_one_stack() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 100;
        const OTHER_CLASSES: usize = 30;
        let pool = Arc::new(VectorPool::arena());
        let dense = |len| ColumnType::F32Dense { len };
        let barrier = Arc::new(Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let fresh: Vec<Vector> = (0..PER_THREAD)
                        .flat_map(|i| {
                            [7].into_iter()
                                .chain((i < OTHER_CLASSES).then_some(100 + i))
                        })
                        .map(|len| Vector::with_type(dense(len)))
                        .collect();
                    barrier.wait();
                    for v in fresh {
                        pool.release(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.lists.lock().vectors.len(), 1 + OTHER_CLASSES);
        let s = pool.stats();
        assert_eq!(
            s.released(),
            (THREADS * (PER_THREAD + OTHER_CLASSES)) as u64
        );
        assert_eq!(
            pool.parked_buffers() as u64 + s.dropped(),
            s.released(),
            "every release parked or dropped"
        );
        assert!(pool.free_len::<Vector>(dense(7)) <= DEFAULT_MAX_PER_CLASS);
        assert_eq!(
            pool.parked_buffers(),
            pool.free_len::<Vector>(dense(7)) + THREADS * OTHER_CLASSES
        );
    }

    /// Four threads lease and return vectors and batches across two arenas
    /// that share one fallback, with caps small enough that releases spill
    /// and drop. Every buffer is made by a miss and ends parked somewhere
    /// or dropped, and each pool's retained bytes are exactly the bytes of
    /// what it parks.
    #[test]
    fn concurrent_storm_across_arenas_conserves_buffers() {
        const THREADS: usize = 4;
        const OPS: usize = 2000;
        let text = ColumnType::Text;
        let dense = ColumnType::F32Dense { len: 4 };
        let global = Arc::new(VectorPool::arena().with_max_per_class(3));
        let arenas: Vec<Arc<VectorPool>> = (0..2)
            .map(|_| {
                Arc::new(
                    VectorPool::arena()
                        .with_max_per_class(2)
                        .with_fallback(Arc::clone(&global)),
                )
            })
            .collect();
        let barrier = Arc::new(Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let arenas = arenas.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..OPS {
                        let pool = &arenas[(t + i) % 2];
                        let mut v = pool.acquire(text);
                        if let Vector::Text(s) = &mut v {
                            // Parked text keeps its capacity, so retained
                            // bytes vary from buffer to buffer.
                            s.push_str(&"x".repeat(i % 97));
                        }
                        let held: Vec<ColumnBatch> = (0..1 + i % 4)
                            .map(|_| pool.acquire_batch(dense, 2))
                            .collect();
                        pool.release(v);
                        held.into_iter().for_each(|b| pool.release_batch(b));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (mut made, mut dropped) = (0, 0);
        for arena in &arenas {
            let s = arena.stats();
            assert_eq!(s.outstanding(), 0);
            made += s.misses();
            dropped += s.dropped();
        }
        assert_eq!(global.stats().hits() + global.stats().misses(), 0);
        let mut parked = 0;
        for pool in arenas.iter().chain([&global]) {
            let retained = pool.retained_bytes();
            let mut bytes = 0;
            while let Some(v) = pool.take::<Vector>(text) {
                bytes += v.heap_bytes();
                parked += 1;
            }
            while let Some(b) = pool.take::<ColumnBatch>(dense) {
                bytes += b.heap_bytes();
                parked += 1;
            }
            assert_eq!(retained, bytes, "retained bytes are what is parked");
            assert_eq!((pool.retained_bytes(), pool.parked_buffers()), (0, 0));
        }
        assert!(dropped > 0, "the caps were small enough to drop");
        assert_eq!(parked + dropped, made, "every buffer parked or dropped");
    }
}
