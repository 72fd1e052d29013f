//! Slot allocation in the pools' free lists, checked through the public
//! [`VectorPool`](crate::pool::VectorPool) API: a size class hands buffers
//! back in LIFO order and never parks more than its cap, it owns free-list
//! room only for what it has parked, and an owner's returns racing a
//! thief's leases neither lose nor duplicate a buffer.

#[cfg(test)]
mod tests {
    use crate::batch::ColumnBatch;
    use crate::pool::VectorPool;
    use crate::schema::ColumnType;
    use crate::vector::Vector;
    use std::sync::{Arc, Barrier};

    /// A text buffer told apart from the others by its capacity.
    fn text(capacity: usize) -> Vector {
        Vector::Text(String::with_capacity(capacity))
    }

    /// The capacity of the text buffer `pool` leases next.
    fn lease(pool: &VectorPool) -> usize {
        pool.acquire(ColumnType::Text).heap_bytes()
    }

    #[test]
    fn push_pop_lifo_and_capacity_bound() {
        let pool = VectorPool::arena().with_max_per_class(2);
        for capacity in [8, 16, 24] {
            pool.release(text(capacity));
        }
        assert_eq!(pool.stats().dropped(), 1, "a full class drops the third");
        assert_eq!(pool.parked_buffers(), 2);
        assert_eq!(pool.retained_bytes(), 24);
        assert_eq!(lease(&pool), 16, "LIFO order");
        assert_eq!(lease(&pool), 8);
        assert_eq!((pool.parked_buffers(), pool.retained_bytes()), (0, 0));
        assert_eq!(lease(&pool), 0, "a dry class allocates");
        assert_eq!((pool.stats().hits(), pool.stats().misses()), (2, 1));

        // Over a fallback, what the full class hands back spills there,
        // and a lease refills from it only once the class is dry.
        let global = Arc::new(VectorPool::arena().with_max_per_class(1));
        let arena = VectorPool::arena()
            .with_max_per_class(1)
            .with_fallback(Arc::clone(&global));
        for capacity in [8, 16, 24] {
            arena.release(text(capacity));
        }
        assert_eq!(arena.stats().dropped(), 1, "both caps hold");
        assert_eq!((arena.parked_buffers(), global.parked_buffers()), (1, 1));
        assert_eq!(lease(&arena), 8);
        assert_eq!(lease(&arena), 16);
        assert_eq!(lease(&arena), 0);
        assert_eq!((arena.stats().hits(), arena.stats().misses()), (2, 1));
        assert_eq!(global.parked_buffers(), 0);
    }

    #[test]
    fn slots_are_allocated_as_values_need_them() {
        let slot = std::mem::size_of::<Vector>();
        let pool = VectorPool::arena();
        assert_eq!(pool.class_bytes(), 0, "an empty pool owns no slot");
        for capacity in 1..=3 {
            pool.release(text(capacity));
        }
        assert_eq!(pool.class_bytes(), 4 * slot, "room of 1, 2, then 4");
        // Cycling within what is parked allocates nothing more.
        for _ in 0..100 {
            let v = pool.acquire(ColumnType::Text);
            pool.release(v);
        }
        assert_eq!(pool.class_bytes(), 4 * slot);
        // Batches are a family of their own, with slots of their own size.
        let dense = ColumnType::F32Dense { len: 4 };
        for _ in 0..3 {
            pool.release_batch(ColumnBatch::with_type(dense));
        }
        let batch_slot = std::mem::size_of::<ColumnBatch>();
        assert_eq!(pool.class_bytes(), 4 * slot + 4 * batch_slot);

        // The last growth is cut at the cap, and a drained class keeps the
        // room of what it once parked, no more.
        let odd = VectorPool::arena().with_max_per_class(5);
        for capacity in 1..=6 {
            odd.release(text(capacity));
        }
        assert_eq!(odd.stats().dropped(), 1, "the cap still bounds it");
        assert_eq!(odd.class_bytes(), 5 * slot);
        let drained: Vec<usize> = (0..5).map(|_| lease(&odd)).collect();
        assert_eq!(drained, [5, 4, 3, 2, 1]);
        assert_eq!(odd.parked_buffers(), 0);
        assert_eq!(odd.class_bytes(), 5 * slot);
    }

    /// Barrier-scheduled steal-vs-return interleaving: an "owner" thread
    /// returns buffers to the arena while a "thief" concurrently leases
    /// from it, round by round. Each buffer must be leased by exactly one
    /// lease per circulation (capacities are unique across rounds).
    #[test]
    fn barrier_interleaved_steal_vs_return() {
        const ROUNDS: usize = 200;
        const PER_ROUND: usize = 8;
        let pool = Arc::new(VectorPool::arena().with_max_per_class(PER_ROUND));
        let barrier = Arc::new(Barrier::new(2));
        let owner = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    for k in 0..PER_ROUND {
                        // Returns race the thief's leases below.
                        pool.release(text(round * PER_ROUND + k + 1));
                    }
                    barrier.wait();
                }
            })
        };
        let mut seen = std::collections::HashSet::new();
        for round in 0..ROUNDS {
            barrier.wait();
            let (lo, hi) = (round * PER_ROUND + 1, (round + 1) * PER_ROUND);
            let mut got = 0;
            while got < PER_ROUND {
                // Only this thread leases, so a parked buffer is a hit.
                if pool.parked_buffers() == 0 {
                    std::thread::yield_now();
                    continue;
                }
                let capacity = lease(&pool);
                assert!(
                    (lo..=hi).contains(&capacity),
                    "round {round}: stale {capacity}"
                );
                assert!(seen.insert(capacity), "buffer {capacity} leased twice");
                got += 1;
            }
            barrier.wait();
        }
        owner.join().unwrap();
        assert_eq!(seen.len(), ROUNDS * PER_ROUND);
        let s = pool.stats();
        assert_eq!((s.hits(), s.misses()), ((ROUNDS * PER_ROUND) as u64, 0));
        assert_eq!(s.dropped(), 0, "the cap was never passed");
        assert_eq!((pool.parked_buffers(), pool.retained_bytes()), (0, 0));
    }
}
