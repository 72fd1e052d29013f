//! Byte-budgeted LRU map.
//!
//! Used by the FrontEnd's prediction-result cache (the paper evicts cached
//! results the same way: "a simple Least Recently Used strategy ... to
//! evict results when a given memory threshold is met", §4.3) and by the
//! Clipper baseline's prediction cache.
//!
//! Classic design: a slab of entries doubly linked in recency order plus a
//! `HashMap` from key to slab index. All operations are O(1) expected.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    cost: usize,
    prev: usize,
    next: usize,
}

/// An LRU map bounded by a total cost budget (e.g. bytes).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    budget: usize,
    used: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache with the given total cost budget.
    pub fn new(budget: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            budget,
            used: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current total cost of cached entries.
    pub fn used_cost(&self) -> usize {
        self.used
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Fetches `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(&self.slab[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value` with the given cost, evicting LRU entries as
    /// needed. An entry costlier than the whole budget is not cached.
    /// Replaces any existing entry for the key.
    pub fn insert(&mut self, key: K, value: V, cost: usize) {
        if cost > self.budget {
            return;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.used = self.used - self.slab[idx].cost + cost;
            self.slab[idx].value = value;
            self.slab[idx].cost = cost;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
        } else {
            let entry = Entry {
                key: key.clone(),
                value,
                cost,
                prev: NIL,
                next: NIL,
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i] = entry;
                    i
                }
                None => {
                    self.slab.push(entry);
                    self.slab.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.push_front(idx);
            self.used += cost;
        }
        while self.used > self.budget {
            self.evict_one();
        }
    }

    fn evict_one(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "over budget with empty cache");
        if idx == NIL {
            return;
        }
        self.unlink(idx);
        self.map.remove(&self.slab[idx].key);
        self.used -= self.slab[idx].cost;
        self.free.push(idx);
        self.evictions += 1;
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.used -= self.slab[idx].cost;
        self.free.push(idx);
        Some(std::mem::take(&mut self.slab[idx].value))
    }

    /// Drops every entry, keeping the budget.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip() {
        let mut c: LruCache<u32, String> = LruCache::new(100);
        c.insert(1, "a".into(), 10);
        assert_eq!(c.get(&1), Some(&"a".to_string()));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.used_cost(), 10);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        c.insert(1, 1, 10);
        c.insert(2, 2, 10);
        c.insert(3, 3, 10);
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(&1).is_some());
        c.insert(4, 4, 10);
        assert_eq!(c.get(&2), None, "2 was LRU and must be evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let mut c: LruCache<u32, u32> = LruCache::new(5);
        c.insert(1, 1, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn replace_updates_cost() {
        let mut c: LruCache<u32, u32> = LruCache::new(20);
        c.insert(1, 1, 10);
        c.insert(1, 2, 5);
        assert_eq!(c.used_cost(), 5);
        assert_eq!(c.get(&1), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replacement_can_trigger_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(20);
        c.insert(1, 1, 10);
        c.insert(2, 2, 10);
        // Growing key 2 pushes the total over budget; key 1 (LRU) must go.
        c.insert(2, 3, 20);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&3));
    }

    #[test]
    fn remove_frees_budget() {
        let mut c: LruCache<u32, u32> = LruCache::new(20);
        c.insert(1, 7, 10);
        assert_eq!(c.remove(&1), Some(7));
        assert_eq!(c.used_cost(), 0);
        assert_eq!(c.remove(&1), None);
        // Freed slab slots are reused.
        c.insert(2, 8, 10);
        assert_eq!(c.get(&2), Some(&8));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c: LruCache<u32, u32> = LruCache::new(50);
        for i in 0..5 {
            c.insert(i, i, 10);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_cost(), 0);
        for i in 0..5 {
            assert_eq!(c.get(&i), None);
        }
    }

    #[test]
    fn heavy_churn_respects_budget() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        for i in 0..10_000u32 {
            c.insert(i, i, 1 + (i % 7) as usize);
            assert!(c.used_cost() <= 100);
        }
        assert!(!c.is_empty());
        // The most recent key is always retained.
        assert_eq!(c.get(&9999), Some(&9999));
    }
}
