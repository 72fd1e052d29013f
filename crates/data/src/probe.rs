//! Flat open-addressing probe table for prehashed `u64` keys.
//!
//! The n-gram featurizers of the SA pipelines probe million-entry
//! dictionaries once per candidate window (paper Figure 1, Table 1), and
//! the dominant outcome is a **miss**: most windows of real text are not
//! dictionary entries. A general-purpose `HashMap` pays for that miss with
//! group-probing machinery sized for arbitrary keys; this table is
//! purpose-built for the one case the matching kernels have — keys that
//! are already good 64-bit hashes, a table built once and never mutated on
//! the serving path — and optimizes the miss:
//!
//! * **power-of-two, load ≤ 0.5** open addressing with linear probing, so
//!   the home-slot index is one multiply+shift away from the key and
//!   chains stay short;
//! * a **one-hash bit filter** in front, ≥ 16 bits per key: the filter bit
//!   is indexed by the top `log2(capacity) + 3` bits of the key's Fibonacci
//!   product — the home slot's index bits plus the next three — so it is
//!   a property of the *key*, not of a slot, and a key displaced down a
//!   chain still has its own bit. A miss passes it with probability
//!   ≤ 1/16 (against ≈ load factor for a per-slot occupancy test), so the
//!   data-dependent branches of the slot walk run almost only for hits;
//! * [`FlatProbeTable::probe_each`], the bulk entry point, tests the
//!   filter for a whole block of keys **without branching** (`out[n] = i;
//!   n += bit`) and confirms only the survivors, in order;
//! * **interleaved `(hash, value)` slots**: the full 64-bit hash is both
//!   membership tag and confirmation and shares its cache line with the
//!   value, so a probe that survives the filter touches exactly one slot
//!   cache line on the fast path;
//! * an **occupancy bitmap** (1 bit per slot) that terminates chains and
//!   a **byte-tag lane scanned 16 slots at a time** for the chains the
//!   fast path cannot settle: once a probe mismatches two slots it is in
//!   long-chain territory, where an SSE2 `_mm_cmpeq_epi8`/`movemask`
//!   sweep over a whole 16-slot tag group per step beats walking slots
//!   one 16-byte line at a time. The tag lane is deliberately **not**
//!   consulted by the one-/two-slot fast path — an earlier always-on
//!   byte-tag design was measured and rejected because it turned every
//!   cold probe into two line fills;
//! * the slot index is a pure function of the key, so the bulk probe
//!   **software-prefetches** every survivor's slot before confirming the
//!   first one when the table spills cache. Whether it does is decided
//!   against the startup-calibrated threshold in [`crate::calibrate`].

/// Fibonacci-hashing multiplier (2^64 / φ).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots per tag-group scan step (one SSE2 register of byte tags).
const GROUP: usize = 16;

/// log2 of the filter bits per slot: the filter index extends the home
/// index by this many more bits of the same product.
const FILTER_SHIFT: u32 = 3;

/// Keys per block of [`FlatProbeTable::probe_each`]: survivor positions
/// fit a byte, and a block's keys and survivors stay in L1.
const BLOCK: usize = 256;

/// A build-once, probe-many open-addressing table keyed by prehashed
/// `u64`s. First insert per key wins (the n-gram dictionary's stable-index
/// rule); there is no removal, so probe chains never cross tombstones.
///
/// Storage is an interleaved `(hash, value)` slot array behind the bit
/// filter, plus an occupancy bitmap and a byte-tag lane consulted only
/// down a chain: a miss the filter rejects touches no slot at all, and
/// the fast path (home slot, one overflow slot) touches exactly **one**
/// slot cache line.
#[derive(Debug, Clone)]
pub struct FlatProbeTable {
    /// `capacity - 1`; capacity is a power of two ≥ 2.
    mask: usize,
    /// `64 - log2(capacity)`: Fibonacci hashing takes the top bits.
    shift: u32,
    /// Interleaved slots; a slot is occupied iff its bitmap bit is set.
    slots: Box<[Slot]>,
    /// The bit filter: `1 << FILTER_SHIFT` bits per slot (so ≥ 16 per
    /// key at load ≤ 0.5), with bit `product >> (shift - FILTER_SHIFT)`
    /// set for every stored key; a power-of-two word count. 16× smaller
    /// than the slot array, so it stays cache-resident when the slots
    /// cannot.
    filter: Box<[u64]>,
    /// Occupancy bitmap, one bit per slot: the empty-slot oracle for
    /// chain termination.
    bitmap: Box<[u64]>,
    /// One tag byte per slot (a secondary byte of the Fibonacci product),
    /// read **only** by the ≥ 2-step chain scan, 16 at a time.
    tags: Box<[u8]>,
    /// Precomputed: the table spills the fast cache levels — per the
    /// startup-calibrated threshold of [`crate::calibrate`] — so the bulk
    /// probe prefetches survivors' slots.
    prefetch_pays: bool,
    len: usize,
}

/// One slot: full key hash (membership + confirmation) and its value.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    hash: u64,
    val: u32,
}

impl FlatProbeTable {
    /// Creates a table sized for `entries` keys at load factor ≤ 0.5
    /// (power-of-two snapping keeps typical loads near 0.25–0.5). The low
    /// load is deliberate and measured: chains stay short and the filter,
    /// sized from the slot count, gets its ≥ 16 bits per key — a tighter
    /// 0.625 variant (hashbrown-parity footprint) cost the matching path
    /// its entire end-to-end win.
    pub fn with_capacity(entries: usize) -> Self {
        Self::with_slot_count(Self::slots_for(entries))
    }

    /// Heap bytes of a table [`Self::with_capacity`]`(entries)` once its
    /// keys are in, without building it: what a window-indexed n-gram
    /// dictionary compares its cells against.
    pub fn heap_bytes_for(entries: usize) -> usize {
        Self::slot_bytes(Self::slots_for(entries))
    }

    /// Slot count for `entries` keys at load factor ≤ 0.5.
    fn slots_for(entries: usize) -> usize {
        entries.saturating_mul(2).next_power_of_two().max(2)
    }

    /// Filter words of a table of `capacity` slots.
    fn filter_words(capacity: usize) -> usize {
        (capacity << FILTER_SHIFT).div_ceil(64)
    }

    /// Heap bytes of a table of `capacity` slots: slots, tag lane, bitmap
    /// and filter.
    fn slot_bytes(capacity: usize) -> usize {
        capacity * (std::mem::size_of::<Slot>() + 1)
            + (capacity.div_ceil(64) + Self::filter_words(capacity)) * 8
    }

    /// Allocates a table with exactly `capacity` slots (power of two ≥ 2).
    fn with_slot_count(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two() && capacity >= 2);
        let filter_words = Self::filter_words(capacity);
        debug_assert!(filter_words.is_power_of_two());
        let heap = Self::slot_bytes(capacity);
        FlatProbeTable {
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            slots: vec![Slot::default(); capacity].into_boxed_slice(),
            filter: vec![0u64; filter_words].into_boxed_slice(),
            bitmap: vec![0u64; capacity.div_ceil(64)].into_boxed_slice(),
            tags: vec![0u8; capacity].into_boxed_slice(),
            prefetch_pays: heap > crate::calibrate::prefetch_threshold(),
            len: 0,
        }
    }

    /// Builds a table from `(hash, value)` pairs, first pair per hash wins.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u32)>) -> Self {
        // Sized from the collected length: a filtered or mapped iterator's
        // lower size hint is 0, which would regrow log2(n) times.
        let pairs: Vec<(u64, u32)> = pairs.into_iter().collect();
        let mut t = FlatProbeTable::with_capacity(pairs.len());
        for (h, v) in pairs {
            t.insert_first(h, v);
        }
        t
    }

    /// Builds a table at an explicit load factor (clamped to keep at least
    /// one empty slot, which probe termination relies on) instead of the
    /// serving-path ≤ 0.5 bound. Chains get long well before load 0.9 —
    /// this is how tests and microbenches exercise the group-scan path
    /// without million-entry fixtures.
    pub fn from_pairs_with_load(pairs: impl IntoIterator<Item = (u64, u32)>, load: f64) -> Self {
        let pairs: Vec<(u64, u32)> = pairs.into_iter().collect();
        let load = load.clamp(0.05, 0.95);
        let capacity = ((pairs.len() as f64 / load).ceil() as usize)
            .max(pairs.len() + 1)
            .next_power_of_two()
            .max(2);
        let mut t = FlatProbeTable::with_slot_count(capacity);
        for (h, v) in pairs {
            t.insert_no_grow(h, v);
        }
        t
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        // Fibonacci hashing: one multiply spreads any residual structure
        // of the key across the top `log2(cap)` bits the index uses.
        (hash.wrapping_mul(GOLDEN) >> self.shift) as usize & self.mask
    }

    /// The key's filter bit position: the home index bits and the next
    /// [`FILTER_SHIFT`] bits of the same product.
    #[inline]
    fn filter_pos(&self, hash: u64) -> usize {
        (hash.wrapping_mul(GOLDEN) >> (self.shift - FILTER_SHIFT)) as usize
    }

    /// The filter's verdict: `false` means `hash` is certainly not stored;
    /// `true` for every stored key and for ≤ 1/16 of the others.
    #[inline]
    pub fn may_contain(&self, hash: u64) -> bool {
        self.filter_bit(self.filter_pos(hash)) != 0
    }

    /// The filter bit at `pos`, as 0 or 1 for branch-free counting. A set
    /// bit implies that slot `pos >> FILTER_SHIFT` is occupied: it is the
    /// home of some stored key.
    #[inline]
    fn filter_bit(&self, pos: usize) -> usize {
        // The word count is a power of two covering every position, so the
        // `&` changes no index; it is what lets the bulk loop drop the
        // bounds check.
        let word = self.filter[(pos >> 6) & (self.filter.len() - 1)];
        (word >> (pos & 63)) as usize & 1
    }

    /// The group-scan tag: a byte of the same Fibonacci product the home
    /// index comes from, taken below the index bits so adversarial keys
    /// that collide on the home slot still usually differ in tag.
    #[inline]
    fn tag_of(hash: u64) -> u8 {
        (hash.wrapping_mul(GOLDEN) >> 8) as u8
    }

    #[inline]
    fn occupied(&self, i: usize) -> bool {
        self.bitmap[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Inserts `(hash, val)` if `hash` is absent; returns `false` (keeping
    /// the resident value) when the key was already present. Grows by
    /// rebuilding when the 0.5 load bound would be exceeded — tables are
    /// built offline (dictionary construction), never on the serving path.
    pub fn insert_first(&mut self, hash: u64, val: u32) -> bool {
        if (self.len + 1) * 2 > self.capacity() {
            self.grow();
        }
        self.insert_no_grow(hash, val)
    }

    /// The insert body, without the load-bound grow: also used by
    /// [`FlatProbeTable::from_pairs_with_load`] to build beyond load 0.5.
    fn insert_no_grow(&mut self, hash: u64, val: u32) -> bool {
        debug_assert!(self.len < self.capacity(), "no empty slot left");
        let pos = self.filter_pos(hash);
        self.filter[pos >> 6] |= 1u64 << (pos & 63);
        let mut i = self.home(hash);
        loop {
            if !self.occupied(i) {
                self.slots[i] = Slot { hash, val };
                self.tags[i] = Self::tag_of(hash);
                self.bitmap[i >> 6] |= 1u64 << (i & 63);
                self.len += 1;
                return true;
            }
            if self.slots[i].hash == hash {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        // `capacity + 1` entries always snaps to the next power of two, so
        // every grow at least doubles (including the minimum-size table).
        let mut bigger = FlatProbeTable::with_capacity(self.capacity() + 1);
        for (i, s) in self.slots.iter().enumerate() {
            if self.occupied(i) {
                bigger.insert_first(s.hash, s.val);
            }
        }
        *self = bigger;
    }

    /// Probes `hash`, returning its value if present: the filter bit
    /// first, which rejects ≥ 15 of 16 misses without touching a slot.
    #[inline]
    pub fn probe(&self, hash: u64) -> Option<u32> {
        let pos = self.filter_pos(hash);
        if self.filter_bit(pos) == 0 {
            return None;
        }
        self.confirm(pos >> FILTER_SHIFT, hash)
    }

    /// Probes every key of `hashes` and streams the values of the hits in
    /// order. Per block of `BLOCK` keys: the filter bit of every key is
    /// tested with no branch, compacting the positions of the keys that
    /// pass; only those — the hits and ≤ 1/16 of the misses — take the
    /// slot walk and its data-dependent branches, their slots prefetched
    /// first when the table spills cache.
    #[inline]
    pub fn probe_each(&self, hashes: &[u64], mut f: impl FnMut(u32)) {
        for block in hashes.chunks(BLOCK) {
            let mut pass = [0u8; BLOCK];
            let mut n = 0usize;
            for (i, &h) in block.iter().enumerate() {
                pass[n % BLOCK] = i as u8; // n <= i < BLOCK
                n += self.filter_bit(self.filter_pos(h));
            }
            let pass = &pass[..n];
            if self.prefetch_pays {
                for &i in pass {
                    self.prefetch(block[i as usize]);
                }
            }
            for &i in pass {
                let hash = block[i as usize];
                if let Some(val) = self.confirm(self.home(hash), hash) {
                    f(val);
                }
            }
        }
    }

    /// The slot walk behind the filter, from `hash`'s home slot `i`: at
    /// most two slot compares on the fast path, so the overwhelmingly
    /// common short probes never touch the tag lane; only a chain that
    /// survives both falls through to [`Self::probe_chain`]. `hash`'s
    /// filter bit must be set — that is what makes the home slot known to
    /// be occupied.
    #[inline]
    fn confirm(&self, i: usize, hash: u64) -> Option<u32> {
        debug_assert!(i == self.home(hash) && self.occupied(i));
        if self.slots[i].hash == hash {
            return Some(self.slots[i].val);
        }
        let j = (i + 1) & self.mask;
        if !self.occupied(j) {
            return None;
        }
        if self.slots[j].hash == hash {
            return Some(self.slots[j].val);
        }
        self.probe_chain((j + 1) & self.mask, hash)
    }

    /// Continues a probe chain from slot `start` (the third slot of the
    /// chain; `start`'s occupancy has not been checked yet). Dispatches to
    /// the 16-wide tag-group scan when SIMD is enabled and the table has
    /// at least one full group; the scalar walk is the fallback and the
    /// bitwise-equivalence control.
    #[cold]
    fn probe_chain(&self, start: usize, hash: u64) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if self.capacity() >= GROUP && crate::simd::probe_simd() {
            // SAFETY: SSE2 is baseline on x86_64; capacity checked ≥ GROUP.
            return unsafe { self.probe_chain_sse2(start, hash) };
        }
        self.probe_chain_scalar(start, hash)
    }

    /// The scalar chain walk: one slot per step, terminated by the first
    /// empty slot. Exactly the pre-SIMD loop.
    fn probe_chain_scalar(&self, start: usize, hash: u64) -> Option<u32> {
        let mut i = start;
        loop {
            if !self.occupied(i) {
                return None;
            }
            if self.slots[i].hash == hash {
                return Some(self.slots[i].val);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The 16 occupancy bits covering the 16-aligned group at `group`.
    /// Capacity is a power of two ≥ 16 here, so an aligned group never
    /// straddles a bitmap word.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn occ16(&self, group: usize) -> u32 {
        ((self.bitmap[group >> 6] >> (group & 63)) & 0xffff) as u32
    }

    /// Swiss-table-style chain scan: per step, compare one 16-slot group's
    /// byte tags against the key's tag in one `_mm_cmpeq_epi8` and check
    /// the group's 16 occupancy bits, then confirm tag candidates (in
    /// ascending slot order, so first-wins duplicates resolve exactly like
    /// the scalar walk) against the full 64-bit hash. Candidates at or
    /// past the group's first empty slot are masked out — the scalar walk
    /// would have stopped there — which also terminates the scan.
    ///
    /// # Safety
    /// Requires SSE2 (baseline on x86_64) and `capacity() >= GROUP`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn probe_chain_sse2(&self, start: usize, hash: u64) -> Option<u32> {
        use std::arch::x86_64::*;
        let needle = _mm_set1_epi8(Self::tag_of(hash) as i8);
        let mut group = start & !(GROUP - 1);
        // Slots of the first group before `start` belong to earlier chain
        // positions the fast path already handled; mask them out.
        let mut window = (0xffffu32 << (start & (GROUP - 1))) & 0xffff;
        loop {
            let occ = self.occ16(group);
            let tags = _mm_loadu_si128(self.tags.as_ptr().add(group).cast());
            let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(tags, needle)) as u32;
            let empties = !occ & window;
            // The chain the scalar walk would traverse ends at the first
            // empty slot in the window; only candidates before it count.
            let in_chain = if empties != 0 {
                window & ((1u32 << empties.trailing_zeros()) - 1)
            } else {
                window
            };
            let mut cand = eq & occ & in_chain;
            while cand != 0 {
                let pos = group + cand.trailing_zeros() as usize;
                if self.slots[pos].hash == hash {
                    return Some(self.slots[pos].val);
                }
                cand &= cand - 1;
            }
            if empties != 0 {
                return None;
            }
            group = (group + GROUP) & self.mask;
            window = 0xffff;
        }
    }

    /// Prefetches the home slot of `hash` into L1, so the dependent loads
    /// of a block's survivors overlap. (The tag lane is not prefetched:
    /// only ≥ 2-step chains read it, and prefetching it for every
    /// survivor would recreate the two-line-fill cost the lazy tag design
    /// exists to avoid.)
    #[inline]
    fn prefetch(&self, hash: u64) {
        let i = self.home(hash);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `i <= mask`, so the pointer is in-bounds of the slot
        // allocation; prefetch has no architectural effect beyond caches.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.slots.as_ptr().add(i).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: in-bounds pointer; PRFM is a hint with no side effects.
        unsafe {
            let slot_ptr = self.slots.as_ptr().add(i);
            std::arch::asm!(
                "prfm pldl1keep, [{s}]",
                s = in(reg) slot_ptr,
                options(nostack, preserves_flags),
            );
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = i;
    }

    /// Heap bytes of the table (slot array + filter + bitmap + tag lane).
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + (self.filter.len() + self.bitmap.len()) * 8
            + self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;

    #[test]
    fn empty_table_misses_everything() {
        let t = FlatProbeTable::with_capacity(0);
        assert!(t.is_empty());
        for h in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(t.probe(h), None);
        }
    }

    #[test]
    fn inserted_keys_are_found_and_first_wins() {
        let mut t = FlatProbeTable::with_capacity(4);
        assert!(t.insert_first(42, 7));
        assert!(!t.insert_first(42, 9), "duplicate hash keeps first value");
        assert_eq!(t.probe(42), Some(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = FlatProbeTable::with_capacity(1);
        for k in 0..1000u64 {
            t.insert_first(splitmix64(k), k as u32);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity() >= 2000);
        for k in 0..1000u64 {
            assert_eq!(t.probe(splitmix64(k)), Some(k as u32), "key {k}");
        }
        for k in 1000..2000u64 {
            assert_eq!(t.probe(splitmix64(k)), None, "absent key {k}");
        }
    }

    #[test]
    fn adversarial_low_entropy_hashes_still_resolve() {
        // Sequential "hashes" (worst case for the tag byte and the home
        // index) must still round-trip: linear probing + full-hash confirm.
        let mut t = FlatProbeTable::with_capacity(64);
        for h in 0..64u64 {
            assert!(t.insert_first(h, (h * 3) as u32));
        }
        for h in 0..64u64 {
            assert_eq!(t.probe(h), Some((h * 3) as u32));
        }
        assert_eq!(t.probe(64), None);
    }

    #[test]
    fn matches_hashmap_reference_over_random_keys() {
        let mut t = FlatProbeTable::with_capacity(0);
        let mut reference = std::collections::HashMap::new();
        let mut h = 0x1234_5678u64;
        for k in 0..5000u32 {
            h = splitmix64(h ^ u64::from(k % 997)); // forced duplicates
            t.insert_first(h, k);
            reference.entry(h).or_insert(k);
        }
        for (&hash, &val) in &reference {
            assert_eq!(t.probe(hash), Some(val));
        }
        assert_eq!(t.len(), reference.len());
        let mut probe = 99u64;
        for _ in 0..5000 {
            probe = splitmix64(probe);
            assert_eq!(t.probe(probe), reference.get(&probe).copied());
        }
    }

    #[test]
    fn from_pairs_builds_first_wins() {
        let t = FlatProbeTable::from_pairs([(1, 10), (2, 20), (1, 30)]);
        assert_eq!(t.probe(1), Some(10));
        assert_eq!(t.probe(2), Some(20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_pairs_sizes_from_the_collected_length() {
        // A filtered iterator's lower size hint is 0; the table must still
        // come out at the capacity its final length asks for.
        let pairs = (0..3000u64)
            .filter(|k| k % 3 == 0)
            .map(|k| (splitmix64(k), k as u32));
        assert_eq!(pairs.size_hint().0, 0);
        let t = FlatProbeTable::from_pairs(pairs);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.capacity(), FlatProbeTable::with_capacity(1000).capacity());
    }

    #[test]
    fn probe_each_streams_exactly_the_hits_of_probe_in_order() {
        // Sizes around the block length, on a table small enough to chain
        // and one large enough to prefetch.
        for entries in [0usize, 1, 40, 5000, 200_000] {
            let t =
                FlatProbeTable::from_pairs((0..entries as u64).map(|k| (splitmix64(k), k as u32)));
            for n in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
                // Every third key present (while they last), the rest not.
                let hashes: Vec<u64> = (0..n as u64)
                    .map(|i| splitmix64(if i % 3 == 0 { i } else { i + (1 << 40) }))
                    .collect();
                let expect: Vec<u32> = hashes.iter().filter_map(|&h| t.probe(h)).collect();
                let mut got = Vec::new();
                t.probe_each(&hashes, |v| got.push(v));
                assert_eq!(got, expect, "entries={entries} n={n}");
            }
        }
    }

    #[test]
    fn filter_passes_every_key_and_few_others() {
        // Every size class down to the one-word filters of the smallest
        // tables: no stored key may be filtered out, whatever its chain
        // position; at load <= 0.5 a random miss passes <= 1 time in 16.
        for entries in [1usize, 2, 3, 5, 17, 1000, 5000] {
            let t =
                FlatProbeTable::from_pairs((0..entries as u64).map(|k| (splitmix64(k), k as u32)));
            for k in 0..entries as u64 {
                assert!(t.may_contain(splitmix64(k)), "entries={entries} key {k}");
            }
            let misses = 20_000u64;
            let passed = (0..misses)
                .filter(|&k| t.may_contain(splitmix64(k + (1 << 40))))
                .count();
            assert!(
                passed as u64 * 16 <= misses + misses / 10,
                "entries={entries}: {passed}"
            );
        }
    }

    /// Multiplicative inverse of [`GOLDEN`] mod 2^64 (odd → invertible),
    /// by Newton iteration. Lets tests construct keys with a chosen
    /// Fibonacci product — i.e. a chosen home slot.
    fn golden_inverse() -> u64 {
        let mut inv = GOLDEN;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inv)));
        }
        assert_eq!(GOLDEN.wrapping_mul(inv), 1);
        inv
    }

    /// A key whose Fibonacci product is exactly `product`: home slot =
    /// top bits of `product`, group-scan tag = `(product >> 8) as u8`.
    fn key_with_product(product: u64) -> u64 {
        product.wrapping_mul(golden_inverse())
    }

    #[test]
    fn same_home_chain_of_40_resolves_through_group_scan() {
        // 40 keys whose Fibonacci products all have zero top bits — every
        // one homes on slot 0 — with distinct tag bytes: the chain spans
        // 3 tag groups, so hits at every depth and the trailing miss all
        // exercise the SSE2 scan (and must agree with the scalar walk,
        // which `probe_chain` falls back to when SIMD is off — the
        // tests/simd.rs sweep runs both).
        let keys: Vec<u64> = (0..40u64)
            .map(|k| key_with_product((k << 8) | 0xa5))
            .collect();
        let mut t = FlatProbeTable::from_pairs_with_load(
            keys.iter().enumerate().map(|(v, &h)| (h, v as u32)),
            0.5,
        );
        for (v, &h) in keys.iter().enumerate() {
            assert_eq!(t.probe(h), Some(v as u32), "depth {v}");
        }
        // A missing key homed into the same chain whose tag *collides*
        // with the depth-5 key's (261 & 0xff == 5): full-hash confirm
        // must reject the candidate, then the first empty slot must
        // terminate the scan with None.
        let absent = key_with_product((261u64 << 8) | 0xa5);
        assert_eq!(t.probe(absent), None);
        // And extending the table later still finds everything.
        assert!(t.insert_first(absent, 777));
        assert_eq!(t.probe(absent), Some(777));
    }

    #[test]
    fn chain_wrapping_past_capacity_end_resolves() {
        // Home the chain on the last slot of the table so the group scan
        // wraps group addressing past the end: keys' products put home at
        // capacity-1, chain spills into slots 0, 1, 2, ...
        let t = {
            let keys: Vec<u64> = (0..24u64)
                .map(|k| key_with_product(((k + 1) << 8) | (u64::MAX << 57)))
                .collect();
            FlatProbeTable::from_pairs_with_load(
                keys.iter().enumerate().map(|(v, &h)| (h, v as u32)),
                0.3,
            )
        };
        let keys: Vec<u64> = (0..24u64)
            .map(|k| key_with_product(((k + 1) << 8) | (u64::MAX << 57)))
            .collect();
        for (v, &h) in keys.iter().enumerate() {
            assert_eq!(t.probe(h), Some(v as u32), "depth {v}");
        }
        assert_eq!(t.probe(key_with_product(u64::MAX << 57 | (70 << 8))), None);
    }

    #[test]
    fn high_load_table_matches_hashmap_reference() {
        // Load ~0.9: chains run long enough that essentially every miss
        // takes the group-scan path. Results must still match a HashMap.
        let mut reference = std::collections::HashMap::new();
        let mut h = 0xfeed_f00du64;
        let pairs: Vec<(u64, u32)> = (0..7000u32)
            .map(|k| {
                h = splitmix64(h);
                (h, k)
            })
            .collect();
        for &(hash, v) in &pairs {
            reference.entry(hash).or_insert(v);
        }
        let t = FlatProbeTable::from_pairs_with_load(pairs.iter().copied(), 0.9);
        assert!(
            t.len() * 10 >= t.capacity() * 8,
            "load factor too low to exercise long chains: {}/{}",
            t.len(),
            t.capacity()
        );
        for (&hash, &val) in &reference {
            assert_eq!(t.probe(hash), Some(val));
        }
        let mut probe = 3u64;
        for _ in 0..20_000 {
            probe = splitmix64(probe);
            assert_eq!(t.probe(probe), reference.get(&probe).copied());
        }
    }

    #[test]
    fn heap_bytes_scale_with_capacity() {
        let small = FlatProbeTable::with_capacity(4);
        let big = FlatProbeTable::with_capacity(4096);
        assert!(big.heap_bytes() > small.heap_bytes() * 100);
    }

    #[test]
    fn heap_bytes_for_matches_a_filled_table() {
        for entries in [0usize, 1, 2, 3, 7, 8, 9, 1_000, 17_576] {
            let mut t = FlatProbeTable::with_capacity(entries);
            for i in 0..entries as u64 {
                t.insert_first(splitmix64(i), i as u32);
            }
            assert_eq!(t.heap_bytes(), FlatProbeTable::heap_bytes_for(entries));
        }
    }

    #[test]
    fn prefetch_is_safe_on_any_key() {
        let t = FlatProbeTable::from_pairs([(7, 1)]);
        for h in [0u64, 7, u64::MAX] {
            t.prefetch(h); // must not fault
        }
    }
}
