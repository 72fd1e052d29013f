//! One-shot startup calibration of the cache-size threshold above which
//! `FlatProbeTable`'s bulk probe prefetches its survivors' slots.
//!
//! PR 5 gated software prefetch of probe slots on a hard-coded 256 KiB
//! table size — a guess at "fits in L2". Whether prefetch actually pays
//! depends on where the machine's cache cliff sits, so this module
//! measures it once per process: a dependent pointer chase (Sattolo
//! random cycle, so every hop is a true data dependency the prefetcher
//! cannot hide) over growing buffers, taking the first size whose
//! per-hop latency jumps well above the smallest buffers' baseline.
//! Tables at or above that size get probe prefetching; smaller ones are
//! assumed cache-resident and skip it.
//!
//! The measurement is cached in a `OnceLock`; tables snapshot the
//! decision at construction time.

use crate::hash::splitmix64;
use std::sync::OnceLock;
use std::time::Instant;

static MEASURED: OnceLock<usize> = OnceLock::new();

/// Candidate working-set sizes for the pointer chase, in bytes. The
/// first two anchor the "fast" baseline; the measured threshold is the
/// first later size whose latency clearly exceeds it.
const SIZES: [usize; 7] = [
    16 << 10,
    32 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    4 << 20,
];

/// Latency multiple over the fast-baseline that counts as "fell out of
/// cache".
const JUMP: f64 = 1.8;

/// Hops per timing pass; small enough that the whole calibration is a
/// few milliseconds, large enough to dominate `Instant` overhead.
const HOPS: usize = 1 << 15;

/// The table-size threshold (bytes) at or above which probe prefetching
/// is considered worthwhile: measured once per process.
pub fn prefetch_threshold() -> usize {
    *MEASURED.get_or_init(calibrate)
}

/// Times one traversal of a `len`-slot random cycle, in ns per hop.
fn chase_ns_per_hop(chain: &[u32], hops: usize) -> f64 {
    let mut cursor = 0u32;
    let start = Instant::now();
    for _ in 0..hops {
        cursor = chain[cursor as usize];
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    // The cursor must feed a side effect or the chase folds away.
    std::hint::black_box(cursor);
    elapsed / hops as f64
}

/// Builds a single random cycle over `len` slots (Sattolo's algorithm,
/// deterministic splitmix64 stream) so each load depends on the last.
fn build_cycle(len: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..len as u32).collect();
    let mut h = seed;
    for i in (1..len).rev() {
        h = splitmix64(h);
        let j = (h % i as u64) as usize;
        perm.swap(i, j);
    }
    // perm is a permutation; turn it into chase links: next[perm[i]] = perm[i+1].
    let mut next = vec![0u32; len];
    for i in 0..len {
        next[perm[i] as usize] = perm[(i + 1) % len];
    }
    next
}

/// Measures the cache cliff. Returns the first candidate size whose
/// per-hop latency exceeds `JUMP ×` the fast baseline; if no cliff shows
/// up (huge caches, virtualized timers), falls back to beyond the
/// largest candidate so prefetch stays off — the conservative choice,
/// matching pre-calibration behavior for all but the largest tables.
fn calibrate() -> usize {
    let mut lat = [0.0f64; SIZES.len()];
    for (k, &bytes) in SIZES.iter().enumerate() {
        let len = bytes / 4;
        let chain = build_cycle(len, 0x9e37_79b9_7f4a_7c15 ^ bytes as u64);
        // Two passes, keep the best: the first also warms the buffer.
        let a = chase_ns_per_hop(&chain, HOPS);
        let b = chase_ns_per_hop(&chain, HOPS);
        lat[k] = a.min(b);
    }
    let baseline = lat[0].min(lat[1]).max(1e-3);
    for k in 2..SIZES.len() {
        if lat[k] > baseline * JUMP {
            return SIZES[k];
        }
    }
    SIZES[SIZES.len() - 1] * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_slot() {
        let chain = build_cycle(257, 42);
        let mut seen = vec![false; 257];
        let mut cursor = 0u32;
        for _ in 0..257 {
            assert!(!seen[cursor as usize], "cycle revisited a slot early");
            seen[cursor as usize] = true;
            cursor = chain[cursor as usize];
        }
        assert_eq!(cursor, 0, "chase is a single full cycle");
    }

    #[test]
    fn measured_threshold_is_sane_and_cached() {
        let t = prefetch_threshold();
        assert!(
            (SIZES[0]..=SIZES[SIZES.len() - 1] * 2 + 1).contains(&t),
            "measured threshold {t} outside candidate range"
        );
        // Cached: second read is identical without re-measuring.
        assert_eq!(prefetch_threshold(), t);
    }
}
