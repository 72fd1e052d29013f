//! Dictionary-based n-gram featurizers (CharNgram, WordNgram).
//!
//! These are the heavy featurizers of the SA pipeline: "Char and Word Ngrams
//! featurize input tokens by extracting n-grams" (paper Figure 1), with
//! trained dictionaries of about a million entries occupying tens of MBs
//! (paper Table 1) — which is why sharing their parameters across pipelines
//! (Figure 3) dominates the memory experiments.
//!
//! The kernels are allocation-free after warm-up: short character windows
//! index an exact window table, and other candidate n-grams are hashed
//! over case-folded bytes and probed against a `hash → dictionary index`
//! table; matches accumulate counts into a sparse output vector. Distinct
//! n-grams colliding on the 64-bit hash would share a count slot;
//! segments of up to 8 bytes hash exactly (no collisions within a length),
//! and beyond that the collision probability at dictionary sizes up to
//! 2^20 is below 2^-24.
//!
//! **Matching path** (the SA bottleneck, paper Figure 1/Table 1). A
//! character dictionary whose extracted lengths are all at most 4 bytes
//! reads its windows through a `WindowTable`; every other dictionary,
//! and every word dictionary, hashes and probes.
//!
//! *Window table.* The dictionary's trained keys are known when the plan
//! is compiled, so the byte alphabet they use is too. With `A` distinct
//! (folded) key bytes, each byte maps to a class — `0` for a byte no key
//! holds, `1..=A` for the others — and a window of `k ≤ 4` bytes *is* its
//! cell index, the `k` classes read as a number in base `A + 1`. Per
//! extracted length the table holds `(A + 1)^k` cells, each the first
//! dictionary index of the key with those bytes or a sentinel; a window
//! with a byte of class 0 lands on a cell no key can own. Per block of
//! windows the kernel computes each index, loads one cell and compacts
//! the hits without a branch. Nothing is hashed, filtered or confirmed,
//! and the match is exact, not hash-equal. Cells are `u16` below 65 535
//! entries, `u32` above. The table is built when the dictionary is, and
//! only when its cells take no more bytes than the [`FlatProbeTable`]
//! would ([`FlatProbeTable::heap_bytes_for`]): an SA-shaped dictionary
//! (5 000 lowercase trigrams, `A` = 26) needs 27^3 = 19 683 two-byte
//! cells, 38.4 KiB against ≈ 290 KiB of flat table; a million-key trigram
//! dictionary over ≈ 70 bytes needs ≈ 1.4 MiB against ≈ 34 MiB. Keys that
//! cannot match a character window stay out: a key holding `' '` (see
//! [`NgramDict::hash_key`]) and a key whose byte length is not an
//! extracted length.
//!
//! *Hash path.* One shape at both levels — *keys for the whole row →
//! branch-free filter → confirm only the survivors, in window order*:
//!
//! 1. **fold once**: the row's bytes are case-folded into a thread-local
//!    scratch buffer with `SLACK` zero bytes behind them, so any 8-byte
//!    load that starts inside the row is in bounds;
//! 2. **keys**: a segment of `k ≤ 8` bytes hashes as one unaligned load,
//!    one mask and one multiply (`seg`) — every character window and
//!    every token is independent of its neighbours, no multiply chain.
//!    Character windows of one length are keyed by a loop compiled for
//!    that length (`packed_keys`, one per `k ≤ 8`), so the mask and the
//!    salt are constants and the loop carries no per-window length test.
//!    A word k-gram joins its (k−1)-gram with the next token's hash
//!    (`join`), so each token is hashed once however many n-grams
//!    contain it;
//! 3. **filter, then confirm**: each block of keys goes through
//!    [`FlatProbeTable::probe_each`], which tests a one-hash bit filter
//!    for every key without branching and walks slots only for the keys
//!    that pass — the hits and a few percent of the misses.
//!
//! **What stays resident.** A dictionary keeps what its kernel reads and
//! its keys, compact:
//!
//! * the keys in one [`KeyArena`] — their bytes back to back and a `u32`
//!   end offset each, filled straight from the image section — so a key
//!   costs its bytes plus 4 (a churn-scale dictionary of 17 576 trigrams:
//!   52.7 KB of bytes and 70.3 KB of offsets);
//! * a window-indexed character dictionary: its window table, and no
//!   [`FlatProbeTable`] (1.13 MiB at churn scale), because no kernel
//!   probes it;
//! * every other dictionary — word dictionaries and character
//!   dictionaries the size rule refuses — its [`FlatProbeTable`], built
//!   with the dictionary. The table is otherwise built on first use:
//!   when parameters edited through their `pub` fields no longer match
//!   their window table, or when a caller asks for
//!   [`NgramDict::flat_table`].
//!
//! `heap_bytes` counts exactly these (the table once built), in O(1).
//!
//! The contract: first-index-wins duplicate keys, and hits stream lengths
//! ascending, then window starts ascending (locked in by the `ngram_probe`
//! integration tests against a string-keyed in-test reference, for
//! window-indexed and hashed dictionaries alike). Hash values and cell
//! layouts are not part of it; nothing persists them.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::probe::FlatProbeTable;
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::vector::Span;
use pretzel_data::{ColRef, ColumnBatch, ColumnType, DataError, Result, Vector};
use std::sync::OnceLock;

/// Zero bytes kept behind the folded row, so an 8-byte load at any row
/// offset stays inside the buffer.
pub(crate) const SLACK: usize = 8;

/// Character windows per block: hashed per [`FlatProbeTable::probe_each`]
/// call, or looked up per window-table block.
const KEY_BLOCK: usize = 256;

/// Multiplier of [`mix`] (odd, so the multiply is a bijection).
const MIX: u64 = 0xd6e8_feb8_6659_fd93;

/// Per-length salt of [`seg`]: keeps `"a"` and `"a\0"` apart.
const LEN_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// `LOW_BYTES[k]` keeps the low `k` bytes of a little-endian word.
const LOW_BYTES: [u64; 9] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0xff_ffff_ffff,
    0xffff_ffff_ffff,
    0xff_ffff_ffff_ffff,
    u64::MAX,
];

#[inline]
pub(crate) fn fold(b: u8, fold_case: bool) -> u8 {
    b | (u8::from(fold_case & b.is_ascii_uppercase()) << 5)
}

/// One multiply-xorshift round, a bijection on `u64`: the multiply
/// carries every input bit upward and the shift folds the mixed high half
/// back over the low, so the probe table's own multiply draws its index
/// and filter bits from all of the key.
#[inline]
fn mix(x: u64) -> u64 {
    let y = x.wrapping_mul(MIX);
    y ^ (y >> 32)
}

/// Hash of one segment (a character window or a token) of `len` bytes,
/// read through `word_at(off)` = the 8 bytes at `off`, little-endian;
/// bytes past `len` are masked off, so they may hold anything. Up to 8
/// bytes the segment is packed whole into one word — exact, and one
/// [`mix`] — and longer segments take 8 bytes per step.
#[inline(always)]
fn seg(len: usize, word_at: impl Fn(usize) -> u64) -> u64 {
    let mut h = (len as u64).wrapping_mul(LEN_SALT);
    let mut off = 0;
    while len - off > 8 {
        h = mix(h ^ word_at(off));
        off += 8;
    }
    mix(h ^ (word_at(off) & LOW_BYTES[len - off]))
}

/// Hash of an n-gram from the hash of its first `k−1` segments and the
/// hash of its last one; the rotate makes it order-sensitive.
#[inline]
fn join(head: u64, last: u64) -> u64 {
    mix(head.rotate_left(23) ^ last)
}

/// The 8 bytes of `buf` at `at`, little-endian.
#[inline(always)]
fn load_word(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
}

/// Hash of the segment `buf[start..end]` of a row buffer with [`SLACK`]
/// bytes behind the row: a token's hash.
#[inline]
pub(crate) fn segment_hash(buf: &[u8], start: usize, end: usize) -> u64 {
    seg(end - start, |off| load_word(buf, start + off))
}

/// Keys of the `keys.len()` windows of `K ≤ 8` bytes starting at
/// `row[0..]`: [`seg`] with the length a constant — one load, one mask
/// and one [`mix`] per window. `row` must hold 7 bytes past the last
/// window's start.
#[inline(always)]
fn packed_keys<const K: usize>(row: &[u8], keys: &mut [u64]) {
    let salt = (K as u64).wrapping_mul(LEN_SALT);
    let row = &row[..keys.len() + 7];
    for (key, word) in keys.iter_mut().zip(row.windows(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte window"));
        *key = mix(salt ^ (word & LOW_BYTES[K]));
    }
}

/// Keys of the `keys.len()` windows of `k` bytes starting at `buf[base..]`
/// (a row with [`SLACK`] bytes behind it): one [`packed_keys`] loop per
/// length up to 8, the general [`seg`] beyond.
#[inline]
fn window_keys(k: usize, buf: &[u8], base: usize, keys: &mut [u64]) {
    let row = &buf[base..];
    match k {
        1 => packed_keys::<1>(row, keys),
        2 => packed_keys::<2>(row, keys),
        3 => packed_keys::<3>(row, keys),
        4 => packed_keys::<4>(row, keys),
        5 => packed_keys::<5>(row, keys),
        6 => packed_keys::<6>(row, keys),
        7 => packed_keys::<7>(row, keys),
        8 => packed_keys::<8>(row, keys),
        _ => {
            for (i, key) in keys.iter_mut().enumerate() {
                *key = seg(k, |off| load_word(row, i + off));
            }
        }
    }
}

/// Per-thread matching scratch, reused across rows so the kernels are
/// allocation-free after warm-up.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    /// The row's bytes, case-folded once, then [`SLACK`] bytes.
    pub(crate) folded: Vec<u8>,
    /// The fused text step's second row buffer, for a character
    /// dictionary whose `fold_case` differs from the first buffer's.
    pub(crate) other: Vec<u8>,
    /// The row's token hashes.
    pub(crate) tokens: Vec<u64>,
    /// Word kernel: the current k-gram hashes. Grow-only: every active
    /// slot is written before it is read, so stale tails are never
    /// re-zeroed.
    pub(crate) grams: Vec<u64>,
}

/// Retention bound on each thread-local hash scratch, in entries (8 MiB).
/// Typical rows need a few dozen slots; one pathological row (a frame
/// body can be up to 64 MiB of text) must not pin its high-water mark on
/// the executor thread forever.
const SCRATCH_RETAIN_HASHES: usize = 1 << 20;

/// Retention bound on each thread-local row buffer, in bytes.
const SCRATCH_RETAIN_FOLDED: usize = 1 << 20;

/// Folds `text` into `folded` and returns the buffer: the row's bytes
/// followed by [`SLACK`] zeros.
#[inline]
pub(crate) fn fold_row<'a>(folded: &'a mut Vec<u8>, text: &[u8], fold_case: bool) -> &'a [u8] {
    folded.clear();
    folded.extend(text.iter().map(|&b| fold(b, fold_case)));
    folded.extend_from_slice(&[0; SLACK]);
    folded
}

/// Caps `v`'s capacity at `retain` entries.
fn trim_vec<T>(v: &mut Vec<T>, retain: usize) {
    if v.capacity() > retain {
        v.truncate(retain);
        v.shrink_to(retain);
    }
}

impl MatchScratch {
    /// Releases capacity an outlier row grew beyond the retention bounds,
    /// so per-thread scratch stays sized for the steady-state row mix.
    #[inline]
    fn trim(&mut self) {
        trim_vec(&mut self.folded, SCRATCH_RETAIN_FOLDED);
        trim_vec(&mut self.other, SCRATCH_RETAIN_FOLDED);
        trim_vec(&mut self.tokens, SCRATCH_RETAIN_HASHES);
        trim_vec(&mut self.grams, SCRATCH_RETAIN_HASHES);
    }
}

std::thread_local! {
    static MATCH_SCRATCH: std::cell::RefCell<MatchScratch> =
        std::cell::RefCell::new(MatchScratch::default());
}

/// Runs `f` with the thread's matching scratch. A plain `borrow_mut` —
/// the kernels never re-enter (callbacks only accumulate), and this runs
/// once per row per kernel, so the borrow must not cost a vec move the
/// way a take/put-back would. A hypothetical re-entrant kernel panics
/// loudly here instead of corrupting state.
#[inline]
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut MatchScratch) -> R) -> R {
    MATCH_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let out = f(&mut scratch);
        scratch.trim();
        out
    })
}

/// Longest character window a [`WindowTable`] indexes, in bytes.
const MAX_TABLE_WINDOW: usize = 4;

/// A [`WindowTable`] cell: a dictionary index, or [`Cell::NONE`].
trait Cell: Copy + PartialEq {
    /// The cell of a window no key owns.
    const NONE: Self;
    /// Stores dictionary index `idx` (below the sentinel).
    fn from_index(idx: usize) -> Self;
    /// The dictionary index the cell holds.
    fn index(self) -> u32;
}

impl Cell for u16 {
    const NONE: u16 = u16::MAX;
    fn from_index(idx: usize) -> Self {
        u16::try_from(idx).expect("narrow cells hold indices below u16::MAX")
    }
    #[inline(always)]
    fn index(self) -> u32 {
        u32::from(self)
    }
}

impl Cell for u32 {
    const NONE: u32 = u32::MAX;
    fn from_index(idx: usize) -> Self {
        u32::try_from(idx).expect("dictionary indices are u32")
    }
    #[inline(always)]
    fn index(self) -> u32 {
        self
    }
}

/// The cells of every indexed length, `u16` when every index and the
/// sentinel fit.
#[derive(Debug, Clone)]
enum Cells {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// Exact character-window index of a dictionary whose extracted lengths
/// are all at most [`MAX_TABLE_WINDOW`] bytes (module docs, "Window
/// table").
#[derive(Debug, Clone)]
struct WindowTable {
    /// The lengths and the case mode it was built for: parameters edited
    /// through their `pub` fields after construction no longer match, and
    /// hash instead.
    lengths: std::ops::RangeInclusive<usize>,
    fold_case: bool,
    /// Class of each input byte: its folded byte's rank in the keys'
    /// alphabet, from 1, or 0 when no indexed key holds it. Input is
    /// classified as folded, so the kernel reads raw or folded rows alike.
    class: [u16; 256],
    /// Alphabet size + 1: the base a window's classes are read in.
    radix: usize,
    /// `start[k]`: the first cell of length `k`.
    start: [usize; MAX_TABLE_WINDOW + 1],
    cells: Cells,
}

/// The cell of `window` in its length's array: its bytes' classes read as
/// a number in base `radix`, first byte most significant.
#[inline(always)]
fn cell(class: &[u16; 256], radix: usize, window: &[u8]) -> usize {
    window
        .iter()
        .fold(0, |at, &b| at * radix + usize::from(class[usize::from(b)]))
}

/// `total` cells holding, at each `(index, cell)` of `owners`, the first
/// index that names the cell.
fn fill<C: Cell>(total: usize, owners: impl Iterator<Item = (usize, usize)>) -> Vec<C> {
    let mut cells = vec![C::NONE; total];
    for (idx, at) in owners {
        if cells[at] == C::NONE {
            cells[at] = C::from_index(idx);
        }
    }
    cells
}

impl WindowTable {
    /// The table of `keys` read as character windows of `lengths`, or
    /// `None` when a length exceeds [`MAX_TABLE_WINDOW`], no key can match
    /// a window, or the cells would take more than `budget` bytes.
    fn build(
        lengths: std::ops::RangeInclusive<usize>,
        fold_case: bool,
        keys: &KeyArena,
        budget: usize,
    ) -> Option<Self> {
        if *lengths.end() > MAX_TABLE_WINDOW {
            return None;
        }
        // A key with a space never matches a window (`NgramDict::hash_key`).
        let indexed = || {
            keys.iter()
                .map(str::as_bytes)
                .enumerate()
                .filter(|(_, k)| lengths.contains(&k.len()) && !k.contains(&b' '))
        };
        let mut rank = [0u16; 256];
        for (_, key) in indexed() {
            for &b in key {
                rank[usize::from(fold(b, fold_case))] = 1;
            }
        }
        let mut radix = 1;
        for r in rank.iter_mut().filter(|r| **r != 0) {
            *r = radix;
            radix += 1;
        }
        if radix == 1 {
            return None;
        }
        let radix = usize::from(radix);
        let mut start = [0; MAX_TABLE_WINDOW + 1];
        let mut total = 0usize;
        for k in lengths.clone() {
            start[k] = total;
            total = total.checked_add(radix.checked_pow(k as u32)?)?;
        }
        let narrow = keys.len() < usize::from(u16::MAX);
        let width = if narrow { 2 } else { 4 };
        if total.checked_mul(width)? > budget {
            return None;
        }
        let class = std::array::from_fn(|b| rank[usize::from(fold(b as u8, fold_case))]);
        let owners = indexed().map(|(idx, key)| (idx, start[key.len()] + cell(&class, radix, key)));
        let cells = if narrow {
            Cells::Narrow(fill(total, owners))
        } else {
            Cells::Wide(fill(total, owners))
        };
        Some(WindowTable {
            lengths,
            fold_case,
            class,
            radix,
            start,
            cells,
        })
    }

    /// Heap bytes of the cells.
    fn heap_bytes(&self) -> usize {
        match &self.cells {
            Cells::Narrow(c) => c.capacity() * 2,
            Cells::Wide(c) => c.capacity() * 4,
        }
    }

    /// Streams the dictionary index of every window of `text` that is a
    /// key: lengths ascending, then window starts ascending.
    #[inline]
    fn hits(&self, text: &[u8], f: &mut impl FnMut(u32)) {
        match &self.cells {
            Cells::Narrow(c) => self.hits_in(c, text, f),
            Cells::Wide(c) => self.hits_in(c, text, f),
        }
    }

    #[inline(always)]
    fn hits_in<C: Cell>(&self, cells: &[C], text: &[u8], f: &mut impl FnMut(u32)) {
        for k in self.lengths.clone().take_while(|&k| k <= text.len()) {
            let cells = &cells[self.start[k]..];
            match k {
                1 => self.window_hits::<1, C>(cells, text, f),
                2 => self.window_hits::<2, C>(cells, text, f),
                3 => self.window_hits::<3, C>(cells, text, f),
                _ => self.window_hits::<4, C>(cells, text, f),
            }
        }
    }

    /// The windows of `K ≤ text.len()` bytes, a block at a time: per window
    /// one cell index and one load, the hits compacted without a branch.
    #[inline(always)]
    fn window_hits<const K: usize, C: Cell>(
        &self,
        cells: &[C],
        text: &[u8],
        f: &mut impl FnMut(u32),
    ) {
        let mut hits = [0u32; KEY_BLOCK];
        let windows = text.len() + 1 - K;
        for base in (0..windows).step_by(KEY_BLOCK) {
            let cnt = KEY_BLOCK.min(windows - base);
            let mut n = 0;
            for window in text[base..base + cnt + K - 1].windows(K) {
                let window: &[u8; K] = window.try_into().expect("K-byte window");
                let owner = cells[cell(&self.class, self.radix, window)];
                hits[n] = owner.index();
                n += usize::from(owner != C::NONE);
            }
            hits[..n].iter().for_each(|&idx| f(idx));
        }
    }
}

/// A dictionary's keys in one arena: their bytes back to back and the end
/// offset of each, so a key costs its bytes and four more, with no pointer
/// or allocation of its own. Indexing yields a key as `&str`;
/// [`Self::iter`] yields them in dictionary order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyArena {
    /// The keys' bytes, concatenated: valid UTF-8, split only at `ends`.
    bytes: Box<str>,
    /// `ends[i]`: the byte offset where key `i` ends.
    ends: Box<[u32]>,
}

/// A key's end offset: the arena addresses at most 4 GiB of key bytes.
fn arena_offset(len: usize) -> Result<u32> {
    u32::try_from(len)
        .map_err(|_| DataError::Codec(format!("dictionary keys exceed 4 GiB ({len} bytes)")))
}

impl KeyArena {
    /// The arena of `keys`, in order.
    ///
    /// # Panics
    ///
    /// Panics when the keys take more than 4 GiB.
    fn from_keys(keys: &[Box<str>]) -> Self {
        let total = keys.iter().map(|k| k.len()).sum();
        let mut bytes = String::with_capacity(total);
        let mut ends = Vec::with_capacity(keys.len());
        for k in keys {
            bytes.push_str(k);
            ends.push(arena_offset(bytes.len()).expect("dictionary keys fit 4 GiB"));
        }
        KeyArena {
            bytes: bytes.into_boxed_str(),
            ends: ends.into_boxed_slice(),
        }
    }

    /// Reads `count` length-prefixed keys (`wire::put_str` each) from `cur`
    /// straight into the arena, with no allocation per key. Every key
    /// takes at least its 4-byte prefix, so a count the bytes left cannot
    /// hold is refused before anything is reserved, and the arena reserves
    /// only what the bytes left hold beside the prefixes.
    fn read(cur: &mut Cursor<'_>, count: usize) -> Result<Self> {
        let left = cur.remaining();
        let Some(key_bytes) = count.checked_mul(4).and_then(|p| left.checked_sub(p)) else {
            return Err(DataError::Codec(format!(
                "dictionary announces {count} keys, {left} bytes left"
            )));
        };
        let mut bytes = String::with_capacity(key_bytes);
        let mut ends = Vec::with_capacity(count);
        for _ in 0..count {
            bytes.push_str(cur.str_ref()?);
            ends.push(arena_offset(bytes.len())?);
        }
        Ok(KeyArena {
            bytes: bytes.into_boxed_str(),
            ends: ends.into_boxed_slice(),
        })
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if there are no keys.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The keys, in dictionary order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| &self[i])
    }

    /// Heap bytes: the key bytes and one `u32` per key, exactly.
    fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

impl std::ops::Index<usize> for KeyArena {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.bytes[start..self.ends[i] as usize]
    }
}

/// A trained n-gram dictionary: the keys (owned, for size realism and
/// serialization) in one [`KeyArena`], plus the hash → index
/// [`FlatProbeTable`] the hashing kernels bulk-probe, built once, on first
/// use — a window-indexed character dictionary never builds it (module
/// docs, "What stays resident"). First insert per key wins, so dictionary
/// indices are stable across rebuilds.
#[derive(Debug, Clone)]
pub struct NgramDict {
    keys: KeyArena,
    flat: OnceLock<FlatProbeTable>,
    fold_case: bool,
}

impl PartialEq for NgramDict {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.fold_case == other.fold_case
    }
}

impl NgramDict {
    /// Builds a dictionary from keys. Word n-gram keys use a single ASCII
    /// space between tokens (e.g. `"not good"`).
    ///
    /// Later duplicates (after case folding) are ignored, keeping the first
    /// index, so dictionary indices are stable.
    pub fn new(keys: Vec<Box<str>>, fold_case: bool) -> Self {
        Self::from_arena(KeyArena::from_keys(&keys), fold_case)
    }

    /// A dictionary over `keys`; its probe table is built on first use.
    fn from_arena(keys: KeyArena, fold_case: bool) -> Self {
        NgramDict {
            keys,
            flat: OnceLock::new(),
            fold_case,
        }
    }

    /// Number of dictionary entries (= featurizer output dimensionality).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The dictionary keys.
    pub fn keys(&self) -> &KeyArena {
        &self.keys
    }

    /// The flat probe table (matching-kernel internals and tests), built
    /// on the first call: first index wins for duplicate keys.
    #[inline]
    pub fn flat_table(&self) -> &FlatProbeTable {
        self.flat.get_or_init(|| {
            let mut flat = FlatProbeTable::with_capacity(self.keys.len());
            for (i, k) in self.keys.iter().enumerate() {
                flat.insert_first(Self::hash_key(k, self.fold_case), i as u32);
            }
            flat
        })
    }

    /// Hashes a dictionary key the same way the kernels hash input windows:
    /// the key is split on `' '`, each segment hashed over its case-folded
    /// bytes and the segment hashes joined in order. A space-free key is
    /// one segment — a character window's hash; `"not good"` is the word
    /// kernel's join of two token hashes.
    ///
    /// The level is not known here, so a space always separates segments:
    /// a *character-level* key containing one (`"e t"`) hashes as a word
    /// bigram and can never match a text window.
    pub fn hash_key(key: &str, fold_case: bool) -> u64 {
        let mut segments = key.as_bytes().split(|&b| b == b' ').map(|tok| {
            seg(tok.len(), |off| {
                // Packed in a register: byte stores read back as one word
                // would stall on store forwarding.
                tok[off..]
                    .iter()
                    .take(8)
                    .rev()
                    .fold(0, |word, &b| word << 8 | u64::from(fold(b, fold_case)))
            })
        });
        let first = segments.next().expect("split yields a segment");
        segments.fold(first, join)
    }

    /// Heap bytes: the key arena, plus the flat probe table once it is
    /// built.
    pub fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes() + self.flat.get().map_or(0, FlatProbeTable::heap_bytes)
    }
}

/// Parameters shared by CharNgram and WordNgram.
#[derive(Debug, Clone)]
pub struct NgramParams {
    /// Maximum n-gram length.
    pub n: u32,
    /// Extract all lengths `1..=n` (true) or exactly `n` (false).
    pub all_lengths: bool,
    /// Case-insensitive matching.
    pub fold_case: bool,
    /// The trained dictionary.
    pub dict: NgramDict,
    /// The character kernel's exact window index, when the dictionary
    /// qualifies (module docs); derived from the fields above.
    windows: Option<WindowTable>,
    memo: ChecksumMemo,
}

impl PartialEq for NgramParams {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.all_lengths == other.all_lengths
            && self.fold_case == other.fold_case
            && self.dict == other.dict
    }
}

impl NgramParams {
    /// Creates n-gram parameters over a dictionary, with a window table
    /// for the character kernel when the dictionary qualifies (module
    /// docs, "Window table"); otherwise with the probe table built.
    pub fn new(n: u32, all_lengths: bool, fold_case: bool, keys: Vec<Box<str>>) -> Self {
        Self::with_keys(n, all_lengths, fold_case, KeyArena::from_keys(&keys), true)
    }

    /// Creates the parameters of a word dictionary: as [`Self::new`],
    /// without the window table only character windows read.
    pub fn word(n: u32, all_lengths: bool, fold_case: bool, keys: Vec<Box<str>>) -> Self {
        Self::with_keys(n, all_lengths, fold_case, KeyArena::from_keys(&keys), false)
    }

    /// The parameters over `keys`: a window table when `windows` asks for
    /// one and the dictionary qualifies, else the probe table the kernel
    /// will hash against, built now rather than on the first row.
    fn with_keys(
        n: u32,
        all_lengths: bool,
        fold_case: bool,
        keys: KeyArena,
        windows: bool,
    ) -> Self {
        let mut p = NgramParams {
            n,
            all_lengths,
            fold_case,
            dict: NgramDict::from_arena(keys, fold_case),
            windows: None,
            memo: ChecksumMemo::default(),
        };
        if windows {
            p.windows = WindowTable::build(
                p.lengths(),
                fold_case,
                p.dict.keys(),
                FlatProbeTable::heap_bytes_for(p.dict.len()),
            );
        }
        if p.windows.is_none() {
            p.dict.flat_table();
        }
        p
    }

    /// True when the character kernel reads this dictionary through its
    /// window table rather than hashing and probing.
    pub fn is_window_indexed(&self) -> bool {
        self.window_table().is_some()
    }

    /// The window table, if it was built for the current lengths and case
    /// mode.
    #[inline]
    fn window_table(&self) -> Option<&WindowTable> {
        self.windows
            .as_ref()
            .filter(|t| t.lengths == self.lengths() && t.fold_case == self.fold_case)
    }

    /// Output dimensionality (dictionary size).
    pub fn dim(&self) -> usize {
        self.dict.len()
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// The n-gram lengths to extract, ascending (none when `n` is 0).
    fn lengths(&self) -> std::ops::RangeInclusive<usize> {
        let n = self.n as usize;
        if self.all_lengths {
            1..=n
        } else {
            n.max(1)..=n
        }
    }

    /// Streams every dictionary hit in `text` at character level.
    ///
    /// This is the fusion hook (paper §2): a fused `ngram → dot-product`
    /// physical stage accumulates `weights[offset + idx]` directly in the
    /// callback and never materializes the sparse feature vector at all.
    ///
    /// Hits stream lengths ascending, then window start positions
    /// ascending, so every consumer (sparse accumulation, fused f32 dot)
    /// sees the match sequence of a per-window sweep.
    ///
    /// The kernel: a window-indexed dictionary reads the row's windows
    /// straight through its table. Otherwise fold once, then per length key
    /// a block of windows — independent loads off the folded row — and
    /// bulk-probe it.
    #[inline]
    pub fn for_each_char_match(&self, text: &str, mut f: impl FnMut(u32)) {
        if let Some(table) = self.window_table() {
            return table.hits(text.as_bytes(), &mut f);
        }
        with_scratch(|s| {
            let buf = fold_row(&mut s.folded, text.as_bytes(), self.fold_case);
            self.char_hits(buf, &mut f);
        });
    }

    /// The character kernel over a row already folded into `buf` (the
    /// row's bytes, then [`SLACK`] bytes): the window table's, or per
    /// length blocks of window keys, each bulk-probed.
    #[inline]
    pub(crate) fn char_hits(&self, buf: &[u8], f: &mut impl FnMut(u32)) {
        let m = buf.len() - SLACK;
        if let Some(table) = self.window_table() {
            return table.hits(&buf[..m], f);
        }
        let flat = self.dict.flat_table();
        let mut keys = [0u64; KEY_BLOCK];
        for k in self.lengths().take_while(|&k| k <= m) {
            for base in (0..=m - k).step_by(KEY_BLOCK) {
                let cnt = KEY_BLOCK.min(m - k + 1 - base);
                window_keys(k, buf, base, &mut keys[..cnt]);
                flat.probe_each(&keys[..cnt], &mut *f);
            }
        }
    }

    /// Streams every dictionary hit at word level (`spans` over `text`).
    ///
    /// Fusion hook, see [`Self::for_each_char_match`]. The kernel: fold
    /// once, hash each token once, then per length extend every start
    /// token's (k−1)-gram by one join and bulk-probe.
    #[inline]
    pub fn for_each_word_match(&self, text: &str, spans: &[Span], mut f: impl FnMut(u32)) {
        with_scratch(|s| {
            let MatchScratch {
                folded,
                tokens,
                grams,
                ..
            } = s;
            let buf = fold_row(folded, text.as_bytes(), self.fold_case);
            let m = buf.len() - SLACK;
            tokens.clear();
            tokens.extend(spans.iter().map(|sp| {
                let (start, end) = (sp.start as usize, sp.end as usize);
                assert!(start <= end && end <= m, "token span outside its text");
                segment_hash(buf, start, end)
            }));
            self.word_hits(tokens, grams, &mut f);
        });
    }

    /// The word kernel over the row's token hashes: per length, every
    /// start token's (k−1)-gram extended by one join, then bulk-probed.
    /// `grams` is grow-only scratch.
    #[inline]
    pub(crate) fn word_hits(&self, tokens: &[u64], grams: &mut Vec<u64>, f: &mut impl FnMut(u32)) {
        let t = tokens.len();
        if grams.len() < t {
            grams.resize(t, 0);
        }
        let grams = &mut grams[..t];
        grams.copy_from_slice(tokens);
        let flat = self.dict.flat_table();
        let lengths = self.lengths();
        for k in 1..=(*lengths.end()).min(t) {
            let cnt = t - k + 1;
            if k > 1 {
                for (g, &last) in grams[..cnt].iter_mut().zip(&tokens[k - 1..]) {
                    *g = join(*g, last);
                }
            }
            if lengths.contains(&k) {
                flat.probe_each(&grams[..cnt], &mut *f);
            }
        }
    }

    /// Character-level extraction: hash every byte window of each length.
    ///
    /// `out` must be a sparse buffer of dimension [`Self::dim`]; it is
    /// cleared first.
    pub fn apply_char(&self, text: &str, out: &mut Vector) -> Result<()> {
        self.check_out(out)?;
        out.reset();
        self.for_each_char_match(text, |idx| out.sparse_accumulate(idx, 1.0));
        Ok(())
    }

    /// Word-level extraction: hash every token window of each length.
    ///
    /// `spans` index into `text`; `out` as for [`Self::apply_char`].
    pub fn apply_word(&self, text: &str, spans: &[Span], out: &mut Vector) -> Result<()> {
        self.check_out(out)?;
        out.reset();
        self.for_each_word_match(text, spans, |idx| out.sparse_accumulate(idx, 1.0));
        Ok(())
    }

    /// Batch character-level extraction: every text row into one CSR row.
    /// Per-row match order and duplicate-summing are exactly
    /// [`Self::apply_char`]'s, so rows are bitwise-identical.
    pub fn eval_batch_char(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        self.check_batch_out(out)?;
        out.reset();
        for r in 0..input.rows() {
            let ColRef::Text(text) = input.row(r) else {
                return Err(DataError::mismatch(
                    "char ngram",
                    "Text",
                    input.column_type(),
                ));
            };
            let mut row = out.begin_sparse_row()?;
            self.for_each_char_match(text, |idx| row.accumulate(idx, 1.0));
            row.finish();
        }
        Ok(())
    }

    /// Batch word-level extraction over parallel text and token batches.
    pub fn eval_batch_word(
        &self,
        text: &ColumnBatch,
        tokens: &ColumnBatch,
        out: &mut ColumnBatch,
    ) -> Result<()> {
        self.check_batch_out(out)?;
        out.reset();
        for r in 0..text.rows() {
            let (ColRef::Text(t), ColRef::Tokens(spans)) = (text.row(r), tokens.row(r)) else {
                let found = format!("{} + {}", text.column_type(), tokens.column_type());
                return Err(DataError::mismatch("word ngram", "Text + TokenList", found));
            };
            let mut row = out.begin_sparse_row()?;
            self.for_each_word_match(t, spans, |idx| row.accumulate(idx, 1.0));
            row.finish();
        }
        Ok(())
    }

    /// Decodes a word dictionary's section: [`ParamBlob::from_entries`]
    /// through [`Self::word`].
    pub fn word_from_entries(section: &Section) -> Result<Self> {
        Self::decode(section, false)
    }

    /// Decodes a section through [`Self::with_keys`], the keys read
    /// straight into their arena.
    fn decode(section: &Section, windows: bool) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let n = cfg.u32()?;
        let all_lengths = cfg.u32()? != 0;
        let fold_case = cfg.u32()? != 0;
        let mut cur = Cursor::new(section.entry("dictionary")?);
        let count = cur.u32()? as usize;
        let keys = KeyArena::read(&mut cur, count)?;
        Ok(Self::with_keys(n, all_lengths, fold_case, keys, windows))
    }

    fn check_batch_out(&self, out: &ColumnBatch) -> Result<()> {
        match out {
            ColumnBatch::Sparse { dim, .. } if *dim as usize == self.dim() => Ok(()),
            other => Err(self.output_mismatch(other.column_type())),
        }
    }

    fn check_out(&self, out: &Vector) -> Result<()> {
        match out {
            Vector::Sparse { dim, .. } if *dim as usize == self.dim() => Ok(()),
            other => Err(self.output_mismatch(other.column_type())),
        }
    }

    fn output_mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("ngram", format!("F32Sparse[{}] output", self.dim()), found)
    }
}

impl ParamBlob for NgramParams {
    const KIND: &'static str = "Ngram";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.n);
        wire::put_u32(&mut cfg, u32::from(self.all_lengths));
        wire::put_u32(&mut cfg, u32::from(self.fold_case));
        let arena = self.dict.keys();
        let mut keys = Vec::with_capacity(4 * (1 + arena.len()) + arena.bytes.len());
        wire::put_u32(&mut keys, self.dict.len() as u32);
        for k in arena.iter() {
            wire::put_str(&mut keys, k);
        }
        vec![("config".into(), cfg), ("dictionary".into(), keys)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        Self::decode(section, true)
    }

    fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes() + self.windows.as_ref().map_or(0, WindowTable::heap_bytes)
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::tokenizer::TokenizerParams;
    use pretzel_data::ColumnType;

    fn keys(v: &[&str]) -> Vec<Box<str>> {
        v.iter().map(|s| Box::from(*s)).collect()
    }

    fn sparse_pairs(v: &Vector) -> Vec<(u32, f32)> {
        match v {
            Vector::Sparse {
                indices, values, ..
            } => indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect(),
            _ => panic!("not sparse"),
        }
    }

    #[test]
    fn char_trigrams_count_matches() {
        let p = NgramParams::new(3, false, true, keys(&["abc", "bcd", "zzz"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 3 });
        p.apply_char("xabcdabc", &mut out).unwrap();
        // Windows: xab abc bcd cda dab abc -> abc ×2, bcd ×1.
        assert_eq!(sparse_pairs(&out), vec![(0, 2.0), (1, 1.0)]);
    }

    #[test]
    fn char_fold_case_matches_uppercase() {
        let p = NgramParams::new(2, false, true, keys(&["ab"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 1 });
        p.apply_char("AB", &mut out).unwrap();
        assert_eq!(sparse_pairs(&out), vec![(0, 1.0)]);

        let exact = NgramParams::new(2, false, false, keys(&["ab"]));
        let mut out2 = Vector::with_type(ColumnType::F32Sparse { len: 1 });
        exact.apply_char("AB", &mut out2).unwrap();
        assert_eq!(sparse_pairs(&out2), vec![]);
    }

    #[test]
    fn word_unigrams_and_bigrams() {
        let p = NgramParams::new(2, true, true, keys(&["nice", "nice product", "bad"]));
        let tok = TokenizerParams::whitespace_punct();
        let text = "a nice product";
        let mut toks = Vector::with_type(ColumnType::TokenList);
        tok.apply(text, &mut toks).unwrap();
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 3 });
        p.apply_word(text, toks.as_tokens().unwrap(), &mut out)
            .unwrap();
        assert_eq!(sparse_pairs(&out), vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn word_exact_length_only() {
        let p = NgramParams::new(2, false, true, keys(&["nice", "nice product"]));
        let tok = TokenizerParams::whitespace_punct();
        let text = "nice product";
        let mut toks = Vector::with_type(ColumnType::TokenList);
        tok.apply(text, &mut toks).unwrap();
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        p.apply_word(text, toks.as_tokens().unwrap(), &mut out)
            .unwrap();
        // Only the bigram; the unigram "nice" must not fire with
        // all_lengths = false.
        assert_eq!(sparse_pairs(&out), vec![(1, 1.0)]);
    }

    #[test]
    fn short_input_yields_empty_output() {
        let p = NgramParams::new(3, false, true, keys(&["abc"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 1 });
        p.apply_char("ab", &mut out).unwrap();
        assert_eq!(sparse_pairs(&out), vec![]);
        // n = 0 extracts nothing at either level, in either mode.
        for all_lengths in [true, false] {
            let p = NgramParams::new(0, all_lengths, true, keys(&["a"]));
            p.apply_char("a a", &mut out).unwrap();
            assert_eq!(sparse_pairs(&out), vec![]);
            let spans = [Span::new(0, 1), Span::new(2, 3)];
            p.apply_word("a a", &spans, &mut out).unwrap();
            assert_eq!(sparse_pairs(&out), vec![]);
        }
    }

    #[test]
    fn output_buffer_dim_checked() {
        let p = NgramParams::new(3, false, true, keys(&["abc"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        assert!(p.apply_char("abc", &mut out).is_err());
    }

    #[test]
    fn duplicate_keys_keep_first_index() {
        let d = NgramDict::new(keys(&["AB", "ab"]), true);
        assert_eq!(
            d.flat_table().probe(NgramDict::hash_key("ab", true)),
            Some(0)
        );
    }

    #[test]
    fn a_space_in_a_key_always_separates_word_segments() {
        // `hash_key` cannot know the level, so "e t" is the word bigram
        // (e, t) even in a character dictionary: the character window
        // "e t" of a text never matches it. Pinned so a change of key
        // scheme cannot alter it silently either way.
        let text = "the tree";
        let chars = NgramParams::new(3, false, true, keys(&["e t", "tre"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        chars.apply_char(text, &mut out).unwrap();
        assert_eq!(sparse_pairs(&out), vec![(1, 1.0)]);

        let words = NgramParams::new(2, false, true, keys(&["e t"]));
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 1 });
        let spans = [Span::new(2, 3), Span::new(4, 5)];
        words.apply_word(text, &spans, &mut out).unwrap();
        assert_eq!(sparse_pairs(&out), vec![(0, 1.0)]);
    }

    #[test]
    fn the_filter_leaves_few_windows_to_confirm_on_sa_shaped_rows() {
        // The mechanism, as counts: on an SA-shaped dictionary (5 000
        // random lowercase trigrams) and vocabulary text, the bit filter
        // must turn away >= 90 % of the windows that match nothing, and the
        // windows left for the slot walk — hits included — must stay under
        // a quarter of all windows.
        let p = crate::synth::char_ngram(0xc4, 3, 5_000);
        let vocab = crate::synth::vocabulary(0xfeed, 2_000);
        let table = p.dict.flat_table();
        let (mut windows, mut hits, mut survivors) = (0usize, 0usize, 0usize);
        let mut folded = Vec::new();
        for row in vocab.chunks(24) {
            let buf = fold_row(&mut folded, row.join(" ").as_bytes(), true);
            for at in 0..buf.len() - SLACK - 2 {
                let key = seg(3, |off| load_word(buf, at + off));
                windows += 1;
                hits += usize::from(table.probe(key).is_some());
                survivors += usize::from(table.may_contain(key));
            }
        }
        let false_positives = survivors - hits;
        assert!(windows > 10_000 && hits * 10 > windows, "{hits}/{windows}");
        assert!(
            false_positives * 10 <= windows - hits,
            "{false_positives} false positives in {} misses",
            windows - hits
        );
        assert!(survivors * 4 <= windows, "{survivors} of {windows} survive");
    }

    #[test]
    fn sa_and_churn_shaped_dictionaries_count_their_window_tables() {
        // 5 000 (SA) and all 17 576 (churn) lowercase trigrams: A = 26, so
        // 27^3 narrow cells, and heap_bytes counts exactly their bytes.
        for entries in [5_000, 20_000] {
            let p = crate::synth::char_ngram(0xc4, 3, entries);
            assert!(p.is_window_indexed());
            let Some(WindowTable {
                cells: Cells::Narrow(cells),
                ..
            }) = &p.windows
            else {
                panic!("{entries} keys: no narrow window table");
            };
            assert_eq!(cells.len(), 19_683);
            // The keys (3 bytes and a 4-byte offset each) and the cells:
            // no probe table.
            let keys = p.dim() * (3 + 4);
            assert_eq!(p.dict.heap_bytes(), keys);
            assert_eq!(p.heap_bytes(), keys + 19_683 * 2);
        }
        // Word dictionaries are read by token windows only, through the
        // probe table they are built with.
        let vocab = crate::synth::vocabulary(0xfeed, 2_000);
        for entries in [50, 1_250] {
            let w = crate::synth::word_ngram(0xd0, 2, entries, &vocab);
            assert!(!w.is_window_indexed());
            let flat = w.dict.flat.get().expect("built with the dictionary");
            assert_eq!(
                w.heap_bytes(),
                w.dict.keys().heap_bytes() + flat.heap_bytes()
            );
        }
    }

    #[test]
    fn window_indexed_scoring_never_builds_the_probe_table() {
        let p = crate::synth::char_ngram(0xc4, 3, 20_000);
        assert!(p.is_window_indexed());
        let rows = ["the quick brown fox", "", "Jumps over THE lazy dog!"];
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: p.dim() });
        let mut batch = ColumnBatch::with_type(ColumnType::Text);
        for row in rows {
            p.apply_char(row, &mut out).unwrap();
            batch.push_text(row).unwrap();
        }
        let mut sparse = ColumnBatch::with_type(ColumnType::F32Sparse { len: p.dim() });
        p.eval_batch_char(&batch, &mut sparse).unwrap();
        let mut folded = Vec::new();
        p.char_hits(fold_row(&mut folded, b"brown fox", true), &mut |_| {});
        assert!(
            p.dict.flat.get().is_none(),
            "a window-indexed kernel probed"
        );
        let resident = p.heap_bytes();

        // Asked for, the table is built once, counted from then on, and
        // answers for every key as the window table does.
        let flat = p.dict.flat_table();
        assert_eq!(flat.heap_bytes(), FlatProbeTable::heap_bytes_for(p.dim()));
        assert_eq!(p.heap_bytes(), resident + flat.heap_bytes());
        for (i, key) in p.dict.keys().iter().enumerate() {
            let hit = flat.probe(NgramDict::hash_key(key, true)).unwrap();
            assert_eq!(hit as usize, i, "{key}");
        }
        assert!(std::ptr::eq(flat, p.dict.flat_table()));
    }

    #[test]
    fn the_arena_encodes_as_the_boxed_keys_did() {
        // The image form of a dictionary held as one `Box<str>` per key.
        let boxed = keys(&["abc", "", "not good", "Äpfel", "abc", "z"]);
        let mut dictionary = Vec::new();
        wire::put_u32(&mut dictionary, boxed.len() as u32);
        for k in &boxed {
            wire::put_str(&mut dictionary, k);
        }
        let mut config = Vec::new();
        for v in [2, 1, 1] {
            wire::put_u32(&mut config, v);
        }
        let want = vec![
            ("config".to_string(), config),
            ("dictionary".to_string(), dictionary),
        ];

        let p = NgramParams::new(2, true, true, boxed.clone());
        assert_eq!(p.to_entries(), want);
        assert_eq!(
            p.checksum(),
            pretzel_data::serde_bin::section_checksum(&want)
        );
        let arena: Vec<&str> = p.dict.keys().iter().collect();
        assert_eq!(arena, boxed.iter().map(|k| &**k).collect::<Vec<_>>());

        // Decoded, the arena is exactly the key bytes and one offset each.
        let section = Section {
            name: "op.Ngram".into(),
            checksum: 0,
            entries: want,
        };
        let q = NgramParams::from_entries(&section).unwrap();
        assert_eq!(q, p);
        let key_bytes: usize = boxed.iter().map(|k| k.len()).sum();
        assert_eq!(q.dict.keys().heap_bytes(), key_bytes + 4 * boxed.len());
    }

    #[test]
    fn a_hostile_key_count_is_refused_before_anything_is_reserved() {
        // The count prefix claims more keys than the bytes behind it can
        // hold (each takes a 4-byte length at least): refused, not
        // reserved for. A count the bytes can hold reserves what they hold.
        let mut dictionary = Vec::new();
        wire::put_u32(&mut dictionary, u32::MAX);
        wire::put_str(&mut dictionary, "abc");
        let mut cur = Cursor::new(&dictionary[4..]);
        let err = KeyArena::read(&mut cur, u32::MAX as usize).unwrap_err();
        assert!(matches!(err, DataError::Codec(_)), "{err}");
        assert_eq!(cur.remaining(), 7, "nothing was read either");
        let mut cur = Cursor::new(&dictionary[4..]);
        assert!(KeyArena::read(&mut cur, 2).is_err());
        let mut cur = Cursor::new(&dictionary[4..]);
        let one = KeyArena::read(&mut cur, 1).unwrap();
        assert_eq!((one.len(), &one[0]), (1, "abc"));
    }

    #[test]
    fn an_edited_clone_hashes_instead_of_reading_a_stale_table() {
        let p = NgramParams::new(2, false, true, keys(&["ab", "bc", "abc"]));
        assert!(p.is_window_indexed());
        let mut longer = p.clone();
        longer.n = 3;
        assert!(!longer.is_window_indexed());
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 3 });
        longer.apply_char("xabc", &mut out).unwrap();
        assert_eq!(sparse_pairs(&out), vec![(2, 1.0)]);
    }

    #[test]
    fn round_trip_through_section_preserves_behaviour() {
        let p = NgramParams::new(2, true, true, keys(&["good", "not good"]));
        let section = Section {
            name: "op2.Ngram".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        let q = NgramParams::from_entries(&section).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.checksum(), q.checksum());
        assert!(q
            .dict
            .flat_table()
            .probe(NgramDict::hash_key("not good", true))
            .is_some());
    }

    #[test]
    fn heap_bytes_scales_with_dictionary() {
        let small = NgramParams::new(3, false, true, keys(&["abc"]));
        let big_keys: Vec<Box<str>> = (0..1000).map(|i| format!("k{i:04}").into()).collect();
        let big = NgramParams::new(3, false, true, big_keys);
        assert!(big.heap_bytes() > small.heap_bytes() * 100);
    }
}
