//! Small non-cryptographic hash utilities.
//!
//! Three uses in the reproduction, mirroring the paper, served by two
//! hashes:
//!
//! 1. **Feature hashing** of n-gram windows (the `HashingVectorizer`
//!    operator, [`feature_bucket`]): [`Fnv1a`]. It stays FNV-1a because a
//!    window's bucket — and so which trained weight it reads — is defined
//!    by it, and because windows are a few bytes long, too short for a
//!    lane-parallel hash to gain anything. (The dictionary n-gram
//!    featurizers hash their windows with their own word-packed hash in
//!    `pretzel_ops::text::ngram`.)
//! 2. **Parameter checksums**: the Object Store dedups operator parameters by
//!    "the checksum of the serialized version of the objects" (§4.1.3):
//!    [`Xxh64`], via `serde_bin::section_checksum`. Every section of every
//!    model image is verified on every load, so this hash runs over whole
//!    images; four independent lanes keep it near memory speed where
//!    FNV-1a's byte-serial multiply chain does not.
//! 3. **Input hashing** for sub-plan materialization: "hashing of the input
//!    is used to decide whether a result is already available" (§4.3):
//!    [`Fnv1a`] (`content_hash_*`), over short records.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
///
/// Deterministic across runs and platforms, which matters because parameter
/// checksums are persisted inside model files and compared after reload.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Creates a hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feeds `bytes` into the hash state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Feeds one byte: the hot-loop form of `write(&[b])`, used by the
    /// incremental n-gram window hashing where a position's length-`k` hash
    /// extends its length-`k−1` hash one byte at a time.
    #[inline(always)]
    pub fn push_byte(&mut self, b: u8) {
        self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a little-endian `u64` into the hash state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds the bit pattern of an `f32` into the hash state.
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Returns the current 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes a byte slice with FNV-1a in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;
/// Bytes consumed per round: one `u64` for each of the four lanes.
const XXH_STRIPE: usize = 32;

/// Streaming XXH64 (seed 0), bit-compatible with the reference xxHash.
///
/// Deterministic across runs and platforms, which matters because section
/// checksums are persisted inside model files and compared after reload.
/// Input is consumed in 32-byte stripes by four independent
/// multiply-rotate lanes, so the multiplies overlap instead of each
/// waiting on the previous one.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    total_len: u64,
    /// Bytes of an incomplete stripe, carried to the next `write`.
    buf: [u8; XXH_STRIPE],
    buf_len: usize,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

#[inline(always)]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline(always)]
fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

#[inline(always)]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

impl Xxh64 {
    /// Creates a hasher with seed 0.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
            total_len: 0,
            buf: [0; XXH_STRIPE],
            buf_len: 0,
        }
    }

    #[inline(always)]
    fn stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = xxh_round(*lane, le_u64(word));
        }
    }

    /// Feeds `bytes` into the hash state.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.buf_len > 0 {
            let fill = (XXH_STRIPE - self.buf_len).min(bytes.len());
            self.buf[self.buf_len..self.buf_len + fill].copy_from_slice(&bytes[..fill]);
            self.buf_len += fill;
            bytes = &bytes[fill..];
            if self.buf_len < XXH_STRIPE {
                return;
            }
            Self::stripe(&mut self.lanes, &self.buf);
            self.buf_len = 0;
        }
        let mut stripes = bytes.chunks_exact(XXH_STRIPE);
        let mut lanes = self.lanes;
        for stripe in &mut stripes {
            Self::stripe(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let tail = stripes.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Returns the 64-bit digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total_len >= XXH_STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
        } else {
            XXH_P5
        };
        h = h.wrapping_add(self.total_len);
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            h ^= xxh_round(0, le_u64(tail));
            h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(word).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(XXH_P5);
            h = h.rotate_left(11).wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

/// Hashes a byte slice with XXH64 (seed 0) in one call.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.write(bytes);
    h.finish()
}

/// Content hash of a text source record.
///
/// The canonical per-record identity used by the sub-plan materialization
/// cache and the FrontEnd result cache. Every ingest path (Record staging,
/// wire-to-columnar assembly, batch rows) must produce the same hash for
/// the same record bytes, so these helpers are the single definition.
pub fn content_hash_text(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Content hash of a dense source record (bit patterns, in order).
pub fn content_hash_dense(xs: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    for &v in xs {
        h.write_f32(v);
    }
    h.finish()
}

/// Content hash of a sparse source record: dimensionality, then the sorted
/// indices, then the parallel values.
pub fn content_hash_sparse(indices: &[u32], values: &[f32], dim: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&dim.to_le_bytes());
    for &i in indices {
        h.write(&i.to_le_bytes());
    }
    for &v in values {
        h.write_f32(v);
    }
    h.finish()
}

/// SplitMix64: fast avalanche finalizer used to derive independent seeds.
///
/// Workload synthesis derives per-pipeline / per-operator seeds from a master
/// seed with this, so that adding a pipeline never perturbs existing ones.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `std::hash::Hasher` that passes a pre-hashed `u64` key through
/// unchanged (after a SplitMix64 finalize to spread low bits into the
/// table-index range).
///
/// Hot probe tables keyed by values that are *already* good 64-bit hashes
/// (FNV-1a n-gram window hashes, XXH64 parameter checksums) waste most of their
/// probe time re-hashing the key with SipHash under std's default hasher.
/// `HashMap<u64, _, PrehashedBuild>` skips that: one multiply-shift chain
/// instead of a full SipHash pass per lookup.
#[derive(Debug, Default, Clone, Copy)]
pub struct Prehashed {
    state: u64,
}

impl std::hash::Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys: FNV over the bytes. Correct, but the
        // intended use is `write_u64`.
        let mut h = Fnv1a::new();
        h.write_u64(self.state);
        h.write(bytes);
        self.state = h.finish();
    }

    fn write_u64(&mut self, v: u64) {
        // Mix rather than overwrite so composite keys (more than one
        // write_u64) still depend on every component; for the common
        // single-write case state is 0 and this reduces to splitmix64(v).
        self.state = splitmix64(self.state ^ v);
    }
}

/// `BuildHasher` for [`Prehashed`].
pub type PrehashedBuild = std::hash::BuildHasherDefault<Prehashed>;

/// Hashes a feature string into a bucket in `[0, buckets)`.
///
/// Used by n-gram featurizers when a token misses the trained dictionary and
/// by the `HashingVectorizer` operator.
///
/// # Panics
///
/// Panics if `buckets == 0` (a featurizer with zero buckets is a
/// construction-time bug, not a data-dependent condition).
pub fn feature_bucket(feature: &[u8], buckets: usize) -> usize {
    assert!(buckets > 0, "feature_bucket requires at least one bucket");
    (fnv1a(feature) % buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn push_byte_equals_write() {
        let mut a = Fnv1a::new();
        for &b in b"foobar" {
            a.push_byte(b);
        }
        assert_eq!(a.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 digests, seed 0.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn xxh64_streaming_equals_oneshot_at_every_split() {
        // 100 bytes: three full stripes plus a 4-byte tail, so the splits
        // cross the 32-byte stripe boundary from both sides.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = xxh64(&data);
        // The stripe path and every tail step, as computed by an
        // independent one-shot implementation of the specification.
        assert_eq!(whole, 0x4826_e367_566e_a023);
        for split in 0..=data.len() {
            let mut h = Xxh64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        let mut bytewise = Xxh64::new();
        for b in &data {
            bytewise.write(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn splitmix_decorrelates_adjacent_seeds() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        // Avalanche: at least a quarter of the bits flip between neighbours.
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn feature_bucket_in_range_and_deterministic() {
        for buckets in [1usize, 7, 1024] {
            for f in [&b"the"[..], b"quick", b"brown fox"] {
                let x = feature_bucket(f, buckets);
                assert!(x < buckets);
                assert_eq!(x, feature_bucket(f, buckets));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn feature_bucket_zero_buckets_panics() {
        let _ = feature_bucket(b"x", 0);
    }
}
