//! Adversarial request generators: inputs a hostile (or merely buggy)
//! client could throw at the serving boundary.
//!
//! Two families:
//!
//! * **malformed payloads** — non-finite floats, out-of-dim or
//!   non-increasing sparse indices, hostile length claims. These must be
//!   *rejected* at the ingest boundary as typed errors (`BadInput` for a
//!   value the request may not carry, `Codec` for a length claim the bytes
//!   do not hold); none of them may reach a kernel.
//! * **fault-salted text** — well-formed records that a deliberately
//!   faulting operator (the `fault-op` synthetic, see `pretzel_ops::fault`)
//!   panics on. These exercise the *containment* boundary: the request
//!   fails with an `ExecutionFault`, the executor thread survives,
//!   and a plan faulting persistently is quarantined and rolled back.
//!
//! Everything is seeded and deterministic, like the rest of this crate.

use crate::text::ReviewGen;

/// Deterministic splitmix64 — local so adversarial streams don't perturb
/// the `rand`-based generators' sequences.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The marker substring the fault-salted stream embeds; kept ASCII and
/// improbable in the synthetic review vocabulary.
pub const FAULT_MARKER: &str = "__FAULT__";

/// A CSV-line stream in which each record independently carries
/// [`FAULT_MARKER`] with probability `rate` — the drive signal for a
/// fault-injecting plan while every unmarked record serves normally.
#[derive(Debug)]
pub struct FaultSaltedText {
    gen: ReviewGen,
    rng: SplitMix,
    rate: f64,
}

impl FaultSaltedText {
    /// Seeds the stream; `rate` in `[0, 1]` is the per-record marking
    /// probability.
    pub fn new(seed: u64, vocab_size: usize, rate: f64) -> Self {
        FaultSaltedText {
            gen: ReviewGen::new(seed, vocab_size, 1.1),
            rng: SplitMix::new(seed ^ 0xfa17),
            rate,
        }
    }

    /// Next CSV record; the bool reports whether it was marked (and will
    /// panic a fault-op plan).
    pub fn line(&mut self) -> (String, bool) {
        let mut line = self.gen.csv_line();
        let marked = self.rng.unit() < self.rate;
        if marked {
            line.push(' ');
            line.push_str(FAULT_MARKER);
        }
        (line, marked)
    }

    /// `n` records with their marked flags.
    pub fn lines(&mut self, n: usize) -> Vec<(String, bool)> {
        (0..n).map(|_| self.line()).collect()
    }
}

/// Dense rows carrying non-finite values — every one must be rejected by
/// an ingest boundary running with `reject_non_finite`.
pub fn non_finite_dense_rows(dim: usize) -> Vec<Vec<f32>> {
    let mut nan_mid = vec![0.5; dim];
    if dim > 1 {
        nan_mid[dim / 2] = f32::NAN;
    } else {
        nan_mid[0] = f32::NAN;
    }
    let mut inf_first = vec![1.0; dim];
    inf_first[0] = f32::INFINITY;
    let mut ninf_last = vec![-1.0; dim];
    ninf_last[dim - 1] = f32::NEG_INFINITY;
    vec![nan_mid, inf_first, ninf_last]
}

/// Sparse rows (`indices`, `values`) that violate the CSR contract for
/// dimensionality `dim` — out-of-dim, non-increasing, duplicated indices,
/// and a non-finite value. All must be rejected at ingest.
pub fn hostile_sparse_rows(dim: u32) -> Vec<(Vec<u32>, Vec<f32>)> {
    vec![
        (vec![dim], vec![1.0]),            // index == dim (out of range)
        (vec![2, 1], vec![1.0, 2.0]),      // non-increasing
        (vec![3, 3], vec![1.0, 2.0]),      // duplicate
        (vec![0, 1], vec![1.0, f32::NAN]), // non-finite value
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salted_stream_marks_at_rate() {
        let mut s = FaultSaltedText::new(7, 64, 0.1);
        let lines = s.lines(5000);
        let marked = lines.iter().filter(|(_, m)| *m).count();
        assert!(
            (300..=700).contains(&marked),
            "10% rate produced {marked}/5000 marked records"
        );
        for (line, m) in &lines {
            assert_eq!(line.contains(FAULT_MARKER), *m);
        }
    }

    #[test]
    fn salted_stream_is_deterministic() {
        let a = FaultSaltedText::new(9, 64, 0.25).lines(100);
        let b = FaultSaltedText::new(9, 64, 0.25).lines(100);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_never_marks() {
        let mut s = FaultSaltedText::new(3, 64, 0.0);
        assert!(s.lines(200).iter().all(|(_, m)| !m));
    }

    #[test]
    fn hostile_payloads_have_expected_shapes() {
        for row in non_finite_dense_rows(8) {
            assert_eq!(row.len(), 8);
            assert!(row.iter().any(|v| !v.is_finite()));
        }
        assert_eq!(hostile_sparse_rows(4).len(), 4);
    }
}
