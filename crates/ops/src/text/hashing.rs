//! Feature-hashing vectorizer (dictionary-free n-gram featurizer).
//!
//! ML.Net's `HashingVectorizer`-style featurizer: instead of probing a
//! trained dictionary, every character n-gram is hashed into one of
//! `buckets` slots. No parameters beyond the configuration — the cheapest
//! featurizer to share, and a useful contrast to the dictionary-backed
//! [`crate::text::ngram`] operators in the memory experiments.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::hash::Fnv1a;
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColRef, ColumnBatch, ColumnType, DataError, Result, Vector};

/// Parameters of the hashing vectorizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashingParams {
    /// N-gram length (character level).
    pub n: u32,
    /// Number of hash buckets (= output dimensionality).
    pub buckets: u32,
    /// Case-insensitive hashing.
    pub fold_case: bool,
    memo: ChecksumMemo,
}

impl HashingParams {
    /// Creates a hashing featurizer.
    pub fn new(n: u32, buckets: u32, fold_case: bool) -> Self {
        HashingParams {
            n,
            buckets,
            fold_case,
            memo: ChecksumMemo::default(),
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.buckets as usize
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// Streams the bucket index of every `n`-byte window of `text` — the
    /// one hashing loop both the per-record and the batch kernel run.
    #[inline]
    pub fn for_each_bucket(&self, text: &str, mut f: impl FnMut(u32)) {
        let bytes = text.as_bytes();
        let n = self.n as usize;
        if bytes.len() < n || self.buckets == 0 {
            return;
        }
        for w in bytes.windows(n) {
            let mut h = Fnv1a::new();
            for &b in w {
                let fb = if self.fold_case && b.is_ascii_uppercase() {
                    b | 0x20
                } else {
                    b
                };
                h.write(&[fb]);
            }
            f((h.finish() % u64::from(self.buckets)) as u32);
        }
    }

    /// Hashes every `n`-byte window of `text` into the output buckets.
    pub fn apply(&self, text: &str, out: &mut Vector) -> Result<()> {
        match out {
            Vector::Sparse { dim, .. } if *dim == self.buckets => {}
            other => return Err(self.output_mismatch(other.column_type())),
        }
        out.reset();
        self.for_each_bucket(text, |idx| out.sparse_accumulate(idx, 1.0));
        Ok(())
    }

    /// Batch kernel: every text row hashed into one CSR row (window order
    /// and duplicate-summing identical to [`Self::apply`]).
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        match out {
            ColumnBatch::Sparse { dim, .. } if *dim == self.buckets => {}
            other => return Err(self.output_mismatch(other.column_type())),
        }
        out.reset();
        for r in 0..input.rows() {
            let ColRef::Text(text) = input.row(r) else {
                return Err(DataError::mismatch("hashing", "Text", input.column_type()));
            };
            let mut row = out.begin_sparse_row()?;
            self.for_each_bucket(text, |idx| row.accumulate(idx, 1.0));
            row.finish();
        }
        Ok(())
    }

    fn output_mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch(
            "hashing",
            format!("F32Sparse[{}] output", self.buckets),
            found,
        )
    }
}

impl ParamBlob for HashingParams {
    const KIND: &'static str = "HashingVectorizer";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.n);
        wire::put_u32(&mut cfg, self.buckets);
        wire::put_u32(&mut cfg, u32::from(self.fold_case));
        vec![("config".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("config")?);
        Ok(HashingParams {
            n: cur.u32()?,
            buckets: cur.u32()?,
            fold_case: cur.u32()? != 0,
            memo: ChecksumMemo::default(),
        })
    }

    fn heap_bytes(&self) -> usize {
        0
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    #[test]
    fn total_mass_equals_window_count() {
        let p = HashingParams::new(3, 64, true);
        let text = "hello world";
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 64 });
        p.apply(text, &mut out).unwrap();
        let total: f32 = match &out {
            Vector::Sparse { values, .. } => values.iter().sum(),
            _ => unreachable!(),
        };
        assert_eq!(total, (text.len() - 2) as f32);
    }

    #[test]
    fn deterministic_and_case_folded() {
        let p = HashingParams::new(2, 16, true);
        let mut a = Vector::with_type(ColumnType::F32Sparse { len: 16 });
        let mut b = Vector::with_type(ColumnType::F32Sparse { len: 16 });
        p.apply("AbCd", &mut a).unwrap();
        p.apply("abcd", &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn short_text_is_empty_output() {
        let p = HashingParams::new(5, 8, false);
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 8 });
        p.apply("abc", &mut out).unwrap();
        assert_eq!(out.stored_len(), 0);
    }

    #[test]
    fn buffer_dim_checked() {
        let p = HashingParams::new(2, 8, false);
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 9 });
        assert!(p.apply("abc", &mut out).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let p = HashingParams::new(4, 1024, true);
        let section = Section {
            name: "op.Hash".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        assert_eq!(HashingParams::from_entries(&section).unwrap(), p);
    }
}
