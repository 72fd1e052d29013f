//! One-hot encoder for low-cardinality categorical dimensions.
//!
//! Expands selected dimensions of a dense input into one-hot indicator
//! blocks (categories learned at training time), passing the remaining
//! dimensions through. 1-to-1 in the column sense, memory-bound, fusible.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// One-hot parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotParams {
    /// Input dimensionality.
    pub input_dim: u32,
    /// `(dim, cardinality)` pairs: input dimension `dim` expands into
    /// `cardinality` indicator slots. Values are clamped to the cardinality
    /// (unknown categories map to the last slot).
    pub encoded: Vec<(u32, u32)>,
    memo: ChecksumMemo,
}

impl OneHotParams {
    /// Creates a one-hot encoder.
    pub fn new(input_dim: u32, mut encoded: Vec<(u32, u32)>) -> Self {
        encoded.sort_unstable();
        encoded.dedup_by_key(|(d, _)| *d);
        OneHotParams {
            input_dim,
            encoded,
            memo: ChecksumMemo::default(),
        }
    }

    /// Output dimensionality: pass-through dims + indicator blocks.
    pub fn output_dim(&self) -> usize {
        let pass = self.input_dim as usize - self.encoded.len();
        pass + self.encoded.iter().map(|&(_, c)| c as usize).sum::<usize>()
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// Encodes one dense row into its one-hot expansion. `y` must be
    /// zeroed and sized [`Self::output_dim`]. Shared by the per-record and
    /// batch kernels, so their bitwise agreement rests on one
    /// implementation.
    fn encode_row(&self, x: &[f32], y: &mut [f32]) {
        let mut w = 0usize;
        let mut enc_iter = self.encoded.iter().peekable();
        for (d, &v) in x.iter().enumerate() {
            if let Some(&&(ed, card)) = enc_iter.peek() {
                if ed as usize == d {
                    enc_iter.next();
                    let slot = (v.max(0.0) as usize).min(card as usize - 1);
                    y[w + slot] = 1.0;
                    w += card as usize;
                    continue;
                }
            }
            y[w] = v;
            w += 1;
        }
    }

    /// Encodes `input` (dense) into `out` (dense of [`Self::output_dim`]).
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        match (input, out) {
            (Vector::Dense(x), Vector::Dense(y))
                if x.len() == self.input_dim as usize && y.len() == self.output_dim() =>
            {
                y.fill(0.0);
                self.encode_row(x, y);
                Ok(())
            }
            (input, _) => Err(self.mismatch(input.column_type())),
        }
    }

    /// Batch kernel: expands every row of the chunk through the same
    /// `Self::encode_row` as the per-record kernel.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let in_dim = self.input_dim as usize;
        let out_dim = self.output_dim();
        let (x, got_dim, rows) = input
            .as_dense()
            .ok_or_else(|| self.mismatch(input.column_type()))?;
        if got_dim != in_dim
            || out.column_type() != (pretzel_data::ColumnType::F32Dense { len: out_dim })
        {
            return Err(self.mismatch(input.column_type()));
        }
        let y = out.fill_dense(rows)?;
        for (xr, yr) in x.chunks_exact(in_dim).zip(y.chunks_exact_mut(out_dim)) {
            self.encode_row(xr, yr);
        }
        Ok(())
    }

    fn mismatch(&self, found: ColumnType) -> DataError {
        let want = format!(
            "F32Dense[{}] -> F32Dense[{}]",
            self.input_dim,
            self.output_dim()
        );
        DataError::mismatch("onehot", want, found)
    }
}

impl ParamBlob for OneHotParams {
    const KIND: &'static str = "OneHot";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.input_dim);
        wire::put_u32(&mut cfg, self.encoded.len() as u32);
        for &(d, c) in &self.encoded {
            wire::put_u32(&mut cfg, d);
            wire::put_u32(&mut cfg, c);
        }
        vec![("config".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("config")?);
        let input_dim = cur.u32()?;
        let n = cur.u32()? as usize;
        let mut encoded = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let d = cur.u32()?;
            let c = cur.u32()?;
            if c == 0 || d >= input_dim {
                return Err(DataError::Codec(format!(
                    "bad onehot entry (dim {d}, card {c})"
                )));
            }
            encoded.push((d, c));
        }
        Ok(OneHotParams::new(input_dim, encoded))
    }

    fn heap_bytes(&self) -> usize {
        self.encoded.capacity() * 8
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
    fn encodes_and_passes_through() {
        // dims: 0 pass, 1 encoded (card 3), 2 pass.
        let p = OneHotParams::new(3, vec![(1, 3)]);
        assert_eq!(p.output_dim(), 5);
        let x = Vector::Dense(vec![7.0, 2.0, -4.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 5 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[7.0, 0.0, 0.0, 1.0, -4.0]);
    }

    #[test]
    fn out_of_range_categories_clamp() {
        let p = OneHotParams::new(1, vec![(0, 2)]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        p.apply(&Vector::Dense(vec![9.0]), &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[0.0, 1.0]);
        p.apply(&Vector::Dense(vec![-3.0]), &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[1.0, 0.0]);
    }

    #[test]
    fn round_trip_through_section() {
        let p = OneHotParams::new(10, vec![(2, 4), (7, 2)]);
        let section = Section {
            name: "op.OneHot".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        assert_eq!(OneHotParams::from_entries(&section).unwrap(), p);
    }

    #[test]
    fn rejects_corrupt_entries() {
        let p = OneHotParams::new(3, vec![(1, 3)]);
        let mut entries = p.to_entries();
        // Rewrite with dim >= input_dim.
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, 3);
        wire::put_u32(&mut cfg, 1);
        wire::put_u32(&mut cfg, 5);
        wire::put_u32(&mut cfg, 2);
        entries[0].1 = cfg;
        let section = Section {
            name: "op.OneHot".into(),
            checksum: 0,
            entries,
        };
        assert!(OneHotParams::from_entries(&section).is_err());
    }
}
