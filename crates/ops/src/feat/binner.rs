//! Quantile binner.
//!
//! Maps each dimension of a dense vector onto the index of the training
//! quantile bin it falls into — the discretization featurizer tree models
//! are often trained behind. 1-to-1, memory-bound, fusible.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// Binner parameters: per-dimension ascending bin upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnerParams {
    /// `bounds[d]` holds the ascending upper bounds of dimension `d`'s bins.
    /// A value `x` maps to the first bin whose bound is `>= x`, or to
    /// `bounds[d].len()` if above all bounds.
    pub bounds: Vec<Vec<f32>>,
    memo: ChecksumMemo,
}

impl BinnerParams {
    /// Creates a binner from per-dimension bounds.
    pub fn new(bounds: Vec<Vec<f32>>) -> Self {
        BinnerParams {
            bounds,
            memo: ChecksumMemo::default(),
        }
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// Bins `input` into `out` (dense → dense of bin indices as `f32`).
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        match (input, out) {
            (Vector::Dense(x), Vector::Dense(y))
                if x.len() == self.dim() && y.len() == self.dim() =>
            {
                for d in 0..x.len() {
                    let bs = &self.bounds[d];
                    // partition_point: count of bounds < x ⇒ bin index.
                    let bin = bs.partition_point(|&b| b < x[d]);
                    y[d] = bin as f32;
                }
                Ok(())
            }
            (input, _) => Err(self.mismatch(input.column_type())),
        }
    }

    /// Batch kernel: bins the chunk column-by-column so each dimension's
    /// bound table stays cache-resident across rows (per-element math
    /// identical to [`Self::apply`]).
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let dim = self.dim();
        let (x, in_dim, rows) = input
            .as_dense()
            .ok_or_else(|| self.mismatch(input.column_type()))?;
        if in_dim != dim || out.column_type() != (pretzel_data::ColumnType::F32Dense { len: dim }) {
            return Err(self.mismatch(input.column_type()));
        }
        let y = out.fill_dense(rows)?;
        for (d, bs) in self.bounds.iter().enumerate() {
            for r in 0..rows {
                let bin = bs.partition_point(|&b| b < x[r * dim + d]);
                y[r * dim + d] = bin as f32;
            }
        }
        Ok(())
    }

    fn mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("binner", format!("F32Dense[{}]", self.dim()), found)
    }
}

impl ParamBlob for BinnerParams {
    const KIND: &'static str = "Binner";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut blob = Vec::new();
        wire::put_u32(&mut blob, self.bounds.len() as u32);
        for bs in &self.bounds {
            wire::put_f32s(&mut blob, bs);
        }
        vec![("bounds".into(), blob)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("bounds")?);
        let n = cur.u32()? as usize;
        let mut bounds = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            bounds.push(cur.f32s()?);
        }
        Ok(BinnerParams::new(bounds))
    }

    fn heap_bytes(&self) -> usize {
        self.bounds.capacity() * std::mem::size_of::<Vec<f32>>()
            + self.bounds.iter().map(|b| b.capacity() * 4).sum::<usize>()
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
    fn bins_by_partition_point() {
        let p = BinnerParams::new(vec![vec![0.0, 1.0, 2.0], vec![10.0]]);
        let x = Vector::Dense(vec![1.5, 5.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[2.0, 0.0]);
    }

    #[test]
    fn boundary_values_map_to_lower_bin() {
        let p = BinnerParams::new(vec![vec![1.0, 2.0]]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 1 });
        p.apply(&Vector::Dense(vec![1.0]), &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[0.0]);
        p.apply(&Vector::Dense(vec![2.5]), &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[2.0]);
    }

    #[test]
    fn round_trip_through_section() {
        let p = BinnerParams::new(vec![vec![0.5], vec![], vec![1.0, 2.0]]);
        let section = Section {
            name: "op.Binner".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        assert_eq!(BinnerParams::from_entries(&section).unwrap(), p);
    }

    #[test]
    fn dim_mismatch_is_error() {
        let p = BinnerParams::new(vec![vec![0.0]]);
        let x = Vector::Dense(vec![1.0, 2.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 1 });
        assert!(p.apply(&x, &mut y).is_err());
    }
}
