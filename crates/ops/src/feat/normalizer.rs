//! Vector normalization (L1 / L2 / max-abs).
//!
//! The paper's canonical n-to-1 aggregate: "a Normalizer requires the L2
//! norm of the complete vector" (§4.1.2), which makes it a pipeline breaker
//! in the stage-formation rules.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::batch::ColRef;
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// Norm used for scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormKind {
    /// Divide by the sum of absolute values.
    L1,
    /// Divide by the Euclidean norm.
    L2,
    /// Divide by the maximum absolute value.
    MaxAbs,
}

/// Normalizer parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizerParams {
    /// Which norm to scale by.
    pub kind: NormKind,
    /// Input/output dimensionality.
    pub dim: u32,
    memo: ChecksumMemo,
}

impl NormalizerParams {
    /// Creates a normalizer.
    pub fn new(kind: NormKind, dim: u32) -> Self {
        NormalizerParams {
            kind,
            dim,
            memo: ChecksumMemo::default(),
        }
    }

    /// Operator annotations: aggregate / pipeline breaker.
    pub fn annotations(&self) -> Annotations {
        Annotations::aggregate()
    }

    /// Normalizes `input` into `out` (both dense or both sparse of
    /// dimension `dim`). A zero vector is passed through unchanged.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        match (input, out) {
            (Vector::Dense(x), Vector::Dense(y)) => {
                if x.len() != self.dim as usize || y.len() != self.dim as usize {
                    return Err(self.mismatch(input.column_type()));
                }
                let norm = self.norm_dense(x);
                let inv = if norm > 0.0 { 1.0 / norm } else { 1.0 };
                for (o, &v) in y.iter_mut().zip(x.iter()) {
                    *o = v * inv;
                }
                Ok(())
            }
            (
                Vector::Sparse {
                    indices,
                    values,
                    dim,
                },
                Vector::Sparse {
                    indices: oi,
                    values: ov,
                    dim: od,
                },
            ) => {
                if *dim != self.dim || *od != self.dim {
                    return Err(self.mismatch(input.column_type()));
                }
                let norm = self.norm_values(values);
                let inv = if norm > 0.0 { 1.0 / norm } else { 1.0 };
                oi.clear();
                ov.clear();
                oi.extend_from_slice(indices);
                ov.extend(values.iter().map(|&v| v * inv));
                Ok(())
            }
            _ => Err(self.mismatch(input.column_type())),
        }
    }

    /// Batch kernel: normalizes every row of the chunk, preserving the
    /// input layout (dense rows stay dense, CSR rows stay CSR). Row math is
    /// identical to [`Self::apply`].
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let dim = self.dim as usize;
        match input {
            ColumnBatch::Dense { dim: in_dim, .. } => {
                if *in_dim != dim || out.column_type() != input.column_type() {
                    return Err(self.mismatch(input.column_type()));
                }
                let (x, _, rows) = input.as_dense().expect("checked dense");
                let y = out.fill_dense(rows)?;
                for (xr, yr) in x.chunks_exact(dim).zip(y.chunks_exact_mut(dim)) {
                    let norm = self.norm_values(xr);
                    let inv = if norm > 0.0 { 1.0 / norm } else { 1.0 };
                    for (o, &v) in yr.iter_mut().zip(xr.iter()) {
                        *o = v * inv;
                    }
                }
                Ok(())
            }
            ColumnBatch::Sparse { dim: in_dim, .. } => {
                if *in_dim != self.dim || out.column_type() != input.column_type() {
                    return Err(self.mismatch(input.column_type()));
                }
                out.reset();
                for r in 0..input.rows() {
                    let ColRef::Sparse {
                        indices, values, ..
                    } = input.row(r)
                    else {
                        unreachable!("sparse batch rows are sparse");
                    };
                    let norm = self.norm_values(values);
                    let inv = if norm > 0.0 { 1.0 / norm } else { 1.0 };
                    let mut row = out.begin_sparse_row()?;
                    // Input indices are sorted+unique, so each accumulate
                    // appends at the row tail: O(nnz) copy, same values as
                    // the per-record kernel.
                    for (&i, &v) in indices.iter().zip(values) {
                        row.accumulate(i, v * inv);
                    }
                    row.finish();
                }
                Ok(())
            }
            _ => Err(self.mismatch(input.column_type())),
        }
    }

    fn norm_dense(&self, x: &[f32]) -> f32 {
        self.norm_values(x)
    }

    fn norm_values(&self, x: &[f32]) -> f32 {
        match self.kind {
            NormKind::L1 => x.iter().map(|v| v.abs()).sum(),
            NormKind::L2 => x.iter().map(|v| v * v).sum::<f32>().sqrt(),
            NormKind::MaxAbs => x.iter().fold(0.0f32, |m, v| m.max(v.abs())),
        }
    }

    fn mismatch(&self, found: ColumnType) -> DataError {
        let want = format!("matching F32Dense/F32Sparse[{}]", self.dim);
        DataError::mismatch("normalizer", want, found)
    }
}

impl ParamBlob for NormalizerParams {
    const KIND: &'static str = "Normalizer";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        let tag = match self.kind {
            NormKind::L1 => 0,
            NormKind::L2 => 1,
            NormKind::MaxAbs => 2,
        };
        wire::put_u32(&mut cfg, tag);
        wire::put_u32(&mut cfg, self.dim);
        vec![("config".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("config")?);
        let kind = match cur.u32()? {
            0 => NormKind::L1,
            1 => NormKind::L2,
            2 => NormKind::MaxAbs,
            t => return Err(DataError::Codec(format!("bad norm kind {t}"))),
        };
        Ok(NormalizerParams::new(kind, cur.u32()?))
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
    fn l2_normalizes_to_unit_norm() {
        let p = NormalizerParams::new(NormKind::L2, 2);
        let x = Vector::Dense(vec![3.0, 4.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[0.6, 0.8]);
    }

    #[test]
    fn l1_and_maxabs() {
        let x = Vector::Dense(vec![-1.0, 3.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        NormalizerParams::new(NormKind::L1, 2)
            .apply(&x, &mut y)
            .unwrap();
        assert_eq!(y.as_dense().unwrap(), &[-0.25, 0.75]);
        NormalizerParams::new(NormKind::MaxAbs, 2)
            .apply(&x, &mut y)
            .unwrap();
        assert_eq!(y.as_dense().unwrap(), &[-1.0 / 3.0, 1.0]);
    }

    #[test]
    fn zero_vector_passes_through() {
        let p = NormalizerParams::new(NormKind::L2, 3);
        let x = Vector::Dense(vec![0.0; 3]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 3 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn sparse_normalization() {
        let p = NormalizerParams::new(NormKind::L2, 4);
        let mut x = Vector::with_type(ColumnType::F32Sparse { len: 4 });
        x.sparse_accumulate(1, 3.0);
        x.sparse_accumulate(3, 4.0);
        let mut y = Vector::with_type(ColumnType::F32Sparse { len: 4 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.to_dense(4).unwrap(), vec![0.0, 0.6, 0.0, 0.8]);
    }

    #[test]
    fn dim_mismatch_is_error() {
        let p = NormalizerParams::new(NormKind::L2, 3);
        let x = Vector::Dense(vec![1.0, 2.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 3 });
        assert!(p.apply(&x, &mut y).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        for kind in [NormKind::L1, NormKind::L2, NormKind::MaxAbs] {
            let p = NormalizerParams::new(kind, 100);
            let section = Section {
                name: "op.Norm".into(),
                checksum: 0,
                entries: p.to_entries(),
            };
            assert_eq!(NormalizerParams::from_entries(&section).unwrap(), p);
        }
    }
}
