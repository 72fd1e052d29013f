//! Concat: merges several feature vectors into one.
//!
//! "Concat generates a unique feature vector which is then scored by a
//! Logistic Regression predictor" (paper Figure 1). Concat is the
//! archetypal *pipeline breaker*: "operations following a Concat require the
//! full feature vector to be available" (paper §4.1.2). It is also the
//! operator PRETZEL's optimizer loves to delete — when a linear model is
//! pushed through it, "the latter stage can be removed if not containing
//! any other additional transformation".

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::batch::{ColRef, SparseRowMut};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// Concat parameters: the dimensionalities of the inputs, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcatParams {
    /// Input dimensionalities; output dim is their sum.
    pub input_dims: Vec<u32>,
    memo: ChecksumMemo,
}

impl ConcatParams {
    /// Creates a Concat over inputs of the given dimensionalities.
    pub fn new(input_dims: Vec<u32>) -> Self {
        ConcatParams {
            input_dims,
            memo: ChecksumMemo::default(),
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.input_dims.iter().map(|&d| d as usize).sum()
    }

    /// Offset of input `i` within the output index space.
    pub fn offset(&self, i: usize) -> usize {
        self.input_dims[..i].iter().map(|&d| d as usize).sum()
    }

    /// Operator annotations: many-to-one merge, pipeline breaker.
    pub fn annotations(&self) -> Annotations {
        Annotations::merge()
    }

    /// Concatenates `inputs` into a sparse output of dimension
    /// [`Self::dim`]. Dense, sparse and scalar inputs are accepted.
    pub fn apply(&self, inputs: &[&Vector], out: &mut Vector) -> Result<()> {
        self.check_arity(inputs.len())?;
        match out {
            Vector::Sparse { dim, .. } if *dim as usize == self.dim() => {}
            other => return Err(self.output_mismatch(other.column_type())),
        }
        out.reset();
        let mut offset = 0u32;
        for (i, input) in inputs.iter().enumerate() {
            let want = self.input_dims[i];
            match input {
                Vector::Dense(v) => {
                    if v.len() != want as usize {
                        return Err(self.dim_err(i, want, ColumnType::F32Dense { len: v.len() }));
                    }
                    for (j, &x) in v.iter().enumerate() {
                        if x != 0.0 {
                            out.sparse_accumulate(offset + j as u32, x);
                        }
                    }
                }
                Vector::Sparse {
                    indices,
                    values,
                    dim,
                } => {
                    if *dim != want {
                        return Err(self.dim_err(
                            i,
                            want,
                            ColumnType::F32Sparse { len: *dim as usize },
                        ));
                    }
                    for (&idx, &x) in indices.iter().zip(values) {
                        out.sparse_accumulate(offset + idx, x);
                    }
                }
                Vector::Scalar(x) => {
                    if want != 1 {
                        return Err(self.dim_err(i, want, ColumnType::F32Scalar));
                    }
                    if *x != 0.0 {
                        out.sparse_accumulate(offset, *x);
                    }
                }
                other => return Err(self.dim_err(i, want, other.column_type())),
            }
            offset += want;
        }
        Ok(())
    }

    /// Batch kernel: concatenates every row of the input batches into rows
    /// of one CSR output (accumulation order identical to [`Self::apply`]).
    pub fn eval_batch(&self, inputs: &[&ColumnBatch], out: &mut ColumnBatch) -> Result<()> {
        self.check_arity(inputs.len())?;
        match out {
            ColumnBatch::Sparse { dim, .. } if *dim as usize == self.dim() => {}
            other => return Err(self.output_mismatch(other.column_type())),
        }
        out.reset();
        let rows = inputs.first().map_or(0, |b| b.rows());
        for r in 0..rows {
            let mut row = out.begin_sparse_row()?;
            let mut offset = 0u32;
            for (i, input) in inputs.iter().enumerate() {
                let want = self.input_dims[i];
                self.accumulate_row(&mut row, i, want, offset, input.row(r))?;
                offset += want;
            }
            row.finish();
        }
        Ok(())
    }

    fn accumulate_row(
        &self,
        row: &mut SparseRowMut<'_>,
        i: usize,
        want: u32,
        offset: u32,
        input: ColRef<'_>,
    ) -> Result<()> {
        match input {
            ColRef::Dense(v) => {
                if v.len() != want as usize {
                    return Err(self.dim_err(i, want, ColumnType::F32Dense { len: v.len() }));
                }
                for (j, &x) in v.iter().enumerate() {
                    if x != 0.0 {
                        row.accumulate(offset + j as u32, x);
                    }
                }
            }
            ColRef::Sparse {
                indices,
                values,
                dim,
            } => {
                if dim != want {
                    return Err(self.dim_err(i, want, ColumnType::F32Sparse { len: dim as usize }));
                }
                for (&idx, &x) in indices.iter().zip(values) {
                    row.accumulate(offset + idx, x);
                }
            }
            ColRef::Scalar(x) => {
                if want != 1 {
                    return Err(self.dim_err(i, want, ColumnType::F32Scalar));
                }
                if x != 0.0 {
                    row.accumulate(offset, x);
                }
            }
            other => return Err(self.dim_err(i, want, other.column_type())),
        }
        Ok(())
    }

    fn check_arity(&self, n: usize) -> Result<()> {
        match self.input_dims.len() {
            want if want == n => Ok(()),
            want => Err(DataError::mismatch(
                "concat",
                format!("{want} inputs"),
                format!("{n} inputs"),
            )),
        }
    }

    fn output_mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("concat", format!("F32Sparse[{}] output", self.dim()), found)
    }

    fn dim_err(&self, i: usize, want: u32, found: ColumnType) -> DataError {
        DataError::mismatch(
            "concat",
            format_args!("numeric[{want}] at input {i}"),
            found,
        )
    }
}

impl ParamBlob for ConcatParams {
    const KIND: &'static str = "Concat";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32s(&mut cfg, &self.input_dims);
        vec![("dims".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("dims")?);
        Ok(ConcatParams::new(cur.u32s()?))
    }

    fn heap_bytes(&self) -> usize {
        self.input_dims.capacity() * 4
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn sparse(dim: usize, pairs: &[(u32, f32)]) -> Vector {
        let mut v = Vector::with_type(ColumnType::F32Sparse { len: dim });
        for &(i, x) in pairs {
            v.sparse_accumulate(i, x);
        }
        v
    }

    #[test]
    fn concat_mixed_inputs() {
        let p = ConcatParams::new(vec![3, 2, 1]);
        assert_eq!(p.dim(), 6);
        assert_eq!(p.offset(0), 0);
        assert_eq!(p.offset(2), 5);
        let dense = Vector::Dense(vec![1.0, 0.0, 2.0]);
        let sp = sparse(2, &[(1, 5.0)]);
        let sc = Vector::Scalar(7.0);
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 6 });
        p.apply(&[&dense, &sp, &sc], &mut out).unwrap();
        assert_eq!(out.to_dense(6).unwrap(), vec![1.0, 0.0, 2.0, 0.0, 5.0, 7.0]);
    }

    #[test]
    fn arity_mismatch_is_error() {
        let p = ConcatParams::new(vec![2, 2]);
        let a = Vector::Dense(vec![1.0, 2.0]);
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 4 });
        assert!(p.apply(&[&a], &mut out).is_err());
    }

    #[test]
    fn input_dim_mismatch_is_error() {
        let p = ConcatParams::new(vec![2]);
        let a = Vector::Dense(vec![1.0, 2.0, 3.0]);
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        assert!(p.apply(&[&a], &mut out).is_err());
    }

    #[test]
    fn text_input_rejected() {
        let p = ConcatParams::new(vec![1]);
        let t = Vector::Text("x".into());
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 1 });
        assert!(p.apply(&[&t], &mut out).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let p = ConcatParams::new(vec![10, 20, 30]);
        let section = Section {
            name: "op.Concat".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        assert_eq!(ConcatParams::from_entries(&section).unwrap(), p);
    }
}
