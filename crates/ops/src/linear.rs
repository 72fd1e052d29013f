//! Linear models: linear / logistic / Poisson regression and linear SVM.
//!
//! The predictor of the SA pipeline ("scored by a Logistic Regression
//! predictor", paper Figure 1) and the operator class PRETZEL's optimizer
//! pushes through Concat: "linear regression is commutative and associative
//! (e.g., dot product between vectors) and can be pipelined with Char and
//! WordNgram, eliminating the need for the Concat operation and the related
//! buffers" (paper §2). The pushdown is made possible here by exposing
//! [`LinearParams::partial_dot`], which scores one Concat branch against the
//! corresponding weight segment; fused stages accumulate branch partials and
//! apply the link function once at the end.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColRef, ColumnBatch, DataError, Result, Vector};

/// Link/loss family of a linear model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearKind {
    /// Identity link (ordinary least squares at training time).
    Regression,
    /// Logistic link: `1 / (1 + e^-z)`.
    Logistic,
    /// Poisson link: `e^z`.
    Poisson,
    /// Raw margin (linear SVM decision value).
    SvmMargin,
}

/// Parameters of a linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearParams {
    /// Link family.
    pub kind: LinearKind,
    /// Weight vector over the (possibly concatenated) feature space.
    pub weights: Vec<f32>,
    /// Intercept.
    pub bias: f32,
    memo: ChecksumMemo,
}

impl LinearParams {
    /// Creates a linear model.
    pub fn new(kind: LinearKind, weights: Vec<f32>, bias: f32) -> Self {
        LinearParams {
            kind,
            weights,
            bias,
            memo: ChecksumMemo::default(),
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Operator annotations: associative reducer — pushes through Concat.
    pub fn annotations(&self) -> Annotations {
        Annotations::linear_reducer()
    }

    /// Dot product of `input` against the weight segment starting at
    /// `offset` — the primitive that makes Concat pushdown possible.
    ///
    /// For a non-fused plan `offset` is 0 and the segment is the whole
    /// weight vector.
    pub fn partial_dot(&self, input: &Vector, offset: usize) -> Result<f32> {
        self.partial_dot_row(ColRef::from_vector(input), offset)
    }

    /// Row-level [`Self::partial_dot`]: the one dot-product kernel both the
    /// per-record and the columnar batch path execute, so batch scores are
    /// bitwise-identical to single-record scores.
    pub fn partial_dot_row(&self, input: ColRef<'_>, offset: usize) -> Result<f32> {
        match input {
            ColRef::Dense(x) => {
                let seg = self.segment(offset, x.len())?;
                // Explicit 8-lane dot (AVX2 or the lane-identical scalar
                // fallback, per the SIMD knob).
                Ok(pretzel_data::simd::dot(x, seg))
            }
            ColRef::Sparse {
                indices,
                values,
                dim,
            } => {
                let seg = self.segment(offset, dim as usize)?;
                // CSR-gather dot: AVX2 `vgatherdps` after a one-pass index
                // validation, or the lane-identical scalar fallback.
                Ok(pretzel_data::simd::sparse_dot(indices, values, seg))
            }
            ColRef::Scalar(x) => {
                let seg = self.segment(offset, 1)?;
                Ok(x * seg[0])
            }
            other => Err(DataError::mismatch(
                "linear",
                "a numeric input",
                other.column_type(),
            )),
        }
    }

    /// Batch kernel: scores every row of `input` into a scalar batch.
    ///
    /// One pass over the chunk keeps the weight vector hot in cache across
    /// rows — the data-plane benefit chunked scheduling alone never had.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let rows = input.rows();
        if out.column_type() != pretzel_data::ColumnType::F32Scalar {
            return Err(DataError::mismatch(
                "linear",
                "F32Scalar output",
                out.column_type(),
            ));
        }
        let y = out.fill_scalar(rows)?;
        for (r, slot) in y.iter_mut().enumerate() {
            let z = self.partial_dot_row(input.row(r), 0)? + self.bias;
            *slot = self.link(z);
        }
        Ok(())
    }

    fn segment(&self, offset: usize, len: usize) -> Result<&[f32]> {
        self.weights.get(offset..offset + len).ok_or_else(|| {
            let want = format!("a segment within {} weights", self.weights.len());
            DataError::mismatch("linear", want, format!("[{offset}, {})", offset + len))
        })
    }

    /// Applies the link function to a completed dot product plus bias.
    #[inline]
    pub fn link(&self, z: f32) -> f32 {
        match self.kind {
            LinearKind::Regression | LinearKind::SvmMargin => z,
            LinearKind::Logistic => 1.0 / (1.0 + (-z).exp()),
            LinearKind::Poisson => z.exp(),
        }
    }

    /// Full scoring: dot + bias + link, `input` → scalar in `out`.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        let z = self.partial_dot(input, 0)? + self.bias;
        match out {
            Vector::Scalar(s) => {
                *s = self.link(z);
                Ok(())
            }
            other => Err(DataError::mismatch(
                "linear",
                "F32Scalar output",
                other.column_type(),
            )),
        }
    }
}

impl ParamBlob for LinearParams {
    const KIND: &'static str = "LinearModel";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        let tag = match self.kind {
            LinearKind::Regression => 0,
            LinearKind::Logistic => 1,
            LinearKind::Poisson => 2,
            LinearKind::SvmMargin => 3,
        };
        wire::put_u32(&mut cfg, tag);
        wire::put_f32(&mut cfg, self.bias);
        let mut w = Vec::new();
        wire::put_f32s(&mut w, &self.weights);
        vec![("config".into(), cfg), ("weights".into(), w)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let kind = match cfg.u32()? {
            0 => LinearKind::Regression,
            1 => LinearKind::Logistic,
            2 => LinearKind::Poisson,
            3 => LinearKind::SvmMargin,
            t => return Err(DataError::Codec(format!("bad linear kind {t}"))),
        };
        let bias = cfg.f32()?;
        let weights = Cursor::new(section.entry("weights")?).f32s()?;
        Ok(LinearParams::new(kind, weights, bias))
    }

    fn heap_bytes(&self) -> usize {
        self.weights.capacity() * 4
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn model(kind: LinearKind) -> LinearParams {
        LinearParams::new(kind, vec![1.0, -2.0, 0.5, 3.0], 0.25)
    }

    #[test]
    fn dense_scoring() {
        let m = model(LinearKind::Regression);
        let x = Vector::Dense(vec![1.0, 1.0, 2.0, 0.0]);
        let mut out = Vector::Scalar(0.0);
        m.apply(&x, &mut out).unwrap();
        assert_eq!(out.as_scalar().unwrap(), 1.0 - 2.0 + 1.0 + 0.25);
    }

    #[test]
    fn sparse_equals_dense() {
        let m = model(LinearKind::Regression);
        let mut sp = Vector::with_type(ColumnType::F32Sparse { len: 4 });
        sp.sparse_accumulate(0, 1.0);
        sp.sparse_accumulate(2, 2.0);
        let dn = Vector::Dense(vec![1.0, 0.0, 2.0, 0.0]);
        let mut a = Vector::Scalar(0.0);
        let mut b = Vector::Scalar(0.0);
        m.apply(&sp, &mut a).unwrap();
        m.apply(&dn, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn logistic_link_bounds() {
        let m = model(LinearKind::Logistic);
        let x = Vector::Dense(vec![10.0, 0.0, 0.0, 0.0]);
        let mut out = Vector::Scalar(0.0);
        m.apply(&x, &mut out).unwrap();
        let p = out.as_scalar().unwrap();
        assert!(p > 0.99 && p <= 1.0);
        assert!((m.link(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn poisson_link_is_exp() {
        let m = model(LinearKind::Poisson);
        assert!((m.link(1.0) - std::f32::consts::E).abs() < 1e-5);
    }

    #[test]
    fn partial_dot_segments_sum_to_full_dot() {
        // Pushdown correctness at the kernel level: branch segments of the
        // weight vector score branch inputs; their sum equals scoring the
        // concatenated vector.
        let m = model(LinearKind::Regression);
        let left = Vector::Dense(vec![1.0, 1.0]);
        let right = Vector::Dense(vec![2.0, 0.0]);
        let full = Vector::Dense(vec![1.0, 1.0, 2.0, 0.0]);
        let split = m.partial_dot(&left, 0).unwrap() + m.partial_dot(&right, 2).unwrap();
        assert_eq!(split, m.partial_dot(&full, 0).unwrap());
    }

    #[test]
    fn segment_out_of_bounds_is_error() {
        let m = model(LinearKind::Regression);
        let x = Vector::Dense(vec![1.0, 2.0]);
        assert!(m.partial_dot(&x, 3).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        for kind in [
            LinearKind::Regression,
            LinearKind::Logistic,
            LinearKind::Poisson,
            LinearKind::SvmMargin,
        ] {
            let m = model(kind);
            let section = Section {
                name: "op.Linear".into(),
                checksum: 0,
                entries: m.to_entries(),
            };
            let q = LinearParams::from_entries(&section).unwrap();
            assert_eq!(m, q);
            assert_eq!(m.checksum(), q.checksum());
        }
    }
}
