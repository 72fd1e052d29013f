//! PCA projector.
//!
//! The "dimensionality reduction step" of the AC pipelines (paper §5):
//! projects a centered input onto `m` learned principal components.
//! Compute-bound matrix-vector product; auto-vectorizes.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, DataError, Result, Vector};

/// PCA parameters: mean vector plus row-major component matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaParams {
    /// Training mean subtracted before projection (length `dim`).
    pub mean: Vec<f32>,
    /// Components, `m * dim` row-major.
    pub components: Vec<f32>,
    /// Number of output components.
    pub m: u32,
    /// Input dimensionality.
    pub dim: u32,
    memo: ChecksumMemo,
}

impl PcaParams {
    /// Creates a projector; validates matrix shapes.
    pub fn new(mean: Vec<f32>, components: Vec<f32>, m: u32, dim: u32) -> Result<Self> {
        if mean.len() != dim as usize || components.len() != (m as usize) * (dim as usize) || m == 0
        {
            return Err(DataError::Codec(format!(
                "pca shapes: mean {}, comps {}, m {m}, dim {dim}",
                mean.len(),
                components.len()
            )));
        }
        Ok(PcaParams {
            mean,
            components,
            m,
            dim,
            memo: ChecksumMemo::default(),
        })
    }

    /// Operator annotations: compute-bound, vectorizable.
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Projects one dense row onto the components. Shared by the
    /// per-record, batch, and borrowed-row kernels, so their bitwise
    /// agreement rests on one implementation; each centered dot runs the
    /// explicit 8-lane kernel (AVX2 or its lane-identical scalar twin).
    #[inline]
    pub(crate) fn project_row(&self, x: &[f32], y: &mut [f32]) {
        let d = self.dim as usize;
        for (c, slot) in y.iter_mut().enumerate() {
            let row = &self.components[c * d..(c + 1) * d];
            *slot = pretzel_data::simd::centered_dot(x, &self.mean, row);
        }
    }

    /// Projects `input` (dense `dim`) into `out` (dense `m`).
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        let x = match input {
            Vector::Dense(x) if x.len() == self.dim as usize => x,
            other => {
                return Err(DataError::Runtime(format!(
                    "pca wants dense[{}], got {:?}",
                    self.dim,
                    other.column_type()
                )))
            }
        };
        match out {
            Vector::Dense(y) if y.len() == self.m as usize => {
                self.project_row(x, y);
                Ok(())
            }
            other => Err(DataError::Runtime(format!(
                "pca output wants dense[{}], got {:?}",
                self.m,
                other.column_type()
            ))),
        }
    }

    /// Batch kernel: projects every row of the chunk through the same
    /// `Self::project_row` as the per-record kernel; the component
    /// matrix stays cache-hot across rows.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let d = self.dim as usize;
        let m = self.m as usize;
        let (x, in_dim, rows) = input.as_dense().ok_or_else(|| {
            DataError::Runtime(format!(
                "pca wants dense[{}] batch, got {:?}",
                self.dim,
                input.column_type()
            ))
        })?;
        if in_dim != d || out.column_type() != (pretzel_data::ColumnType::F32Dense { len: m }) {
            return Err(DataError::Runtime(format!(
                "pca wants dense[{d}] -> dense[{m}] batch, got {:?} -> {:?}",
                input.column_type(),
                out.column_type()
            )));
        }
        let y = out.fill_dense(rows)?;
        for (xr, yr) in x.chunks_exact(d).zip(y.chunks_exact_mut(m)) {
            self.project_row(xr, yr);
        }
        Ok(())
    }
}

impl ParamBlob for PcaParams {
    const KIND: &'static str = "Pca";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.m);
        wire::put_u32(&mut cfg, self.dim);
        let mut mean = Vec::new();
        wire::put_f32s(&mut mean, &self.mean);
        let mut comps = Vec::new();
        wire::put_f32s(&mut comps, &self.components);
        vec![
            ("config".into(), cfg),
            ("mean".into(), mean),
            ("components".into(), comps),
        ]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let m = cfg.u32()?;
        let dim = cfg.u32()?;
        let mean = Cursor::new(section.entry("mean")?).f32s()?;
        let components = Cursor::new(section.entry("components")?).f32s()?;
        PcaParams::new(mean, components, m, dim)
    }

    fn heap_bytes(&self) -> usize {
        (self.mean.capacity() + self.components.capacity()) * 4
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn model() -> PcaParams {
        // Project 3D onto 2 axes after centering at (1,1,1).
        PcaParams::new(
            vec![1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            2,
            3,
        )
        .unwrap()
    }

    #[test]
    fn centered_projection() {
        let m = model();
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 2 });
        m.apply(&Vector::Dense(vec![2.0, 5.0, 0.0]), &mut out)
            .unwrap();
        assert_eq!(out.as_dense().unwrap(), &[1.0, -1.0]);
    }

    #[test]
    fn shape_validation() {
        assert!(PcaParams::new(vec![0.0; 2], vec![0.0; 6], 2, 3).is_err());
        assert!(PcaParams::new(vec![0.0; 3], vec![0.0; 5], 2, 3).is_err());
        assert!(PcaParams::new(vec![0.0; 3], vec![], 0, 3).is_err());
    }

    #[test]
    fn io_mismatch_is_error() {
        let m = model();
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 3 });
        assert!(m
            .apply(&Vector::Dense(vec![0.0, 0.0, 0.0]), &mut out)
            .is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let m = model();
        let section = Section {
            name: "op.Pca".into(),
            checksum: 0,
            entries: m.to_entries(),
        };
        let q = PcaParams::from_entries(&section).unwrap();
        assert_eq!(m, q);
        assert_eq!(m.checksum(), q.checksum());
    }
}
