//! Affine per-dimension scaler (standardization).
//!
//! `y[i] = (x[i] - offset[i]) * scale[i]` — the mean/variance normalizer of
//! the Attendee Count pipelines' structured features. A 1-to-1, fusible,
//! compute-bound operator; its dense kernel is the textbook candidate for
//! SIMD vectorization (paper §4.1.2, OutputGraphValidatorStep labelling).

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// Scaler parameters: per-dimension offset and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerParams {
    /// Subtracted before scaling (e.g. the training mean).
    pub offset: Vec<f32>,
    /// Multiplied after offsetting (e.g. 1/σ).
    pub scale: Vec<f32>,
    memo: ChecksumMemo,
}

impl ScalerParams {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics if `offset` and `scale` have different lengths — a
    /// construction-time bug, not a data condition.
    pub fn new(offset: Vec<f32>, scale: Vec<f32>) -> Self {
        assert_eq!(offset.len(), scale.len(), "offset/scale length mismatch");
        ScalerParams {
            offset,
            scale,
            memo: ChecksumMemo::default(),
        }
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.offset.len()
    }

    /// Operator annotations: compute-bound, vectorizable, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Applies the affine map to one dense row. Shared by the per-record
    /// and batch kernels, so their bitwise agreement rests on one
    /// implementation; the single pass over three slices runs the
    /// explicit 8-wide affine kernel (AVX2 or its identical scalar twin —
    /// the map is elementwise, so the paths are trivially bitwise-equal).
    #[inline]
    pub(crate) fn scale_row(&self, x: &[f32], y: &mut [f32]) {
        pretzel_data::simd::scale_into(x, &self.offset, &self.scale, y);
    }

    /// Applies the affine map from `input` into `out` (dense → dense).
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        match (input, out) {
            (Vector::Dense(x), Vector::Dense(y))
                if x.len() == self.dim() && y.len() == self.dim() =>
            {
                self.scale_row(x, y);
                Ok(())
            }
            (input, _) => Err(self.mismatch(input.column_type())),
        }
    }

    /// Batch kernel: one flat pass over the chunk's row-major matrix — the
    /// textbook columnar win (per-row loops identical to [`Self::apply`],
    /// so scores stay bitwise-equal).
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let dim = self.dim();
        let (x, in_dim, rows) = input
            .as_dense()
            .ok_or_else(|| self.mismatch(input.column_type()))?;
        if in_dim != dim || out.column_type() != (pretzel_data::ColumnType::F32Dense { len: dim }) {
            return Err(self.mismatch(input.column_type()));
        }
        let y = out.fill_dense(rows)?;
        for (xr, yr) in x.chunks_exact(dim).zip(y.chunks_exact_mut(dim)) {
            self.scale_row(xr, yr);
        }
        Ok(())
    }

    fn mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("scaler", format!("F32Dense[{}]", self.dim()), found)
    }
}

impl ParamBlob for ScalerParams {
    const KIND: &'static str = "Scaler";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut off = Vec::new();
        wire::put_f32s(&mut off, &self.offset);
        let mut sc = Vec::new();
        wire::put_f32s(&mut sc, &self.scale);
        vec![("offset".into(), off), ("scale".into(), sc)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let offset = Cursor::new(section.entry("offset")?).f32s()?;
        let scale = Cursor::new(section.entry("scale")?).f32s()?;
        if offset.len() != scale.len() {
            return Err(DataError::Codec(
                "scaler offset/scale length mismatch".into(),
            ));
        }
        Ok(ScalerParams {
            offset,
            scale,
            memo: ChecksumMemo::default(),
        })
    }

    fn heap_bytes(&self) -> usize {
        (self.offset.capacity() + self.scale.capacity()) * 4
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
    fn affine_map() {
        let p = ScalerParams::new(vec![1.0, 2.0], vec![2.0, 0.5]);
        let x = Vector::Dense(vec![3.0, 4.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[4.0, 1.0]);
    }

    #[test]
    fn dim_mismatch_is_error() {
        let p = ScalerParams::new(vec![0.0; 3], vec![1.0; 3]);
        let x = Vector::Dense(vec![1.0, 2.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 3 });
        assert!(p.apply(&x, &mut y).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn construction_checks_lengths() {
        let _ = ScalerParams::new(vec![0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn round_trip_through_section() {
        let p = ScalerParams::new(vec![1.5, -2.0], vec![0.1, 10.0]);
        let section = Section {
            name: "op.Scaler".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        let q = ScalerParams::from_entries(&section).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.checksum(), q.checksum());
    }

    #[test]
    fn corrupt_section_rejected() {
        let p = ScalerParams::new(vec![1.0], vec![2.0]);
        let mut entries = p.to_entries();
        // Make lengths disagree.
        let mut sc = Vec::new();
        wire::put_f32s(&mut sc, &[1.0, 2.0]);
        entries[1].1 = sc;
        let section = Section {
            name: "op.Scaler".into(),
            checksum: 0,
            entries,
        };
        assert!(ScalerParams::from_entries(&section).is_err());
    }
}
