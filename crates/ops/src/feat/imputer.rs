//! Missing-value imputer.
//!
//! Replaces NaN entries with per-dimension fill values learned at training
//! time (means, medians). Production structured-data pipelines (Attendee
//! Count) start with one of these; it is a 1-to-1 memory-bound featurizer
//! that fuses with its neighbours.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// Imputer parameters: the per-dimension fill values.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputerParams {
    /// Value substituted for NaN at each dimension.
    pub fill: Vec<f32>,
    memo: ChecksumMemo,
}

impl ImputerParams {
    /// Creates an imputer.
    pub fn new(fill: Vec<f32>) -> Self {
        ImputerParams {
            fill,
            memo: ChecksumMemo::default(),
        }
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.fill.len()
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// Copies `input` to `out`, replacing NaNs with fill values.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        match (input, out) {
            (Vector::Dense(x), Vector::Dense(y))
                if x.len() == self.dim() && y.len() == self.dim() =>
            {
                for i in 0..x.len() {
                    y[i] = if x[i].is_nan() { self.fill[i] } else { x[i] };
                }
                Ok(())
            }
            (input, _) => Err(self.mismatch(input.column_type())),
        }
    }

    /// Batch kernel: NaN replacement over the chunk's row-major matrix.
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
            for i in 0..dim {
                yr[i] = if xr[i].is_nan() { self.fill[i] } else { xr[i] };
            }
        }
        Ok(())
    }

    fn mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("imputer", format!("F32Dense[{}]", self.dim()), found)
    }
}

impl ParamBlob for ImputerParams {
    const KIND: &'static str = "Imputer";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut f = Vec::new();
        wire::put_f32s(&mut f, &self.fill);
        vec![("fill".into(), f)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        Ok(ImputerParams::new(
            Cursor::new(section.entry("fill")?).f32s()?,
        ))
    }

    fn heap_bytes(&self) -> usize {
        self.fill.capacity() * 4
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
    fn replaces_only_nans() {
        let p = ImputerParams::new(vec![9.0, 8.0, 7.0]);
        let x = Vector::Dense(vec![1.0, f32::NAN, 3.0]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 3 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[1.0, 8.0, 3.0]);
    }

    #[test]
    fn preserves_infinities() {
        let p = ImputerParams::new(vec![0.0]);
        let x = Vector::Dense(vec![f32::INFINITY]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 1 });
        p.apply(&x, &mut y).unwrap();
        assert_eq!(y.as_dense().unwrap(), &[f32::INFINITY]);
    }

    #[test]
    fn dim_mismatch_is_error() {
        let p = ImputerParams::new(vec![0.0; 2]);
        let x = Vector::Dense(vec![1.0; 3]);
        let mut y = Vector::with_type(ColumnType::F32Dense { len: 2 });
        assert!(p.apply(&x, &mut y).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let p = ImputerParams::new(vec![1.0, -2.5]);
        let section = Section {
            name: "op.Imputer".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        assert_eq!(ImputerParams::from_entries(&section).unwrap(), p);
    }
}
