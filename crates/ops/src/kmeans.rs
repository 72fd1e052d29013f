//! K-Means scorer.
//!
//! At inference time a trained K-Means model maps an input vector to its
//! distances from the `k` learned centroids (the representation the AC
//! pipelines feed into their final tree, paper §5). Compute-bound: the
//! kernel is `k` dense dot products and auto-vectorizes.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, DataError, Result, Vector};

/// K-Means parameters: row-major centroid matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansParams {
    /// Centroids, `k * dim` row-major.
    pub centroids: Vec<f32>,
    /// Number of clusters.
    pub k: u32,
    /// Input dimensionality.
    pub dim: u32,
    memo: ChecksumMemo,
}

impl KMeansParams {
    /// Creates a scorer from a row-major centroid matrix.
    pub fn new(centroids: Vec<f32>, k: u32, dim: u32) -> Result<Self> {
        if centroids.len() != (k as usize) * (dim as usize) || k == 0 {
            return Err(DataError::Codec(format!(
                "kmeans matrix {} != k {k} * dim {dim}",
                centroids.len()
            )));
        }
        Ok(KMeansParams {
            centroids,
            k,
            dim,
            memo: ChecksumMemo::default(),
        })
    }

    /// Operator annotations: compute-bound, vectorizable.
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Squared Euclidean distances of one dense row to every centroid.
    /// Shared by the per-record and batch kernels, so their bitwise
    /// agreement rests on one implementation. Each centroid's distance
    /// runs the explicit 8-lane squared-distance kernel (AVX2 or its
    /// lane-identical scalar twin).
    fn distances_row(&self, x: &[f32], y: &mut [f32]) {
        let d = self.dim as usize;
        for (c, slot) in y.iter_mut().enumerate() {
            let row = &self.centroids[c * d..(c + 1) * d];
            *slot = pretzel_data::simd::squared_distance(x, row);
        }
    }

    /// Computes squared Euclidean distances to every centroid
    /// (dense input → dense `k`-vector).
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        let x = match input {
            Vector::Dense(x) if x.len() == self.dim as usize => x,
            other => {
                return Err(DataError::Runtime(format!(
                    "kmeans wants dense[{}], got {:?}",
                    self.dim,
                    other.column_type()
                )))
            }
        };
        match out {
            Vector::Dense(y) if y.len() == self.k as usize => {
                self.distances_row(x, y);
                Ok(())
            }
            other => Err(DataError::Runtime(format!(
                "kmeans output wants dense[{}], got {:?}",
                self.k,
                other.column_type()
            ))),
        }
    }

    /// Batch kernel: distances to every centroid for every row through the
    /// same `Self::distances_row` as the per-record kernel; the centroid
    /// matrix stays cache-hot across the chunk.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let d = self.dim as usize;
        let k = self.k as usize;
        let (x, in_dim, rows) = input.as_dense().ok_or_else(|| {
            DataError::Runtime(format!(
                "kmeans wants dense[{}] batch, got {:?}",
                self.dim,
                input.column_type()
            ))
        })?;
        if in_dim != d || out.column_type() != (pretzel_data::ColumnType::F32Dense { len: k }) {
            return Err(DataError::Runtime(format!(
                "kmeans wants dense[{d}] -> dense[{k}] batch, got {:?} -> {:?}",
                input.column_type(),
                out.column_type()
            )));
        }
        let y = out.fill_dense(rows)?;
        for (xr, yr) in x.chunks_exact(d).zip(y.chunks_exact_mut(k)) {
            self.distances_row(xr, yr);
        }
        Ok(())
    }

    /// Index of the nearest centroid for `x` (used by tests/examples).
    pub fn assign(&self, x: &[f32]) -> Result<usize> {
        let mut out = Vector::Dense(vec![0.0; self.k as usize]);
        self.apply(&Vector::Dense(x.to_vec()), &mut out)?;
        let dists = out.as_dense().unwrap();
        Ok(dists
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }
}

impl ParamBlob for KMeansParams {
    const KIND: &'static str = "KMeans";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.k);
        wire::put_u32(&mut cfg, self.dim);
        let mut m = Vec::new();
        wire::put_f32s(&mut m, &self.centroids);
        vec![("config".into(), cfg), ("centroids".into(), m)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let k = cfg.u32()?;
        let dim = cfg.u32()?;
        let centroids = Cursor::new(section.entry("centroids")?).f32s()?;
        KMeansParams::new(centroids, k, dim)
    }

    fn heap_bytes(&self) -> usize {
        self.centroids.capacity() * 4
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn model() -> KMeansParams {
        // Two centroids in 2D: (0,0) and (10,10).
        KMeansParams::new(vec![0.0, 0.0, 10.0, 10.0], 2, 2).unwrap()
    }

    #[test]
    fn squared_distances() {
        let m = model();
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 2 });
        m.apply(&Vector::Dense(vec![3.0, 4.0]), &mut out).unwrap();
        assert_eq!(out.as_dense().unwrap(), &[25.0, 85.0]);
    }

    #[test]
    fn assign_picks_nearest() {
        let m = model();
        assert_eq!(m.assign(&[1.0, 1.0]).unwrap(), 0);
        assert_eq!(m.assign(&[9.0, 9.0]).unwrap(), 1);
    }

    #[test]
    fn construction_validates_matrix() {
        assert!(KMeansParams::new(vec![0.0; 5], 2, 2).is_err());
        assert!(KMeansParams::new(vec![], 0, 2).is_err());
    }

    #[test]
    fn dim_mismatch_is_error() {
        let m = model();
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 2 });
        assert!(m.apply(&Vector::Dense(vec![1.0]), &mut out).is_err());
        let mut bad_out = Vector::with_type(ColumnType::F32Dense { len: 3 });
        assert!(m
            .apply(&Vector::Dense(vec![1.0, 2.0]), &mut bad_out)
            .is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let m = model();
        let section = Section {
            name: "op.KMeans".into(),
            checksum: 0,
            entries: m.to_entries(),
        };
        let q = KMeansParams::from_entries(&section).unwrap();
        assert_eq!(m, q);
        assert_eq!(m.checksum(), q.checksum());
    }
}
