//! Multinomial naive Bayes scorer.
//!
//! Scores sparse count features against per-class log-likelihood vectors:
//! `score[c] = prior[c] + Σ_i x_i · loglik[c][i]`. One of the "classical ML
//! models" in the supported operator set (paper §5); structurally a stack of
//! per-class linear models, so it shares the associative-reducer property.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::batch::ColRef;
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, DataError, Result, Vector};

/// Naive Bayes parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesParams {
    /// Per-class log priors (length `classes`).
    pub log_prior: Vec<f32>,
    /// Per-class feature log likelihoods, `classes * dim` row-major.
    pub log_lik: Vec<f32>,
    /// Feature dimensionality.
    pub dim: u32,
    memo: ChecksumMemo,
}

impl NaiveBayesParams {
    /// Creates a scorer; validates shapes.
    pub fn new(log_prior: Vec<f32>, log_lik: Vec<f32>, dim: u32) -> Result<Self> {
        let classes = log_prior.len();
        if classes == 0 || log_lik.len() != classes * dim as usize {
            return Err(DataError::Codec(format!(
                "naive bayes shapes: priors {classes}, lik {}, dim {dim}",
                log_lik.len()
            )));
        }
        Ok(NaiveBayesParams {
            log_prior,
            log_lik,
            dim,
            memo: ChecksumMemo::default(),
        })
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.log_prior.len()
    }

    /// Operator annotations: compute-bound, vectorizable.
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Scores one numeric row into the per-class slice `y`. Shared by the
    /// per-record and batch kernels, so their bitwise agreement rests on
    /// one implementation.
    fn score_row(&self, row: ColRef<'_>, y: &mut [f32]) -> Result<()> {
        let d = self.dim as usize;
        match row {
            ColRef::Dense(x) if x.len() == d => {
                for (c, slot) in y.iter_mut().enumerate() {
                    let row = &self.log_lik[c * d..(c + 1) * d];
                    let dot: f32 = x.iter().zip(row).map(|(a, b)| a * b).sum();
                    *slot = self.log_prior[c] + dot;
                }
                Ok(())
            }
            ColRef::Sparse {
                indices,
                values,
                dim,
            } if dim as usize == d => {
                for (c, slot) in y.iter_mut().enumerate() {
                    let row = &self.log_lik[c * d..(c + 1) * d];
                    let mut dot = 0.0f32;
                    for (&i, &v) in indices.iter().zip(values) {
                        dot += v * row[i as usize];
                    }
                    *slot = self.log_prior[c] + dot;
                }
                Ok(())
            }
            other => Err(DataError::Runtime(format!(
                "naive bayes wants numeric[{d}], got {:?}",
                other.column_type()
            ))),
        }
    }

    /// Scores `input` into a dense per-class log-score vector.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        let y = match out {
            Vector::Dense(y) if y.len() == self.classes() => y,
            other => {
                return Err(DataError::Runtime(format!(
                    "naive bayes output wants dense[{}], got {:?}",
                    self.classes(),
                    other.column_type()
                )))
            }
        };
        self.score_row(ColRef::from_vector(input), y)
    }

    /// Batch kernel: per-class log scores for every row of the chunk
    /// through the same `Self::score_row` as the per-record kernel.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let classes = self.classes();
        if out.column_type() != (pretzel_data::ColumnType::F32Dense { len: classes }) {
            return Err(DataError::Runtime(format!(
                "naive bayes output wants dense[{classes}] batch, got {:?}",
                out.column_type()
            )));
        }
        let rows = input.rows();
        let y = out.fill_dense(rows)?;
        for (r, yr) in y.chunks_exact_mut(classes).enumerate().take(rows) {
            self.score_row(input.row(r), yr)?;
        }
        Ok(())
    }
}

impl ParamBlob for NaiveBayesParams {
    const KIND: &'static str = "NaiveBayes";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.dim);
        let mut priors = Vec::new();
        wire::put_f32s(&mut priors, &self.log_prior);
        let mut lik = Vec::new();
        wire::put_f32s(&mut lik, &self.log_lik);
        vec![
            ("config".into(), cfg),
            ("priors".into(), priors),
            ("likelihoods".into(), lik),
        ]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let dim = cfg.u32()?;
        let log_prior = Cursor::new(section.entry("priors")?).f32s()?;
        let log_lik = Cursor::new(section.entry("likelihoods")?).f32s()?;
        NaiveBayesParams::new(log_prior, log_lik, dim)
    }

    fn heap_bytes(&self) -> usize {
        (self.log_prior.capacity() + self.log_lik.capacity()) * 4
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    fn model() -> NaiveBayesParams {
        NaiveBayesParams::new(vec![-0.5, -1.0], vec![0.1, 0.2, 0.3, 0.4], 2).unwrap()
    }

    #[test]
    fn dense_scoring() {
        let m = model();
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 2 });
        m.apply(&Vector::Dense(vec![1.0, 2.0]), &mut out).unwrap();
        let y = out.as_dense().unwrap();
        assert!((y[0] - (-0.5 + 0.1 + 0.4)).abs() < 1e-6);
        assert!((y[1] - (-1.0 + 0.3 + 0.8)).abs() < 1e-6);
    }

    #[test]
    fn sparse_matches_dense() {
        let m = model();
        let mut sp = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        sp.sparse_accumulate(1, 2.0);
        let dn = Vector::Dense(vec![0.0, 2.0]);
        let mut a = Vector::with_type(ColumnType::F32Dense { len: 2 });
        let mut b = Vector::with_type(ColumnType::F32Dense { len: 2 });
        m.apply(&sp, &mut a).unwrap();
        m.apply(&dn, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shape_validation() {
        assert!(NaiveBayesParams::new(vec![], vec![], 2).is_err());
        assert!(NaiveBayesParams::new(vec![0.0], vec![0.0; 3], 2).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        let m = model();
        let section = Section {
            name: "op.NB".into(),
            checksum: 0,
            entries: m.to_entries(),
        };
        let q = NaiveBayesParams::from_entries(&section).unwrap();
        assert_eq!(m, q);
    }
}
