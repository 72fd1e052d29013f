//! Wire-to-columnar ingest: assemble a [`ColumnBatch`] straight from
//! decoded request bytes.
//!
//! The FrontEnd's original ingest path decoded every wire record into an
//! owned `Record` (a `String` or `Vec<f32>` per record) and only later
//! re-packed those into the columnar working set the batch engine executes
//! over — one full staging copy plus one heap allocation per record between
//! the socket and the kernel. A [`BatchAssembler`] removes that stage: the
//! decoder grows packed text spans, dense rows, or CSR triples directly
//! into a (pool-leased) [`ColumnBatch`], so the batch the kernel consumes
//! is the thing the ingest path builds — the same discipline as
//! constant-time pooled allocation on the hot path.
//!
//! The assembler records no per-row content hash: the one consumer of a
//! row's identity, the front end's result cache, hashes the packed row
//! itself ([`hash_row`]) and only for the rows it caches.

use crate::batch::{ColRef, ColumnBatch};
use crate::hash::{content_hash_dense, content_hash_sparse, content_hash_text};
use crate::schema::ColumnType;
use crate::serde_bin::{le_f32s, le_u32s, Cursor};
use crate::{DataError, Result};

/// Assembles one request's worth of source rows into a [`ColumnBatch`].
#[derive(Debug)]
pub struct BatchAssembler {
    rows: ColumnBatch,
    finite_only: bool,
}

impl BatchAssembler {
    /// Wraps a (typically pool-leased) batch; any stale rows are cleared.
    pub fn new_unhashed(mut rows: ColumnBatch) -> Self {
        rows.reset();
        BatchAssembler {
            rows,
            finite_only: false,
        }
    }

    /// Rejects NaN/Inf feature values at decode time (dense and sparse
    /// rows; text rows carry no floats). A non-finite feature poisons every
    /// comparison downstream — and under bitwise-stability ablations two
    /// NaN payloads with different bit patterns would even hash to distinct
    /// cache keys while comparing unequal to themselves — so the ingest
    /// boundary is the one place it can be refused as a clean
    /// [`DataError::BadInput`] instead of a kernel-level surprise.
    pub fn reject_non_finite(mut self, on: bool) -> Self {
        self.finite_only = on;
        self
    }

    /// Column type of the assembled rows.
    pub fn column_type(&self) -> ColumnType {
        self.rows.column_type()
    }

    /// Number of assembled rows.
    pub fn rows(&self) -> usize {
        self.rows.rows()
    }

    /// True if nothing was assembled yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrows the assembled rows.
    pub fn batch(&self) -> &ColumnBatch {
        &self.rows
    }

    /// Takes the assembled batch and the per-row hashes a batch
    /// submission carries beside it: always empty, as the assembler hashes
    /// nothing.
    pub fn finish(self) -> (ColumnBatch, Vec<u64>) {
        (self.rows, Vec::new())
    }

    /// Appends a text row.
    pub fn push_text(&mut self, s: &str) -> Result<()> {
        self.rows.push_text(s)
    }

    /// Appends a dense row; its length must match the batch width.
    pub fn push_dense(&mut self, xs: &[f32]) -> Result<()> {
        if self.finite_only {
            check_finite(xs)?;
        }
        self.rows.push_row(ColRef::Dense(xs))
    }

    /// Appends a sparse row; `indices` must be strictly increasing and
    /// below the batch dimensionality (a malformed row is a data error, not
    /// a panic — this is the ingest boundary).
    pub fn push_sparse(&mut self, indices: &[u32], values: &[f32]) -> Result<()> {
        let dim = match self.rows.column_type() {
            ColumnType::F32Sparse { len } => len as u32,
            other => return Err(DataError::mismatch("push_sparse", "F32Sparse", other)),
        };
        if indices.len() != values.len() {
            return Err(DataError::BadInput(format!(
                "sparse row has {} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        validate_sparse_indices(indices, dim)?;
        if self.finite_only {
            check_finite(values)?;
        }
        self.rows.push_row(ColRef::Sparse {
            indices,
            values,
            dim,
        })
    }

    /// Appends all rows of `other`: the delayed batcher merges
    /// single-request assemblers into its per-plan accumulator with one
    /// bulk copy.
    pub fn append_assembled(&mut self, other: &BatchAssembler) -> Result<()> {
        self.rows.extend_from_range(&other.rows, 0, other.rows())
    }

    /// Decodes one wire text record (`u32 len · bytes`) straight into the
    /// packed text buffer — no intermediate `String`.
    pub fn decode_text_row(&mut self, cur: &mut Cursor<'_>) -> Result<()> {
        let s = cur.str_ref()?;
        self.push_text(s)
    }

    /// Decodes one wire dense record (`u32 n · f32*n`) straight into the
    /// row-major matrix, from one bounds-checked slice of the frame.
    pub fn decode_dense_row(&mut self, cur: &mut Cursor<'_>) -> Result<()> {
        let dim = match self.rows.column_type() {
            ColumnType::F32Dense { len } => len,
            other => return Err(DataError::mismatch("decode_dense_row", "F32Dense", other)),
        };
        let n = cur.u32()? as usize;
        cur.check_claim(n, 4)?;
        if n != dim {
            return Err(DataError::BadInput(format!(
                "dense record has {n} features, batch rows have {dim}"
            )));
        }
        let words = cur.words(n)?;
        let ColumnBatch::Dense { data, rows, .. } = &mut self.rows else {
            unreachable!("column type checked above");
        };
        let start = data.len();
        data.extend(le_f32s(words));
        if self.finite_only && !all_finite(&data[start..]) {
            // Roll the row back so the assembler stays consistent for the
            // error reply path.
            data.truncate(start);
            return Err(non_finite_err());
        }
        *rows += 1;
        Ok(())
    }

    /// Decodes one wire sparse record (CSR triple:
    /// `u32 dim · u32 nnz · u32*nnz indices · f32*nnz values`) straight
    /// into the CSR arrays, validating indices at the ingest boundary.
    pub fn decode_sparse_row(&mut self, cur: &mut Cursor<'_>) -> Result<()> {
        let dim = match self.rows.column_type() {
            ColumnType::F32Sparse { len } => len as u32,
            other => return Err(DataError::mismatch("decode_sparse_row", "F32Sparse", other)),
        };
        let rdim = cur.u32()?;
        if rdim != dim {
            return Err(DataError::BadInput(format!(
                "sparse record has dim {rdim}, batch rows have {dim}"
            )));
        }
        let nnz = cur.u32()? as usize;
        cur.check_claim(nnz, 8)?;
        let (bounds, indices, values) = match &mut self.rows {
            ColumnBatch::Sparse {
                bounds,
                indices,
                values,
                ..
            } => (bounds, indices, values),
            _ => unreachable!("column type checked above"),
        };
        let tail = indices.len();
        let reject = self.finite_only;
        let mut decode = || -> Result<()> {
            indices.extend(le_u32s(cur.words(nnz)?));
            validate_sparse_indices(&indices[tail..], dim)?;
            values.extend(le_f32s(cur.words(nnz)?));
            if reject {
                check_finite(&values[tail..])?;
            }
            Ok(())
        };
        match decode() {
            Ok(()) => {
                bounds.push(indices.len() as u32);
                Ok(())
            }
            Err(e) => {
                // Roll the half-decoded row back so the assembler stays
                // consistent for the error reply path.
                indices.truncate(tail);
                values.truncate(tail);
                Err(e)
            }
        }
    }
}

/// Content hash of one packed source row, through the shared helpers of
/// [`crate::hash`]. Non-source rows (tokens, scalars) hash to 0; they
/// never key a cache.
pub fn hash_row(row: ColRef<'_>) -> u64 {
    match row {
        ColRef::Text(s) => content_hash_text(s),
        ColRef::Dense(xs) => content_hash_dense(xs),
        ColRef::Sparse {
            indices,
            values,
            dim,
        } => content_hash_sparse(indices, values, dim),
        ColRef::Tokens(_) | ColRef::Scalar(_) => 0,
    }
}

fn non_finite_err() -> DataError {
    DataError::BadInput("non-finite feature value (NaN/Inf) rejected at ingest".into())
}

/// Checks that every feature value is finite — the opt-in ingest-boundary
/// guard behind [`BatchAssembler::reject_non_finite`].
pub fn check_finite(values: &[f32]) -> Result<()> {
    if all_finite(values) {
        Ok(())
    } else {
        Err(non_finite_err())
    }
}

/// True if no value is NaN or ±Inf. No early exit, so it vectorizes: a
/// valid row is read to the end either way.
fn all_finite(values: &[f32]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Checks that a wire sparse row's indices are strictly increasing and
/// within the dimensionality — the ingest-boundary validation applied to
/// CSR triples.
pub fn validate_sparse_indices(indices: &[u32], dim: u32) -> Result<()> {
    for (i, &idx) in indices.iter().enumerate() {
        if idx >= dim {
            return Err(DataError::BadInput(format!(
                "sparse index {idx} out of dim {dim}"
            )));
        }
        if i > 0 && indices[i - 1] >= idx {
            return Err(DataError::BadInput(format!(
                "sparse indices must be strictly increasing, got {} then {idx}",
                indices[i - 1]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serde_bin::wire;

    #[test]
    fn text_rows_assemble_without_hashes() {
        let mut a = BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::Text));
        a.push_text("hello").unwrap();
        a.push_text("").unwrap();
        let mut body = Vec::new();
        wire::put_str(&mut body, "world");
        let mut cur = Cursor::new(&body);
        a.decode_text_row(&mut cur).unwrap();
        assert_eq!(a.rows(), 3);
        let (rows, hashes) = a.finish();
        assert!(matches!(rows.row(0), ColRef::Text("hello")));
        assert!(matches!(rows.row(2), ColRef::Text("world")));
        assert!(hashes.is_empty());
    }

    #[test]
    fn dense_rows_decode_straight_into_matrix() {
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        let mut body = Vec::new();
        wire::put_f32s(&mut body, &[1.0, -2.0, 0.5]);
        wire::put_f32s(&mut body, &[4.0, 5.0, 6.0]);
        let mut cur = Cursor::new(&body);
        a.decode_dense_row(&mut cur).unwrap();
        a.decode_dense_row(&mut cur).unwrap();
        assert_eq!(a.rows(), 2);
        let (rows, _) = a.finish();
        let (data, dim, n) = rows.as_dense().unwrap();
        assert_eq!((dim, n), (3, 2));
        assert_eq!(data, &[1.0, -2.0, 0.5, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn dense_width_mismatch_is_clean_error() {
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        let mut body = Vec::new();
        wire::put_f32s(&mut body, &[1.0, 2.0]);
        let mut cur = Cursor::new(&body);
        assert!(a.decode_dense_row(&mut cur).is_err());
        assert_eq!(a.rows(), 0);
    }

    #[test]
    fn sparse_rows_decode_as_csr_triples() {
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Sparse { len: 8 }));
        let mut body = Vec::new();
        wire::put_u32(&mut body, 8); // dim
        wire::put_u32(&mut body, 2); // nnz
        wire::put_u32(&mut body, 1);
        wire::put_u32(&mut body, 5);
        wire::put_f32(&mut body, 2.0);
        wire::put_f32(&mut body, -1.0);
        let mut cur = Cursor::new(&body);
        a.decode_sparse_row(&mut cur).unwrap();
        assert_eq!(a.rows(), 1);
        let (rows, _) = a.finish();
        match rows.row(0) {
            ColRef::Sparse {
                indices, values, ..
            } => {
                assert_eq!(indices, &[1, 5]);
                assert_eq!(values, &[2.0, -1.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malformed_sparse_rows_roll_back() {
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Sparse { len: 4 }));
        // Out-of-dim index.
        let mut body = Vec::new();
        wire::put_u32(&mut body, 4);
        wire::put_u32(&mut body, 1);
        wire::put_u32(&mut body, 9);
        wire::put_f32(&mut body, 1.0);
        assert!(a.decode_sparse_row(&mut Cursor::new(&body)).is_err());
        // Non-increasing indices.
        let mut body = Vec::new();
        wire::put_u32(&mut body, 4);
        wire::put_u32(&mut body, 2);
        wire::put_u32(&mut body, 2);
        wire::put_u32(&mut body, 2);
        wire::put_f32(&mut body, 1.0);
        wire::put_f32(&mut body, 1.0);
        assert!(a.decode_sparse_row(&mut Cursor::new(&body)).is_err());
        // Wrong dim.
        let mut body = Vec::new();
        wire::put_u32(&mut body, 5);
        assert!(a.decode_sparse_row(&mut Cursor::new(&body)).is_err());
        assert_eq!(a.rows(), 0);
        // The assembler is still usable after rejected rows.
        a.push_sparse(&[0, 3], &[1.0, 2.0]).unwrap();
        assert_eq!(a.rows(), 1);
    }

    #[test]
    fn hostile_length_prefixes_rejected_before_allocation() {
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        let mut body = Vec::new();
        wire::put_u32(&mut body, u32::MAX); // claims 4 billion floats
        assert!(a.decode_dense_row(&mut Cursor::new(&body)).is_err());
        let mut s =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Sparse { len: 4 }));
        let mut body = Vec::new();
        wire::put_u32(&mut body, 4);
        wire::put_u32(&mut body, u32::MAX); // claims 4 billion nnz
        assert!(s.decode_sparse_row(&mut Cursor::new(&body)).is_err());
    }

    #[test]
    fn new_clears_stale_pooled_rows() {
        let mut b = ColumnBatch::with_type(ColumnType::Text);
        b.push_text("stale").unwrap();
        let a = BatchAssembler::new_unhashed(b);
        assert!(a.is_empty());
    }

    #[test]
    fn unhashed_dense_and_sparse_rows_decode_identically() {
        // A decoded wire record and the same row pushed by value assemble
        // the same batch.
        let mut decoded =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        let mut pushed =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        let mut body = Vec::new();
        wire::put_f32s(&mut body, &[1.0, -2.0, 0.5]);
        decoded.decode_dense_row(&mut Cursor::new(&body)).unwrap();
        pushed.push_dense(&[1.0, -2.0, 0.5]).unwrap();
        assert_eq!(decoded.batch(), pushed.batch(), "same dense rows");

        let sparse = || ColumnBatch::with_type(ColumnType::F32Sparse { len: 8 });
        let mut decoded = BatchAssembler::new_unhashed(sparse());
        let mut pushed = BatchAssembler::new_unhashed(sparse());
        let mut body = Vec::new();
        for word in [8, 2, 1, 5] {
            wire::put_u32(&mut body, word);
        }
        wire::put_f32(&mut body, 2.0);
        wire::put_f32(&mut body, -1.0);
        decoded.decode_sparse_row(&mut Cursor::new(&body)).unwrap();
        pushed.push_sparse(&[1, 5], &[2.0, -1.0]).unwrap();
        assert_eq!(decoded.batch(), pushed.batch(), "same sparse rows");
    }

    #[test]
    fn append_assembled_copies_rows_in_order() {
        let mut acc = BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::Text));
        acc.push_text("first").unwrap();
        let mut other = BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::Text));
        other.push_text("second").unwrap();
        other.push_text("third").unwrap();
        acc.append_assembled(&other).unwrap();
        let (rows, hashes) = acc.finish();
        assert_eq!(rows.rows(), 3);
        assert!(matches!(rows.row(0), ColRef::Text("first")));
        assert!(matches!(rows.row(2), ColRef::Text("third")));
        assert!(hashes.is_empty());
        let mut dense =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }));
        assert!(
            dense.append_assembled(&other).is_err(),
            "column types differ"
        );
    }

    #[test]
    fn non_finite_rows_rejected_when_opted_in() {
        // Dense decode: NaN mid-row rejects and rolls the row back.
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 3 }))
                .reject_non_finite(true);
        let mut body = Vec::new();
        wire::put_f32s(&mut body, &[1.0, f32::NAN, 0.5]);
        assert!(a.decode_dense_row(&mut Cursor::new(&body)).is_err());
        assert_eq!(a.rows(), 0);
        // The assembler is still usable; finite rows still decode.
        let mut body = Vec::new();
        wire::put_f32s(&mut body, &[1.0, 2.0, 0.5]);
        a.decode_dense_row(&mut Cursor::new(&body)).unwrap();
        assert_eq!(a.rows(), 1);
        assert!(a.push_dense(&[1.0, f32::INFINITY, 0.0]).is_err());
        assert_eq!(a.rows(), 1);

        // Sparse decode: Inf value rejects and rolls back.
        let mut s =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Sparse { len: 8 }))
                .reject_non_finite(true);
        let mut body = Vec::new();
        wire::put_u32(&mut body, 8);
        wire::put_u32(&mut body, 2);
        wire::put_u32(&mut body, 1);
        wire::put_u32(&mut body, 5);
        wire::put_f32(&mut body, 2.0);
        wire::put_f32(&mut body, f32::NEG_INFINITY);
        assert!(s.decode_sparse_row(&mut Cursor::new(&body)).is_err());
        assert_eq!(s.rows(), 0);
        assert!(s.push_sparse(&[0], &[f32::NAN]).is_err());
        s.push_sparse(&[0, 3], &[1.0, 2.0]).unwrap();
        assert_eq!(s.rows(), 1);
    }

    #[test]
    fn non_finite_rows_pass_by_default() {
        // The guard is opt-in: the data layer stays permissive unless the
        // serving runtime turns it on.
        let mut a =
            BatchAssembler::new_unhashed(ColumnBatch::with_type(ColumnType::F32Dense { len: 2 }));
        a.push_dense(&[f32::NAN, f32::INFINITY]).unwrap();
        assert_eq!(a.rows(), 1);
    }

    #[test]
    fn hash_row_matches_decode_time_hashing() {
        // `hash_row` of a packed row is the content hash of its bytes.
        let mut b = ColumnBatch::with_type(ColumnType::Text);
        b.push_text("same bytes").unwrap();
        assert_eq!(hash_row(b.row(0)), content_hash_text("same bytes"));
        let mut d = ColumnBatch::with_type(ColumnType::F32Dense { len: 2 });
        d.push_row(ColRef::Dense(&[1.5, -2.5])).unwrap();
        assert_eq!(hash_row(d.row(0)), content_hash_dense(&[1.5, -2.5]));
    }
}
