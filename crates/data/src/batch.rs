//! Columnar batches: one buffer holding a whole chunk's worth of a column.
//!
//! The scheduler's unit of work is a *chunk* of records. With per-record
//! working sets, a chunk of `n` records leases `n × slots` vectors and runs
//! every stage `n` times through enum dispatch. A [`ColumnBatch`] instead
//! holds all `n` rows of one column contiguously — dense rows back to back
//! in one `Vec<f32>`, sparse rows in CSR form, text and token rows packed
//! behind shared bounds — so a stage runs once per chunk over flat memory:
//! dense kernels become matrix traversals that auto-vectorize, and the
//! per-record pool traffic collapses to one lease per chunk.
//!
//! Row layouts are offset-based (CSR-style `bounds` arrays) rather than
//! `Vec<Vec<…>>` precisely so that a reused batch never re-allocates per
//! row and the pool can hand back batches in constant time per buffer,
//! in the spirit of constant-time concurrent fixed-size allocation
//! (Blelloch & Wei, arXiv:2008.04296).
//!
//! [`ColRef`] is the borrowed view of one row; it mirrors the variants of
//! [`crate::vector::Vector`] so batch kernels can share per-row logic with
//! the single-record path and produce bitwise-identical scores.

use crate::schema::ColumnType;
use crate::vector::{Span, Vector};
use crate::{DataError, Result};
use std::sync::Arc;

std::thread_local! {
    /// A shared zero-capacity buffer for detached/reset text batches, so
    /// detaching costs a refcount bump instead of an allocation.
    static EMPTY_TEXT: Arc<String> = Arc::new(String::new());
}

fn empty_shared_text() -> Arc<String> {
    EMPTY_TEXT.with(Arc::clone)
}

/// A borrowed view of one row of a column (or of a whole [`Vector`]).
#[derive(Debug, Clone, Copy)]
pub enum ColRef<'a> {
    /// Text row.
    Text(&'a str),
    /// Token spans (offsets relative to the row's own text).
    Tokens(&'a [Span]),
    /// Dense `f32` row.
    Dense(&'a [f32]),
    /// Sparse row: sorted unique `indices` parallel to `values`.
    Sparse {
        /// Sorted, unique element indices.
        indices: &'a [u32],
        /// Values parallel to `indices`.
        values: &'a [f32],
        /// Logical dimensionality.
        dim: u32,
    },
    /// Scalar row.
    Scalar(f32),
}

impl<'a> ColRef<'a> {
    /// Borrows a whole [`Vector`] as a row view (shared-kernel bridge).
    pub fn from_vector(v: &'a Vector) -> Self {
        match v {
            Vector::Text(s) => ColRef::Text(s),
            Vector::Tokens(t) => ColRef::Tokens(t),
            Vector::Dense(d) => ColRef::Dense(d),
            Vector::Sparse {
                indices,
                values,
                dim,
            } => ColRef::Sparse {
                indices,
                values,
                dim: *dim,
            },
            Vector::Scalar(x) => ColRef::Scalar(*x),
        }
    }

    /// The column type this row inhabits.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColRef::Text(_) => ColumnType::Text,
            ColRef::Tokens(_) => ColumnType::TokenList,
            ColRef::Dense(d) => ColumnType::F32Dense { len: d.len() },
            ColRef::Sparse { dim, .. } => ColumnType::F32Sparse { len: *dim as usize },
            ColRef::Scalar(_) => ColumnType::F32Scalar,
        }
    }

    /// Reads feature `idx` with sparse-absent-is-zero semantics.
    pub fn feature(&self, idx: usize) -> f32 {
        match self {
            ColRef::Dense(d) => d.get(idx).copied().unwrap_or(0.0),
            ColRef::Sparse {
                indices, values, ..
            } => match indices.binary_search(&(idx as u32)) {
                Ok(p) => values[p],
                Err(_) => 0.0,
            },
            ColRef::Scalar(x) if idx == 0 => *x,
            _ => 0.0,
        }
    }

    /// Logical dimensionality for numeric rows, `None` otherwise.
    pub fn dimension(&self) -> Option<usize> {
        match self {
            ColRef::Dense(d) => Some(d.len()),
            ColRef::Sparse { dim, .. } => Some(*dim as usize),
            ColRef::Scalar(_) => Some(1),
            _ => None,
        }
    }

    /// Copies the row into an owned [`Vector`] (what the front end's result
    /// cache keeps beside a score).
    pub fn to_vector(&self) -> Vector {
        match self {
            ColRef::Text(s) => Vector::Text((*s).to_string()),
            ColRef::Tokens(t) => Vector::Tokens(t.to_vec()),
            ColRef::Dense(d) => Vector::Dense(d.to_vec()),
            ColRef::Sparse {
                indices,
                values,
                dim,
            } => Vector::Sparse {
                indices: indices.to_vec(),
                values: values.to_vec(),
                dim: *dim,
            },
            ColRef::Scalar(x) => Vector::Scalar(*x),
        }
    }
}

/// A whole chunk of one column, stored contiguously.
///
/// All variants support `O(1)` row access and append-only row construction
/// without per-row allocation, and [`ColumnBatch::reset`] keeps every
/// backing buffer's capacity so pooled batches serve chunk after chunk
/// allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnBatch {
    /// Text rows packed into one buffer; row `i` is
    /// `data[bounds[i]..bounds[i + 1]]`.
    ///
    /// The buffer is behind an [`Arc`] so a downstream [`Self::TextSpans`]
    /// batch can borrow rows without copying; mutation is copy-on-write
    /// (`Arc::make_mut`), so an outstanding spans view always keeps
    /// reading the bytes it was built over.
    Text {
        /// Concatenated row bytes (shared with any spans views).
        data: Arc<String>,
        /// Row boundaries; always starts with 0, length `rows + 1`.
        bounds: Vec<u32>,
    },
    /// Text rows *borrowed* from another text batch's buffer: row `i` is
    /// `data[spans[i].0..spans[i].1]`. This is how span-producing stages
    /// (CSV field selection) emit a column of substrings with zero copying
    /// — the output holds the source's `Arc` plus one `(start, end)` pair
    /// per row. Same column type as [`Self::Text`]; pushing owned rows
    /// first materializes into a packed `Text`.
    TextSpans {
        /// The borrowed source buffer.
        data: Arc<String>,
        /// Byte range of each row within `data` (need not be contiguous,
        /// ordered, or disjoint).
        spans: Vec<(u32, u32)>,
    },
    /// Token rows packed behind shared bounds; spans stay relative to each
    /// row's own text (zero-copy slicing downstream).
    Tokens {
        /// Concatenated per-row spans.
        spans: Vec<Span>,
        /// Row boundaries into `spans`; length `rows + 1`.
        bounds: Vec<u32>,
    },
    /// Dense rows back to back: row `i` is `data[i * dim..(i + 1) * dim]`.
    Dense {
        /// Row-major matrix storage.
        data: Vec<f32>,
        /// Row width.
        dim: usize,
        /// Row count (kept explicit so `dim == 0` stays well-defined).
        rows: usize,
    },
    /// Sparse rows in CSR form; row `i` is
    /// `indices[bounds[i]..bounds[i+1]]` / `values[..]`, indices sorted and
    /// unique within each row.
    Sparse {
        /// Row boundaries into `indices`/`values`; length `rows + 1`.
        bounds: Vec<u32>,
        /// Concatenated per-row sorted indices.
        indices: Vec<u32>,
        /// Values parallel to `indices`.
        values: Vec<f32>,
        /// Logical dimensionality of every row.
        dim: u32,
    },
    /// One scalar per row.
    Scalar(Vec<f32>),
}

impl ColumnBatch {
    /// Creates an empty batch of the right variant for `ty`.
    pub fn with_type(ty: ColumnType) -> Self {
        ColumnBatch::with_capacity_hint(ty, 0, 0)
    }

    /// Creates an empty batch with storage reserved for `rows` rows of
    /// `stored_hint` stored elements each (text bytes, tokens, sparse nnz;
    /// training statistics, like [`Vector::with_capacity_hint`]).
    pub fn with_capacity_hint(ty: ColumnType, rows: usize, stored_hint: usize) -> Self {
        match ty {
            ColumnType::Text => ColumnBatch::Text {
                data: Arc::new(String::with_capacity(rows * stored_hint)),
                bounds: bounds_with_capacity(rows),
            },
            ColumnType::TokenList => ColumnBatch::Tokens {
                spans: Vec::with_capacity(rows * stored_hint),
                bounds: bounds_with_capacity(rows),
            },
            ColumnType::F32Dense { len } => ColumnBatch::Dense {
                data: Vec::with_capacity(rows * len),
                dim: len,
                rows: 0,
            },
            ColumnType::F32Sparse { len } => ColumnBatch::Sparse {
                bounds: bounds_with_capacity(rows),
                indices: Vec::with_capacity(rows * stored_hint),
                values: Vec::with_capacity(rows * stored_hint),
                dim: len as u32,
            },
            ColumnType::F32Scalar => ColumnBatch::Scalar(Vec::with_capacity(rows)),
        }
    }

    /// The column type of every row in this batch.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. } => ColumnType::Text,
            ColumnBatch::Tokens { .. } => ColumnType::TokenList,
            ColumnBatch::Dense { dim, .. } => ColumnType::F32Dense { len: *dim },
            ColumnBatch::Sparse { dim, .. } => ColumnType::F32Sparse { len: *dim as usize },
            ColumnBatch::Scalar(_) => ColumnType::F32Scalar,
        }
    }

    /// Number of rows currently in the batch.
    pub fn rows(&self) -> usize {
        match self {
            ColumnBatch::Text { bounds, .. }
            | ColumnBatch::Tokens { bounds, .. }
            | ColumnBatch::Sparse { bounds, .. } => bounds.len() - 1,
            ColumnBatch::TextSpans { spans, .. } => spans.len(),
            ColumnBatch::Dense { rows, .. } => *rows,
            ColumnBatch::Scalar(v) => v.len(),
        }
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Clears all rows while keeping allocated capacity (pool reuse).
    pub fn reset(&mut self) {
        match self {
            ColumnBatch::Text { data, bounds } => {
                match Arc::get_mut(data) {
                    Some(s) => s.clear(),
                    // A spans view still borrows the buffer: detach rather
                    // than clearing under it.
                    None => *data = empty_shared_text(),
                }
                bounds.clear();
                bounds.push(0);
            }
            ColumnBatch::TextSpans { data, spans } => {
                spans.clear();
                *data = empty_shared_text();
            }
            ColumnBatch::Tokens { spans, bounds } => {
                spans.clear();
                bounds.clear();
                bounds.push(0);
            }
            ColumnBatch::Dense { data, rows, .. } => {
                data.clear();
                *rows = 0;
            }
            ColumnBatch::Sparse {
                bounds,
                indices,
                values,
                ..
            } => {
                bounds.clear();
                bounds.push(0);
                indices.clear();
                values.clear();
            }
            ColumnBatch::Scalar(v) => v.clear(),
        }
    }

    /// Heap bytes owned by this batch (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnBatch::Text { data, bounds } => data.capacity() + bounds.capacity() * 4,
            // The borrowed buffer belongs to (and is counted by) its source.
            ColumnBatch::TextSpans { spans, .. } => {
                spans.capacity() * std::mem::size_of::<(u32, u32)>()
            }
            ColumnBatch::Tokens { spans, bounds } => {
                spans.capacity() * std::mem::size_of::<Span>() + bounds.capacity() * 4
            }
            ColumnBatch::Dense { data, .. } => data.capacity() * 4,
            ColumnBatch::Sparse {
                bounds,
                indices,
                values,
                ..
            } => bounds.capacity() * 4 + indices.capacity() * 4 + values.capacity() * 4,
            ColumnBatch::Scalar(v) => v.capacity() * 4,
        }
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()` — row indexing is internal to batch kernels,
    /// so an out-of-range access is an engine bug, not a data condition.
    pub fn row(&self, i: usize) -> ColRef<'_> {
        match self {
            ColumnBatch::Text { data, bounds } => {
                ColRef::Text(&data[bounds[i] as usize..bounds[i + 1] as usize])
            }
            ColumnBatch::TextSpans { data, spans } => {
                let (a, b) = spans[i];
                ColRef::Text(&data[a as usize..b as usize])
            }
            ColumnBatch::Tokens { spans, bounds } => {
                ColRef::Tokens(&spans[bounds[i] as usize..bounds[i + 1] as usize])
            }
            ColumnBatch::Dense { data, dim, rows } => {
                assert!(i < *rows, "dense batch row {i} out of {rows}");
                ColRef::Dense(&data[i * dim..(i + 1) * dim])
            }
            ColumnBatch::Sparse {
                bounds,
                indices,
                values,
                dim,
            } => {
                let (a, b) = (bounds[i] as usize, bounds[i + 1] as usize);
                ColRef::Sparse {
                    indices: &indices[a..b],
                    values: &values[a..b],
                    dim: *dim,
                }
            }
            ColumnBatch::Scalar(v) => ColRef::Scalar(v[i]),
        }
    }

    /// Appends a text row (copying). On a spans batch, the borrowed rows
    /// are first materialized into a packed buffer (cold path; the hot
    /// producers either stay all-spans or all-owned).
    pub fn push_text(&mut self, s: &str) -> Result<()> {
        if matches!(self, ColumnBatch::TextSpans { .. }) {
            self.materialize_text();
        }
        match self {
            ColumnBatch::Text { data, bounds } => {
                Arc::make_mut(data).push_str(s);
                bounds.push(data.len() as u32);
                Ok(())
            }
            other => Err(variant_err("text", other)),
        }
    }

    /// The shared text buffer behind a text-family batch — the handle a
    /// span-producing stage clones into its [`Self::TextSpans`] output.
    pub fn shared_text(&self) -> Option<&Arc<String>> {
        match self {
            ColumnBatch::Text { data, .. } | ColumnBatch::TextSpans { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Turns this (text-family) batch into a spans view over `source`,
    /// clearing previous rows, and returns the span list for the caller to
    /// fill with `(start, end)` byte ranges into `source`. Reuses the span
    /// list's capacity when the batch was already a spans view, so a
    /// pooled output batch serves chunk after chunk allocation-free.
    pub fn begin_text_spans(&mut self, source: Arc<String>) -> Result<&mut Vec<(u32, u32)>> {
        match self {
            ColumnBatch::TextSpans { data, spans } => {
                *data = source;
                spans.clear();
                Ok(spans)
            }
            ColumnBatch::Text { .. } => {
                *self = ColumnBatch::TextSpans {
                    data: source,
                    spans: Vec::new(),
                };
                match self {
                    ColumnBatch::TextSpans { spans, .. } => Ok(spans),
                    _ => unreachable!(),
                }
            }
            other => Err(variant_err("text", other)),
        }
    }

    /// Drops any cross-batch text sharing: a spans view lets go of the
    /// borrowed buffer, and a text batch whose buffer a view still borrows
    /// forgets it (so the pool never parks a batch that pins another
    /// batch's memory or forces a copy-on-write on the source's reuse).
    pub fn detach_shared(&mut self) {
        match self {
            ColumnBatch::Text { data, bounds } if Arc::strong_count(data) > 1 => {
                *data = empty_shared_text();
                bounds.clear();
                bounds.push(0);
            }
            ColumnBatch::TextSpans { data, spans } => {
                spans.clear();
                *data = empty_shared_text();
            }
            _ => {}
        }
    }

    /// Rewrites a spans view as an owned packed text batch (same rows).
    fn materialize_text(&mut self) {
        if let ColumnBatch::TextSpans { data, spans } = self {
            let total: usize = spans.iter().map(|&(a, b)| (b - a) as usize).sum();
            let mut owned = String::with_capacity(total);
            let mut bounds = bounds_with_capacity(spans.len());
            for &(a, b) in spans.iter() {
                owned.push_str(&data[a as usize..b as usize]);
                bounds.push(owned.len() as u32);
            }
            *self = ColumnBatch::Text {
                data: Arc::new(owned),
                bounds,
            };
        }
    }

    /// Appends a token row through `fill`, which appends the row's spans to
    /// the shared buffer (spans relative to the row's own text).
    pub fn push_tokens_with(&mut self, fill: impl FnOnce(&mut Vec<Span>)) -> Result<()> {
        match self {
            ColumnBatch::Tokens { spans, bounds } => {
                fill(spans);
                bounds.push(spans.len() as u32);
                Ok(())
            }
            other => Err(variant_err("tokens", other)),
        }
    }

    /// Appends a scalar row.
    pub fn push_scalar(&mut self, x: f32) -> Result<()> {
        match self {
            ColumnBatch::Scalar(v) => {
                v.push(x);
                Ok(())
            }
            other => Err(variant_err("scalar", other)),
        }
    }

    /// Appends a zero-filled dense row and returns it for writing.
    pub fn push_dense_row(&mut self) -> Result<&mut [f32]> {
        match self {
            ColumnBatch::Dense { data, dim, rows } => {
                let start = *rows * *dim;
                data.resize(start + *dim, 0.0);
                *rows += 1;
                Ok(&mut data[start..])
            }
            other => Err(variant_err("dense", other)),
        }
    }

    /// Clears the batch and resizes to `rows` zero-filled dense rows,
    /// returning the whole row-major matrix (for kernels that traverse the
    /// chunk flat).
    pub fn fill_dense(&mut self, rows: usize) -> Result<&mut [f32]> {
        match self {
            ColumnBatch::Dense { data, dim, rows: r } => {
                data.clear();
                data.resize(rows * *dim, 0.0);
                *r = rows;
                Ok(data)
            }
            other => Err(variant_err("dense", other)),
        }
    }

    /// Clears the batch and resizes to `rows` zeroed scalar rows, returning
    /// the flat storage.
    pub fn fill_scalar(&mut self, rows: usize) -> Result<&mut [f32]> {
        match self {
            ColumnBatch::Scalar(v) => {
                v.clear();
                v.resize(rows, 0.0);
                Ok(v)
            }
            other => Err(variant_err("scalar", other)),
        }
    }

    /// Borrows the flat scalar storage, or `None` for other variants.
    pub fn as_scalars(&self) -> Option<&[f32]> {
        match self {
            ColumnBatch::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the flat dense storage `(data, dim, rows)`, or `None`.
    pub fn as_dense(&self) -> Option<(&[f32], usize, usize)> {
        match self {
            ColumnBatch::Dense { data, dim, rows } => Some((data, *dim, *rows)),
            _ => None,
        }
    }

    /// Appends a [`Vector`] as one row (copying). The vector's variant must
    /// match the batch's column type; used to assemble batches from
    /// per-record values (tests, harnesses, source loading).
    pub fn push_vector(&mut self, v: &Vector) -> Result<()> {
        self.push_row(ColRef::from_vector(v))
    }

    /// Appends one borrowed row (copying). The row's variant must match the
    /// batch's column type.
    pub fn push_row(&mut self, row: ColRef<'_>) -> Result<()> {
        match (self, row) {
            (b @ (ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. }), ColRef::Text(s)) => {
                b.push_text(s)
            }
            (b @ ColumnBatch::Tokens { .. }, ColRef::Tokens(t)) => {
                b.push_tokens_with(|spans| spans.extend_from_slice(t))
            }
            (ColumnBatch::Dense { data, dim, rows }, ColRef::Dense(d)) if d.len() == *dim => {
                data.extend_from_slice(d);
                *rows += 1;
                Ok(())
            }
            (
                ColumnBatch::Sparse {
                    bounds,
                    indices,
                    values,
                    dim,
                },
                ColRef::Sparse {
                    indices: ri,
                    values: rv,
                    dim: rd,
                },
            ) if rd == *dim => {
                indices.extend_from_slice(ri);
                values.extend_from_slice(rv);
                bounds.push(indices.len() as u32);
                Ok(())
            }
            (b @ ColumnBatch::Scalar(_), ColRef::Scalar(x)) => b.push_scalar(x),
            (b, row) => Err(DataError::mismatch(
                "push_row",
                b.column_type(),
                row.column_type(),
            )),
        }
    }

    /// Appends rows `start..end` of `src` (which must share this batch's
    /// column type) as a bulk copy: one memcpy-style extend per backing
    /// buffer instead of one [`Self::push_row`] per row.
    ///
    /// This is how a chunk's working-set slot 0 is filled from a
    /// wire-assembled request batch — the per-record staging copy the
    /// `Record` path pays becomes a handful of flat extends.
    pub fn extend_from_range(&mut self, src: &Self, start: usize, end: usize) -> Result<()> {
        if start > end || end > src.rows() {
            let rows = format!("rows within 0..{}", src.rows());
            return Err(DataError::mismatch(
                "extend_from_range",
                rows,
                format!("{start}..{end}"),
            ));
        }
        // A spans destination can't splice foreign bytes; fold it into a
        // packed buffer first (cold: bulk fills target freshly-reset slots).
        if matches!(self, ColumnBatch::TextSpans { .. })
            && matches!(
                src,
                ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. }
            )
        {
            self.materialize_text();
        }
        match (self, src) {
            (
                ColumnBatch::Text { data, bounds },
                ColumnBatch::Text {
                    data: sdata,
                    bounds: sbounds,
                },
            ) => {
                let (a, b) = (sbounds[start] as usize, sbounds[end] as usize);
                let base = (data.len() as u32).wrapping_sub(sbounds[start]);
                Arc::make_mut(data).push_str(&sdata[a..b]);
                bounds.extend(
                    sbounds[start + 1..=end]
                        .iter()
                        .map(|&x| x.wrapping_add(base)),
                );
                Ok(())
            }
            (ColumnBatch::Text { data, bounds }, ColumnBatch::TextSpans { data: sdata, spans }) => {
                let owned = Arc::make_mut(data);
                for &(a, b) in &spans[start..end] {
                    owned.push_str(&sdata[a as usize..b as usize]);
                    bounds.push(owned.len() as u32);
                }
                Ok(())
            }
            (
                ColumnBatch::Tokens { spans, bounds },
                ColumnBatch::Tokens {
                    spans: sspans,
                    bounds: sbounds,
                },
            ) => {
                let (a, b) = (sbounds[start] as usize, sbounds[end] as usize);
                let base = (spans.len() as u32).wrapping_sub(sbounds[start]);
                spans.extend_from_slice(&sspans[a..b]);
                bounds.extend(
                    sbounds[start + 1..=end]
                        .iter()
                        .map(|&x| x.wrapping_add(base)),
                );
                Ok(())
            }
            (
                ColumnBatch::Dense { data, dim, rows },
                ColumnBatch::Dense {
                    data: sdata,
                    dim: sdim,
                    ..
                },
            ) if dim == sdim => {
                data.extend_from_slice(&sdata[start * *dim..end * *dim]);
                *rows += end - start;
                Ok(())
            }
            (
                ColumnBatch::Sparse {
                    bounds,
                    indices,
                    values,
                    dim,
                },
                ColumnBatch::Sparse {
                    bounds: sbounds,
                    indices: sindices,
                    values: svalues,
                    dim: sdim,
                },
            ) if dim == sdim => {
                let (a, b) = (sbounds[start] as usize, sbounds[end] as usize);
                let base = (indices.len() as u32).wrapping_sub(sbounds[start]);
                indices.extend_from_slice(&sindices[a..b]);
                values.extend_from_slice(&svalues[a..b]);
                bounds.extend(
                    sbounds[start + 1..=end]
                        .iter()
                        .map(|&x| x.wrapping_add(base)),
                );
                Ok(())
            }
            (ColumnBatch::Scalar(v), ColumnBatch::Scalar(sv)) => {
                v.extend_from_slice(&sv[start..end]);
                Ok(())
            }
            (dst, src) => Err(DataError::mismatch(
                "extend_from_range",
                dst.column_type(),
                src.column_type(),
            )),
        }
    }

    /// Opens the next sparse row for accumulation. Rows must be finished
    /// with [`SparseRowMut::finish`] (or by drop) before the next row opens.
    pub fn begin_sparse_row(&mut self) -> Result<SparseRowMut<'_>> {
        match self {
            ColumnBatch::Sparse {
                bounds,
                indices,
                values,
                dim,
            } => Ok(SparseRowMut {
                start: *bounds.last().expect("bounds never empty") as usize,
                bounds,
                indices,
                values,
                dim: *dim,
                sorted_unique: true,
            }),
            other => Err(variant_err("sparse", other)),
        }
    }
}

fn bounds_with_capacity(rows: usize) -> Vec<u32> {
    let mut b = Vec::with_capacity(rows + 1);
    b.push(0);
    b
}

fn variant_err(want: &str, got: &ColumnBatch) -> DataError {
    DataError::mismatch("column batch", want, got.column_type())
}

/// An open sparse row at the tail of a CSR batch.
///
/// [`SparseRowMut::accumulate`] has the exact semantics of
/// [`Vector::sparse_accumulate`] restricted to the open row: after the row
/// closes, indices are sorted and unique, and duplicate indices *sum* in
/// arrival order — which is what keeps batch featurizer output
/// bitwise-identical to the per-record path.
///
/// Internally the row is built *bulk-style*: accumulations append unsorted
/// to the CSR tail in `O(1)`, and closing the row runs one stable
/// sort-and-merge pass. Arrival order is the sort's tie-break for equal
/// indices, so the left-to-right merge sums duplicates in exactly the order
/// the old per-accumulate sorted insertion did — same bits, without the
/// `O(nnz²)` element shifting on high-nnz featurizer rows.
#[derive(Debug)]
pub struct SparseRowMut<'a> {
    bounds: &'a mut Vec<u32>,
    indices: &'a mut Vec<u32>,
    values: &'a mut Vec<f32>,
    start: usize,
    dim: u32,
    /// Tail is sorted strictly-increasing so far (fast path: nothing to do
    /// at close).
    sorted_unique: bool,
}

/// Rows at or below this nnz sort-and-merge in place with a stable
/// insertion sort; larger rows go through the thread-local scratch.
const SMALL_ROW_SORT: usize = 32;

std::thread_local! {
    /// Reusable `(index, arrival, value)` scratch for large-row
    /// sort-and-merge, so closing a high-nnz row stays allocation-free
    /// after warm-up.
    static ROW_SORT_SCRATCH: std::cell::RefCell<Vec<(u32, u32, f32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl SparseRowMut<'_> {
    /// Adds `(index, value)` into the open row, summing duplicates when the
    /// row closes.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim` — featurizer kernels construct their
    /// outputs, so a mismatch is an internal bug (same contract as
    /// [`Vector::sparse_accumulate`]).
    pub fn accumulate(&mut self, index: u32, value: f32) {
        assert!(
            index < self.dim,
            "sparse index {index} out of dim {}",
            self.dim
        );
        if self.sorted_unique
            && self.indices.len() > self.start
            && index <= self.indices[self.indices.len() - 1]
        {
            self.sorted_unique = false;
        }
        self.indices.push(index);
        self.values.push(value);
    }

    /// Logical dimensionality of the row.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Closes the row (recording its bound). Dropping without calling this
    /// closes the row too; `finish` exists to make the close explicit at
    /// call sites.
    pub fn finish(self) {}

    /// Sorts the unsorted tail stably by index and merges duplicate indices
    /// by summing values in arrival order.
    fn sort_and_merge(&mut self) {
        let start = self.start;
        let k = self.indices.len() - start;
        if k <= SMALL_ROW_SORT {
            // Stable in-place insertion sort over the parallel tails.
            for i in start + 1..self.indices.len() {
                let (idx, val) = (self.indices[i], self.values[i]);
                let mut j = i;
                while j > start && self.indices[j - 1] > idx {
                    self.indices[j] = self.indices[j - 1];
                    self.values[j] = self.values[j - 1];
                    j -= 1;
                }
                self.indices[j] = idx;
                self.values[j] = val;
            }
        } else {
            ROW_SORT_SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                scratch.clear();
                scratch.extend(
                    self.indices[start..]
                        .iter()
                        .zip(&self.values[start..])
                        .enumerate()
                        .map(|(seq, (&i, &v))| (i, seq as u32, v)),
                );
                // Arrival order is the tie-break, so this unstable sort is
                // effectively stable on (index, arrival).
                scratch.sort_unstable_by_key(|&(i, seq, _)| (i, seq));
                for (slot, &(i, _, v)) in scratch.iter().enumerate() {
                    self.indices[start + slot] = i;
                    self.values[start + slot] = v;
                }
            });
        }
        // Merge runs of equal indices left to right (arrival order).
        let mut write = start;
        for read in start..self.indices.len() {
            if write > start && self.indices[read] == self.indices[write - 1] {
                self.values[write - 1] += self.values[read];
            } else {
                self.indices[write] = self.indices[read];
                self.values[write] = self.values[read];
                write += 1;
            }
        }
        self.indices.truncate(write);
        self.values.truncate(write);
    }
}

impl Drop for SparseRowMut<'_> {
    fn drop(&mut self) {
        if !self.sorted_unique {
            self.sort_and_merge();
        }
        self.bounds.push(self.indices.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_type_round_trips_column_type() {
        for ty in [
            ColumnType::Text,
            ColumnType::TokenList,
            ColumnType::F32Dense { len: 7 },
            ColumnType::F32Sparse { len: 9 },
            ColumnType::F32Scalar,
        ] {
            let b = ColumnBatch::with_type(ty);
            assert_eq!(b.column_type(), ty);
            assert_eq!(b.rows(), 0);
            assert!(b.is_empty());
        }
    }

    #[test]
    fn text_rows_pack_and_slice() {
        let mut b = ColumnBatch::with_type(ColumnType::Text);
        b.push_text("hello").unwrap();
        b.push_text("").unwrap();
        b.push_text("world").unwrap();
        assert_eq!(b.rows(), 3);
        assert!(matches!(b.row(0), ColRef::Text("hello")));
        assert!(matches!(b.row(1), ColRef::Text("")));
        assert!(matches!(b.row(2), ColRef::Text("world")));
    }

    #[test]
    fn token_rows_pack_behind_bounds() {
        let mut b = ColumnBatch::with_type(ColumnType::TokenList);
        b.push_tokens_with(|s| {
            s.push(Span::new(0, 2));
            s.push(Span::new(3, 5));
        })
        .unwrap();
        b.push_tokens_with(|_| {}).unwrap();
        b.push_tokens_with(|s| s.push(Span::new(1, 4))).unwrap();
        assert_eq!(b.rows(), 3);
        match b.row(0) {
            ColRef::Tokens(t) => assert_eq!(t.len(), 2),
            _ => unreachable!(),
        }
        match b.row(1) {
            ColRef::Tokens(t) => assert!(t.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn dense_rows_are_contiguous() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Dense { len: 3 });
        b.push_dense_row()
            .unwrap()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        b.push_dense_row()
            .unwrap()
            .copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(b.rows(), 2);
        let (data, dim, rows) = b.as_dense().unwrap();
        assert_eq!((dim, rows), (3, 2));
        assert_eq!(data, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        match b.row(1) {
            ColRef::Dense(r) => assert_eq!(r, &[4.0, 5.0, 6.0]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn fill_dense_resizes_and_zeroes() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Dense { len: 2 });
        b.push_dense_row().unwrap()[0] = 9.0;
        let m = b.fill_dense(3).unwrap();
        assert_eq!(m.len(), 6);
        assert!(m.iter().all(|&x| x == 0.0));
        assert_eq!(b.rows(), 3);
    }

    #[test]
    fn sparse_rows_accumulate_like_vector() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Sparse { len: 10 });
        let mut row = b.begin_sparse_row().unwrap();
        row.accumulate(5, 1.0);
        row.accumulate(2, 2.0);
        row.accumulate(5, 0.5);
        row.finish();
        let mut row = b.begin_sparse_row().unwrap();
        row.accumulate(7, 3.0);
        row.finish();
        assert_eq!(b.rows(), 2);

        // Reference: the per-record accumulate on a Vector.
        let mut v = Vector::with_type(ColumnType::F32Sparse { len: 10 });
        v.sparse_accumulate(5, 1.0);
        v.sparse_accumulate(2, 2.0);
        v.sparse_accumulate(5, 0.5);
        match (b.row(0), &v) {
            (
                ColRef::Sparse {
                    indices, values, ..
                },
                Vector::Sparse {
                    indices: vi,
                    values: vv,
                    ..
                },
            ) => {
                assert_eq!(indices, &vi[..]);
                assert_eq!(values, &vv[..]);
            }
            _ => unreachable!(),
        }
        match b.row(1) {
            ColRef::Sparse {
                indices, values, ..
            } => {
                assert_eq!(indices, &[7]);
                assert_eq!(values, &[3.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "out of dim")]
    fn sparse_row_bounds_checked() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Sparse { len: 4 });
        let mut row = b.begin_sparse_row().unwrap();
        row.accumulate(4, 1.0);
    }

    #[test]
    fn scalar_rows() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Scalar);
        b.push_scalar(1.5).unwrap();
        b.push_scalar(-2.0).unwrap();
        assert_eq!(b.as_scalars().unwrap(), &[1.5, -2.0]);
        assert!(matches!(b.row(1), ColRef::Scalar(x) if x == -2.0));
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut b = ColumnBatch::with_type(ColumnType::Text);
        b.push_text("a fairly long review body").unwrap();
        let cap = match &b {
            ColumnBatch::Text { data, .. } => data.capacity(),
            _ => unreachable!(),
        };
        b.reset();
        assert_eq!(b.rows(), 0);
        match &b {
            ColumnBatch::Text { data, bounds } => {
                assert_eq!(data.capacity(), cap);
                assert_eq!(bounds, &[0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn variant_mismatch_is_error() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Scalar);
        assert!(b.push_text("x").is_err());
        assert!(b.push_dense_row().is_err());
        assert!(b.begin_sparse_row().is_err());
        let mut d = ColumnBatch::with_type(ColumnType::F32Dense { len: 1 });
        assert!(d.push_scalar(0.0).is_err());
    }

    #[test]
    fn col_ref_feature_reads() {
        let r = ColRef::Dense(&[1.0, 2.0]);
        assert_eq!(r.feature(1), 2.0);
        assert_eq!(r.feature(9), 0.0);
        let s = ColRef::Sparse {
            indices: &[3],
            values: &[7.0],
            dim: 8,
        };
        assert_eq!(s.feature(3), 7.0);
        assert_eq!(s.feature(4), 0.0);
        assert_eq!(ColRef::Scalar(5.0).feature(0), 5.0);
        assert_eq!(ColRef::Text("x").feature(0), 0.0);
    }

    #[test]
    fn push_row_round_trips_through_to_vector() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Sparse { len: 4 });
        let mut row = b.begin_sparse_row().unwrap();
        row.accumulate(1, 2.0);
        row.accumulate(3, -1.0);
        row.finish();
        let v = b.row(0).to_vector();
        let mut b2 = ColumnBatch::with_type(ColumnType::F32Sparse { len: 4 });
        b2.push_row(ColRef::from_vector(&v)).unwrap();
        assert_eq!(format!("{:?}", b2.row(0)), format!("{:?}", b.row(0)));
        // Variant mismatch surfaces as an error, not a corrupt batch.
        let mut scalars = ColumnBatch::with_type(ColumnType::F32Scalar);
        assert!(scalars.push_row(ColRef::from_vector(&v)).is_err());
        assert_eq!(scalars.rows(), 0);
    }

    #[test]
    fn extend_from_range_matches_per_row_push_for_every_variant() {
        let mut text = ColumnBatch::with_type(ColumnType::Text);
        for s in ["a", "", "ccc", "dd"] {
            text.push_text(s).unwrap();
        }
        let mut tokens = ColumnBatch::with_type(ColumnType::TokenList);
        for n in [2usize, 0, 1, 3] {
            tokens
                .push_tokens_with(|s| s.extend((0..n).map(|i| Span::new(i as u32, i as u32 + 2))))
                .unwrap();
        }
        let mut dense = ColumnBatch::with_type(ColumnType::F32Dense { len: 2 });
        for r in 0..4 {
            dense
                .push_dense_row()
                .unwrap()
                .copy_from_slice(&[r as f32, -(r as f32)]);
        }
        let mut sparse = ColumnBatch::with_type(ColumnType::F32Sparse { len: 8 });
        for r in 0..4u32 {
            let mut row = sparse.begin_sparse_row().unwrap();
            row.accumulate(r, r as f32 + 1.0);
            row.accumulate(r + 4, -1.0);
            row.finish();
        }
        let mut scalar = ColumnBatch::with_type(ColumnType::F32Scalar);
        for r in 0..4 {
            scalar.push_scalar(r as f32 * 10.0).unwrap();
        }
        for src in [&text, &tokens, &dense, &sparse, &scalar] {
            for (start, end) in [(0, 4), (1, 3), (2, 2), (3, 4)] {
                // Destination pre-populated with one row so the rebase
                // offsets are exercised against a non-empty tail.
                let mut bulk = ColumnBatch::with_type(src.column_type());
                let mut per_row = ColumnBatch::with_type(src.column_type());
                bulk.push_row(src.row(0)).unwrap();
                per_row.push_row(src.row(0)).unwrap();
                bulk.extend_from_range(src, start, end).unwrap();
                for r in start..end {
                    per_row.push_row(src.row(r)).unwrap();
                }
                assert_eq!(
                    bulk,
                    per_row,
                    "{:?} range {start}..{end}",
                    src.column_type()
                );
            }
        }
    }

    #[test]
    fn extend_from_range_rejects_bad_ranges_and_types() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Scalar);
        b.push_scalar(1.0).unwrap();
        let mut out = ColumnBatch::with_type(ColumnType::F32Scalar);
        assert!(out.extend_from_range(&b, 0, 2).is_err());
        assert!(out.extend_from_range(&b, 1, 0).is_err());
        let mut wrong = ColumnBatch::with_type(ColumnType::Text);
        assert!(wrong.extend_from_range(&b, 0, 1).is_err());
        let narrow = ColumnBatch::with_type(ColumnType::F32Dense { len: 2 });
        let mut wide = ColumnBatch::with_type(ColumnType::F32Dense { len: 3 });
        assert!(wide.extend_from_range(&narrow, 0, 0).is_err());
    }

    #[test]
    fn bulk_sparse_build_matches_per_record_accumulate_bitwise() {
        // Pseudo-random high-nnz rows with duplicates: the bulk
        // sort-and-merge close must produce exactly the bits the
        // per-record sorted-insertion path (Vector::sparse_accumulate)
        // produces, including arrival-order duplicate summation.
        let dim = 64u32;
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut batch = ColumnBatch::with_type(ColumnType::F32Sparse { len: dim as usize });
        let mut refs: Vec<Vector> = Vec::new();
        for row_len in [0usize, 1, 5, 31, 33, 200] {
            let pairs: Vec<(u32, f32)> = (0..row_len)
                .map(|_| {
                    let r = next();
                    ((r % u64::from(dim)) as u32, (r >> 32) as f32 / 1e9 - 2.0)
                })
                .collect();
            let mut row = batch.begin_sparse_row().unwrap();
            let mut v = Vector::with_type(ColumnType::F32Sparse { len: dim as usize });
            for &(i, x) in &pairs {
                row.accumulate(i, x);
                v.sparse_accumulate(i, x);
            }
            row.finish();
            refs.push(v);
        }
        for (r, v) in refs.iter().enumerate() {
            let (bi, bv) = match batch.row(r) {
                ColRef::Sparse {
                    indices, values, ..
                } => (indices, values),
                _ => unreachable!(),
            };
            let (vi, vv) = match v {
                Vector::Sparse {
                    indices, values, ..
                } => (indices, values),
                _ => unreachable!(),
            };
            assert_eq!(bi, &vi[..], "row {r} indices");
            assert_eq!(bv.len(), vv.len(), "row {r} nnz");
            for (a, b) in bv.iter().zip(vv) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} value bits");
            }
        }
    }

    #[test]
    fn sorted_append_fast_path_skips_nothing() {
        let mut b = ColumnBatch::with_type(ColumnType::F32Sparse { len: 10 });
        let mut row = b.begin_sparse_row().unwrap();
        for i in [0u32, 3, 7, 9] {
            row.accumulate(i, i as f32);
        }
        row.finish();
        match b.row(0) {
            ColRef::Sparse {
                indices, values, ..
            } => {
                assert_eq!(indices, &[0, 3, 7, 9]);
                assert_eq!(values, &[0.0, 3.0, 7.0, 9.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn text_spans_borrow_rows_zero_copy() {
        let mut src = ColumnBatch::with_type(ColumnType::Text);
        src.push_text("alpha,beta").unwrap();
        src.push_text("gamma,delta").unwrap();
        let shared = Arc::clone(src.shared_text().unwrap());
        let mut out = ColumnBatch::with_type(ColumnType::Text);
        {
            let spans = out.begin_text_spans(Arc::clone(&shared)).unwrap();
            spans.push((0, 5)); // "alpha"
            spans.push((16, 21)); // "delta"
        }
        assert_eq!(out.rows(), 2);
        assert_eq!(out.column_type(), ColumnType::Text);
        assert!(matches!(out.row(0), ColRef::Text("alpha")));
        assert!(matches!(out.row(1), ColRef::Text("delta")));
        // Zero-copy: the view shares the source allocation.
        assert!(Arc::ptr_eq(out.shared_text().unwrap(), &shared));
    }

    #[test]
    fn text_spans_survive_source_mutation_via_cow() {
        let mut src = ColumnBatch::with_type(ColumnType::Text);
        src.push_text("hello").unwrap();
        let mut view = ColumnBatch::with_type(ColumnType::Text);
        view.begin_text_spans(Arc::clone(src.shared_text().unwrap()))
            .unwrap()
            .push((0, 5));
        // Mutating the source after the view exists copies on write…
        src.push_text("world").unwrap();
        src.reset();
        src.push_text("other").unwrap();
        // …so the view still reads the bytes it was built over.
        assert!(matches!(view.row(0), ColRef::Text("hello")));
        assert!(matches!(src.row(0), ColRef::Text("other")));
    }

    #[test]
    fn text_spans_materialize_on_owned_push_and_reset() {
        let mut src = ColumnBatch::with_type(ColumnType::Text);
        src.push_text("abcdef").unwrap();
        let shared = Arc::clone(src.shared_text().unwrap());
        let mut view = ColumnBatch::with_type(ColumnType::Text);
        view.begin_text_spans(Arc::clone(&shared))
            .unwrap()
            .push((2, 4));
        // Owned push folds the view into a packed batch, preserving rows.
        view.push_text("xyz").unwrap();
        assert!(matches!(view, ColumnBatch::Text { .. }));
        assert!(matches!(view.row(0), ColRef::Text("cd")));
        assert!(matches!(view.row(1), ColRef::Text("xyz")));
        // A reset spans view lets go of its borrowed buffer.
        let mut view2 = ColumnBatch::with_type(ColumnType::Text);
        view2
            .begin_text_spans(Arc::clone(&shared))
            .unwrap()
            .push((0, 1));
        assert_eq!(Arc::strong_count(&shared), 3);
        view2.reset();
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(view2.rows(), 0);
    }

    #[test]
    fn detach_shared_frees_both_sides() {
        let mut src = ColumnBatch::with_type(ColumnType::Text);
        src.push_text("payload").unwrap();
        let mut view = ColumnBatch::with_type(ColumnType::Text);
        view.begin_text_spans(Arc::clone(src.shared_text().unwrap()))
            .unwrap()
            .push((0, 7));
        // Detaching the source while a view borrows it drops the source's
        // handle (the view keeps the buffer alive).
        src.detach_shared();
        assert_eq!(src.rows(), 0);
        assert!(matches!(view.row(0), ColRef::Text("payload")));
        // Detaching the view clears the borrow entirely.
        view.detach_shared();
        assert_eq!(view.rows(), 0);
        // A source with no outstanding view keeps its rows on detach.
        let mut lone = ColumnBatch::with_type(ColumnType::Text);
        lone.push_text("kept").unwrap();
        lone.detach_shared();
        assert_eq!(lone.rows(), 1);
    }

    #[test]
    fn extend_covers_text_spans() {
        let mut src = ColumnBatch::with_type(ColumnType::Text);
        for s in ["aa", "bb", "cc"] {
            src.push_text(s).unwrap();
        }
        let mut view = ColumnBatch::with_type(ColumnType::Text);
        {
            let spans = view
                .begin_text_spans(Arc::clone(src.shared_text().unwrap()))
                .unwrap();
            spans.extend_from_slice(&[(0, 2), (2, 4), (4, 6)]);
        }
        // extend_from_range with a spans source packs the selected rows.
        let mut packed = ColumnBatch::with_type(ColumnType::Text);
        packed.extend_from_range(&view, 1, 3).unwrap();
        assert!(matches!(packed.row(0), ColRef::Text("bb")));
        assert!(matches!(packed.row(1), ColRef::Text("cc")));
    }

    #[test]
    fn heap_bytes_counts_capacity() {
        let mut b = ColumnBatch::with_capacity_hint(ColumnType::F32Dense { len: 4 }, 8, 0);
        assert!(b.heap_bytes() >= 8 * 4 * 4);
        b.reset();
        assert!(b.heap_bytes() >= 8 * 4 * 4);
    }
}
