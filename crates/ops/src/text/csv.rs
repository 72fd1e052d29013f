//! CSV ingestion operator.
//!
//! Flour programs start with `CSV.FromText(',').WithSchema<T>().Select(col)`
//! (paper Listing 1). This operator implements that prefix: it parses one
//! CSV line and either selects a text field (Sentiment Analysis) or decodes
//! all numeric fields into a dense vector (Attendee Count's 40-dimensional
//! structured input, paper Table 1).

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColRef, ColumnBatch, ColumnType, DataError, Result, Vector};

/// The most bytes of an input line or field an error message quotes.
const EXCERPT_BYTES: usize = 64;

/// `text` as an error message quotes it: its first [`EXCERPT_BYTES`]
/// bytes, cut on a char boundary, and its length. A line comes off the
/// wire and may be 64 MiB long; its error must not be.
fn excerpt(text: &str) -> String {
    let mut end = text.len().min(EXCERPT_BYTES);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    let cut = if end < text.len() { "..." } else { "" };
    format!("`{}{cut}` ({} bytes)", &text[..end], text.len())
}

/// Field `i` of a dense line does not parse as a number.
fn bad_number(i: usize, field: &str, e: std::num::ParseFloatError) -> DataError {
    DataError::BadInput(format!("bad numeric field {i} {}: {e}", excerpt(field)))
}

/// What the parser extracts from each line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvOutput {
    /// Select field `index` as raw text.
    TextField {
        /// Zero-based field index to select.
        index: u32,
    },
    /// Parse all fields as `f32` into a dense vector of length `len`.
    DenseFields {
        /// Expected number of numeric fields.
        len: u32,
    },
}

/// Parameters of the CSV parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvParams {
    /// Field separator byte (e.g. `b','`).
    pub separator: u8,
    /// Extraction mode.
    pub output: CsvOutput,
    memo: ChecksumMemo,
}

impl CsvParams {
    /// Parser splitting lines on `separator`.
    pub fn new(separator: u8, output: CsvOutput) -> Self {
        CsvParams {
            separator,
            output,
            memo: ChecksumMemo::default(),
        }
    }

    /// Parser that selects text field `index` from comma-separated lines.
    pub fn select_text(index: u32) -> Self {
        CsvParams::new(b',', CsvOutput::TextField { index })
    }

    /// Parser that decodes `len` comma-separated floats.
    pub fn dense(len: u32) -> Self {
        CsvParams::new(b',', CsvOutput::DenseFields { len })
    }

    /// Output column type.
    pub fn output_type(&self) -> ColumnType {
        match self.output {
            CsvOutput::TextField { .. } => ColumnType::Text,
            CsvOutput::DenseFields { len } => ColumnType::F32Dense { len: len as usize },
        }
    }

    /// A buffer of another type than [`Self::output_type`].
    fn mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch("csv", format!("{} output", self.output_type()), found)
    }

    /// Operator annotations: memory-bound featurizer, fusible.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    /// The text field this parser selects from `line`, borrowed from it
    /// (an error in dense mode, or when the line has no such field).
    pub fn select_field<'a>(&self, line: &'a str) -> Result<&'a str> {
        let CsvOutput::TextField { index } = self.output else {
            return Err(DataError::mismatch(
                "csv",
                "a text field",
                self.output_type(),
            ));
        };
        line.split(self.separator as char)
            .nth(index as usize)
            .ok_or_else(|| {
                DataError::BadInput(format!("csv line has no field {index}: {}", excerpt(line)))
            })
    }

    /// Parses `line` into `out`.
    ///
    /// `out` must already be of the output variant (pooled buffers are typed
    /// by the stage schema); contents are overwritten.
    pub fn apply(&self, line: &str, out: &mut Vector) -> Result<()> {
        match (self.output, out) {
            (CsvOutput::TextField { .. }, Vector::Text(dst)) => {
                let field = self.select_field(line)?;
                dst.clear();
                dst.push_str(field);
                Ok(())
            }
            (CsvOutput::DenseFields { len }, Vector::Dense(dst)) => {
                if dst.len() != len as usize {
                    return Err(self.mismatch(ColumnType::F32Dense { len: dst.len() }));
                }
                let mut count = 0usize;
                for (i, field) in line.split(self.separator as char).enumerate() {
                    if i >= len as usize {
                        break;
                    }
                    dst[i] = field.trim().parse().map_err(|e| bad_number(i, field, e))?;
                    count += 1;
                }
                if count < len as usize {
                    return Err(DataError::BadInput(format!(
                        "csv line has {count} fields, expected {len}"
                    )));
                }
                Ok(())
            }
            (_, out) => Err(self.mismatch(out.column_type())),
        }
    }

    /// Batch kernel: parses every text row of the chunk (field selection
    /// and numeric parsing identical to [`Self::apply`]).
    ///
    /// Field selection does not copy: the output batch becomes a
    /// `TextSpans` view borrowing the input's shared buffer, with one
    /// `(start, end)` pair per row — selecting a field is pure offset
    /// arithmetic over bytes the ingest path already packed.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        if out.column_type() != self.output_type() {
            return Err(self.mismatch(out.column_type()));
        }
        if let CsvOutput::TextField { .. } = self.output {
            if let Some(source) = input.shared_text() {
                let source = std::sync::Arc::clone(source);
                let base = source.as_ptr() as usize;
                let spans = out.begin_text_spans(std::sync::Arc::clone(&source))?;
                for r in 0..input.rows() {
                    let ColRef::Text(line) = input.row(r) else {
                        unreachable!("text batch rows are text");
                    };
                    let field = self.select_field(line)?;
                    // `field` is a subslice of the shared buffer, so its
                    // offset from the buffer base is the borrowed span.
                    let start = field.as_ptr() as usize - base;
                    spans.push((start as u32, (start + field.len()) as u32));
                }
                return Ok(());
            }
        }
        out.reset();
        for r in 0..input.rows() {
            let ColRef::Text(line) = input.row(r) else {
                return Err(DataError::mismatch("csv", "Text", input.column_type()));
            };
            match self.output {
                CsvOutput::TextField { .. } => out.push_text(self.select_field(line)?)?,
                CsvOutput::DenseFields { len } => {
                    let dst = out.push_dense_row()?;
                    let mut count = 0usize;
                    for (i, field) in line.split(self.separator as char).enumerate() {
                        if i >= len as usize {
                            break;
                        }
                        dst[i] = field.trim().parse().map_err(|e| bad_number(i, field, e))?;
                        count += 1;
                    }
                    if count < len as usize {
                        return Err(DataError::BadInput(format!(
                            "csv line has {count} fields, expected {len}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl ParamBlob for CsvParams {
    const KIND: &'static str = "CsvParse";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, self.separator as u32);
        match self.output {
            CsvOutput::TextField { index } => {
                wire::put_u32(&mut cfg, 0);
                wire::put_u32(&mut cfg, index);
            }
            CsvOutput::DenseFields { len } => {
                wire::put_u32(&mut cfg, 1);
                wire::put_u32(&mut cfg, len);
            }
        }
        vec![("config".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("config")?);
        let separator = cur.u32()? as u8;
        let tag = cur.u32()?;
        let arg = cur.u32()?;
        let output = match tag {
            0 => CsvOutput::TextField { index: arg },
            1 => CsvOutput::DenseFields { len: arg },
            t => return Err(DataError::Codec(format!("bad csv output tag {t}"))),
        };
        Ok(CsvParams::new(separator, output))
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

    #[test]
    fn select_text_field() {
        let p = CsvParams::select_text(1);
        let mut out = Vector::with_type(ColumnType::Text);
        p.apply("5,what a great product,US", &mut out).unwrap();
        assert_eq!(out.as_text().unwrap(), "what a great product");
    }

    #[test]
    fn select_missing_field_is_error() {
        let p = CsvParams::select_text(3);
        let mut out = Vector::with_type(ColumnType::Text);
        assert!(p.apply("a,b", &mut out).is_err());
    }

    #[test]
    fn field_errors_quote_a_capped_excerpt() {
        let p = CsvParams::select_text(1);
        let short = p.select_field("no separator").unwrap_err().to_string();
        assert!(short.contains("`no separator` (12 bytes)"), "{short}");
        // A multi-byte char straddling the cut is left out whole.
        let long = format!("{}é{}", "a".repeat(63), "b".repeat(1 << 20));
        let err = p.select_field(&long).unwrap_err().to_string();
        let want = format!("`{}...` ({} bytes)", "a".repeat(63), long.len());
        assert!(err.contains(&want), "{err}");
        assert!(err.len() < 2 * EXCERPT_BYTES, "{}", err.len());
        let p = CsvParams::dense(1);
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 1 });
        let err = p.apply(&long, &mut out).unwrap_err().to_string();
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn dense_fields_parse() {
        let p = CsvParams::dense(4);
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 4 });
        p.apply("1.5, -2, 0, 3e1", &mut out).unwrap();
        assert_eq!(out.as_dense().unwrap(), &[1.5, -2.0, 0.0, 30.0]);
    }

    #[test]
    fn dense_rejects_short_lines_and_garbage() {
        let p = CsvParams::dense(3);
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 3 });
        assert!(p.apply("1,2", &mut out).is_err());
        assert!(p.apply("1,x,3", &mut out).is_err());
    }

    #[test]
    fn wrong_buffer_variant_is_error() {
        let p = CsvParams::select_text(0);
        let mut out = Vector::with_type(ColumnType::F32Scalar);
        assert!(p.apply("a,b", &mut out).is_err());
    }

    #[test]
    fn round_trip_through_section() {
        for p in [CsvParams::select_text(2), CsvParams::dense(40)] {
            let entries = p.to_entries();
            let section = Section {
                name: "op0.CsvParse".into(),
                checksum: 0,
                entries,
            };
            let q = CsvParams::from_entries(&section).unwrap();
            assert_eq!(p, q);
            assert_eq!(p.checksum(), q.checksum());
        }
    }

    #[test]
    fn batch_field_selection_borrows_spans_zero_copy() {
        let p = CsvParams::select_text(1);
        let mut input = ColumnBatch::with_type(ColumnType::Text);
        input.push_text("5,what a great product,US").unwrap();
        input.push_text("1,,UK").unwrap();
        input.push_text("3,ok,DE").unwrap();
        let mut out = ColumnBatch::with_type(ColumnType::Text);
        p.eval_batch(&input, &mut out).unwrap();
        assert_eq!(out.rows(), 3);
        // Same strings the per-record path extracts…
        for (r, want) in ["what a great product", "", "ok"].iter().enumerate() {
            let mut v = Vector::with_type(ColumnType::Text);
            let ColRef::Text(line) = input.row(r) else {
                unreachable!()
            };
            p.apply(line, &mut v).unwrap();
            assert_eq!(v.as_text().unwrap(), *want);
            match out.row(r) {
                ColRef::Text(s) => assert_eq!(s, *want),
                _ => unreachable!(),
            }
        }
        // …but borrowed, not copied: the output shares the input's buffer.
        assert!(std::sync::Arc::ptr_eq(
            out.shared_text().unwrap(),
            input.shared_text().unwrap()
        ));
        // A missing field still errors like the per-record path.
        let p3 = CsvParams::select_text(3);
        let mut out2 = ColumnBatch::with_type(ColumnType::Text);
        assert!(p3.eval_batch(&input, &mut out2).is_err());
    }

    #[test]
    fn checksums_distinguish_configs() {
        assert_ne!(
            CsvParams::select_text(0).checksum(),
            CsvParams::select_text(1).checksum()
        );
    }
}
