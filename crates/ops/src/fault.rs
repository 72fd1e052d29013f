//! Deliberately-faulting synthetic operator (feature `fault-op`).
//!
//! [`FaultParams`] is a Text→Text identity op that **panics** whenever the
//! input record contains a configured marker substring. It exists solely to
//! exercise the serving runtime's fault-containment boundary: the adversarial
//! workload salts a fraction of requests with the marker, and the ablation
//! harness asserts that those requests fail cleanly (and eventually quarantine
//! their plan) while every other request and plan keeps serving.
//!
//! The op is compiled out of release builds of the library unless the
//! `fault-op` feature is on; it is deliberately **excluded from
//! [`crate::OpKind::ALL`]** so registry-style iteration (tests, tools, the
//! synthetic model generator) never trips over it.

use crate::annotations::Annotations;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::serde_bin::{Cursor, Section};
use pretzel_data::{ColRef, ColumnBatch, DataError, Result, Vector};

/// Fault-injector parameters: the marker substring that triggers a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParams {
    /// Records containing this substring panic the executing kernel.
    pub marker: Box<str>,
    memo: ChecksumMemo,
}

impl FaultParams {
    /// Creates a fault injector tripping on `marker`.
    pub fn new(marker: impl Into<Box<str>>) -> Self {
        FaultParams {
            marker: marker.into(),
            memo: ChecksumMemo::default(),
        }
    }

    /// Identity-featurizer annotations: fusible and memory-bound, so stage
    /// formation treats the injector exactly like a real text featurizer.
    pub fn annotations(&self) -> Annotations {
        Annotations::featurizer()
    }

    fn trip(&self, text: &str) {
        if !self.marker.is_empty() && text.contains(&*self.marker) {
            panic!("fault-op: marker `{}` in record", self.marker);
        }
    }

    /// Per-record kernel: panics on the marker, otherwise copies the text
    /// through unchanged.
    pub fn apply(&self, text: &str, out: &mut Vector) -> Result<()> {
        self.trip(text);
        match out {
            Vector::Text(s) => {
                s.clear();
                s.push_str(text);
                Ok(())
            }
            other => Err(DataError::mismatch(
                "fault op",
                "Text output",
                other.column_type(),
            )),
        }
    }

    /// Batch kernel: identical semantics row by row — the panic fires on
    /// the first marked row, mid-batch, which is exactly the ugly case the
    /// containment boundary has to survive.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        if !matches!(
            input,
            ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. }
        ) {
            return Err(DataError::mismatch("fault op", "Text", input.column_type()));
        }
        out.reset();
        for r in 0..input.rows() {
            let ColRef::Text(text) = input.row(r) else {
                unreachable!("text batch rows are text");
            };
            self.trip(text);
            out.push_text(text)?;
        }
        Ok(())
    }
}

impl ParamBlob for FaultParams {
    const KIND: &'static str = "FaultInjector";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        pretzel_data::serde_bin::wire::put_str(&mut cfg, &self.marker);
        vec![("marker".into(), cfg)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let blob = section.entry("marker")?;
        let marker = Cursor::new(blob).str()?;
        Ok(FaultParams::new(marker))
    }

    fn heap_bytes(&self) -> usize {
        self.marker.len()
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
    fn passes_clean_text_through() {
        let p = FaultParams::new("☢");
        let mut out = Vector::with_type(ColumnType::Text);
        p.apply("a nice product", &mut out).unwrap();
        assert_eq!(out.as_text(), Some("a nice product"));
    }

    #[test]
    fn panics_on_marker() {
        let p = FaultParams::new("☢");
        let mut out = Vector::with_type(ColumnType::Text);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.apply("bad ☢ record", &mut out)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn batch_panics_mid_batch_on_first_marked_row() {
        let p = FaultParams::new("☢");
        let mut input = ColumnBatch::with_type(ColumnType::Text);
        input.push_text("fine").unwrap();
        input.push_text("also fine").unwrap();
        input.push_text("☢ boom").unwrap();
        let mut out = ColumnBatch::with_type(ColumnType::Text);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.eval_batch(&input, &mut out)
        }));
        assert!(r.is_err());
        assert_eq!(out.rows(), 2, "rows before the marker were copied");
    }

    #[test]
    fn empty_marker_never_trips() {
        let p = FaultParams::new("");
        let mut out = Vector::with_type(ColumnType::Text);
        p.apply("anything", &mut out).unwrap();
    }

    #[test]
    fn round_trip_through_section() {
        let p = FaultParams::new("☢FAULT☢");
        let section = Section {
            name: "op0.FaultInjector".into(),
            checksum: 0,
            entries: p.to_entries(),
        };
        let q = FaultParams::from_entries(&section).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.checksum(), q.checksum());
    }
}
