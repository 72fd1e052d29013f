//! Shared error type for the data substrate, and its one wire codec.

use crate::serde_bin::{wire, Cursor};
use std::fmt;

/// Result alias used throughout the data substrate.
pub type Result<T> = std::result::Result<T, DataError>;

/// Every failure the runtime reports, classed by whose fault it is.
///
/// The PRETZEL runtime never panics on malformed pipelines or requests; every
/// fallible path surfaces one of these variants (paper-quality serving
/// systems degrade gracefully rather than aborting). A variant is decided
/// where the failure happens and travels to a socket client as itself
/// ([`DataError::encode`] / [`DataError::decode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A value reached an operator, batch or plan in a column type it does
    /// not take. The model author's fault when a graph is validated; the
    /// client's when a request's rows do not fit the plan's source; a
    /// compiler bug when it happens between two steps of a compiled plan.
    SchemaMismatch {
        /// Name of the operator or stage that rejected the input.
        operator: String,
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A referenced column does not exist in the schema: the model
    /// author's fault.
    UnknownColumn(String),
    /// The pipeline graph is structurally invalid (cycle, missing predictor,
    /// dangling edge...): the model author's fault.
    InvalidGraph(String),
    /// Bytes that do not parse: a truncated or corrupted model image,
    /// request or response. The fault of whoever produced the bytes.
    Codec(String),
    /// A broken invariant or local I/O; never the client's fault.
    Runtime(String),
    /// The addressed plan was undeployed: new submissions are rejected fast
    /// while any in-flight work completes on the retiring plan (model
    /// lifecycle drain protocol). The client's to handle: address a live
    /// plan or an alias.
    PlanRetired(u32),
    /// An operator panicked mid-execution: the model's fault. The panic was
    /// contained at the scheduler boundary: the faulting chunk's requests
    /// fail with this error, the executor thread and every other request
    /// keep serving.
    ExecutionFault(String),
    /// The addressed plan was quarantined by the fault policy (too many
    /// execution faults inside the sliding window): the model's fault. New
    /// submissions are rejected until an operator redeploys or rolls the
    /// alias back.
    PlanQuarantined(u32),
    /// Well-formed bytes carrying something the request may not carry: a
    /// bad record or admin kind, a bad CSV field, a non-finite value, an
    /// out-of-range sparse index, an unknown alias. The client's fault.
    BadInput(String),
    /// The addressed plan id was never deployed: the client's fault.
    UnknownPlan(u32),
}

// The hot path returns `Result<f32>`: a new variant must not widen it.
const _: () = assert!(std::mem::size_of::<DataError>() <= 72);

impl DataError {
    /// A [`Self::SchemaMismatch`] in `operator`.
    pub fn mismatch(operator: &str, expected: impl fmt::Display, found: impl fmt::Display) -> Self {
        Self::SchemaMismatch {
            operator: operator.to_string(),
            expected: expected.to_string(),
            found: found.to_string(),
        }
    }

    /// Appends the error's wire form: a one-byte code, then the variant's
    /// fields (strings length-prefixed, plan ids as `u32`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let text = |out: &mut Vec<u8>, code: u8, s: &str| {
            out.push(code);
            wire::put_str(out, s);
        };
        let id = |out: &mut Vec<u8>, code: u8, id: u32| {
            out.push(code);
            wire::put_u32(out, id);
        };
        match self {
            Self::SchemaMismatch {
                operator,
                expected,
                found,
            } => {
                out.push(0);
                for s in [operator, expected, found] {
                    wire::put_str(out, s);
                }
            }
            Self::UnknownColumn(s) => text(out, 1, s),
            Self::InvalidGraph(s) => text(out, 2, s),
            Self::Codec(s) => text(out, 3, s),
            Self::Runtime(s) => text(out, 4, s),
            Self::PlanRetired(plan) => id(out, 5, *plan),
            Self::ExecutionFault(s) => text(out, 6, s),
            Self::PlanQuarantined(plan) => id(out, 7, *plan),
            Self::BadInput(s) => text(out, 8, s),
            Self::UnknownPlan(plan) => id(out, 9, *plan),
        }
    }

    /// Reads an error [`Self::encode`] wrote. Truncated bytes or an unknown
    /// code are themselves a [`Self::Codec`] error.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<DataError> {
        Ok(match cur.u8()? {
            0 => Self::SchemaMismatch {
                operator: cur.str()?,
                expected: cur.str()?,
                found: cur.str()?,
            },
            1 => Self::UnknownColumn(cur.str()?),
            2 => Self::InvalidGraph(cur.str()?),
            3 => Self::Codec(cur.str()?),
            4 => Self::Runtime(cur.str()?),
            5 => Self::PlanRetired(cur.u32()?),
            6 => Self::ExecutionFault(cur.str()?),
            7 => Self::PlanQuarantined(cur.u32()?),
            8 => Self::BadInput(cur.str()?),
            9 => Self::UnknownPlan(cur.u32()?),
            code => return Err(Self::Codec(format!("unknown error code {code}"))),
        })
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SchemaMismatch {
                operator,
                expected,
                found,
            } => write!(
                f,
                "schema mismatch in `{operator}`: expected {expected}, found {found}"
            ),
            Self::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            Self::InvalidGraph(msg) => write!(f, "invalid pipeline graph: {msg}"),
            Self::Codec(msg) => write!(f, "codec error: {msg}"),
            Self::Runtime(msg) => write!(f, "runtime error: {msg}"),
            Self::PlanRetired(id) => write!(f, "plan {id} is retired (undeployed)"),
            Self::ExecutionFault(msg) => write!(f, "execution fault: {msg}"),
            Self::PlanQuarantined(id) => {
                write!(f, "plan {id} is quarantined (fault threshold exceeded)")
            }
            Self::BadInput(msg) => write!(f, "bad input: {msg}"),
            Self::UnknownPlan(id) => write!(f, "unknown plan id {id}"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let err = DataError::SchemaMismatch {
            operator: "WordNgram".into(),
            expected: "TokenList".into(),
            found: "Text".into(),
        };
        assert_eq!(
            err.to_string(),
            "schema mismatch in `WordNgram`: expected TokenList, found Text"
        );
        assert_eq!(
            DataError::UnknownColumn("Text".into()).to_string(),
            "unknown column `Text`"
        );
        assert!(DataError::InvalidGraph("no predictor".into())
            .to_string()
            .contains("no predictor"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }

    /// One instance of every variant. The match has no wildcard: a new
    /// variant does not compile until it is listed here, and so until the
    /// round trip below covers its code.
    fn every_variant() -> Vec<DataError> {
        use DataError::*;
        let all = vec![
            DataError::mismatch("kmeans", "F32Dense[8]", "Text"),
            UnknownColumn("Label".into()),
            InvalidGraph("no predictor".into()),
            Codec("truncated input".into()),
            Runtime(String::new()),
            PlanRetired(3),
            ExecutionFault("fault-op: ünïcode".into()),
            PlanQuarantined(u32::MAX),
            BadInput("bad numeric field 2 `x`".into()),
            UnknownPlan(99),
        ];
        for e in &all {
            match e {
                SchemaMismatch { .. }
                | UnknownColumn(_)
                | InvalidGraph(_)
                | Codec(_)
                | Runtime(_)
                | PlanRetired(_)
                | ExecutionFault(_)
                | PlanQuarantined(_)
                | BadInput(_)
                | UnknownPlan(_) => {}
            }
        }
        all
    }

    #[test]
    fn every_variant_round_trips_with_its_own_code() {
        let mut codes = Vec::new();
        for e in every_variant() {
            let mut body = Vec::new();
            e.encode(&mut body);
            let mut cur = Cursor::new(&body);
            assert_eq!(DataError::decode(&mut cur).unwrap(), e);
            assert_eq!(cur.remaining(), 0, "{e:?} left bytes behind");
            codes.push(body[0]);
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(
            codes.len(),
            every_variant().len(),
            "two variants share a code"
        );
    }

    #[test]
    fn truncated_bodies_and_unknown_codes_are_codec_errors() {
        for e in every_variant() {
            let mut body = Vec::new();
            e.encode(&mut body);
            for cut in 0..body.len() {
                let got = DataError::decode(&mut Cursor::new(&body[..cut]));
                assert!(
                    matches!(got, Err(DataError::Codec(_))),
                    "{e:?} cut at {cut}: {got:?}"
                );
            }
        }
        for code in 10..=u8::MAX {
            let got = DataError::decode(&mut Cursor::new(&[code, 0, 0, 0, 0]));
            assert!(matches!(got, Err(DataError::Codec(m)) if m.contains("error code")));
        }
    }
}
