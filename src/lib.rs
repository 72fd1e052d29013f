//! Workspace façade crate.
//!
//! Re-exports the PRETZEL reproduction crates under one roof so the
//! repo-level integration tests (`tests/`) and examples (`examples/`) have a
//! single package to hang off. Library code lives in `crates/*`; this crate
//! adds nothing of its own.

#![forbid(unsafe_code)]

pub use pretzel_baseline as baseline;
pub use pretzel_core as core;
pub use pretzel_data as data;
pub use pretzel_ops as ops;
pub use pretzel_workload as workload;
