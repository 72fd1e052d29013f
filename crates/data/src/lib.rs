//! Data substrate for the PRETZEL reproduction.
//!
//! This crate provides the building blocks that both the white-box PRETZEL
//! runtime ([`pretzel-core`]) and the black-box baseline
//! ([`pretzel-baseline`]) are built on:
//!
//! * [`schema`] — column types and schemas flowing through pipeline DAGs,
//!   with propagation/validation helpers used by the Oven optimizer.
//! * [`vector`] — the [`vector::Vector`] value type exchanged between
//!   operators (dense/sparse float vectors, text, token spans).
//! * [`batch`] — [`batch::ColumnBatch`], the columnar chunk representation
//!   the batch engine executes over (dense row-major matrices, CSR sparse
//!   batches, packed text/token rows).
//! * [`ingest`] — [`ingest::BatchAssembler`], wire-to-columnar ingest:
//!   request decoding grows packed text, dense rows, or CSR triples
//!   straight into a pool-leased batch, with per-row content hashes.
//! * [`pool`] — pre-allocated, size-classed vector *and batch* pools used
//!   by PRETZEL to avoid allocation on the prediction path (paper §4.2.1):
//!   per-class LIFO free lists behind one mutex per pool.
//! * [`serde_bin`] — the hand-rolled, length-prefixed binary model-file
//!   format both engines load models from (the ML.Net "zip of directories"
//!   analogue), plus checksumming used by the Object Store for parameter
//!   dedup (paper §4.1.3).
//! * [`alloc_meter`] — a counting global allocator so experiments can report
//!   live heap bytes per configuration (paper §5.1).
//! * [`hash`] — small non-cryptographic hash utilities (feature hashing,
//!   parameter checksums, input hashing for the result cache).
//! * [`probe`] — [`probe::FlatProbeTable`], the bit-filtered
//!   one-line-per-probe open-addressing table behind the n-gram
//!   dictionary's matching path, with a branch-free bulk probe and a
//!   16-wide SIMD tag-group scan for long chains.
//! * [`simd`] — the explicit SIMD kernels of the dense data plane: 8-lane
//!   f32 dots/distances/affine maps with runtime AVX2 dispatch and a
//!   bitwise-identical lane-structured scalar fallback, behind the
//!   process-wide SIMD knob.
//! * [`calibrate`] — one-shot startup measurement (pointer-chase timing)
//!   of the cache threshold above which `FlatProbeTable`'s bulk probe
//!   prefetches.
//!
//! [`pretzel-core`]: ../pretzel_core/index.html
//! [`pretzel-baseline`]: ../pretzel_baseline/index.html

#![deny(unsafe_code)]

#[allow(unsafe_code)] // a counting global allocator
pub mod alloc_meter;
pub mod batch;
pub mod calibrate;
pub mod error;
pub mod hash;
pub mod ingest;
pub mod pool;
#[allow(unsafe_code)] // SSE2 probe chains and prefetch hints
pub mod probe;
pub mod schema;
pub mod serde_bin;
#[allow(unsafe_code)] // x86-64 SIMD intrinsics
pub mod simd;
#[cfg(test)]
#[path = "pool_slots.rs"]
mod slot_alloc;
pub mod vector;

pub use batch::{ColRef, ColumnBatch};
pub use error::{DataError, Result};
pub use ingest::BatchAssembler;
pub use schema::{ColumnType, Schema};
pub use vector::Vector;
