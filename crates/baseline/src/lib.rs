//! Black-box prediction-serving comparators.
//!
//! The paper evaluates PRETZEL against two configurations (paper §5):
//!
//! * **ML.Net** — one process hosting all models, each deployed as an
//!   opaque pipeline executed operator-at-a-time with lazy initialization,
//!   reflection-based schema binding and JIT compilation at first
//!   prediction. Reproduced by [`blackbox::BlackBoxModel`] on top of the
//!   [`volcano`] execution model.
//! * **ML.Net + Clipper** — one Docker container per model behind an RPC
//!   front end. Reproduced by [`container::Container`] (per-model process
//!   state + loopback-TCP RPC) and [`clipper::ClipperFrontEnd`].
//!
//! Both comparators run the *same operator kernels* as PRETZEL
//! ([`pretzel-ops`]), load the *same model files*, and differ exactly where
//! the paper says black-box serving differs: per-pipeline parameter copies,
//! allocation on the data path, cold-start initialization work, and
//! container/RPC overheads.
//!
//! [`pretzel-ops`]: ../pretzel_ops/index.html

#![forbid(unsafe_code)]

pub mod blackbox;
pub mod clipper;
pub mod container;
pub mod volcano;

pub use blackbox::BlackBoxModel;
pub use clipper::ClipperFrontEnd;
pub use container::Container;
