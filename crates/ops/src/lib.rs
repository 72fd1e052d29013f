//! Operator library for the PRETZEL reproduction.
//!
//! ML.Net pipelines are DAGs of *operators*: "data transformations and
//! featurizers (e.g., string tokenization, hashing, etc.), and ML models
//! (e.g., decision trees, linear models, SVMs, etc.)" (paper §1). PRETZEL's
//! evaluation build "supports about two dozen ML.Net operators, among which
//! linear models, tree-based models, clustering models (e.g., K-Means), PCA,
//! and several featurizers" (paper §5). This crate implements that operator
//! set from scratch.
//!
//! Every operator is split into:
//!
//! * **parameters** — an immutable, `Arc`-shared, checksummed object that can
//!   be serialized into a model-file section ([`pretzel_data::serde_bin`]).
//!   Parameter identity-by-checksum is what the Object Store dedups
//!   (paper §4.1.3).
//! * **kernel** — a pure function from input [`Vector`]s to an output
//!   [`Vector`], written so dense hot loops auto-vectorize (paper §2's
//!   "vectorize compute intensive operators").
//! * **annotations** — static operator properties ("1-to-1, 1-to-n,
//!   memory-bound, compute-bound, commutative and associative", paper
//!   §4.1.2) consumed by the Oven optimizer's rules.
//!
//! Both the white-box PRETZEL runtime and the black-box baseline execute the
//! *same kernels*; the systems differ only in how they organize parameters,
//! memory and scheduling — exactly the comparison the paper makes.
//!
//! [`Vector`]: pretzel_data::Vector

#![forbid(unsafe_code)]

pub mod annotations;
pub mod bayes;
#[cfg(feature = "fault-op")]
pub mod fault;
pub mod feat;
pub mod kmeans;
pub mod linear;
pub mod op;
pub mod params;
pub mod pca;
pub mod synth;
pub mod text;
pub mod tree;

pub use annotations::{Annotations, Arity, Bound};
pub use op::{Op, OpKind};
