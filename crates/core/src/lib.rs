//! PRETZEL: a white-box prediction serving system (OSDI '18 reproduction).
//!
//! PRETZEL "casts prediction serving as a database problem": trained
//! pipelines are translated into an intermediate representation, optimized
//! by a rule-based query optimizer, compiled into shareable *model plans*,
//! and served by a runtime that pools memory and CPU across all deployed
//! pipelines. The crate follows the paper's two-phase architecture:
//!
//! **Off-line phase** (paper §4.1):
//! * [`flour`] — the language-integrated API for expressing pipelines
//!   (`FlourContext` → transformations → [`flour::Flour::plan`]).
//! * [`oven`] — the optimizer/compiler: four rewriting steps run to
//!   fix-point, turning a transformation DAG into a DAG of *stages*.
//! * [`object_store`] — checksum-keyed parameter dedup plus the sub-plan
//!   materialization cache.
//! * [`plan`] — logical and physical stage representations; the
//!   [`physical::ModelPlan`] is what gets registered for serving.
//!
//! **On-line phase** (paper §4.2):
//! * [`runtime`] — plan registration (physical stages interned in a
//!   catalog), the request-response engine and the batch engine.
//! * [`lifecycle`] — the model lifecycle control plane: per-plan admission
//!   gates with drain-on-undeploy, alias swaps, churn counters; composed
//!   by the runtime's `deploy`/`undeploy`/`swap`/`list`.
//! * [`scheduler`] — executors pulling stage events from a shared pair of
//!   priority queues; reservation-based scheduling.
//! * [`frontend`] — TCP front end with prediction caching and delayed
//!   batching (the "external optimizations" of §4.3).
//! * [`clock`] — the runtime's one source of time, real or manual.
//!
//! # Quickstart
//!
//! ```
//! use pretzel_core::flour::FlourContext;
//! use pretzel_core::runtime::{Runtime, RuntimeConfig};
//! use pretzel_ops::linear::LinearKind;
//! use pretzel_ops::synth;
//! use std::sync::Arc;
//!
//! // Author a pipeline in Flour (normally extracted from a trained model).
//! let ctx = FlourContext::new();
//! let tokens = ctx.csv(',').select_text(0).tokenize();
//! let feats = tokens.word_ngram(Arc::new(synth::word_ngram(
//!     1, 2, 64, &synth::vocabulary(0, 64),
//! )));
//! let program = feats.classifier_linear(Arc::new(synth::linear(
//!     7, 64, LinearKind::Logistic,
//! )));
//!
//! // Compile (Oven) and register with the runtime.
//! let runtime = Runtime::new(RuntimeConfig::default());
//! let plan = program.plan().expect("optimizes");
//! let id = runtime.register(plan).expect("registers");
//!
//! // Serve.
//! let score = runtime.predict(id, "5,a nice product").expect("scores");
//! assert!((0.0..=1.0).contains(&score));
//! ```

#![deny(unsafe_code)]

pub mod clock;
pub mod flour;
pub mod frontend;
pub mod graph;
pub mod lifecycle;
pub mod log;
pub mod lru;
pub mod object_store;
pub mod oven;
pub mod physical;
pub mod plan;
pub mod runtime;
pub mod scheduler;
pub mod telemetry;
pub mod train_stats;

pub use flour::FlourContext;
pub use lifecycle::{DeployOptions, PlanInfo, UndeployReport};
pub use object_store::ObjectStore;
pub use physical::ModelPlan;
pub use runtime::{Runtime, RuntimeConfig};
