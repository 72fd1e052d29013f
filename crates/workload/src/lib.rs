//! Workload generators for the PRETZEL reproduction.
//!
//! The paper evaluates on "500 different production-like pipelines used
//! internally at Microsoft" (paper §1): 250 Sentiment Analysis (SA)
//! variants of the Figure 1 pipeline and 250 Attendee Count (AC)
//! regression pipelines (paper Table 1). Those models are proprietary;
//! this crate synthesizes stand-ins that preserve what the experiments
//! measure:
//!
//! * [`sa`] — 250 SA pipelines whose operator-sharing histogram mirrors
//!   Figure 3 (one Tokenizer/Concat configuration shared by all, 6
//!   CharNgram and 7 WordNgram trained versions with skewed popularity,
//!   a unique linear model per pipeline).
//! * [`ac`] — 250 AC pipelines with diverse ensemble DAGs (PCA ∥ KMeans ∥
//!   TreeFeaturizer ∥ multiclass trees → final tree/forest) and essentially
//!   no cross-pipeline sharing.
//! * [`text`] — a synthetic review-corpus generator (the Amazon Review
//!   substitute) whose vocabulary matches the SA dictionaries, so
//!   featurizer hit rates are realistic.
//! * [`load`] — Zipf popularity sampling (the paper's heavy-load skew,
//!   α = 2) and latency recording (percentiles / CDFs).
//! * [`churn`] — Zipf-driven deploy/score/undeploy model-churn cycles over
//!   stable aliases (the model-lifecycle workload).

#![forbid(unsafe_code)]

//! * [`adversarial`] — hostile payloads (non-finite floats, malformed CSR
//!   rows) and fault-salted text streams driving the fault-containment
//!   ablation.

pub mod ac;
pub mod adversarial;
pub mod churn;
pub mod load;
pub mod sa;
pub mod text;
