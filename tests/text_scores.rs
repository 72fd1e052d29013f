//! The text workloads' scores, pinned: every SA plan and every churn model
//! at the serving benchmark's scale, scored over review lines through the
//! row engine (`Runtime::predict_source`) and the batch engine
//! (`ModelPlan::execute_batch`).
//!
//! The benchmark checks the server against an in-process oracle that runs
//! the same n-gram kernels, so a kernel that streams a wrong hit sequence
//! passes it. These checksums were taken before the character kernel read
//! its dictionary through a window table; any change to which dictionary
//! indices fire, or in which order, moves them.

use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::physical::{ExecCtx, SourceRef};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_data::hash::Fnv1a;
use pretzel_data::pool::VectorPool;
use pretzel_data::ColumnBatch;
use pretzel_workload::churn::{self, ChurnConfig};
use pretzel_workload::sa::{self, SaConfig};
use pretzel_workload::text::ReviewGen;
use std::sync::Arc;

/// FNV-1a over every score's bits, per plan the row engine's then the
/// batch engine's, of the 250 SA plans on [`LINES`] review lines.
const SA_SCORES_CHECKSUM: u64 = 0x7565_9d35_6c50_0861;

/// The same over the 128 churn models (32 slots × 4 versions).
const CHURN_SCORES_CHECKSUM: u64 = 0x7446_517a_4fb9_77cd;

/// Review lines scored by every plan.
const LINES: usize = 12;

/// The SA models of the benchmark's `sa_*` workloads.
fn sa_config() -> SaConfig {
    SaConfig {
        n_pipelines: 250,
        char_entries: 5_000,
        word_entries_small: 50,
        word_entries_large: 1_250,
        vocab_size: 2_000,
        seed: 0xfeed,
    }
}

/// The churn models of the benchmark's `churn_mixed` workload.
fn churn_config() -> ChurnConfig {
    ChurnConfig {
        n_slots: 32,
        n_versions: 4,
        char_entries: 20_000,
        word_entries: 5_000,
        vocab_size: 8_000,
        seed: 0xfeed,
        ..ChurnConfig::default()
    }
}

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    })
}

/// Adds the scores of plan `id` on `lines` to `sum`: row engine first,
/// then the batch engine over all the lines as one chunk.
fn score_plan(rt: &Runtime, id: PlanId, lines: &[String], sum: &mut Fnv1a) {
    let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
    for &source in &sources {
        let score = rt.predict_source(id, source).unwrap();
        sum.write(&score.to_bits().to_le_bytes());
    }
    let plan = rt.plan(id).unwrap();
    let mut slots: Vec<ColumnBatch> = plan
        .batch_slot_types()
        .into_iter()
        .map(ColumnBatch::with_type)
        .collect();
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
    let mut out = vec![0f32; lines.len()];
    plan.execute_batch(&sources, &mut slots, &mut ctx, &mut out)
        .unwrap();
    for score in &out {
        sum.write(&score.to_bits().to_le_bytes());
    }
}

#[test]
fn sa_workload_scores_are_pinned() {
    let config = sa_config();
    let workload = sa::build(&config);
    let lines = ReviewGen::new(config.seed, config.vocab_size, 1.2).csv_lines(LINES);
    let rt = runtime();
    let mut sum = Fnv1a::new();
    for graph in &workload.graphs {
        let id = rt
            .register(pretzel_core::oven::optimize(graph).unwrap().plan)
            .unwrap();
        score_plan(&rt, id, &lines, &mut sum);
    }
    let sum = sum.finish();
    assert_eq!(sum, SA_SCORES_CHECKSUM, "SA scores moved: {sum:#x}");
}

#[test]
fn churn_workload_scores_are_pinned() {
    let config = churn_config();
    let workload = churn::build(&config);
    let lines = ReviewGen::new(config.seed, config.vocab_size, 1.2).csv_lines(LINES);
    let rt = runtime();
    let mut sum = Fnv1a::new();
    for image in workload.images.iter().flatten() {
        let id = rt.deploy(image, DeployOptions::default()).unwrap();
        score_plan(&rt, id, &lines, &mut sum);
    }
    let sum = sum.finish();
    assert_eq!(sum, CHURN_SCORES_CHECKSUM, "churn scores moved: {sum:#x}");
}
