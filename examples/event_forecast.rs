//! Event-attendance forecasting: the paper's Attendee Count scenario —
//! a structured-data regression pipeline with an ensemble DAG (PCA ∥
//! KMeans ∥ TreeFeaturizer ∥ multiclass trees → final forest), served in
//! batch through the stage scheduler.
//!
//! ```sh
//! cargo run -p pretzel-bench --release --example event_forecast
//! ```

use pretzel_core::flour::FlourContext;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_ops::synth;
use pretzel_ops::tree::EnsembleMode;
use pretzel_workload::text::StructuredGen;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dim = 40; // paper Table 1: 40-dimensional structured input
    let seed = 2024;

    // Author the "most complex version" of the AC pipeline (paper §5).
    let ctx = FlourContext::new();
    let features = ctx
        .dense_source(dim)
        .impute(Arc::new(synth::imputer(seed ^ 1, dim)))
        .scale(Arc::new(synth::scaler(seed ^ 2, dim)));
    let pca = features.pca(Arc::new(synth::pca(seed ^ 3, 8, dim)));
    let clusters = features.kmeans(Arc::new(synth::kmeans(seed ^ 4, 6, dim)));
    let leaves = features.tree_featurize(Arc::new(synth::ensemble(
        seed ^ 5,
        dim,
        12,
        5,
        EnsembleMode::Sum,
    )));
    let classes = features.multiclass_tree(Arc::new(synth::multiclass(seed ^ 6, dim, 4, 2, 4)));
    let merged = pca.concat_many(&[&clusters, &leaves, &classes]);
    let final_dim = merged.output_type().dimension().unwrap();
    let program = merged.regressor_tree(Arc::new(synth::ensemble(
        seed ^ 7,
        final_dim,
        16,
        5,
        EnsembleMode::Average,
    )));

    let optimized = program.plan_traced().expect("valid AC pipeline");
    println!(
        "AC pipeline: {} operators -> {} stages (tree models are \
         compute-bound, so each gets its own stage; the Concat folds into \
         the final forest, which reads its branches by index)",
        program.graph().nodes.len(),
        optimized.plan.stages.len()
    );

    let runtime = Runtime::new(RuntimeConfig {
        chunk_size: 32,
        ..RuntimeConfig::default()
    });
    let id = runtime.register(optimized.plan).unwrap();

    // Forecast attendance for a day of events, in batch.
    let mut gen = StructuredGen::new(9, dim);
    let events: Vec<Record> = (0..5000).map(|_| Record::Dense(gen.record())).collect();
    let start = Instant::now();
    let scores = runtime.predict_batch_wait(id, events).unwrap();
    let elapsed = start.elapsed();
    let mean = scores.iter().sum::<f32>() / scores.len() as f32;
    let busiest = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    println!(
        "scored {} events in {elapsed:?} ({:.0} events/s)",
        scores.len(),
        scores.len() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "mean forecast {mean:.3}; busiest event #{} at {:.3}",
        busiest.0, busiest.1
    );
    println!(
        "scheduler executed {} stage events",
        runtime
            .scheduler_stats()
            .stage_events
            .load(std::sync::atomic::Ordering::Relaxed)
    );
}
