//! Criterion benchmarks of end-to-end plan execution: fused vs unfused
//! physical stages, PRETZEL request-response vs the black-box baseline —
//! the mechanism behind Figure 9's hot-latency gap.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pretzel_baseline::BlackBoxModel;
use pretzel_core::flour::FlourContext;
use pretzel_core::object_store::ObjectStore;
use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan, SourceRef};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::pool::VectorPool;
use pretzel_data::Vector;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_workload::text::ReviewGen;
use std::sync::Arc;

fn sa_graph(char_dim: usize, word_dim: usize) -> pretzel_core::graph::TransformGraph {
    let vocab = synth::vocabulary(0, 2000);
    let ctx = FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, char_dim)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, word_dim, &vocab)));
    c.concat(&w)
        .classifier_linear(Arc::new(synth::linear(
            3,
            char_dim + word_dim,
            LinearKind::Logistic,
        )))
        .graph()
}

fn bench_plan_execution(c: &mut Criterion) {
    let graph = sa_graph(5000, 2000);
    let mut reviews = ReviewGen::new(2, 2000, 1.2);
    let line = format!("4,{}", reviews.review(20, 20));
    let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let store = ObjectStore::new();
    let fused = ModelPlan::compile(
        logical.clone(),
        &CompileOptions {
            fuse_ngram_dot: true,
        },
        &store,
    )
    .unwrap();
    let unfused = ModelPlan::compile(
        logical,
        &CompileOptions {
            fuse_ngram_dot: false,
        },
        &store,
    )
    .unwrap();

    let pool = Arc::new(VectorPool::arena());
    let mut ctx = ExecCtx::new(Arc::clone(&pool));
    let mut slots: Vec<Vector> = fused
        .slot_types()
        .iter()
        .map(|&t| Vector::with_type(t))
        .collect();

    let mut group = c.benchmark_group("sa_plan");
    group.bench_function("pretzel_fused", |b| {
        b.iter(|| {
            fused
                .execute(SourceRef::Text(black_box(&line)), &mut slots, &mut ctx)
                .unwrap()
        });
    });
    let mut slots2: Vec<Vector> = unfused
        .slot_types()
        .iter()
        .map(|&t| Vector::with_type(t))
        .collect();
    group.bench_function("pretzel_unfused", |b| {
        b.iter(|| {
            unfused
                .execute(SourceRef::Text(black_box(&line)), &mut slots2, &mut ctx)
                .unwrap()
        });
    });

    let image = Arc::new(graph.to_model_image());
    let mut blackbox = BlackBoxModel::from_image(image);
    blackbox.warm_up().unwrap();
    group.bench_function("blackbox_hot", |b| {
        b.iter(|| blackbox.predict(SourceRef::Text(black_box(&line))).unwrap());
    });
    group.finish();
}

fn bench_request_response(c: &mut Criterion) {
    let graph = sa_graph(2000, 1000);
    let mut reviews = ReviewGen::new(4, 2000, 1.2);
    let line = format!("4,{}", reviews.review(20, 20));
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let id = runtime.register(plan).unwrap();
    let _ = runtime.predict(id, &line).unwrap();

    c.bench_function("runtime_request_response", |b| {
        b.iter(|| runtime.predict(id, black_box(&line)).unwrap());
    });
}

criterion_group!(benches, bench_plan_execution, bench_request_response);
criterion_main!(benches);
