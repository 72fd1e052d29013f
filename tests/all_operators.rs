//! End-to-end coverage of every operator kind: each operator appears in at
//! least one full pipeline that is authored in Flour, exported to a model
//! file, reloaded, optimized, compiled, and scored identically by the
//! white-box runtime and the black-box baseline.

use pretzel_baseline::{volcano, BlackBoxModel};
use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::graph::TransformGraph;
use pretzel_core::physical::{ExecCtx, SourceRef};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_data::pool::VectorPool;
use pretzel_data::Vector;
use pretzel_ops::feat::normalizer::{NormKind, NormalizerParams};
use pretzel_ops::feat::onehot::OneHotParams;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_ops::text::hashing::HashingParams;
use pretzel_ops::tree::EnsembleMode;
use pretzel_ops::{Op, OpKind};
use std::collections::HashSet;
use std::sync::Arc;

const TOL: f32 = 1e-4;

/// A text pipeline exercising CsvParse, Tokenizer, CharNgram, WordNgram,
/// HashingVectorizer, Concat, Normalizer and every linear-model kind.
fn text_kitchen_sink(kind: LinearKind, seed: u64) -> TransformGraph {
    let vocab = synth::vocabulary(seed, 128);
    let ctx = FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(seed ^ 1, 3, 96)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(seed ^ 2, 2, 64, &vocab)));
    let h = tokens.hashing(Arc::new(HashingParams::new(4, 32, true)));
    let merged = c.concat_many(&[&w, &h]);
    let dim = merged.output_type().dimension().unwrap();
    let normalized = merged.normalize(Arc::new(NormalizerParams::new(NormKind::L2, dim as u32)));
    normalized
        .classifier_linear(Arc::new(synth::linear(seed ^ 3, dim, kind)))
        .graph()
}

/// A dense pipeline exercising Imputer, Scaler, Binner, OneHot, Pca,
/// KMeans, TreeFeaturizer, MulticlassTree, NaiveBayes, Concat and a final
/// TreeEnsemble.
fn dense_kitchen_sink(seed: u64) -> TransformGraph {
    let dim = 10;
    let ctx = FlourContext::new();
    let base = ctx
        .dense_source(dim)
        .impute(Arc::new(synth::imputer(seed ^ 1, dim)))
        .scale(Arc::new(synth::scaler(seed ^ 2, dim)));
    let binned = base.bin(Arc::new(synth::binner(seed ^ 3, dim, 4)));
    // Binned values are small integers: one-hot a couple of them.
    let onehot = binned.one_hot(Arc::new(OneHotParams::new(
        dim as u32,
        vec![(0, 4), (3, 4)],
    )));
    let pca = base.pca(Arc::new(synth::pca(seed ^ 4, 4, dim)));
    let km = base.kmeans(Arc::new(synth::kmeans(seed ^ 5, 3, dim)));
    let tf = base.tree_featurize(Arc::new(synth::ensemble(
        seed ^ 6,
        dim,
        3,
        3,
        EnsembleMode::Sum,
    )));
    let mc = base.multiclass_tree(Arc::new(synth::multiclass(seed ^ 7, dim, 3, 2, 3)));
    let nb_dim = onehot.output_type().dimension().unwrap();
    let nb = onehot.naive_bayes(Arc::new(synth::naive_bayes(seed ^ 8, 3, nb_dim)));
    let merged: Flour = pca.concat_many(&[&km, &tf, &mc, &nb]);
    let final_dim = merged.output_type().dimension().unwrap();
    merged
        .regressor_tree(Arc::new(synth::ensemble(
            seed ^ 9,
            final_dim,
            4,
            4,
            EnsembleMode::Average,
        )))
        .graph()
}

fn kinds_of(graph: &TransformGraph) -> HashSet<OpKind> {
    graph.nodes.iter().map(|n| n.op.kind()).collect()
}

#[test]
fn kitchen_sinks_cover_every_operator_kind() {
    let mut covered = HashSet::new();
    covered.extend(kinds_of(&text_kitchen_sink(LinearKind::Logistic, 1)));
    covered.extend(kinds_of(&dense_kitchen_sink(2)));
    // Linear covers SVM/regression/Poisson variants via the kind parameter,
    // exercised in `text_pipelines_agree_for_every_linear_kind`.
    for kind in OpKind::ALL {
        assert!(covered.contains(&kind), "operator {kind:?} not covered");
    }
}

fn check_graph(graph: &TransformGraph, lines: &[String], label: &str) {
    let image = Arc::new(graph.to_model_image());
    let reloaded = TransformGraph::from_model_image(&image).unwrap();
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let plan = pretzel_core::oven::optimize(&reloaded).unwrap().plan;
    let id = runtime.register(plan).unwrap();
    let mut blackbox = BlackBoxModel::from_image(image);
    for line in lines {
        let src = SourceRef::Text(line);
        let reference = volcano::execute(graph, src).unwrap();
        let bb = blackbox.predict(src).unwrap();
        let wb = runtime.predict(id, line).unwrap();
        assert!(reference.is_finite(), "[{label}] non-finite reference");
        assert!(
            (bb - reference).abs() < TOL,
            "[{label}] blackbox {bb} vs {reference} on `{line}`"
        );
        assert!(
            (wb - reference).abs() < TOL,
            "[{label}] pretzel {wb} vs {reference} on `{line}`"
        );
    }
}

#[test]
fn text_pipelines_agree_for_every_linear_kind() {
    let mut gen = pretzel_workload::text::ReviewGen::new(4, 128, 1.2);
    let lines: Vec<String> = (0..6).map(|_| format!("2,{}", gen.review(5, 25))).collect();
    for (i, kind) in [
        LinearKind::Logistic,
        LinearKind::Regression,
        LinearKind::Poisson,
        LinearKind::SvmMargin,
    ]
    .into_iter()
    .enumerate()
    {
        let graph = text_kitchen_sink(kind, 10 + i as u64);
        check_graph(&graph, &lines, &format!("text/{kind:?}"));
    }
}

#[test]
fn dense_kitchen_sink_agrees_across_engines() {
    // The dense pipeline starts from a raw dense source; feed it via the
    // runtime's dense API and volcano directly.
    let graph = dense_kitchen_sink(20);
    let image = Arc::new(graph.to_model_image());
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let id = runtime.register(plan).unwrap();
    let mut blackbox = BlackBoxModel::from_image(image);
    let mut gen = pretzel_workload::text::StructuredGen::new(5, 10);
    for _ in 0..8 {
        let record = gen.record();
        let src = SourceRef::Dense(&record);
        let reference = volcano::execute(&graph, src).unwrap();
        let bb = blackbox.predict(src).unwrap();
        let wb = runtime.predict_dense(id, &record).unwrap();
        assert!((bb - reference).abs() < TOL, "blackbox {bb} vs {reference}");
        assert!((wb - reference).abs() < TOL, "pretzel {wb} vs {reference}");
    }
}

/// Every row path of the runtime scores the kitchen sinks bitwise alike:
/// the classic `execute` (source copied into slot 0), `execute_borrowed`
/// on a reused context, the request-response session's frame, and the
/// row's place in a batch.
#[test]
fn kitchen_sinks_score_bitwise_alike_on_every_row_path() {
    let mut gen = pretzel_workload::text::ReviewGen::new(6, 128, 1.2);
    let lines = (0..6).map(|_| Record::Text(format!("2,{}", gen.review(5, 25))));
    let mut gen = pretzel_workload::text::StructuredGen::new(7, 10);
    let rows = (0..6).map(|_| Record::Dense(gen.record()));
    for (graph, records) in [
        (text_kitchen_sink(LinearKind::Logistic, 60), lines.collect()),
        (dense_kitchen_sink(61), rows.collect::<Vec<_>>()),
    ] {
        let runtime = Runtime::new(RuntimeConfig {
            n_executors: 1,
            ..RuntimeConfig::default()
        });
        let id = runtime
            .register(pretzel_core::oven::optimize(&graph).unwrap().plan)
            .unwrap();
        let plan = runtime.plan(id).unwrap();
        let slots = || -> Vec<Vector> {
            let types = plan.slot_types().into_iter();
            types.map(Vector::with_type).collect()
        };
        let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
        let mut reused = slots();
        let batch = runtime.predict_batch_wait(id, records.clone()).unwrap();
        for (r, record) in records.iter().enumerate() {
            let source = record.as_source();
            let mut fresh = ExecCtx::new(Arc::new(VectorPool::arena()));
            let classic = plan.execute(source, &mut slots(), &mut fresh).unwrap();
            let borrowed = plan
                .execute_borrowed(source, &mut reused, &mut ctx)
                .unwrap();
            let session = runtime.predict_source(id, source).unwrap();
            for (path, score) in [
                ("borrowed", borrowed),
                ("session", session),
                ("batch", batch[r]),
            ] {
                assert_eq!(score.to_bits(), classic.to_bits(), "{path}, row {r}");
            }
        }
        assert_eq!(runtime.pool_outstanding(), 0);
    }
}

#[test]
fn dense_kitchen_sink_handles_nans_via_imputer() {
    let graph = dense_kitchen_sink(30);
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let id = runtime.register(plan).unwrap();
    let mut record = vec![0.5f32; 10];
    record[2] = f32::NAN;
    record[7] = f32::NAN;
    let score = runtime.predict_dense(id, &record).unwrap();
    assert!(score.is_finite(), "imputer must absorb NaNs: {score}");
}

#[test]
fn optimizer_handles_normalizer_as_pipeline_breaker() {
    // The L2 normalizer needs the materialized Concat output, so pushdown
    // must NOT remove the Concat in the kitchen-sink text pipeline.
    let graph = text_kitchen_sink(LinearKind::Logistic, 40);
    let optimized = pretzel_core::oven::optimize(&graph).unwrap();
    let has_concat = optimized.plan.stages.iter().any(|s| {
        s.steps.iter().any(|st| {
            matches!(&st.op, pretzel_core::plan::StageOp::Op(op)
                if op.kind() == OpKind::Concat)
        })
    });
    assert!(
        has_concat,
        "Concat must survive when a Normalizer consumes it"
    );
}

#[test]
fn every_kind_round_trips_through_model_files() {
    for graph in [
        text_kitchen_sink(LinearKind::Poisson, 50),
        dense_kitchen_sink(51),
    ] {
        let image = graph.to_model_image();
        let reloaded = TransformGraph::from_model_image(&image).unwrap();
        for (a, b) in graph.nodes.iter().zip(&reloaded.nodes) {
            assert_eq!(a.op.kind(), b.op.kind());
            assert_eq!(a.op.checksum(), b.op.checksum());
        }
    }
    // checksum_for_section agrees with Op::checksum for every kind.
    let graph = dense_kitchen_sink(52);
    for (i, node) in graph.nodes.iter().enumerate() {
        let section = node.op.to_section(i);
        let kind = section.name.split_once('.').unwrap().1;
        assert_eq!(
            Op::checksum_for_section(kind, section.checksum),
            node.op.checksum(),
            "checksum_for_section mismatch for {kind}"
        );
    }
}
