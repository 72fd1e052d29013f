//! Cross-engine equivalence: the white-box PRETZEL runtime and the
//! black-box baseline must compute identical predictions for identical
//! model files, across every optimization configuration.
//!
//! This is the reproduction's central correctness property — the paper's
//! speedups are only meaningful if the optimized plans are semantically
//! equivalent to the original pipelines.

use pretzel_baseline::{volcano, BlackBoxModel};
use pretzel_core::graph::TransformGraph;
use pretzel_core::physical::SourceRef;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_workload::ac::AcConfig;
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::sync::Arc;

const TOL: f32 = 1e-4;

fn sa_setup() -> (Vec<TransformGraph>, Vec<String>) {
    let w = pretzel_workload::sa::build(&SaConfig {
        n_pipelines: 12,
        char_entries: 512,
        word_entries_small: 64,
        word_entries_large: 256,
        vocab_size: 512,
        seed: 0x5a,
    });
    let mut gen = ReviewGen::new(1, 512, 1.2);
    let lines = (0..10)
        .map(|_| format!("4,{}", gen.review(8, 30)))
        .collect();
    (w.graphs, lines)
}

fn ac_setup() -> (Vec<TransformGraph>, Vec<String>) {
    let w = pretzel_workload::ac::build(&AcConfig {
        n_pipelines: 12,
        input_dim: 16,
        dense_input: false,
        seed: 0xac,
    });
    let mut gen = StructuredGen::new(2, 16);
    let lines = (0..10).map(|_| gen.csv_line()).collect();
    (w.graphs, lines)
}

fn check_runtime_matches_baselines(
    graphs: &[TransformGraph],
    lines: &[String],
    config: RuntimeConfig,
    label: &str,
) {
    let runtime = Runtime::new(config);
    for (k, graph) in graphs.iter().enumerate() {
        let image = Arc::new(graph.to_model_image());
        let reloaded = TransformGraph::from_model_image(&image).unwrap();
        let plan = pretzel_core::oven::optimize(&reloaded).unwrap().plan;
        let id = runtime.register(plan).unwrap();
        let mut blackbox = BlackBoxModel::from_image(image);
        for line in lines {
            let expect = volcano::execute(graph, SourceRef::Text(line)).unwrap();
            let bb = blackbox.predict(SourceRef::Text(line)).unwrap();
            let rr = runtime.predict(id, line).unwrap();
            assert!(
                (bb - expect).abs() < TOL,
                "[{label}] pipeline {k}: blackbox {bb} vs volcano {expect}"
            );
            assert!(
                (rr - expect).abs() < TOL,
                "[{label}] pipeline {k}: pretzel {rr} vs volcano {expect}"
            );
        }
        // Batch engine agrees with the request-response engine.
        let records: Vec<Record> = lines.iter().map(|l| Record::Text(l.clone())).collect();
        let batch = runtime.predict_batch_wait(id, records).unwrap();
        for (line, score) in lines.iter().zip(&batch) {
            let rr = runtime.predict(id, line).unwrap();
            assert!(
                (rr - score).abs() < TOL,
                "[{label}] pipeline {k}: batch {score} vs rr {rr}"
            );
        }
    }
}

#[test]
fn sa_pretzel_equals_blackbox_default_config() {
    let (graphs, lines) = sa_setup();
    check_runtime_matches_baselines(
        &graphs,
        &lines,
        RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        },
        "sa/default",
    );
}

#[test]
fn ac_pretzel_equals_blackbox_default_config() {
    let (graphs, lines) = ac_setup();
    check_runtime_matches_baselines(
        &graphs,
        &lines,
        RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        },
        "ac/default",
    );
}

#[test]
fn sa_equivalence_without_pooling_or_aot() {
    let (graphs, lines) = sa_setup();
    check_runtime_matches_baselines(
        &graphs,
        &lines,
        RuntimeConfig {
            n_executors: 2,
            pooling: false,
            aot: false,
            ..RuntimeConfig::default()
        },
        "sa/ablations",
    );
}

#[test]
fn repeated_predictions_are_deterministic() {
    let (graphs, lines) = sa_setup();
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let plan = pretzel_core::oven::optimize(&graphs[0]).unwrap().plan;
    let id = runtime.register(plan).unwrap();
    let first: Vec<f32> = lines
        .iter()
        .map(|l| runtime.predict(id, l).unwrap())
        .collect();
    for _ in 0..5 {
        for (line, &expect) in lines.iter().zip(&first) {
            assert_eq!(runtime.predict(id, line).unwrap(), expect);
        }
    }
}

#[test]
fn model_image_reload_preserves_predictions() {
    let (graphs, lines) = ac_setup();
    for graph in &graphs {
        let image = graph.to_model_image();
        let reloaded = TransformGraph::from_model_image(&image).unwrap();
        for line in &lines {
            let a = volcano::execute(graph, SourceRef::Text(line)).unwrap();
            let b = volcano::execute(&reloaded, SourceRef::Text(line)).unwrap();
            assert_eq!(a, b, "serialization must be lossless");
        }
    }
}
