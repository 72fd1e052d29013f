//! Multi-model sharing invariants: the Object Store, the stage catalog and
//! the memory advantage over per-instance deployment (the mechanisms behind
//! Figures 3 and 8).

use pretzel_baseline::BlackBoxModel;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_workload::sa::{SaConfig, CHAR_VERSION_COUNTS, WORD_VERSION_COUNTS};
use std::sync::Arc;

fn workload() -> pretzel_workload::sa::SaWorkload {
    pretzel_workload::sa::build(&SaConfig {
        n_pipelines: 40,
        char_entries: 1024,
        word_entries_small: 64,
        word_entries_large: 512,
        vocab_size: 512,
        seed: 0x11,
    })
}

#[test]
fn object_store_collapses_shared_featurizers() {
    let w = workload();
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    for g in &w.graphs {
        let image = g.to_model_image();
        let graph = pretzel_core::graph::TransformGraph::from_model_image(&image).unwrap();
        let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
        runtime.register(plan).unwrap();
    }
    let store = runtime.object_store();
    // Upper bound on unique objects: 1 csv + 1 tokenizer + versions +
    // 1 linear per pipeline (concat is optimized away by pushdown).
    let max_unique = 2 + CHAR_VERSION_COUNTS.len() + WORD_VERSION_COUNTS.len() + w.graphs.len();
    assert!(
        store.len() <= max_unique,
        "store has {} unique objects, expected <= {max_unique}",
        store.len()
    );
    // Dedup must have fired many times (each pipeline re-loads shared
    // featurizers from its own model file).
    assert!(
        store.reuse_count() as usize >= w.graphs.len(),
        "only {} reuses across {} pipelines",
        store.reuse_count(),
        w.graphs.len()
    );
    assert!(store.bytes_saved() > 0);
}

#[test]
fn pretzel_memory_beats_per_instance_deployment() {
    let w = workload();
    // Baseline: per-instance copies.
    let mut baseline_bytes = 0usize;
    for g in &w.graphs {
        let mut m = BlackBoxModel::from_image(Arc::new(g.to_model_image()));
        m.warm_up().unwrap();
        baseline_bytes += m.memory_bytes();
    }
    // PRETZEL: interned parameters.
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    for g in &w.graphs {
        let graph =
            pretzel_core::graph::TransformGraph::from_model_image(&g.to_model_image()).unwrap();
        let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
        runtime.register(plan).unwrap();
    }
    let pretzel_bytes = runtime.object_store().unique_bytes();
    assert!(
        baseline_bytes as f64 / pretzel_bytes as f64 > 3.0,
        "expected >3x dedup: baseline {baseline_bytes} vs pretzel {pretzel_bytes}"
    );
}

#[test]
fn catalog_interns_identical_physical_stages() {
    let w = workload();
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let mut ids = Vec::new();
    for g in &w.graphs {
        let plan = pretzel_core::oven::optimize(g).unwrap().plan;
        ids.push(runtime.register(plan).unwrap());
    }
    // SA pipelines sharing featurizer versions still have per-pipeline
    // fused stages (weights differ), so the catalog grows with plans, but
    // re-registering the same plan must not grow it.
    let before = runtime.catalog_size();
    let plan = pretzel_core::oven::optimize(&w.graphs[0]).unwrap().plan;
    runtime.register(plan).unwrap();
    assert_eq!(runtime.catalog_size(), before);
}

#[test]
fn shared_params_are_pointer_identical_across_plans() {
    let w = workload();
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    // Find two pipelines assigned the same char version.
    let (a, b) = {
        let mut found = None;
        'outer: for i in 0..w.assignment.len() {
            for j in (i + 1)..w.assignment.len() {
                if w.assignment[i].0 == w.assignment[j].0 {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        found.expect("skewed assignment guarantees a shared version")
    };
    let mut plan_ids = Vec::new();
    for k in [a, b] {
        let graph =
            pretzel_core::graph::TransformGraph::from_model_image(&w.graphs[k].to_model_image())
                .unwrap();
        let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
        plan_ids.push(runtime.register(plan).unwrap());
    }
    let plan_a = runtime.plan(plan_ids[0]).unwrap();
    let plan_b = runtime.plan(plan_ids[1]).unwrap();
    // Whatever form the compiler fused the char n-gram into, the parameter
    // walk finds its dictionary.
    let addrs = |p: &pretzel_core::ModelPlan| -> Vec<usize> {
        let mut addrs = Vec::new();
        for step in p.stages.iter().flat_map(|s| &s.steps) {
            step.op.for_each_param(|op| {
                if op.kind() == pretzel_ops::OpKind::CharNgram {
                    addrs.push(op.params_addr());
                }
            });
        }
        addrs
    };
    let a_addrs = addrs(&plan_a);
    let b_addrs = addrs(&plan_b);
    assert!(!a_addrs.is_empty() && !b_addrs.is_empty());
    assert_eq!(
        a_addrs[0], b_addrs[0],
        "char dictionaries must be the same allocation across plans"
    );
}

#[test]
fn sharing_does_not_change_predictions() {
    // Interned (shared) plans score exactly like privately compiled ones.
    let w = workload();
    let shared_rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let mut gen = pretzel_workload::text::ReviewGen::new(5, 512, 1.2);
    let lines: Vec<String> = (0..5)
        .map(|_| format!("3,{}", gen.review(10, 20)))
        .collect();
    for g in w.graphs.iter().take(10) {
        let plan = pretzel_core::oven::optimize(g).unwrap().plan;
        let id = shared_rt.register(plan).unwrap();
        let private_rt = Runtime::new(RuntimeConfig {
            n_executors: 1,
            ..RuntimeConfig::default()
        });
        let plan2 = pretzel_core::oven::optimize(g).unwrap().plan;
        let id2 = private_rt.register(plan2).unwrap();
        for line in &lines {
            assert_eq!(
                shared_rt.predict(id, line).unwrap(),
                private_rt.predict(id2, line).unwrap()
            );
        }
    }
}
