//! Property-style tests on the reproduction's core invariants: optimizer
//! semantics preservation, codec round-trips, pool and LRU behaviour,
//! kernel layout equivalence.
//!
//! The original suite used `proptest`; the offline build has no registry
//! access, so the same invariants are checked over deterministic
//! pseudo-random case sweeps generated with the vendored `rand` stub. Case
//! counts match the old `ProptestConfig::with_cases` settings.

use pretzel_baseline::volcano;
use pretzel_core::flour::FlourContext;
use pretzel_core::graph::TransformGraph;
use pretzel_core::object_store::ObjectStore;
use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan, SourceRef};
use pretzel_data::pool::VectorPool;
use pretzel_data::vector::Vector;
use pretzel_data::ColumnType;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CASES: u64 = 48;

/// A random SA-shaped pipeline (dictionary sizes, n-gram orders and branch
/// structure vary with the case seed).
fn arb_sa_graph(rng: &mut StdRng) -> TransformGraph {
    let seed = rng.gen_range(1u64..1000);
    let char_entries = rng.gen_range(8usize..128);
    let char_n = rng.gen_range(1u32..4);
    let word_entries = rng.gen_range(8usize..64);
    let word_n = rng.gen_range(1u32..3);
    let both = rng.gen_bool(0.5);

    let vocab = synth::vocabulary(seed, 64);
    let ctx = FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(
        seed ^ 2,
        word_n,
        word_entries,
        &vocab,
    )));
    let features = if both {
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(seed ^ 1, char_n, char_entries)));
        c.concat(&w)
    } else {
        w
    };
    let dim = features.output_type().dimension().unwrap();
    features
        .classifier_linear(Arc::new(synth::linear(seed ^ 3, dim, LinearKind::Logistic)))
        .graph()
}

/// A random CSV review line: `rating,word word ...`.
fn arb_line(rng: &mut StdRng) -> String {
    let rating = rng.gen_range(1u32..6);
    let n_words = rng.gen_range(0usize..20);
    let words: Vec<String> = (0..n_words)
        .map(|_| {
            let len = rng.gen_range(1usize..=8);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect()
        })
        .collect();
    format!("{rating},{}", words.join(" "))
}

fn run_plan(plan: &ModelPlan, line: &str) -> f32 {
    let pool = Arc::new(VectorPool::arena());
    let mut ctx = ExecCtx::new(pool);
    let mut slots: Vec<Vector> = plan
        .slot_types()
        .iter()
        .map(|&t| Vector::with_type(t))
        .collect();
    plan.execute(SourceRef::Text(line), &mut slots, &mut ctx)
        .unwrap()
}

/// The optimizer + compiler (fused and unfused) preserve the semantics of
/// arbitrary pipelines on arbitrary inputs.
#[test]
fn optimizer_preserves_semantics() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5e3a_0000 + case);
        let graph = arb_sa_graph(&mut rng);
        let line = arb_line(&mut rng);
        let expect = volcano::execute(&graph, SourceRef::Text(&line)).unwrap();
        let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
        let store = ObjectStore::new();
        for fuse in [true, false] {
            let plan =
                ModelPlan::compile(logical.clone(), &CompileOptions { fuse_text: fuse }, &store)
                    .unwrap();
            let got = run_plan(&plan, &line);
            assert!(
                (got - expect).abs() < 1e-4,
                "case {case} fuse={fuse}: optimized {got} vs volcano {expect}"
            );
        }
    }
}

/// Model files round-trip losslessly for arbitrary pipelines.
#[test]
fn model_image_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000_0000 + case);
        let graph = arb_sa_graph(&mut rng);
        let line = arb_line(&mut rng);
        let image = graph.to_model_image();
        let reloaded = TransformGraph::from_model_image(&image).unwrap();
        let a = volcano::execute(&graph, SourceRef::Text(&line)).unwrap();
        let b = volcano::execute(&reloaded, SourceRef::Text(&line)).unwrap();
        assert_eq!(a, b, "case {case}");
        // Checksums survive the round trip (Object Store dedup relies on it).
        for (x, y) in graph.nodes.iter().zip(&reloaded.nodes) {
            assert_eq!(x.op.checksum(), y.op.checksum(), "case {case}");
        }
    }
}

/// Dense and sparse layouts of the same logical vector score equally under
/// every numeric operator that accepts both.
#[test]
fn dense_sparse_kernel_equivalence() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000_0000 + case);
        let seed = rng.gen_range(1u64..500);
        let dim = rng.gen_range(4usize..32);
        let values: Vec<f32> = (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let dense = Vector::Dense(values.clone());
        let mut sparse = Vector::with_type(ColumnType::F32Sparse { len: dim });
        for (i, &v) in values.iter().enumerate() {
            if v != 0.0 {
                sparse.sparse_accumulate(i as u32, v);
            }
        }
        let linear = synth::linear(seed, dim, LinearKind::Regression);
        let mut a = Vector::Scalar(0.0);
        let mut b = Vector::Scalar(0.0);
        linear.apply(&dense, &mut a).unwrap();
        linear.apply(&sparse, &mut b).unwrap();
        assert!(
            (a.as_scalar().unwrap() - b.as_scalar().unwrap()).abs() < 1e-3,
            "case {case}: linear dense/sparse diverge"
        );

        let ens = synth::ensemble(seed, dim, 3, 3, pretzel_ops::tree::EnsembleMode::Sum);
        ens.apply(&dense, &mut a).unwrap();
        ens.apply(&sparse, &mut b).unwrap();
        assert_eq!(
            a.as_scalar().unwrap(),
            b.as_scalar().unwrap(),
            "case {case}: ensemble dense/sparse diverge"
        );
    }
}

/// Pooled buffers never leak state between acquisitions.
#[test]
fn pool_buffers_come_back_clean() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000_0000 + case);
        let len = rng.gen_range(1usize..16);
        let fills: Vec<f32> = (0..len).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let rounds = rng.gen_range(1usize..5);
        let pool = VectorPool::arena();
        let ty = ColumnType::F32Dense { len };
        for _ in 0..rounds {
            let mut v = pool.acquire(ty);
            if let Vector::Dense(d) = &mut v {
                d.copy_from_slice(&fills);
            }
            pool.release(v);
            let clean = pool.acquire(ty);
            assert!(
                clean.as_dense().unwrap().iter().all(|&x| x == 0.0),
                "case {case}: pooled buffer leaked state"
            );
            pool.release(clean);
        }
    }
}

/// The LRU cache never exceeds its budget and always retains the most
/// recent insertion (when it fits).
#[test]
fn lru_respects_budget() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000_0000 + case);
        let budget = rng.gen_range(40usize..400);
        let n_ops = rng.gen_range(1usize..200);
        let mut lru = pretzel_core::lru::LruCache::<u32, u32>::new(budget);
        for i in 0..n_ops {
            let key = rng.gen_range(0u32..64);
            let cost = rng.gen_range(1usize..40);
            lru.insert(key, i as u32, cost);
            assert!(lru.used_cost() <= budget, "case {case}: budget exceeded");
            if cost <= budget {
                assert_eq!(lru.get(&key), Some(&(i as u32)), "case {case}");
            }
        }
    }
}

/// Schema propagation never panics: it either types a graph or reports a
/// structured error.
#[test]
fn schema_propagation_total() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000_0000 + case);
        let graph = arb_sa_graph(&mut rng);
        graph.validate_structure().unwrap();
        let types = graph.propagate_types().unwrap();
        assert_eq!(types.len(), graph.nodes.len(), "case {case}");
        assert_eq!(*types.last().unwrap(), ColumnType::F32Scalar, "case {case}");
    }
}
