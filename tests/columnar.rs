//! Columnar batch execution equivalence suite.
//!
//! The batch engine's columnar data plane must produce scores
//! **bitwise-identical** to the request-response engine's per-record path —
//! across every operator family, every chunk size, with pooling on and off
//! (the ablation). The batch kernels intentionally run the same per-row
//! arithmetic in the same order as the single-record kernels, so
//! comparisons here use `f32::to_bits`, not tolerances.

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::plan::StagePlan;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_ops::feat::normalizer::{NormKind, NormalizerParams};
use pretzel_ops::feat::onehot::OneHotParams;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_ops::text::hashing::HashingParams;
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::sync::Arc;

const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 1000];
const DENSE_DIM: usize = 12;

/// One equivalence case: a pipeline plus a request stream for it.
struct Case {
    name: &'static str,
    plan: StagePlan,
    records: Vec<Record>,
}

fn text_records(n: usize, seed: u64) -> Vec<Record> {
    let mut gen = ReviewGen::new(seed, 256, 1.2);
    (0..n)
        .map(|i| Record::Text(format!("{},{}", 1 + i % 5, gen.review(3, 18))))
        .collect()
}

fn dense_records(n: usize, seed: u64) -> Vec<Record> {
    let mut gen = StructuredGen::new(seed, DENSE_DIM);
    (0..n).map(|_| Record::Dense(gen.record())).collect()
}

fn scalar_terminated(feat: Flour, seed: u64) -> StagePlan {
    let dim = feat
        .output_type()
        .dimension()
        .expect("feature output is numeric");
    feat.classifier_linear(Arc::new(synth::linear(seed, dim, LinearKind::Logistic)))
        .plan()
        .expect("plan compiles")
}

/// Pipelines covering every operator family in the library.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // CsvParse, Tokenizer, CharNgram, WordNgram, Concat, Linear — the SA
    // shape, which the optimizer rewrites into PartialDot/Combine (and the
    // compiler may fuse into one FusedText step).
    {
        let vocab = synth::vocabulary(11, 256);
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(1).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(12, 3, 512)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(13, 2, 256, &vocab)));
        cases.push(Case {
            name: "sa_char_word_concat_linear",
            plan: scalar_terminated(c.concat(&w), 14),
            records: text_records(1003, 15),
        });
    }

    // HashingVectorizer + sparse Normalizer.
    {
        let ctx = FlourContext::new();
        let feats = ctx
            .csv(',')
            .select_text(1)
            .hashing(Arc::new(HashingParams::new(3, 256, true)))
            .normalize(Arc::new(NormalizerParams::new(NormKind::L2, 256)));
        cases.push(Case {
            name: "hashing_normalize_linear",
            plan: scalar_terminated(feats, 21),
            records: text_records(211, 22),
        });
    }

    // Imputer, Scaler, Pca, KMeans, Concat, TreeEnsemble.
    {
        let ctx = FlourContext::new();
        let scaled = ctx
            .dense_source(DENSE_DIM)
            .impute(Arc::new(synth::imputer(31, DENSE_DIM)))
            .scale(Arc::new(synth::scaler(32, DENSE_DIM)));
        let p = scaled.pca(Arc::new(synth::pca(33, 4, DENSE_DIM)));
        let k = scaled.kmeans(Arc::new(synth::kmeans(34, 3, DENSE_DIM)));
        let plan = p
            .concat(&k)
            .regressor_tree(Arc::new(synth::ensemble(
                35,
                7,
                8,
                4,
                pretzel_ops::tree::EnsembleMode::Average,
            )))
            .plan()
            .expect("plan compiles");
        cases.push(Case {
            name: "impute_scale_pca_kmeans_tree",
            plan,
            records: dense_records(211, 36),
        });
    }

    // Binner, OneHot, dense Normalizer, Linear.
    {
        let ctx = FlourContext::new();
        let onehot = OneHotParams::new(DENSE_DIM as u32, vec![(2, 4), (7, 3)]);
        let out_dim = onehot.output_dim() as u32;
        let feats = ctx
            .dense_source(DENSE_DIM)
            .bin(Arc::new(synth::binner(41, DENSE_DIM, 5)))
            .one_hot(Arc::new(onehot))
            .normalize(Arc::new(NormalizerParams::new(NormKind::MaxAbs, out_dim)));
        cases.push(Case {
            name: "bin_onehot_normalize_linear",
            plan: scalar_terminated(feats, 42),
            records: dense_records(211, 43),
        });
    }

    // TreeFeaturizer, NaiveBayes, final TreeEnsemble.
    {
        let ctx = FlourContext::new();
        let featurizer = synth::ensemble(51, DENSE_DIM, 5, 3, pretzel_ops::tree::EnsembleMode::Sum);
        let leaves = featurizer.total_leaves();
        let classes = 4;
        let plan = ctx
            .dense_source(DENSE_DIM)
            .tree_featurize(Arc::new(featurizer))
            .naive_bayes(Arc::new(synth::naive_bayes(52, classes, leaves)))
            .regressor_tree(Arc::new(synth::ensemble(
                53,
                classes,
                4,
                3,
                pretzel_ops::tree::EnsembleMode::Sum,
            )))
            .plan()
            .expect("plan compiles");
        cases.push(Case {
            name: "treefeat_bayes_tree",
            plan,
            records: dense_records(211, 54),
        });
    }

    // MulticlassTree into a final ensemble.
    {
        let ctx = FlourContext::new();
        let classes = 5;
        let plan = ctx
            .dense_source(DENSE_DIM)
            .multiclass_tree(Arc::new(synth::multiclass(61, DENSE_DIM, classes, 3, 3)))
            .regressor_tree(Arc::new(synth::ensemble(
                62,
                classes,
                4,
                3,
                pretzel_ops::tree::EnsembleMode::Average,
            )))
            .plan()
            .expect("plan compiles");
        cases.push(Case {
            name: "multiclass_tree",
            plan,
            records: dense_records(211, 63),
        });
    }

    cases
}

fn run_case(case: &Case, chunk_size: usize, pooling: bool) {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        pooling,
        chunk_size,
        ..RuntimeConfig::default()
    });
    let id = rt.register(case.plan.clone()).expect("registers");
    let batch = rt
        .predict_batch_wait(id, case.records.clone())
        .expect("batch scores");
    assert_eq!(batch.len(), case.records.len());
    // Reference: the request-response engine's per-record path.
    for (i, r) in case.records.iter().enumerate() {
        let inline = rt.predict_source(id, r.as_source()).expect("inline scores");
        assert_eq!(
            batch[i].to_bits(),
            inline.to_bits(),
            "{} chunk={chunk_size} pooling={pooling} record {i}: batch {} vs inline {inline}",
            case.name,
            batch[i]
        );
    }
}

/// Columnar batch scores are bitwise-identical to per-record scores for
/// every operator family at every chunk size.
#[test]
fn columnar_matches_single_across_families_and_chunk_sizes() {
    for case in cases() {
        for chunk in CHUNK_SIZES {
            run_case(&case, chunk, true);
        }
    }
}

/// The pooling-disabled ablation must not change a single bit.
#[test]
fn columnar_matches_single_with_pooling_disabled() {
    for case in cases() {
        run_case(&case, 7, false);
        run_case(&case, 64, false);
    }
}

/// Chunked execution boundaries: a batch whose size is not a multiple of
/// the chunk size scores its tail chunk correctly.
#[test]
fn ragged_tail_chunks_are_exact() {
    let case = &cases()[0];
    for n in [1usize, 6, 63, 65, 129] {
        let rt = Runtime::new(RuntimeConfig {
            n_executors: 2,
            chunk_size: 64,
            ..RuntimeConfig::default()
        });
        let id = rt.register(case.plan.clone()).unwrap();
        let records: Vec<Record> = case.records[..n].to_vec();
        let batch = rt.predict_batch_wait(id, records.clone()).unwrap();
        for (i, r) in records.iter().enumerate() {
            let Record::Text(line) = r else {
                unreachable!()
            };
            let inline = rt.predict(id, line).unwrap();
            assert_eq!(batch[i].to_bits(), inline.to_bits(), "n={n} record {i}");
        }
    }
}
