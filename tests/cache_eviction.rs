//! LRU eviction-order equivalence between the request-response engine's
//! per-record cached path and the batch engine's chunk-level cache probe.
//!
//! The materialization cache is one shared LRU; which entry an insert
//! evicts depends on the *order* of every preceding get/insert. The chunk
//! probe therefore replays its cache operations in original row order
//! (peek-partition → batch-evaluate misses → row-ordered replay), so under
//! mid-chunk eviction pressure the columnar path transitions the LRU
//! through exactly the per-record states: same hit/miss counters, same
//! eviction victims, same surviving entries.
//!
//! The reference is a second runtime with the same budget, fed the same
//! records one at a time through `Runtime::predict_source`. It is exact
//! because the plan has one cacheable step: each record issues one probe
//! (plus one insert on a miss) whichever engine runs it, so the row path's
//! operation sequence is precisely the one the chunk probe must replay.
//! With several cacheable steps in different stages the engines would
//! interleave those steps' operations differently by design.
//!
//! The scenario below is engineered to catch the pre-fix drift (all probes
//! before all inserts): a chunk interleaving hits and misses at a budget
//! that evicts mid-chunk leaves a *different* entry resident, which a later
//! probe chunk exposes as diverging hit/miss counters.
//!
//! The last tests pin what a key names, in all three engines.

use pretzel_core::flour::FlourContext;
use pretzel_core::object_store::MatCacheStats;
use pretzel_core::plan::StagePlan;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use std::sync::Arc;

/// Clusters for the single cacheable step (KMeans) and the row width.
const K: usize = 4;
const DIM: usize = 4;
/// Cached KMeans outputs are `Vector::Dense` of length `K`: every entry
/// costs exactly `K * 4` heap bytes + the cache's 64-byte fixed overhead.
const ENTRY_COST: usize = K * 4 + 64;

/// A plan with exactly ONE cacheable step (KMeans), so every record maps
/// to one cache entry of one known, uniform cost.
fn kmeans_plan() -> StagePlan {
    let ctx = FlourContext::new();
    ctx.dense_source(DIM)
        .kmeans(Arc::new(synth::kmeans(11, K, DIM)))
        .classifier_linear(Arc::new(synth::linear(12, K, LinearKind::Logistic)))
        .plan()
        .unwrap()
}

fn record(tag: f32) -> Record {
    Record::Dense((0..DIM).map(|j| tag + j as f32 * 0.125).collect())
}

/// Runs the same pass sequence through a fresh runtime with a cache of
/// `budget` bytes — through the batch engine (`batch`, every pass one
/// chunk) or one record at a time through the request-response engine —
/// and returns the cache counter snapshots (hits/misses/evictions) after
/// each pass, plus every score produced.
fn run_passes(
    batch: bool,
    budget: usize,
    passes: &[Vec<Record>],
) -> (Vec<MatCacheStats>, Vec<f32>) {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        chunk_size: 16,
        materialization_budget: budget,
        ..RuntimeConfig::default()
    });
    let id = rt.register(kmeans_plan()).unwrap();
    let mut stats = Vec::new();
    let mut scores = Vec::new();
    for pass in passes {
        if batch {
            scores.extend(rt.predict_batch_wait(id, pass.clone()).unwrap());
        } else {
            for r in pass {
                scores.push(rt.predict_source(id, r.as_source()).unwrap());
            }
        }
        stats.push(rt.materialization_cache().unwrap().stats());
    }
    (stats, scores)
}

/// Both engines over `passes`: counters equal after every pass, scores
/// bitwise-equal throughout.
fn assert_engines_agree(budget: usize, passes: &[Vec<Record>]) {
    let (per_record_stats, per_record_scores) = run_passes(false, budget, passes);
    let (columnar_stats, columnar_scores) = run_passes(true, budget, passes);
    for (i, (pr, col)) in per_record_stats.iter().zip(&columnar_stats).enumerate() {
        assert_eq!(
            pr, col,
            "pass {i}: (hits, misses, evictions) diverge — columnar LRU \
             bookkeeping no longer matches per-record order"
        );
    }
    // Scores are bitwise-identical throughout (they were even pre-fix;
    // recency drift costs recomputation, never correctness).
    assert_eq!(per_record_scores.len(), columnar_scores.len());
    for (i, (pr, col)) in per_record_scores.iter().zip(&columnar_scores).enumerate() {
        assert_eq!(pr.to_bits(), col.to_bits(), "score {i}");
    }
}

#[test]
fn chunk_probe_matches_per_record_eviction_sequence() {
    let (a, b, c, d, e) = (
        record(1.0),
        record(2.0),
        record(3.0),
        record(4.0),
        record(5.0),
    );
    let passes: Vec<Vec<Record>> = vec![
        // Warm A and B (2 entries resident, recency B > A).
        vec![a.clone(), b.clone()],
        // The drift chunk: hit, miss, hit, miss. Record by record the
        // cache sees touch(A) · insert(C) · touch(B) · insert(D)-evicts-A;
        // the pre-fix probe issued touch(A) · touch(B) · insert(C) ·
        // insert(D) instead, leaving a different recency order behind.
        vec![a.clone(), c.clone(), b.clone(), d.clone()],
        // One more insert evicts the LRU entry — which entry that is now
        // depends on the recency order the previous chunk left.
        vec![e.clone()],
        // Probe the divergence candidate: B survived per-record execution
        // but not the pre-fix probe's drifted order.
        vec![b.clone()],
        // Sweep everything to pin down the full surviving set.
        vec![a, c, d, e, b],
    ];
    // Room for exactly 3 entries: the 4th insert must evict mid-chunk.
    assert_engines_agree(3 * ENTRY_COST, &passes);
}

#[test]
fn chunk_probe_matches_per_record_counters_at_degenerate_budget() {
    // A budget that cannot hold even one entry: every insert no-ops, every
    // probe misses, duplicates recompute. The replayed op sequence still
    // matches per-record execution exactly.
    let (a, b) = (record(1.0), record(2.0));
    let passes = vec![
        vec![a.clone(), b.clone(), a.clone()],
        vec![b.clone(), b.clone()],
    ];
    assert_engines_agree(1, &passes);
}

// A materialization key names a step's inputs, not just the step: the
// plan computes it from the step's parameters and the keys of its inputs'
// producers, so plans whose sub-plans differ upstream of a cacheable step
// never share its entries, and plans whose sub-plans up to it are equal
// always do (paper §4.3's cross-plan sharing).

/// How a record is scored: `Runtime::predict_source`,
/// `Runtime::predict_source_in` on a session of its own, or one
/// `Runtime::predict_batch_wait` per plan.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Source,
    SourceIn,
    BatchWait,
}

const ENGINES: [Engine; 3] = [Engine::Source, Engine::SourceIn, Engine::BatchWait];

/// Registers `plans` on a fresh one-executor runtime with `budget` bytes
/// of materialization cache (0: none) and scores every record through
/// `engine`, plan after plan; returns the score bits in that order and the
/// runtime.
fn score_plans(
    engine: Engine,
    budget: usize,
    plans: &[StagePlan],
    records: &[Record],
) -> (Vec<u32>, Runtime) {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        materialization_budget: budget,
        ..RuntimeConfig::default()
    });
    let ids: Vec<_> = plans
        .iter()
        .map(|p| rt.register(p.clone()).unwrap())
        .collect();
    let mut session = rt.rr_session();
    let mut bits = Vec::new();
    for &id in &ids {
        match engine {
            Engine::Source => bits.extend(
                records
                    .iter()
                    .map(|r| rt.predict_source(id, r.as_source()).unwrap().to_bits()),
            ),
            Engine::SourceIn => bits.extend(records.iter().map(|r| {
                rt.predict_source_in(&mut session, id, r.as_source())
                    .unwrap()
                    .to_bits()
            })),
            Engine::BatchWait => bits.extend(
                rt.predict_batch_wait(id, records.to_vec())
                    .unwrap()
                    .iter()
                    .map(|s| s.to_bits()),
            ),
        }
    }
    drop(session);
    (bits, rt)
}

/// Every engine, cache on, scores each plan exactly as a cache-off runtime
/// does; the records are unique, so each plan's entries are its own and
/// the cache never hits.
fn assert_plans_kept_apart(plans: &[StagePlan], records: &[Record]) {
    for engine in ENGINES {
        let (want, _) = score_plans(engine, 0, plans, records);
        let n = records.len();
        assert_ne!(want[..n], want[n..2 * n], "the plans must score apart");
        let (got, rt) = score_plans(engine, 1 << 20, plans, records);
        assert_eq!(
            got, want,
            "{engine:?}: cache-on scores differ from cache-off"
        );
        let stats = rt.materialization_cache().unwrap().stats();
        assert_eq!(stats.hits, 0, "{engine:?}: a plan hit another's entry");
    }
}

/// A text plan over CSV field `field`: tokens, char and word n-grams, and
/// a linear model with weights from `weights_seed`.
fn text_plan(field: u32, weights_seed: u64) -> StagePlan {
    let vocab = synth::vocabulary(21, 64);
    let tokens = FlourContext::new().csv(',').select_text(field).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(22, 3, 64)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(23, 2, 64, &vocab)));
    c.concat(&w)
        .classifier_linear(Arc::new(synth::linear(
            weights_seed,
            128,
            LinearKind::Logistic,
        )))
        .plan()
        .unwrap()
}

/// Six unique two-field lines of vocabulary words, the fields different.
fn text_records() -> Vec<Record> {
    let vocab = synth::vocabulary(21, 64);
    (0..6)
        .map(|i| {
            Record::Text(format!(
                "{} {} {},{} {}",
                vocab[i],
                vocab[i + 1],
                vocab[i + 2],
                vocab[i + 9],
                vocab[i + 3]
            ))
        })
        .collect()
}

#[test]
fn plans_reading_different_fields_do_not_share_featurizer_entries() {
    // One tokenizer, dictionary set and weight vector; only the CSV field
    // the plans read differs, upstream of every cacheable step.
    let plans = [text_plan(0, 24), text_plan(1, 24)];
    assert_plans_kept_apart(&plans, &text_records());
}

#[test]
fn plans_differing_only_upstream_of_a_shared_stage_do_not_share_entries() {
    // `scale(s_i).kmeans(k).linear(l)`: the KMeans and linear stages have
    // equal signatures, so the catalog shares them; the scalers differ.
    let plan = |scaler_seed| {
        FlourContext::new()
            .dense_source(DIM)
            .scale(Arc::new(synth::scaler(scaler_seed, DIM)))
            .kmeans(Arc::new(synth::kmeans(11, K, DIM)))
            .classifier_linear(Arc::new(synth::linear(12, K, LinearKind::Regression)))
            .plan()
            .unwrap()
    };
    let records: Vec<Record> = (0..6).map(|i| record(i as f32)).collect();
    assert_plans_kept_apart(&[plan(31), plan(32)], &records);
}

#[test]
fn plans_with_one_featurizer_prefix_share_its_entries() {
    // Same field, tokenizer and dictionaries, different weights: the
    // second plan hits every featurizer entry the first one stored.
    let plans = [text_plan(1, 40), text_plan(1, 41)];
    let records = text_records();
    let n = records.len() as u64;
    for engine in ENGINES {
        let (want, _) = score_plans(engine, 0, &plans, &records);
        let (got, rt) = score_plans(engine, 1 << 20, &plans, &records);
        assert_eq!(got, want, "{engine:?}");
        // Three cacheable steps (tokenizer and both n-grams): the first
        // plan misses each for every record, the second hits each.
        let stats = rt.materialization_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (3 * n, 3 * n), "{engine:?}");
    }
}
