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
