//! Telemetry plane: histogram properties, concurrent recording, and the
//! `STATS` wire verb end-to-end.
//!
//! The histogram contract is what makes merged snapshots exact rather
//! than approximate: log2 bucket boundaries land exactly on powers of
//! two, and merging histograms is indistinguishable from having
//! recorded every sample sequentially into one. The end-to-end
//! test then drives real traffic over TCP and checks that the per-plan
//! histograms served by `STATS` sum to the request counts — every
//! executed chunk-stage event waited in a queue exactly once.

use pretzel_core::flour::FlourContext;
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::plan::StagePlan;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::telemetry::{
    bucket_lower, bucket_of, bucket_upper, AtomicHistogram, Histogram, MetricsRegistry,
    HIST_BUCKETS,
};
use pretzel_ops::synth;
use std::sync::Arc;

// ---- Histogram properties ----

#[test]
fn log2_bucket_boundaries_are_exact_at_powers_of_two() {
    // Bucket 0 is the value 0 alone.
    assert_eq!(bucket_of(0), 0);
    assert_eq!((bucket_lower(0), bucket_upper(0)), (0, 0));
    // 2^k is the *smallest* value of bucket k+1: the power of two sits
    // exactly on a boundary, never split across buckets.
    for k in 0..62 {
        let v = 1u64 << k;
        let b = bucket_of(v);
        assert_eq!(b, k + 1, "2^{k} lands in bucket {b}");
        assert_eq!(bucket_lower(b), v, "2^{k} is its bucket's lower bound");
        assert_eq!(
            bucket_of(v - 1),
            b.saturating_sub(1),
            "2^{k}-1 falls one bucket below"
        );
        if b < HIST_BUCKETS - 1 {
            assert_eq!(bucket_upper(b), (v << 1) - 1);
        }
    }
    // The top bucket absorbs everything from 2^62 up.
    assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    // Every representable value belongs to exactly one bucket whose
    // bounds contain it (sampled across the full range).
    let mut v = 1u64;
    while v < u64::MAX / 3 {
        for s in [v, v + 1, v.wrapping_mul(3) / 2] {
            let b = bucket_of(s);
            assert!(
                bucket_lower(b) <= s && s <= bucket_upper(b),
                "{s} outside bucket {b} bounds"
            );
        }
        v = v.wrapping_mul(3) + 1;
    }
}

#[test]
fn merge_is_indistinguishable_from_sequential_recording() {
    // Deterministic pseudo-random sample stream (no RNG dependency).
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut samples = Vec::with_capacity(4096);
    for _ in 0..4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push(x >> (x % 50));
    }
    // Record sequentially into one histogram...
    let mut whole = Histogram::new();
    for &s in &samples {
        whole.record(s);
    }
    // ...and split across four shards, merged afterwards.
    let mut shards = vec![Histogram::new(); 4];
    for (i, &s) in samples.iter().enumerate() {
        shards[i % 4].record(s);
    }
    let mut merged = Histogram::new();
    for shard in &shards {
        merged.merge(shard);
    }
    assert_eq!(merged, whole, "merge(a, b) must equal sequential recording");
    assert_eq!(merged.count(), samples.len() as u64);
    assert_eq!(merged.p50(), whole.p50());
    assert_eq!(merged.p99(), whole.p99());
    assert_eq!(merged.max_observed(), whole.max_observed());
}

#[test]
fn quantiles_bound_true_samples_within_their_bucket() {
    let mut h = Histogram::new();
    for v in [1u64, 2, 3, 100, 1000, 10_000, 100_000] {
        h.record(v);
    }
    // The quantile estimate is the upper bound of the true sample's
    // bucket: never below the sample, never 2x or more above it.
    for q in [0.5, 0.9, 0.99, 1.0] {
        let est = h.quantile(q);
        assert!(est >= 1, "q={q}");
        assert!(est <= bucket_upper(bucket_of(100_000)), "q={q}");
    }
    assert!(h.p50() >= 3, "p50 must bound the median sample from above");
    assert!(h.p99() >= 100_000, "p99 must reach the top recorded sample");
}

// ---- Concurrency: concurrent recording never loses a sample ----

#[test]
fn concurrent_recording_loses_no_samples() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let hist = Arc::new(AtomicHistogram::default());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record((t as u64).wrapping_mul(31).wrapping_add(i) % 4096);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = hist.snapshot();
    assert_eq!(
        snap.count(),
        THREADS as u64 * PER_THREAD,
        "atomic histogram dropped samples under contention"
    );
}

#[test]
fn concurrent_plan_recorder_counts_every_event() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                // Resolve once per "submission", as the scheduler does.
                let rec = reg.plan_recorder(7);
                for i in 0..PER_THREAD {
                    rec.note_batch_request();
                    rec.record_queue_wait(t % 2 == 0, i % 1024);
                    rec.record_stage(i % 2048, 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    let pm = snap.plan(7).expect("recorded plan present");
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(pm.batch_requests, total);
    assert_eq!(pm.queue_wait_events(), total);
    assert_eq!(pm.stage_exec_ns.count(), total);
    assert_eq!(pm.stage_rows, total);
}

// ---- End-to-end: STATS over wire v2 ----

fn dense_plan(dim: usize) -> StagePlan {
    let ctx = FlourContext::new();
    ctx.dense_source(dim)
        .scale(Arc::new(synth::scaler(7, dim)))
        .regressor_tree(Arc::new(synth::ensemble(
            8,
            dim,
            2,
            3,
            pretzel_ops::tree::EnsembleMode::Sum,
        )))
        .plan()
        .unwrap()
}

fn dense_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| (i * dim + j) as f32 * 0.25 - 3.0)
                .collect()
        })
        .collect()
}

#[test]
fn stats_over_wire_v2_histograms_sum_to_request_counts() {
    const DIM: usize = 6;
    const BATCHES: u64 = 4;
    const ROWS: usize = 5;

    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        // One chunk per request, so chunk-stage events per request equal
        // the plan's stage count exactly.
        chunk_size: 64,
        ..RuntimeConfig::default()
    }));
    let id = rt.register(dense_plan(DIM)).unwrap();
    let n_stages = rt.plan(id).unwrap().stages.len() as u64;
    assert!(n_stages >= 2, "plan must have multiple stages");

    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();

    for _ in 0..BATCHES {
        let req = PredictRequest::dense_batch(dense_rows(ROWS, DIM)).plan(id);
        let scores = client.predict_many(&req).unwrap();
        assert_eq!(scores.len(), ROWS);
    }
    // A warm single predict goes through the request-response engine.
    let single = PredictRequest::dense(dense_rows(1, DIM).pop().unwrap()).plan(id);
    client.predict(&single).unwrap();

    let snap = client.stats().unwrap();

    let pm = snap.plan(id).expect("served plan has a metrics section");
    assert_eq!(pm.batch_requests, BATCHES);
    assert_eq!(pm.rr_requests, 1, "warm single predict is one RR request");
    assert_eq!(pm.records, BATCHES * ROWS as u64);
    // Every executed chunk-stage event waited in a queue exactly once:
    // the queue-wait histograms (low + high) and the stage-execution
    // histogram all sum to batches x stages.
    let expect_events = BATCHES * n_stages;
    assert_eq!(pm.queue_wait_events(), expect_events);
    assert_eq!(pm.stage_exec_ns.count(), expect_events);
    assert_eq!(pm.stage_rows, BATCHES * ROWS as u64 * n_stages);
    // Chunks enter at low priority and re-enter at high for later
    // stages, so both classes saw traffic.
    assert_eq!(pm.queue_wait_low_ns.count(), BATCHES);
    assert_eq!(pm.queue_wait_high_ns.count(), BATCHES * (n_stages - 1));

    // FrontEnd overlay and request-lifecycle histograms.
    let fe_section = snap.frontend.expect("STATS over a FrontEnd overlays it");
    assert!(fe_section.accepted >= 1);
    assert_eq!(
        snap.decode_ns.count(),
        BATCHES + 1,
        "one decode sample per wire request"
    );
    // The stat structs the runtime owns flow through the same snapshot.
    assert_eq!(snap.scheduler.records_done, BATCHES * ROWS as u64);
    assert_eq!(snap.lifecycle.deploys, 0, "register is not a deploy");

    // The plan's request count: one admission per request, either engine.
    assert_eq!(
        pm.rr_requests + pm.batch_requests,
        BATCHES + 1,
        "one admission per request"
    );

    // The JSON rendering carries the plan section.
    let json = snap.to_json();
    assert!(json.contains("\"plans\""), "{json}");
    assert!(json.contains("\"batch_requests\":4"), "{json}");

    fe.stop();
}

#[test]
fn stats_over_wire_reports_what_each_pool_holds() {
    const DIM: usize = 6;
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let id = rt.register(dense_plan(DIM)).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    for _ in 0..3 {
        let req = PredictRequest::dense_batch(dense_rows(5, DIM)).plan(id);
        client.predict_many(&req).unwrap();
    }
    let single = PredictRequest::dense(dense_rows(1, DIM).pop().unwrap()).plan(id);
    client.predict(&single).unwrap();

    // Quiescent: nothing in flight, so the figure over TCP is the
    // in-process one, family by family.
    let wire = client.stats().unwrap().pools;
    let local = rt.metrics().pools;
    assert_eq!(wire.executor, local.executor);
    assert_eq!(wire.request_response, local.request_response);
    assert_eq!(wire.ingest, local.ingest);
    assert!(wire.executor.retained_bytes > 0, "deploy provisioned it");
    assert!(wire.executor.parked > 0);
    assert!(wire.ingest.parked > 0, "assembled batches came home");
    assert_eq!(
        wire.executor.retained_bytes
            + wire.request_response.retained_bytes
            + wire.ingest.retained_bytes,
        rt.pool_retained_bytes()
    );

    let snap = client.stats().unwrap();
    let json = snap.to_json();
    assert!(
        json.contains(&format!(
            "\"retained_bytes\":{}",
            wire.executor.retained_bytes
        )),
        "{json}"
    );
    fe.stop();
}
