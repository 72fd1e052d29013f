//! Memory budget of a served plan, process-wide: the per-plan gate.
//!
//! PRETZEL's footprint claim is that plans cost their parameters, shared
//! where they can be. What a deployed plan costs beside them — its
//! telemetry recorder, its compiled plan, its share of the pools' size
//! classes and of the front end — should follow what the plan uses, not
//! the host's core count or a configured capacity. This binary deploys the
//! 250 AC pipelines (no parameter sharing, so every byte beside the Object
//! Store is per-plan overhead) into a `Runtime` behind a `FrontEnd` and
//! holds that overhead, a recorder's size and one `STATS` round trip to
//! budgets. It installs the counting allocator and holds one test on
//! purpose: tests of one binary run on parallel threads and would count
//! each other's allocations (see `tests/frontend_budget.rs`).

use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::telemetry::{AtomicHistogram, MetricsRegistry, PlanRecorder};
use pretzel_data::alloc_meter::{self, CountingAlloc};
use pretzel_workload::ac::{self, AcConfig};
use std::mem::size_of;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const PLANS: usize = 250;

/// Live heap one deployed AC plan adds beside its unique parameters:
/// measured at 3,601 B (release and debug alike). Before the recorder, the
/// pool classes and the plan forms were sized to their use it was
/// 13,016 B. The slack (28 %) covers a map doubling landing on either side
/// of the measurement and layout changes, not a structure that grows with
/// the core count or a configured capacity again: one recorder shard
/// (2 KiB) or one 256-slot vector class per plan would break it.
const PER_PLAN_BUDGET: usize = 4_608;

/// Peak live growth of one `STATS` round trip over 250 plans that have
/// served batches — the server's snapshot and encoding, the wire buffers
/// and the client's decoded copy together: measured at 358,625 B in
/// release and 383,905 B in debug builds (wider latencies fill more
/// buckets). It was 1,064,000 B while every histogram carried all 64
/// buckets, the client copied the payload out of its frame buffer and the
/// decoded plan list grew by doubling. Slack 37 % over the debug figure.
const STATS_PEAK_BUDGET: usize = 512 << 10;

/// Rows per batch request: one chunk, so every plan's batch-engine
/// histograms fill the way served traffic fills them.
const ROWS: usize = 8;

#[test]
fn a_served_plan_costs_its_parameters_and_a_bounded_overhead() {
    // A recorder is its struct behind an `Arc`: nothing in it is sized by
    // the host's parallelism, and a histogram exists once written.
    let registry = MetricsRegistry::new();
    // Let the registry's map allocate its table first.
    drop(registry.plan_recorder(0));
    registry.forget_plan(0);
    let before = alloc_meter::live_bytes();
    let recorder = registry.plan_recorder(1);
    let recorder_bytes = alloc_meter::live_bytes() - before;
    let arc_counts = 2 * size_of::<usize>();
    assert_eq!(
        recorder_bytes,
        size_of::<PlanRecorder>() + arc_counts,
        "a plan's recorder is one fixed-size struct"
    );
    assert!(size_of::<PlanRecorder>() < size_of::<AtomicHistogram>());
    recorder.note_rr_request();
    assert_eq!(
        alloc_meter::live_bytes() - before,
        recorder_bytes,
        "a request-response plan's recorder never grows"
    );
    recorder.record_stage(1_000, 64);
    assert_eq!(
        alloc_meter::live_bytes() - before,
        recorder_bytes + size_of::<AtomicHistogram>(),
        "a written histogram costs one histogram"
    );
    drop(recorder);

    let images: Vec<Vec<u8>> = ac::build(&AcConfig {
        dense_input: true,
        ..AcConfig::default()
    })
    .graphs
    .iter()
    .map(|g| g.to_model_image())
    .collect();
    assert_eq!(images.len(), PLANS);
    let row: Vec<f32> = (0..AcConfig::default().input_dim)
        .map(|i| i as f32 * 0.25 - 3.0)
        .collect();
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let frontend = FrontEnd::serve(
        Arc::clone(&rt),
        FrontEndConfig {
            reactor_threads: 1,
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_v2(frontend.addr()).unwrap();

    let live_before = alloc_meter::live_bytes();
    let ids: Vec<_> = images
        .iter()
        .map(|image| rt.deploy(image, DeployOptions::default()).unwrap())
        .collect();
    let deployed = alloc_meter::live_bytes() - live_before;
    let unique = rt.metrics().store.unique_bytes as usize;
    let per_plan = deployed.saturating_sub(unique) / PLANS;
    assert!(
        per_plan <= PER_PLAN_BUDGET,
        "{PLANS} plans added {deployed} B live, {unique} B of them unique parameters: \
         {per_plan} B per plan beside them, budget {PER_PLAN_BUDGET} B"
    );

    // Traffic on every plan: a single row (request-response engine) and a
    // batch (the batch engine's queue-wait and stage histograms).
    for &id in &ids {
        client
            .predict(&PredictRequest::dense(row.clone()).plan(id))
            .unwrap();
        let scores = client
            .predict_many(&PredictRequest::dense_batch(vec![row.clone(); ROWS]).plan(id))
            .unwrap();
        assert_eq!(scores.len(), ROWS);
    }

    let live = alloc_meter::live_bytes();
    alloc_meter::reset_peak();
    let snapshot = client.stats().unwrap();
    let stats_peak = alloc_meter::peak_bytes() - live;
    assert_eq!(snapshot.plans.len(), PLANS);
    assert!(snapshot.plans.iter().all(|p| p.batch_requests == 1));
    assert!(
        stats_peak <= STATS_PEAK_BUDGET,
        "one STATS round trip over {PLANS} plans raised the live heap by {stats_peak} B \
         at its peak, budget {STATS_PEAK_BUDGET} B"
    );
    drop(snapshot);

    drop(client);
    frontend.stop();
}
