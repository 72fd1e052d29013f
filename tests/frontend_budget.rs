//! Allocation budget of the serving path, process-wide.
//!
//! This binary installs the counting allocator, so every allocation made
//! by the client, the reactor and the executors between two readings is
//! counted. It holds one test on purpose: tests of one binary run on
//! parallel threads and would count each other's allocations.

use pretzel_core::frontend::{FrontEnd, FrontEndConfig, PredictRequest, Session};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::alloc_meter::{self, CountingAlloc};
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::ReviewGen;
use std::collections::VecDeque;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Requests in flight, as in the serving benchmark's single-row workloads.
const WINDOW: usize = 64;

/// Drives `requests` round-robin through a closed loop of `window`
/// requests in flight until `total` have completed; returns the
/// allocations the whole process made per request.
fn allocs_per_request(
    session: &Session,
    requests: &[PredictRequest],
    window: usize,
    total: usize,
) -> f64 {
    let before = alloc_meter::alloc_count();
    let mut in_flight = VecDeque::with_capacity(window);
    let mut sent = 0;
    while sent < total || !in_flight.is_empty() {
        while in_flight.len() < window && sent < total {
            in_flight.push_back(session.submit(&requests[sent % requests.len()]).unwrap());
            sent += 1;
        }
        let oldest = in_flight.pop_front().expect("window is never empty here");
        assert!(!oldest.wait().unwrap().is_empty());
    }
    (alloc_meter::alloc_count() - before) as f64 / total as f64
}

#[test]
fn steady_state_requests_stay_inside_their_allocation_budget() {
    let workload = pretzel_workload::sa::build(&SaConfig {
        n_pipelines: 4,
        char_entries: 256,
        word_entries_small: 32,
        word_entries_large: 128,
        vocab_size: 256,
        seed: 0xB0D6,
    });
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let ids: Vec<u32> = workload
        .graphs
        .iter()
        .map(|g| {
            let plan = pretzel_core::oven::optimize(g).unwrap().plan;
            runtime.register(plan).unwrap()
        })
        .collect();
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            reactor_threads: 1,
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let mut gen = ReviewGen::new(11, 256, 1.2);
    let lines: Vec<String> = (0..256)
        .map(|_| format!("4,{}", gen.review(8, 40)))
        .collect();
    let session = Session::connect(fe.addr()).unwrap();

    // Single-row text requests: what is left per request is the score
    // vector `wait` hands to the caller (7.0 per request before the
    // single-request fast lane).
    let singles: Vec<PredictRequest> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| PredictRequest::text(l.as_str()).plan(ids[i % ids.len()]))
        .collect();
    allocs_per_request(&session, &singles, WINDOW, 4_000); // warm-up
    let per_single = allocs_per_request(&session, &singles, WINDOW, 20_000);
    assert!(
        per_single <= 1.5,
        "{per_single:.2} allocations per single-row request (budget 1.5)"
    );

    // 256-row batch requests, 4 chunks each: no more than the 31.6 per
    // request this same loop measured at the commit before the fast lane
    // (18.0 with it).
    let batches: Vec<PredictRequest> = (0..8)
        .map(|i| {
            let rows = (0..256).map(|r| lines[(i * 31 + r) % lines.len()].as_str());
            PredictRequest::text_batch(rows).plan(ids[i % ids.len()])
        })
        .collect();
    allocs_per_request(&session, &batches, 8, 200); // warm-up
    let per_batch = allocs_per_request(&session, &batches, 8, 1_000);
    assert!(
        per_batch <= 31.6,
        "{per_batch:.2} allocations per 256-row batch request (31.6 before the fast lane)"
    );

    drop(session);
    fe.stop();
}
