//! Allocation budget of `Runtime::deploy`, process-wide.
//!
//! Pools are provisioned per size class: the first deploy of a shape
//! builds the working sets its classes are missing, and every later
//! deploy of a same-shaped plan finds them parked and allocates no pool
//! buffer. This binary installs the counting allocator and holds one test
//! on purpose: tests of one binary run on parallel threads and would
//! count each other's allocations (see `tests/frontend_budget.rs`).

use pretzel_core::flour::FlourContext;
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::alloc_meter::{self, CountingAlloc};
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const DEPLOYS: usize = 64;
/// Slack for what legitimately differs between two deploys — a registry
/// map doubling, the Object Store's map growing: a handful of calls and
/// ~20 KiB at most over the 64 deploys, against the ~800 calls and ~89 KB
/// of a deploy. A working set built and dropped on a full class is ten
/// calls or more.
const SLACK_ALLOCS: usize = 8;
const SLACK_BYTES: usize = 16 << 10;

/// What one deploy did to the heap.
#[derive(Clone, Copy)]
struct Deploy {
    allocs: usize,
    allocated: usize,
    live_after: usize,
}

/// SA pipelines of one shape: shared dictionaries, a classifier of their
/// own (so each deploy adds real per-plan state).
fn sa_image(seed: u64) -> Vec<u8> {
    let vocab = synth::vocabulary(0, 64);
    let ctx = FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
    c.concat(&w)
        .classifier_linear(Arc::new(synth::linear(seed, 128, LinearKind::Logistic)))
        .graph()
        .to_model_image()
}

#[test]
fn deploys_into_a_provisioned_class_allocate_no_pool_buffer() {
    let images: Vec<Vec<u8>> = (0..DEPLOYS as u64).map(|k| sa_image(5_000 + k)).collect();
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let mut deploys = Vec::with_capacity(DEPLOYS);
    let mut pooled_after_first = 0;
    for (k, image) in images.iter().enumerate() {
        let before = (alloc_meter::alloc_count(), alloc_meter::allocated_bytes());
        rt.deploy(image, DeployOptions::default()).unwrap();
        deploys.push(Deploy {
            allocs: alloc_meter::alloc_count() - before.0,
            allocated: alloc_meter::allocated_bytes() - before.1,
            live_after: alloc_meter::live_bytes(),
        });
        if k == 0 {
            pooled_after_first = rt.pool_retained_bytes();
            assert!(pooled_after_first > 0, "the first deploy provisions");
        }
        assert_eq!(
            rt.pool_retained_bytes(),
            pooled_after_first,
            "deploy {} added to the pools: same-shaped plans hold the provision of one",
            k + 1
        );
    }

    // Deploy 2 therefore measures what a plan costs outside the pools, and
    // no later deploy allocates more than that.
    let (first, second) = (deploys[0], deploys[1]);
    for (k, d) in deploys.iter().enumerate().skip(2) {
        assert!(
            d.allocs <= second.allocs + SLACK_ALLOCS
                && d.allocated <= second.allocated + SLACK_BYTES,
            "deploy {} made {} allocations of {} B, deploy 2 {} of {} B",
            k + 1,
            d.allocs,
            d.allocated,
            second.allocs,
            second.allocated
        );
    }
    let per_plan = second.live_after.saturating_sub(first.live_after);
    let live_after_all = deploys[DEPLOYS - 1].live_after;
    assert!(
        live_after_all <= first.live_after + (DEPLOYS - 1) * per_plan + SLACK_BYTES,
        "live heap {live_after_all} B after {DEPLOYS} deploys; {} B after one, {per_plan} B per plan",
        first.live_after
    );
}
