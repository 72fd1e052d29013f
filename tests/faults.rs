//! Fault containment, quarantine and versioned auto-rollback — the
//! "serve through failure" contract, exercised at the runtime API (the
//! wire-level half lives in `frontend_v2.rs`):
//!
//! * an operator panic is contained at the scheduler boundary and surfaces
//!   as a typed [`DataError::ExecutionFault`], with the runtime still
//!   serving afterwards;
//! * a plan faulting past `fault_quarantine_threshold` inside
//!   `FAULT_WINDOW` is quarantined (gate closed) and each alias bound to
//!   it rolls back to its most recent live predecessor;
//! * the unwind path is pool-safe: a multi-threaded fault storm over the
//!   execution plane leaks no leased buffer
//!   ([`Runtime::pool_outstanding`] returns to exactly zero).
//!
//! These tests enable the `fault-op` feature of `pretzel-ops` (a
//! dev-dependency of the workspace façade) to build plans that panic on a
//! marker substring; the custom panic hook below keeps the expected
//! panics out of test output without hiding real assertion failures.

use pretzel_core::clock::Clock;
use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig, FAULT_WINDOW};
use pretzel_core::scheduler::Record;
use pretzel_data::DataError;
use pretzel_ops::fault::FaultParams;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::{synth, Op};
use pretzel_workload::adversarial::{FaultSaltedText, FAULT_MARKER};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Silences panics raised by the fault op (they are the *point* of these
/// tests) while forwarding everything else — assertion failures in
/// concurrently running tests keep their messages.
fn quiet_fault_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let fault = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("fault-op:"));
            if !fault {
                default_hook(info);
            }
        }));
    });
}

/// A small text pipeline; `faulting` inserts the panic injector right
/// after field selection, so it sits on the path of every record.
fn build(seed: u64, faulting: bool) -> Flour {
    let ctx = FlourContext::new();
    let mut text = ctx.csv(',').select_text(1);
    if faulting {
        text = text.apply(Op::FaultInjector(Arc::new(FaultParams::new(FAULT_MARKER))));
    }
    text.tokenize()
        .char_ngram(Arc::new(synth::char_ngram(seed ^ 0xc, 3, 64)))
        .classifier_linear(Arc::new(synth::linear(
            seed ^ 0x1e,
            64,
            LinearKind::Logistic,
        )))
}

fn runtime(threshold: usize, executors: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        n_executors: executors,
        fault_quarantine_threshold: threshold,
        ..RuntimeConfig::default()
    })
}

const MARKED: &str = "3,ordinary words then __FAULT__ boom";
const CLEAN: &str = "3,ordinary words only";

#[test]
fn contained_fault_returns_typed_error_and_serves_on() {
    quiet_fault_panics();
    // Threshold 0 disables quarantine: the plan keeps serving (and keeps
    // faulting), which isolates pure containment from recovery.
    let rt = runtime(0, 1);
    let id = rt.register(build(1, true).plan().unwrap()).unwrap();

    for round in 0..3 {
        match rt.predict(id, MARKED) {
            Err(DataError::ExecutionFault(msg)) => {
                assert!(
                    msg.contains("fault-op"),
                    "fault message should carry the panic payload, got: {msg}"
                );
            }
            other => panic!("round {round}: expected ExecutionFault, got {other:?}"),
        }
        // The very next clean request on the same plan succeeds — the
        // executor survived the unwind.
        assert!(rt.predict(id, CLEAN).unwrap().is_finite());
    }
    let faults = rt.metrics().plan(id).map(|p| p.faults).unwrap_or(0);
    assert_eq!(faults, 3, "telemetry should count each contained fault");
}

#[test]
fn batch_fault_is_contained_and_typed() {
    quiet_fault_panics();
    let rt = runtime(0, 2);
    let id = rt.register(build(2, true).plan().unwrap()).unwrap();

    let records = vec![
        Record::Text(CLEAN.into()),
        Record::Text(MARKED.into()),
        Record::Text(CLEAN.into()),
    ];
    match rt.predict_batch_wait(id, records) {
        Err(DataError::ExecutionFault(_)) => {}
        other => panic!("expected ExecutionFault for the faulting chunk, got {other:?}"),
    }
    // Clean batches on the same plan still serve.
    let scores = rt
        .predict_batch_wait(id, vec![Record::Text(CLEAN.into()); 4])
        .unwrap();
    assert_eq!(scores.len(), 4);
}

#[test]
fn quarantine_closes_gate_and_rolls_alias_back() {
    quiet_fault_panics();
    let rt = runtime(3, 2);
    use pretzel_core::lifecycle::DeployOptions;
    let predecessor = rt
        .deploy(
            &build(3, false).graph().to_model_image(),
            DeployOptions {
                alias: Some("canary".into()),
                reserved: false,
            },
        )
        .unwrap();
    let faulty = rt
        .deploy(
            &build(4, true).graph().to_model_image(),
            DeployOptions::default(),
        )
        .unwrap();
    assert_eq!(rt.swap("canary", faulty).unwrap(), Some(predecessor));

    // Trip the threshold: three contained faults inside the window.
    for _ in 0..3 {
        assert!(matches!(
            rt.predict(faulty, MARKED),
            Err(DataError::ExecutionFault(_))
        ));
    }
    // The gate is now closed: direct requests get the typed quarantine
    // error instead of executing.
    assert!(matches!(
        rt.predict(faulty, CLEAN),
        Err(DataError::PlanQuarantined(id)) if id == faulty
    ));
    // The alias auto-rolled back to the predecessor, so alias traffic —
    // marked records included, the marker is plain text to a healthy
    // plan — keeps succeeding.
    assert_eq!(rt.resolve("canary"), Some(predecessor));
    assert!(rt
        .predict_source_alias("canary", pretzel_core::physical::SourceRef::Text(MARKED))
        .unwrap()
        .is_finite());

    let plans = rt.list_plans();
    let info = plans.iter().find(|p| p.id == faulty).unwrap();
    assert!(info.quarantined, "LIST must expose the quarantine flag");
    let snap = rt.metrics();
    let pm = snap.plan(faulty).expect("faulting plan has telemetry");
    assert!(pm.faults >= 3 && pm.quarantined);
}

/// A runtime on a manual clock, quarantining at `threshold` faults, with
/// one registered plan that faults on [`MARKED`].
fn faulting_on_manual_clock(threshold: usize) -> (Runtime, Clock, PlanId) {
    let clock = Clock::manual();
    let rt = Runtime::with_clock(
        RuntimeConfig {
            n_executors: 1,
            fault_quarantine_threshold: threshold,
            ..RuntimeConfig::default()
        },
        clock.clone(),
    );
    let id = rt.register(build(8, true).plan().unwrap()).unwrap();
    (rt, clock, id)
}

fn assert_faults(rt: &Runtime, id: PlanId) {
    assert!(matches!(
        rt.predict(id, MARKED),
        Err(DataError::ExecutionFault(_))
    ));
}

#[test]
fn faults_older_than_the_window_expire() {
    quiet_fault_panics();
    let threshold = 3;
    let (rt, clock, id) = faulting_on_manual_clock(threshold);
    for _ in 1..threshold {
        assert_faults(&rt, id);
    }
    clock.advance(FAULT_WINDOW + Duration::from_millis(1));
    // The earlier faults left the window: this one is the only one in it.
    assert_faults(&rt, id);
    assert!(rt.predict(id, CLEAN).unwrap().is_finite());
    assert!(!rt.list_plans().iter().any(|p| p.quarantined));
}

#[test]
fn threshold_faults_inside_the_window_quarantine() {
    quiet_fault_panics();
    let threshold = 3;
    let (rt, clock, id) = faulting_on_manual_clock(threshold);
    // Spread across the whole window: the first fault is exactly
    // `FAULT_WINDOW` old when the last one lands, and still counts.
    assert_faults(&rt, id);
    for _ in 1..threshold {
        clock.advance(FAULT_WINDOW / (threshold as u32 - 1));
        assert_faults(&rt, id);
    }
    assert!(matches!(
        rt.predict(id, CLEAN),
        Err(DataError::PlanQuarantined(p)) if p == id
    ));
}

#[test]
fn manual_rollback_walks_the_version_stack() {
    let rt = runtime(3, 1);
    use pretzel_core::lifecycle::DeployOptions;
    let v1 = rt
        .deploy(
            &build(5, false).graph().to_model_image(),
            DeployOptions {
                alias: Some("m".into()),
                reserved: false,
            },
        )
        .unwrap();
    let v2 = rt
        .deploy(
            &build(6, false).graph().to_model_image(),
            DeployOptions::default(),
        )
        .unwrap();
    rt.swap("m", v2).unwrap();

    assert_eq!(rt.rollback("m").unwrap(), Some(v1));
    assert_eq!(rt.resolve("m"), Some(v1));
    // No live predecessor left: rollback is a clean no-op.
    assert_eq!(rt.rollback("m").unwrap(), None);
    assert_eq!(rt.resolve("m"), Some(v1));
}

/// The tentpole stress: a multi-threaded fault storm over the execution
/// plane (work stealing on) must lose no healthy request, kill
/// no executor, and leak no pooled buffer through the unwind path.
#[test]
fn unwind_safety_stress_keeps_pool_accounting_balanced() {
    quiet_fault_panics();
    // Quarantine disabled so the faulting plan keeps faulting for the
    // whole storm — maximum pressure on the unwind path.
    let rt = Arc::new(runtime(0, 4));
    let faulty = rt.register(build(7, true).plan().unwrap()).unwrap();
    let healthy: Vec<u32> = (0..2)
        .map(|k| rt.register(build(8 + k, false).plan().unwrap()).unwrap())
        .collect();

    // Warm every path once (RR and batch).
    for &id in healthy.iter().chain([&faulty]) {
        rt.predict(id, CLEAN).unwrap();
        rt.predict_batch_wait(id, vec![Record::Text(CLEAN.into()); 3])
            .unwrap();
    }

    let reqs = 120;
    let mut handles = Vec::new();
    // Three threads hammer the faulting plan with ~30%-salted traffic,
    // alternating single predicts and small batches (mid-batch panics).
    for t in 0..3u64 {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            let mut gen = FaultSaltedText::new(100 + t, 64, 0.3);
            let mut faults = 0usize;
            for i in 0..reqs {
                let outcome = if i % 4 == 3 {
                    let batch = gen
                        .lines(3)
                        .into_iter()
                        .map(|(l, _)| Record::Text(l))
                        .collect();
                    rt.predict_batch_wait(faulty, batch).map(|_| ())
                } else {
                    rt.predict(faulty, &gen.line().0).map(|_| ())
                };
                match outcome {
                    Ok(()) => {}
                    Err(DataError::ExecutionFault(_)) => faults += 1,
                    Err(e) => panic!("fault storm produced an untyped error: {e}"),
                }
            }
            faults
        }));
    }
    // Three threads drive clean traffic at the healthy plans; every one
    // of their requests must succeed while faults rage next to them.
    for (t, &id) in healthy.iter().cycle().take(3).enumerate() {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            let mut gen = FaultSaltedText::new(200 + t as u64, 64, 0.0);
            for i in 0..reqs {
                if i % 4 == 3 {
                    let batch = gen
                        .lines(3)
                        .into_iter()
                        .map(|(l, _)| Record::Text(l))
                        .collect();
                    rt.predict_batch_wait(id, batch)
                        .expect("healthy batch lost");
                } else {
                    rt.predict(id, &gen.line().0).expect("healthy request lost");
                }
            }
            0usize
        }));
    }
    let total_faults: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        total_faults >= 30,
        "storm should contain many faults, saw {total_faults}"
    );

    // Quiesce, then the leak check: executors return chunk working sets
    // asynchronously after delivering results, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if rt.pool_outstanding() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool leases leaked through the unwind path: {} outstanding \
             after {total_faults} contained faults",
            rt.pool_outstanding()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the plane still serves on every plan, including the faulty one.
    for &id in healthy.iter().chain([&faulty]) {
        assert!(rt.predict(id, CLEAN).unwrap().is_finite());
    }
    let faults_seen = rt.metrics().plan(faulty).map(|p| p.faults).unwrap_or(0);
    assert!(faults_seen as usize >= total_faults);
}
