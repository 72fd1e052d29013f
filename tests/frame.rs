//! The request-response engine's frame: a session keeps the slots and the
//! scratch of every stage of the last plan it served, and runs all of a
//! plan's steps in one loop over them. These tests pin what that must not
//! change — scores bitwise those of the classic path and of the batch
//! engine, fault containment and pool accounting — on the shapes that
//! stress it: a source materialized into slot 0 half-way through a plan, a
//! session alternating between plans of different frame layouts, and an
//! operator that panics.

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::physical::{ExecCtx, ModelPlan, SourceRef};
use pretzel_core::plan::{Loc, StageOp};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_data::pool::VectorPool;
use pretzel_data::{DataError, Vector};
use pretzel_ops::fault::FaultParams;
use pretzel_ops::feat::normalizer::{NormKind, NormalizerParams};
use pretzel_ops::linear::LinearKind;
use pretzel_ops::{synth, Op};
use pretzel_workload::adversarial::FAULT_MARKER;
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::sync::{Arc, Once};

const DIM: usize = 6;

fn runtime(config: RuntimeConfig) -> Runtime {
    Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..config
    })
}

/// A text pipeline: CSV field, tokens, char and word n-grams, one linear
/// model (pushed down into two partial dots).
fn text_plan(seed: u64) -> Flour {
    let vocab = synth::vocabulary(seed, 64);
    let tokens = FlourContext::new().csv(',').select_text(1).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(seed ^ 1, 3, 64)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(seed ^ 2, 2, 64, &vocab)));
    c.concat(&w)
        .classifier_linear(Arc::new(synth::linear(seed ^ 3, 128, LinearKind::Logistic)))
}

/// A dense pipeline whose first steps to read the source are synthetic —
/// a linear model over `x ⧺ x`, pushed down through the Concat into two
/// partial dots over the raw row — and score off the borrowed row, and
/// whose second Concat, a library operator over the source and that
/// model's score, materializes the source into slot 0 in the middle of the
/// plan.
fn dense_plan(seed: u64) -> Flour {
    let x = FlourContext::new().dense_source(DIM);
    let first = x.concat(&x).classifier_linear(Arc::new(synth::linear(
        seed ^ 1,
        2 * DIM,
        LinearKind::Regression,
    )));
    x.concat(&first)
        .normalize(Arc::new(NormalizerParams::new(
            NormKind::L2,
            DIM as u32 + 1,
        )))
        .classifier_linear(Arc::new(synth::linear(
            seed ^ 3,
            DIM + 1,
            LinearKind::Regression,
        )))
}

fn text_lines(n: usize) -> Vec<String> {
    let mut gen = ReviewGen::new(3, 64, 1.2);
    (0..n).map(|_| format!("4,{}", gen.review(4, 20))).collect()
}

fn dense_rows(n: usize) -> Vec<Vec<f32>> {
    StructuredGen::new(9, DIM).records(n)
}

/// The classic path's score: source copied into slot 0, fresh context.
fn classic(plan: &ModelPlan, source: SourceRef<'_>) -> f32 {
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
    let mut slots: Vec<Vector> = plan
        .slot_types()
        .into_iter()
        .map(Vector::with_type)
        .collect();
    plan.execute(source, &mut slots, &mut ctx).unwrap()
}

/// Every way a row can be scored agrees bitwise with the classic path:
/// `execute_borrowed` on a reused context, the runtime's session (its
/// frame), and the row's place in a batch.
fn assert_paths_agree(rt: &Runtime, id: PlanId, records: &[Record]) {
    let plan = rt.plan(id).unwrap();
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
    let mut slots: Vec<Vector> = plan
        .slot_types()
        .into_iter()
        .map(Vector::with_type)
        .collect();
    let batch = rt.predict_batch_wait(id, records.to_vec()).unwrap();
    for (r, record) in records.iter().enumerate() {
        let source = record.as_source();
        let want = classic(&plan, source).to_bits();
        let borrowed = plan.execute_borrowed(source, &mut slots, &mut ctx).unwrap();
        let session = rt.predict_source(id, source).unwrap();
        assert_eq!(borrowed.to_bits(), want, "execute_borrowed, row {r}");
        assert_eq!(session.to_bits(), want, "session frame, row {r}");
        assert_eq!(batch[r].to_bits(), want, "batch engine, row {r}");
    }
}

#[test]
fn text_rows_score_bitwise_alike_on_every_path() {
    let rt = runtime(RuntimeConfig::default());
    let id = rt.register(text_plan(1).plan().unwrap()).unwrap();
    let records: Vec<Record> = text_lines(12).into_iter().map(Record::Text).collect();
    assert_paths_agree(&rt, id, &records);
    assert_eq!(rt.pool_outstanding(), 0);
}

#[test]
fn source_materialized_mid_plan_scores_bitwise_alike() {
    let rt = runtime(RuntimeConfig::default());
    let id = rt.register(dense_plan(2).plan().unwrap()).unwrap();
    // The shape under test: the first step to read the source is
    // synthetic and reads the borrowed row, a later one is a library
    // operator and reads slot 0.
    let plan = rt.plan(id).unwrap();
    let readers: Vec<&str> = plan
        .stages
        .iter()
        .flat_map(|s| &s.steps)
        .filter(|step| step.inputs.contains(&Loc::Slot(0)))
        .map(|step| step.op.name())
        .collect();
    assert_eq!(readers, ["PartialDot", "PartialDot", "Concat"], "{plan:#?}");
    assert!(matches!(
        plan.stages[0].steps[0].op,
        StageOp::PartialDot { .. }
    ));
    let records: Vec<Record> = dense_rows(12).into_iter().map(Record::Dense).collect();
    assert_paths_agree(&rt, id, &records);
    assert_eq!(rt.pool_outstanding(), 0);
}

#[test]
fn a_session_alternating_frame_layouts_scores_each_plan_exactly() {
    let rt = runtime(RuntimeConfig::default());
    let text = rt.register(text_plan(3).plan().unwrap()).unwrap();
    let dense = rt.register(dense_plan(4).plan().unwrap()).unwrap();
    let (text_plan, dense_plan) = (rt.plan(text).unwrap(), rt.plan(dense).unwrap());
    assert_ne!(text_plan.working_set(), dense_plan.working_set());
    let lines = text_lines(8);
    let rows = dense_rows(8);
    let mut session = rt.rr_session();
    for round in 0..2 {
        for (line, row) in lines.iter().zip(&rows) {
            let t = rt
                .predict_source_in(&mut session, text, SourceRef::Text(line))
                .unwrap();
            let d = rt
                .predict_source_in(&mut session, dense, SourceRef::Dense(row))
                .unwrap();
            let t_want = classic(&text_plan, SourceRef::Text(line));
            let d_want = classic(&dense_plan, SourceRef::Dense(row));
            assert_eq!(t.to_bits(), t_want.to_bits(), "round {round}: text");
            assert_eq!(d.to_bits(), d_want.to_bits(), "round {round}: dense");
        }
    }
    // The session holds one frame; the runtime does not count it as a leak.
    assert_eq!(rt.pool_outstanding(), 0);
    drop(session);
    assert_eq!(rt.pool_outstanding(), 0);
}

/// Keeps the fault op's expected panics out of the test output.
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

#[test]
fn a_session_scores_exactly_after_an_operator_panics_in_its_frame() {
    quiet_fault_panics();
    let rt = runtime(RuntimeConfig {
        fault_quarantine_threshold: 0,
        ..RuntimeConfig::default()
    });
    let ctx = FlourContext::new();
    let faulting = ctx
        .csv(',')
        .select_text(1)
        .apply(Op::FaultInjector(Arc::new(FaultParams::new(FAULT_MARKER))))
        .tokenize()
        .char_ngram(Arc::new(synth::char_ngram(7, 3, 64)))
        .classifier_linear(Arc::new(synth::linear(8, 64, LinearKind::Logistic)));
    let id = rt.register(faulting.plan().unwrap()).unwrap();
    let plan = rt.plan(id).unwrap();
    let marked = format!("3,words then {FAULT_MARKER} more");
    let mut session = rt.rr_session();
    for line in text_lines(4) {
        let err = rt
            .predict_source_in(&mut session, id, SourceRef::Text(&marked))
            .unwrap_err();
        assert!(matches!(err, DataError::ExecutionFault(_)), "{err:?}");
        let score = rt
            .predict_source_in(&mut session, id, SourceRef::Text(&line))
            .unwrap();
        let want = classic(&plan, SourceRef::Text(&line));
        assert_eq!(score.to_bits(), want.to_bits(), "after a fault: {line}");
        assert_eq!(rt.pool_outstanding(), 0);
    }
    // Each contained fault still records how long it ran.
    let metrics = rt.metrics();
    let pm = metrics.plan(id).unwrap();
    assert_eq!((pm.faults, pm.fault_ns.count()), (4, 4));
    drop(session);
    assert_eq!(rt.pool_outstanding(), 0);
}
