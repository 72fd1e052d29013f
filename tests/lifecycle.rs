//! Model lifecycle invariants: hot deploy/undeploy/swap under concurrency,
//! ref-counted Object Store reclamation, and the drain protocol.
//!
//! The acceptance bar (ISSUE 4): `unique_bytes`/catalog size return to
//! baseline after churn, `swap` loses zero in-flight or concurrent
//! requests (bitwise-identical scores on whichever version each request
//! landed on), and undeployed plans reject new submissions with a clean
//! `PlanRetired` error.

use pretzel_core::flour::FlourContext;
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::physical::SourceRef;
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig, TOMBSTONE_CAP};
use pretzel_core::scheduler::Record;
use pretzel_data::DataError;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_workload::churn::{self, ChurnConfig, ChurnEvent, ChurnWorkload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

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
fn deploy_undeploy_returns_store_and_catalog_to_baseline() {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let store = Arc::clone(rt.object_store());
    assert_eq!(store.unique_bytes(), 0);
    assert_eq!(rt.catalog_size(), 0);

    // Deploy N models sharing featurizers, score them, undeploy them all.
    let ids: Vec<PlanId> = (0..6)
        .map(|k| {
            rt.deploy(&sa_image(900 + k), DeployOptions::default())
                .unwrap()
        })
        .collect();
    assert!(store.unique_bytes() > 0);
    assert!(rt.catalog_size() > 0);
    assert_eq!(rt.plan_count(), 6);
    for &id in &ids {
        let score = rt.predict(id, "5,quite nice overall").unwrap();
        assert!((0.0..=1.0).contains(&score));
    }
    for &id in &ids {
        rt.undeploy(id).unwrap();
    }
    assert_eq!(store.unique_bytes(), 0, "all parameters reclaimed");
    assert_eq!(rt.catalog_size(), 0, "all stages collected");
    assert_eq!(rt.plan_count(), 0);

    // Tombstones stay addressable with a clean PlanRetired.
    for &id in &ids {
        let err = rt.predict(id, "1,x").unwrap_err();
        assert!(matches!(err, DataError::PlanRetired(i) if i == id), "{err}");
        let batch_err = rt
            .predict_batch_wait(id, vec![Record::Text("1,x".into())])
            .unwrap_err();
        assert!(
            matches!(batch_err, DataError::PlanRetired(_)),
            "{batch_err}"
        );
    }
    // Double undeploy is PlanRetired, unknown id stays unknown.
    assert!(matches!(
        rt.undeploy(ids[0]).unwrap_err(),
        DataError::PlanRetired(_)
    ));
    assert_eq!(
        rt.undeploy(10_000).unwrap_err(),
        DataError::UnknownPlan(10_000)
    );
}

#[test]
fn deploy_warms_batch_engine_pools_to_no_miss() {
    // One executor makes the lease sequence deterministic: the first
    // post-deploy batch must be served entirely from the working sets
    // deploy-time warming pre-leased — zero batch-engine pool misses.
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        chunk_size: 8,
        ..RuntimeConfig::default()
    });
    let id = rt
        .deploy(&sa_image(4242), DeployOptions::default())
        .unwrap();
    let misses_after_deploy = rt.scheduler_pool_stats().misses;
    let records: Vec<Record> = (0..24)
        .map(|i| Record::Text(format!("5,review number {i} was pretty nice")))
        .collect();
    let scores = rt.predict_batch_wait(id, records.clone()).unwrap();
    assert_eq!(scores.len(), 24);
    let s = rt.scheduler_pool_stats();
    let (hits, misses) = (s.hits, s.misses);
    assert_eq!(
        misses, misses_after_deploy,
        "first post-deploy batch paid a pool miss despite deploy-time warming"
    );
    assert!(hits > 0, "chunks should lease the pre-warmed working sets");

    // Swap-style redeploy: a second model's first batch is warm too.
    let id2 = rt
        .deploy(&sa_image(4243), DeployOptions::default())
        .unwrap();
    let misses_before = rt.scheduler_pool_stats().misses;
    rt.predict_batch_wait(id2, records).unwrap();
    let misses_after = rt.scheduler_pool_stats().misses;
    assert_eq!(
        misses_after, misses_before,
        "first post-swap batch paid a pool miss despite deploy-time warming"
    );
}

#[test]
fn same_shaped_plans_share_one_pool_provision() {
    // Pools are provisioned per size class, not per plan: the first deploy
    // builds the working sets, the next 31 find them parked.
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    rt.deploy(&sa_image(3100), DeployOptions::default())
        .unwrap();
    let pooled = rt.pool_retained_bytes();
    assert!(pooled > 0, "the first deploy provisions its classes");
    for k in 1..32 {
        rt.deploy(&sa_image(3100 + k), DeployOptions::default())
            .unwrap();
    }
    assert_eq!(
        rt.pool_retained_bytes(),
        pooled,
        "32 plans hold what one does"
    );
}

#[test]
fn plans_with_several_slots_of_one_class_serve_their_first_batch_warm() {
    // A Full AC pipeline has two Dense[input_dim] slots and a scratch
    // buffer of the same class: its chunk leases three buffers from one
    // class, so provisioning "two per class" would miss. One executor
    // keeps the lease sequence deterministic.
    let ac = pretzel_workload::ac::build(&pretzel_workload::ac::AcConfig {
        n_pipelines: 4,
        input_dim: 24,
        dense_input: true,
        seed: 77,
    });
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        chunk_size: 8,
        ..RuntimeConfig::default()
    });
    for graph in &ac.graphs {
        let id = rt
            .deploy(&graph.to_model_image(), DeployOptions::default())
            .unwrap();
        let widest = rt
            .plan(id)
            .unwrap()
            .working_set()
            .iter()
            .map(|need| need.count)
            .max()
            .unwrap();
        assert!(widest >= 2, "AC plans repeat their input class");
        let misses_after_deploy = rt.scheduler_pool_stats().misses;
        let records: Vec<Record> = (0..24)
            .map(|i| Record::Dense((0..24).map(|j| (i * 24 + j) as f32 * 0.1).collect()))
            .collect();
        rt.predict_batch_wait(id, records).unwrap();
        assert_eq!(
            rt.scheduler_pool_stats().misses,
            misses_after_deploy,
            "a plan leasing {widest} buffers of one class missed on its first batch"
        );
    }
    assert_eq!(rt.pool_outstanding(), 0);
}

#[test]
fn deploy_undeploy_cycles_leave_the_pools_flat() {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let mut pooled_after_first = 0;
    for cycle in 0..200 {
        let id = rt
            .deploy(&sa_image(8800 + cycle), DeployOptions::default())
            .unwrap();
        rt.undeploy(id).unwrap();
        if cycle == 0 {
            pooled_after_first = rt.pool_retained_bytes();
            assert!(pooled_after_first > 0);
        }
    }
    assert_eq!(rt.pool_retained_bytes(), pooled_after_first);
    assert_eq!(rt.pool_outstanding(), 0);
}

#[test]
fn a_reserved_plan_provisions_its_own_pool_only() {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        chunk_size: 8,
        ..RuntimeConfig::default()
    });
    let executor_bytes = || rt.metrics().pools.executor.retained_bytes;
    let reserved = rt
        .deploy(
            &sa_image(6100),
            DeployOptions {
                reserved: true,
                ..DeployOptions::default()
            },
        )
        .unwrap();
    let one_pool = executor_bytes();
    assert!(one_pool > 0, "the dedicated pool is provisioned");
    // The shared executors got nothing from it: a same-shaped unreserved
    // plan still has both of their pools to fill.
    rt.deploy(&sa_image(6101), DeployOptions::default())
        .unwrap();
    assert_eq!(executor_bytes(), 3 * one_pool);
    // And the reserved plan's first batch runs warm out of its own pool.
    let misses = rt.scheduler_pool_stats().misses;
    let records: Vec<Record> = (0..24)
        .map(|i| Record::Text(format!("3,reserved review number {i}")))
        .collect();
    rt.predict_batch_wait(reserved, records).unwrap();
    assert_eq!(rt.scheduler_pool_stats().misses, misses);
}

#[test]
fn undeploy_drains_in_flight_batches_before_reclaiming() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        chunk_size: 4,
        ..RuntimeConfig::default()
    }));
    let id = rt
        .deploy(&sa_image(7101), DeployOptions::default())
        .unwrap();
    let records: Vec<Record> = (0..200)
        .map(|i| Record::Text(format!("4,review number {i} is fine")))
        .collect();
    // Reference scores before any churn.
    let expect = rt.predict_batch_wait(id, records.clone()).unwrap();

    // Submit a large batch, then undeploy concurrently: the batch must
    // complete with correct scores (drain), and the store must be empty
    // afterwards.
    let handle = rt.predict_batch(id, records).unwrap();
    let rt2 = Arc::clone(&rt);
    let undeployer = std::thread::spawn(move || rt2.undeploy(id).unwrap());
    let scores = handle.wait().unwrap();
    assert_eq!(scores.len(), expect.len());
    for (i, (a, b)) in scores.iter().zip(&expect).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "record {i} diverged during drain");
    }
    let report = undeployer.join().unwrap();
    assert!(report.freed_param_bytes > 0);
    assert_eq!(rt.object_store().unique_bytes(), 0);
    assert_eq!(rt.plan_count(), 0);
}

#[test]
fn undeploy_joins_reserved_executor() {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let id = rt
        .deploy(
            &sa_image(7202),
            DeployOptions {
                alias: Some("res".into()),
                reserved: true,
            },
        )
        .unwrap();
    assert_eq!(rt.reserved_count(), 1);
    let scores = rt
        .predict_batch_wait(id, vec![Record::Text("1,ok".into()); 5])
        .unwrap();
    assert_eq!(scores.len(), 5);
    rt.undeploy(id).unwrap();
    assert_eq!(rt.reserved_count(), 0, "dedicated executor torn down");
    assert_eq!(rt.resolve("res"), None, "alias unbound on undeploy");
}

#[test]
fn swap_loses_no_concurrent_requests() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let line = "5,the same request every time";
    let v0 = rt
        .deploy(
            &sa_image(7300),
            DeployOptions {
                alias: Some("live".into()),
                reserved: false,
            },
        )
        .unwrap();
    let mut references = vec![rt.predict(v0, line).unwrap()];

    let stop = Arc::new(AtomicBool::new(false));
    let lost = Arc::new(AtomicUsize::new(0));
    let scored = Arc::new(AtomicUsize::new(0));
    let scorers: Vec<_> = (0..4)
        .map(|_| {
            let rt = Arc::clone(&rt);
            let stop = Arc::clone(&stop);
            let lost = Arc::clone(&lost);
            let scored = Arc::clone(&scored);
            std::thread::spawn(move || {
                let mut scores = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match rt.predict_source_alias("live", SourceRef::Text(line)) {
                        Ok(s) => {
                            scores.push(s);
                            scored.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                scores
            })
        })
        .collect();

    // Roll 8 versions through the alias while the scorers hammer it;
    // gate each round on scorer progress so the churn genuinely overlaps
    // live traffic (release builds can finish all rounds in microseconds).
    let mut current = v0;
    for k in 0..8u64 {
        let floor = scored.load(Ordering::Relaxed) + 4;
        while scored.load(Ordering::Relaxed) < floor {
            std::thread::yield_now();
        }
        let next = rt
            .deploy(&sa_image(7301 + k), DeployOptions::default())
            .unwrap();
        references.push(rt.predict(next, line).unwrap());
        assert_eq!(rt.swap("live", next).unwrap(), Some(current));
        rt.undeploy(current).unwrap();
        current = next;
    }
    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    for s in scorers {
        for score in s.join().unwrap() {
            total += 1;
            assert!(
                references.iter().any(|r| r.to_bits() == score.to_bits()),
                "score {score} matches no deployed version"
            );
        }
    }
    assert_eq!(lost.load(Ordering::Relaxed), 0, "no alias request lost");
    assert!(total > 0, "scorers made progress");
    let (deploys, undeploys, swaps) = rt.lifecycle_stats().counts();
    // 1 aliased deploy + 8 version deploys; 8 undeploys; 8 explicit swaps
    // (the deploy-time alias bind is not a swap).
    assert_eq!((deploys, undeploys, swaps), (9, 8, 8));
}

#[test]
fn concurrent_deploy_score_undeploy_stress() {
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        chunk_size: 8,
        ..RuntimeConfig::default()
    }));
    let n_threads = 4;
    let cycles = 6;
    let workers: Vec<_> = (0..n_threads)
        .map(|t| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                for c in 0..cycles {
                    let seed = 8000 + (t * 100 + c) as u64;
                    let id = rt
                        .deploy(&sa_image(seed), DeployOptions::default())
                        .unwrap();
                    let line = format!("3,thread {t} cycle {c}");
                    let single = rt.predict(id, &line).unwrap();
                    let batch = rt
                        .predict_batch_wait(id, vec![Record::Text(line.clone()); 17])
                        .unwrap();
                    for s in batch {
                        assert_eq!(s.to_bits(), single.to_bits());
                    }
                    let report = rt.undeploy(id).unwrap();
                    assert!(report.freed_param_bytes > 0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(rt.plan_count(), 0);
    assert_eq!(
        rt.object_store().unique_bytes(),
        0,
        "stress churn leaks parameters"
    );
    assert_eq!(rt.catalog_size(), 0, "stress churn leaks stages");
}

#[test]
fn churn_script_replays_cleanly_and_returns_to_baseline() {
    let workload = churn::build(&ChurnConfig::tiny());
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let mut live: Vec<Option<PlanId>> = vec![None; 3];
    let mut previous: Vec<Option<PlanId>> = vec![None; 3];
    let mut line = 0usize;
    for event in &workload.events {
        match *event {
            ChurnEvent::Deploy { slot, version } => {
                let id = rt
                    .deploy(workload.image(slot, version), DeployOptions::default())
                    .unwrap();
                rt.swap(&ChurnWorkload::alias(slot), id).unwrap();
                previous[slot] = live[slot].replace(id);
            }
            ChurnEvent::UndeployPrevious { slot } => {
                let id = previous[slot]
                    .take()
                    .expect("script retires a live version");
                rt.undeploy(id).unwrap();
            }
            ChurnEvent::Score { slot, n } => {
                if live[slot].is_none() {
                    continue; // slot not deployed yet this round
                }
                for _ in 0..n {
                    let text = &workload.lines[line % workload.lines.len()];
                    line += 1;
                    rt.predict_source_alias(&ChurnWorkload::alias(slot), SourceRef::Text(text))
                        .unwrap();
                }
            }
        }
    }
    for id in live.into_iter().flatten() {
        rt.undeploy(id).unwrap();
    }
    assert_eq!(rt.object_store().unique_bytes(), 0);
    assert_eq!(rt.catalog_size(), 0);
    assert_eq!(rt.plan_count(), 0);
    assert_eq!(rt.pool_outstanding(), 0, "churn leaves no lease behind");
}

/// A section whose checksum is already resident is still verified against
/// its payload: the store's fast path never trusts the stored value.
#[test]
fn a_corrupt_copy_of_a_resident_section_fails_deploy() {
    let workload = churn::build(&ChurnConfig {
        n_slots: 1,
        ..ChurnConfig::tiny()
    });
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let live = rt
        .deploy(workload.image(0, 0), DeployOptions::default())
        .unwrap();
    let score_all = || -> Vec<u32> {
        workload
            .lines
            .iter()
            .map(|line| rt.predict(live, line).unwrap().to_bits())
            .collect()
    };
    let scores = score_all();
    let (entries, unique) = (rt.object_store().len(), rt.object_store().unique_bytes());

    // Version 1 shares version 0's CharNgram dictionary, which is now
    // resident; flip one byte in the middle of that dictionary's payload.
    let mut image = workload.image(0, 1).to_vec();
    let sections = pretzel_data::serde_bin::read_model_file(&image).unwrap();
    let dictionary = sections
        .iter()
        .find(|s| s.name.ends_with(".CharNgram"))
        .expect("an SA image has a CharNgram section")
        .entry("dictionary")
        .unwrap()
        .to_vec();
    let at = image
        .windows(dictionary.len())
        .position(|w| w == dictionary.as_slice())
        .expect("the payload is stored verbatim")
        + dictionary.len() / 2;
    image[at] ^= 0x01;

    let err = rt.deploy(&image, DeployOptions::default()).unwrap_err();
    assert!(
        matches!(&err, DataError::Codec(m) if m.contains("checksum")),
        "{err}"
    );
    assert_eq!(rt.object_store().len(), entries);
    assert_eq!(rt.object_store().unique_bytes(), unique);
    assert_eq!(rt.plan_count(), 1);
    assert_eq!(rt.pool_outstanding(), 0);
    assert_eq!(score_all(), scores, "the live plan scores as before");
}

/// Dropping the last `Arc<Runtime>` inside a completion callback tears the
/// scheduler down *on* an executor thread; teardown must not join the
/// thread it runs on.
#[test]
fn dropping_the_last_runtime_handle_in_a_completion_callback_is_clean() {
    // Whether the callback lands on an executor depends on the batch still
    // being in flight when `on_complete` registers; the batch is sized so
    // it practically always is, and a few rounds cover the rest.
    let mut on_executor = false;
    for round in 0..10 {
        let rt = Arc::new(Runtime::new(RuntimeConfig {
            n_executors: 2,
            chunk_size: 16,
            ..RuntimeConfig::default()
        }));
        let id = rt
            .deploy(&sa_image(7300 + round), DeployOptions::default())
            .unwrap();
        let records: Vec<Record> = (0..4000)
            .map(|i| Record::Text(format!("4,review number {i} is fine")))
            .collect();
        let handle = rt.predict_batch(id, records).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        handle.on_complete(move |result| {
            drop(rt); // the only handle: the runtime tears down right here
            let here = std::thread::current().name().map(str::to_owned);
            tx.send((result.map(|s| s.len()), here)).unwrap();
        });
        let (scored, thread) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("teardown inside the callback panicked or hung");
        assert_eq!(scored.unwrap(), 4000);
        if thread.is_some_and(|n| n.starts_with("pretzel-exec")) {
            on_executor = true;
            break;
        }
    }
    assert!(on_executor, "no round ran the callback on an executor");
}

/// ObjectStore intern/release property test: random interleavings of
/// retain and release over plans with overlapping parameter sets must keep
/// the store's contents equal to a reference model, and end empty.
#[test]
fn object_store_retain_release_property() {
    use pretzel_core::object_store::ObjectStore;
    use pretzel_core::physical::intern_plan;
    use std::collections::HashMap;

    // 8 plans drawing featurizers from a pool of 3, unique weights each.
    let shared: Vec<Arc<pretzel_ops::text::ngram::NgramParams>> = (0..3)
        .map(|v| Arc::new(synth::char_ngram(v as u64, 3, 64 + v * 16)))
        .collect();
    let logical_plans: Vec<_> = (0..8)
        .map(|k| {
            let ctx = FlourContext::new();
            let feats = ctx
                .text_source()
                .char_ngram(Arc::clone(&shared[k % shared.len()]));
            feats
                .classifier_linear(Arc::new(synth::linear(
                    9000 + k as u64,
                    shared[k % shared.len()].dim(),
                    LinearKind::Logistic,
                )))
                .plan()
                .unwrap()
        })
        .collect();

    // xorshift PRNG: deterministic, dependency-free schedule.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let store = ObjectStore::new();
    // Reference model: per-checksum refcount + byte size.
    let mut refcounts: HashMap<u64, (u64, usize)> = HashMap::new();
    let mut retained = Vec::new();

    let unique_params = |plan: &pretzel_core::plan::StagePlan| {
        let mut set: HashMap<u64, usize> = HashMap::new();
        for stage in &plan.stages {
            for step in &stage.steps {
                if let pretzel_core::plan::StageOp::Op(op) = &step.op {
                    set.insert(op.checksum(), op.heap_bytes());
                }
            }
        }
        set
    };

    for round in 0..400 {
        let retain = retained.is_empty() || (next() % 2 == 0 && retained.len() < 16);
        if retain {
            let mut plan = logical_plans[(next() % 8) as usize].clone();
            intern_plan(&mut plan, &store);
            let refs = store.retain_plan(&plan);
            for (sum, bytes) in unique_params(&plan) {
                let slot = refcounts.entry(sum).or_insert((0, bytes));
                slot.0 += 1;
            }
            retained.push((plan, refs));
        } else {
            let (plan, refs) = retained.swap_remove((next() % retained.len() as u64) as usize);
            store.release_plan(&refs);
            for (sum, _) in unique_params(&plan) {
                let slot = refcounts.get_mut(&sum).unwrap();
                slot.0 -= 1;
                if slot.0 == 0 {
                    refcounts.remove(&sum);
                }
            }
        }
        // Invariant: store contents == reference model.
        let expect_bytes: usize = refcounts.values().map(|&(_, b)| b).sum();
        assert_eq!(
            store.unique_bytes(),
            expect_bytes,
            "round {round}: resident bytes diverge from reference"
        );
        assert_eq!(store.len(), refcounts.len(), "round {round}");
        for (&sum, &(count, _)) in &refcounts {
            assert_eq!(
                store.plan_refs(sum),
                count,
                "round {round} checksum {sum:#x}"
            );
        }
    }
    for (_, refs) in retained.drain(..) {
        store.release_plan(&refs);
    }
    assert!(store.is_empty(), "full release must empty the store");
    assert_eq!(store.unique_bytes(), 0);
}

#[test]
fn borrowed_source_execute_is_bitwise_identical() {
    // The request-response engine now scores off the borrowed source; its
    // scores must be bitwise-identical to batch execution (which loads
    // sources into columnar slots) across text, dense, and sparse plans.
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let text_id = rt
        .deploy(&sa_image(7777), DeployOptions::default())
        .unwrap();
    let lines: Vec<String> = (0..9)
        .map(|i| format!("{},review {i} ok", 1 + i % 5))
        .collect();
    let records: Vec<Record> = lines.iter().map(|l| Record::Text(l.clone())).collect();
    let batch = rt.predict_batch_wait(text_id, records).unwrap();
    for (line, b) in lines.iter().zip(&batch) {
        assert_eq!(rt.predict(text_id, line).unwrap().to_bits(), b.to_bits());
    }

    // Dense pipeline (falls back to a one-time slot-0 materialization).
    let dim = 8;
    let ctx = FlourContext::new();
    let dense_plan = ctx
        .dense_source(dim)
        .scale(Arc::new(synth::scaler(1, dim)))
        .regressor_tree(Arc::new(synth::ensemble(
            2,
            dim,
            3,
            3,
            pretzel_ops::tree::EnsembleMode::Average,
        )))
        .plan()
        .unwrap();
    let dense_id = rt.register(dense_plan).unwrap();
    let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
    let single = rt.predict_dense(dense_id, &x).unwrap();
    let via_batch = rt
        .predict_batch_wait(dense_id, vec![Record::Dense(x.clone())])
        .unwrap();
    assert_eq!(single.to_bits(), via_batch[0].to_bits());

    // Sparse-linear pipeline (fully borrowed path).
    let sdim = 16usize;
    let ctx = FlourContext::new();
    let sparse_plan = ctx
        .sparse_source(sdim)
        .classifier_linear(Arc::new(synth::linear(5, sdim, LinearKind::Logistic)))
        .plan()
        .unwrap();
    let sparse_id = rt.register(sparse_plan).unwrap();
    let (indices, values) = (vec![1u32, 7, 12], vec![0.5f32, -2.0, 1.25]);
    let single = rt
        .predict_sparse(sparse_id, &indices, &values, sdim as u32)
        .unwrap();
    let via_batch = rt
        .predict_batch_wait(
            sparse_id,
            vec![Record::Sparse {
                indices,
                values,
                dim: sdim as u32,
            }],
        )
        .unwrap();
    assert_eq!(single.to_bits(), via_batch[0].to_bits());
}

#[test]
fn tombstones_are_bounded_under_continuous_churn() {
    // Retired ids keep failing with PlanRetired up to the tombstone cap;
    // beyond it the oldest compact away, but the retired-epoch watermark
    // keeps reporting them as PlanRetired exactly, so control-plane state
    // cannot grow without bound and old ids never degrade to "unknown".
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let tiny_plan = || {
        let ctx = FlourContext::new();
        ctx.text_source()
            .char_ngram(Arc::new(synth::char_ngram(3, 2, 8)))
            .classifier_linear(Arc::new(synth::linear(4, 8, LinearKind::Logistic)))
            .plan()
            .unwrap()
    };
    let cycles = TOMBSTONE_CAP + 76;
    for _ in 0..cycles {
        let id = rt.register(tiny_plan()).unwrap();
        rt.undeploy(id).unwrap();
    }
    let listed = rt.list_plans();
    assert!(
        listed.len() <= TOMBSTONE_CAP,
        "tombstones unbounded: {} entries",
        listed.len()
    );
    // Recent tombstones still report PlanRetired — and so do the oldest,
    // compacted ones, via the epoch watermark.
    let newest = (cycles - 1) as PlanId;
    assert!(matches!(
        rt.predict(newest, "x").unwrap_err(),
        DataError::PlanRetired(_)
    ));
    assert!(matches!(
        rt.predict(0, "x").unwrap_err(),
        DataError::PlanRetired(0)
    ));
    // A genuinely never-registered id is still distinguishable.
    let never = cycles as PlanId + 7;
    assert_eq!(
        rt.predict(never, "x").unwrap_err(),
        DataError::UnknownPlan(never)
    );
    assert_eq!(rt.object_store().unique_bytes(), 0);
}

#[test]
fn sparse_plans_deploy_from_model_images() {
    // Sparse sources round-trip through the serde_bin manifest (new tag),
    // so pre-featurized pipelines are hot-deployable too.
    let sdim = 24usize;
    let ctx = FlourContext::new();
    let graph = ctx
        .sparse_source(sdim)
        .classifier_linear(Arc::new(synth::linear(11, sdim, LinearKind::Regression)))
        .graph();
    let rt = Runtime::new(RuntimeConfig::default());
    let id = rt
        .deploy(&graph.to_model_image(), DeployOptions::default())
        .unwrap();
    let score = rt
        .predict_sparse(id, &[2, 9], &[1.0, -1.0], sdim as u32)
        .unwrap();
    assert!(score.is_finite());
    rt.undeploy(id).unwrap();
    assert_eq!(rt.object_store().unique_bytes(), 0);
}
