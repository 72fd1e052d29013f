//! The layer ladder of the traced run: the same schedule entries replayed
//! serially at successively deeper public entry points, one span per call,
//! then the kernels underneath and the lifecycle path.
//!
//! ```text
//! frontend.rtt            Session::submit + wait (window 1)
//! ├─ ingest.decode        BatchAssembler::decode_*_row into an ingest-pool lease
//! └─ scheduler.call       Runtime::predict_source | predict_batch_assembled_wait
//!    └─ physical.rr       ModelPlan::execute_borrowed          (single-row)
//!    └─ physical.plan     ModelPlan::execute_batch, per chunk  (batch)
//! physical.plan           ModelPlan::execute (single-row: the classic path)
//! └─ physical.stage0..3   PhysicalStage::execute | execute_batch
//! lifecycle.deploy        Runtime::deploy
//! ├─ object_store.image_decode   TransformGraph::from_model_image_shared
//! ├─ oven.optimize               oven::optimize
//! └─ lifecycle.register          Runtime::register
//! lifecycle.undeploy      Runtime::undeploy
//! ```

use crate::gen::{Inputs, Rng, Workload, DENSE_DIM};
use crate::report::{bypassed, metric, Metric};
use crate::server::N_EXECUTORS;
use crate::stats::median;
use crate::trace::Tracer;
use pretzel_core::frontend::{PredictRequest, Session};
use pretzel_core::graph::TransformGraph;
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::oven;
use pretzel_core::physical::{ExecCtx, ModelPlan, SourceRef};
use pretzel_core::runtime::{PlanId, Runtime};
use pretzel_data::hash::content_hash_text;
use pretzel_data::pool::VectorPool;
use pretzel_data::serde_bin::{wire, Cursor};
use pretzel_data::{simd, BatchAssembler, ColumnBatch, ColumnType, DataError, Result, Vector};
use pretzel_ops::text::ngram::NgramDict;
use std::sync::Arc;
use std::time::Instant;

/// Rows per batch-engine chunk (`RuntimeConfig::default().chunk_size`).
const CHUNK_ROWS: usize = 64;
/// In-process deploy/undeploy cycles of the lifecycle ladder.
const LIFECYCLE_CYCLES: usize = 32;
/// Span and metric name of each stage; stages beyond the fourth fold into
/// the last.
const STAGES: [(&str, &str); 4] = [
    ("physical.stage0", "physical.stage0_us_per_row"),
    ("physical.stage1", "physical.stage1_us_per_row"),
    ("physical.stage2", "physical.stage2_us_per_row"),
    ("physical.stage3", "physical.stage3_us_per_row"),
];

fn source_of(inputs: &Inputs, pool_row: u16) -> SourceRef<'_> {
    if inputs.workload.is_text() {
        SourceRef::Text(&inputs.lines[pool_row as usize])
    } else {
        SourceRef::Dense(&inputs.dense[pool_row as usize])
    }
}

/// The record bytes of a request as they sit on the wire.
fn record_bytes(inputs: &Inputs, rows: &[u16]) -> Vec<u8> {
    let mut body = Vec::new();
    for &i in rows {
        if inputs.workload.is_text() {
            wire::put_str(&mut body, &inputs.lines[i as usize]);
        } else {
            wire::put_f32s(&mut body, &inputs.dense[i as usize]);
        }
    }
    body
}

/// What the front end does between the frame and the engine: lease a batch
/// from the ingest pool and decode every record into it.
fn decode(runtime: &Runtime, inputs: &Inputs, body: &[u8], rows: usize) -> Result<BatchAssembler> {
    let ty = if inputs.workload.is_text() {
        ColumnType::Text
    } else {
        ColumnType::F32Dense { len: DENSE_DIM }
    };
    let lease = runtime.ingest_pool().acquire_batch(ty, rows);
    let mut asm = BatchAssembler::new_unhashed(lease).reject_non_finite(true);
    let mut cur = Cursor::new(body);
    for _ in 0..rows {
        let decoded = if inputs.workload.is_text() {
            asm.decode_text_row(&mut cur)
        } else {
            asm.decode_dense_row(&mut cur)
        };
        if let Err(e) = decoded {
            runtime.ingest_pool().release_batch(asm.finish().0);
            return Err(e);
        }
    }
    Ok(asm)
}

/// The plan a schedule entry's target is served by right now.
fn live_plan(
    runtime: &Runtime,
    inputs: &Inputs,
    plan_ids: &[PlanId],
    entry: usize,
) -> Result<PlanId> {
    let target = inputs.targets[entry] as usize;
    if inputs.workload == Workload::ChurnMixed {
        let alias = Inputs::alias(target);
        runtime
            .resolve(&alias)
            .ok_or_else(|| DataError::Runtime(format!("alias {alias} is unbound")))
    } else {
        Ok(plan_ids[target])
    }
}

fn stage_name(k: usize) -> &'static str {
    STAGES[k.min(STAGES.len() - 1)].0
}

/// Median of `values` scaled by `scale` (0 when there are none).
fn median_scaled(mut values: Vec<f64>, scale: f64) -> f64 {
    median(&mut values) * scale
}

/// The top rung on every workload: one serial round trip per entry. Returns
/// the span ids the deeper rungs hang under.
fn rtt_rung(
    session: &Session,
    requests: &[PredictRequest],
    entries: usize,
    tracer: &mut Tracer,
) -> Result<Vec<u32>> {
    let mut rtt_ids = Vec::with_capacity(entries);
    for e in 0..entries {
        let (id, scored) = tracer.time("frontend.rtt", None, e as u32, || {
            session.submit(&requests[e]).and_then(|p| p.wait())
        });
        scored?;
        rtt_ids.push(id);
    }
    Ok(rtt_ids)
}

/// The request rungs on a single-row workload (request-response engine).
fn single_row_rungs(
    inputs: &Inputs,
    runtime: &Runtime,
    plan_ids: &[PlanId],
    session: &Session,
    requests: &[PredictRequest],
    entries: usize,
    tracer: &mut Tracer,
) -> Result<()> {
    let pool = Arc::new(VectorPool::arena());
    let mut ctx = ExecCtx::new(Arc::clone(&pool));
    let rtt_ids = rtt_rung(session, requests, entries, tracer)?;
    for e in 0..entries {
        let body = record_bytes(inputs, inputs.request_rows(e));
        let (_, asm) = tracer.time("ingest.decode", Some(rtt_ids[e]), e as u32, || {
            decode(runtime, inputs, &body, 1)
        });
        runtime.ingest_pool().release_batch(asm?.finish().0);
    }
    let mut call_ids = Vec::with_capacity(entries);
    for e in 0..entries {
        let plan = live_plan(runtime, inputs, plan_ids, e)?;
        let source = source_of(inputs, inputs.request_rows(e)[0]);
        let (id, scored) = tracer.time("scheduler.call", Some(rtt_ids[e]), e as u32, || {
            runtime.predict_source(plan, source)
        });
        scored?;
        call_ids.push(id);
    }
    let with_slots = |plan: &ModelPlan, f: &mut dyn FnMut(&mut [Vector]) -> Result<()>| {
        let mut slots: Vec<Vector> = plan.slot_types().iter().map(|&t| pool.acquire(t)).collect();
        let out = f(&mut slots);
        for v in slots {
            pool.release(v);
        }
        out
    };
    for e in 0..entries {
        let plan = runtime.plan(live_plan(runtime, inputs, plan_ids, e)?)?;
        let source = source_of(inputs, inputs.request_rows(e)[0]);
        with_slots(&plan, &mut |slots| {
            let (_, scored) = tracer.time("physical.rr", Some(call_ids[e]), e as u32, || {
                plan.execute_borrowed(source, slots, &mut ctx)
            });
            scored.map(|_| ())
        })?;
    }
    let mut plan_span_ids = Vec::with_capacity(entries);
    for e in 0..entries {
        let plan = runtime.plan(live_plan(runtime, inputs, plan_ids, e)?)?;
        let source = source_of(inputs, inputs.request_rows(e)[0]);
        with_slots(&plan, &mut |slots| {
            let (id, scored) = tracer.time("physical.plan", None, e as u32, || {
                plan.execute(source, slots, &mut ctx)
            });
            plan_span_ids.push(id);
            scored.map(|_| ())
        })?;
    }
    for e in 0..entries {
        let plan = runtime.plan(live_plan(runtime, inputs, plan_ids, e)?)?;
        let source = source_of(inputs, inputs.request_rows(e)[0]);
        with_slots(&plan, &mut |slots| {
            source.load_into(&mut slots[0])?;
            for (k, stage) in plan.stages.iter().enumerate() {
                let parent = Some(plan_span_ids[e]);
                let (_, ran) = tracer.time(stage_name(k), parent, e as u32, || {
                    stage.execute(slots, &mut ctx)
                });
                ran?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// The request rungs on a batch workload (batch engine).
fn batch_rungs(
    inputs: &Inputs,
    runtime: &Runtime,
    plan_ids: &[PlanId],
    session: &Session,
    requests: &[PredictRequest],
    entries: usize,
    tracer: &mut Tracer,
) -> Result<()> {
    let rows = inputs.workload.rows_per_request();
    let pool = Arc::new(VectorPool::arena());
    let mut ctx = ExecCtx::new(Arc::clone(&pool));
    let rtt_ids = rtt_rung(session, requests, entries, tracer)?;
    let mut call_ids = Vec::with_capacity(entries);
    for e in 0..entries {
        let plan = live_plan(runtime, inputs, plan_ids, e)?;
        let body = record_bytes(inputs, inputs.request_rows(e));
        let (_, asm) = tracer.time("ingest.decode", Some(rtt_ids[e]), e as u32, || {
            decode(runtime, inputs, &body, rows)
        });
        let (batch, hashes) = asm?.finish();
        let (id, scored) = tracer.time("scheduler.call", Some(rtt_ids[e]), e as u32, || {
            runtime.predict_batch_assembled_wait(plan, batch, hashes)
        });
        scored?;
        call_ids.push(id);
    }
    // Each chunk twice, in two passes so both see the same cold caches:
    // whole through `ModelPlan::execute_batch`, then stage by stage.
    let mut scores = [0f32; CHUNK_ROWS];
    let mut plan_span_ids = Vec::new();
    for stage_by_stage in [false, true] {
        let mut chunk_index = 0;
        for e in 0..entries {
            let plan = runtime.plan(live_plan(runtime, inputs, plan_ids, e)?)?;
            let mut slots: Vec<ColumnBatch> = plan
                .batch_slot_types()
                .iter()
                .map(|&t| pool.acquire_batch(t, CHUNK_ROWS))
                .collect();
            let mut run_chunk = |chunk: &[u16], chunk_index: usize| -> Result<()> {
                let sources: Vec<SourceRef<'_>> =
                    chunk.iter().map(|&i| source_of(inputs, i)).collect();
                if !stage_by_stage {
                    let out = &mut scores[..sources.len()];
                    let parent = Some(call_ids[e]);
                    let (id, ran) = tracer.time("physical.plan", parent, e as u32, || {
                        plan.execute_batch(&sources, &mut slots, &mut ctx, out)
                    });
                    plan_span_ids.push(id);
                    return ran;
                }
                for slot in slots.iter_mut() {
                    slot.reset();
                }
                for source in &sources {
                    source.load_into_batch(&mut slots[0])?;
                }
                for (k, stage) in plan.stages.iter().enumerate() {
                    let parent = Some(plan_span_ids[chunk_index]);
                    let (_, ran) = tracer.time(stage_name(k), parent, e as u32, || {
                        stage.execute_batch(&mut slots, sources.len(), &mut ctx)
                    });
                    ran?;
                }
                Ok(())
            };
            let mut outcome = Ok(());
            for chunk in inputs.request_rows(e).chunks(CHUNK_ROWS) {
                outcome = run_chunk(chunk, chunk_index);
                chunk_index += 1;
                if outcome.is_err() {
                    break;
                }
            }
            for b in slots {
                pool.release_batch(b);
            }
            outcome?;
        }
    }
    Ok(())
}

/// Per-layer numbers of the request rungs.
fn request_metrics(inputs: &Inputs, tracer: &Tracer) -> Vec<Metric> {
    let rows = inputs.workload.rows_per_request();
    let batch = rows > 1;
    let per_chunk_row = 1e-3 / CHUNK_ROWS.min(rows) as f64;
    let rtt = tracer.durations_ns("frontend.rtt");
    let n = rtt.len();
    let rtt_us = median_scaled(rtt, 1e-3);
    let frontend_self_us = median_scaled(tracer.self_times_ns("frontend.rtt"), 1e-3);
    let ingest_ns_per_row = median_scaled(tracer.durations_ns("ingest.decode"), 1.0 / rows as f64);
    let ingest = |text: bool, name: &'static str| {
        if inputs.workload.is_text() == text {
            metric(name, ingest_ns_per_row, "ns", "")
        } else {
            bypassed(name, "ns")
        }
    };
    // A batch's chunks run on the two executors at once, so what the batch
    // engine adds is the call minus the chunks' ideal split, not minus their
    // sum.
    let scheduler_self_us = if batch {
        let calls = tracer.durations_ns("scheduler.call");
        let mut chunk_sum = vec![0f64; calls.len()];
        for s in tracer.spans().iter().filter(|s| s.name == "physical.plan") {
            chunk_sum[s.request as usize] += s.duration_ns() as f64;
        }
        let parallel = N_EXECUTORS.min(rows / CHUNK_ROWS) as f64;
        let extra: Vec<f64> = calls
            .iter()
            .zip(&chunk_sum)
            .map(|(call, chunks)| call - chunks / parallel)
            .collect();
        metric(
            "scheduler.self_us",
            median_scaled(extra, 1e-3),
            "us",
            "call - chunks/2",
        )
    } else {
        bypassed("scheduler.self_us", "us")
    };
    let rr_self = if batch {
        bypassed("scheduler.rr_self_us", "us")
    } else {
        metric(
            "scheduler.rr_self_us",
            median_scaled(tracer.self_times_ns("scheduler.call"), 1e-3),
            "us",
            "",
        )
    };
    let rr = if batch {
        bypassed("physical.rr_us_per_row", "us")
    } else {
        metric(
            "physical.rr_us_per_row",
            median_scaled(tracer.durations_ns("physical.rr"), 1e-3),
            "us",
            "",
        )
    };
    let plan_scale = if batch { per_chunk_row } else { 1e-3 };
    let mut metrics = vec![
        metric("frontend.rtt_us", rtt_us, "us", format!("n={n}, window 1")),
        metric(
            "frontend.self_us",
            frontend_self_us,
            "us",
            "rtt - ingest - engine call",
        ),
        metric(
            "frontend.self_share",
            frontend_self_us / rtt_us.max(f64::MIN_POSITIVE),
            "ratio",
            "",
        ),
        ingest(true, "ingest.text_ns_per_row"),
        ingest(false, "ingest.dense_ns_per_row"),
        scheduler_self_us,
        rr_self,
        metric(
            "physical.plan_us_per_row",
            median_scaled(tracer.durations_ns("physical.plan"), plan_scale),
            "us",
            "",
        ),
        rr,
    ];
    let mut stages_total = 0.0;
    let mut stage_metrics = Vec::new();
    for (span, name) in STAGES {
        let durations = tracer.durations_ns(span);
        if durations.is_empty() {
            stage_metrics.push(metric(name, 0.0, "us", "no plan has this stage"));
        } else {
            let n = durations.len();
            let us = median_scaled(durations, plan_scale);
            stages_total += us;
            stage_metrics.push(metric(name, us, "us", format!("n={n}")));
        }
    }
    metrics.push(metric(
        "physical.stages_us_per_row",
        stages_total,
        "us",
        "sum of stage medians",
    ));
    metrics.extend(stage_metrics);
    metrics.push(metric(
        "physical.self_us_per_row",
        median_scaled(tracer.self_times_ns("physical.plan"), plan_scale),
        "us",
        "source load + score copy",
    ));
    metrics
}

/// Best of five timed passes of `pass`, divided by `units`.
fn best_ns_per(units: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / units.max(1) as f64
}

/// Text kernels under the SA plans, on the workload's own lines and a live
/// dictionary.
fn text_kernel_metrics(inputs: &Inputs, seed: u64) -> Vec<Metric> {
    let Some(params) = &inputs.char_dict else {
        return vec![
            bypassed("ops.ngram_char_ns_per_byte", "ns"),
            bypassed("data.hash_ns_per_byte", "ns"),
            bypassed("data.probe_hit_ns", "ns"),
            bypassed("data.probe_miss_ns", "ns"),
        ];
    };
    let bytes: usize = inputs.lines.iter().map(String::len).sum();
    let ngram = best_ns_per(bytes, || {
        let mut hits = 0u64;
        for line in &inputs.lines {
            params.for_each_char_match(line, |idx| hits += idx as u64);
        }
        std::hint::black_box(hits);
    });
    let hash = best_ns_per(bytes, || {
        let mut acc = 0u64;
        for line in &inputs.lines {
            acc ^= content_hash_text(std::hint::black_box(line));
        }
        std::hint::black_box(acc);
    });
    let table = params.dict.flat_table();
    let present: Vec<u64> = params
        .dict
        .keys()
        .iter()
        .map(|k| NgramDict::hash_key(k, params.fold_case))
        .collect();
    let mut rng = Rng::new(seed ^ 0xab5e);
    let absent: Vec<u64> = (0..present.len()).map(|_| rng.next_u64()).collect();
    let probe = |hashes: &[u64]| {
        best_ns_per(hashes.len(), || {
            let mut found = 0u64;
            for &h in hashes {
                found += table.probe(std::hint::black_box(h)).is_some() as u64;
            }
            std::hint::black_box(found);
        })
    };
    vec![
        metric(
            "ops.ngram_char_ns_per_byte",
            ngram,
            "ns",
            format!("{bytes} bytes"),
        ),
        metric(
            "data.hash_ns_per_byte",
            hash,
            "ns",
            format!("{bytes} bytes"),
        ),
        metric(
            "data.probe_hit_ns",
            probe(&present),
            "ns",
            format!("{} keys", present.len()),
        ),
        metric(
            "data.probe_miss_ns",
            probe(&absent),
            "ns",
            format!("{} keys", absent.len()),
        ),
    ]
}

/// Dense kernels under the AC plans, at the workload's width and at 4 096.
fn dense_kernel_metrics(inputs: &Inputs, seed: u64) -> Vec<Metric> {
    const NAMES: [[&str; 4]; 2] = [
        [
            "data.simd_dot_ns_per_elem",
            "data.simd_centered_dot_ns_per_elem",
            "data.simd_sqdist_ns_per_elem",
            "data.simd_sparse_dot_ns_per_nnz",
        ],
        [
            "data.simd_dot_d4096_ns_per_elem",
            "data.simd_centered_dot_d4096_ns_per_elem",
            "data.simd_sqdist_d4096_ns_per_elem",
            "data.simd_sparse_dot_d4096_ns_per_nnz",
        ],
    ];
    if inputs.workload.is_text() {
        return NAMES
            .iter()
            .flatten()
            .map(|name| bypassed(name, "ns"))
            .collect();
    }
    let mut rng = Rng::new(seed ^ 0xd07);
    let mut metrics = Vec::new();
    for (names, dim) in NAMES.iter().zip([DENSE_DIM, 4096]) {
        let mut vector =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.unit() as f32 - 0.5).collect() };
        let (a, b, c) = (vector(dim), vector(dim), vector(dim));
        // Every fourth index: sorted, unique, in range.
        let indices: Vec<u32> = (0..dim as u32).step_by(4).collect();
        let values = vector(indices.len());
        let calls = (1 << 20) / dim;
        let kernels: [(usize, &dyn Fn() -> f32); 4] = [
            (dim, &|| simd::dot(std::hint::black_box(&a), &b)),
            (dim, &|| {
                simd::centered_dot(std::hint::black_box(&a), &b, &c)
            }),
            (dim, &|| {
                simd::squared_distance(std::hint::black_box(&a), &b)
            }),
            (indices.len(), &|| {
                simd::sparse_dot(std::hint::black_box(&indices), &values, &a)
            }),
        ];
        for (name, (elems, kernel)) in names.iter().zip(kernels) {
            let ns = best_ns_per(calls * elems, || {
                let mut acc = 0f32;
                for _ in 0..calls {
                    acc += std::hint::black_box(kernel());
                }
                std::hint::black_box(acc);
            });
            metrics.push(metric(name, ns, "ns", format!("dim {dim}")));
        }
    }
    metrics
}

/// One batch lease and return on a warm arena pool.
fn pool_lease_metric() -> Metric {
    let pool = VectorPool::arena();
    let ty = ColumnType::F32Dense { len: DENSE_DIM };
    pool.warm_batches(ty, CHUNK_ROWS, 0, 1);
    let leases = 1 << 16;
    let ns = best_ns_per(leases, || {
        for _ in 0..leases {
            let batch = pool.acquire_batch(ty, CHUNK_ROWS);
            pool.release_batch(std::hint::black_box(batch));
        }
    });
    metric(
        "data.pool_lease_ns",
        ns,
        "ns",
        "acquire_batch + release_batch, arena",
    )
}

/// The lifecycle path in process: `Runtime::deploy` whole, then the same
/// image through its three steps one at a time.
fn lifecycle_rungs(inputs: &Inputs, runtime: &Runtime, tracer: &mut Tracer) -> Result<()> {
    let store = Arc::clone(runtime.object_store());
    for k in 0..LIFECYCLE_CYCLES {
        let versions = &inputs.images[k % inputs.images.len()];
        let image = versions.last().expect("every target has a version");
        let request = k as u32;
        let (deploy_id, plan) = tracer.time("lifecycle.deploy", None, request, || {
            runtime.deploy(image, DeployOptions::default())
        });
        let plan = plan?;
        tracer
            .time("lifecycle.undeploy", None, request, || {
                runtime.undeploy(plan)
            })
            .1?;

        let (_, graph) = tracer.time(
            "object_store.image_decode",
            Some(deploy_id),
            request,
            || TransformGraph::from_model_image_shared(image, &store),
        );
        let graph = graph?;
        let (_, optimized) = tracer.time("oven.optimize", Some(deploy_id), request, || {
            oven::optimize(&graph)
        });
        let logical = optimized?.plan;
        let (_, plan) = tracer.time("lifecycle.register", Some(deploy_id), request, || {
            runtime.register(logical)
        });
        // What `Runtime::deploy` does after registering: reap the image
        // operators the optimizer compiled away.
        store.release_unreferenced(graph.nodes.iter().map(|n| n.op.checksum()));
        runtime.undeploy(plan?)?;
    }
    Ok(())
}

fn lifecycle_metrics(tracer: &Tracer) -> Vec<Metric> {
    let ms = |name: &'static str, span: &str, note: &str| {
        let durations = tracer.durations_ns(span);
        let n = durations.len();
        metric(
            name,
            median_scaled(durations, 1e-6),
            "ms",
            format!("{note}n={n}"),
        )
    };
    vec![
        ms(
            "lifecycle.deploy_ms",
            "lifecycle.deploy",
            "Runtime::deploy in process, ",
        ),
        ms(
            "object_store.image_decode_ms",
            "object_store.image_decode",
            "",
        ),
        ms("oven.optimize_ms", "oven.optimize", ""),
        ms("lifecycle.register_ms", "lifecycle.register", ""),
        ms("lifecycle.undeploy_ms", "lifecycle.undeploy", ""),
    ]
}

/// Replays `entries` schedule entries down the ladder, then the kernels and
/// the lifecycle path; returns the per-layer metrics.
#[allow(clippy::too_many_arguments)]
pub fn run(
    inputs: &Inputs,
    seed: u64,
    runtime: &Runtime,
    plan_ids: &[PlanId],
    session: &Session,
    requests: &[PredictRequest],
    entries: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>> {
    let entries = entries.min(requests.len());
    if inputs.workload.rows_per_request() > 1 {
        batch_rungs(
            inputs, runtime, plan_ids, session, requests, entries, tracer,
        )?;
    } else {
        single_row_rungs(
            inputs, runtime, plan_ids, session, requests, entries, tracer,
        )?;
    }
    let mut metrics = request_metrics(inputs, tracer);
    metrics.extend(text_kernel_metrics(inputs, seed));
    metrics.extend(dense_kernel_metrics(inputs, seed));
    metrics.push(pool_lease_metric());
    lifecycle_rungs(inputs, runtime, tracer)?;
    metrics.extend(lifecycle_metrics(tracer));
    Ok(metrics)
}
