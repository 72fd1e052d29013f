//! Serving-path integration: front ends, engines, scheduler under
//! concurrency, reservation, and the external optimizations.

use pretzel_baseline::clipper::{ClipperConfig, ClipperFrontEnd};
use pretzel_baseline::container::{Container, ContainerConfig};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::runtime::{RegisterOptions, Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::ReviewGen;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn small_workload(n: usize) -> (Vec<Arc<Vec<u8>>>, Vec<String>) {
    let w = pretzel_workload::sa::build(&SaConfig {
        n_pipelines: n,
        char_entries: 256,
        word_entries_small: 32,
        word_entries_large: 128,
        vocab_size: 256,
        seed: 0x77,
    });
    let mut gen = ReviewGen::new(3, 256, 1.2);
    let lines = (0..8).map(|_| format!("4,{}", gen.review(8, 20))).collect();
    (
        w.graphs
            .iter()
            .map(|g| Arc::new(g.to_model_image()))
            .collect(),
        lines,
    )
}

fn serve_runtime(images: &[Arc<Vec<u8>>], config: RuntimeConfig) -> (Arc<Runtime>, Vec<u32>) {
    let runtime = Arc::new(Runtime::new(config));
    let ids = images
        .iter()
        .map(|img| {
            let graph = pretzel_core::graph::TransformGraph::from_model_image(img).unwrap();
            let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
            runtime.register(plan).unwrap()
        })
        .collect();
    (runtime, ids)
}

#[test]
fn concurrent_clients_over_tcp_get_consistent_answers() {
    let (images, lines) = small_workload(4);
    let (runtime, ids) = serve_runtime(
        &images,
        RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        },
    );
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let addr = fe.addr();
    let expected: Vec<f32> = ids
        .iter()
        .map(|&id| runtime.predict(id, &lines[0]).unwrap())
        .collect();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let lines = lines.clone();
            let ids = ids.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_v2(addr).unwrap();
                for round in 0..20 {
                    let k = (t + round) % ids.len();
                    let got = client
                        .predict(&PredictRequest::text(lines[0].clone()).plan(ids[k]))
                        .unwrap();
                    assert!((got - expected[k]).abs() < 1e-6);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    fe.stop();
}

#[test]
fn batch_engine_handles_many_concurrent_batches() {
    let (images, lines) = small_workload(6);
    let (runtime, ids) = serve_runtime(
        &images,
        RuntimeConfig {
            n_executors: 4,
            chunk_size: 4,
            ..RuntimeConfig::default()
        },
    );
    let records: Vec<Record> = (0..40)
        .map(|i| Record::Text(lines[i % lines.len()].clone()))
        .collect();
    let handles: Vec<_> = ids
        .iter()
        .cycle()
        .take(30)
        .map(|&id| runtime.predict_batch(id, records.clone()).unwrap())
        .collect();
    for h in handles {
        let scores = h.wait().unwrap();
        assert_eq!(scores.len(), 40);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
    // Every record completed.
    assert_eq!(
        runtime
            .scheduler_stats()
            .records_done
            .load(std::sync::atomic::Ordering::Relaxed),
        30 * 40
    );
}

#[test]
fn reserved_and_shared_plans_coexist() {
    let (images, lines) = small_workload(3);
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let mut ids = Vec::new();
    for (i, img) in images.iter().enumerate() {
        let graph = pretzel_core::graph::TransformGraph::from_model_image(img).unwrap();
        let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
        let opts = RegisterOptions { reserved: i == 0 };
        ids.push(runtime.register_with(plan, opts).unwrap());
    }
    let records: Vec<Record> = lines.iter().map(|l| Record::Text(l.clone())).collect();
    let handles: Vec<_> = ids
        .iter()
        .cycle()
        .take(12)
        .map(|&id| runtime.predict_batch(id, records.clone()).unwrap())
        .collect();
    for h in handles {
        assert_eq!(h.wait().unwrap().len(), lines.len());
    }
}

#[test]
fn delayed_batching_coalesces_and_answers_correctly() {
    let (images, lines) = small_workload(2);
    let (runtime, ids) = serve_runtime(
        &images,
        RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        },
    );
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            result_cache_bytes: 0,
            batch_delay: Some(Duration::from_millis(3)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let addr = fe.addr();
    let expect = runtime.predict(ids[0], &lines[1]).unwrap();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let line = lines[1].clone();
            let id = ids[0];
            std::thread::spawn(move || {
                let mut client = Client::connect_v2(addr).unwrap();
                client
                    .predict(&PredictRequest::text(line).plan(id).delayed())
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        assert!((h.join().unwrap() - expect).abs() < 1e-6);
    }
    fe.stop();
}

#[test]
fn clipper_and_pretzel_agree_end_to_end() {
    let (images, lines) = small_workload(3);
    let (runtime, ids) = serve_runtime(
        &images,
        RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        },
    );
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();

    let containers: Vec<Container> = images
        .iter()
        .map(|img| {
            Container::spawn(
                Arc::clone(img),
                ContainerConfig {
                    overhead_bytes: 1 << 12,
                    preload: true,
                },
            )
            .unwrap()
        })
        .collect();
    let routes: HashMap<u32, SocketAddr> = containers
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c.addr()))
        .collect();
    let cfe = ClipperFrontEnd::serve(routes, ClipperConfig::default()).unwrap();

    let mut pclient = Client::connect_v2(fe.addr()).unwrap();
    let mut cclient = Client::connect_v2(cfe.addr()).unwrap();
    for (k, &id) in ids.iter().enumerate() {
        for line in &lines {
            let p = pclient
                .predict(&PredictRequest::text(line.clone()).plan(id))
                .unwrap();
            let c = cclient
                .predict(&PredictRequest::text(line.clone()).plan(k as u32))
                .unwrap();
            assert!(
                (p - c).abs() < 1e-5,
                "plan {k} `{line}`: pretzel {p} vs clipper {c}"
            );
        }
    }
    fe.stop();
    cfe.stop();
    for c in containers {
        c.stop();
    }
}

#[test]
fn runtime_survives_malformed_inputs() {
    let (images, _) = small_workload(1);
    let (runtime, ids) = serve_runtime(
        &images,
        RuntimeConfig {
            n_executors: 1,
            ..RuntimeConfig::default()
        },
    );
    // A dense record into a text pipeline fails cleanly...
    assert!(runtime.predict_dense(ids[0], &[1.0, 2.0]).is_err());
    // ...and the runtime still serves afterwards.
    assert!(runtime.predict(ids[0], "3,still works").is_ok());
    // Batch with one bad record fails the batch, not the process.
    let records = vec![Record::Text("3,fine".into()), Record::Dense(vec![1.0])];
    assert!(runtime.predict_batch_wait(ids[0], records).is_err());
    assert!(runtime.predict(ids[0], "3,still works").is_ok());
}
