//! Figure 14: heavy-load end-to-end — PRETZEL's FrontEnd vs ML.Net +
//! Clipper, 250 AC pipelines, every request latency-sensitive (batch 1),
//! Zipf(α=2) skew, rising offered load.
//!
//! Paper: PRETZEL's throughput keeps rising to ~300 req/s then fluctuates;
//! ML.Net + Clipper is considerably lower and does not scale — "too many
//! context switches occur across/within containers".

use pretzel_baseline::clipper::{ClipperConfig, ClipperFrontEnd};
use pretzel_baseline::container::{Container, ContainerConfig};
use pretzel_bench::{env_usize, fmt_dur, images_of, print_table};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_workload::load::{LatencyRecorder, Zipf};
use pretzel_workload::text::StructuredGen;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Point {
    offered: usize,
    achieved: f64,
    mean: Duration,
    p99: Duration,
}

/// Drives `addr` with `offered` req/s from `workers` paced client threads
/// for `duration`; returns achieved QPS and latency stats.
fn drive(
    addr: SocketAddr,
    n_models: usize,
    dim: usize,
    offered: usize,
    workers: usize,
    duration: Duration,
) -> Point {
    let done: Vec<(usize, LatencyRecorder)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect_v2(addr).expect("connect");
                let mut zipf = Zipf::new(n_models, 2.0, (offered + w) as u64);
                // AC pipelines ingest CSV text (paper Table 1).
                let mut gen = StructuredGen::new(w as u64, dim);
                let records: Vec<String> = (0..32).map(|_| gen.csv_line()).collect();
                let interval = Duration::from_secs_f64(workers as f64 / offered as f64);
                let start = Instant::now();
                let mut next = start;
                let mut rec = LatencyRecorder::new();
                let mut count = 0usize;
                while start.elapsed() < duration {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                    }
                    next += interval;
                    let model = zipf.sample() as u32;
                    let x = &records[count % records.len()];
                    let t0 = Instant::now();
                    if client
                        .predict(&PredictRequest::text(x.clone()).plan(model))
                        .is_ok()
                    {
                        rec.record(t0.elapsed());
                        count += 1;
                    }
                }
                (count, rec)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total: usize = done.iter().map(|(c, _)| c).sum();
    let mut merged = LatencyRecorder::new();
    for (_, r) in &done {
        merged.merge(r);
    }
    Point {
        offered,
        achieved: total as f64 / duration.as_secs_f64(),
        mean: merged.mean().unwrap_or_default(),
        p99: merged.p99().unwrap_or_default(),
    }
}

fn main() {
    let n = env_usize("PRETZEL_E2E_PIPELINES", 100);
    let mut ac_cfg = pretzel_bench::ac_config();
    ac_cfg.n_pipelines = n;
    let dim = ac_cfg.input_dim;
    let ac = pretzel_workload::ac::build(&ac_cfg);
    let images = images_of(&ac.graphs);
    let secs = env_usize("PRETZEL_SECONDS", 2) as u64;
    let duration = Duration::from_secs(secs);
    let workers = env_usize("PRETZEL_CLIENTS", 8);
    let loads = [50usize, 100, 200, 300, 400, 500];

    // --- PRETZEL ---------------------------------------------------------
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: env_usize(
            "PRETZEL_CORES",
            std::thread::available_parallelism()
                .map(|p| p.get().saturating_sub(2).max(2))
                .unwrap_or(4),
        ),
        chunk_size: 16,
        ..RuntimeConfig::default()
    }));
    let _ids = pretzel_bench::register_all(&runtime, &images).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut pretzel_points = Vec::new();
    for &offered in &loads {
        pretzel_points.push(drive(fe.addr(), n, dim, offered, workers, duration));
    }
    fe.stop();
    drop(runtime);

    // --- ML.Net + Clipper --------------------------------------------------
    let containers: Vec<Container> = images
        .iter()
        .map(|img| {
            Container::spawn(
                Arc::clone(img),
                ContainerConfig {
                    overhead_bytes: 1 << 16,
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
    let mut clipper_points = Vec::new();
    for &offered in &loads {
        clipper_points.push(drive(cfe.addr(), n, dim, offered, workers, duration));
    }
    cfe.stop();
    for c in containers {
        c.stop();
    }

    // --- report ------------------------------------------------------------
    let rows: Vec<Vec<String>> = pretzel_points
        .iter()
        .zip(&clipper_points)
        .map(|(p, c)| {
            vec![
                p.offered.to_string(),
                format!("{:.0}", p.achieved),
                fmt_dur(p.mean),
                fmt_dur(p.p99),
                format!("{:.0}", c.achieved),
                fmt_dur(c.mean),
                fmt_dur(c.p99),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 14: heavy-load end-to-end, {n} AC pipelines (batch 1, Zipf α=2)"),
        &[
            "offered req/s",
            "Pretzel QPS",
            "Pretzel mean",
            "Pretzel p99",
            "Clipper QPS",
            "Clipper mean",
            "Clipper p99",
        ],
        &rows,
    );
    println!(
        "\nexpected shape — Pretzel tracks the offered load with low, stable \
         latency; ML.Net+Clipper plateaus earlier with higher latency \
         (paper Fig 14)."
    );
}
