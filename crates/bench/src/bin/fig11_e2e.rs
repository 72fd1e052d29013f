//! Figure 11: end-to-end latency observed by a remote client — PRETZEL's
//! FrontEnd vs the ML.Net + Clipper container deployment.
//!
//! Paper: client-observed P99 is 4.3ms (SA) / 7.3ms (AC) for PRETZEL vs
//! 9.3ms / 18.0ms for ML.Net + Clipper; the client-server overhead
//! dominates the raw prediction in both systems.

use pretzel_baseline::clipper::{ClipperConfig, ClipperFrontEnd};
use pretzel_baseline::container::{Container, ContainerConfig};
use pretzel_bench::{env_usize, fmt_dur, images_of, print_table, time_it};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_workload::load::LatencyRecorder;
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

struct E2eResult {
    prediction: LatencyRecorder,
    client_server: LatencyRecorder,
}

fn measure_pretzel(images: &[Arc<Vec<u8>>], lines: &[String]) -> E2eResult {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 4,
        ..RuntimeConfig::default()
    }));
    let ids = pretzel_bench::register_all(&runtime, images).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();

    let mut prediction = LatencyRecorder::new();
    let mut client_server = LatencyRecorder::new();
    for (k, &id) in ids.iter().enumerate() {
        let line = &lines[k % lines.len()];
        for _ in 0..3 {
            let _ = client
                .predict(&PredictRequest::text(line.clone()).plan(id))
                .unwrap();
        }
        for _ in 0..20 {
            // Raw prediction latency (in-process) vs client-observed.
            let (_, d_pred) = time_it(|| runtime.predict(id, line).unwrap());
            prediction.record(d_pred);
            let req = PredictRequest::text(line.clone()).plan(id);
            let (_, d_e2e) = time_it(|| client.predict(&req).unwrap());
            client_server.record(d_e2e);
        }
    }
    fe.stop();
    E2eResult {
        prediction,
        client_server,
    }
}

fn measure_clipper(images: &[Arc<Vec<u8>>], lines: &[String]) -> LatencyRecorder {
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
    let fe = ClipperFrontEnd::serve(routes, ClipperConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();

    let mut rec = LatencyRecorder::new();
    for k in 0..containers.len() {
        let line = &lines[k % lines.len()];
        for _ in 0..3 {
            let _ = client
                .predict(&PredictRequest::text(line.clone()).plan(k as u32))
                .unwrap();
        }
        for _ in 0..20 {
            let req = PredictRequest::text(line.clone()).plan(k as u32);
            let (_, d) = time_it(|| client.predict(&req).unwrap());
            rec.record(d);
        }
    }
    fe.stop();
    for c in containers {
        c.stop();
    }
    rec
}

fn run_category(category: &str, images: &[Arc<Vec<u8>>], lines: &[String]) {
    let mut pretzel = measure_pretzel(images, lines);
    let mut clipper = measure_clipper(images, lines);
    print_table(
        &format!(
            "Figure 11 ({category}): end-to-end latency, {} pipelines",
            images.len()
        ),
        &["config", "p50", "p99", "worst"],
        &[
            vec![
                "Pretzel (prediction)".into(),
                fmt_dur(pretzel.prediction.p50().unwrap()),
                fmt_dur(pretzel.prediction.p99().unwrap()),
                fmt_dur(pretzel.prediction.worst().unwrap()),
            ],
            vec![
                "Pretzel (client-server)".into(),
                fmt_dur(pretzel.client_server.p50().unwrap()),
                fmt_dur(pretzel.client_server.p99().unwrap()),
                fmt_dur(pretzel.client_server.worst().unwrap()),
            ],
            vec![
                "ML.Net+Clipper".into(),
                fmt_dur(clipper.p50().unwrap()),
                fmt_dur(clipper.p99().unwrap()),
                fmt_dur(clipper.worst().unwrap()),
            ],
        ],
    );
    let p99 = |r: &mut LatencyRecorder| r.p99().unwrap().as_secs_f64();
    println!(
        "  client-server P99 over prediction P99: {:.1}x  (paper: 9x SA, 2.5x AC)",
        p99(&mut pretzel.client_server) / p99(&mut pretzel.prediction)
    );
    println!(
        "  Clipper P99 over Pretzel e2e P99: {:.1}x  (paper: ~2.2-2.5x)",
        p99(&mut clipper) / p99(&mut pretzel.client_server)
    );
}

fn main() {
    // End-to-end runs deploy one container per pipeline; default to a
    // manageable subset (override with PRETZEL_E2E_PIPELINES).
    let n = env_usize("PRETZEL_E2E_PIPELINES", 50);

    let mut sa_cfg = pretzel_bench::sa_config();
    sa_cfg.n_pipelines = n;
    let sa = pretzel_workload::sa::build(&sa_cfg);
    let mut reviews = ReviewGen::new(31, sa.vocab.len(), 1.2);
    let sa_lines: Vec<String> = (0..16)
        .map(|_| format!("4,{}", reviews.review(15, 30)))
        .collect();
    run_category("SA", &images_of(&sa.graphs), &sa_lines);

    let mut ac_cfg = pretzel_bench::ac_config();
    ac_cfg.n_pipelines = n;
    let ac = pretzel_workload::ac::build(&ac_cfg);
    let mut gen = StructuredGen::new(33, ac_cfg.input_dim);
    let ac_lines: Vec<String> = (0..16).map(|_| gen.csv_line()).collect();
    run_category("AC", &images_of(&ac.graphs), &ac_lines);
}
