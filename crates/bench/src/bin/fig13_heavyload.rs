//! Figure 13 (+ §5.4.1): heavy-load micro-benchmark — all 500 models in
//! one PRETZEL instance, Zipf(α=2) request skew, rising offered load.
//!
//! Half the models are "latency-sensitive" (batch size 1); the other half
//! receive 100-record batches. The paper reports throughput increasing
//! linearly with offered load until saturation (~25k QPS on their box)
//! while latency-sensitive latency degrades gracefully.

use pretzel_bench::{env_usize, fmt_dur, images_of, print_table};
use pretzel_core::runtime::{PlanId, Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_workload::load::{LatencyRecorder, Zipf};
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::time::{Duration, Instant};

struct LoadPoint {
    offered_rps: usize,
    achieved_qps: f64,
    sensitive_mean: Duration,
    sensitive_p99: Duration,
}

/// Runs one offered-load level for `duration`, returning what was achieved.
#[allow(clippy::too_many_arguments)] // load-generator knobs, called once
fn run_load(
    runtime: &Runtime,
    ids: &[PlanId],
    sa_lines: &[String],
    ac_records: &[String],
    sa_count: usize,
    offered_rps: usize,
    duration: Duration,
    batch: usize,
) -> LoadPoint {
    let mut zipf = Zipf::new(ids.len(), 2.0, offered_rps as u64);
    let interval = Duration::from_secs_f64(1.0 / offered_rps as f64);
    let start = Instant::now();
    let mut next = start;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut submitted_records = 0usize;
    let mut line_idx = 0usize;

    while start.elapsed() < duration {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        next += interval;
        let model = zipf.sample();
        // Even model index = latency-sensitive (batch 1); odd = batch jobs.
        let sensitive = model.is_multiple_of(2);
        let n = if sensitive { 1 } else { batch };
        let records: Vec<Record> = (0..n)
            .map(|j| {
                line_idx += 1;
                let lines = if model < sa_count {
                    sa_lines
                } else {
                    ac_records
                };
                Record::Text(lines[(line_idx + j) % lines.len()].clone())
            })
            .collect();
        let t0 = Instant::now();
        let handle = runtime.predict_batch(ids[model], records).unwrap();
        submitted_records += n;
        // Stamped on the executor that completes the request, not when
        // this loop harvests it.
        let done_tx = done_tx.clone();
        handle.on_complete(move |scores| {
            let _ = done_tx.send((t0, sensitive, Instant::now(), scores));
        });
    }
    drop(done_tx);
    let mut sensitive_lat = LatencyRecorder::new();
    for (t0, sensitive, done_at, scores) in done_rx {
        scores.unwrap();
        if sensitive {
            sensitive_lat.record(done_at.duration_since(t0));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    LoadPoint {
        offered_rps,
        achieved_qps: submitted_records as f64 / wall,
        sensitive_mean: sensitive_lat.mean().unwrap_or_default(),
        sensitive_p99: sensitive_lat.p99().unwrap_or_default(),
    }
}

fn main() {
    let sa = pretzel_bench::sa_workload();
    let ac = pretzel_bench::ac_workload();
    let mut images = images_of(&sa.graphs);
    let sa_count = images.len();
    images.extend(images_of(&ac.graphs));

    let cores = env_usize(
        "PRETZEL_CORES",
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(2).max(2))
            .unwrap_or(4),
    );
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: cores,
        chunk_size: 32,
        ..RuntimeConfig::default()
    });
    let ids = pretzel_bench::register_all(&runtime, &images).unwrap();
    println!(
        "loaded {} models into one Pretzel instance ({cores} executors)",
        ids.len()
    );

    let mut reviews = ReviewGen::new(61, sa.vocab.len(), 1.2);
    let sa_lines: Vec<String> = (0..64)
        .map(|_| format!("3,{}", reviews.review(10, 25)))
        .collect();
    let mut gen = StructuredGen::new(63, pretzel_bench::ac_config().input_dim);
    let ac_records: Vec<String> = (0..64).map(|_| gen.csv_line()).collect();

    // Warm every model once.
    for (k, &id) in ids.iter().enumerate() {
        let rec = if k < sa_count {
            Record::Text(sa_lines[0].clone())
        } else {
            Record::Text(ac_records[0].clone())
        };
        let _ = runtime.predict_batch_wait(id, vec![rec]).unwrap();
    }

    let batch = env_usize("PRETZEL_BATCH", 100);
    let secs = env_usize("PRETZEL_SECONDS", 2) as u64;
    let loads = [50usize, 100, 200, 300, 400, 500];
    let mut rows = Vec::new();
    for &rps in &loads {
        let point = run_load(
            &runtime,
            &ids,
            &sa_lines,
            &ac_records,
            sa_count,
            rps,
            Duration::from_secs(secs),
            batch,
        );
        rows.push(vec![
            point.offered_rps.to_string(),
            format!("{:.0}", point.achieved_qps),
            fmt_dur(point.sensitive_mean),
            fmt_dur(point.sensitive_p99),
        ]);
    }
    print_table(
        "Figure 13: heavy load (Zipf α=2, 50% latency-sensitive)",
        &[
            "offered req/s",
            "achieved QPS",
            "sensitive mean",
            "sensitive p99",
        ],
        &rows,
    );
    println!(
        "\nexpected shape — achieved QPS grows ~linearly with offered load \
         until executor saturation; latency-sensitive latency rises \
         gracefully, no collapse (paper Fig 13)."
    );
}
