//! Figure 12: batch throughput vs number of CPU cores, PRETZEL vs ML.Net,
//! for both categories, against ideal linear scaling.
//!
//! Paper: PRETZEL scales linearly with cores (shared parameters keep cache
//! lines shared); ML.Net scales worse because every thread owns private
//! model copies, pressuring the memory subsystem. Headline: up to 2.6x
//! (SA) / 10x (AC) higher throughput.

use pretzel_baseline::BlackBoxModel;
use pretzel_bench::{env_usize, images_of, print_table, time_it, wire_predict_batch};
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_workload::text::{ReviewGen, StructuredGen};
use std::sync::Arc;

fn pretzel_qps(images: &[Arc<Vec<u8>>], records: &[Record], cores: usize) -> f64 {
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: cores,
        chunk_size: 64,
        ..RuntimeConfig::default()
    });
    let ids = pretzel_bench::register_all(&runtime, images).unwrap();
    // Warm pools and catalogs.
    for &id in &ids {
        let _ = runtime
            .predict_batch_wait(id, records[..8.min(records.len())].to_vec())
            .unwrap();
    }
    let total = ids.len() * records.len();
    let (_, elapsed) = time_it(|| {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| runtime.predict_batch(id, records.to_vec()).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
    });
    total as f64 / elapsed.as_secs_f64()
}

/// End-to-end wire throughput: the same batch requests submitted through
/// the TCP FrontEnd with wire-to-columnar ingest (the full socket → batch
/// → kernel path rather than in-process submission).
fn wire_qps(images: &[Arc<Vec<u8>>], records: &[Record], cores: usize) -> f64 {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: cores,
        chunk_size: 64,
        ..RuntimeConfig::default()
    }));
    let ids = pretzel_bench::register_all(&runtime, images).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let addr = fe.addr();
    {
        let mut c = Client::connect(addr).unwrap();
        for &id in &ids {
            let _ = wire_predict_batch(&mut c, id, &records[..8.min(records.len())]).unwrap();
        }
    }
    let clients = cores.clamp(1, ids.len().max(1)).min(4);
    let shards: Vec<&[u32]> = ids.chunks(ids.len().div_ceil(clients)).collect();
    let total = ids.len() * records.len();
    let (_, elapsed) = time_it(|| {
        std::thread::scope(|scope| {
            for shard in &shards {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for &id in *shard {
                        wire_predict_batch(&mut c, id, records).unwrap();
                    }
                });
            }
        });
    });
    fe.stop();
    total as f64 / elapsed.as_secs_f64()
}

fn mlnet_qps(images: &[Arc<Vec<u8>>], records: &[Record], cores: usize) -> f64 {
    // ML.Net parallel scoring: models are partitioned across `cores`
    // threads; each thread instantiates its own copies ("each thread has
    // its own internal copy of models", paper §5.3).
    let total = images.len() * records.len();
    let records: Arc<Vec<Record>> = Arc::new(records.to_vec());
    let images: Vec<Arc<Vec<u8>>> = images.to_vec();

    // Pre-warm per-thread instances outside the timed region (the paper's
    // batch scenario scores already-loaded models).
    let mut partitions: Vec<Vec<BlackBoxModel>> = (0..cores).map(|_| Vec::new()).collect();
    for (i, img) in images.iter().enumerate() {
        let mut m = BlackBoxModel::from_image(Arc::clone(img));
        m.warm_up().unwrap();
        partitions[i % cores].push(m);
    }

    let (_, elapsed) = time_it(|| {
        std::thread::scope(|scope| {
            for part in partitions.iter_mut() {
                let records = Arc::clone(&records);
                scope.spawn(move || {
                    for model in part.iter_mut() {
                        for r in records.iter() {
                            let src = r.as_source();
                            let _ = model.predict(src).unwrap();
                        }
                    }
                });
            }
        });
    });
    total as f64 / elapsed.as_secs_f64()
}

fn run_category(category: &str, images: &[Arc<Vec<u8>>], records: &[Record], cores: &[usize]) {
    let mut rows = Vec::new();
    let mut pretzel_base = 0.0;
    let mut mlnet_base = 0.0;
    for (i, &c) in cores.iter().enumerate() {
        let p = pretzel_qps(images, records, c);
        let wire = wire_qps(images, records, c);
        let m = mlnet_qps(images, records, c);
        if i == 0 {
            pretzel_base = p / c as f64;
            mlnet_base = m / c as f64;
        }
        rows.push(vec![
            c.to_string(),
            format!("{:.0}", p),
            format!("{:.0}", pretzel_base * c as f64),
            format!("{:.0}", wire),
            format!("{:.0}", m),
            format!("{:.0}", mlnet_base * c as f64),
            format!("{:.2}x", p / m),
        ]);
    }
    print_table(
        &format!(
            "Figure 12 ({category}): throughput (QPS), {} models x {} records",
            images.len(),
            records.len()
        ),
        &[
            "cores", "Pretzel", "(ideal)", "wire", "ML.Net", "(ideal)", "speedup",
        ],
        &rows,
    );
    println!(
        "  expected shape — Pretzel tracks its ideal line; ML.Net falls \
         away as cores increase (paper: 2.6x SA, 10x AC at 13 cores); \
         `wire` is the full TCP ingest path (wire-to-columnar assembly)"
    );
}

fn main() {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let max_cores = env_usize("PRETZEL_CORES", avail.saturating_sub(1).max(1));
    let cores: Vec<usize> = [1usize, 2, 4, 8, 13, 16, 32]
        .into_iter()
        .filter(|&c| c <= max_cores)
        .collect();
    let batch = env_usize("PRETZEL_BATCH", 200);

    let sa = pretzel_bench::sa_workload();
    let mut reviews = ReviewGen::new(51, sa.vocab.len(), 1.2);
    let sa_records: Vec<Record> = (0..batch)
        .map(|_| Record::Text(format!("4,{}", reviews.review(10, 25))))
        .collect();
    run_category("SA", &images_of(&sa.graphs), &sa_records, &cores);

    let ac = pretzel_bench::ac_workload();
    let mut gen = StructuredGen::new(53, pretzel_bench::ac_config().input_dim);
    // AC pipelines ingest CSV text ("structured text", paper Table 1).
    let ac_records: Vec<Record> = (0..batch).map(|_| Record::Text(gen.csv_line())).collect();
    run_category("AC", &images_of(&ac.graphs), &ac_records, &cores);

    // Dense-ingest AC: the same pipelines fed pre-parsed feature vectors —
    // the data-plane-bound configuration, not masked by float parsing.
    let ac_dense = pretzel_bench::ac_dense_workload();
    let mut dense_gen = StructuredGen::new(53, pretzel_bench::ac_dense_config().input_dim);
    let dense_records: Vec<Record> = (0..batch)
        .map(|_| Record::Dense(dense_gen.record()))
        .collect();
    run_category(
        "AC_dense",
        &images_of(&ac_dense.graphs),
        &dense_records,
        &cores,
    );
}
