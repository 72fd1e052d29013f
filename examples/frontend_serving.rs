//! Remote serving: a PRETZEL FrontEnd over TCP with prediction-result
//! caching and delayed batching, driven by concurrent clients — the
//! deployment shape of the paper's end-to-end experiments (Figures 11/14).
//!
//! ```sh
//! cargo run -p pretzel-bench --release --example frontend_serving
//! ```

use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::ReviewGen;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Deploy a handful of SA variants behind one front end.
    let config = SaConfig {
        n_pipelines: 8,
        char_entries: 2000,
        word_entries_small: 64,
        word_entries_large: 800,
        vocab_size: 1000,
        seed: 99,
    };
    let workload = pretzel_workload::sa::build(&config);
    let runtime = Arc::new(Runtime::new(RuntimeConfig::default()));
    let mut ids = Vec::new();
    for graph in &workload.graphs {
        let plan = pretzel_core::oven::optimize(graph).unwrap().plan;
        ids.push(runtime.register(plan).unwrap());
    }
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            result_cache_bytes: 4 << 20,
            batch_delay: Some(Duration::from_millis(1)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    println!("PRETZEL front end listening on {}", fe.addr());

    // Concurrent clients issue requests; repeated requests hit the
    // prediction-result cache.
    let addr = fe.addr();
    let n_clients = 4;
    let requests_each = 200;
    let handles: Vec<_> = (0..n_clients)
        .map(|c| {
            let ids = ids.clone();
            std::thread::spawn(move || {
                let mut reviews = ReviewGen::new(c as u64, 1000, 1.2);
                let mut client = Client::connect_v2(addr).unwrap();
                // A small hot set of request lines so the cache can work.
                let lines: Vec<String> = (0..10)
                    .map(|_| format!("4,{}", reviews.review(10, 25)))
                    .collect();
                let start = Instant::now();
                let mut total = 0.0f64;
                for i in 0..requests_each {
                    let id = ids[i % ids.len()];
                    let line = &lines[i % lines.len()];
                    let score = client
                        .predict(&PredictRequest::text(line.as_str()).plan(id).cached())
                        .unwrap();
                    total += f64::from(score);
                }
                (start.elapsed(), total)
            })
        })
        .collect();

    let mut grand_total = 0.0;
    let mut slowest = Duration::ZERO;
    for h in handles {
        let (elapsed, total) = h.join().unwrap();
        grand_total += total;
        slowest = slowest.max(elapsed);
    }
    let n = n_clients * requests_each;
    println!(
        "{n} requests from {n_clients} clients in {slowest:?} \
         ({:.0} req/s); checksum of scores {grand_total:.3}",
        n as f64 / slowest.as_secs_f64()
    );
    fe.stop();
}
