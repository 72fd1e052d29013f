//! A/B testing scenario: many similar sentiment-analysis pipelines served
//! from one runtime, sharing featurizer parameters through the Object
//! Store.
//!
//! This is the paper's motivating deployment (§2): "A/B testing and
//! customer personalization are often used in practice in large scale
//! intelligent services; operators could therefore be shared between
//! similar pipelines."
//!
//! ```sh
//! cargo run -p pretzel-bench --release --example sentiment_ab_testing
//! ```

use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::alloc_meter::fmt_bytes;
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::ReviewGen;

fn main() {
    // 20 variants of the SA pipeline: shared tokenizer + a handful of
    // n-gram dictionary versions + per-variant weights (the A/B arms).
    let config = SaConfig {
        n_pipelines: 20,
        char_entries: 4000,
        word_entries_small: 100,
        word_entries_large: 1500,
        vocab_size: 2000,
        seed: 7,
    };
    let workload = pretzel_workload::sa::build(&config);
    let runtime = Runtime::new(RuntimeConfig::default());

    // Deploy every variant from its exported model file.
    let mut ids = Vec::new();
    let mut file_bytes = 0usize;
    for graph in &workload.graphs {
        let image = graph.to_model_image();
        file_bytes += image.len();
        let reloaded = pretzel_core::graph::TransformGraph::from_model_image(&image).unwrap();
        let plan = pretzel_core::oven::optimize(&reloaded).unwrap().plan;
        ids.push(runtime.register(plan).unwrap());
    }
    let store = runtime.object_store();
    println!(
        "deployed {} A/B arms: {} of model files -> {} unique parameter \
         objects ({}) resident, {} saved by dedup",
        ids.len(),
        fmt_bytes(file_bytes),
        store.len(),
        fmt_bytes(store.unique_bytes()),
        fmt_bytes(store.bytes_saved() as usize),
    );

    // Score the same user request against every arm (the A/B pattern).
    let mut reviews = ReviewGen::new(1, config.vocab_size, 1.2);
    let request = format!("5,{}", reviews.review(20, 30));
    println!("\nrequest: {request}");
    for (arm, &id) in ids.iter().enumerate() {
        let score = runtime.predict(id, &request).unwrap();
        let (cv, wv) = workload.assignment[arm];
        println!("  arm {arm:>2} (char v{cv}, word v{wv}) -> {score:.4}");
    }
    // Each arm compiles to one fused text stage. The stage embeds the arm's
    // own weights, so the catalog holds one per arm, while the dictionaries
    // those stages read are the Object Store's shared instances.
    println!(
        "\n{} arms run {} physical stages over {} shared parameter objects",
        ids.len(),
        runtime.catalog_size(),
        store.len(),
    );
}
