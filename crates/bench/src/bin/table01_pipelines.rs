//! Table 1: characteristics of the pipelines used in the experiments.
//!
//! Reports, per category, the input kind, on-disk model size range/mean and
//! the featurizer inventory — the synthetic workload's counterpart of the
//! paper's Table 1.

use pretzel_bench::{images_of, print_table};
use pretzel_data::alloc_meter::fmt_bytes;
use pretzel_ops::OpKind;
use std::collections::BTreeMap;

fn size_stats(images: &[std::sync::Arc<Vec<u8>>]) -> (usize, usize, usize) {
    let sizes: Vec<usize> = images.iter().map(|i| i.len()).collect();
    let min = sizes.iter().copied().min().unwrap_or(0);
    let max = sizes.iter().copied().max().unwrap_or(0);
    let mean = sizes.iter().sum::<usize>() / sizes.len().max(1);
    (min, max, mean)
}

fn featurizer_inventory(graphs: &[pretzel_core::graph::TransformGraph]) -> String {
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for g in graphs {
        for node in &g.nodes {
            let k = node.op.kind();
            if !k.is_predictor() && k != OpKind::CsvParse && k != OpKind::Concat {
                *kinds.entry(k.name()).or_default() += 1;
            }
        }
    }
    kinds
        .iter()
        .map(|(k, n)| format!("{k}×{n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let sa = pretzel_bench::sa_workload();
    let ac = pretzel_bench::ac_workload();
    let sa_images = images_of(&sa.graphs);
    let ac_images = images_of(&ac.graphs);
    let (sa_min, sa_max, sa_mean) = size_stats(&sa_images);
    let (ac_min, ac_max, ac_mean) = size_stats(&ac_images);

    print_table(
        "Table 1: pipeline characteristics (synthetic workload)",
        &["", "Sentiment Analysis (SA)", "Attendee Count (AC)"],
        &[
            vec![
                "Pipelines".into(),
                sa.graphs.len().to_string(),
                ac.graphs.len().to_string(),
            ],
            vec![
                "Input".into(),
                "Plain text (variable length)".into(),
                format!("Structured ({} dims)", pretzel_bench::ac_config().input_dim),
            ],
            vec![
                "Model size".into(),
                format!(
                    "{} - {} (mean {})",
                    fmt_bytes(sa_min),
                    fmt_bytes(sa_max),
                    fmt_bytes(sa_mean)
                ),
                format!(
                    "{} - {} (mean {})",
                    fmt_bytes(ac_min),
                    fmt_bytes(ac_max),
                    fmt_bytes(ac_mean)
                ),
            ],
            vec![
                "Featurizers".into(),
                featurizer_inventory(&sa.graphs),
                featurizer_inventory(&ac.graphs),
            ],
        ],
    );
    println!(
        "\nPaper Table 1 shape: SA inputs are text with MB-scale n-gram \
         dictionaries; AC inputs are 40-dim structured records with \
         PCA/KMeans/tree ensembles and a wide size spread. Dictionary sizes \
         here are scaled by PRETZEL_SCALE (see crates/bench/src/lib.rs)."
    );
}
