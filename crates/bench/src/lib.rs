//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every `src/bin/figXX_*.rs` binary regenerates one table or figure of
//! the paper's evaluation (README "Build, test, bench" lists them). This
//! module holds what they share: scaled workload construction, the honest
//! "load from model file" registration path, table printing, and
//! environment-variable knobs.
//!
//! Knobs (all optional):
//! * `PRETZEL_PIPELINES` — pipelines per category (default 250, like the
//!   paper; lower it for quick runs).
//! * `PRETZEL_SCALE` — dictionary-size scale factor ∈ (0, 1] applied to
//!   the SA featurizers (default 0.25 — dictionaries are ~5k/1.25k entries
//!   instead of the paper's ~1M, preserving all sharing ratios).
//! * `PRETZEL_CORES` — executor counts for scaling experiments.

use pretzel_core::frontend::{Client, PredictRequest};
use pretzel_core::graph::TransformGraph;
use pretzel_core::runtime::{PlanId, Runtime};
use pretzel_core::scheduler::Record;
use pretzel_data::Result;
use pretzel_workload::ac::{self, AcConfig};
use pretzel_workload::sa::{self, SaConfig};
use std::sync::Arc;
use std::time::Duration;

/// Reads a `usize` knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` knob from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of pipelines per category for this run.
pub fn n_pipelines() -> usize {
    env_usize("PRETZEL_PIPELINES", 250)
}

/// The SA workload configuration for this run (scaled dictionaries).
pub fn sa_config() -> SaConfig {
    let scale = env_f64("PRETZEL_SCALE", 0.25).clamp(0.001, 1.0);
    SaConfig {
        n_pipelines: n_pipelines(),
        char_entries: ((20_000.0 * scale) as usize).max(64),
        word_entries_small: ((200.0 * scale) as usize).max(16),
        word_entries_large: ((5_000.0 * scale) as usize).max(32),
        vocab_size: ((8_000.0 * scale) as usize).max(128),
        ..SaConfig::default()
    }
}

/// The AC workload configuration for this run.
pub fn ac_config() -> AcConfig {
    AcConfig {
        n_pipelines: n_pipelines(),
        ..AcConfig::default()
    }
}

/// Builds the SA workload.
pub fn sa_workload() -> sa::SaWorkload {
    sa::build(&sa_config())
}

/// Builds the AC workload.
pub fn ac_workload() -> ac::AcWorkload {
    ac::build(&ac_config())
}

/// The dense-ingest AC configuration: the same pipelines fed pre-parsed
/// feature vectors (`Record::Dense`), isolating data-plane measurements
/// from CSV float parsing.
pub fn ac_dense_config() -> AcConfig {
    AcConfig {
        dense_input: true,
        ..ac_config()
    }
}

/// Builds the dense-ingest AC workload.
pub fn ac_dense_workload() -> ac::AcWorkload {
    ac::build(&ac_dense_config())
}

/// Exports graphs to model-file images (the "models on disk").
pub fn images_of(graphs: &[TransformGraph]) -> Vec<Arc<Vec<u8>>> {
    graphs
        .iter()
        .map(|g| Arc::new(g.to_model_image()))
        .collect()
}

/// Registers a model image with a PRETZEL runtime through the honest path:
/// decode the file *through the Object Store* (already-resident parameters
/// are not re-deserialized — the paper's fast-load behaviour), run Oven,
/// register (catalogs physical stages).
pub fn register_image(runtime: &Runtime, image: &[u8]) -> Result<PlanId> {
    let graph = TransformGraph::from_model_image_shared(image, runtime.object_store())?;
    let plan = pretzel_core::oven::optimize(&graph)?.plan;
    runtime.register(plan)
}

/// Registers every image, returning plan ids.
pub fn register_all(runtime: &Runtime, images: &[Arc<Vec<u8>>]) -> Result<Vec<PlanId>> {
    images
        .iter()
        .map(|img| register_image(runtime, img))
        .collect()
}

/// Sends a whole record batch through a FrontEnd client in one request,
/// dispatching on the record kind (all records must share one kind).
///
/// # Panics
///
/// Errors on mixed record kinds — bench batches are homogeneous by
/// construction.
pub fn wire_predict_batch(client: &mut Client, id: PlanId, records: &[Record]) -> Result<Vec<f32>> {
    client.predict_many(&PredictRequest::batch(records.to_vec()).plan(id))
}

/// Prints a fixed-width table with a title, like the paper's tables.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a duration for table cells.
pub fn fmt_dur(d: Duration) -> String {
    pretzel_workload::load::fmt_latency(d)
}

/// Formats a ratio as `N.Nx`.
pub fn fmt_ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", a / b)
    }
}

/// Times a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One measured configuration in a machine-readable bench report.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Workload category (e.g. `SA`, `AC`).
    pub category: String,
    /// Execution mode (e.g. `simd`, `scalar`).
    pub mode: String,
    /// Records per batch-engine chunk event.
    pub chunk_size: usize,
    /// Executor threads.
    pub cores: usize,
    /// Measured throughput.
    pub records_per_sec: f64,
}

/// Writes a `BENCH_*.json` report (hand-rolled JSON — the build is
/// registry-less, so no serde). `speedups` carries headline ratios keyed by
/// label, e.g. `"AC_dense": simd ÷ scalar`.
pub fn write_bench_json(
    path: &str,
    bench: &str,
    entries: &[BenchEntry],
    speedups: &[(String, f64)],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"category\": \"{}\", \"mode\": \"{}\", \"chunk_size\": {}, \
             \"cores\": {}, \"records_per_sec\": {:.1}}}{}\n",
            e.category,
            e.mode,
            e.chunk_size,
            e.cores,
            e.records_per_sec,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedup\": {");
    for (i, (k, v)) in speedups.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{k}\": {v:.3}"));
    }
    s.push_str("}\n}\n");
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        assert_eq!(env_usize("PRETZEL_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("PRETZEL_DOES_NOT_EXIST", 0.5), 0.5);
    }

    #[test]
    fn register_image_round_trips() {
        let mut cfg = sa_config();
        cfg.n_pipelines = 2;
        cfg.char_entries = 64;
        cfg.word_entries_large = 32;
        cfg.word_entries_small = 16;
        cfg.vocab_size = 64;
        let w = pretzel_workload::sa::build(&cfg);
        let images = images_of(&w.graphs);
        let rt = Runtime::new(pretzel_core::runtime::RuntimeConfig {
            n_executors: 1,
            ..Default::default()
        });
        let ids = register_all(&rt, &images).unwrap();
        assert_eq!(ids, vec![0, 1]);
        let score = rt.predict(0, "5,quite nice overall").unwrap();
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(10.0, 2.0), "5.0x");
        assert_eq!(fmt_ratio(1.0, 0.0), "inf");
    }
}
