//! Figure 8 (+ §5.1 loading times): cumulative memory while loading the SA
//! and AC pipelines under four configurations:
//!
//! * ML.Net — one process, one black-box instance per model;
//! * ML.Net + Clipper — one container per model (private copies + runtime
//!   overhead);
//! * PRETZEL — white-box runtime with the Object Store;
//! * PRETZEL (no ObjStore) — same runtime, parameter dedup disabled.
//!
//! Memory is live heap bytes from a counting global allocator — the
//! deterministic analogue of the paper's RSS curves.

use pretzel_baseline::container::{Container, ContainerConfig};
use pretzel_baseline::BlackBoxModel;
use pretzel_bench::{env_usize, images_of, print_table, time_it};
use pretzel_core::graph::TransformGraph;
use pretzel_core::object_store::ObjectStore;
use pretzel_core::physical::{CompileOptions, ModelPlan};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::alloc_meter::{self, fmt_bytes, CountingAlloc, MemoryScope};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Cumulative live-bytes series: one sample after each model loads.
struct Series {
    name: &'static str,
    cumulative: Vec<usize>,
    load_time: Duration,
}

fn checkpoints(n: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = [1, 10, 25, 50, 100, 150, 200, 250]
        .iter()
        .copied()
        .filter(|&p| p <= n)
        .collect();
    if pts.last() != Some(&n) {
        pts.push(n);
    }
    pts
}

fn run_mlnet(images: &[Arc<Vec<u8>>]) -> (Series, Vec<BlackBoxModel>) {
    let scope = MemoryScope::begin();
    let mut cumulative = Vec::with_capacity(images.len());
    let mut models = Vec::with_capacity(images.len());
    let (_, load_time) = time_it(|| {
        for image in images {
            let mut m = BlackBoxModel::from_image(Arc::clone(image));
            m.warm_up().expect("model loads");
            models.push(m);
            cumulative.push(scope.delta_bytes().max(0) as usize);
        }
    });
    (
        Series {
            name: "ML.Net",
            cumulative,
            load_time,
        },
        models,
    )
}

fn run_clipper(images: &[Arc<Vec<u8>>], overhead: usize) -> (Series, Vec<Container>) {
    let scope = MemoryScope::begin();
    let mut cumulative = Vec::with_capacity(images.len());
    let mut containers = Vec::with_capacity(images.len());
    let (_, load_time) = time_it(|| {
        for image in images {
            let c = Container::spawn(
                Arc::clone(image),
                ContainerConfig {
                    overhead_bytes: overhead,
                    preload: true,
                },
            )
            .expect("container spawns");
            containers.push(c);
            cumulative.push(scope.delta_bytes().max(0) as usize);
        }
    });
    (
        Series {
            name: "ML.Net+Clipper",
            cumulative,
            load_time,
        },
        containers,
    )
}

fn run_pretzel(images: &[Arc<Vec<u8>>]) -> (Series, Runtime) {
    let runtime = Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    });
    let scope = MemoryScope::begin();
    let mut cumulative = Vec::with_capacity(images.len());
    let (_, load_time) = time_it(|| {
        for image in images {
            pretzel_bench::register_image(&runtime, image).expect("plan registers");
            cumulative.push(scope.delta_bytes().max(0) as usize);
        }
    });
    (
        Series {
            name: "Pretzel",
            cumulative,
            load_time,
        },
        runtime,
    )
}

fn run_pretzel_no_store(images: &[Arc<Vec<u8>>]) -> (Series, Vec<Arc<ModelPlan>>) {
    let scope = MemoryScope::begin();
    let mut cumulative = Vec::with_capacity(images.len());
    let mut plans = Vec::with_capacity(images.len());
    let (_, load_time) = time_it(|| {
        for image in images {
            // A fresh Object Store per plan = no cross-pipeline sharing.
            let store = ObjectStore::new();
            let graph = TransformGraph::from_model_image(image).expect("image decodes");
            let plan = pretzel_core::oven::optimize(&graph)
                .expect("optimizes")
                .plan;
            plans.push(Arc::new(
                ModelPlan::compile(plan, &CompileOptions::default(), &store)
                    .expect("plan compiles"),
            ));
            cumulative.push(scope.delta_bytes().max(0) as usize);
        }
    });
    (
        Series {
            name: "Pretzel(no ObjStore)",
            cumulative,
            load_time,
        },
        plans,
    )
}

fn report(category: &str, series: &[Series]) {
    let n = series[0].cumulative.len();
    let pts = checkpoints(n);
    let mut rows = Vec::new();
    for &p in &pts {
        let mut row = vec![p.to_string()];
        for s in series {
            row.push(fmt_bytes(s.cumulative[p - 1]));
        }
        rows.push(row);
    }
    let mut headers = vec!["models"];
    for s in series {
        headers.push(s.name);
    }
    print_table(
        &format!("Figure 8 ({category}): cumulative live heap"),
        &headers,
        &rows,
    );
    let base = series
        .iter()
        .find(|s| s.name == "Pretzel")
        .map(|s| *s.cumulative.last().unwrap())
        .unwrap_or(1);
    for s in series {
        let total = *s.cumulative.last().unwrap();
        println!(
            "  {:<22} total {:>12}  ({:.1}x Pretzel)   load time {:?}",
            s.name,
            fmt_bytes(total),
            total as f64 / base.max(1) as f64,
            s.load_time,
        );
    }
}

fn main() {
    let overhead = env_usize("PRETZEL_CONTAINER_OVERHEAD", 1 << 20);
    println!(
        "process baseline: {} live at start",
        fmt_bytes(alloc_meter::live_bytes())
    );

    for category in ["SA", "AC"] {
        let images = if category == "SA" {
            images_of(&pretzel_bench::sa_workload().graphs)
        } else {
            images_of(&pretzel_bench::ac_workload().graphs)
        };

        // Run configurations one at a time, dropping each before the next
        // so the counting allocator sees disjoint deltas.
        let (mlnet, models) = run_mlnet(&images);
        let mlnet_total = *mlnet.cumulative.last().unwrap();
        drop(models);

        let (clipper, containers) = run_clipper(&images, overhead);
        for c in containers {
            c.stop();
        }

        let (pretzel, runtime) = run_pretzel(&images);
        let store_stats = (
            runtime.object_store().len(),
            runtime.object_store().unique_bytes(),
            runtime.object_store().bytes_saved(),
        );
        drop(runtime);

        let (nostore, plans) = run_pretzel_no_store(&images);
        drop(plans);

        report(category, &[mlnet, clipper, pretzel, nostore]);
        println!(
            "  Object Store: {} unique objects, {} resident, {} saved by dedup",
            store_stats.0,
            fmt_bytes(store_stats.1),
            fmt_bytes(store_stats.2 as usize)
        );
        let expected = if category == "SA" {
            "paper: only PRETZEL fits all 250 SA pipelines in memory; \
             no-ObjStore ≈ ML.Net"
        } else {
            "paper: PRETZEL ≈ 25x less than ML.Net, 62x less than \
             ML.Net+Clipper (container overhead ≈ 2.5x)"
        };
        println!("  expected shape — {expected}");
        let _ = mlnet_total;
    }
}
