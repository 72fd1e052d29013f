//! The 250 Attendee Count (AC) pipeline variants.
//!
//! "250 different pipelines implementing Attendee Count: a regression task
//! used internally to predict how many attendees will join an event.
//! Pipelines within a category are similar... those in the AC category are
//! more diverse and do not benefit from \[sub-plan materialization\]. These
//! latter pipelines comprise several ML models forming an ensemble: in the
//! most complex version, we have a dimensionality reduction step executed
//! concurrently with a KMeans clustering, a TreeFeaturizer, and
//! multi-class tree-based classifier, all fed into a final tree (or
//! forest) rendering the prediction" (paper §5, Table 1: structured text
//! input, 40 dimensions, sizes 10KB–20MB). This runtime measured sub-plan
//! materialization on the SA pipelines and left it out (README, "Oven and
//! the Model Plan Compiler").

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::graph::TransformGraph;
use pretzel_core::train_stats::NodeStats;
use pretzel_ops::synth;
use pretzel_ops::tree::EnsembleMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// AC workload configuration.
#[derive(Debug, Clone)]
pub struct AcConfig {
    /// Number of pipelines (paper: 250).
    pub n_pipelines: usize,
    /// Input dimensionality (paper: 40).
    pub input_dim: usize,
    /// Ingest pre-parsed dense records (`Record::Dense`) instead of CSV
    /// text. The paper's AC pipelines read structured text; the dense
    /// variant serves data-plane benchmarks where float parsing would
    /// otherwise dominate the measurement.
    pub dense_input: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for AcConfig {
    fn default() -> Self {
        AcConfig {
            n_pipelines: 250,
            input_dim: 40,
            dense_input: false,
            seed: 0xacac,
        }
    }
}

impl AcConfig {
    /// A small configuration for unit tests and examples.
    pub fn tiny() -> Self {
        AcConfig {
            n_pipelines: 8,
            input_dim: 12,
            dense_input: false,
            seed: 0xacac,
        }
    }
}

/// Structural complexity tiers, mirroring the paper's "most complex
/// version" description and the 10KB–20MB size spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcShape {
    /// scale → final tree (the 10KB end).
    Simple,
    /// impute → scale → PCA ∥ KMeans → concat → final forest.
    Medium,
    /// impute → scale → PCA ∥ KMeans ∥ TreeFeaturizer ∥ multiclass trees
    /// → concat → final forest (the 20MB end).
    Full,
}

/// The generated AC workload.
#[derive(Debug)]
pub struct AcWorkload {
    /// Pipeline graphs.
    pub graphs: Vec<TransformGraph>,
    /// Structural tier of each pipeline.
    pub shapes: Vec<AcShape>,
}

/// Builds the AC workload: diverse per-pipeline parameters (no sharing by
/// construction), varied structure and sizes.
pub fn build(config: &AcConfig) -> AcWorkload {
    let mut graphs = Vec::with_capacity(config.n_pipelines);
    let mut shapes = Vec::with_capacity(config.n_pipelines);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for k in 0..config.n_pipelines {
        let shape = match k % 4 {
            0 => AcShape::Simple,
            1 | 2 => AcShape::Medium,
            _ => AcShape::Full,
        };
        shapes.push(shape);
        graphs.push(build_pipeline(config, k, shape, &mut rng));
    }
    AcWorkload { graphs, shapes }
}

fn build_pipeline(config: &AcConfig, k: usize, shape: AcShape, rng: &mut StdRng) -> TransformGraph {
    let dim = config.input_dim;
    let seed = config.seed ^ ((k as u64 + 1) << 8);
    let ctx = FlourContext::new();
    let source = if config.dense_input {
        ctx.dense_source(dim)
    } else {
        ctx.csv(',').dense_features(dim as u32)
    }
    .with_stats(NodeStats::new(dim, 1.0));

    // Dataset-derived featurizer parameters (imputation means, scaling
    // statistics, PCA bases, KMeans centroids) are functions of the shared
    // training data and hyper-parameters, not of the pipeline — so two AC
    // pipelines using "PCA to m components" hold identical parameters.
    // Only the tree models (different hyper-parameter searches) are unique
    // per pipeline, which is what keeps the workload "diverse".
    let dataset_seed = config.seed ^ 0xdada;
    let scaled = match shape {
        AcShape::Simple => source.scale(Arc::new(synth::scaler(dataset_seed ^ 1, dim))),
        _ => source
            .impute(Arc::new(synth::imputer(dataset_seed ^ 2, dim)))
            .scale(Arc::new(synth::scaler(dataset_seed ^ 1, dim))),
    }
    .with_stats(NodeStats::new(dim, 1.0));

    let merged: Flour = match shape {
        AcShape::Simple => scaled.clone(),
        AcShape::Medium => {
            let m = rng.gen_range(4..=dim.min(12));
            let kk = rng.gen_range(3..=8);
            let p = scaled
                .pca(Arc::new(synth::pca(
                    dataset_seed ^ (0x90 + m as u64),
                    m,
                    dim,
                )))
                .with_stats(NodeStats::new(m, 1.0));
            let c = scaled
                .kmeans(Arc::new(synth::kmeans(
                    dataset_seed ^ (0xa0 + kk as u64),
                    kk,
                    dim,
                )))
                .with_stats(NodeStats::new(kk, 1.0));
            p.concat(&c)
        }
        AcShape::Full => {
            let m = rng.gen_range(4..=dim.min(12));
            let kk = rng.gen_range(3..=8);
            let trees = rng.gen_range(4..=16);
            let depth = rng.gen_range(3..=6);
            let classes = rng.gen_range(3..=6);
            let p = scaled
                .pca(Arc::new(synth::pca(
                    dataset_seed ^ (0x90 + m as u64),
                    m,
                    dim,
                )))
                .with_stats(NodeStats::new(m, 1.0));
            let c = scaled
                .kmeans(Arc::new(synth::kmeans(
                    dataset_seed ^ (0xa0 + kk as u64),
                    kk,
                    dim,
                )))
                .with_stats(NodeStats::new(kk, 1.0));
            let tf = scaled
                .tree_featurize(Arc::new(synth::ensemble(
                    seed ^ 5,
                    dim,
                    trees,
                    depth,
                    EnsembleMode::Sum,
                )))
                .with_stats(NodeStats::new(trees, 0.05));
            let mc = scaled
                .multiclass_tree(Arc::new(synth::multiclass(
                    seed ^ 6,
                    dim,
                    classes,
                    2,
                    depth.min(4),
                )))
                .with_stats(NodeStats::new(classes, 1.0));
            p.concat_many(&[&c, &tf, &mc])
        }
    };

    let final_dim = merged
        .output_type()
        .dimension()
        .expect("merged features are numeric");
    let final_trees = match shape {
        AcShape::Simple => rng.gen_range(2..=6),
        AcShape::Medium => rng.gen_range(4..=12),
        AcShape::Full => rng.gen_range(8..=24),
    };
    merged
        .regressor_tree(Arc::new(synth::ensemble(
            seed ^ 7,
            final_dim,
            final_trees,
            5,
            EnsembleMode::Average,
        )))
        .with_stats(NodeStats::new(1, 1.0))
        .graph()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_all_tiers() {
        let w = build(&AcConfig::tiny());
        assert_eq!(w.graphs.len(), 8);
        assert!(w.shapes.contains(&AcShape::Simple));
        assert!(w.shapes.contains(&AcShape::Medium));
        assert!(w.shapes.contains(&AcShape::Full));
    }

    #[test]
    fn graphs_validate_and_plan() {
        let w = build(&AcConfig::tiny());
        for (g, shape) in w.graphs.iter().zip(&w.shapes) {
            g.validate_structure().unwrap();
            let plan = pretzel_core::oven::optimize(g)
                .unwrap_or_else(|e| panic!("{shape:?}: {e}"))
                .plan;
            plan.validate().unwrap();
        }
    }

    #[test]
    fn full_pipelines_are_larger_than_simple_ones() {
        let w = build(&AcConfig::tiny());
        let size_of = |shape: AcShape| -> usize {
            w.graphs
                .iter()
                .zip(&w.shapes)
                .filter(|(_, s)| **s == shape)
                .map(|(g, _)| g.param_bytes())
                .max()
                .unwrap()
        };
        assert!(size_of(AcShape::Full) > size_of(AcShape::Simple));
    }

    #[test]
    fn no_parameter_sharing_across_pipelines() {
        // AC pipelines "are more diverse and do not benefit" from sharing:
        // final-tree checksums must all differ.
        let w = build(&AcConfig::tiny());
        let finals: std::collections::HashSet<u64> = w
            .graphs
            .iter()
            .map(|g| g.nodes[g.output as usize].op.checksum())
            .collect();
        assert_eq!(finals.len(), w.graphs.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(&AcConfig::tiny());
        let b = build(&AcConfig::tiny());
        for (ga, gb) in a.graphs.iter().zip(&b.graphs) {
            assert_eq!(ga.to_model_image(), gb.to_model_image());
        }
    }

    #[test]
    fn executes_end_to_end_on_structured_input() {
        use pretzel_core::physical::SourceRef;
        let w = build(&AcConfig::tiny());
        let mut gen = crate::text::StructuredGen::new(9, 12);
        let line = gen.csv_line();
        for g in &w.graphs {
            // Volcano-style direct check through the plan pipeline.
            let plan = pretzel_core::oven::optimize(g).unwrap().plan;
            let store = pretzel_core::object_store::ObjectStore::new();
            let compiled = pretzel_core::physical::ModelPlan::compile(
                plan,
                &pretzel_core::physical::CompileOptions::default(),
                &store,
            )
            .unwrap();
            let pool = std::sync::Arc::new(pretzel_data::pool::VectorPool::arena());
            let mut ctx = pretzel_core::physical::ExecCtx::new(pool);
            let mut slots: Vec<pretzel_data::Vector> = compiled
                .slot_types()
                .iter()
                .map(|&t| pretzel_data::Vector::with_type(t))
                .collect();
            let score = compiled
                .execute(SourceRef::Text(&line), &mut slots, &mut ctx)
                .unwrap();
            assert!(score.is_finite());
        }
    }
}
