//! The tree pushdown's contract: a final forest that reads the branches of
//! the Concat in front of it (`StageOp::TreeOverConcat`), and every tree
//! kernel that walks a dense feature row instead of searching a sparse
//! one, scores **bitwise** what the forest scored over the Concat's
//! output.
//!
//! The reference is independent of both: it materialises the Concat with
//! `ConcatParams::apply` and walks each tree with `Tree::eval` over
//! `ColRef::feature` (a binary search per node visit on sparse rows).
//! Inputs are chosen to break a careless scatter: `-0.0` where the Concat
//! drops it and a sparse read returns `+0.0`, NaN, infinities, subnormals,
//! explicit sparse zeros, empty rows and values equal to a threshold.

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::graph::{Input, TransformGraph};
use pretzel_core::object_store::ObjectStore;
use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan, SourceRef};
use pretzel_core::plan::StageOp;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_data::batch::ColRef;
use pretzel_data::hash::Fnv1a;
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, ColumnType, Vector};
use pretzel_ops::feat::concat::ConcatParams;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::tree::{EnsembleMode, EnsembleParams, MulticlassTreeParams, Tree};
use pretzel_ops::{synth, Op};
use pretzel_workload::ac::{self, AcConfig, AcShape};
use pretzel_workload::text::StructuredGen;
use std::sync::Arc;

/// Feature values and thresholds: signed zeros, NaN, infinities,
/// subnormals and ordinary values, so rows often equal a threshold.
const PALETTE: [f32; 14] = [
    -0.0,
    0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    0.5,
    -0.5,
    1.0,
    -1.0,
    0.25,
    -2.0,
];

/// A small deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> f32 {
        PALETTE[self.below(PALETTE.len())]
    }

    fn dense(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.value()).collect()
    }

    /// A sorted sparse row over `dim` with explicit zeros among its values;
    /// every fourth row is empty.
    fn sparse(&mut self, dim: usize) -> (Vec<u32>, Vec<f32>) {
        if self.below(4) == 0 {
            return (Vec::new(), Vec::new());
        }
        let indices: Vec<u32> = (0..dim as u32).filter(|_| self.below(2) == 0).collect();
        let values = indices.iter().map(|_| self.value()).collect();
        (indices, values)
    }
}

/// A complete tree of `depth` over `dim` features, thresholds from the
/// palette.
fn palette_tree(g: &mut Gen, dim: usize, depth: u32) -> Tree {
    let internal = (1usize << depth) - 1;
    let child = |c: usize| {
        if c < internal {
            c as i32
        } else {
            !((c - internal) as i32)
        }
    };
    Tree {
        features: (0..internal).map(|_| g.below(dim) as u32).collect(),
        thresholds: (0..internal).map(|_| g.value()).collect(),
        left: (0..internal).map(|i| child(2 * i + 1)).collect(),
        right: (0..internal).map(|i| child(2 * i + 2)).collect(),
        leaf_values: (0..=internal).map(|l| l as f32 * 0.375 - 1.0).collect(),
    }
}

fn palette_forest(seed: u64, dim: usize, trees: usize, mode: EnsembleMode) -> EnsembleParams {
    let mut g = Gen(seed);
    // Every third member is a leaf: a forest mixes both tree shapes.
    let trees: Vec<Tree> = (0..trees)
        .map(|i| match i % 3 {
            2 => Tree::leaf(0.125 * i as f32),
            _ => palette_tree(&mut g, dim, 2 + (i % 3) as u32 * 2),
        })
        .collect();
    let weights = (0..trees.len()).map(|i| 0.5 + 0.25 * i as f32).collect();
    EnsembleParams::new(trees, weights, mode, dim as u32).unwrap()
}

/// Final forests: leaf-only, single-tree, `Sum` and `Average`.
fn forests(dim: usize) -> Vec<(&'static str, EnsembleParams)> {
    vec![
        (
            "leaf-only",
            EnsembleParams::new(
                vec![Tree::leaf(0.75)],
                vec![1.5],
                EnsembleMode::Sum,
                dim as u32,
            )
            .unwrap(),
        ),
        ("single", palette_forest(11, dim, 1, EnsembleMode::Sum)),
        ("sum", palette_forest(12, dim, 7, EnsembleMode::Sum)),
        ("average", palette_forest(13, dim, 5, EnsembleMode::Average)),
    ]
}

// ---- the independent reference ------------------------------------------

fn ref_forest(ens: &EnsembleParams, x: ColRef<'_>) -> f32 {
    let mut acc = 0.0f32;
    for (t, &w) in ens.trees.iter().zip(&ens.weights) {
        acc += w * t.eval(|i| x.feature(i)).1;
    }
    if ens.mode == EnsembleMode::Average {
        acc /= ens.trees.len() as f32;
    }
    acc
}

fn ref_featurize(ens: &EnsembleParams, x: ColRef<'_>) -> Vector {
    let mut out = Vector::with_type(ColumnType::F32Sparse {
        len: ens.total_leaves(),
    });
    let mut offset = 0u32;
    for t in &ens.trees {
        out.sparse_accumulate(offset + t.eval(|i| x.feature(i)).0 as u32, 1.0);
        offset += t.leaves() as u32;
    }
    out
}

fn ref_multiclass(mc: &MulticlassTreeParams, x: ColRef<'_>) -> Vector {
    Vector::Dense(mc.per_class.iter().map(|e| ref_forest(e, x)).collect())
}

fn ref_concat(concat: &ConcatParams, branches: &[&Vector]) -> Vector {
    let mut out = Vector::with_type(ColumnType::F32Sparse { len: concat.dim() });
    concat.apply(branches, &mut out).unwrap();
    out
}

fn source_vector(record: &Record) -> Vector {
    match record {
        Record::Text(s) => Vector::Text(s.clone()),
        Record::Dense(x) => Vector::Dense(x.clone()),
        Record::Sparse {
            indices,
            values,
            dim,
        } => Vector::Sparse {
            indices: indices.clone(),
            values: values.clone(),
            dim: *dim,
        },
    }
}

/// Scores `graph` node by node, operator at a time: tree operators through
/// the reference walks, everything else through its own kernel.
fn reference(graph: &TransformGraph, record: &Record) -> f32 {
    let source = source_vector(record);
    let mut values: Vec<Vector> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let inputs: Vec<&Vector> = node
            .inputs
            .iter()
            .map(|input| match input {
                Input::Source => &source,
                Input::Node(p) => &values[*p as usize],
            })
            .collect();
        let row = || ColRef::from_vector(inputs[0]);
        let value = match &node.op {
            Op::TreeEnsemble(e) => Vector::Scalar(ref_forest(e, row())),
            Op::TreeFeaturizer(e) => ref_featurize(e, row()),
            Op::MulticlassTree(mc) => ref_multiclass(mc, row()),
            Op::Concat(c) => ref_concat(c, &inputs),
            op => {
                let ty = op
                    .output_type(&inputs.iter().map(|v| v.column_type()).collect::<Vec<_>>())
                    .unwrap();
                let mut out = Vector::with_type(ty);
                op.apply(&inputs, &mut out).unwrap();
                out
            }
        };
        values.push(value);
    }
    values[graph.output as usize].as_scalar().unwrap()
}

// ---- kernels ---------------------------------------------------------------

#[test]
fn concat_reading_kernel_matches_concat_then_walk() {
    // Dense, sparse, scalar and dense branches: 5 + 7 + 1 + 4 features.
    let concat = ConcatParams::new(vec![5, 7, 1, 4]);
    let dim = concat.dim();
    let mut g = Gen(1);
    for (name, ens) in forests(dim) {
        let step = StageOp::TreeOverConcat {
            ensemble: Arc::new(ens.clone()),
            concat: Arc::new(concat.clone()),
        };
        let mut cats = ColumnBatch::with_type(ColumnType::F32Sparse { len: dim });
        let mut want = Vec::new();
        for row in 0..200 {
            let (indices, values) = g.sparse(7);
            let branches = [
                Vector::Dense(g.dense(5)),
                Vector::Sparse {
                    indices,
                    values,
                    dim: 7,
                },
                Vector::Scalar(g.value()),
                Vector::Dense(g.dense(4)),
            ];
            let refs: Vec<&Vector> = branches.iter().collect();
            let cat = ref_concat(&concat, &refs);
            let expect = ref_forest(&ens, ColRef::from_vector(&cat));
            // The pushed step reads the branches...
            let mut out = Vector::Scalar(0.0);
            step.apply(&refs, &mut out).unwrap();
            assert_eq!(
                out.as_scalar().unwrap().to_bits(),
                expect.to_bits(),
                "{name} row {row}"
            );
            // ...and the plain forest scatters the Concat's sparse output.
            ens.apply(&cat, &mut out).unwrap();
            assert_eq!(
                out.as_scalar().unwrap().to_bits(),
                expect.to_bits(),
                "{name} row {row}"
            );
            cats.push_row(ColRef::from_vector(&cat)).unwrap();
            want.push(expect.to_bits());
        }
        let mut y = ColumnBatch::with_type(ColumnType::F32Scalar);
        ens.eval_batch(&cats, &mut y).unwrap();
        let got: Vec<u32> = y
            .as_scalars()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want, "{name}: batch over the Concat's rows");
    }
}

#[test]
fn a_failed_branch_leaves_no_residue_in_the_dense_row() {
    let concat = ConcatParams::new(vec![3, 2]);
    let (_, ens) = forests(5).pop().unwrap();
    let full = Vector::Dense(vec![1.0; 3]);
    // The second branch has the wrong shape: the row errors half built.
    let bad = Vector::Dense(vec![1.0; 3]);
    assert!(ens
        .score_concat(&concat, 2, |k| ColRef::from_vector([&full, &bad][k]))
        .is_err());
    // The next row reads zeros where the failed one wrote its first branch.
    let zeros = Vector::Sparse {
        indices: vec![],
        values: vec![],
        dim: 3,
    };
    let tail = Vector::Dense(vec![0.5, -0.5]);
    let got = ens
        .score_concat(&concat, 2, |k| ColRef::from_vector([&zeros, &tail][k]))
        .unwrap();
    let cat = ref_concat(&concat, &[&zeros, &tail]);
    assert_eq!(
        got.to_bits(),
        ref_forest(&ens, ColRef::from_vector(&cat)).to_bits()
    );
}

// ---- plans, on every engine ------------------------------------------------

const DENSE_DIM: usize = 6;
const SPARSE_DIM: usize = 7;

/// Concat branches over a dense source: the source itself, a scaler
/// (dense), a TreeFeaturizer (sparse) and a linear model (scalar).
fn dense_branches(x: &Flour) -> Flour {
    let scaled = x.scale(Arc::new(synth::scaler(3, DENSE_DIM)));
    let leaves = x.tree_featurize(Arc::new(palette_forest(4, DENSE_DIM, 4, EnsembleMode::Sum)));
    let lin = x.classifier_linear(Arc::new(synth::linear(
        5,
        DENSE_DIM,
        LinearKind::Regression,
    )));
    x.concat_many(&[&scaled, &leaves, &lin])
}

/// The same, every branch with a borrowed-row kernel, so the pushed step
/// reads the source off the request rather than from slot 0.
fn dense_borrowed_branches(x: &Flour) -> Flour {
    let scaled = x.scale(Arc::new(synth::scaler(6, DENSE_DIM)));
    let lin = x.classifier_linear(Arc::new(synth::linear(
        7,
        DENSE_DIM,
        LinearKind::Regression,
    )));
    x.concat_many(&[&scaled, &lin])
}

/// Concat branches over a sparse source: the source itself (explicit
/// zeros, empty rows), a TreeFeaturizer, multiclass trees (dense) and a
/// linear model (scalar).
fn sparse_branches(x: &Flour) -> Flour {
    let leaves = x.tree_featurize(Arc::new(palette_forest(
        8,
        SPARSE_DIM,
        3,
        EnsembleMode::Sum,
    )));
    let mc = MulticlassTreeParams::new(
        (0..3)
            .map(|c| palette_forest(20 + c, SPARSE_DIM, 2, EnsembleMode::Sum))
            .collect(),
    )
    .unwrap();
    let classes = x.multiclass_tree(Arc::new(mc));
    let lin = x.classifier_linear(Arc::new(synth::linear(
        9,
        SPARSE_DIM,
        LinearKind::Regression,
    )));
    x.concat_many(&[&leaves, &classes, &lin])
}

fn dense_records(n: usize) -> Vec<Record> {
    let mut g = Gen(77);
    (0..n).map(|_| Record::Dense(g.dense(DENSE_DIM))).collect()
}

fn sparse_records(n: usize) -> Vec<Record> {
    let mut g = Gen(78);
    (0..n)
        .map(|_| {
            let (indices, values) = g.sparse(SPARSE_DIM);
            Record::Sparse {
                indices,
                values,
                dim: SPARSE_DIM as u32,
            }
        })
        .collect()
}

fn slots(plan: &ModelPlan) -> Vec<Vector> {
    plan.slot_types()
        .into_iter()
        .map(Vector::with_type)
        .collect()
}

fn batch_slots(plan: &ModelPlan) -> Vec<ColumnBatch> {
    let types = plan.batch_slot_types().into_iter();
    types.map(ColumnBatch::with_type).collect()
}

fn ctx() -> ExecCtx {
    ExecCtx::new(Arc::new(VectorPool::arena()))
}

/// Scores every record on every engine and checks each bitwise against
/// the reference.
fn check_engines(label: &str, graph: &TransformGraph, records: &[Record]) {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let id = rt
        .register(pretzel_core::oven::optimize(graph).unwrap().plan)
        .unwrap();
    let plan = rt.plan(id).unwrap();
    let steps: Vec<&str> = plan
        .stages
        .iter()
        .flat_map(|s| &s.steps)
        .map(|s| s.op.name())
        .collect();
    assert!(steps.contains(&"TreeOverConcat"), "{label}: {steps:?}");
    assert!(!steps.contains(&"Concat"), "{label}: {steps:?}");

    let sources: Vec<SourceRef<'_>> = records.iter().map(Record::as_source).collect();
    let want: Vec<u32> = records
        .iter()
        .map(|r| reference(graph, r).to_bits())
        .collect();

    let mut per_chunk = vec![0.0f32; records.len()];
    let mut bctx = ctx();
    let mut bslots = batch_slots(&plan);
    plan.execute_batch(&sources, &mut bslots, &mut bctx, &mut per_chunk)
        .unwrap();
    let runtime_batch = rt.predict_batch_wait(id, records.to_vec()).unwrap();

    let (mut reused_ctx, mut reused) = (ctx(), slots(&plan));
    for (r, &source) in sources.iter().enumerate() {
        let classic = plan.execute(source, &mut slots(&plan), &mut ctx()).unwrap();
        let borrowed = plan
            .execute_borrowed(source, &mut reused, &mut reused_ctx)
            .unwrap();
        let session = rt.predict_source(id, source).unwrap();
        let mut one = [0.0f32];
        plan.execute_batch(&[source], &mut bslots, &mut bctx, &mut one)
            .unwrap();
        // Stage by stage, each stage over its own leased scratch.
        let mut by_stage = slots(&plan);
        let mut sctx = ctx();
        source.load_into(&mut by_stage[0]).unwrap();
        for stage in &plan.stages {
            stage.execute(&mut by_stage, &mut sctx).unwrap();
        }
        let staged = by_stage[plan.output_slot as usize].as_scalar().unwrap();
        for (engine, score) in [
            ("execute", classic),
            ("execute_borrowed", borrowed),
            ("predict_source", session),
            ("execute_batch per chunk", per_chunk[r]),
            ("execute_batch per row", one[0]),
            ("runtime batch", runtime_batch[r]),
            ("stage by stage", staged),
        ] {
            assert_eq!(score.to_bits(), want[r], "{label}: {engine}, row {r}");
        }
    }
    assert_eq!(rt.pool_outstanding(), 0, "{label}");
}

#[test]
fn pushed_plans_score_bitwise_on_every_engine() {
    let dense = dense_records(48);
    let sparse = sparse_records(48);
    for (label, branches, records) in [
        ("dense", dense_branches as fn(&Flour) -> Flour, &dense),
        ("dense borrowed", dense_borrowed_branches, &dense),
        ("sparse", sparse_branches, &sparse),
    ] {
        let ctx = FlourContext::new();
        let x = match label {
            "sparse" => ctx.sparse_source(SPARSE_DIM),
            _ => ctx.dense_source(DENSE_DIM),
        };
        let merged = branches(&x);
        let dim = merged.output_type().dimension().unwrap();
        for (forest, ens) in forests(dim) {
            let graph = merged.regressor_tree(Arc::new(ens)).graph();
            check_engines(&format!("{label}/{forest}"), &graph, records);
        }
    }
}

// ---- the Attendee Count workload -------------------------------------------

/// The benchmark's AC models: 250 plans over 40 dense features.
fn ac_workload() -> ac::AcWorkload {
    ac::build(&AcConfig {
        n_pipelines: 250,
        input_dim: 40,
        dense_input: true,
        seed: 0xfeed,
    })
}

/// FNV-1a over every score's bits, row-request order then batch order, of
/// the 250 AC plans on 8 rows, before the tree pushdown existed (the
/// Concat built a CSR row and the forest binary-searched it).
const AC_SCORES_CHECKSUM: u64 = 0xbd9d_0136_d01f_26d9;

#[test]
fn ac_workload_scores_equal_the_concat_plans() {
    let workload = ac_workload();
    let rows = StructuredGen::new(0x7ee, 40).records(8);
    let sources: Vec<SourceRef<'_>> = rows.iter().map(|r| SourceRef::Dense(r)).collect();
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let (mut rr, mut batch) = (Fnv1a::new(), Fnv1a::new());
    let mut out = vec![0.0f32; rows.len()];
    for graph in &workload.graphs {
        let id = rt
            .register(pretzel_core::oven::optimize(graph).unwrap().plan)
            .unwrap();
        for &source in &sources {
            let score = rt.predict_source(id, source).unwrap();
            rr.write(&score.to_bits().to_le_bytes());
        }
        let plan = rt.plan(id).unwrap();
        let mut bslots = batch_slots(&plan);
        plan.execute_batch(&sources, &mut bslots, &mut ctx(), &mut out)
            .unwrap();
        for score in &out {
            batch.write(&score.to_bits().to_le_bytes());
        }
    }
    let (rr, batch) = (rr.finish(), batch.finish());
    assert_eq!(rr, batch, "row and batch engines disagree");
    assert_eq!(rr, AC_SCORES_CHECKSUM, "AC scores moved: {rr:#x}");
}

/// Every Medium and Full AC plan loses its Concat step and one stage;
/// Simple plans, which have no Concat, are unchanged.
#[test]
fn ac_plans_lose_their_concat_stage() {
    let workload = ac_workload();
    for (graph, shape) in workload.graphs.iter().zip(&workload.shapes) {
        let plan = pretzel_core::oven::optimize(graph).unwrap().plan;
        let stages: Vec<Vec<&str>> = plan
            .stages
            .iter()
            .map(|s| s.steps.iter().map(|st| st.op.name()).collect())
            .collect();
        let last = stages.last().unwrap();
        let want: &[&str] = match shape {
            AcShape::Simple => &["TreeEnsemble"],
            AcShape::Medium | AcShape::Full => &["TreeOverConcat"],
        };
        assert_eq!(last, want, "{shape:?}: {stages:?}");
        assert!(
            stages.iter().flatten().all(|&n| n != "Concat"),
            "{stages:?}"
        );
        let n_stages = match shape {
            AcShape::Simple => 2,
            AcShape::Medium => 4,
            AcShape::Full => 6,
        };
        assert_eq!(stages.len(), n_stages, "{shape:?}: {stages:?}");
    }
}

/// A pushed plan's parameter walk reaches both objects of its fused step:
/// the plan counts exactly the bytes of its graph's operators.
#[test]
fn pushed_ac_plan_counts_every_operators_bytes() {
    let workload = ac::build(&AcConfig::tiny());
    for (graph, shape) in workload.graphs.iter().zip(&workload.shapes) {
        let logical = pretzel_core::oven::optimize(graph).unwrap().plan;
        let plan =
            ModelPlan::compile(logical, &CompileOptions::default(), &ObjectStore::new()).unwrap();
        assert_eq!(plan.param_bytes(), graph.param_bytes(), "{shape:?}");
    }
}
