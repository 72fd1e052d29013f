//! The tree walk's contract: `Tree::eval` lands in the leaf a plain
//! recursive descent finds — bitwise on leaf index and value — on trees of
//! any shape, and every tree operator scores through it on every engine.
//!
//! The reference below restates the node test from the format's
//! definition (`x <= threshold` goes left, anything else right) as a
//! recursion over child indices, with a branch per level. Trees are
//! randomized and not complete: leaf-only, depth 1, unbalanced chains and
//! bushy trees, their nodes numbered in a random parent-first order so a
//! child may sit far from its parent. Thresholds and features share one
//! palette, so rows often equal a threshold, and hold signed zeros,
//! infinities and NaN (the runtime's batch assembler leaves non-finite
//! values alone unless `reject_non_finite` is on, and it is off here).

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::graph::{Input, TransformGraph};
use pretzel_core::physical::{ExecCtx, ModelPlan, SourceRef};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_data::batch::ColRef;
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, ColumnType, Vector};
use pretzel_ops::linear::{LinearKind, LinearParams};
use pretzel_ops::tree::{EnsembleMode, EnsembleParams, MulticlassTreeParams, Tree};
use pretzel_ops::Op;
use std::sync::Arc;

/// Thresholds and feature values.
const PALETTE: [f32; 12] = [
    -0.0,
    0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
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

    /// A sorted sparse row over `dim`, explicit zeros among its values.
    fn sparse(&mut self, dim: usize) -> (Vec<u32>, Vec<f32>) {
        let indices: Vec<u32> = (0..dim as u32).filter(|_| self.below(2) == 0).collect();
        let values = indices.iter().map(|_| self.value()).collect();
        (indices, values)
    }
}

// ---- random trees ------------------------------------------------------

/// A tree's shape before its nodes are numbered.
enum Shape {
    Leaf,
    Split(Box<Shape>, Box<Shape>),
}

impl Shape {
    /// A chain of `len` splits, each with one leaf child on a random side.
    fn chain(g: &mut Gen, len: usize) -> Shape {
        (0..len).fold(Shape::Leaf, |below, _| {
            let leaf = Box::new(Shape::Leaf);
            match g.below(2) {
                0 => Shape::Split(leaf, Box::new(below)),
                _ => Shape::Split(Box::new(below), leaf),
            }
        })
    }

    /// A random tree no deeper than `depth` whose nodes split with
    /// probability 3/4.
    fn bushy(g: &mut Gen, depth: u32) -> Shape {
        if depth == 0 || g.below(4) == 0 {
            return Shape::Leaf;
        }
        Shape::Split(
            Box::new(Shape::bushy(g, depth - 1)),
            Box::new(Shape::bushy(g, depth - 1)),
        )
    }
}

/// Numbers `shape`'s splits in a random parent-first order (a child always
/// has the larger index, as `Tree::validate` requires, but not
/// necessarily the next one) and its leaves in a random order.
fn number(g: &mut Gen, shape: &Shape, dim: usize) -> Tree {
    let Shape::Split(..) = shape else {
        return Tree::leaf(g.below(16) as f32 * 0.375 - 2.0);
    };
    let mut tree = Tree {
        features: vec![],
        thresholds: vec![],
        left: vec![],
        right: vec![],
        leaf_values: vec![],
    };
    // Splits whose parent is numbered, with the parent slot to patch.
    let mut frontier: Vec<(&Shape, Option<(usize, bool)>)> = vec![(shape, None)];
    let mut leaf_slots: Vec<(usize, bool)> = Vec::new();
    while !frontier.is_empty() {
        let (node, parent) = frontier.swap_remove(g.below(frontier.len()));
        let Shape::Split(l, r) = node else {
            unreachable!("only splits enter the frontier")
        };
        let i = tree.features.len();
        tree.features.push(g.below(dim) as u32);
        tree.thresholds.push(g.value());
        tree.left.push(0);
        tree.right.push(0);
        if let Some((p, is_left)) = parent {
            *if is_left {
                &mut tree.left[p]
            } else {
                &mut tree.right[p]
            } = i as i32;
        }
        for (child, is_left) in [(l, true), (r, false)] {
            match **child {
                Shape::Leaf => leaf_slots.push((i, is_left)),
                Shape::Split(..) => frontier.push((child, Some((i, is_left)))),
            }
        }
    }
    let mut leaves: Vec<usize> = (0..leaf_slots.len()).collect();
    for k in (1..leaves.len()).rev() {
        leaves.swap(k, g.below(k + 1));
    }
    for ((p, is_left), leaf) in leaf_slots.into_iter().zip(leaves) {
        let slot = if is_left {
            &mut tree.left[p]
        } else {
            &mut tree.right[p]
        };
        *slot = !(leaf as i32);
    }
    tree.leaf_values = (0..tree.features.len() + 1)
        .map(|l| l as f32 * 0.375 - 2.0)
        .collect();
    tree.validate(dim).unwrap();
    tree
}

/// One tree of each kind in turn: leaf-only, depth 1, a chain, bushy.
fn random_tree(g: &mut Gen, dim: usize, kind: usize) -> Tree {
    let shape = match kind % 4 {
        0 => Shape::Leaf,
        1 => Shape::Split(Box::new(Shape::Leaf), Box::new(Shape::Leaf)),
        2 => {
            let len = 1 + g.below(24);
            Shape::chain(g, len)
        }
        _ => Shape::bushy(g, 9),
    };
    number(g, &shape, dim)
}

fn random_forest(seed: u64, dim: usize, trees: usize, mode: EnsembleMode) -> EnsembleParams {
    let mut g = Gen(seed);
    let members = (0..trees).map(|k| random_tree(&mut g, dim, k)).collect();
    let weights = (0..trees).map(|k| 0.5 + 0.25 * k as f32).collect();
    EnsembleParams::new(members, weights, mode, dim as u32).unwrap()
}

// ---- the reference -----------------------------------------------------

/// The leaf `x` lands in below `child` (a node index, or `!leaf`).
fn descend(tree: &Tree, child: i32, x: &dyn Fn(usize) -> f32) -> (usize, f32) {
    if child < 0 {
        let leaf = !child as usize;
        return (leaf, tree.leaf_values[leaf]);
    }
    let i = child as usize;
    if x(tree.features[i] as usize) <= tree.thresholds[i] {
        descend(tree, tree.left[i], x)
    } else {
        descend(tree, tree.right[i], x)
    }
}

fn ref_eval(tree: &Tree, x: &dyn Fn(usize) -> f32) -> (usize, f32) {
    if tree.internal_nodes() == 0 {
        return (0, tree.leaf_values[0]);
    }
    descend(tree, 0, x)
}

fn ref_forest(ens: &EnsembleParams, x: ColRef<'_>) -> f32 {
    let mut acc = 0.0f32;
    for (t, &w) in ens.trees.iter().zip(&ens.weights) {
        acc += w * ref_eval(t, &|i| x.feature(i)).1;
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
        out.sparse_accumulate(offset + ref_eval(t, &|i| x.feature(i)).0 as u32, 1.0);
        offset += t.leaves() as u32;
    }
    out
}

fn ref_multiclass(mc: &MulticlassTreeParams, x: ColRef<'_>) -> Vector {
    Vector::Dense(mc.per_class.iter().map(|e| ref_forest(e, x)).collect())
}

fn source_vector(record: &Record) -> Vector {
    match record {
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
        Record::Text(_) => unreachable!("tree plans read numeric sources"),
    }
}

/// Scores `graph` node by node: tree operators through the reference,
/// every other operator through its own kernel.
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
            op => {
                let types: Vec<ColumnType> = inputs.iter().map(|v| v.column_type()).collect();
                let mut out = Vector::with_type(op.output_type(&types).unwrap());
                op.apply(&inputs, &mut out).unwrap();
                out
            }
        };
        values.push(value);
    }
    values[graph.output as usize].as_scalar().unwrap()
}

// ---- the walk ----------------------------------------------------------

#[test]
fn walk_lands_where_the_recursive_descent_does() {
    let mut g = Gen(0x7a1c);
    let mut over_16_splits = 0;
    for kind in 0..800 {
        let tree = random_tree(&mut g, DIM, kind);
        over_16_splits += usize::from(tree.internal_nodes() > 16);
        for row in 0..24 {
            // Every other row copies a threshold of the tree into each
            // feature, so the equal case is walked at every level.
            let x: Vec<f32> = match (row % 2, tree.internal_nodes()) {
                (0, n) if n > 0 => (0..DIM).map(|_| tree.thresholds[g.below(n)]).collect(),
                _ => g.dense(DIM),
            };
            let (got, want) = (tree.eval(|i| x[i]), ref_eval(&tree, &|i| x[i]));
            assert_eq!(got.0, want.0, "tree {kind} row {x:?}: {tree:?}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "tree {kind}: {tree:?}");
        }
    }
    assert!(over_16_splits > 0);
}

#[test]
fn nan_goes_right_and_signed_zeros_agree() {
    // x[0] <= t ? leaf 0 : leaf 1, for every palette threshold.
    for t in PALETTE {
        let tree = Tree {
            features: vec![0],
            thresholds: vec![t],
            left: vec![!0],
            right: vec![!1],
            leaf_values: vec![-1.0, 1.0],
        };
        assert_eq!(tree.eval(|_| f32::NAN).0, 1, "threshold {t}");
        assert_eq!(tree.eval(|_| -0.0).0, tree.eval(|_| 0.0).0, "threshold {t}");
        assert_eq!(tree.eval(|_| t).0, usize::from(t.is_nan()), "threshold {t}");
    }
}

// ---- every tree operator, on every engine ------------------------------

const DIM: usize = 6;

fn forest(seed: u64, trees: usize, mode: EnsembleMode) -> Arc<EnsembleParams> {
    Arc::new(random_forest(seed, DIM, trees, mode))
}

fn multiclass(seed: u64) -> Arc<MulticlassTreeParams> {
    let per_class = (0..4)
        .map(|c| random_forest(seed + c, DIM, 5, EnsembleMode::Sum))
        .collect();
    Arc::new(MulticlassTreeParams::new(per_class).unwrap())
}

/// A linear scorer over `dim` features whose weights differ in every
/// position, so a one-hot in the wrong slot moves the score.
fn spread(x: &Flour, dim: usize) -> Flour {
    let weights = (0..dim).map(|k| 1.0 + k as f32 * 0.0625).collect();
    x.classifier_linear(Arc::new(LinearParams::new(
        LinearKind::Regression,
        weights,
        0.0,
    )))
}

/// The plans under test over source `x`, each labelled.
fn plans(x: &Flour) -> Vec<(&'static str, TransformGraph)> {
    let featurizer = forest(3, 9, EnsembleMode::Sum);
    let leaves = featurizer.total_leaves();
    let one_hots = x.tree_featurize(featurizer);
    let classes = x.multiclass_tree(multiclass(10));
    let merged = x.concat_many(&[&one_hots, &classes]);
    let merged_dim = DIM + leaves + 4;
    // Mostly the source's and the classes' features: the one-hots are
    // nearly all zero.
    let mut over_concat = random_forest(20, merged_dim, 24, EnsembleMode::Average);
    for f in over_concat.trees.iter_mut().flat_map(|t| &mut t.features) {
        *f = match *f % 3 {
            0 => *f,
            1 => *f % DIM as u32,
            _ => (merged_dim - 1 - *f as usize % 4) as u32,
        };
    }
    let over_concat = Arc::new(over_concat);
    vec![
        (
            "ensemble sum",
            x.regressor_tree(forest(1, 10, EnsembleMode::Sum)).graph(),
        ),
        (
            "ensemble average",
            x.regressor_tree(forest(2, 7, EnsembleMode::Average))
                .graph(),
        ),
        ("featurizer", spread(&one_hots, leaves).graph()),
        ("multiclass", spread(&classes, 4).graph()),
        (
            "tree over concat",
            merged.regressor_tree(over_concat).graph(),
        ),
    ]
}

fn records(sparse: bool, n: usize) -> Vec<Record> {
    let mut g = Gen(if sparse { 0x5a } else { 0xde });
    (0..n)
        .map(|_| match sparse {
            true => {
                let (indices, values) = g.sparse(DIM);
                Record::Sparse {
                    indices,
                    values,
                    dim: DIM as u32,
                }
            }
            false => Record::Dense(g.dense(DIM)),
        })
        .collect()
}

fn ctx() -> ExecCtx {
    ExecCtx::new(Arc::new(VectorPool::arena()))
}

fn slots(plan: &ModelPlan) -> Vec<Vector> {
    plan.slot_types()
        .into_iter()
        .map(Vector::with_type)
        .collect()
}

#[test]
fn tree_operators_score_like_the_reference_on_every_engine() {
    for sparse in [false, true] {
        let ctx_f = FlourContext::new();
        let x = match sparse {
            true => ctx_f.sparse_source(DIM),
            false => ctx_f.dense_source(DIM),
        };
        let records = records(sparse, 64);
        let sources: Vec<SourceRef<'_>> = records.iter().map(Record::as_source).collect();
        for (name, graph) in plans(&x) {
            let label = format!("{name} (sparse source: {sparse})");
            let rt = Runtime::new(RuntimeConfig {
                n_executors: 1,
                ..RuntimeConfig::default()
            });
            let id = rt
                .register(pretzel_core::oven::optimize(&graph).unwrap().plan)
                .unwrap();
            let plan = rt.plan(id).unwrap();
            let steps: Vec<&str> = plan
                .stages
                .iter()
                .flat_map(|s| &s.steps)
                .map(|s| s.op.name())
                .collect();
            if name == "tree over concat" {
                assert!(steps.contains(&"TreeOverConcat"), "{label}: {steps:?}");
            }

            let want: Vec<u32> = records
                .iter()
                .map(|r| reference(&graph, r).to_bits())
                .collect();
            let mut batch = vec![0.0f32; records.len()];
            let mut bslots: Vec<ColumnBatch> = plan
                .batch_slot_types()
                .into_iter()
                .map(ColumnBatch::with_type)
                .collect();
            plan.execute_batch(&sources, &mut bslots, &mut ctx(), &mut batch)
                .unwrap();
            let (mut reused_ctx, mut reused) = (ctx(), slots(&plan));
            for (r, &source) in sources.iter().enumerate() {
                let classic = plan.execute(source, &mut slots(&plan), &mut ctx()).unwrap();
                let borrowed = plan
                    .execute_borrowed(source, &mut reused, &mut reused_ctx)
                    .unwrap();
                for (engine, score) in [
                    ("execute", classic),
                    ("execute_borrowed", borrowed),
                    ("execute_batch", batch[r]),
                ] {
                    assert_eq!(score.to_bits(), want[r], "{label}: {engine}, row {r}");
                }
            }
            let distinct: std::collections::HashSet<&u32> = want.iter().collect();
            assert!(distinct.len() > 4, "{label}: scores barely vary");
        }
    }
}
