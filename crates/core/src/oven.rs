//! Oven: the rule-based optimizer and plan compiler (paper §4.1.2).
//!
//! "Oven follows the typical rule-based database optimizer design where
//! operator graphs are transformed by a set of rules until a fix-point is
//! reached." The optimizer is organized in four *rewriting steps*, executed
//! sequentially; within each step, the rules iterate until an iteration
//! leaves the graph unchanged:
//!
//! 1. [`InputGraphValidatorStep`] — schema propagation, schema validation
//!    and graph validation.
//! 2. [`StageGraphBuilderStep`] — splits the transformation graph into
//!    stages: memory-bound featurizers are pipelined together (Tupleware's
//!    hybrid strategy) — not only chains but trees, since a featurizer
//!    joins its producer's stage also when a sibling already extended it,
//!    so everything that reads one text runs in one stage; pipeline
//!    breakers (Concat, aggregates) and compute-bound operators start new
//!    stages.
//! 3. [`StageGraphOptimizerStep`] — common-subexpression elimination,
//!    stage merging/inlining, **linear-model pushdown through Concat**,
//!    **tree pushdown through Concat** and dead-stage removal. Both
//!    pushdowns delete the Concat, the paper's archetypal pipeline breaker:
//!    a linear model splits into per-branch partial dots, and a final tree
//!    ensemble, which reads its features by index, reads the branches
//!    directly ([`StageOp::TreeOverConcat`]).
//! 4. [`OutputGraphValidatorStep`] — synthesizes per-stage schemas (slot
//!    layout), applies training statistics (dense / vectorizable labels,
//!    buffer sizing) and re-validates the final plan.
//!
//! The optimizer's input is a [`TransformGraph`]; the output is a validated
//! [`StagePlan`] ready for the Model Plan Compiler.
//!
//! [`InputGraphValidatorStep`]: optimize
//! [`StageGraphBuilderStep`]: optimize
//! [`StageGraphOptimizerStep`]: optimize
//! [`OutputGraphValidatorStep`]: optimize

use crate::graph::{Input, TransformGraph};
use crate::plan::{BufDef, Loc, LogicalStage, StageOp, StagePlan, Step};
use crate::train_stats::NodeStats;
use pretzel_data::{ColumnType, DataError, Result};
use pretzel_ops::annotations::{Arity, Bound};
use pretzel_ops::Op;
use std::sync::Arc;

/// Optimizer working representation: the transformation graph plus
/// per-node types, liveness and stage assignment.
#[derive(Debug, Clone)]
struct Ir {
    source_type: ColumnType,
    ops: Vec<StageOp>,
    inputs: Vec<Vec<Input>>,
    stats: Vec<NodeStats>,
    alive: Vec<bool>,
    types: Vec<ColumnType>,
    /// Stage id per node; `u32::MAX` before assignment.
    stage_of: Vec<u32>,
    n_stages: u32,
    output: u32,
}

/// Record of one rule application, for tracing and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTrace {
    /// Rewriting step the rule belongs to.
    pub step: &'static str,
    /// Rule name.
    pub rule: &'static str,
    /// How many times the rule fired.
    pub fired: u32,
}

/// The result of optimization: the plan plus the rule trace.
#[derive(Debug)]
pub struct Optimized {
    /// The validated logical plan.
    pub plan: StagePlan,
    /// Which rules fired, in order.
    pub trace: Vec<RuleTrace>,
}

/// Optimizes a transformation graph into a logical stage plan.
///
/// Runs the four rewriting steps described in the module docs; fails on
/// structurally or schema-invalid graphs.
pub fn optimize(graph: &TransformGraph) -> Result<Optimized> {
    let mut trace = Vec::new();

    // ---- Step 1: InputGraphValidatorStep --------------------------------
    graph.validate_structure()?;
    trace.push(RuleTrace {
        step: "InputGraphValidator",
        rule: "GraphValidation",
        fired: 1,
    });
    let types = graph.propagate_types()?;
    trace.push(RuleTrace {
        step: "InputGraphValidator",
        rule: "SchemaPropagation",
        fired: graph.nodes.len() as u32,
    });
    validate_predictor(graph, &types)?;
    trace.push(RuleTrace {
        step: "InputGraphValidator",
        rule: "SchemaValidation",
        fired: 1,
    });

    let mut ir = Ir {
        source_type: graph.source_type,
        ops: graph
            .nodes
            .iter()
            .map(|n| StageOp::Op(n.op.clone()))
            .collect(),
        inputs: graph.nodes.iter().map(|n| n.inputs.clone()).collect(),
        stats: graph.nodes.iter().map(|n| n.stats).collect(),
        alive: vec![true; graph.nodes.len()],
        types,
        stage_of: vec![u32::MAX; graph.nodes.len()],
        n_stages: 0,
        output: graph.output,
    };

    // ---- Step 2: StageGraphBuilderStep ----------------------------------
    let fired = assign_stages(&mut ir)?;
    trace.push(RuleTrace {
        step: "StageGraphBuilder",
        rule: "StageAssignment",
        fired,
    });
    check_stage_edges_forward(&ir)?;
    trace.push(RuleTrace {
        step: "StageGraphBuilder",
        rule: "StageDependencyValidation",
        fired: 1,
    });

    // ---- Step 3: StageGraphOptimizerStep (fix-point) --------------------
    type Rule = (&'static str, fn(&mut Ir) -> Result<u32>);
    let rules: [Rule; 6] = [
        ("CommonSubexpressionElimination", cse),
        ("LinearModelPushdown", linear_pushdown),
        ("TreeConcatPushdown", tree_concat_pushdown),
        ("DeadNodeElimination", dead_node_elimination),
        ("InlineSingleOpStages", inline_single_op_stages),
        ("DeadStageElimination", dead_stage_elimination),
    ];
    loop {
        let mut changed = false;
        for (name, rule) in rules {
            let fired = rule(&mut ir)?;
            if fired > 0 {
                changed = true;
                trace.push(RuleTrace {
                    step: "StageGraphOptimizer",
                    rule: name,
                    fired,
                });
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Step 4: OutputGraphValidatorStep -------------------------------
    let plan = lower(&ir)?;
    trace.push(RuleTrace {
        step: "OutputGraphValidator",
        rule: "StageSchemaSynthesis",
        fired: plan.stages.len() as u32,
    });
    plan.validate()?;
    trace.push(RuleTrace {
        step: "OutputGraphValidator",
        rule: "FinalValidation",
        fired: 1,
    });
    Ok(Optimized { plan, trace })
}

fn validate_predictor(graph: &TransformGraph, types: &[ColumnType]) -> Result<()> {
    let out = graph.output as usize;
    let op = &graph.nodes[out].op;
    if !op.kind().is_predictor() {
        return Err(DataError::InvalidGraph(format!(
            "pipeline must end in a predictor, found {}",
            op.kind().name()
        )));
    }
    if types[out] != ColumnType::F32Scalar {
        return Err(DataError::InvalidGraph(format!(
            "pipeline output must be a scalar prediction, found {}",
            types[out]
        )));
    }
    Ok(())
}

// -------------------------------------------------------------------------
// IR helpers
// -------------------------------------------------------------------------

impl Ir {
    fn op_annotations(&self, i: usize) -> (Arity, Bound, bool) {
        match &self.ops[i] {
            StageOp::Op(op) => {
                let a = op.annotations();
                (a.arity, a.bound, a.breaker)
            }
            // Synthetic pushdown nodes behave like cheap compute steps that
            // are explicitly placed by the rules; they never break stages.
            _ => (Arity::OneToOne, Bound::Compute, false),
        }
    }

    fn fusible(&self, i: usize) -> bool {
        let (arity, bound, breaker) = self.op_annotations(i);
        arity == Arity::OneToOne && bound == Bound::Memory && !breaker
    }

    fn consumers(&self) -> Vec<Vec<u32>> {
        let mut cons = vec![Vec::new(); self.ops.len()];
        for (i, inputs) in self.inputs.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            for input in inputs {
                if let Input::Node(p) = input {
                    cons[*p as usize].push(i as u32);
                }
            }
        }
        cons
    }

    /// Kahn topological order over alive nodes; errors on a cycle.
    fn topo_order(&self) -> Result<Vec<u32>> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        for (i, inputs) in self.inputs.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            for input in inputs {
                if let Input::Node(p) = input {
                    if self.alive[*p as usize] {
                        indeg[i] += 1;
                    } else {
                        return Err(DataError::InvalidGraph(format!(
                            "node {i} reads dead node {p}"
                        )));
                    }
                }
            }
        }
        let mut queue: std::collections::VecDeque<u32> = (0..n as u32)
            .filter(|&i| self.alive[i as usize] && indeg[i as usize] == 0)
            .collect();
        let cons = self.consumers();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &cons[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        if order.len() != alive_count {
            return Err(DataError::InvalidGraph("cycle in optimizer IR".into()));
        }
        Ok(order)
    }
}

// -------------------------------------------------------------------------
// Step 2: stage assignment
// -------------------------------------------------------------------------

/// Greedy Tupleware-style stage formation over the topological order:
/// a fusible (memory-bound, non-breaker) node joins the stage of its
/// latest producer when that stage is "open" (it was started by a fusible
/// node) — also when a sibling already extended it, so featurizers reading
/// one text (tokenizer, char and word n-grams) share one stage instead of
/// forking a second. The source counts as the producer of the first stage
/// a fusible node reading only the source started. Everything else starts
/// a new stage; compute-bound operators never open one, so what follows
/// them starts its own.
fn assign_stages(ir: &mut Ir) -> Result<u32> {
    let order = ir.topo_order()?;
    let mut stage_open: Vec<bool> = Vec::new(); // accepts further fusion
    let mut source_stage: Option<u32> = None;
    let mut fired = 0u32;
    for &i in &order {
        let i = i as usize;
        // Latest producer stage, if any: every producer is in it or in an
        // earlier stage, so joining it keeps stage edges forward.
        let latest = ir.inputs[i]
            .iter()
            .filter_map(|input| match input {
                Input::Node(p) => Some(ir.stage_of[*p as usize]),
                Input::Source => None,
            })
            .max()
            .or(source_stage);
        match latest {
            Some(s) if ir.fusible(i) && stage_open[s as usize] => ir.stage_of[i] = s,
            _ => {
                let s = stage_open.len() as u32;
                ir.stage_of[i] = s;
                stage_open.push(ir.fusible(i));
                if latest.is_none() && ir.fusible(i) {
                    source_stage = Some(s);
                }
            }
        }
        fired += 1;
    }
    ir.n_stages = stage_open.len() as u32;
    Ok(fired)
}

/// Stage-graph acyclicity: every inter-stage edge must point forward.
fn check_stage_edges_forward(ir: &Ir) -> Result<()> {
    for (i, inputs) in ir.inputs.iter().enumerate() {
        if !ir.alive[i] {
            continue;
        }
        for input in inputs {
            if let Input::Node(p) = input {
                let (sp, si) = (ir.stage_of[*p as usize], ir.stage_of[i]);
                if sp > si {
                    return Err(DataError::InvalidGraph(format!(
                        "backward stage edge {sp} -> {si} (node {p} -> {i})"
                    )));
                }
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------------------
// Step 3: stage-graph optimizer rules
// -------------------------------------------------------------------------

/// Nodes with equal operators (by parameter checksum) and equal inputs
/// collapse into one — the rule that lets branches share a Tokenizer.
fn cse(ir: &mut Ir) -> Result<u32> {
    let mut fired = 0u32;
    let n = ir.ops.len();
    for i in 0..n {
        if !ir.alive[i] {
            continue;
        }
        for j in (i + 1)..n {
            if !ir.alive[j] || ir.inputs[i] != ir.inputs[j] {
                continue;
            }
            let same = match (&ir.ops[i], &ir.ops[j]) {
                (StageOp::Op(a), StageOp::Op(b)) => a.checksum() == b.checksum(),
                _ => false,
            };
            if !same || ir.output as usize == j {
                continue;
            }
            // Redirect consumers of j to i; kill j.
            for inputs in ir.inputs.iter_mut() {
                for input in inputs.iter_mut() {
                    if *input == Input::Node(j as u32) {
                        *input = Input::Node(i as u32);
                    }
                }
            }
            ir.alive[j] = false;
            fired += 1;
        }
    }
    Ok(fired)
}

/// Pushes linear models through Concat (and into single featurizer
/// branches): `Linear(Concat(b1..bn))` becomes per-branch `PartialDot`
/// nodes placed in the branches' stages plus a `Combine` replacing the
/// Linear; the Concat dies with its buffers (paper §2, §4.1.2 rules 4–5).
fn linear_pushdown(ir: &mut Ir) -> Result<u32> {
    let mut fired = 0u32;
    let n = ir.ops.len();
    for l in 0..n {
        if !ir.alive[l] {
            continue;
        }
        let linear = match &ir.ops[l] {
            StageOp::Op(Op::Linear(p)) => Arc::clone(p),
            _ => continue,
        };
        let &[Input::Node(c)] = ir.inputs[l].as_slice() else {
            continue;
        };
        let c = c as usize;
        let concat = match &ir.ops[c] {
            StageOp::Op(Op::Concat(p)) => Some(Arc::clone(p)),
            _ => None,
        };
        let Some(concat) = concat else { continue };
        // Only push when the Linear is the Concat's sole consumer —
        // otherwise the concatenated vector must exist anyway.
        let consumers = ir.consumers();
        if consumers[c].len() != 1 {
            continue;
        }
        // Create one PartialDot per branch, in the branch's stage.
        let branches = ir.inputs[c].clone();
        let mut partials = Vec::with_capacity(branches.len());
        for (k, b) in branches.iter().enumerate() {
            let offset = concat.offset(k) as u32;
            let idx = ir.ops.len() as u32;
            ir.ops.push(StageOp::PartialDot {
                linear: Arc::clone(&linear),
                offset,
            });
            ir.inputs.push(vec![*b]);
            ir.stats.push(NodeStats::new(1, 1.0));
            ir.alive.push(true);
            ir.types.push(ColumnType::F32Scalar);
            let stage = match b {
                Input::Node(p) => ir.stage_of[*p as usize],
                // A branch reading the source directly: keep the dot in the
                // Linear's (now Combine's) stage.
                Input::Source => ir.stage_of[l],
            };
            ir.stage_of.push(stage);
            partials.push(Input::Node(idx));
        }
        // The Linear becomes the Combine over the partials, placed in the
        // latest partial's stage so every partial is ready when it runs.
        let combine_stage = partials
            .iter()
            .map(|p| match p {
                Input::Node(i) => ir.stage_of[*i as usize],
                Input::Source => unreachable!("partials are nodes"),
            })
            .max()
            .unwrap_or(ir.stage_of[l]);
        ir.ops[l] = StageOp::Combine { linear };
        ir.inputs[l] = partials;
        ir.stage_of[l] = combine_stage;
        ir.alive[c] = false;
        fired += 1;
    }
    Ok(fired)
}

/// Compiles away the Concat in front of a tree ensemble:
/// `TreeEnsemble(Concat(b1..bn))`, the ensemble being the Concat's only
/// consumer, becomes one [`StageOp::TreeOverConcat`] node in the
/// ensemble's stage that reads b1..bn directly. Trees read features by
/// index, so nothing is split per branch; what goes is the CSR row the
/// Concat built. The Concat, its stage and its slot then die.
fn tree_concat_pushdown(ir: &mut Ir) -> Result<u32> {
    let mut fired = 0u32;
    for t in 0..ir.ops.len() {
        if !ir.alive[t] {
            continue;
        }
        let StageOp::Op(Op::TreeEnsemble(ensemble)) = &ir.ops[t] else {
            continue;
        };
        let &[Input::Node(c)] = ir.inputs[t].as_slice() else {
            continue;
        };
        let c = c as usize;
        let StageOp::Op(Op::Concat(concat)) = &ir.ops[c] else {
            continue;
        };
        if ir.consumers()[c].len() != 1 {
            continue;
        }
        ir.ops[t] = StageOp::TreeOverConcat {
            ensemble: Arc::clone(ensemble),
            concat: Arc::clone(concat),
        };
        ir.inputs[t] = ir.inputs[c].clone();
        ir.alive[c] = false;
        fired += 1;
    }
    Ok(fired)
}

/// Kills nodes unreachable from the output (dead Concats, orphan branches).
fn dead_node_elimination(ir: &mut Ir) -> Result<u32> {
    let n = ir.ops.len();
    let mut live = vec![false; n];
    let mut stack = vec![ir.output];
    while let Some(u) = stack.pop() {
        if std::mem::replace(&mut live[u as usize], true) {
            continue;
        }
        for input in &ir.inputs[u as usize] {
            if let Input::Node(p) = input {
                stack.push(*p);
            }
        }
    }
    let mut fired = 0u32;
    for (alive, live) in ir.alive.iter_mut().zip(&live) {
        if *alive && !live {
            *alive = false;
            fired += 1;
        }
    }
    Ok(fired)
}

/// A stage containing a single fusible node is inlined into the stage of
/// its unique consumer (removing a scheduling event and a slot).
fn inline_single_op_stages(ir: &mut Ir) -> Result<u32> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ir.n_stages as usize];
    for i in 0..ir.ops.len() {
        if ir.alive[i] {
            members[ir.stage_of[i] as usize].push(i as u32);
        }
    }
    let consumers = ir.consumers();
    let mut fired = 0u32;
    for stage_members in &members {
        let &[node] = stage_members.as_slice() else {
            continue;
        };
        let node = node as usize;
        if !ir.fusible(node) || node == ir.output as usize {
            continue;
        }
        let cons = &consumers[node];
        let &[consumer] = cons.as_slice() else {
            continue;
        };
        let target = ir.stage_of[consumer as usize];
        if target == ir.stage_of[node] {
            continue;
        }
        // Forward-edge safety: all producers must live in stages before the
        // target.
        let ok = ir.inputs[node].iter().all(|input| match input {
            Input::Source => true,
            Input::Node(p) => ir.stage_of[*p as usize] < target,
        });
        if ok {
            ir.stage_of[node] = target;
            fired += 1;
        }
    }
    Ok(fired)
}

/// Renumbers stages compactly after nodes died or moved, dropping empty
/// stages while preserving relative order.
fn dead_stage_elimination(ir: &mut Ir) -> Result<u32> {
    let mut used = vec![false; ir.n_stages as usize];
    for i in 0..ir.ops.len() {
        if ir.alive[i] {
            used[ir.stage_of[i] as usize] = true;
        }
    }
    let dead = used.iter().filter(|&&u| !u).count() as u32;
    if dead == 0 {
        return Ok(0);
    }
    let mut remap = vec![u32::MAX; ir.n_stages as usize];
    let mut next = 0u32;
    for (s, &u) in used.iter().enumerate() {
        if u {
            remap[s] = next;
            next += 1;
        }
    }
    for i in 0..ir.ops.len() {
        if ir.alive[i] {
            ir.stage_of[i] = remap[ir.stage_of[i] as usize];
        }
    }
    ir.n_stages = next;
    Ok(dead)
}

// -------------------------------------------------------------------------
// Step 4: lowering to StagePlan
// -------------------------------------------------------------------------

fn lower(ir: &Ir) -> Result<StagePlan> {
    let order = ir.topo_order()?;
    let consumers = ir.consumers();

    // Decide slot vs scratch per node: outputs crossing stage boundaries
    // (or the plan output) become slots; stage-private values are scratch.
    let mut slots: Vec<BufDef> = vec![BufDef::new(ir.source_type, 4096)];
    let mut slot_of: Vec<Option<u32>> = vec![None; ir.ops.len()];
    for &i in &order {
        let i = i as usize;
        let crosses = consumers[i]
            .iter()
            .any(|&c| ir.stage_of[c as usize] != ir.stage_of[i])
            || i == ir.output as usize;
        if crosses {
            let id = slots.len() as u32;
            slots.push(BufDef::new(ir.types[i], ir.stats[i].max_stored));
            slot_of[i] = Some(id);
        }
    }

    // Group nodes by stage, keeping topological order inside each stage,
    // and order stages by their first node's topological position.
    let mut stage_nodes: Vec<Vec<u32>> = vec![Vec::new(); ir.n_stages as usize];
    for &i in &order {
        stage_nodes[ir.stage_of[i as usize] as usize].push(i);
    }
    let mut stage_order: Vec<u32> = (0..ir.n_stages).collect();
    let first_pos: Vec<usize> = {
        let mut pos = vec![usize::MAX; ir.ops.len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i as usize] = k;
        }
        stage_nodes
            .iter()
            .map(|ns| ns.first().map_or(usize::MAX, |&n| pos[n as usize]))
            .collect()
    };
    stage_order.sort_by_key(|&s| first_pos[s as usize]);

    let mut stages = Vec::with_capacity(ir.n_stages as usize);
    let mut plan_stats = NodeStats::new(0, 0.0);
    for &s in &stage_order {
        let nodes = &stage_nodes[s as usize];
        if nodes.is_empty() {
            continue;
        }
        let mut scratch: Vec<BufDef> = Vec::new();
        let mut scratch_of: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut steps = Vec::with_capacity(nodes.len());
        let mut reads: Vec<u32> = Vec::new();
        let mut writes: Vec<u32> = Vec::new();
        let mut merged = NodeStats::new(0, 0.0);
        let mut any_compute_vectorizable = false;
        for &i in nodes {
            let i = i as usize;
            merged = merged.merge(&ir.stats[i]);
            if let StageOp::Op(op) = &ir.ops[i] {
                let a = op.annotations();
                if a.vectorizable {
                    any_compute_vectorizable = true;
                }
            }
            let inputs = ir.inputs[i]
                .iter()
                .map(|input| match input {
                    Input::Source => {
                        if !reads.contains(&0) {
                            reads.push(0);
                        }
                        Loc::Slot(0)
                    }
                    Input::Node(p) => {
                        let p = *p as usize;
                        if let Some(slot) = slot_of[p] {
                            if ir.stage_of[p] != s && !reads.contains(&slot) {
                                reads.push(slot);
                            }
                            Loc::Slot(slot)
                        } else {
                            Loc::Scratch(
                                *scratch_of
                                    .get(&(p as u32))
                                    .expect("scratch producer precedes consumer within the stage"),
                            )
                        }
                    }
                })
                .collect();
            let output = if let Some(slot) = slot_of[i] {
                writes.push(slot);
                Loc::Slot(slot)
            } else {
                let id = scratch.len() as u32;
                scratch.push(BufDef::new(ir.types[i], ir.stats[i].max_stored));
                scratch_of.insert(i as u32, id);
                Loc::Scratch(id)
            };
            steps.push(Step {
                op: ir.ops[i].clone(),
                inputs,
                output,
            });
        }
        plan_stats = plan_stats.merge(&merged);
        let dense = merged.is_dense();
        stages.push(LogicalStage {
            steps,
            scratch,
            reads,
            writes,
            dense,
            vectorizable: dense && any_compute_vectorizable,
        });
    }

    let output_slot = slot_of[ir.output as usize]
        .ok_or_else(|| DataError::InvalidGraph("output node got no slot".into()))?;
    Ok(StagePlan {
        source_type: ir.source_type,
        slots,
        stages,
        output_slot,
        stats: plan_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TNode;
    use pretzel_ops::feat::concat::ConcatParams;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;
    use pretzel_ops::text::tokenizer::TokenizerParams;
    use pretzel_ops::OpKind;

    /// The paper's Figure 1 pipeline: CsvParse → {Tokenizer, CharNgram,
    /// WordNgram} → Concat → Linear.
    fn sa_graph(char_dim: usize, word_dim: usize, seed: u64) -> TransformGraph {
        let vocab = synth::vocabulary(1, 64);
        TransformGraph {
            source_type: ColumnType::Text,
            nodes: vec![
                TNode {
                    op: Op::CsvParse(Arc::new(pretzel_ops::text::csv::CsvParams::select_text(1))),
                    inputs: vec![Input::Source],
                    stats: NodeStats::new(512, 0.0),
                },
                TNode {
                    op: Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::new(128, 0.0),
                },
                TNode {
                    op: Op::CharNgram(Arc::new(synth::char_ngram(2, 3, char_dim))),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::new(char_dim / 4, 0.02),
                },
                TNode {
                    op: Op::WordNgram(Arc::new(synth::word_ngram(3, 2, word_dim, &vocab))),
                    inputs: vec![Input::Node(0), Input::Node(1)],
                    stats: NodeStats::new(word_dim / 4, 0.02),
                },
                TNode {
                    op: Op::Concat(Arc::new(ConcatParams::new(vec![
                        char_dim as u32,
                        word_dim as u32,
                    ]))),
                    inputs: vec![Input::Node(2), Input::Node(3)],
                    stats: NodeStats::new((char_dim + word_dim) / 4, 0.02),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(
                        seed,
                        char_dim + word_dim,
                        LinearKind::Logistic,
                    ))),
                    inputs: vec![Input::Node(4)],
                    stats: NodeStats::new(1, 1.0),
                },
            ],
            output: 5,
        }
    }

    #[test]
    fn sa_pipeline_optimizes_to_one_stage() {
        let out = optimize(&sa_graph(64, 64, 9)).unwrap();
        // Paper §4.1.2: "The final plan will therefore be composed of 2
        // stages, versus the initial 4 operators (and vectors) of ML.Net."
        // Here it is one: the char n-gram joins the stage the tokenizer
        // extended, since both only read the CSV field.
        assert_eq!(out.plan.stages.len(), 1, "trace: {:#?}", out.trace);
        // Its only slots are the source and the score.
        let slot_types: Vec<ColumnType> = out.plan.slots.iter().map(|d| d.ty).collect();
        assert_eq!(slot_types, [ColumnType::Text, ColumnType::F32Scalar]);
        assert_eq!(out.plan.output_slot, 1);
        // The Concat is gone.
        let has_concat = out.plan.stages.iter().any(|s| {
            s.steps
                .iter()
                .any(|st| matches!(&st.op, StageOp::Op(op) if op.kind() == OpKind::Concat))
        });
        assert!(!has_concat, "pushdown must remove the Concat");
        // Pushdown happened: partial dots and one combine exist.
        let partials: usize = out
            .plan
            .stages
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|st| matches!(st.op, StageOp::PartialDot { .. }))
            .count();
        assert_eq!(partials, 2);
        let trace_rules: Vec<_> = out.trace.iter().map(|t| t.rule).collect();
        assert!(trace_rules.contains(&"LinearModelPushdown"));
    }

    #[test]
    fn plan_output_slot_is_scalar() {
        let out = optimize(&sa_graph(32, 32, 1)).unwrap();
        let slot = &out.plan.slots[out.plan.output_slot as usize];
        assert_eq!(slot.ty, ColumnType::F32Scalar);
    }

    #[test]
    fn stage_count_beats_operator_count() {
        let g = sa_graph(32, 32, 2);
        let n_ops = g.nodes.len();
        let out = optimize(&g).unwrap();
        assert!(out.plan.stages.len() < n_ops);
        // Fewer plan slots than the operator-at-a-time model's vectors
        // (ML.Net materializes one output vector per operator).
        assert!(out.plan.slots.len() < n_ops + 1);
    }

    #[test]
    fn duplicate_branches_are_cse_deduped() {
        // Two identical CharNgram branches concatenated: CSE must collapse
        // them into one node feeding both Concat ports.
        let char_dim = 32;
        let cgram = synth::char_ngram(5, 3, char_dim);
        let g = TransformGraph {
            source_type: ColumnType::Text,
            nodes: vec![
                TNode {
                    op: Op::CharNgram(Arc::new(cgram.clone())),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::CharNgram(Arc::new(cgram)),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Concat(Arc::new(ConcatParams::new(vec![
                        char_dim as u32,
                        char_dim as u32,
                    ]))),
                    inputs: vec![Input::Node(0), Input::Node(1)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(
                        3,
                        2 * char_dim,
                        LinearKind::Logistic,
                    ))),
                    inputs: vec![Input::Node(2)],
                    stats: NodeStats::default(),
                },
            ],
            output: 3,
        };
        let out = optimize(&g).unwrap();
        assert!(out
            .trace
            .iter()
            .any(|t| t.rule == "CommonSubexpressionElimination" && t.fired >= 1));
        // Only one CharNgram (or fused equivalent) remains across stages.
        let ngrams: usize = out
            .plan
            .stages
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|st| matches!(&st.op, StageOp::Op(op) if op.kind() == OpKind::CharNgram))
            .count();
        assert_eq!(ngrams, 1);
    }

    #[test]
    fn non_predictor_output_rejected() {
        let mut g = sa_graph(16, 16, 4);
        g.output = 1; // tokenizer
        assert!(optimize(&g).is_err());
    }

    #[test]
    fn linear_not_pushed_when_concat_has_other_consumers() {
        // Concat feeds both the Linear and a TreeEnsemble: the concatenated
        // vector must be materialized, so pushdown must not fire.
        let char_dim = 16;
        let g = TransformGraph {
            source_type: ColumnType::Text,
            nodes: vec![
                TNode {
                    op: Op::CharNgram(Arc::new(synth::char_ngram(5, 3, char_dim))),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::HashingVectorizer(Arc::new(
                        pretzel_ops::text::hashing::HashingParams::new(3, 16, true),
                    )),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Concat(Arc::new(ConcatParams::new(vec![16, 16]))),
                    inputs: vec![Input::Node(0), Input::Node(1)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::TreeEnsemble(Arc::new(synth::ensemble(
                        7,
                        32,
                        2,
                        2,
                        pretzel_ops::tree::EnsembleMode::Sum,
                    ))),
                    inputs: vec![Input::Node(2)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(8, 32, LinearKind::Regression))),
                    inputs: vec![Input::Node(2)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Concat(Arc::new(ConcatParams::new(vec![1, 1]))),
                    inputs: vec![Input::Node(3), Input::Node(4)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(9, 2, LinearKind::Regression))),
                    inputs: vec![Input::Node(5)],
                    stats: NodeStats::default(),
                },
            ],
            output: 6,
        };
        let out = optimize(&g).unwrap();
        // The shared Concat survives: neither the linear nor the tree
        // pushdown fires through it.
        let names: Vec<&str> = out
            .plan
            .stages
            .iter()
            .flat_map(|s| &s.steps)
            .map(|st| st.op.name())
            .collect();
        let count = |name: &str| names.iter().filter(|&&n| n == name).count();
        assert_eq!(count("Concat"), 1, "shared Concat must be kept: {names:?}");
        assert_eq!(count("TreeEnsemble"), 1, "{names:?}");
        assert_eq!(count("TreeOverConcat"), 0, "{names:?}");
        let rules: Vec<_> = out.trace.iter().map(|t| t.rule).collect();
        assert!(!rules.contains(&"TreeConcatPushdown"), "{rules:?}");
    }

    #[test]
    fn ac_style_ensemble_graph_optimizes() {
        // PCA ∥ KMeans ∥ TreeFeaturizer over a 16-dim input, concatenated
        // into a final tree — the Attendee Count shape.
        let dim = 16;
        let pca = synth::pca(11, 4, dim);
        let km = synth::kmeans(12, 3, dim);
        let tf = synth::ensemble(13, dim, 2, 2, pretzel_ops::tree::EnsembleMode::Sum);
        let tf_leaves = tf.total_leaves();
        let final_dim = 4 + 3 + tf_leaves;
        let g = TransformGraph {
            source_type: ColumnType::F32Dense { len: dim },
            nodes: vec![
                TNode {
                    op: Op::Scaler(Arc::new(synth::scaler(10, dim))),
                    inputs: vec![Input::Source],
                    stats: NodeStats::new(dim, 1.0),
                },
                TNode {
                    op: Op::Pca(Arc::new(pca)),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::new(4, 1.0),
                },
                TNode {
                    op: Op::KMeans(Arc::new(km)),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::new(3, 1.0),
                },
                TNode {
                    op: Op::TreeFeaturizer(Arc::new(tf)),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::new(2, 0.1),
                },
                TNode {
                    op: Op::Concat(Arc::new(ConcatParams::new(vec![4, 3, tf_leaves as u32]))),
                    inputs: vec![Input::Node(1), Input::Node(2), Input::Node(3)],
                    stats: NodeStats::new(final_dim, 0.5),
                },
                TNode {
                    op: Op::TreeEnsemble(Arc::new(synth::ensemble(
                        14,
                        final_dim,
                        3,
                        3,
                        pretzel_ops::tree::EnsembleMode::Average,
                    ))),
                    inputs: vec![Input::Node(4)],
                    stats: NodeStats::new(1, 1.0),
                },
            ],
            output: 5,
        };
        let out = optimize(&g).unwrap();
        out.plan.validate().unwrap();
        // The final forest reads the Concat's branches by index: the tree
        // pushdown folds the Concat into it, and the Concat's stage dies.
        // Compute-bound operators never open a stage, so each sits in its
        // own: featurizer siblings sharing a stage leaves this plan alone.
        let stages: Vec<Vec<&str>> = out
            .plan
            .stages
            .iter()
            .map(|s| s.steps.iter().map(|st| st.op.name()).collect())
            .collect();
        assert_eq!(
            stages,
            [
                vec!["Scaler"],
                vec!["Pca"],
                vec!["KMeans"],
                vec!["TreeFeaturizer"],
                vec!["TreeOverConcat"],
            ]
        );
        // The step reads the three branches, in the Concat's order.
        let last = &out.plan.stages[4].steps[0];
        let branch_slots: Vec<Loc> = out.plan.stages[1..4]
            .iter()
            .map(|s| s.steps[0].output)
            .collect();
        assert_eq!(last.inputs, branch_slots);
        let rules: Vec<_> = out.trace.iter().map(|t| t.rule).collect();
        assert!(rules.contains(&"TreeConcatPushdown"), "{rules:?}");
    }

    #[test]
    fn single_featurizer_linear_plan_works_without_concat() {
        let dim = 32;
        let g = TransformGraph {
            source_type: ColumnType::Text,
            nodes: vec![
                TNode {
                    op: Op::CharNgram(Arc::new(synth::char_ngram(6, 3, dim))),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(7, dim, LinearKind::Logistic))),
                    inputs: vec![Input::Node(0)],
                    stats: NodeStats::default(),
                },
            ],
            output: 1,
        };
        let out = optimize(&g).unwrap();
        out.plan.validate().unwrap();
        assert!(!out.plan.stages.is_empty());
    }

    #[test]
    fn trace_records_all_four_steps() {
        let out = optimize(&sa_graph(16, 16, 5)).unwrap();
        let steps: std::collections::HashSet<_> = out.trace.iter().map(|t| t.step).collect();
        assert!(steps.contains("InputGraphValidator"));
        assert!(steps.contains("StageGraphBuilder"));
        assert!(steps.contains("StageGraphOptimizer"));
        assert!(steps.contains("OutputGraphValidator"));
    }
}
