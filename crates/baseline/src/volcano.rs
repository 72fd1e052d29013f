//! Operator-at-a-time (Volcano-style) execution.
//!
//! "Predictions over ML.Net pipelines are computed by pulling records
//! through a sequence of operators, each of them operating over the input
//! vector(s) and producing one or more new vectors", "similarly to the
//! well-known Volcano-style iterator model of databases" (paper §2).
//!
//! The two black-box costs the paper attributes to this model are
//! reproduced faithfully:
//!
//! * **allocation on the data path** — every operator call allocates a
//!   fresh output [`Vector`]; nothing is pooled;
//! * **operator-granular execution** — each operator materializes its full
//!   output before the next one starts (no fusion, no pushdown), so the
//!   Concat buffer and every intermediate exists.

use pretzel_core::graph::{Input, TransformGraph};
use pretzel_core::physical::SourceRef;
use pretzel_data::{DataError, Result, Vector};
use std::time::{Duration, Instant};

fn load_source(graph: &TransformGraph, source: SourceRef<'_>) -> Result<Vector> {
    let mut v = Vector::with_type(graph.source_type);
    source.load_into(&mut v)?;
    Ok(v)
}

/// Executes `graph` operator-at-a-time, allocating every intermediate.
///
/// Returns the scalar prediction of the output node.
pub fn execute(graph: &TransformGraph, source: SourceRef<'_>) -> Result<f32> {
    let types = graph.propagate_types()?;
    let src = load_source(graph, source)?;
    let mut outputs: Vec<Option<Vector>> = vec![None; graph.nodes.len()];
    for i in 0..graph.nodes.len() {
        // Fresh allocation per operator output: the baseline behaviour.
        let mut out = Vector::with_type(types[i]);
        apply_node(graph, &src, &outputs, i, &mut out)?;
        outputs[i] = Some(out);
    }
    outputs[graph.output as usize]
        .as_ref()
        .and_then(|v| v.as_scalar())
        .ok_or_else(|| DataError::Runtime("volcano output is not scalar".into()))
}

/// Executes like [`execute`] while timing each operator; returns the
/// prediction and per-operator wall-clock durations (paper Figure 5).
pub fn profile(
    graph: &TransformGraph,
    source: SourceRef<'_>,
) -> Result<(f32, Vec<(String, Duration)>)> {
    let types = graph.propagate_types()?;
    let src = load_source(graph, source)?;
    let mut outputs: Vec<Option<Vector>> = vec![None; graph.nodes.len()];
    let mut timings = Vec::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        let start = Instant::now();
        let mut out = Vector::with_type(types[i]);
        apply_node(graph, &src, &outputs, i, &mut out)?;
        outputs[i] = Some(out);
        timings.push((node.op.kind().name().to_string(), start.elapsed()));
    }
    let score = outputs[graph.output as usize]
        .as_ref()
        .and_then(|v| v.as_scalar())
        .ok_or_else(|| DataError::Runtime("volcano output is not scalar".into()))?;
    Ok((score, timings))
}

fn apply_node(
    graph: &TransformGraph,
    src: &Vector,
    outputs: &[Option<Vector>],
    i: usize,
    out: &mut Vector,
) -> Result<()> {
    let node = &graph.nodes[i];
    let inputs: Vec<&Vector> = node
        .inputs
        .iter()
        .map(|input| match input {
            Input::Source => Ok(src),
            Input::Node(p) => outputs[*p as usize]
                .as_ref()
                .ok_or_else(|| DataError::Runtime(format!("node {p} not yet produced"))),
        })
        .collect::<Result<_>>()?;
    node.op.apply(&inputs, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_core::flour::FlourContext;
    use pretzel_core::object_store::ObjectStore;
    use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan};
    use pretzel_data::pool::VectorPool;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;
    use std::sync::Arc;

    fn sa_graph(seed: u64) -> TransformGraph {
        let vocab = synth::vocabulary(0, 64);
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(1).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 128)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 128, &vocab)));
        c.concat(&w)
            .classifier_linear(Arc::new(synth::linear(seed, 256, LinearKind::Logistic)))
            .graph()
    }

    #[test]
    fn volcano_matches_pretzel_plan_execution() {
        // The central correctness property of the reproduction: black-box
        // and white-box engines compute identical predictions.
        let graph = sa_graph(5);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            pretzel_core::oven::optimize(&graph).unwrap().plan,
            &CompileOptions::default(),
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(pool);
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        for line in ["5,a nice product with a long description", "1,bad", "3,"] {
            let v = execute(&graph, SourceRef::Text(line)).unwrap();
            let p = plan
                .execute(SourceRef::Text(line), &mut slots, &mut ctx)
                .unwrap();
            assert!((v - p).abs() < 1e-5, "{line}: volcano {v} vs pretzel {p}");
        }
    }

    #[test]
    fn profile_reports_one_timing_per_operator() {
        let graph = sa_graph(1);
        let (score, timings) = profile(&graph, SourceRef::Text("4,pretty good")).unwrap();
        assert!(score.is_finite());
        assert_eq!(timings.len(), graph.nodes.len());
        let names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"CharNgram"));
        assert!(names.contains(&"Concat"));
        assert!(names.contains(&"Linear"));
    }

    #[test]
    fn wrong_source_type_is_error() {
        let graph = sa_graph(2);
        assert!(execute(&graph, SourceRef::Dense(&[1.0])).is_err());
    }
}
