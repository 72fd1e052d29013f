//! The transformation DAG produced by Flour and consumed by Oven.
//!
//! A [`TransformGraph`] is the paper's "input graph of Flour
//! transformations" (§4.1.2): nodes hold an operator plus references to
//! their producers. Nodes only ever reference *earlier* nodes (Flour builds
//! the graph incrementally), so acyclicity is a structural invariant that
//! [`TransformGraph::validate_structure`] re-checks on every graph that
//! reaches the optimizer.

use crate::train_stats::NodeStats;
use pretzel_data::{ColumnType, DataError, Result};
use pretzel_ops::Op;

/// Reference to a producer of a node's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The pipeline's source record (request payload).
    Source,
    /// The output of transformation node `.0`.
    Node(u32),
}

/// One transformation node.
#[derive(Debug, Clone)]
pub struct TNode {
    /// The operator.
    pub op: Op,
    /// Producers, in operator-input order.
    pub inputs: Vec<Input>,
    /// Training statistics for this transformation's output.
    pub stats: NodeStats,
}

/// A pipeline as authored in Flour: source type + transformation nodes.
#[derive(Debug, Clone)]
pub struct TransformGraph {
    /// Type of the source record.
    pub source_type: ColumnType,
    /// Transformation nodes; node `i` may only reference nodes `< i`.
    pub nodes: Vec<TNode>,
    /// The node whose output is the pipeline's prediction.
    pub output: u32,
}

impl TransformGraph {
    /// Structural validation: index ranges, topological input ordering,
    /// input arity per operator, and reachability of the output.
    pub fn validate_structure(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(DataError::InvalidGraph("graph has no nodes".into()));
        }
        if self.output as usize >= self.nodes.len() {
            return Err(DataError::InvalidGraph(format!(
                "output node {} out of range",
                self.output
            )));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.inputs.len() != node.op.n_inputs() {
                return Err(DataError::InvalidGraph(format!(
                    "node {i} ({}) has {} inputs, operator wants {}",
                    node.op.kind().name(),
                    node.inputs.len(),
                    node.op.n_inputs()
                )));
            }
            for input in &node.inputs {
                if let Input::Node(p) = input {
                    if *p as usize >= i {
                        return Err(DataError::InvalidGraph(format!(
                            "node {i} references non-earlier node {p} (cycle or forward edge)"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Propagates column types from the source through every node.
    ///
    /// Returns the per-node output types; fails on any schema mismatch.
    /// This is the workhorse of the `InputGraphValidatorStep`.
    pub fn propagate_types(&self) -> Result<Vec<ColumnType>> {
        let mut types: Vec<ColumnType> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let in_types: Vec<ColumnType> = node
                .inputs
                .iter()
                .map(|inp| match inp {
                    Input::Source => self.source_type,
                    Input::Node(p) => types[*p as usize],
                })
                .collect();
            types.push(node.op.output_type(&in_types)?);
        }
        Ok(types)
    }

    /// Consumers of each node (indices of nodes reading it), plus whether
    /// the source is read by each node.
    pub fn consumers(&self) -> Vec<Vec<u32>> {
        let mut cons = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for input in &node.inputs {
                if let Input::Node(p) = input {
                    cons[*p as usize].push(i as u32);
                }
            }
        }
        cons
    }

    /// Nodes reachable (backwards) from the output node.
    pub fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack = vec![self.output];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n as usize], true) {
                continue;
            }
            for input in &self.nodes[n as usize].inputs {
                if let Input::Node(p) = input {
                    stack.push(*p);
                }
            }
        }
        live
    }

    /// Total parameter bytes across nodes (no dedup).
    pub fn param_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.op.heap_bytes()).sum()
    }

    /// Serializes the whole pipeline into a model-file byte image: one
    /// section per operator ("one directory per pipeline operator",
    /// paper §2) plus a manifest section describing the DAG wiring.
    ///
    /// Both PRETZEL (off-line phase) and the black-box baseline load the
    /// same image — exactly as both systems in the paper consume ML.Net's
    /// exported models.
    pub fn to_model_image(&self) -> Vec<u8> {
        use pretzel_data::serde_bin::{wire, ModelFileWriter};
        let mut manifest = Vec::new();
        match self.source_type {
            ColumnType::Text => wire::put_u32(&mut manifest, 0),
            ColumnType::F32Dense { len } => {
                wire::put_u32(&mut manifest, 1);
                wire::put_u32(&mut manifest, len as u32);
            }
            ColumnType::F32Sparse { len } => {
                wire::put_u32(&mut manifest, 2);
                wire::put_u32(&mut manifest, len as u32);
            }
            other => {
                // Only text/dense/sparse sources are exported; enforced by
                // Flour.
                wire::put_u32(&mut manifest, 0);
                debug_assert!(false, "unexpected source type {other}");
            }
        }
        wire::put_u32(&mut manifest, self.output);
        wire::put_u32(&mut manifest, self.nodes.len() as u32);
        for node in &self.nodes {
            wire::put_u32(&mut manifest, node.inputs.len() as u32);
            for input in &node.inputs {
                match input {
                    Input::Source => wire::put_u32(&mut manifest, u32::MAX),
                    Input::Node(p) => wire::put_u32(&mut manifest, *p),
                }
            }
            wire::put_u32(&mut manifest, node.stats.max_stored as u32);
            wire::put_f32(&mut manifest, node.stats.density);
        }
        let mut writer = ModelFileWriter::new();
        writer.add_section("manifest", vec![("dag".into(), manifest)]);
        for (i, node) in self.nodes.iter().enumerate() {
            let section = node.op.to_section(i);
            writer.add_section(section.name.clone(), section.entries);
        }
        writer.finish()
    }

    /// Deserializes a pipeline from a model-file byte image.
    ///
    /// This is real loading work — every parameter blob is decoded into
    /// fresh allocations — which is what makes baseline cold-start costs
    /// honest in the experiments.
    pub fn from_model_image(image: &[u8]) -> Result<Self> {
        Self::load_image(image, None)
    }

    /// Deserializes a pipeline, *sharing* parameters through an Object
    /// Store: sections whose checksum is already resident are verified
    /// against their payload like any other, but not decoded — the
    /// canonical instance is cloned instead (paper §4.1.3 and
    /// the §5.1 fast-load behaviour). New parameters are decoded once and
    /// interned.
    pub fn from_model_image_shared(
        image: &[u8],
        store: &crate::object_store::ObjectStore,
    ) -> Result<Self> {
        Self::load_image(image, Some(store))
    }

    fn load_image(image: &[u8], store: Option<&crate::object_store::ObjectStore>) -> Result<Self> {
        use pretzel_data::serde_bin::{read_model_file, Cursor};
        let sections = read_model_file(image)?;
        let (manifest, ops) = sections
            .split_first()
            .ok_or_else(|| DataError::Codec("empty model file".into()))?;
        if manifest.name != "manifest" {
            return Err(DataError::Codec("model file missing manifest".into()));
        }
        let mut cur = Cursor::new(manifest.entry("dag")?);
        let source_type = match cur.u32()? {
            0 => ColumnType::Text,
            1 => ColumnType::F32Dense {
                len: cur.u32()? as usize,
            },
            2 => ColumnType::F32Sparse {
                len: cur.u32()? as usize,
            },
            t => return Err(DataError::Codec(format!("bad source tag {t}"))),
        };
        let output = cur.u32()?;
        let n_nodes = cur.u32()? as usize;
        if n_nodes != ops.len() {
            return Err(DataError::Codec(format!(
                "manifest claims {n_nodes} operators, file has {}",
                ops.len()
            )));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for section in ops {
            let n_inputs = cur.u32()? as usize;
            let mut inputs = Vec::with_capacity(n_inputs.min(64));
            for _ in 0..n_inputs {
                let raw = cur.u32()?;
                inputs.push(if raw == u32::MAX {
                    Input::Source
                } else {
                    Input::Node(raw)
                });
            }
            let max_stored = cur.u32()? as usize;
            let density = cur.f32()?;
            // Fast path: skip deserialization when the Object Store already
            // holds these parameters (identified by the file checksum).
            let op = match store {
                Some(store) => {
                    let kind = section.name.split_once('.').map(|(_, k)| k).unwrap_or("");
                    let want = Op::checksum_for_section(kind, section.checksum);
                    match store.get(want) {
                        Some(shared) => shared,
                        None => store.intern(Op::from_section(section)?),
                    }
                }
                None => Op::from_section(section)?,
            };
            nodes.push(TNode {
                op,
                inputs,
                stats: NodeStats::new(max_stored, density),
            });
        }
        let graph = TransformGraph {
            source_type,
            nodes,
            output,
        };
        graph.validate_structure()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;
    use pretzel_ops::text::tokenizer::TokenizerParams;
    use std::sync::Arc;

    fn sa_graph() -> TransformGraph {
        let vocab = synth::vocabulary(1, 32);
        TransformGraph {
            source_type: ColumnType::Text,
            nodes: vec![
                TNode {
                    op: Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())),
                    inputs: vec![Input::Source],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::WordNgram(Arc::new(synth::word_ngram(2, 2, 16, &vocab))),
                    inputs: vec![Input::Source, Input::Node(0)],
                    stats: NodeStats::default(),
                },
                TNode {
                    op: Op::Linear(Arc::new(synth::linear(3, 16, LinearKind::Logistic))),
                    inputs: vec![Input::Node(1)],
                    stats: NodeStats::default(),
                },
            ],
            output: 2,
        }
    }

    #[test]
    fn valid_graph_passes() {
        let g = sa_graph();
        g.validate_structure().unwrap();
        let types = g.propagate_types().unwrap();
        assert_eq!(types[0], ColumnType::TokenList);
        assert_eq!(types[2], ColumnType::F32Scalar);
    }

    #[test]
    fn forward_edge_rejected() {
        let mut g = sa_graph();
        g.nodes[0].inputs = vec![Input::Node(2)];
        assert!(g.validate_structure().is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut g = sa_graph();
        g.nodes[1].inputs.pop();
        assert!(g.validate_structure().is_err());
    }

    #[test]
    fn out_of_range_output_rejected() {
        let mut g = sa_graph();
        g.output = 9;
        assert!(g.validate_structure().is_err());
    }

    #[test]
    fn type_mismatch_detected_in_propagation() {
        let mut g = sa_graph();
        // Linear over TokenList: invalid.
        g.nodes[2].inputs = vec![Input::Node(0)];
        assert!(g.propagate_types().is_err());
    }

    #[test]
    fn consumers_and_liveness() {
        let g = sa_graph();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![1]);
        assert_eq!(cons[1], vec![2]);
        assert!(cons[2].is_empty());
        assert_eq!(g.live_nodes(), vec![true, true, true]);
    }

    #[test]
    fn model_image_round_trip() {
        let g = sa_graph();
        let image = g.to_model_image();
        let g2 = TransformGraph::from_model_image(&image).unwrap();
        assert_eq!(g2.source_type, g.source_type);
        assert_eq!(g2.output, g.output);
        assert_eq!(g2.nodes.len(), g.nodes.len());
        for (a, b) in g.nodes.iter().zip(&g2.nodes) {
            assert_eq!(a.op.checksum(), b.op.checksum());
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.stats, b.stats);
        }
        // Reloaded parameters are fresh allocations (no accidental sharing
        // with the original), which is what per-container copies rely on.
        for (a, b) in g.nodes.iter().zip(&g2.nodes) {
            assert_ne!(a.op.params_addr(), b.op.params_addr());
        }
    }

    #[test]
    fn model_image_corruption_rejected() {
        let g = sa_graph();
        let mut image = g.to_model_image();
        let n = image.len();
        image[n - 2] ^= 0x55;
        assert!(TransformGraph::from_model_image(&image).is_err());
        assert!(TransformGraph::from_model_image(&[]).is_err());
    }

    #[test]
    fn dense_source_round_trips_in_image() {
        use pretzel_ops::synth;
        let g = TransformGraph {
            source_type: ColumnType::F32Dense { len: 8 },
            nodes: vec![TNode {
                op: Op::TreeEnsemble(Arc::new(synth::ensemble(
                    1,
                    8,
                    2,
                    2,
                    pretzel_ops::tree::EnsembleMode::Sum,
                ))),
                inputs: vec![Input::Source],
                stats: NodeStats::default(),
            }],
            output: 0,
        };
        let g2 = TransformGraph::from_model_image(&g.to_model_image()).unwrap();
        assert_eq!(g2.source_type, ColumnType::F32Dense { len: 8 });
    }

    #[test]
    fn sparse_source_round_trips_in_image() {
        use pretzel_ops::linear::LinearKind;
        let g = TransformGraph {
            source_type: ColumnType::F32Sparse { len: 32 },
            nodes: vec![TNode {
                op: Op::Linear(Arc::new(synth::linear(4, 32, LinearKind::Logistic))),
                inputs: vec![Input::Source],
                stats: NodeStats::default(),
            }],
            output: 0,
        };
        let g2 = TransformGraph::from_model_image(&g.to_model_image()).unwrap();
        assert_eq!(g2.source_type, ColumnType::F32Sparse { len: 32 });
        assert_eq!(g2.nodes[0].op.checksum(), g.nodes[0].op.checksum());
    }

    #[test]
    fn dead_node_detected() {
        let mut g = sa_graph();
        // An extra tokenizer nobody reads.
        g.nodes.push(TNode {
            op: Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())),
            inputs: vec![Input::Source],
            stats: NodeStats::default(),
        });
        let live = g.live_nodes();
        assert_eq!(live, vec![true, true, true, false]);
    }
}
