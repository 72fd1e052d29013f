//! Logical model plans: stages, steps and buffer wiring.
//!
//! Oven's output is a DAG of *logical stages* (paper §4.1.2). Each stage is
//! a short program of [`Step`]s over two buffer spaces:
//!
//! * **slots** — the plan-level working set, leased from the vector pool
//!   once per pipeline execution (paper §4.2.2: "vectors are requested per
//!   pipeline, not per stage"). Stage boundaries and the final prediction
//!   live in slots.
//! * **scratch** — stage-local intermediates that never escape the stage.
//!   Fusion exists precisely to keep data here, in cache, instead of in
//!   materialized plan-level vectors.
//!
//! Besides plain operators, steps may hold the two synthetic operators that
//! implement the optimizer's *linear-model pushdown* (paper §2, §4.1.2):
//! [`StageOp::PartialDot`] scores one Concat branch against the matching
//! weight segment, and [`StageOp::Combine`] sums the partials and applies
//! bias + link — after which the Concat operator (and its buffer) is gone.
//! The optimizer's *tree pushdown* has one synthetic step of its own:
//! [`StageOp::TreeOverConcat`] walks a final forest over the branches of
//! the Concat it alone consumed, so that Concat and its buffer are gone
//! too. The Model Plan Compiler's one fused kernel is a step as well
//! ([`StageOp::FusedText`]); a logical plan from Oven never holds one.
//!
//! Every synthetic step outputs one scalar per row, computed by one row
//! routine over its inputs as row references: [`StageOp::apply`] (a row),
//! [`StageOp::apply_row`] (a row off the borrowed source) and
//! [`StageOp::apply_batch`] (a chunk, row by row) adapt it. A library
//! operator runs its own kernels, and only a synthetic step reads the
//! borrowed source.

use crate::train_stats::NodeStats;
use pretzel_data::batch::ColRef;
use pretzel_data::hash::Fnv1a;
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};
use pretzel_ops::feat::concat::ConcatParams;
use pretzel_ops::linear::LinearParams;
use pretzel_ops::params::ParamBlob;
use pretzel_ops::text::fused::FusedText;
use pretzel_ops::tree::EnsembleParams;
use pretzel_ops::Op;
use std::sync::Arc;

/// A step's operator: a library operator or a pushdown synthetic.
#[derive(Debug, Clone)]
pub enum StageOp {
    /// A regular operator from the library.
    Op(Op),
    /// Pushed-down partial dot product: numeric input → scalar partial,
    /// scored against `linear.weights[offset..offset + input_dim]`.
    /// No bias, no link — those belong to [`StageOp::Combine`].
    PartialDot {
        /// The pushed linear model (shared with the Combine step).
        linear: Arc<LinearParams>,
        /// Start of this branch's weight segment.
        offset: u32,
    },
    /// Sums `n` scalar partials, adds the bias and applies the link.
    Combine {
        /// The pushed linear model.
        linear: Arc<LinearParams>,
    },
    /// A whole text plan in one step (chosen by the Model Plan Compiler):
    /// CSV field selection, tokenization, every n-gram·dot branch and the
    /// Combine, line → score in one pass over the row.
    FusedText(Arc<FusedText>),
    /// A tree ensemble over the branches of a Concat it was the only
    /// consumer of (Oven's tree pushdown): one numeric input per Concat
    /// branch → scalar score, read into a dense row at the branch offsets
    /// with no concatenated vector built.
    TreeOverConcat {
        /// The final forest.
        ensemble: Arc<EnsembleParams>,
        /// The Concat whose branches the step reads.
        concat: Arc<ConcatParams>,
    },
}

impl StageOp {
    /// Short name for diagnostics and signatures.
    pub fn name(&self) -> &'static str {
        match self {
            StageOp::Op(op) => op.kind().name(),
            StageOp::PartialDot { .. } => "PartialDot",
            StageOp::Combine { .. } => "Combine",
            StageOp::FusedText(_) => "FusedText",
            StageOp::TreeOverConcat { .. } => "TreeOverConcat",
        }
    }

    /// Number of inputs the step consumes (Combine is variadic; callers pass
    /// the actual wiring count; a tree over a Concat reads one per branch).
    pub fn n_inputs(&self) -> Option<usize> {
        match self {
            StageOp::Op(op) => Some(op.n_inputs()),
            StageOp::PartialDot { .. } => Some(1),
            StageOp::Combine { .. } => None,
            StageOp::FusedText(_) => Some(1),
            StageOp::TreeOverConcat { concat, .. } => Some(concat.input_dims.len()),
        }
    }

    /// Calls `f` with every parameter object the step references, as an
    /// [`Op`] sharing its allocation (fused steps reference several): the
    /// one read-only walk behind Object Store retention, parameter byte
    /// counts and sharing checks.
    pub fn for_each_param(&self, mut f: impl FnMut(Op)) {
        match self {
            StageOp::Op(op) => f(op.clone()),
            StageOp::PartialDot { linear, .. } | StageOp::Combine { linear } => {
                f(Op::Linear(Arc::clone(linear)))
            }
            StageOp::FusedText(t) => t.for_each_op(f),
            StageOp::TreeOverConcat { ensemble, concat } => {
                f(Op::Concat(Arc::clone(concat)));
                f(Op::TreeEnsemble(Arc::clone(ensemble)));
            }
        }
    }

    /// Dedup/signature checksum of the step's parameters.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name().as_bytes());
        match self {
            StageOp::Op(op) => h.write_u64(op.checksum()),
            StageOp::PartialDot { linear, offset } => {
                h.write_u64(linear.checksum());
                h.write_u64(u64::from(*offset));
            }
            StageOp::Combine { linear } => h.write_u64(linear.checksum()),
            StageOp::FusedText(t) => h.write_u64(t.checksum()),
            StageOp::TreeOverConcat { ensemble, concat } => {
                h.write_u64(concat.checksum());
                h.write_u64(ensemble.checksum());
            }
        }
        h.finish()
    }

    /// True if the step's output is a pure function of (step params, source
    /// record) *and* its parameters are featurizer parameters likely shared
    /// across pipelines — the candidates for sub-plan materialization
    /// (paper §4.3).
    pub fn cacheable(&self) -> bool {
        match self {
            StageOp::Op(op) => matches!(
                op.kind(),
                pretzel_ops::OpKind::Tokenizer
                    | pretzel_ops::OpKind::CharNgram
                    | pretzel_ops::OpKind::WordNgram
                    | pretzel_ops::OpKind::TreeFeaturizer
                    | pretzel_ops::OpKind::Pca
                    | pretzel_ops::OpKind::KMeans
            ),
            _ => false,
        }
    }

    /// Executes the step on one row.
    pub fn apply(&self, inputs: &[&Vector], out: &mut Vector) -> Result<()> {
        match self {
            StageOp::Op(op) => op.apply(inputs, out),
            synthetic => write_scalar(
                out,
                synthetic.score_row(inputs.len(), |k| ColRef::from_vector(inputs[k]))?,
            ),
        }
    }

    /// Executes the step with input 0 supplied as a borrowed source row
    /// (`rest` holds inputs 1..) — the step-level dispatch behind the
    /// request-response engine's borrowed-source execute.
    ///
    /// Returns `Ok(true)` if a synthetic step ran off the borrowed row (same
    /// arithmetic as [`StageOp::apply`], bitwise), `Ok(false)` for a library
    /// operator, which reads a materialized slot-0 vector (the caller copies
    /// the source once and retries through [`StageOp::apply`]).
    pub fn apply_row(&self, row: ColRef<'_>, rest: &[&Vector], out: &mut Vector) -> Result<bool> {
        match self {
            StageOp::Op(_) => Ok(false),
            synthetic => {
                let y = synthetic.score_row(rest.len() + 1, |k| match k {
                    0 => row,
                    k => ColRef::from_vector(rest[k - 1]),
                })?;
                write_scalar(out, y).map(|()| true)
            }
        }
    }

    /// Executes the step's columnar batch kernel: whole chunk in, whole
    /// chunk out. Per-row arithmetic (including the fused text step's
    /// accumulation order) is identical to [`StageOp::apply`], so batch
    /// execution is bitwise-equal to the per-record path.
    pub fn apply_batch(&self, inputs: &[&ColumnBatch], out: &mut ColumnBatch) -> Result<()> {
        match self {
            StageOp::Op(op) => op.apply_batch(inputs, out),
            synthetic => {
                let rows = inputs.first().map_or(0, |b| b.rows());
                for (r, y) in out.fill_scalar(rows)?.iter_mut().enumerate() {
                    *y = synthetic.score_row(inputs.len(), |k| inputs[k].row(r))?;
                }
                Ok(())
            }
        }
    }

    /// One row of a synthetic step — every variant but [`StageOp::Op`]
    /// outputs one scalar per row: the row's `n` inputs (`input(k)`) → that
    /// scalar. The one body behind the synthetic arms of [`Self::apply`],
    /// [`Self::apply_row`] and [`Self::apply_batch`].
    fn score_row<'a>(&self, n: usize, input: impl Fn(usize) -> ColRef<'a>) -> Result<f32> {
        match self {
            StageOp::Op(op) => Err(DataError::Runtime(format!(
                "{} is not a synthetic step",
                op.kind().name()
            ))),
            StageOp::PartialDot { linear, offset } => match n {
                0 => Err(DataError::Runtime("partial dot expects one input".into())),
                _ => linear.partial_dot_row(input(0), *offset as usize),
            },
            StageOp::Combine { linear } => {
                let mut z = linear.bias;
                for k in 0..n {
                    let ColRef::Scalar(partial) = input(k) else {
                        let found = input(k).column_type();
                        return Err(DataError::mismatch("combine", "F32Scalar partials", found));
                    };
                    z += partial;
                }
                Ok(linear.link(z))
            }
            StageOp::FusedText(t) => match (n > 0).then(|| input(0)) {
                Some(ColRef::Text(line)) => t.score(line),
                other => {
                    let found = other.map_or("no input".into(), |r| r.column_type().to_string());
                    Err(DataError::mismatch("FusedText", "Text", found))
                }
            },
            StageOp::TreeOverConcat { ensemble, concat } => ensemble.score_concat(concat, n, input),
        }
    }
}

fn write_scalar(out: &mut Vector, v: f32) -> Result<()> {
    let Vector::Scalar(s) = out else {
        let ty = out.column_type();
        return Err(DataError::mismatch("step", "F32Scalar output", ty));
    };
    *s = v;
    Ok(())
}

/// Address of a step operand: plan slot or stage-local scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Plan-level working-set slot.
    Slot(u32),
    /// Stage-local scratch buffer.
    Scratch(u32),
}

/// One step of a stage program.
#[derive(Debug, Clone)]
pub struct Step {
    /// The operator.
    pub op: StageOp,
    /// Input operand addresses.
    pub inputs: Vec<Loc>,
    /// Output operand address. Must differ from every input.
    pub output: Loc,
}

/// Type and sizing of one buffer (slot or scratch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufDef {
    /// Column type of the buffer.
    pub ty: ColumnType,
    /// Training-statistics size hint for pool warming.
    pub max_stored: usize,
}

impl BufDef {
    /// Creates a buffer definition.
    pub fn new(ty: ColumnType, max_stored: usize) -> Self {
        BufDef { ty, max_stored }
    }
}

/// One logical stage: a program over slots + scratch.
#[derive(Debug, Clone)]
pub struct LogicalStage {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Stage-local scratch buffer definitions.
    pub scratch: Vec<BufDef>,
    /// Plan slots read by this stage (scheduling metadata).
    pub reads: Vec<u32>,
    /// Plan slots written by this stage.
    pub writes: Vec<u32>,
    /// Output labelled dense by training statistics
    /// (`OutputGraphValidatorStep`).
    pub dense: bool,
    /// Dense compute-bound stage labelled SIMD-vectorizable.
    pub vectorizable: bool,
}

/// A complete logical plan: slots + topologically ordered stages.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Type of the source record (slot 0).
    pub source_type: ColumnType,
    /// Plan-level buffers. Slot 0 is the source record.
    pub slots: Vec<BufDef>,
    /// Stages in execution order.
    pub stages: Vec<LogicalStage>,
    /// Slot holding the final prediction.
    pub output_slot: u32,
    /// Merged training statistics (plan-level max vector size).
    pub stats: NodeStats,
}

impl StagePlan {
    /// Validates wiring: locations in range, outputs distinct from inputs,
    /// every scratch read was written earlier in the same stage, every slot
    /// read was written by an earlier stage (or is the source), and the
    /// output slot is written exactly once, by the last stage.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(DataError::InvalidGraph("plan has no stages".into()));
        }
        if self.output_slot as usize >= self.slots.len() {
            return Err(DataError::InvalidGraph("output slot out of range".into()));
        }
        let mut slot_written = vec![false; self.slots.len()];
        slot_written[0] = true; // source
        for (si, stage) in self.stages.iter().enumerate() {
            let mut scratch_written = vec![false; stage.scratch.len()];
            for (pi, step) in stage.steps.iter().enumerate() {
                for input in &step.inputs {
                    if *input == step.output {
                        return Err(DataError::InvalidGraph(format!(
                            "stage {si} step {pi}: output aliases an input"
                        )));
                    }
                    match *input {
                        Loc::Slot(s) => {
                            let s = s as usize;
                            if s >= self.slots.len() {
                                return Err(DataError::InvalidGraph(format!(
                                    "stage {si} step {pi}: slot {s} out of range"
                                )));
                            }
                            if !slot_written[s] {
                                return Err(DataError::InvalidGraph(format!(
                                    "stage {si} step {pi}: reads slot {s} before any write"
                                )));
                            }
                        }
                        Loc::Scratch(s) => {
                            let s = s as usize;
                            if s >= stage.scratch.len() || !scratch_written[s] {
                                return Err(DataError::InvalidGraph(format!(
                                    "stage {si} step {pi}: reads scratch {s} before write"
                                )));
                            }
                        }
                    }
                }
                if let Some(n) = step.op.n_inputs() {
                    if n != step.inputs.len() {
                        return Err(DataError::InvalidGraph(format!(
                            "stage {si} step {pi}: {} wants {n} inputs, wired {}",
                            step.op.name(),
                            step.inputs.len()
                        )));
                    }
                }
                match step.output {
                    Loc::Slot(s) if (s as usize) < self.slots.len() => {
                        slot_written[s as usize] = true;
                    }
                    Loc::Scratch(s) if (s as usize) < stage.scratch.len() => {
                        scratch_written[s as usize] = true;
                    }
                    loc => {
                        return Err(DataError::InvalidGraph(format!(
                            "stage {si} step {pi}: output {loc:?} out of range"
                        )));
                    }
                }
            }
        }
        if !slot_written[self.output_slot as usize] {
            return Err(DataError::InvalidGraph(
                "output slot is never written".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_ops::linear::{LinearKind, LinearParams};
    use pretzel_ops::synth;
    use pretzel_ops::text::fused::{NgramLevel, TextBranch};

    fn linear4() -> Arc<LinearParams> {
        Arc::new(LinearParams::new(
            LinearKind::Regression,
            vec![1.0, 2.0, 3.0, 4.0],
            0.5,
        ))
    }

    #[test]
    fn partial_dots_plus_combine_equal_full_linear() {
        let lin = linear4();
        let left = Vector::Dense(vec![1.0, 1.0]);
        let right = Vector::Dense(vec![2.0, 1.0]);
        let mut p1 = Vector::Scalar(0.0);
        let mut p2 = Vector::Scalar(0.0);
        StageOp::PartialDot {
            linear: Arc::clone(&lin),
            offset: 0,
        }
        .apply(&[&left], &mut p1)
        .unwrap();
        StageOp::PartialDot {
            linear: Arc::clone(&lin),
            offset: 2,
        }
        .apply(&[&right], &mut p2)
        .unwrap();
        let mut combined = Vector::Scalar(0.0);
        StageOp::Combine {
            linear: Arc::clone(&lin),
        }
        .apply(&[&p1, &p2], &mut combined)
        .unwrap();

        // Reference: full concatenated scoring.
        let full = Vector::Dense(vec![1.0, 1.0, 2.0, 1.0]);
        let mut reference = Vector::Scalar(0.0);
        lin.apply(&full, &mut reference).unwrap();
        assert_eq!(combined, reference);
    }

    /// A one-branch fused text step over `ngram` and `lin`.
    fn fused(
        level: NgramLevel,
        ngram: &Arc<pretzel_ops::text::ngram::NgramParams>,
        lin: &Arc<LinearParams>,
    ) -> StageOp {
        let tokenizer = (level == NgramLevel::Word)
            .then(|| Arc::new(pretzel_ops::text::tokenizer::TokenizerParams::whitespace_punct()));
        let branch = TextBranch {
            level,
            ngram: Arc::clone(ngram),
            offset: 0,
        };
        let step = FusedText::new(None, tokenizer, vec![branch], Arc::clone(lin)).unwrap();
        StageOp::FusedText(Arc::new(step))
    }

    #[test]
    fn fused_char_dot_equals_ngram_then_dot() {
        let ngram = Arc::new(synth::char_ngram(5, 3, 32));
        let lin = Arc::new(synth::linear(6, 32, LinearKind::Regression));
        let text = Vector::Text("the quick brown fox jumps".into());

        // Unfused reference: materialize the sparse vector, then dot.
        let mut sparse = Vector::with_type(ColumnType::F32Sparse { len: 32 });
        ngram
            .apply_char(text.as_text().unwrap(), &mut sparse)
            .unwrap();
        let expected = lin.link(lin.bias + lin.partial_dot(&sparse, 0).unwrap());

        let mut out = Vector::Scalar(0.0);
        fused(NgramLevel::Char, &ngram, &lin)
            .apply(&[&text], &mut out)
            .unwrap();
        assert!((out.as_scalar().unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn fused_word_dot_equals_ngram_then_dot() {
        use pretzel_ops::text::tokenizer::TokenizerParams;
        let vocab = synth::vocabulary(2, 64);
        let ngram = Arc::new(synth::word_ngram(3, 2, 64, &vocab));
        let lin = Arc::new(synth::linear(8, 64, LinearKind::Regression));
        let sentence = format!("{} {} {}", vocab[0], vocab[1], vocab[2]);
        let text = Vector::Text(sentence.clone());
        let tok = TokenizerParams::whitespace_punct();
        let mut tokens = Vector::with_type(ColumnType::TokenList);
        tok.apply(&sentence, &mut tokens).unwrap();

        let mut sparse = Vector::with_type(ColumnType::F32Sparse { len: 64 });
        ngram
            .apply_word(&sentence, tokens.as_tokens().unwrap(), &mut sparse)
            .unwrap();
        let expected = lin.link(lin.bias + lin.partial_dot(&sparse, 0).unwrap());

        let mut out = Vector::Scalar(0.0);
        fused(NgramLevel::Word, &ngram, &lin)
            .apply(&[&text], &mut out)
            .unwrap();
        assert!((out.as_scalar().unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn combine_rejects_non_scalar_partials() {
        let lin = linear4();
        let bad = Vector::Dense(vec![1.0]);
        let mut out = Vector::Scalar(0.0);
        assert!(StageOp::Combine { linear: lin }
            .apply(&[&bad], &mut out)
            .is_err());
    }

    fn tiny_plan() -> StagePlan {
        let lin = linear4();
        StagePlan {
            source_type: ColumnType::F32Dense { len: 4 },
            slots: vec![
                BufDef::new(ColumnType::F32Dense { len: 4 }, 4),
                BufDef::new(ColumnType::F32Scalar, 1),
            ],
            stages: vec![LogicalStage {
                steps: vec![Step {
                    op: StageOp::Op(Op::Linear(lin)),
                    inputs: vec![Loc::Slot(0)],
                    output: Loc::Slot(1),
                }],
                scratch: vec![],
                reads: vec![0],
                writes: vec![1],
                dense: true,
                vectorizable: true,
            }],
            output_slot: 1,
            stats: NodeStats::default(),
        }
    }

    #[test]
    fn valid_plan_passes_validation() {
        tiny_plan().validate().unwrap();
    }

    #[test]
    fn output_aliasing_input_rejected() {
        let mut p = tiny_plan();
        p.stages[0].steps[0].output = Loc::Slot(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn read_before_write_rejected() {
        let mut p = tiny_plan();
        p.stages[0].steps[0].inputs = vec![Loc::Slot(1)];
        p.stages[0].steps[0].output = Loc::Slot(0);
        // Slot 1 is never written before being read.
        assert!(p.validate().is_err());
    }

    #[test]
    fn scratch_read_before_write_rejected() {
        let mut p = tiny_plan();
        p.stages[0]
            .scratch
            .push(BufDef::new(ColumnType::F32Scalar, 1));
        p.stages[0].steps[0].inputs = vec![Loc::Scratch(0)];
        assert!(p.validate().is_err());
    }

    #[test]
    fn unwritten_output_slot_rejected() {
        let mut p = tiny_plan();
        p.slots.push(BufDef::new(ColumnType::F32Scalar, 1));
        p.output_slot = 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut p = tiny_plan();
        p.stages[0].steps[0].inputs = vec![Loc::Slot(0), Loc::Slot(0)];
        assert!(p.validate().is_err());
    }

    #[test]
    fn cacheable_flags() {
        use pretzel_ops::text::tokenizer::TokenizerParams;
        let tok = StageOp::Op(Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())));
        assert!(tok.cacheable());
        let lin = StageOp::Op(Op::Linear(linear4()));
        assert!(!lin.cacheable());
        assert!(!StageOp::Combine { linear: linear4() }.cacheable());
    }

    #[test]
    fn stage_op_checksums_distinguish_offsets() {
        let lin = linear4();
        let a = StageOp::PartialDot {
            linear: Arc::clone(&lin),
            offset: 0,
        };
        let b = StageOp::PartialDot {
            linear: lin,
            offset: 2,
        };
        assert_ne!(a.checksum(), b.checksum());
    }
}
