//! Flour: the language-integrated API for authoring pipelines.
//!
//! "Flour is a language-integrated API similar to KeystoneML, RDDs or LINQ
//! where sequences of transformations are chained into DAGs and lazily
//! compiled for execution" (paper §4.1.1). A Flour program starts from a
//! [`FlourContext`], chains transformations, and ends with
//! [`Flour::plan`], which hands the DAG to the Oven optimizer.
//!
//! The sentiment-analysis program of the paper's Listing 1 looks like this:
//!
//! ```
//! use pretzel_core::flour::FlourContext;
//! use pretzel_ops::linear::LinearKind;
//! use pretzel_ops::synth;
//! use std::sync::Arc;
//!
//! let vocab = synth::vocabulary(0, 128);
//! let ctx = FlourContext::new();
//! let tokens = ctx.csv(',').select_text(1).tokenize();
//! let c_ngram = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 256)));
//! let w_ngram = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 256, &vocab)));
//! let program = c_ngram
//!     .concat(&w_ngram)
//!     .classifier_linear(Arc::new(synth::linear(3, 512, LinearKind::Logistic)));
//! let plan = program.plan().expect("valid SA pipeline");
//! assert_eq!(plan.stages.len(), 1);
//! ```

use crate::graph::{Input, TNode, TransformGraph};
use crate::oven;
use crate::plan::StagePlan;
use crate::train_stats::NodeStats;
use pretzel_data::{ColumnType, DataError, Result};
use pretzel_ops::bayes::NaiveBayesParams;
use pretzel_ops::feat::binner::BinnerParams;
use pretzel_ops::feat::concat::ConcatParams;
use pretzel_ops::feat::imputer::ImputerParams;
use pretzel_ops::feat::normalizer::NormalizerParams;
use pretzel_ops::feat::onehot::OneHotParams;
use pretzel_ops::feat::scaler::ScalerParams;
use pretzel_ops::kmeans::KMeansParams;
use pretzel_ops::linear::LinearParams;
use pretzel_ops::pca::PcaParams;
use pretzel_ops::text::csv::CsvParams;
use pretzel_ops::text::hashing::HashingParams;
use pretzel_ops::text::ngram::NgramParams;
use pretzel_ops::text::tokenizer::TokenizerParams;
use pretzel_ops::tree::{EnsembleParams, MulticlassTreeParams};
use pretzel_ops::Op;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug)]
struct BuilderState {
    source_type: ColumnType,
    nodes: Vec<TNode>,
}

/// Entry point of a Flour program; one context builds one pipeline DAG.
#[derive(Debug, Clone)]
pub struct FlourContext {
    inner: Rc<RefCell<Option<BuilderState>>>,
}

impl Default for FlourContext {
    fn default() -> Self {
        Self::new()
    }
}

impl FlourContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        FlourContext {
            inner: Rc::new(RefCell::new(None)),
        }
    }

    fn init(&self, source_type: ColumnType) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.is_none(), "FlourContext already has a source");
        *inner = Some(BuilderState {
            source_type,
            nodes: Vec::new(),
        });
    }

    /// Starts from CSV text input with the given separator
    /// (`CSV.FromText(',')` in the paper's Listing 1).
    pub fn csv(&self, separator: char) -> CsvStream {
        CsvStream {
            ctx: self.clone(),
            separator: separator as u8,
        }
    }

    /// Starts from a raw dense numeric source of the given dimensionality.
    pub fn dense_source(&self, dim: usize) -> Flour {
        self.init(ColumnType::F32Dense { len: dim });
        Flour {
            ctx: self.clone(),
            node: Input::Source,
            ty: ColumnType::F32Dense { len: dim },
        }
    }

    /// Starts from a raw sparse numeric source of the given dimensionality
    /// (pre-featurized requests arriving as CSR triples on the wire).
    pub fn sparse_source(&self, dim: usize) -> Flour {
        self.init(ColumnType::F32Sparse { len: dim });
        Flour {
            ctx: self.clone(),
            node: Input::Source,
            ty: ColumnType::F32Sparse { len: dim },
        }
    }

    /// Starts from a raw text source (no CSV framing).
    pub fn text_source(&self) -> Flour {
        self.init(ColumnType::Text);
        Flour {
            ctx: self.clone(),
            node: Input::Source,
            ty: ColumnType::Text,
        }
    }

    fn push(&self, op: Op, inputs: Vec<Input>, ty_hint: ColumnType) -> Flour {
        let mut inner = self.inner.borrow_mut();
        let state = inner
            .as_mut()
            .expect("Flour transformations require a source; call csv()/dense_source() first");
        // Best-effort eager typing for wiring convenience; authoritative
        // validation happens in Oven.
        state.nodes.push(TNode {
            op,
            inputs,
            stats: NodeStats::default(),
        });
        let id = (state.nodes.len() - 1) as u32;
        Flour {
            ctx: self.clone(),
            node: Input::Node(id),
            ty: ty_hint,
        }
    }

    fn node_inputs(&self, id: u32) -> Vec<Input> {
        self.inner
            .borrow()
            .as_ref()
            .expect("context initialized")
            .nodes[id as usize]
            .inputs
            .clone()
    }

    fn node_is_tokenizer(&self, id: u32) -> bool {
        matches!(
            self.inner
                .borrow()
                .as_ref()
                .expect("context initialized")
                .nodes[id as usize]
                .op,
            Op::Tokenizer(_)
        )
    }
}

/// A CSV input stream being configured (`FromText → Select`).
#[derive(Debug)]
pub struct CsvStream {
    ctx: FlourContext,
    separator: u8,
}

impl CsvStream {
    /// Selects a text field by index (`Select("Text")` over the schema).
    pub fn select_text(self, field: u32) -> Flour {
        self.ctx.init(ColumnType::Text);
        let params = CsvParams::new(
            self.separator,
            pretzel_ops::text::csv::CsvOutput::TextField { index: field },
        );
        self.ctx.push(
            Op::CsvParse(Arc::new(params)),
            vec![Input::Source],
            ColumnType::Text,
        )
    }

    /// Decodes all fields as a dense vector of the given dimensionality.
    pub fn dense_features(self, dim: u32) -> Flour {
        self.ctx.init(ColumnType::Text);
        let params = CsvParams::new(
            self.separator,
            pretzel_ops::text::csv::CsvOutput::DenseFields { len: dim },
        );
        self.ctx.push(
            Op::CsvParse(Arc::new(params)),
            vec![Input::Source],
            ColumnType::F32Dense { len: dim as usize },
        )
    }
}

/// A handle to one transformation's output; methods append transformations.
#[derive(Debug, Clone)]
pub struct Flour {
    ctx: FlourContext,
    node: Input,
    ty: ColumnType,
}

impl Flour {
    /// The (eagerly inferred) output type of this transformation.
    pub fn output_type(&self) -> ColumnType {
        self.ty
    }

    /// Attaches training statistics to this transformation's output
    /// (paper §4.1.1: max vector size, density, ...).
    pub fn with_stats(self, stats: NodeStats) -> Self {
        if let Input::Node(id) = self.node {
            let mut inner = self.ctx.inner.borrow_mut();
            inner.as_mut().expect("context initialized").nodes[id as usize].stats = stats;
        }
        self
    }

    fn dim(&self) -> u32 {
        self.ty.dimension().unwrap_or(0) as u32
    }

    /// Appends an arbitrary unary operator (escape hatch for operators
    /// without a dedicated combinator).
    pub fn apply(&self, op: Op) -> Flour {
        let ty = op.output_type(&[self.ty]).unwrap_or(ColumnType::F32Scalar);
        self.ctx.push(op, vec![self.node], ty)
    }

    /// Tokenizes text with the default whitespace/punctuation tokenizer.
    pub fn tokenize(&self) -> Flour {
        self.tokenize_with(Arc::new(TokenizerParams::whitespace_punct()))
    }

    /// Tokenizes text with explicit parameters.
    pub fn tokenize_with(&self, params: Arc<TokenizerParams>) -> Flour {
        self.ctx.push(
            Op::Tokenizer(params),
            vec![self.node],
            ColumnType::TokenList,
        )
    }

    /// Character n-grams. May be called on the text itself or on a
    /// tokenizer handle (paper Listing 1 line 8); either way the featurizer
    /// reads the underlying text.
    pub fn char_ngram(&self, params: Arc<NgramParams>) -> Flour {
        let text = self.text_ref();
        let dim = params.dim();
        self.ctx.push(
            Op::CharNgram(params),
            vec![text],
            ColumnType::F32Sparse { len: dim },
        )
    }

    /// Word n-grams; must be called on a tokenizer handle.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not the output of `tokenize` — a wiring bug in
    /// the calling program, reported eagerly.
    pub fn word_ngram(&self, params: Arc<NgramParams>) -> Flour {
        let Input::Node(id) = self.node else {
            panic!("word_ngram must follow tokenize()");
        };
        assert!(
            self.ctx.node_is_tokenizer(id),
            "word_ngram must follow tokenize(), found another transformation"
        );
        let text = self.ctx.node_inputs(id)[0];
        let dim = params.dim();
        self.ctx.push(
            Op::WordNgram(params),
            vec![text, self.node],
            ColumnType::F32Sparse { len: dim },
        )
    }

    /// Dictionary-free hashing featurizer over the underlying text.
    pub fn hashing(&self, params: Arc<HashingParams>) -> Flour {
        let text = self.text_ref();
        let dim = params.dim();
        self.ctx.push(
            Op::HashingVectorizer(params),
            vec![text],
            ColumnType::F32Sparse { len: dim },
        )
    }

    // For text-consuming featurizers invoked on a tokenizer handle, walk
    // back to the tokenizer's text input (paper Listing 1 calls CharNgram
    // on the tokenizer).
    fn text_ref(&self) -> Input {
        match self.node {
            Input::Node(id) if self.ctx.node_is_tokenizer(id) => self.ctx.node_inputs(id)[0],
            other => other,
        }
    }

    /// Concatenates this feature vector with others (paper Listing 1
    /// lines 10–11).
    pub fn concat(&self, other: &Flour) -> Flour {
        self.concat_many(&[other])
    }

    /// Concatenates this feature vector with several others.
    pub fn concat_many(&self, others: &[&Flour]) -> Flour {
        let mut dims = vec![self.dim()];
        let mut inputs = vec![self.node];
        for o in others {
            dims.push(o.dim());
            inputs.push(o.node);
        }
        let total: usize = dims.iter().map(|&d| d as usize).sum();
        self.ctx.push(
            Op::Concat(Arc::new(ConcatParams::new(dims))),
            inputs,
            ColumnType::F32Sparse { len: total },
        )
    }

    /// Normalizes the feature vector.
    pub fn normalize(&self, params: Arc<NormalizerParams>) -> Flour {
        let ty = self.ty;
        self.ctx.push(Op::Normalizer(params), vec![self.node], ty)
    }

    /// Standardizes dense features.
    pub fn scale(&self, params: Arc<ScalerParams>) -> Flour {
        let dim = params.dim();
        self.ctx.push(
            Op::Scaler(params),
            vec![self.node],
            ColumnType::F32Dense { len: dim },
        )
    }

    /// Imputes missing values.
    pub fn impute(&self, params: Arc<ImputerParams>) -> Flour {
        let dim = params.dim();
        self.ctx.push(
            Op::Imputer(params),
            vec![self.node],
            ColumnType::F32Dense { len: dim },
        )
    }

    /// Bins dense features into quantile indices.
    pub fn bin(&self, params: Arc<BinnerParams>) -> Flour {
        let dim = params.dim();
        self.ctx.push(
            Op::Binner(params),
            vec![self.node],
            ColumnType::F32Dense { len: dim },
        )
    }

    /// One-hot encodes categorical dimensions.
    pub fn one_hot(&self, params: Arc<OneHotParams>) -> Flour {
        let dim = params.output_dim();
        self.ctx.push(
            Op::OneHot(params),
            vec![self.node],
            ColumnType::F32Dense { len: dim },
        )
    }

    /// Projects onto principal components.
    pub fn pca(&self, params: Arc<PcaParams>) -> Flour {
        let m = params.m as usize;
        self.ctx.push(
            Op::Pca(params),
            vec![self.node],
            ColumnType::F32Dense { len: m },
        )
    }

    /// K-Means distances to centroids.
    pub fn kmeans(&self, params: Arc<KMeansParams>) -> Flour {
        let k = params.k as usize;
        self.ctx.push(
            Op::KMeans(params),
            vec![self.node],
            ColumnType::F32Dense { len: k },
        )
    }

    /// Tree-leaf featurization.
    pub fn tree_featurize(&self, params: Arc<EnsembleParams>) -> Flour {
        let dim = params.total_leaves();
        self.ctx.push(
            Op::TreeFeaturizer(params),
            vec![self.node],
            ColumnType::F32Sparse { len: dim },
        )
    }

    /// Per-class scores from a one-vs-all multiclass tree classifier.
    pub fn multiclass_tree(&self, params: Arc<MulticlassTreeParams>) -> Flour {
        let k = params.classes();
        self.ctx.push(
            Op::MulticlassTree(params),
            vec![self.node],
            ColumnType::F32Dense { len: k },
        )
    }

    /// Per-class log scores from naive Bayes.
    pub fn naive_bayes(&self, params: Arc<NaiveBayesParams>) -> Flour {
        let k = params.classes();
        self.ctx.push(
            Op::NaiveBayes(params),
            vec![self.node],
            ColumnType::F32Dense { len: k },
        )
    }

    /// Final linear predictor (`ClassifierBinaryLinear` in Listing 1).
    pub fn classifier_linear(&self, params: Arc<LinearParams>) -> Flour {
        self.ctx
            .push(Op::Linear(params), vec![self.node], ColumnType::F32Scalar)
    }

    /// Final tree-ensemble predictor (AC pipelines' "final tree or forest").
    pub fn regressor_tree(&self, params: Arc<EnsembleParams>) -> Flour {
        self.ctx.push(
            Op::TreeEnsemble(params),
            vec![self.node],
            ColumnType::F32Scalar,
        )
    }

    /// Snapshot of the transformation graph with this handle as output.
    ///
    /// # Panics
    ///
    /// Panics if called on a bare source handle (no transformations yet).
    pub fn graph(&self) -> TransformGraph {
        let inner = self.ctx.inner.borrow();
        let state = inner.as_ref().expect("context initialized");
        let Input::Node(output) = self.node else {
            panic!("cannot plan a bare source; add transformations first");
        };
        TransformGraph {
            source_type: state.source_type,
            nodes: state.nodes.clone(),
            output,
        }
    }

    /// Compiles the program into a logical stage plan via Oven
    /// (`Plan()` in Listing 1, line 14).
    pub fn plan(&self) -> Result<StagePlan> {
        if !matches!(self.node, Input::Node(_)) {
            return Err(DataError::InvalidGraph("cannot plan a bare source".into()));
        }
        oven::optimize(&self.graph()).map(|o| o.plan)
    }

    /// Compiles and also returns the optimizer's rule trace.
    pub fn plan_traced(&self) -> Result<oven::Optimized> {
        oven::optimize(&self.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;

    #[test]
    fn listing1_program_builds_and_plans() {
        let vocab = synth::vocabulary(0, 64);
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(1).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 128)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 128, &vocab)));
        let program =
            c.concat(&w)
                .classifier_linear(Arc::new(synth::linear(3, 256, LinearKind::Logistic)));
        let g = program.graph();
        assert_eq!(g.nodes.len(), 6); // csv, tok, cngram, wngram, concat, linear
        let plan = program.plan().unwrap();
        // One stage (every featurizer reads the CSV field); slots are the
        // source and the score.
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.slots.len(), 2);
    }

    #[test]
    fn char_ngram_on_tokenizer_reads_text() {
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(0).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 16)));
        let g = c
            .classifier_linear(Arc::new(synth::linear(1, 16, LinearKind::Logistic)))
            .graph();
        // CharNgram (node 2) must read the CsvParse output (node 0), not
        // the token list.
        assert_eq!(g.nodes[2].inputs, vec![Input::Node(0)]);
    }

    #[test]
    #[should_panic(expected = "must follow tokenize")]
    fn word_ngram_without_tokenizer_panics() {
        let ctx = FlourContext::new();
        let text = ctx.csv(',').select_text(0);
        let _ = text.word_ngram(Arc::new(synth::word_ngram(
            1,
            2,
            8,
            &synth::vocabulary(0, 8),
        )));
    }

    #[test]
    fn dense_pipeline_via_apply_combinators() {
        let dim = 8;
        let ctx = FlourContext::new();
        let x = ctx.dense_source(dim);
        let scaled = x.scale(Arc::new(synth::scaler(1, dim)));
        let p = scaled.pca(Arc::new(synth::pca(2, 4, dim)));
        let k = scaled.kmeans(Arc::new(synth::kmeans(3, 3, dim)));
        let merged = p.concat(&k);
        let out = merged.regressor_tree(Arc::new(synth::ensemble(
            4,
            7,
            2,
            2,
            pretzel_ops::tree::EnsembleMode::Sum,
        )));
        let plan = out.plan().unwrap();
        plan.validate().unwrap();
    }

    #[test]
    fn with_stats_attaches_to_node() {
        let ctx = FlourContext::new();
        let t = ctx
            .text_source()
            .tokenize()
            .with_stats(NodeStats::new(42, 0.9));
        let g = t
            .char_ngram(Arc::new(synth::char_ngram(1, 3, 8)))
            .classifier_linear(Arc::new(synth::linear(1, 8, LinearKind::Logistic)))
            .graph();
        assert_eq!(g.nodes[0].stats, NodeStats::new(42, 0.9));
    }

    #[test]
    fn plan_on_bare_source_is_error() {
        let ctx = FlourContext::new();
        let s = ctx.dense_source(4);
        assert!(s.plan().is_err());
    }

    #[test]
    #[should_panic(expected = "already has a source")]
    fn two_sources_panic() {
        let ctx = FlourContext::new();
        let _a = ctx.text_source();
        let _b = ctx.dense_source(4);
    }
}
