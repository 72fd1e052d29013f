//! The unified operator type: kind, shared parameters, kernel dispatch,
//! schema propagation and model-file (de)serialization.
//!
//! An [`Op`] is one node of a pipeline DAG. Its parameters live behind an
//! `Arc`, so cloning an `Op` *shares* them — this is the mechanism the
//! Object Store uses to dedup identical operators across pipelines
//! (paper §4.1.3): two `Op`s with equal [`Op::checksum`] can be collapsed
//! into clones of one instance, after which all pipelines read the same
//! memory.

use crate::annotations::Annotations;
use crate::bayes::NaiveBayesParams;
#[cfg(feature = "fault-op")]
use crate::fault::FaultParams;
use crate::feat::binner::BinnerParams;
use crate::feat::concat::ConcatParams;
use crate::feat::imputer::ImputerParams;
use crate::feat::normalizer::NormalizerParams;
use crate::feat::onehot::OneHotParams;
use crate::feat::scaler::ScalerParams;
use crate::kmeans::KMeansParams;
use crate::linear::LinearParams;
use crate::params::ParamBlob;
use crate::pca::PcaParams;
use crate::text::csv::CsvParams;
use crate::text::hashing::HashingParams;
use crate::text::ngram::NgramParams;
use crate::text::tokenizer::TokenizerParams;
use crate::tree::{EnsembleParams, MulticlassTreeParams};
use pretzel_data::serde_bin::Section;
use pretzel_data::vector::Span;
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Schema, Vector};
use std::sync::Arc;

/// Operator kind tag (fieldless mirror of [`Op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// CSV line parser / field selector.
    CsvParse,
    /// Text tokenizer.
    Tokenizer,
    /// Character n-gram featurizer (dictionary).
    CharNgram,
    /// Word n-gram featurizer (dictionary).
    WordNgram,
    /// Dictionary-free hashing featurizer.
    HashingVectorizer,
    /// Feature-vector concatenation.
    Concat,
    /// L1/L2/MaxAbs normalizer.
    Normalizer,
    /// Affine per-dimension scaler.
    Scaler,
    /// NaN imputer.
    Imputer,
    /// Quantile binner.
    Binner,
    /// One-hot encoder.
    OneHot,
    /// Linear / logistic / Poisson / SVM model.
    Linear,
    /// Multinomial naive Bayes.
    NaiveBayes,
    /// Tree ensemble scorer.
    TreeEnsemble,
    /// One-vs-all multiclass trees.
    MulticlassTree,
    /// Tree-leaf featurizer.
    TreeFeaturizer,
    /// K-Means distance scorer.
    KMeans,
    /// PCA projector.
    Pca,
    /// Deliberately-faulting synthetic op (feature `fault-op`; excluded
    /// from [`OpKind::ALL`] — it never appears in real model registries).
    #[cfg(feature = "fault-op")]
    FaultInjector,
}

impl OpKind {
    /// Stable textual name used in model-file section names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::CsvParse => "CsvParse",
            OpKind::Tokenizer => "Tokenizer",
            OpKind::CharNgram => "CharNgram",
            OpKind::WordNgram => "WordNgram",
            OpKind::HashingVectorizer => "HashingVectorizer",
            OpKind::Concat => "Concat",
            OpKind::Normalizer => "Normalizer",
            OpKind::Scaler => "Scaler",
            OpKind::Imputer => "Imputer",
            OpKind::Binner => "Binner",
            OpKind::OneHot => "OneHot",
            OpKind::Linear => "Linear",
            OpKind::NaiveBayes => "NaiveBayes",
            OpKind::TreeEnsemble => "TreeEnsemble",
            OpKind::MulticlassTree => "MulticlassTree",
            OpKind::TreeFeaturizer => "TreeFeaturizer",
            OpKind::KMeans => "KMeans",
            OpKind::Pca => "Pca",
            #[cfg(feature = "fault-op")]
            OpKind::FaultInjector => "FaultInjector",
        }
    }

    /// True for model operators that may terminate a pipeline.
    pub fn is_predictor(self) -> bool {
        matches!(
            self,
            OpKind::Linear | OpKind::NaiveBayes | OpKind::TreeEnsemble | OpKind::MulticlassTree
        )
    }

    /// All kinds, for registry-style iteration in tests and tools.
    /// The synthetic `FaultInjector` (feature `fault-op`) is deliberately
    /// absent: it never appears in real model registries.
    pub const ALL: [OpKind; 18] = [
        OpKind::CsvParse,
        OpKind::Tokenizer,
        OpKind::CharNgram,
        OpKind::WordNgram,
        OpKind::HashingVectorizer,
        OpKind::Concat,
        OpKind::Normalizer,
        OpKind::Scaler,
        OpKind::Imputer,
        OpKind::Binner,
        OpKind::OneHot,
        OpKind::Linear,
        OpKind::NaiveBayes,
        OpKind::TreeEnsemble,
        OpKind::MulticlassTree,
        OpKind::TreeFeaturizer,
        OpKind::KMeans,
        OpKind::Pca,
    ];
}

/// One operator instance: kind + `Arc`-shared parameters.
#[derive(Debug, Clone)]
pub enum Op {
    /// See [`CsvParams`].
    CsvParse(Arc<CsvParams>),
    /// See [`TokenizerParams`].
    Tokenizer(Arc<TokenizerParams>),
    /// See [`NgramParams`] (character level).
    CharNgram(Arc<NgramParams>),
    /// See [`NgramParams`] (word level).
    WordNgram(Arc<NgramParams>),
    /// See [`HashingParams`].
    HashingVectorizer(Arc<HashingParams>),
    /// See [`ConcatParams`].
    Concat(Arc<ConcatParams>),
    /// See [`NormalizerParams`].
    Normalizer(Arc<NormalizerParams>),
    /// See [`ScalerParams`].
    Scaler(Arc<ScalerParams>),
    /// See [`ImputerParams`].
    Imputer(Arc<ImputerParams>),
    /// See [`BinnerParams`].
    Binner(Arc<BinnerParams>),
    /// See [`OneHotParams`].
    OneHot(Arc<OneHotParams>),
    /// See [`LinearParams`].
    Linear(Arc<LinearParams>),
    /// See [`NaiveBayesParams`].
    NaiveBayes(Arc<NaiveBayesParams>),
    /// See [`EnsembleParams`].
    TreeEnsemble(Arc<EnsembleParams>),
    /// See [`MulticlassTreeParams`].
    MulticlassTree(Arc<MulticlassTreeParams>),
    /// See [`EnsembleParams`] used with leaf-one-hot semantics.
    TreeFeaturizer(Arc<EnsembleParams>),
    /// See [`KMeansParams`].
    KMeans(Arc<KMeansParams>),
    /// See [`PcaParams`].
    Pca(Arc<PcaParams>),
    /// See [`FaultParams`] (feature `fault-op`).
    #[cfg(feature = "fault-op")]
    FaultInjector(Arc<FaultParams>),
}

fn text_input<'a>(inputs: &[&'a Vector], i: usize) -> Result<&'a str> {
    let v = inputs.get(i);
    v.and_then(|v| v.as_text())
        .ok_or_else(|| input_mismatch(i, "Text", v.map(|v| v.column_type())))
}

fn tokens_input<'a>(inputs: &[&'a Vector], i: usize) -> Result<&'a [Span]> {
    let v = inputs.get(i);
    v.and_then(|v| v.as_tokens())
        .ok_or_else(|| input_mismatch(i, "TokenList", v.map(|v| v.column_type())))
}

/// An operator's input `i` is missing or not of the type `want`.
fn input_mismatch(i: usize, want: &str, found: Option<ColumnType>) -> DataError {
    let found = found.map_or("no input".to_string(), |t| t.to_string());
    DataError::mismatch("operator", format_args!("{want} at input {i}"), found)
}

fn one_input<'a>(inputs: &[&'a Vector]) -> Result<&'a Vector> {
    match inputs {
        [v] => Ok(v),
        _ => Err(DataError::mismatch(
            "operator",
            "1 input",
            format!("{} inputs", inputs.len()),
        )),
    }
}

fn one_batch<'a>(inputs: &[&'a ColumnBatch]) -> Result<&'a ColumnBatch> {
    match inputs {
        [b] => Ok(b),
        _ => Err(DataError::mismatch(
            "operator",
            "1 input",
            format!("{} inputs", inputs.len()),
        )),
    }
}

/// Decodes one section's parameters, seeding their checksum memo with the
/// section's checksum (see [`Op::from_section`]).
fn decode<P: ParamBlob>(section: &Section) -> Result<Arc<P>> {
    Ok(seeded(P::from_entries(section)?, section))
}

/// `params`, decoded from `section`, with their checksum memo seeded.
fn seeded<P: ParamBlob>(params: P, section: &Section) -> Arc<P> {
    params.checksum_memo().seed(section.checksum);
    Arc::new(params)
}

fn batch_at<'a>(inputs: &[&'a ColumnBatch], i: usize) -> Result<&'a ColumnBatch> {
    inputs
        .get(i)
        .copied()
        .ok_or_else(|| input_mismatch(i, "a batch", None))
}

impl Op {
    /// The operator kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::CsvParse(_) => OpKind::CsvParse,
            Op::Tokenizer(_) => OpKind::Tokenizer,
            Op::CharNgram(_) => OpKind::CharNgram,
            Op::WordNgram(_) => OpKind::WordNgram,
            Op::HashingVectorizer(_) => OpKind::HashingVectorizer,
            Op::Concat(_) => OpKind::Concat,
            Op::Normalizer(_) => OpKind::Normalizer,
            Op::Scaler(_) => OpKind::Scaler,
            Op::Imputer(_) => OpKind::Imputer,
            Op::Binner(_) => OpKind::Binner,
            Op::OneHot(_) => OpKind::OneHot,
            Op::Linear(_) => OpKind::Linear,
            Op::NaiveBayes(_) => OpKind::NaiveBayes,
            Op::TreeEnsemble(_) => OpKind::TreeEnsemble,
            Op::MulticlassTree(_) => OpKind::MulticlassTree,
            Op::TreeFeaturizer(_) => OpKind::TreeFeaturizer,
            Op::KMeans(_) => OpKind::KMeans,
            Op::Pca(_) => OpKind::Pca,
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(_) => OpKind::FaultInjector,
        }
    }

    /// Optimizer annotations (paper §4.1.2).
    pub fn annotations(&self) -> Annotations {
        match self {
            Op::CsvParse(p) => p.annotations(),
            Op::Tokenizer(p) => p.annotations(),
            Op::CharNgram(p) | Op::WordNgram(p) => p.annotations(),
            Op::HashingVectorizer(p) => p.annotations(),
            Op::Concat(p) => p.annotations(),
            Op::Normalizer(p) => p.annotations(),
            Op::Scaler(p) => p.annotations(),
            Op::Imputer(p) => p.annotations(),
            Op::Binner(p) => p.annotations(),
            Op::OneHot(p) => p.annotations(),
            Op::Linear(p) => p.annotations(),
            Op::NaiveBayes(p) => p.annotations(),
            Op::TreeEnsemble(p) | Op::TreeFeaturizer(p) => p.annotations(),
            Op::MulticlassTree(p) => p.annotations(),
            Op::KMeans(p) => p.annotations(),
            Op::Pca(p) => p.annotations(),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.annotations(),
        }
    }

    /// Number of inputs this operator consumes.
    pub fn n_inputs(&self) -> usize {
        match self {
            Op::WordNgram(_) => 2,
            Op::Concat(p) => p.input_dims.len(),
            _ => 1,
        }
    }

    /// Schema propagation: validates `inputs` and returns the output type.
    ///
    /// This single function implements the schema-validation rules of the
    /// `InputGraphValidatorStep` for every operator class.
    pub fn output_type(&self, inputs: &[ColumnType]) -> Result<ColumnType> {
        let name = self.kind().name();
        let want_n = self.n_inputs();
        if inputs.len() != want_n {
            let found = format!("{} inputs", inputs.len());
            return Err(DataError::mismatch(name, format!("{want_n} inputs"), found));
        }
        let numeric = |i: usize, dim: usize| -> Result<()> {
            match inputs[i] {
                t if t.is_numeric() && t.dimension() == Some(dim) => Ok(()),
                t => Err(DataError::mismatch(name, format!("numeric[{dim}]"), t)),
            }
        };
        let text =
            |i: usize| -> Result<()> { Schema::check_compat(name, ColumnType::Text, inputs[i]) };
        match self {
            Op::CsvParse(p) => {
                text(0)?;
                Ok(p.output_type())
            }
            Op::Tokenizer(_) => {
                text(0)?;
                Ok(ColumnType::TokenList)
            }
            Op::CharNgram(p) => {
                text(0)?;
                Ok(ColumnType::F32Sparse { len: p.dim() })
            }
            Op::WordNgram(p) => {
                text(0)?;
                Schema::check_compat(name, ColumnType::TokenList, inputs[1])?;
                Ok(ColumnType::F32Sparse { len: p.dim() })
            }
            Op::HashingVectorizer(p) => {
                text(0)?;
                Ok(ColumnType::F32Sparse { len: p.dim() })
            }
            Op::Concat(p) => {
                for (i, &d) in p.input_dims.iter().enumerate() {
                    numeric(i, d as usize)?;
                }
                Ok(ColumnType::F32Sparse { len: p.dim() })
            }
            Op::Normalizer(p) => {
                numeric(0, p.dim as usize)?;
                Ok(inputs[0])
            }
            Op::Scaler(p) => {
                numeric(0, p.dim())?;
                Ok(ColumnType::F32Dense { len: p.dim() })
            }
            Op::Imputer(p) => {
                numeric(0, p.dim())?;
                Ok(ColumnType::F32Dense { len: p.dim() })
            }
            Op::Binner(p) => {
                numeric(0, p.dim())?;
                Ok(ColumnType::F32Dense { len: p.dim() })
            }
            Op::OneHot(p) => {
                numeric(0, p.input_dim as usize)?;
                Ok(ColumnType::F32Dense {
                    len: p.output_dim(),
                })
            }
            Op::Linear(p) => {
                numeric(0, p.dim())?;
                Ok(ColumnType::F32Scalar)
            }
            Op::NaiveBayes(p) => {
                numeric(0, p.dim as usize)?;
                Ok(ColumnType::F32Dense { len: p.classes() })
            }
            Op::TreeEnsemble(p) => {
                numeric(0, p.input_dim as usize)?;
                Ok(ColumnType::F32Scalar)
            }
            Op::MulticlassTree(p) => {
                numeric(0, p.input_dim() as usize)?;
                Ok(ColumnType::F32Dense { len: p.classes() })
            }
            Op::TreeFeaturizer(p) => {
                numeric(0, p.input_dim as usize)?;
                Ok(ColumnType::F32Sparse {
                    len: p.total_leaves(),
                })
            }
            Op::KMeans(p) => {
                numeric(0, p.dim as usize)?;
                Ok(ColumnType::F32Dense { len: p.k as usize })
            }
            Op::Pca(p) => {
                numeric(0, p.dim as usize)?;
                Ok(ColumnType::F32Dense { len: p.m as usize })
            }
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(_) => {
                text(0)?;
                Ok(ColumnType::Text)
            }
        }
    }

    /// Executes the operator's kernel: `inputs` → `out`.
    pub fn apply(&self, inputs: &[&Vector], out: &mut Vector) -> Result<()> {
        match self {
            Op::CsvParse(p) => p.apply(text_input(inputs, 0)?, out),
            Op::Tokenizer(p) => p.apply(text_input(inputs, 0)?, out),
            Op::CharNgram(p) => p.apply_char(text_input(inputs, 0)?, out),
            Op::WordNgram(p) => {
                let text = text_input(inputs, 0)?;
                let toks = tokens_input(inputs, 1)?;
                p.apply_word(text, toks, out)
            }
            Op::HashingVectorizer(p) => p.apply(text_input(inputs, 0)?, out),
            Op::Concat(p) => p.apply(inputs, out),
            Op::Normalizer(p) => p.apply(one_input(inputs)?, out),
            Op::Scaler(p) => p.apply(one_input(inputs)?, out),
            Op::Imputer(p) => p.apply(one_input(inputs)?, out),
            Op::Binner(p) => p.apply(one_input(inputs)?, out),
            Op::OneHot(p) => p.apply(one_input(inputs)?, out),
            Op::Linear(p) => p.apply(one_input(inputs)?, out),
            Op::NaiveBayes(p) => p.apply(one_input(inputs)?, out),
            Op::TreeEnsemble(p) => p.apply(one_input(inputs)?, out),
            Op::MulticlassTree(p) => p.apply(one_input(inputs)?, out),
            Op::TreeFeaturizer(p) => p.apply_featurize(one_input(inputs)?, out),
            Op::KMeans(p) => p.apply(one_input(inputs)?, out),
            Op::Pca(p) => p.apply(one_input(inputs)?, out),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.apply(text_input(inputs, 0)?, out),
        }
    }

    /// Executes the operator's columnar batch kernel: `inputs` → `out`,
    /// whole chunk at a time.
    ///
    /// Every operator family has a batch kernel; families where batching
    /// genuinely vectorizes (dense math: scaler, imputer, binner, one-hot,
    /// linear, bayes, kmeans, pca, trees) traverse the chunk's row-major
    /// storage flat, while text featurizers iterate rows through the same
    /// inner loops as [`Op::apply`] — either way the per-row arithmetic is
    /// identical, so batch scores are bitwise-equal to per-record scores.
    pub fn apply_batch(&self, inputs: &[&ColumnBatch], out: &mut ColumnBatch) -> Result<()> {
        match self {
            Op::CsvParse(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Tokenizer(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::CharNgram(p) => p.eval_batch_char(one_batch(inputs)?, out),
            Op::WordNgram(p) => {
                let text = batch_at(inputs, 0)?;
                let toks = batch_at(inputs, 1)?;
                p.eval_batch_word(text, toks, out)
            }
            Op::HashingVectorizer(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Concat(p) => p.eval_batch(inputs, out),
            Op::Normalizer(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Scaler(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Imputer(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Binner(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::OneHot(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Linear(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::NaiveBayes(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::TreeEnsemble(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::MulticlassTree(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::TreeFeaturizer(p) => p.eval_batch_featurize(one_batch(inputs)?, out),
            Op::KMeans(p) => p.eval_batch(one_batch(inputs)?, out),
            Op::Pca(p) => p.eval_batch(one_batch(inputs)?, out),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.eval_batch(one_batch(inputs)?, out),
        }
    }

    /// Maps a raw model-file section checksum to the dedup checksum an
    /// operator of kind `kind` would report.
    ///
    /// This lets a loader decide — *without deserializing the section* —
    /// whether the Object Store already holds the parameters, which is what
    /// makes PRETZEL's model loading fast (paper §5.1: "keeping track of
    /// pipelines' parameters also helps reducing the time to load models").
    pub fn checksum_for_section(kind: &str, section_checksum: u64) -> u64 {
        match kind {
            // Kinds sharing a params type salt the checksum with the kind
            // name (see `Op::checksum`).
            "CharNgram" | "WordNgram" | "TreeEnsemble" | "TreeFeaturizer" => {
                section_checksum ^ pretzel_data::hash::fnv1a(kind.as_bytes())
            }
            _ => section_checksum,
        }
    }

    /// Dedup checksum of the serialized parameters (paper §4.1.3): the
    /// parameters' memoised [`ParamBlob::checksum`], salted with the kind
    /// where two kinds share a params type.
    pub fn checksum(&self) -> u64 {
        match self {
            Op::CsvParse(p) => p.checksum(),
            Op::Tokenizer(p) => p.checksum(),
            // Char and Word ngram share a params type but must never dedup
            // against each other: mix the kind into the checksum.
            Op::CharNgram(p) | Op::WordNgram(p) => {
                p.checksum() ^ pretzel_data::hash::fnv1a(self.kind().name().as_bytes())
            }
            Op::HashingVectorizer(p) => p.checksum(),
            Op::Concat(p) => p.checksum(),
            Op::Normalizer(p) => p.checksum(),
            Op::Scaler(p) => p.checksum(),
            Op::Imputer(p) => p.checksum(),
            Op::Binner(p) => p.checksum(),
            Op::OneHot(p) => p.checksum(),
            Op::Linear(p) => p.checksum(),
            Op::NaiveBayes(p) => p.checksum(),
            Op::TreeEnsemble(p) | Op::TreeFeaturizer(p) => {
                p.checksum() ^ pretzel_data::hash::fnv1a(self.kind().name().as_bytes())
            }
            Op::MulticlassTree(p) => p.checksum(),
            Op::KMeans(p) => p.checksum(),
            Op::Pca(p) => p.checksum(),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.checksum(),
        }
    }

    /// Heap bytes of the parameter object (memory experiments).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Op::CsvParse(p) => p.heap_bytes(),
            Op::Tokenizer(p) => p.heap_bytes(),
            Op::CharNgram(p) | Op::WordNgram(p) => p.heap_bytes(),
            Op::HashingVectorizer(p) => p.heap_bytes(),
            Op::Concat(p) => p.heap_bytes(),
            Op::Normalizer(p) => p.heap_bytes(),
            Op::Scaler(p) => p.heap_bytes(),
            Op::Imputer(p) => p.heap_bytes(),
            Op::Binner(p) => p.heap_bytes(),
            Op::OneHot(p) => p.heap_bytes(),
            Op::Linear(p) => p.heap_bytes(),
            Op::NaiveBayes(p) => p.heap_bytes(),
            Op::TreeEnsemble(p) | Op::TreeFeaturizer(p) => p.heap_bytes(),
            Op::MulticlassTree(p) => p.heap_bytes(),
            Op::KMeans(p) => p.heap_bytes(),
            Op::Pca(p) => p.heap_bytes(),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.heap_bytes(),
        }
    }

    /// Address of the shared parameter allocation — pointer-equal operators
    /// provably share memory (used by sharing tests and the memory harness).
    pub fn params_addr(&self) -> usize {
        match self {
            Op::CsvParse(p) => Arc::as_ptr(p) as usize,
            Op::Tokenizer(p) => Arc::as_ptr(p) as usize,
            Op::CharNgram(p) | Op::WordNgram(p) => Arc::as_ptr(p) as usize,
            Op::HashingVectorizer(p) => Arc::as_ptr(p) as usize,
            Op::Concat(p) => Arc::as_ptr(p) as usize,
            Op::Normalizer(p) => Arc::as_ptr(p) as usize,
            Op::Scaler(p) => Arc::as_ptr(p) as usize,
            Op::Imputer(p) => Arc::as_ptr(p) as usize,
            Op::Binner(p) => Arc::as_ptr(p) as usize,
            Op::OneHot(p) => Arc::as_ptr(p) as usize,
            Op::Linear(p) => Arc::as_ptr(p) as usize,
            Op::NaiveBayes(p) => Arc::as_ptr(p) as usize,
            Op::TreeEnsemble(p) | Op::TreeFeaturizer(p) => Arc::as_ptr(p) as usize,
            Op::MulticlassTree(p) => Arc::as_ptr(p) as usize,
            Op::KMeans(p) => Arc::as_ptr(p) as usize,
            Op::Pca(p) => Arc::as_ptr(p) as usize,
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => Arc::as_ptr(p) as usize,
        }
    }

    /// Serializes into a model-file section named `op{index}.{Kind}`.
    pub fn to_section(&self, index: usize) -> Section {
        let entries = match self {
            Op::CsvParse(p) => p.to_entries(),
            Op::Tokenizer(p) => p.to_entries(),
            Op::CharNgram(p) | Op::WordNgram(p) => p.to_entries(),
            Op::HashingVectorizer(p) => p.to_entries(),
            Op::Concat(p) => p.to_entries(),
            Op::Normalizer(p) => p.to_entries(),
            Op::Scaler(p) => p.to_entries(),
            Op::Imputer(p) => p.to_entries(),
            Op::Binner(p) => p.to_entries(),
            Op::OneHot(p) => p.to_entries(),
            Op::Linear(p) => p.to_entries(),
            Op::NaiveBayes(p) => p.to_entries(),
            Op::TreeEnsemble(p) | Op::TreeFeaturizer(p) => p.to_entries(),
            Op::MulticlassTree(p) => p.to_entries(),
            Op::KMeans(p) => p.to_entries(),
            Op::Pca(p) => p.to_entries(),
            #[cfg(feature = "fault-op")]
            Op::FaultInjector(p) => p.to_entries(),
        };
        let checksum = pretzel_data::serde_bin::section_checksum(&entries);
        Section {
            name: format!("op{index}.{}", self.kind().name()),
            checksum,
            entries,
        }
    }

    /// Parses an operator back from a model-file section.
    ///
    /// The parameters' checksum memo is seeded with `section.checksum`, the
    /// value `read_model_file` verified against the payload and the one the
    /// load fast path already looked up ([`Op::checksum_for_section`]), so a
    /// decoded operator is never re-serialized to be keyed.
    pub fn from_section(section: &Section) -> Result<Self> {
        let kind = section
            .name
            .split_once('.')
            .map(|(_, k)| k)
            .ok_or_else(|| {
                DataError::Codec(format!("section name `{}` has no kind", section.name))
            })?;
        Ok(match kind {
            "CsvParse" => Op::CsvParse(decode(section)?),
            "Tokenizer" => Op::Tokenizer(decode(section)?),
            "CharNgram" => Op::CharNgram(decode(section)?),
            "WordNgram" => Op::WordNgram(seeded(NgramParams::word_from_entries(section)?, section)),
            "HashingVectorizer" => Op::HashingVectorizer(decode(section)?),
            "Concat" => Op::Concat(decode(section)?),
            "Normalizer" => Op::Normalizer(decode(section)?),
            "Scaler" => Op::Scaler(decode(section)?),
            "Imputer" => Op::Imputer(decode(section)?),
            "Binner" => Op::Binner(decode(section)?),
            "OneHot" => Op::OneHot(decode(section)?),
            "Linear" => Op::Linear(decode(section)?),
            "NaiveBayes" => Op::NaiveBayes(decode(section)?),
            "TreeEnsemble" => Op::TreeEnsemble(decode(section)?),
            "MulticlassTree" => Op::MulticlassTree(decode(section)?),
            "TreeFeaturizer" => Op::TreeFeaturizer(decode(section)?),
            "KMeans" => Op::KMeans(decode(section)?),
            "Pca" => Op::Pca(decode(section)?),
            #[cfg(feature = "fault-op")]
            "FaultInjector" => Op::FaultInjector(decode(section)?),
            other => return Err(DataError::Codec(format!("unknown operator kind `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feat::normalizer::{NormKind, NormalizerParams};
    use crate::feat::onehot::OneHotParams;
    use crate::linear::{LinearKind, LinearParams};
    use crate::text::ngram::NgramParams;
    use crate::text::tokenizer::TokenizerParams;
    use crate::tree::{EnsembleMode, EnsembleParams, Tree};
    use pretzel_data::serde_bin::section_checksum;

    fn keys(v: &[&str]) -> Vec<Box<str>> {
        v.iter().map(|s| Box::from(*s)).collect()
    }

    fn sa_ops() -> Vec<Op> {
        vec![
            Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())),
            Op::CharNgram(Arc::new(NgramParams::new(3, false, true, keys(&["nic"])))),
            Op::WordNgram(Arc::new(NgramParams::new(
                1,
                true,
                true,
                keys(&["nice", "bad"]),
            ))),
            Op::Linear(Arc::new(LinearParams::new(
                LinearKind::Logistic,
                vec![0.5, 1.0, -1.0],
                0.0,
            ))),
        ]
    }

    #[test]
    fn schema_propagation_through_sa_chain() {
        let ops = sa_ops();
        assert_eq!(
            ops[0].output_type(&[ColumnType::Text]).unwrap(),
            ColumnType::TokenList
        );
        assert_eq!(
            ops[1].output_type(&[ColumnType::Text]).unwrap(),
            ColumnType::F32Sparse { len: 1 }
        );
        assert_eq!(
            ops[2]
                .output_type(&[ColumnType::Text, ColumnType::TokenList])
                .unwrap(),
            ColumnType::F32Sparse { len: 2 }
        );
        assert_eq!(
            ops[3]
                .output_type(&[ColumnType::F32Sparse { len: 3 }])
                .unwrap(),
            ColumnType::F32Scalar
        );
    }

    #[test]
    fn schema_mismatch_reported_with_operator_name() {
        let ops = sa_ops();
        let err = ops[1].output_type(&[ColumnType::F32Scalar]).unwrap_err();
        assert!(matches!(err, DataError::SchemaMismatch { operator, .. }
            if operator == "CharNgram"));
        let err2 = ops[3].output_type(&[ColumnType::Text]).unwrap_err();
        assert!(matches!(err2, DataError::SchemaMismatch { .. }));
    }

    #[test]
    fn wrong_input_count_rejected() {
        let ops = sa_ops();
        assert!(ops[2].output_type(&[ColumnType::Text]).is_err());
    }

    #[test]
    fn apply_dispatch_word_ngram_end_to_end() {
        let tok = &sa_ops()[0];
        let wng = &sa_ops()[2];
        let text = Vector::Text("a NICE day".into());
        let mut toks = Vector::with_type(ColumnType::TokenList);
        tok.apply(&[&text], &mut toks).unwrap();
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        wng.apply(&[&text, &toks], &mut out).unwrap();
        assert_eq!(out.to_dense(2).unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn checksums_distinguish_char_and_word_ngram() {
        // Same params type and content, different operator kind: must not
        // dedup against each other in the Object Store.
        let p = Arc::new(NgramParams::new(2, true, true, keys(&["ab"])));
        let c = Op::CharNgram(Arc::clone(&p));
        let w = Op::WordNgram(p);
        assert_ne!(c.checksum(), w.checksum());
    }

    #[test]
    fn only_a_char_ngram_section_decodes_with_a_window_table() {
        let p = Arc::new(NgramParams::new(2, true, true, keys(&["ab", "b", "ba"])));
        assert!(p.is_window_indexed());
        for (op, indexed) in [
            (Op::CharNgram(Arc::clone(&p)), true),
            (Op::WordNgram(p), false),
        ] {
            let decoded = Op::from_section(&op.to_section(0)).unwrap();
            let (Op::CharNgram(q) | Op::WordNgram(q)) = &decoded else {
                unreachable!()
            };
            assert_eq!(q.is_window_indexed(), indexed, "{:?}", op.kind());
            assert_eq!(decoded.checksum(), op.checksum());
        }
    }

    #[test]
    fn checksums_distinguish_ensemble_and_featurizer() {
        let e = Arc::new(
            EnsembleParams::new(vec![Tree::leaf(1.0)], vec![1.0], EnsembleMode::Sum, 4).unwrap(),
        );
        assert_ne!(
            Op::TreeEnsemble(Arc::clone(&e)).checksum(),
            Op::TreeFeaturizer(e).checksum()
        );
    }

    #[test]
    fn clone_shares_params_allocation() {
        let op = sa_ops().remove(1);
        let copy = op.clone();
        assert_eq!(op.params_addr(), copy.params_addr());
    }

    #[test]
    fn section_round_trip_every_kind() {
        use crate::bayes::NaiveBayesParams;
        use crate::feat::binner::BinnerParams;
        use crate::feat::concat::ConcatParams;
        use crate::feat::imputer::ImputerParams;
        use crate::feat::normalizer::{NormKind, NormalizerParams};
        use crate::feat::onehot::OneHotParams;
        use crate::feat::scaler::ScalerParams;
        use crate::kmeans::KMeansParams;
        use crate::pca::PcaParams;
        use crate::text::csv::CsvParams;
        use crate::text::hashing::HashingParams;
        use crate::tree::MulticlassTreeParams;

        let ens =
            EnsembleParams::new(vec![Tree::leaf(2.0)], vec![1.0], EnsembleMode::Sum, 4).unwrap();
        let all: Vec<Op> = vec![
            Op::CsvParse(Arc::new(CsvParams::select_text(1))),
            Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())),
            Op::CharNgram(Arc::new(NgramParams::new(3, false, true, keys(&["abc"])))),
            Op::WordNgram(Arc::new(NgramParams::new(2, true, true, keys(&["a b"])))),
            Op::HashingVectorizer(Arc::new(HashingParams::new(3, 64, true))),
            Op::Concat(Arc::new(ConcatParams::new(vec![2, 3]))),
            Op::Normalizer(Arc::new(NormalizerParams::new(NormKind::L2, 5))),
            Op::Scaler(Arc::new(ScalerParams::new(vec![0.0; 4], vec![1.0; 4]))),
            Op::Imputer(Arc::new(ImputerParams::new(vec![0.0; 4]))),
            Op::Binner(Arc::new(BinnerParams::new(vec![vec![0.5]; 4]))),
            Op::OneHot(Arc::new(OneHotParams::new(4, vec![(1, 3)]))),
            Op::Linear(Arc::new(LinearParams::new(
                LinearKind::Logistic,
                vec![1.0; 4],
                0.5,
            ))),
            Op::NaiveBayes(Arc::new(
                NaiveBayesParams::new(vec![-1.0, -2.0], vec![0.0; 8], 4).unwrap(),
            )),
            Op::TreeEnsemble(Arc::new(ens.clone())),
            Op::MulticlassTree(Arc::new(
                MulticlassTreeParams::new(vec![ens.clone(), ens.clone()]).unwrap(),
            )),
            Op::TreeFeaturizer(Arc::new(ens)),
            Op::KMeans(Arc::new(KMeansParams::new(vec![0.0; 8], 2, 4).unwrap())),
            Op::Pca(Arc::new(
                PcaParams::new(vec![0.0; 4], vec![0.0; 8], 2, 4).unwrap(),
            )),
        ];
        assert_eq!(all.len(), OpKind::ALL.len());
        for (i, op) in all.iter().enumerate() {
            let section = op.to_section(i);
            assert!(section.name.starts_with(&format!("op{i}.")));
            let parsed = Op::from_section(&section).unwrap();
            assert_eq!(parsed.kind(), op.kind(), "kind mismatch at {i}");
            let kind = op.kind().name();
            // The decoded operator answers from the memo seeded with the
            // section checksum...
            assert_eq!(
                parsed.checksum(),
                Op::checksum_for_section(kind, section.checksum),
                "{kind} was not keyed by its section checksum"
            );
            // ...which is what serializing it afresh hashes to, and what
            // the operator the image was made from reports: Object Store
            // keys of images made by `to_model_image` are unchanged.
            let fresh = section_checksum(&parsed.to_section(i).entries);
            assert_eq!(
                parsed.checksum(),
                Op::checksum_for_section(kind, fresh),
                "{kind}: seeded memo disagrees with its serialized form"
            );
            assert_eq!(
                parsed.checksum(),
                op.checksum(),
                "checksum mismatch for {kind}"
            );
        }
    }

    #[test]
    fn edited_clone_gets_its_own_checksum() {
        // Memo filled by use, then the clone is edited through `pub` fields.
        let original = LinearParams::new(LinearKind::Logistic, vec![1.0; 4], 0.5);
        let before = original.checksum();
        let mut edited = original.clone();
        assert_eq!(edited, original, "a filled and an empty memo compare equal");
        edited.bias = 1.5;
        assert_ne!(edited.checksum(), before);
        assert_eq!(original.checksum(), before);
        assert_eq!(
            edited.checksum(),
            section_checksum(&edited.to_entries()),
            "an edited clone is keyed by its own serialized form"
        );

        // Memo seeded by decoding, then a clone is edited.
        let decoded = Op::from_section(
            &Op::CharNgram(Arc::new(NgramParams::new(
                3,
                false,
                true,
                keys(&["abc", "bcd"]),
            )))
            .to_section(0),
        )
        .unwrap();
        let Op::CharNgram(seeded) = &decoded else {
            unreachable!()
        };
        let mut longer = NgramParams::clone(seeded);
        longer.n = 4;
        assert_ne!(
            Op::CharNgram(Arc::new(longer)).checksum(),
            decoded.checksum()
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let section = Section {
            name: "op0.Quantum".into(),
            checksum: 0,
            entries: vec![],
        };
        assert!(Op::from_section(&section).is_err());
        let unnamed = Section {
            name: "weird".into(),
            checksum: 0,
            entries: vec![],
        };
        assert!(Op::from_section(&unnamed).is_err());
    }

    #[test]
    fn batch_kernels_match_per_record_for_every_family() {
        use crate::synth;
        use pretzel_data::ColumnBatch;

        // One op per family with numeric input, exercised over a small
        // batch of dense records; batch rows must be bitwise-equal to
        // per-record outputs.
        let dim = 8;
        let numeric_ops: Vec<Op> = vec![
            Op::Scaler(Arc::new(synth::scaler(1, dim))),
            Op::Imputer(Arc::new(synth::imputer(2, dim))),
            Op::Binner(Arc::new(synth::binner(3, dim, 4))),
            Op::OneHot(Arc::new(OneHotParams::new(
                dim as u32,
                vec![(1, 3), (5, 2)],
            ))),
            Op::Normalizer(Arc::new(NormalizerParams::new(NormKind::L2, dim as u32))),
            Op::Linear(Arc::new(synth::linear(4, dim, LinearKind::Logistic))),
            Op::NaiveBayes(Arc::new(synth::naive_bayes(5, 3, dim))),
            Op::TreeEnsemble(Arc::new(synth::ensemble(
                6,
                dim,
                4,
                3,
                EnsembleMode::Average,
            ))),
            Op::TreeFeaturizer(Arc::new(synth::ensemble(7, dim, 3, 3, EnsembleMode::Sum))),
            Op::KMeans(Arc::new(synth::kmeans(8, 4, dim))),
            Op::Pca(Arc::new(synth::pca(9, 3, dim))),
        ];
        let records: Vec<Vector> = (0..5)
            .map(|r| {
                Vector::Dense(
                    (0..dim)
                        .map(|i| ((r * dim + i) as f32 * 0.37).sin() * 3.0)
                        .collect(),
                )
            })
            .collect();
        for op in numeric_ops {
            let out_ty = op
                .output_type(&[ColumnType::F32Dense { len: dim }])
                .unwrap();
            // Batch path.
            let mut input = ColumnBatch::with_type(ColumnType::F32Dense { len: dim });
            for r in &records {
                input.push_vector(r).unwrap();
            }
            let mut out_batch = ColumnBatch::with_type(out_ty);
            op.apply_batch(&[&input], &mut out_batch).unwrap();
            assert_eq!(out_batch.rows(), records.len(), "{}", op.kind().name());
            // Per-record reference.
            for (i, r) in records.iter().enumerate() {
                let mut out = Vector::with_type(out_ty);
                op.apply(&[r], &mut out).unwrap();
                let mut row_as_batch = ColumnBatch::with_type(out_ty);
                row_as_batch.push_vector(&out).unwrap();
                assert_eq!(
                    format!("{:?}", out_batch.row(i)),
                    format!("{:?}", row_as_batch.row(0)),
                    "{} row {i} diverges",
                    op.kind().name()
                );
            }
        }
    }

    #[test]
    fn batch_text_chain_matches_per_record() {
        use pretzel_data::ColumnBatch;
        let tok = Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct()));
        let wng = &sa_ops()[2];
        let cng = &sa_ops()[1];
        let lines = ["a NICE day", "", "bad nice bad", "punctuation, too!"];

        let mut text = ColumnBatch::with_type(ColumnType::Text);
        for l in &lines {
            text.push_text(l).unwrap();
        }
        let mut toks = ColumnBatch::with_type(ColumnType::TokenList);
        tok.apply_batch(&[&text], &mut toks).unwrap();
        let mut cgrams = ColumnBatch::with_type(ColumnType::F32Sparse { len: 1 });
        cng.apply_batch(&[&text], &mut cgrams).unwrap();
        let mut wgrams = ColumnBatch::with_type(ColumnType::F32Sparse { len: 2 });
        wng.apply_batch(&[&text, &toks], &mut wgrams).unwrap();

        for (i, line) in lines.iter().enumerate() {
            let tv = Vector::Text(line.to_string());
            let mut tok_v = Vector::with_type(ColumnType::TokenList);
            tok.apply(&[&tv], &mut tok_v).unwrap();
            let mut cg = Vector::with_type(ColumnType::F32Sparse { len: 1 });
            cng.apply(&[&tv], &mut cg).unwrap();
            let mut wg = Vector::with_type(ColumnType::F32Sparse { len: 2 });
            wng.apply(&[&tv, &tok_v], &mut wg).unwrap();

            let mut ref_toks = ColumnBatch::with_type(ColumnType::TokenList);
            ref_toks.push_vector(&tok_v).unwrap();
            assert_eq!(
                format!("{:?}", toks.row(i)),
                format!("{:?}", ref_toks.row(0)),
                "tokens row {i}"
            );
            let mut ref_cg = ColumnBatch::with_type(ColumnType::F32Sparse { len: 1 });
            ref_cg.push_vector(&cg).unwrap();
            assert_eq!(
                format!("{:?}", cgrams.row(i)),
                format!("{:?}", ref_cg.row(0)),
                "char ngram row {i}"
            );
            let mut ref_wg = ColumnBatch::with_type(ColumnType::F32Sparse { len: 2 });
            ref_wg.push_vector(&wg).unwrap();
            assert_eq!(
                format!("{:?}", wgrams.row(i)),
                format!("{:?}", ref_wg.row(0)),
                "word ngram row {i}"
            );
        }
    }

    #[test]
    fn predictor_classification() {
        assert!(OpKind::Linear.is_predictor());
        assert!(OpKind::TreeEnsemble.is_predictor());
        assert!(!OpKind::Tokenizer.is_predictor());
        assert!(!OpKind::Concat.is_predictor());
        assert!(!OpKind::TreeFeaturizer.is_predictor());
    }
}
