//! The fused text step: CSV field selection, tokenization, every n-gram
//! probe and the linear model's partial dot products in one pass over a
//! row.
//!
//! Oven fuses operators into stages so that intermediate vectors are never
//! materialized (paper §4.1.2). The Model Plan Compiler builds a
//! [`FusedText`] from a stage of the shape `CsvParse(TextField) →
//! Tokenizer → {Char,Word}Ngram·PartialDot → Combine` — the whole
//! Sentiment Analysis plan. Per row it:
//!
//! 1. borrows the CSV field from the row, never copying it;
//! 2. in one pass over the field, 64 bytes at a time, folds each chunk
//!    into the thread's hashing buffer and classifies the chunk's
//!    *original* bytes as delimiters or not, so a delimiter set holding an
//!    ASCII letter splits as the tokenizer does;
//! 3. hashes each token as its closing edge is found — no span vector —
//!    and then the word n-grams (and the character windows of a
//!    dictionary without a window table), all off that one buffer;
//! 4. matches each dictionary — a window-indexed character dictionary
//!    reads its windows through its table, any other probes — and adds
//!    its weights in hit order, then adds the partials to the bias in
//!    `Combine`'s input order and applies the link.
//!
//! The score is bitwise the one of the steps it replaces: every branch
//! accumulates from zero in the hit order of the n-gram kernels, exactly as
//! the fused n-gram·dot steps do.

use crate::linear::LinearParams;
use crate::text::csv::{CsvOutput, CsvParams};
use crate::text::ngram::{self, MatchScratch, NgramParams, SLACK};
use crate::text::tokenizer::{SpanWalk, TokenizerParams};
use crate::Op;
use pretzel_data::hash::Fnv1a;
use pretzel_data::Result;
use std::sync::Arc;

/// The n-gram kernel a branch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NgramLevel {
    /// Character windows of the text.
    Char,
    /// Token windows of the text.
    Word,
}

/// One n-gram branch of a fused text step: a dictionary, its level and
/// where its weight segment starts.
#[derive(Debug, Clone)]
pub struct TextBranch {
    /// Character or word level.
    pub level: NgramLevel,
    /// The dictionary.
    pub ngram: Arc<NgramParams>,
    /// Start of the branch's weight segment.
    pub offset: u32,
}

/// A fused text step: see the module docs.
#[derive(Debug)]
pub struct FusedText {
    field: Option<Arc<CsvParams>>,
    tokenizer: Option<Arc<TokenizerParams>>,
    branches: Vec<TextBranch>,
    linear: Arc<LinearParams>,
    /// `fold_case` of the buffer the byte loop fills: the word branches',
    /// else the first branch's.
    fold_case: bool,
    /// A character branch folds the other way and needs a second buffer.
    refold: bool,
}

impl FusedText {
    /// A fused step scoring the text (the `field` of a CSV line, or the
    /// line itself) through `branches`, in `Combine`'s input order, with
    /// `linear`'s bias and link. `None` when the parts do not fit one
    /// pass: a dense CSV parser, no branch, a weight segment out of range,
    /// a tokenizer without a word branch or the other way round, or word
    /// branches that disagree on `fold_case` (their tokens are hashed
    /// once).
    pub fn new(
        field: Option<Arc<CsvParams>>,
        tokenizer: Option<Arc<TokenizerParams>>,
        branches: Vec<TextBranch>,
        linear: Arc<LinearParams>,
    ) -> Option<Self> {
        if field
            .as_ref()
            .is_some_and(|f| !matches!(f.output, CsvOutput::TextField { .. }))
        {
            return None;
        }
        let in_range = |b: &TextBranch| b.offset as usize + b.ngram.dim() <= linear.dim();
        if !branches.iter().all(in_range) {
            return None;
        }
        let mut word_folds = branches
            .iter()
            .filter(|b| b.level == NgramLevel::Word)
            .map(|b| b.ngram.fold_case);
        let fold_case = match word_folds.next() {
            Some(fold) if tokenizer.is_some() && word_folds.all(|f| f == fold) => fold,
            Some(_) => return None,
            None if tokenizer.is_none() => branches.first()?.ngram.fold_case,
            None => return None,
        };
        let refold = branches.iter().any(|b| b.ngram.fold_case != fold_case);
        Some(FusedText {
            field,
            tokenizer,
            branches,
            linear,
            fold_case,
            refold,
        })
    }

    /// Calls `f` with every parameter object the step reads, as an [`Op`]
    /// sharing its allocation: the field parser, the tokenizer, the
    /// dictionaries in branch order, then the linear model.
    pub fn for_each_op(&self, mut f: impl FnMut(Op)) {
        if let Some(p) = &self.field {
            f(Op::CsvParse(Arc::clone(p)));
        }
        if let Some(p) = &self.tokenizer {
            f(Op::Tokenizer(Arc::clone(p)));
        }
        for b in &self.branches {
            let ngram = Arc::clone(&b.ngram);
            f(match b.level {
                NgramLevel::Char => Op::CharNgram(ngram),
                NgramLevel::Word => Op::WordNgram(ngram),
            });
        }
        f(Op::Linear(Arc::clone(&self.linear)));
    }

    /// Identity of the step's parameters and wiring (the stage signature's
    /// part for this step): every parameter checksum plus the branch
    /// offsets.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&[
            u8::from(self.field.is_some()),
            u8::from(self.tokenizer.is_some()),
        ]);
        self.for_each_op(|op| h.write_u64(op.checksum()));
        for b in &self.branches {
            h.write_u64(u64::from(b.offset));
        }
        h.finish()
    }

    /// Scores one line.
    pub fn score(&self, line: &str) -> Result<f32> {
        let text = match &self.field {
            Some(csv) => csv.select_field(line)?,
            None => line,
        };
        Ok(ngram::with_scratch(|s| self.score_text(text.as_bytes(), s)))
    }

    fn score_text(&self, text: &[u8], s: &mut MatchScratch) -> f32 {
        let MatchScratch {
            folded,
            other,
            tokens,
            grams,
        } = s;
        let n = text.len();
        if folded.len() < n + SLACK {
            folded.resize(n + SLACK, 0);
        }
        let buf = &mut folded[..n + SLACK];
        let fold_case = self.fold_case;
        tokens.clear();
        match &self.tokenizer {
            Some(tok) => {
                let mut walk = SpanWalk::new();
                let mut hash = |buf: &[u8], s: u32, e: u32| {
                    tokens.push(ngram::segment_hash(buf, s as usize, e as usize));
                };
                for (c, chunk) in text.chunks(64).enumerate() {
                    let base = c * 64;
                    for (d, &b) in buf[base..].iter_mut().zip(chunk) {
                        *d = ngram::fold(b, fold_case);
                    }
                    walk.chunk(base, tok.delim_mask(chunk), |s, e| hash(buf, s, e));
                }
                walk.finish(n, |s, e| hash(buf, s, e));
            }
            None => {
                for (d, &b) in buf.iter_mut().zip(text) {
                    *d = ngram::fold(b, fold_case);
                }
            }
        }
        // A character dictionary of the other case mode reads its own copy.
        let refolded: &[u8] = if self.refold {
            ngram::fold_row(other, text, !fold_case)
        } else {
            &[]
        };
        let mut z = self.linear.bias;
        for b in &self.branches {
            let weights = &self.linear.weights[b.offset as usize..];
            let mut acc = 0.0f32;
            let mut add = |idx: u32| acc += weights[idx as usize];
            match b.level {
                NgramLevel::Word => b.ngram.word_hits(tokens, grams, &mut add),
                NgramLevel::Char if b.ngram.fold_case == fold_case => {
                    b.ngram.char_hits(buf, &mut add);
                }
                NgramLevel::Char => b.ngram.char_hits(refolded, &mut add),
            }
            z += acc;
        }
        self.linear.link(z)
    }
}
