//! N-gram matching-path contract suite.
//!
//! The n-gram kernels hash windows into packed keys, filter them through
//! the probe table's bit filter and confirm the survivors. None of that
//! is the contract. The contract is *which* dictionary indices fire for a
//! row and *in what order* — lengths ascending, then window starts
//! ascending, first index winning among duplicate keys — and it is locked
//! in here against a **string-keyed in-test reference**: a `HashMap` from
//! folded key bytes to first index, probed with each window's own bytes.
//! The reference shares no hash with the kernels, so it pins neither the
//! hash function nor a collision of it.
//!
//! One kernel behaviour is part of the reference on purpose: a dictionary
//! key is split into segments on `' '` (that is how a word n-gram is
//! written), so a *character* window containing a space never matches —
//! see `NgramDict::hash_key`.

use pretzel_core::flour::{Flour, FlourContext};
use pretzel_core::graph::TransformGraph;
use pretzel_core::object_store::ObjectStore;
use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan, SourceRef};
use pretzel_core::plan::{StageOp, Step};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::hash::splitmix64;
use pretzel_data::pool::VectorPool;
use pretzel_data::vector::Span;
use pretzel_data::{ColumnBatch, ColumnType, Vector};
use pretzel_ops::linear::{LinearKind, LinearParams};
use pretzel_ops::synth;
use pretzel_ops::text::fused::{FusedText, NgramLevel, TextBranch};
use pretzel_ops::text::ngram::{NgramDict, NgramParams};
use pretzel_ops::text::tokenizer::TokenizerParams;
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic pseudo-random generator for dictionary/text synthesis.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Letters of the synthetic texts and keys: mixed-case ASCII over a small
/// alphabet (dense dictionary hits) plus 2- and 3-byte code points, so
/// byte windows cut through characters.
const LETTERS: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'A', 'B', 'C', 'D', 'E', 'x', 'é', 'Ü', '日',
];

/// Token separators of the synthetic texts.
const SEPARATORS: &[char] = &[' ', ' ', ',', '.'];

fn random_letters(rng: &mut Rng, chars: usize) -> String {
    (0..chars)
        .map(|_| LETTERS[rng.below(LETTERS.len())])
        .collect()
}

/// A random text of `chars` characters: letters with about one separator
/// in five.
fn random_text(rng: &mut Rng, chars: usize) -> String {
    (0..chars)
        .map(|_| {
            if rng.below(5) == 0 {
                SEPARATORS[rng.below(SEPARATORS.len())]
            } else {
                LETTERS[rng.below(LETTERS.len())]
            }
        })
        .collect()
}

/// A random dictionary of `entries` space-free keys of `1..=max_chars`
/// characters over [`LETTERS`], with the duplicates a small alphabet gives.
fn random_keys(rng: &mut Rng, entries: usize, max_chars: usize) -> Vec<Box<str>> {
    (0..entries)
        .map(|_| {
            let chars = 1 + rng.below(max_chars);
            random_letters(rng, chars).into_boxed_str()
        })
        .collect()
}

fn fold(bytes: &[u8], fold_case: bool) -> Vec<u8> {
    if fold_case {
        bytes.to_ascii_lowercase()
    } else {
        bytes.to_vec()
    }
}

/// Reference probe structure: folded key bytes → first index.
fn reference_map(p: &NgramParams) -> HashMap<Vec<u8>, u32> {
    let mut map = HashMap::with_capacity(p.dict.len());
    for (i, k) in p.dict.keys().iter().enumerate() {
        map.entry(fold(k.as_bytes(), p.fold_case))
            .or_insert(i as u32);
    }
    map
}

fn lengths(p: &NgramParams) -> std::ops::RangeInclusive<usize> {
    let n = p.n as usize;
    if p.all_lengths {
        1..=n
    } else {
        n..=n
    }
}

/// Reference character kernel: lengths ascending, start positions
/// ascending, each window's folded bytes looked up as a string.
fn reference_char_matches(p: &NgramParams, text: &str) -> Vec<u32> {
    let map = reference_map(p);
    let bytes = fold(text.as_bytes(), p.fold_case);
    let mut hits = Vec::new();
    for k in lengths(p) {
        if k == 0 || bytes.len() < k {
            continue;
        }
        for w in bytes.windows(k) {
            // A space in a key separates word segments (module comment).
            if w.contains(&b' ') {
                continue;
            }
            if let Some(&idx) = map.get(w) {
                hits.push(idx);
            }
        }
    }
    hits
}

/// Reference word kernel: the same sweep over token windows, a window's
/// string being its folded tokens joined by single spaces.
fn reference_word_matches(p: &NgramParams, text: &str, spans: &[Span]) -> Vec<u32> {
    let map = reference_map(p);
    let bytes = fold(text.as_bytes(), p.fold_case);
    let mut hits = Vec::new();
    for k in lengths(p) {
        if k == 0 || spans.len() < k {
            continue;
        }
        for w in spans.windows(k) {
            let tokens: Vec<&[u8]> = w
                .iter()
                .map(|sp| &bytes[sp.start as usize..sp.end as usize])
                .collect();
            if let Some(&idx) = map.get(&tokens.join(&b' ')) {
                hits.push(idx);
            }
        }
    }
    hits
}

fn collect_char_matches(p: &NgramParams, text: &str) -> Vec<u32> {
    let mut hits = Vec::new();
    p.for_each_char_match(text, |idx| hits.push(idx));
    hits
}

fn collect_word_matches(p: &NgramParams, text: &str, spans: &[Span]) -> Vec<u32> {
    let mut hits = Vec::new();
    p.for_each_word_match(text, spans, |idx| hits.push(idx));
    hits
}

fn tokenize(text: &str) -> Vec<Span> {
    let mut toks = Vector::with_type(ColumnType::TokenList);
    TokenizerParams::whitespace_punct()
        .apply(text, &mut toks)
        .unwrap();
    toks.as_tokens().unwrap().to_vec()
}

#[test]
fn dict_probe_agrees_with_reference_map_on_keys_and_misses() {
    let mut rng = Rng(0xfeed_face);
    // Sizes straddle the flat table's power-of-two growth boundaries
    // (capacity = next_pow2(2·len)), including the degenerate dictionaries.
    for entries in [0usize, 1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 127, 128, 129, 1000] {
        for fold_case in [true, false] {
            let p = NgramParams::new(4, true, fold_case, random_keys(&mut rng, entries, 4));
            let reference = reference_map(&p);
            let probe = |s: &str| p.dict.probe(NgramDict::hash_key(s, fold_case));
            // Every key resolves to its first index (duplicates included).
            for key in p.dict.keys() {
                assert_eq!(
                    probe(key),
                    Some(reference[&fold(key.as_bytes(), fold_case)]),
                    "entries={entries} key={key:?}"
                );
            }
            // Random strings — mostly misses, some hits — resolve as the
            // string map does.
            for _ in 0..500 {
                let chars = 1 + rng.below(5);
                let s = random_letters(&mut rng, chars);
                assert_eq!(
                    probe(&s),
                    reference.get(&fold(s.as_bytes(), fold_case)).copied(),
                    "entries={entries} probe={s:?}"
                );
            }
            assert_eq!(p.dict.flat_table().len(), reference.len());
        }
    }
}

#[test]
fn duplicate_keys_resolve_first_index_wins() {
    // "AB" and "ab" collide after folding; "ab" again collides exactly.
    let keys: Vec<Box<str>> = ["AB", "ab", "cd", "ab", "CD"]
        .iter()
        .map(|s| Box::from(*s))
        .collect();
    let dict = NgramDict::new(keys, true);
    let h_ab = NgramDict::hash_key("ab", true);
    let h_cd = NgramDict::hash_key("cd", true);
    assert_eq!(dict.probe(h_ab), Some(0));
    assert_eq!(dict.probe(h_cd), Some(2));
}

#[test]
fn char_and_word_match_sequences_identical_to_reference_sweep() {
    let mut rng = Rng(0x1234_5678);
    // n crosses the 8-byte packed-key boundary; multi-byte letters put
    // keys of ≤ 10 characters at up to 30 bytes.
    for n in 1..=10u32 {
        for all_lengths in [true, false] {
            for fold_case in [true, false] {
                for entries in [0usize, 1, 3, 50, 400] {
                    let p = NgramParams::new(
                        n,
                        all_lengths,
                        fold_case,
                        random_keys(&mut rng, entries, n as usize),
                    );
                    // Empty rows, rows shorter than n, a zero-token row,
                    // and rows long enough to span several key blocks.
                    let mut texts: Vec<String> = [0usize, 1, 2, 5, 40, 300]
                        .iter()
                        .map(|&chars| random_text(&mut rng, chars))
                        .collect();
                    texts.push(" ., ".to_string());
                    for text in &texts {
                        let tag = format!(
                            "n={n} all={all_lengths} fold={fold_case} \
                             entries={entries} text={text:?}"
                        );
                        assert_eq!(
                            collect_char_matches(&p, text),
                            reference_char_matches(&p, text),
                            "char {tag}"
                        );
                        let spans = tokenize(text);
                        assert_eq!(
                            collect_word_matches(&p, text, &spans),
                            reference_word_matches(&p, text, &spans),
                            "word {tag}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn word_ngrams_of_random_vocabulary_match_reference() {
    // Word-level dictionaries proper: keys of 1..=n vocabulary words
    // (1–12 characters, so token hashes cross the packed boundary) joined
    // by single spaces, texts over the same vocabulary with mixed case.
    let mut rng = Rng(0x77aa);
    let vocab: Vec<String> = (0..40)
        .map(|_| {
            let chars = 1 + rng.below(12);
            random_letters(&mut rng, chars)
        })
        .collect();
    for n in 1..=4u32 {
        for all_lengths in [true, false] {
            for fold_case in [true, false] {
                let keys: Vec<Box<str>> = (0..200)
                    .map(|_| {
                        let k = 1 + rng.below(n as usize);
                        let gram: Vec<&str> = (0..k)
                            .map(|_| vocab[rng.below(vocab.len())].as_str())
                            .collect();
                        gram.join(" ").into_boxed_str()
                    })
                    .collect();
                let p = NgramParams::new(n, all_lengths, fold_case, keys);
                let mut total = 0;
                for items in [0usize, 1, 2, 3, 8, 25, 400] {
                    // Half the items are whole keys, so every length hits.
                    let text: String = (0..items)
                        .map(|_| {
                            let item: &str = if rng.below(2) == 0 {
                                &vocab[rng.below(vocab.len())]
                            } else {
                                &p.dict.keys()[rng.below(p.dim())]
                            };
                            let sep = SEPARATORS[rng.below(SEPARATORS.len())];
                            format!("{item}{sep} ")
                        })
                        .collect();
                    let spans = tokenize(&text);
                    let got = collect_word_matches(&p, &text, &spans);
                    assert_eq!(
                        got,
                        reference_word_matches(&p, &text, &spans),
                        "n={n} all={all_lengths} fold={fold_case} items={items}"
                    );
                    total += got.len();
                }
                assert!(total > 0, "n={n}: the sweep never hit");
            }
        }
    }
}

#[test]
fn word_match_sequences_identical_on_vocabulary_texts() {
    // Texts drawn from the dictionary's own vocabulary: high hit density,
    // which exercises the duplicate-summing and emission-order contract
    // harder than random misses do.
    let vocab = synth::vocabulary(7, 64);
    let p = Arc::new(synth::word_ngram(9, 2, 128, &vocab));
    let mut rng = Rng(0xabcd);
    for sentence_len in [0usize, 1, 2, 3, 8, 25] {
        let sentence: Vec<&str> = (0..sentence_len)
            .map(|_| vocab[rng.below(vocab.len())].as_str())
            .collect();
        let text = sentence.join(" ");
        let spans = tokenize(&text);
        let kernel = collect_word_matches(&p, &text, &spans);
        assert_eq!(
            kernel,
            reference_word_matches(&p, &text, &spans),
            "sentence_len={sentence_len}"
        );
        assert!(sentence_len < 2 || !kernel.is_empty() || p.dim() == 0);
    }
}

#[test]
fn hits_in_the_rows_last_bytes_are_found() {
    // The kernels read 8 bytes at a time off a folded copy of the row
    // with slack behind it; a window ending on the row's last byte reads
    // into that slack. Every suffix of the row, at every length across
    // the packed boundary, must still match — case-sensitive too, which
    // folds nothing but still needs the slack.
    let text = "the quick brown fox jumps over THE LAZY DOG";
    for fold_case in [true, false] {
        for k in 1..=12usize {
            let suffix = &text[text.len() - k..];
            if suffix.contains(' ') {
                continue;
            }
            let p = NgramParams::new(k as u32, false, fold_case, vec![Box::from(suffix)]);
            let hits = collect_char_matches(&p, text);
            assert_eq!(hits, reference_char_matches(&p, text), "k={k}");
            assert_eq!(hits.last(), Some(&0), "k={k} fold={fold_case}");
        }
    }
    // Word level: the last token, and the last bigram.
    let spans = tokenize(text);
    let p = NgramParams::new(2, true, true, vec![Box::from("dog"), Box::from("lazy dog")]);
    assert_eq!(collect_word_matches(&p, text, &spans), vec![0, 1]);
}

#[test]
fn one_70_kib_row_matches_reference_and_leaves_the_scratch_usable() {
    let mut rng = Rng(0x70_000);
    let p = NgramParams::new(3, true, true, random_keys(&mut rng, 400, 3));
    let mut long = String::new();
    while long.len() < 70 << 10 {
        long.push_str(&random_text(&mut rng, 512));
    }
    let spans = tokenize(&long);
    assert!(spans.len() > 5_000);
    for text in [long.as_str(), "abc de"] {
        assert_eq!(
            collect_char_matches(&p, text),
            reference_char_matches(&p, text)
        );
        let spans = tokenize(text);
        assert_eq!(
            collect_word_matches(&p, text, &spans),
            reference_word_matches(&p, text, &spans)
        );
    }
}

#[test]
fn apply_and_eval_batch_outputs_match_reference_accumulation() {
    let mut rng = Rng(0x5151);
    let p = NgramParams::new(3, true, true, random_keys(&mut rng, 300, 3));
    let texts: Vec<String> = (0..17).map(|i| random_text(&mut rng, i * 13)).collect();

    for t in &texts {
        // Reference: accumulate the reference sweep's hit sequence into a
        // sorted-by-index sparse pair list (`sparse_accumulate` keeps
        // indices sorted; counts are sums of exact 1.0s, so order of
        // addition cannot perturb them).
        let mut counts: std::collections::BTreeMap<u32, f32> = std::collections::BTreeMap::new();
        for idx in reference_char_matches(&p, t) {
            *counts.entry(idx).or_insert(0.0) += 1.0;
        }
        let expect: Vec<(u32, u32)> = counts.iter().map(|(&i, v)| (i, v.to_bits())).collect();

        let mut out = Vector::with_type(ColumnType::F32Sparse { len: p.dim() });
        p.apply_char(t, &mut out).unwrap();
        let got: Vec<(u32, u32)> = match out {
            Vector::Sparse {
                indices, values, ..
            } => indices
                .into_iter()
                .zip(values.into_iter().map(f32::to_bits))
                .collect(),
            _ => unreachable!(),
        };
        assert_eq!(got, expect, "apply_char diverges from reference on {t:?}");
    }

    // Batch CSR rows are bitwise the per-record outputs.
    let mut input = ColumnBatch::with_type(ColumnType::Text);
    for t in &texts {
        input.push_text(t).unwrap();
    }
    let mut batch = ColumnBatch::with_type(ColumnType::F32Sparse { len: p.dim() });
    p.eval_batch_char(&input, &mut batch).unwrap();
    for (r, t) in texts.iter().enumerate() {
        let mut single = Vector::with_type(ColumnType::F32Sparse { len: p.dim() });
        p.apply_char(t, &mut single).unwrap();
        let (s_idx, s_val) = match &single {
            Vector::Sparse {
                indices, values, ..
            } => (
                indices.clone(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ),
            _ => unreachable!(),
        };
        let pretzel_data::ColRef::Sparse {
            indices, values, ..
        } = batch.row(r)
        else {
            unreachable!()
        };
        assert_eq!(indices, &s_idx[..], "batch row {r} indices diverge");
        assert_eq!(
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s_val,
            "batch row {r} values diverge"
        );
    }
}

#[test]
fn fused_dot_scores_match_reference_emission_order() {
    // The fused n-gram·dot accumulates f32 in emission order, so this is
    // the strictest consumer: any reordering in the kernel shows up in
    // the last bits of the sum.
    let ngram = Arc::new(synth::char_ngram(5, 3, 512));
    let lin = Arc::new(synth::linear(6, 512, LinearKind::Regression));
    let weights = lin.weights.clone();
    let mut rng = Rng(0x9988);
    let step = StageOp::FusedCharNgramDot {
        ngram: Arc::clone(&ngram),
        linear: lin,
        offset: 0,
    };
    for len in [0usize, 3, 10, 120, 800] {
        let text_s: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let mut expect = 0.0f32;
        for idx in reference_char_matches(&ngram, &text_s) {
            expect += weights[idx as usize];
        }
        let text = Vector::Text(text_s);
        let mut out = Vector::Scalar(0.0);
        step.apply(&[&text], &mut out).unwrap();
        let got = out.as_scalar().unwrap();
        assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "fused dot len={len}: {got} vs {expect}"
        );
    }
}

#[test]
fn fused_plan_scores_equal_reference_order_accumulation_in_every_engine() {
    // A whole SA plan, compiled into one fused text step, scored through
    // every engine. The expected score accumulates the reference hit
    // sequences in f32 exactly as the fused n-gram·dot steps and `Combine`
    // do: each branch from zero in hit order, then the partials onto the
    // bias in the Concat's order — here both orders, over the raw line and
    // over a CSV field.
    let mut rng = Rng(0xe9e9);
    let vocab = synth::vocabulary(3, 48);
    let cgram = Arc::new(synth::char_ngram(11, 3, 800));
    let wgram = Arc::new(synth::word_ngram(12, 2, 200, &vocab));
    let sentences: Vec<String> = [0usize, 1, 2, 9, 30, 120, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15]
        .iter()
        .map(|&words| {
            let sentence: Vec<&str> = (0..words)
                .map(|_| vocab[rng.below(vocab.len())].as_str())
                .collect();
            sentence.join(" ")
        })
        .collect();
    let tok = Arc::new(TokenizerParams::whitespace_punct());
    for word_first in [false, true] {
        for field in [None, Some(1)] {
            let (first, second) = match word_first {
                false => (cgram.dim(), wgram.dim()),
                true => (wgram.dim(), cgram.dim()),
            };
            let weights: Vec<f32> = (0..first + second)
                .map(|_| (rng.below(2001) as f32 - 1000.0) / 977.0)
                .collect();
            let lin = Arc::new(LinearParams::new(
                LinearKind::Regression,
                weights.clone(),
                0.1,
            ));
            let branches = match word_first {
                false => [(false, Arc::clone(&cgram)), (true, Arc::clone(&wgram))],
                true => [(true, Arc::clone(&wgram)), (false, Arc::clone(&cgram))],
            };
            let graph = text_graph(field, &tok, &branches, &lin);
            let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
            let plan = ModelPlan::compile(
                logical,
                &CompileOptions {
                    fuse_ngram_dot: true,
                },
                &ObjectStore::new(),
            )
            .unwrap();
            assert!(is_one_fused_text_step(&plan), "{plan:#?}");

            let mut order_shows = false;
            let expect: Vec<Result<u32, String>> = sentences
                .iter()
                .map(|line| {
                    let mut c = 0.0f32;
                    let c_off = if word_first { wgram.dim() } else { 0 };
                    for idx in reference_char_matches(&cgram, line) {
                        c += weights[c_off + idx as usize];
                    }
                    let mut w = 0.0f32;
                    let w_off = if word_first { 0 } else { cgram.dim() };
                    for idx in reference_word_matches(&wgram, line, &tokenize(line)) {
                        w += weights[w_off + idx as usize];
                    }
                    let z = match word_first {
                        false => lin.bias + c + w,
                        true => lin.bias + w + c,
                    };
                    let swapped = match word_first {
                        false => lin.bias + w + c,
                        true => lin.bias + c + w,
                    };
                    order_shows |= z != swapped;
                    Ok(z.to_bits())
                })
                .collect();
            assert!(order_shows, "no line tells the partials' order apart");
            let lines: Vec<String> = match field {
                None => sentences.clone(),
                Some(_) => sentences.iter().map(|s| format!("5,{s},US")).collect(),
            };
            for (engine, got) in every_engine(&plan, &lines).iter().enumerate() {
                assert_eq!(
                    got, &expect,
                    "word_first={word_first} field={field:?} engine {engine}"
                );
            }
        }
    }
}

fn is_one_fused_text_step(plan: &ModelPlan) -> bool {
    matches!(
        plan.stages.as_slice(),
        [stage] if matches!(stage.steps.as_slice(), [Step { op: StageOp::FusedText(_), .. }])
    )
}

/// Non-zero weights whose sums are exact in any order: multiples of
/// 2^-10 of at most 2^-7, so a sum stays exact while it is below 2^14 in
/// magnitude — far more hits than any row here has. With them a plan
/// scored as one fused text step and the same plan compiled without
/// fusion (sparse counts, then a SIMD sparse dot) must agree bitwise.
fn exact_weights(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (1 + rng.below(8)) as f32 * [-1.0, 1.0][rng.below(2)] / 1024.0)
        .collect()
}

/// A text pipeline: the CSV `field` of a line (or the line itself), split
/// by `tok`, into `branches` (word level when `true`) concatenated in
/// order under one linear model.
fn text_graph(
    field: Option<u32>,
    tok: &Arc<TokenizerParams>,
    branches: &[(bool, Arc<NgramParams>)],
    lin: &Arc<LinearParams>,
) -> TransformGraph {
    let ctx = FlourContext::new();
    let text = match field {
        Some(i) => ctx.csv(',').select_text(i),
        None => ctx.text_source(),
    };
    let tokens = text.tokenize_with(Arc::clone(tok));
    let feats: Vec<Flour> = branches
        .iter()
        .map(|(word, p)| match word {
            true => tokens.word_ngram(Arc::clone(p)),
            false => tokens.char_ngram(Arc::clone(p)),
        })
        .collect();
    let rest: Vec<&Flour> = feats[1..].iter().collect();
    feats[0]
        .concat_many(&rest)
        .classifier_linear(Arc::clone(lin))
        .graph()
}

/// What one plan answers for `lines` through every engine: score bits or
/// the error, per line — `execute`, `execute_borrowed`, the stages one at
/// a time over rows and over one-row chunks, and `execute_batch` over
/// one-row chunks, then over all the lines as one chunk.
fn every_engine(plan: &ModelPlan, lines: &[String]) -> Vec<Vec<Result<u32, String>>> {
    let bits = |r: pretzel_data::Result<f32>| r.map(f32::to_bits).map_err(|e| format!("{e:?}"));
    let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
    let mut slots: Vec<Vector> = plan
        .slot_types()
        .iter()
        .map(|&t| Vector::with_type(t))
        .collect();
    let mut batch_slots: Vec<ColumnBatch> = plan
        .batch_slot_types()
        .iter()
        .map(|&t| ColumnBatch::with_type(t))
        .collect();
    let out = plan.output_slot as usize;
    let mut engines = vec![Vec::new(); 5];
    for line in lines {
        let src = SourceRef::Text(line);
        engines[0].push(bits(plan.execute(src, &mut slots, &mut ctx)));
        engines[1].push(bits(plan.execute_borrowed(src, &mut slots, &mut ctx)));
        let staged = src.load_into(&mut slots[0]).and_then(|()| {
            for stage in &plan.stages {
                stage.execute(&mut slots, &mut ctx)?;
            }
            Ok(slots[out].as_scalar().expect("scalar score"))
        });
        engines[2].push(bits(staged));
        let staged_batch = (|| {
            batch_slots.iter_mut().for_each(ColumnBatch::reset);
            src.load_into_batch(&mut batch_slots[0])?;
            for stage in &plan.stages {
                stage.execute_batch(&mut batch_slots, 1, &mut ctx)?;
            }
            Ok(batch_slots[out].as_scalars().expect("scalar scores")[0])
        })();
        engines[3].push(bits(staged_batch));
        let mut score = [0f32];
        let batched = plan.execute_batch(&[src], &mut batch_slots, &mut ctx, &mut score);
        engines[4].push(bits(batched.map(|()| score[0])));
    }
    let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
    let mut scores = vec![0f32; lines.len()];
    let whole = plan.execute_batch(&sources, &mut batch_slots, &mut ctx, &mut scores);
    engines.push(match whole {
        Ok(()) => scores.iter().map(|s| Ok(s.to_bits())).collect(),
        Err(e) => vec![Err(format!("{e:?}"))],
    });
    engines
}

/// `Runtime::predict_source` per line, bits or the error.
fn served(
    rt: &Runtime,
    logical: pretzel_core::plan::StagePlan,
    lines: &[String],
) -> Vec<Result<u32, String>> {
    let id = rt.register(logical).unwrap();
    lines
        .iter()
        .map(|l| {
            rt.predict_source(id, SourceRef::Text(l))
                .map(f32::to_bits)
                .map_err(|e| format!("{e:?}"))
        })
        .collect()
}

/// CSV lines whose fields are random texts without commas, each field
/// count in `fields`, then the lines any field index must cope with.
fn csv_lines(rng: &mut Rng, fields: usize, chars: &[usize]) -> Vec<String> {
    let mut lines: Vec<String> = chars
        .iter()
        .map(|&n| {
            (0..fields)
                .map(|_| random_text(rng, n).replace(',', ";"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    // An empty middle field, multi-byte characters, a missing field for
    // every index but 0, and an empty line.
    lines.push("Ab cD,,é Ü 日x".into());
    lines.push("日本 é,AbE abe ABE,x".into());
    lines.push("no other field".into());
    lines.push(String::new());
    lines
}

#[test]
fn fused_text_step_scores_bitwise_like_the_unfused_plan_in_every_engine() {
    let mut rng = Rng(0x7e47);
    let vocab: Vec<String> = (0..30)
        .map(|_| {
            let chars = 1 + rng.below(6);
            random_letters(&mut rng, chars)
        })
        .collect();
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let whitespace = Arc::new(TokenizerParams::whitespace_punct());
    // Delimiters that include ASCII letters of both cases: bytes are
    // classified as they are, not as folded.
    let lettered = Arc::new(TokenizerParams::new(*b" .;aE"));
    let mut cases = 0;
    for n in 1..=10u32 {
        for all_lengths in [true, false] {
            for (char_fold, word_fold) in
                [(true, true), (false, false), (true, false), (false, true)]
            {
                let case = cases;
                cases += 1;
                // Keys of every extracted length: ASCII keys of exactly n
                // bytes beside the random ones, word keys of n tokens when
                // only that length is extracted.
                let mut char_keys = random_keys(&mut rng, 300, n as usize);
                char_keys.extend((0..40).map(|_| {
                    (0..n)
                        .map(|_| LETTERS[rng.below(11)])
                        .collect::<String>()
                        .into_boxed_str()
                }));
                let cgram = Arc::new(NgramParams::new(n, all_lengths, char_fold, char_keys));
                let word_keys: Vec<Box<str>> = (0..120)
                    .map(|_| {
                        let k = if all_lengths {
                            1 + rng.below(n as usize)
                        } else {
                            n as usize
                        };
                        let gram: Vec<&str> = (0..k)
                            .map(|_| vocab[rng.below(vocab.len())].as_str())
                            .collect();
                        gram.join(" ").into_boxed_str()
                    })
                    .collect();
                let wgram = Arc::new(NgramParams::new(n, all_lengths, word_fold, word_keys));
                let dim = cgram.dim() + wgram.dim();
                let kind = [LinearKind::Regression, LinearKind::Logistic][case % 2];
                let lin = Arc::new(LinearParams::new(kind, exact_weights(&mut rng, dim), 0.25));
                // Rotate the wiring: CSV field 0, 1, 2 or the raw line;
                // char-then-word or word-then-char (Combine's input
                // order); the plain or the lettered tokenizer.
                let field = [Some(0), Some(1), Some(2), None][case % 4];
                let tok = [&whitespace, &lettered][(case / 4) % 2];
                let branches = if (case / 8) % 2 == 0 {
                    vec![(false, Arc::clone(&cgram)), (true, Arc::clone(&wgram))]
                } else {
                    vec![(true, Arc::clone(&wgram)), (false, Arc::clone(&cgram))]
                };
                let logical =
                    pretzel_core::oven::optimize(&text_graph(field, tok, &branches, &lin))
                        .unwrap()
                        .plan;
                let compile = |fuse_ngram_dot| {
                    ModelPlan::compile(
                        logical.clone(),
                        &CompileOptions { fuse_ngram_dot },
                        &ObjectStore::new(),
                    )
                    .unwrap()
                };
                let (fused, unfused) = (compile(true), compile(false));
                assert!(is_one_fused_text_step(&fused), "case {case}: {fused:#?}");
                assert_eq!(fused.param_bytes(), unfused.param_bytes(), "case {case}");

                let mut lines = csv_lines(&mut rng, 3, &[0, 1, 7, 40, 200]);
                // Vocabulary sentences and dictionary keys, so n-grams of
                // every length hit.
                for words in [3usize, 12] {
                    let sentence: Vec<&str> = (0..words)
                        .map(|_| vocab[rng.below(vocab.len())].as_str())
                        .collect();
                    lines.push(format!("{0},{0},{0}", sentence.join(" ")));
                }
                for _ in 0..2 {
                    let keys: Vec<&str> = (0..8)
                        .map(|i| match i % 2 {
                            0 => &*cgram.dict.keys()[300 + rng.below(40)],
                            _ => &*wgram.dict.keys()[rng.below(wgram.dim())],
                        })
                        .collect();
                    lines.push(format!("{0},{0},{0}", keys.join(" ")));
                }
                let tag = format!("case {case}: n={n} all={all_lengths} fold=({char_fold}, {word_fold}) field={field:?}");
                let want = every_engine(&unfused, &lines);
                assert_eq!(every_engine(&fused, &lines), want, "{tag}");
                let scores: std::collections::HashSet<&u32> =
                    want[0].iter().filter_map(|r| r.as_ref().ok()).collect();
                assert!(scores.len() > 1, "{tag}: no line hit anything");
                if field.is_some_and(|i| i > 0) {
                    assert!(
                        want[0].iter().any(Result::is_err),
                        "{tag}: no missing field"
                    );
                }
                assert_eq!(
                    served(&rt, logical, &lines),
                    want[1],
                    "{tag}: predict_source"
                );
            }
        }
    }
    // One 70 KiB field.
    let cgram = Arc::new(NgramParams::new(
        3,
        true,
        true,
        random_keys(&mut rng, 400, 3),
    ));
    let wgram = Arc::new(synth::word_ngram(5, 2, 200, &vocab));
    let lin = Arc::new(LinearParams::new(
        LinearKind::Regression,
        exact_weights(&mut rng, cgram.dim() + wgram.dim()),
        0.0,
    ));
    let graph = text_graph(Some(1), &whitespace, &[(false, cgram), (true, wgram)], &lin);
    let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let mut long = String::from("5,");
    while long.len() < 70 << 10 {
        long.push_str(&random_text(&mut rng, 512).replace(',', " "));
    }
    long.push_str(",US");
    let lines = [long, "1,ab cd,x".to_string()];
    let plans: Vec<ModelPlan> = [true, false]
        .into_iter()
        .map(|fuse_ngram_dot| {
            ModelPlan::compile(
                logical.clone(),
                &CompileOptions { fuse_ngram_dot },
                &ObjectStore::new(),
            )
            .unwrap()
        })
        .collect();
    assert_eq!(
        every_engine(&plans[0], &lines),
        every_engine(&plans[1], &lines)
    );
}

/// Whether the character kernel should read `p` through a window table:
/// the rule, restated from the module docs of `ngram.rs` — every
/// extracted length at most 4 bytes, some key that can match a window,
/// and cells of `(A + 1)^k` per length, two bytes each below 65 535
/// entries and four above, no larger than the flat probe table.
fn qualifies_for_window_table(p: &NgramParams) -> bool {
    let lengths = lengths(p);
    if *lengths.start() == 0 || *lengths.end() > 4 {
        return false;
    }
    let alphabet: std::collections::HashSet<u8> = p
        .dict
        .keys()
        .iter()
        .map(|k| k.as_bytes())
        .filter(|k| lengths.contains(&k.len()) && !k.contains(&b' '))
        .flat_map(|k| fold(k, p.fold_case))
        .collect();
    if alphabet.is_empty() {
        return false;
    }
    let cells: usize = lengths.map(|k| (alphabet.len() + 1).pow(k as u32)).sum();
    let width = if p.dim() < 65_535 { 2 } else { 4 };
    cells * width <= p.dict.flat_table().heap_bytes()
}

/// `p`'s character matches on `text` equal the reference sweep's and
/// those of a hashed twin: the same keys as a word dictionary, which has
/// no window table.
fn assert_char_matches(p: &NgramParams, text: &str, tag: &str) {
    let hashed = NgramParams::word(p.n, p.all_lengths, p.fold_case, p.dict.keys().to_vec());
    assert!(!hashed.is_window_indexed(), "{tag}");
    let want = reference_char_matches(p, text);
    assert_eq!(
        collect_char_matches(p, text),
        want,
        "window {tag} text={text:?}"
    );
    assert_eq!(
        collect_char_matches(&hashed, text),
        want,
        "hashed {tag} text={text:?}"
    );
}

#[test]
fn window_indexed_and_hashed_dictionaries_match_the_reference() {
    let mut rng = Rng(0x3a1d);
    let (mut indexed, mut hashed) = (0, 0);
    for n in 1..=5u32 {
        for all_lengths in [true, false] {
            for fold_case in [true, false] {
                for entries in [1usize, 20, 60, 400] {
                    // Keys of up to n + 1 characters over mixed-case and
                    // multi-byte letters: lengths that are not extracted,
                    // duplicates after folding, and some keys with a space.
                    let mut keys = random_keys(&mut rng, entries, n as usize + 1);
                    keys.extend((0..entries / 10).map(|_| {
                        let (a, b) = (random_letters(&mut rng, 1), random_letters(&mut rng, 1));
                        format!("{a} {b}").into_boxed_str()
                    }));
                    let p = NgramParams::new(n, all_lengths, fold_case, keys);
                    let want = qualifies_for_window_table(&p);
                    assert_eq!(p.is_window_indexed(), want, "n={n} entries={entries}");
                    *[&mut hashed, &mut indexed][usize::from(want)] += 1;
                    let tag = format!("n={n} all={all_lengths} fold={fold_case} entries={entries}");
                    // Rows shorter than every length, random rows, rows of
                    // dictionary keys, and bytes no key holds.
                    let mut texts: Vec<String> = [0usize, 1, 2, 3, 9, 120]
                        .iter()
                        .map(|&chars| random_text(&mut rng, chars))
                        .collect();
                    let some_keys: Vec<&str> = (0..12)
                        .map(|_| &*p.dict.keys()[rng.below(p.dim())])
                        .collect();
                    texts.push(some_keys.concat());
                    texts.push(some_keys.join(" "));
                    texts.push("zz Zq\u{0}~ \u{ff}\u{1F600}".into());
                    for text in &texts {
                        assert_char_matches(&p, text, &tag);
                    }
                }
            }
        }
    }
    assert!(
        indexed > 10 && hashed > 10,
        "{indexed} indexed, {hashed} hashed"
    );
}

#[test]
fn one_alphabet_class_past_the_size_rule_hashes_and_matches_alike() {
    // Trigram keys over exactly `a` symbols fit the size rule; replacing
    // one key by one with a new symbol (same entry count, so the same
    // flat table) takes the alphabet one class past it.
    let symbols: Vec<char> = ('!'..='~').filter(|c| *c != ' ').collect();
    let entries = 700;
    let flat = NgramParams::new(3, false, false, vec![Box::from("xyz"); entries])
        .dict
        .flat_table()
        .heap_bytes();
    let a = (1..symbols.len())
        .take_while(|a| 2 * (a + 1).pow(3) <= flat)
        .last()
        .unwrap();
    let mut rng = Rng(0xa1fa);
    let mut keys: Vec<Box<str>> = (0..entries)
        .map(|i| {
            // The first `a` keys name every symbol.
            let first = if i < a {
                symbols[i]
            } else {
                symbols[rng.below(a)]
            };
            [first, symbols[rng.below(a)], symbols[rng.below(a)]]
                .iter()
                .collect::<String>()
                .into_boxed_str()
        })
        .collect();
    let fits = NgramParams::new(3, false, false, keys.clone());
    assert!(fits.is_window_indexed(), "{a} symbols, {flat} flat bytes");
    keys[entries - 1] = [symbols[a], symbols[0], symbols[1]]
        .iter()
        .collect::<String>()
        .into_boxed_str();
    let past = NgramParams::new(3, false, false, keys);
    assert!(!past.is_window_indexed(), "{} symbols", a + 1);
    let text: String = (0..400).map(|_| symbols[rng.below(a + 1)]).collect();
    for p in [&fits, &past] {
        assert!(!collect_char_matches(p, &text).is_empty());
        assert_char_matches(p, &text, "size rule");
    }
}

#[test]
fn a_dictionary_of_65_535_keys_or_more_indexes_wide_cells() {
    // Narrow cells hold indices below the u16 sentinel; from 65 535
    // entries on, the table's cells are u32 and indices above 65 535 fire.
    let symbols: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain("!#$%&()*+".chars())
        .collect();
    let keys: Vec<Box<str>> = (0..70_000usize)
        .map(|i| {
            let s = symbols.len();
            [symbols[i % s], symbols[i / s % s], symbols[i / s / s % s]]
                .iter()
                .collect::<String>()
                .into_boxed_str()
        })
        .collect();
    let p = NgramParams::new(3, false, true, keys);
    assert!(p.is_window_indexed());
    let mut rng = Rng(0x65535);
    let text: String = (0..2_000)
        .map(|_| symbols[rng.below(symbols.len())])
        .collect();
    let hits = collect_char_matches(&p, &text);
    assert!(hits.iter().any(|&idx| idx > 65_535), "no wide index fired");
    assert_char_matches(&p, &text, "wide");
}

#[test]
fn the_fused_steps_refold_branch_reads_a_window_indexed_dictionary_like_the_reference() {
    // A case-sensitive character dictionary beside case-folding word
    // branches: the fused text step folds the row for the words and
    // hands the character branch a second, unfolded copy.
    let mut rng = Rng(0xf01d);
    let vocab: Vec<String> = (0..30)
        .map(|_| {
            let chars = 1 + rng.below(5);
            random_letters(&mut rng, chars)
        })
        .collect();
    let tok = Arc::new(TokenizerParams::whitespace_punct());
    for (char_fold, word_fold) in [(false, true), (true, false), (true, true)] {
        let cgram = Arc::new(NgramParams::new(
            3,
            true,
            char_fold,
            random_keys(&mut rng, 500, 3),
        ));
        assert!(cgram.is_window_indexed());
        let word_keys: Vec<Box<str>> = (0..60)
            .map(|_| vocab[rng.below(vocab.len())].clone().into_boxed_str())
            .collect();
        let wgram = Arc::new(NgramParams::word(1, true, word_fold, word_keys));
        let weights = exact_weights(&mut rng, cgram.dim() + wgram.dim());
        let lin = Arc::new(LinearParams::new(
            LinearKind::Regression,
            weights.clone(),
            0.5,
        ));
        let branches = vec![
            TextBranch {
                level: NgramLevel::Char,
                ngram: Arc::clone(&cgram),
                offset: 0,
            },
            TextBranch {
                level: NgramLevel::Word,
                ngram: Arc::clone(&wgram),
                offset: cgram.dim() as u32,
            },
        ];
        let step = FusedText::new(None, Some(Arc::clone(&tok)), branches, lin).unwrap();
        for chars in [0usize, 2, 30, 200] {
            let text = random_text(&mut rng, chars);
            let mut c = 0.0f32;
            for idx in reference_char_matches(&cgram, &text) {
                c += weights[idx as usize];
            }
            let mut w = 0.0f32;
            for idx in reference_word_matches(&wgram, &text, &tokenize(&text)) {
                w += weights[cgram.dim() + idx as usize];
            }
            assert_eq!(
                step.score(&text).unwrap().to_bits(),
                (0.5 + c + w).to_bits(),
                "fold=({char_fold}, {word_fold}) text={text:?}"
            );
        }
    }
}
