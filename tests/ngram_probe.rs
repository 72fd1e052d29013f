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

use pretzel_core::physical::{CompileOptions, ExecCtx, ModelPlan, SourceRef};
use pretzel_core::plan::StageOp;
use pretzel_core::{flour::FlourContext, object_store::ObjectStore};
use pretzel_data::hash::splitmix64;
use pretzel_data::pool::VectorPool;
use pretzel_data::vector::Span;
use pretzel_data::{ColumnBatch, ColumnType, Vector};
use pretzel_ops::linear::{LinearKind, LinearParams};
use pretzel_ops::synth;
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
    // A whole SA plan with both n-gram·dot steps fused, scored through the
    // three engines. The expected score accumulates the reference hit
    // sequences in f32 exactly as the fused steps and `Combine` do.
    let mut rng = Rng(0xe9e9);
    let vocab = synth::vocabulary(3, 48);
    let cgram = Arc::new(synth::char_ngram(11, 3, 800));
    let wgram = Arc::new(synth::word_ngram(12, 2, 200, &vocab));
    let weights: Vec<f32> = (0..cgram.dim() + wgram.dim())
        .map(|_| (rng.below(2001) as f32 - 1000.0) / 977.0)
        .collect();
    let lin = Arc::new(LinearParams::new(
        LinearKind::Regression,
        weights.clone(),
        0.125,
    ));
    let tokens = FlourContext::new().text_source().tokenize();
    let graph = tokens
        .char_ngram(Arc::clone(&cgram))
        .concat(&tokens.word_ngram(Arc::clone(&wgram)))
        .classifier_linear(Arc::clone(&lin))
        .graph();
    let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
    let plan = ModelPlan::compile(
        logical,
        &CompileOptions {
            fuse_ngram_dot: true,
        },
        &ObjectStore::new(),
    )
    .unwrap();

    let lines: Vec<String> = [0usize, 1, 2, 9, 30, 120]
        .iter()
        .map(|&words| {
            let sentence: Vec<&str> = (0..words)
                .map(|_| vocab[rng.below(vocab.len())].as_str())
                .collect();
            sentence.join(" ")
        })
        .collect();
    let expect: Vec<u32> = lines
        .iter()
        .map(|line| {
            let mut c = 0.0f32;
            for idx in reference_char_matches(&cgram, line) {
                c += weights[idx as usize];
            }
            let mut w = 0.0f32;
            for idx in reference_word_matches(&wgram, line, &tokenize(line)) {
                w += weights[cgram.dim() + idx as usize];
            }
            (lin.bias + c + w).to_bits()
        })
        .collect();
    assert!(expect.iter().any(|&e| e != lin.bias.to_bits()));

    let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
    let mut slots: Vec<Vector> = plan
        .slot_types()
        .iter()
        .map(|&t| Vector::with_type(t))
        .collect();
    for (line, &e) in lines.iter().zip(&expect) {
        let src = SourceRef::Text(line);
        let single = plan.execute(src, &mut slots, &mut ctx).unwrap();
        assert_eq!(single.to_bits(), e, "execute on {line:?}");
        let borrowed = plan.execute_borrowed(src, &mut slots, &mut ctx).unwrap();
        assert_eq!(borrowed.to_bits(), e, "execute_borrowed on {line:?}");
    }
    let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
    let mut batch_slots: Vec<ColumnBatch> = plan
        .batch_slot_types()
        .iter()
        .map(|&t| ColumnBatch::with_type(t))
        .collect();
    let mut scores = vec![0.0f32; lines.len()];
    plan.execute_batch(&sources, &mut batch_slots, &mut ctx, &mut scores)
        .unwrap();
    let got: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(got, expect, "execute_batch");
}
