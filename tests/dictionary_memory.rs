//! Memory of a decoded n-gram dictionary: the gate on what a dictionary
//! keeps resident.
//!
//! The SA dictionaries are the parameters the Object Store shares (paper
//! Table 1, Figure 3), so what one keeps beside what its kernel reads is
//! paid once per unique dictionary in every deployment. This binary
//! decodes a churn-scale character section (all 17 576 lowercase
//! trigrams, window-indexed) and an SA-scale word section from a model
//! image and holds each decoded dictionary's live heap to the bytes of its
//! parts: key bytes, one `u32` end offset per key, the window table's
//! cells, and the probe table only where a kernel probes it (the word
//! dictionary). A hostile key count in a section must not reserve past
//! the section's bytes either. It installs the counting allocator and
//! holds one test on purpose: tests of one binary run on parallel threads
//! and would count each other's allocations (see `tests/memory_budget.rs`).

use pretzel_data::alloc_meter::{self, CountingAlloc};
use pretzel_data::probe::FlatProbeTable;
use pretzel_data::serde_bin::{read_model_file, wire, ModelFileWriter, Section};
use pretzel_ops::params::ParamBlob;
use pretzel_ops::synth;
use pretzel_ops::text::ngram::NgramParams;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Every lowercase trigram: the saturated dictionary of `churn_mixed`.
const CHURN_CHAR_ENTRIES: usize = 26 * 26 * 26;

/// The window table of a lowercase trigram dictionary: 26 letters and the
/// no-key class make base 27, so 27^3 cells, two bytes each below 65 535
/// entries.
const CHURN_CELL_BYTES: usize = 27 * 27 * 27 * 2;

/// SA's large word dictionary and its shared vocabulary.
const SA_WORD_ENTRIES: usize = 5_000;
const SA_VOCAB: usize = 8_000;

/// Slack over each budget: a dictionary holds its parts exactly (the
/// arena and the cells are sized once), so this only absorbs a layout
/// change of a few small boxes. One `Box<str>` per key (≥ 16 B more per
/// key) or a probe table behind the window table (≈ 1.1 MiB at churn
/// scale) breaks it.
const SLACK: usize = 1 << 10;

/// Room for the error a refused section returns: its message.
const ERROR_BYTES: usize = 256;

/// An image of two sections, decoded back: the character dictionary's and
/// the word dictionary's.
fn sections(chars: &NgramParams, words: &NgramParams) -> Vec<Section> {
    let mut image = ModelFileWriter::new();
    image.add_section("op0.CharNgram", chars.to_entries());
    image.add_section("op1.WordNgram", words.to_entries());
    read_model_file(&image.finish()).unwrap()
}

/// Runs `decode` and returns its result with the live heap it left behind
/// and the peak it reached, both over the heap before it ran.
fn measured<T>(decode: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = alloc_meter::live_bytes();
    alloc_meter::reset_peak();
    let out = decode();
    let live = alloc_meter::live_bytes() - before;
    (out, live, alloc_meter::peak_bytes() - before)
}

/// Key bytes and one `u32` end offset per key.
fn key_bytes(p: &NgramParams) -> usize {
    p.dict.keys().iter().map(|k| k.len()).sum::<usize>() + 4 * p.dim()
}

#[test]
fn decoded_dictionaries_hold_their_keys_compactly_and_only_the_index_they_read() {
    let chars = synth::char_ngram(0xc0, 3, 20_000);
    assert_eq!(chars.dim(), CHURN_CHAR_ENTRIES);
    let vocab = synth::vocabulary(0xfeed, SA_VOCAB);
    let words = synth::word_ngram(0xd0, 2, SA_WORD_ENTRIES, &vocab);
    let sections = sections(&chars, &words);

    let (decoded, live, _) = measured(|| NgramParams::from_entries(&sections[0]).unwrap());
    assert!(decoded.is_window_indexed());
    assert_eq!(decoded, chars);
    let budget = key_bytes(&decoded) + CHURN_CELL_BYTES;
    assert!(
        live <= budget + SLACK,
        "a churn-scale character dictionary holds {live} B live, budget {budget} B \
         (keys and offsets + window cells) + {SLACK} B"
    );
    assert_eq!(
        decoded.heap_bytes(),
        live,
        "heap_bytes counts what it holds"
    );
    drop(decoded);

    let (decoded, live, _) = measured(|| NgramParams::word_from_entries(&sections[1]).unwrap());
    assert!(!decoded.is_window_indexed());
    assert_eq!(decoded, words);
    let table = FlatProbeTable::with_capacity(decoded.dim()).heap_bytes();
    let budget = key_bytes(&decoded) + table;
    assert!(
        live <= budget + SLACK,
        "an SA word dictionary holds {live} B live, budget {budget} B \
         (keys and offsets + probe table) + {SLACK} B"
    );
    assert_eq!(
        decoded.heap_bytes(),
        live,
        "heap_bytes counts what it holds"
    );
    drop(decoded);

    // A count prefix of 2^32 − 1 keys in front of one: refused, and
    // nothing reserved past the section's own bytes beside the error.
    let mut hostile = sections[0].clone();
    let mut dictionary = Vec::new();
    wire::put_u32(&mut dictionary, u32::MAX);
    wire::put_str(&mut dictionary, "abc");
    let section_bytes = dictionary.len();
    hostile
        .entries
        .iter_mut()
        .find(|(name, _)| name == "dictionary")
        .unwrap()
        .1 = dictionary;
    let (result, _, peak) = measured(|| NgramParams::from_entries(&hostile).map(|_| ()));
    assert!(result.is_err());
    assert!(
        peak <= section_bytes + ERROR_BYTES,
        "a hostile key count raised the heap by {peak} B, the section holds {section_bytes} B"
    );
}
