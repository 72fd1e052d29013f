//! The 250 Sentiment Analysis pipeline variants.
//!
//! Figure 3 of the paper shows how the 250 production SA pipelines share
//! operators: Tokenize and Concat "are used with the same parameters in
//! all pipelines; Ngram operators have only a handful of versions, where
//! most pipelines use the same version" — 6 CharNgram and 7 WordNgram
//! trained variants with heavily skewed popularity — while the linear
//! model's weights "are unique to each pipeline". This module reproduces
//! exactly that sharing histogram (scaled dictionary sizes, same shape).

use pretzel_core::flour::FlourContext;
use pretzel_core::graph::TransformGraph;
use pretzel_core::train_stats::NodeStats;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_ops::text::ngram::NgramParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Popularity of the 6 CharNgram versions across 250 pipelines
/// (shape of paper Figure 3; sums to 250).
pub const CHAR_VERSION_COUNTS: [usize; 6] = [7, 9, 9, 85, 86, 54];
/// Popularity of the 7 WordNgram versions across 250 pipelines
/// (shape of paper Figure 3; sums to 250).
pub const WORD_VERSION_COUNTS: [usize; 7] = [85, 8, 18, 7, 86, 40, 6];

/// SA workload configuration.
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Number of pipelines (paper: 250).
    pub n_pipelines: usize,
    /// Entries per CharNgram dictionary (paper: ~1M; scaled default 20k —
    /// all six versions are "large", mirroring the ~59 MB column of Fig 3).
    pub char_entries: usize,
    /// Entries of the small WordNgram versions (Fig 3 shows byte-sized
    /// word dictionaries next to multi-MB ones).
    pub word_entries_small: usize,
    /// Entries of the large WordNgram versions.
    pub word_entries_large: usize,
    /// Shared vocabulary size for word dictionaries and review text. The
    /// per-pipeline linear model's dimension follows from the assigned
    /// dictionaries (char dim + word dim) — unique weights per pipeline,
    /// like the paper's ~15 MB weight vectors.
    pub vocab_size: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            n_pipelines: 250,
            char_entries: 20_000,
            word_entries_small: 200,
            word_entries_large: 5_000,
            vocab_size: 8_000,
            seed: 0xfeed,
        }
    }
}

impl SaConfig {
    /// A small configuration for unit tests and examples.
    pub fn tiny() -> Self {
        SaConfig {
            n_pipelines: 10,
            char_entries: 256,
            word_entries_small: 32,
            word_entries_large: 128,
            vocab_size: 256,
            seed: 0xfeed,
        }
    }
}

/// The generated SA workload: shared featurizer versions plus one graph
/// per pipeline.
#[derive(Debug)]
pub struct SaWorkload {
    /// The 6 trained CharNgram versions (shared across pipelines).
    pub char_versions: Vec<Arc<NgramParams>>,
    /// The 7 trained WordNgram versions.
    pub word_versions: Vec<Arc<NgramParams>>,
    /// Which (char, word) version each pipeline uses.
    pub assignment: Vec<(usize, usize)>,
    /// The pipelines, as transformation graphs.
    pub graphs: Vec<TransformGraph>,
    /// Vocabulary shared with the review generator.
    pub vocab: Vec<String>,
}

/// Builds the SA workload.
pub fn build(config: &SaConfig) -> SaWorkload {
    let vocab = synth::vocabulary(config.seed, config.vocab_size);

    // The trained featurizer versions. Using a fixed seed per version makes
    // "the same version" literally the same parameters, so the Object Store
    // dedup (and the baseline's lack of it) measures what Figure 3 shows.
    let char_versions: Vec<Arc<NgramParams>> = (0..CHAR_VERSION_COUNTS.len())
        .map(|v| {
            Arc::new(synth::char_ngram(
                config.seed ^ (0xc0 + v as u64),
                3,
                config.char_entries,
            ))
        })
        .collect();
    let word_versions: Vec<Arc<NgramParams>> = (0..WORD_VERSION_COUNTS.len())
        .map(|v| {
            // Versions 0, 4, 5 are "large" in Figure 3; the rest are small.
            let entries = if matches!(v, 0 | 4 | 5) {
                config.word_entries_large
            } else {
                config.word_entries_small
            };
            Arc::new(synth::word_ngram(
                config.seed ^ (0xd0 + v as u64),
                2,
                entries,
                &vocab,
            ))
        })
        .collect();

    // Skewed version assignment matching the Figure 3 histogram, shuffled
    // deterministically so version popularity is not index-correlated.
    let mut char_assign = expand_counts(&CHAR_VERSION_COUNTS, config.n_pipelines);
    let mut word_assign = expand_counts(&WORD_VERSION_COUNTS, config.n_pipelines);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa551);
    char_assign.shuffle(&mut rng);
    word_assign.shuffle(&mut rng);

    let mut graphs = Vec::with_capacity(config.n_pipelines);
    let mut assignment = Vec::with_capacity(config.n_pipelines);
    for k in 0..config.n_pipelines {
        let (cv, wv) = (char_assign[k], word_assign[k]);
        assignment.push((cv, wv));
        graphs.push(build_pipeline(
            config,
            k,
            Arc::clone(&char_versions[cv]),
            Arc::clone(&word_versions[wv]),
        ));
    }
    SaWorkload {
        char_versions,
        word_versions,
        assignment,
        graphs,
        vocab,
    }
}

fn expand_counts(counts: &[usize], n: usize) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut out = Vec::with_capacity(n);
    for (version, &count) in counts.iter().enumerate() {
        // Scale the histogram to n pipelines, keeping the shape.
        let scaled = (count * n).div_ceil(total);
        out.extend(std::iter::repeat_n(version, scaled));
    }
    out.truncate(n);
    while out.len() < n {
        out.push(0);
    }
    out
}

fn build_pipeline(
    config: &SaConfig,
    k: usize,
    cgram: Arc<NgramParams>,
    wgram: Arc<NgramParams>,
) -> TransformGraph {
    let char_dim = cgram.dim();
    let word_dim = wgram.dim();
    let ctx = FlourContext::new();
    let tokens = ctx
        .csv(',')
        .select_text(1)
        .with_stats(NodeStats::new(512, 0.0))
        .tokenize()
        .with_stats(NodeStats::new(64, 0.0));
    let c = tokens
        .char_ngram(cgram)
        .with_stats(NodeStats::new(256, 0.01));
    let w = tokens
        .word_ngram(wgram)
        .with_stats(NodeStats::new(128, 0.01));
    // The linear model is unique to each pipeline (paper §2: "some
    // operators like linear regression are unique to each pipeline").
    let lin = Arc::new(synth::linear(
        config.seed ^ (0x1000 + k as u64),
        char_dim + word_dim,
        LinearKind::Logistic,
    ));
    c.concat(&w)
        .with_stats(NodeStats::new(384, 0.01))
        .classifier_linear(lin)
        .with_stats(NodeStats::new(1, 1.0))
        .graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn histogram_counts_sum_to_250() {
        assert_eq!(CHAR_VERSION_COUNTS.iter().sum::<usize>(), 250);
        assert_eq!(WORD_VERSION_COUNTS.iter().sum::<usize>(), 250);
    }

    #[test]
    fn workload_has_expected_sharing_structure() {
        let w = build(&SaConfig::tiny());
        assert_eq!(w.graphs.len(), 10);
        assert_eq!(w.char_versions.len(), 6);
        assert_eq!(w.word_versions.len(), 7);
        // Tokenizer checksum identical across all pipelines.
        let toks: std::collections::HashSet<u64> =
            w.graphs.iter().map(|g| g.nodes[1].op.checksum()).collect();
        assert_eq!(toks.len(), 1, "all pipelines share one Tokenizer");
        // Linear model unique per pipeline.
        let linears: std::collections::HashSet<u64> =
            w.graphs.iter().map(|g| g.nodes[5].op.checksum()).collect();
        assert_eq!(linears.len(), 10);
    }

    #[test]
    fn version_popularity_matches_histogram_shape() {
        let config = SaConfig {
            n_pipelines: 250,
            char_entries: 64,
            word_entries_small: 16,
            word_entries_large: 32,
            vocab_size: 128,
            seed: 1,
        };
        let w = build(&config);
        let mut char_counts: HashMap<usize, usize> = HashMap::new();
        for &(c, _) in &w.assignment {
            *char_counts.entry(c).or_default() += 1;
        }
        for (v, &expect) in CHAR_VERSION_COUNTS.iter().enumerate() {
            let got = char_counts.get(&v).copied().unwrap_or(0);
            assert!(
                got.abs_diff(expect) <= 2,
                "char version {v}: got {got}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn pipelines_sharing_a_version_share_its_checksum() {
        let w = build(&SaConfig::tiny());
        for (k, &(cv, _)) in w.assignment.iter().enumerate() {
            let node_checksum = w.graphs[k].nodes[2].op.checksum();
            let version_checksum = pretzel_core::graph::TransformGraph::from_model_image(
                &w.graphs[k].to_model_image(),
            )
            .unwrap()
            .nodes[2]
                .op
                .checksum();
            assert_eq!(node_checksum, version_checksum);
            // And two pipelines with the same assigned version agree.
            if let Some(other) = w
                .assignment
                .iter()
                .enumerate()
                .find(|(j, &(c, _))| *j != k && c == cv)
            {
                assert_eq!(w.graphs[other.0].nodes[2].op.checksum(), node_checksum);
            }
        }
    }

    #[test]
    fn graphs_validate_and_plan() {
        let w = build(&SaConfig::tiny());
        for g in &w.graphs {
            g.validate_structure().unwrap();
            let plan = pretzel_core::oven::optimize(g).unwrap().plan;
            assert_eq!(plan.stages.len(), 1, "SA plans optimize to 1 stage");
            assert_eq!(plan.slots.len(), 2, "source and score");
        }
    }

    #[test]
    fn expand_counts_scales_shape() {
        let out = expand_counts(&[1, 3], 8);
        assert_eq!(out.len(), 8);
        let ones = out.iter().filter(|&&v| v == 1).count();
        assert!(ones >= 5, "version 1 should dominate: {out:?}");
    }
}
