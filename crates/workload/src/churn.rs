//! Zipf-driven model-churn workload: deploy / score / undeploy cycles.
//!
//! A production serving runtime (the paper's heavy-traffic scenario, §5.4)
//! lives under constant model churn — new versions deploy, old ones
//! retire, aliases flip — while Zipf-skewed traffic keeps scoring through
//! stable named endpoints. This generator synthesizes exactly that: a set
//! of **model slots** (stable aliases), several **versions** per slot
//! (identical SA-shaped pipelines sharing featurizer dictionaries across
//! slots, with fresh per-version linear weights — the paper's Figure 3
//! sharing structure under churn), and a deterministic event script that
//! cycles every slot through deploy → swap → undeploy while scoring
//! Zipf-chosen aliases in between.
//!
//! `tests/lifecycle.rs` replays the script against a runtime and checks the
//! lifecycle invariants: resident bytes return to baseline after a full
//! cycle, and no alias-addressed request is lost across a swap. The
//! serving benchmark's `churn_mixed` workload measures the same shape of
//! churn from a socket (p99 during churn is its `client.lat_p99_us`).

use crate::load::Zipf;
use crate::text::ReviewGen;
use pretzel_core::flour::FlourContext;
use pretzel_core::train_stats::NodeStats;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use pretzel_ops::text::ngram::NgramParams;
use std::sync::Arc;

/// Churn workload configuration.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Concurrently deployed model slots (stable aliases).
    pub n_slots: usize,
    /// Versions each slot cycles through.
    pub n_versions: usize,
    /// Entries per shared CharNgram dictionary.
    pub char_entries: usize,
    /// Entries per shared WordNgram dictionary.
    pub word_entries: usize,
    /// Vocabulary size (shared with the review generator).
    pub vocab_size: usize,
    /// Score events issued between consecutive lifecycle events.
    pub scores_per_tick: usize,
    /// Zipf exponent of the alias popularity (paper §5.4: α = 2).
    pub zipf_alpha: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_slots: 16,
            n_versions: 4,
            char_entries: 2_000,
            word_entries: 1_000,
            vocab_size: 2_000,
            scores_per_tick: 8,
            zipf_alpha: 2.0,
            seed: 0xc4c4,
        }
    }
}

impl ChurnConfig {
    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        ChurnConfig {
            n_slots: 3,
            n_versions: 2,
            char_entries: 128,
            word_entries: 64,
            vocab_size: 128,
            scores_per_tick: 2,
            ..ChurnConfig::default()
        }
    }
}

/// One step of the churn script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Deploy `slot`'s version `version` (image at
    /// [`ChurnWorkload::image`]) and swap the slot's alias onto it.
    Deploy {
        /// Slot index.
        slot: usize,
        /// Version index within the slot.
        version: usize,
    },
    /// Undeploy the previously live version of `slot` (the one the alias
    /// was swapped away from).
    UndeployPrevious {
        /// Slot index.
        slot: usize,
    },
    /// Score `n` requests against `slot`'s alias.
    Score {
        /// Slot index (Zipf-sampled: slot 0 is most popular).
        slot: usize,
        /// Requests to score.
        n: usize,
    },
}

/// The generated churn workload: per-slot/per-version model images plus
/// the event script.
#[derive(Debug)]
pub struct ChurnWorkload {
    /// `images[slot][version]`: serialized model files.
    pub images: Vec<Vec<Arc<Vec<u8>>>>,
    /// The deterministic event script (one full churn cycle: every slot
    /// visits every version; at the end exactly the last versions remain).
    pub events: Vec<ChurnEvent>,
    /// Pre-generated request lines (cycled by the driver).
    pub lines: Vec<String>,
}

impl ChurnWorkload {
    /// The alias of a slot.
    pub fn alias(slot: usize) -> String {
        format!("model-{slot}")
    }

    /// The model image of `slot` at `version`.
    pub fn image(&self, slot: usize, version: usize) -> &[u8] {
        &self.images[slot][version]
    }
}

/// Builds the churn workload.
pub fn build(config: &ChurnConfig) -> ChurnWorkload {
    let mut reviews = ReviewGen::new(config.seed, config.vocab_size, 1.2);
    let vocab: Vec<String> = reviews.vocab().to_vec();

    // Two trained featurizer versions each, shared across ALL slots and
    // versions (the Figure 3 sharing structure): churn must not free them
    // while any slot still references them, and must free them when the
    // whole catalog empties.
    let cgrams: Vec<Arc<NgramParams>> = (0..2)
        .map(|v| {
            Arc::new(synth::char_ngram(
                config.seed ^ (0xc0 + v as u64),
                3,
                config.char_entries,
            ))
        })
        .collect();
    let wgrams: Vec<Arc<NgramParams>> = (0..2)
        .map(|v| {
            Arc::new(synth::word_ngram(
                config.seed ^ (0xd0 + v as u64),
                2,
                config.word_entries,
                &vocab,
            ))
        })
        .collect();

    let mut images = Vec::with_capacity(config.n_slots);
    for slot in 0..config.n_slots {
        let mut versions = Vec::with_capacity(config.n_versions);
        for version in 0..config.n_versions {
            let cgram = Arc::clone(&cgrams[slot % cgrams.len()]);
            let wgram = Arc::clone(&wgrams[(slot / 2) % wgrams.len()]);
            let dim = cgram.dim() + wgram.dim();
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
            // Fresh weights per (slot, version): the unique-per-pipeline
            // half of the memory that churn must reclaim.
            let lin = Arc::new(synth::linear(
                config.seed ^ (0x1_0000 + (slot * 251 + version) as u64),
                dim,
                LinearKind::Logistic,
            ));
            let graph = c
                .concat(&w)
                .with_stats(NodeStats::new(384, 0.01))
                .classifier_linear(lin)
                .with_stats(NodeStats::new(1, 1.0))
                .graph();
            versions.push(Arc::new(graph.to_model_image()));
        }
        images.push(versions);
    }

    // The event script: version rounds interleaved with Zipf-skewed
    // scoring ticks. Round 0 deploys every slot's v0 (no previous version
    // to retire); later rounds deploy v_k, swap, then retire v_{k-1}.
    let mut zipf = Zipf::new(config.n_slots, config.zipf_alpha, config.seed ^ 0x21bf);
    let mut events = Vec::new();
    for version in 0..config.n_versions {
        for slot in 0..config.n_slots {
            events.push(ChurnEvent::Deploy { slot, version });
            if version > 0 {
                events.push(ChurnEvent::UndeployPrevious { slot });
            }
            events.push(ChurnEvent::Score {
                slot: zipf.sample(),
                n: config.scores_per_tick,
            });
        }
    }
    let lines = reviews.csv_lines(256);
    ChurnWorkload {
        images,
        events,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_core::graph::TransformGraph;

    #[test]
    fn script_shape_is_one_full_cycle() {
        let config = ChurnConfig::tiny();
        let w = build(&config);
        let deploys = w
            .events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Deploy { .. }))
            .count();
        let undeploys = w
            .events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::UndeployPrevious { .. }))
            .count();
        assert_eq!(deploys, config.n_slots * config.n_versions);
        // Every version except each slot's last is retired by the script.
        assert_eq!(undeploys, config.n_slots * (config.n_versions - 1));
        assert!(!w.lines.is_empty());
    }

    #[test]
    fn images_decode_and_share_featurizers_across_slots() {
        let w = build(&ChurnConfig::tiny());
        let g00 = TransformGraph::from_model_image(w.image(0, 0)).unwrap();
        let g01 = TransformGraph::from_model_image(w.image(0, 1)).unwrap();
        let g20 = TransformGraph::from_model_image(w.image(2, 0)).unwrap();
        // Same slot, different version: same featurizers, fresh weights.
        assert_eq!(g00.nodes[2].op.checksum(), g01.nodes[2].op.checksum());
        assert_ne!(g00.nodes[5].op.checksum(), g01.nodes[5].op.checksum());
        // Slots 0 and 2 share the char dictionary (slot % 2).
        assert_eq!(g00.nodes[2].op.checksum(), g20.nodes[2].op.checksum());
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = build(&ChurnConfig::tiny());
        let b = build(&ChurnConfig::tiny());
        assert_eq!(a.events, b.events);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.image(1, 1), b.image(1, 1));
    }
}
