//! The four workloads and their seeded inputs.
//!
//! The deployed models are the *system configuration* and come from a fixed
//! seed; everything the program is asked to score — the text and dense input
//! pools and the request schedule — comes from `--seed`. Varying the models
//! with the seed would move per-request cost (which dictionary the most
//! popular plan got) without telling anything about the program.

use pretzel_core::frontend::PredictRequest;
use pretzel_core::runtime::PlanId;
use pretzel_data::hash::splitmix64;
use pretzel_ops::synth;
use pretzel_ops::text::ngram::NgramParams;
use pretzel_workload::ac::{self, AcConfig};
use pretzel_workload::churn::{self, ChurnConfig, ChurnWorkload};
use pretzel_workload::load::Zipf;
use pretzel_workload::sa::{self, SaConfig};
use pretzel_workload::text::StructuredGen;
use std::sync::Arc;

/// Seed of every deployed model (fixed: see the module comment).
const MODEL_SEED: u64 = 0xfeed;
/// Rows in the cyclic request schedule.
pub const SCHEDULE_ROWS: usize = 65_536;
/// Distinct inputs the schedule draws from.
pub const POOL_ROWS: usize = 4_096;
/// Rows per request on the two batch workloads (4 chunks at the default
/// `chunk_size` of 64).
pub const BATCH_ROWS: usize = 256;
/// Dense input width (paper Table 1: AC has 40 dimensions).
pub const DENSE_DIM: usize = 40;
/// Zipf exponent of plan popularity. The paper's §5.4 uses α = 2, where one
/// plan takes 61 % of requests and its parameters never leave L2; α = 1
/// keeps the multi-model working set the white-box design is about.
const ZIPF_ALPHA: f64 = 1.0;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SaSingle,
    SaBatch,
    AcDenseBatch,
    ChurnMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SaSingle,
        Workload::SaBatch,
        Workload::AcDenseBatch,
        Workload::ChurnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SaSingle => "sa_single",
            Workload::SaBatch => "sa_batch",
            Workload::AcDenseBatch => "ac_dense_batch",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight by the closed-loop driver. Not 1: below
    /// saturation the server threads sleep between requests and the
    /// sandbox's vCPU wake-up latency, not the code, sets the number. Deep
    /// enough that the bottleneck thread always has work queued: on a quiet
    /// host the median segment reaches 90 % of the best one at 64 / 8, against
    /// 80 % at 16 / 2, and the sleeps per row halve.
    pub fn window(self) -> usize {
        match self {
            Workload::SaSingle | Workload::ChurnMixed => 64,
            Workload::SaBatch | Workload::AcDenseBatch => 8,
        }
    }

    pub fn rows_per_request(self) -> usize {
        match self {
            Workload::SaSingle | Workload::ChurnMixed => 1,
            Workload::SaBatch | Workload::AcDenseBatch => BATCH_ROWS,
        }
    }

    pub fn is_text(self) -> bool {
        self != Workload::AcDenseBatch
    }

    /// Completions per segment of a windowed phase: 50-100 ms of work on
    /// the single-row workloads, 40-110 ms on the batch ones. Short, because
    /// the host's interference comes in bursts and only a short segment has
    /// a chance of being clean; counted in completions, so every segment has
    /// the same sample count and the same number of lifecycle cycles.
    pub fn requests_per_segment(self) -> usize {
        match self {
            Workload::SaSingle | Workload::ChurnMixed => 8192,
            Workload::SaBatch | Workload::AcDenseBatch => 256,
        }
    }

    /// Completions between two lifecycle cycles inside the windowed phases
    /// (`churn_mixed` only; the steady workloads have no writes there). The
    /// write:read ratio is fixed by work, not by time, so the mix is the
    /// same run to run.
    pub fn requests_per_cycle(self) -> Option<usize> {
        (self == Workload::ChurnMixed).then_some(1024)
    }
}

/// A counter-mode SplitMix64 stream: all the randomness the schedule needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the requests address and carry.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    /// `images[target][version]`: serialized model files. The three steady
    /// workloads have one version per target; `churn_mixed` has four.
    pub images: Vec<Vec<Arc<Vec<u8>>>>,
    /// Text input pool (`rating,review` lines); empty on `ac_dense_batch`.
    pub lines: Vec<String>,
    /// Dense input pool; empty on the text workloads.
    pub dense: Vec<Vec<f32>>,
    /// Target (plan or alias slot) of each request in the cycle.
    pub targets: Vec<u16>,
    /// Pool index of each of the [`SCHEDULE_ROWS`] rows; request `r` carries
    /// rows `r * rows_per_request ..`.
    pub rows: Vec<u16>,
    /// A live SA char-n-gram dictionary for the kernel rungs of the ladder
    /// (`None` on `ac_dense_batch`).
    pub char_dict: Option<Arc<NgramParams>>,
}

impl Inputs {
    pub fn n_requests(&self) -> usize {
        self.targets.len()
    }

    pub fn n_versions(&self) -> usize {
        self.images[0].len()
    }

    /// The pool indices request `r` carries.
    pub fn request_rows(&self, r: usize) -> &[u16] {
        let n = self.workload.rows_per_request();
        &self.rows[r * n..(r + 1) * n]
    }

    /// The alias a `churn_mixed` request addresses.
    pub fn alias(slot: usize) -> String {
        ChurnWorkload::alias(slot)
    }

    /// Builds the wire request of every schedule entry once, so the measured
    /// loop only encodes and sends. `plan_ids[target]` is the plan deployed
    /// for each target (ignored on `churn_mixed`, which addresses aliases).
    pub fn requests(&self, plan_ids: &[PlanId]) -> Vec<PredictRequest> {
        (0..self.n_requests())
            .map(|r| {
                let rows = self.request_rows(r);
                let request = if self.workload.is_text() {
                    PredictRequest::text_batch(
                        rows.iter().map(|&i| self.lines[i as usize].as_str()),
                    )
                } else {
                    PredictRequest::dense_batch(
                        rows.iter().map(|&i| self.dense[i as usize].clone()),
                    )
                };
                let target = self.targets[r] as usize;
                if self.workload == Workload::ChurnMixed {
                    request.alias(Inputs::alias(target))
                } else {
                    request.plan(plan_ids[target])
                }
            })
            .collect()
    }
}

/// One `rating,review` line of `min..=max` words drawn Zipf(1.2) from the
/// vocabulary the SA dictionaries were built over, so probes hit at a
/// realistic rate. (`pretzel_workload::text::ReviewGen` ties its text stream
/// to its vocabulary seed, so it cannot vary the text under fixed models.)
fn review_line(rng: &mut Rng, vocab: &[String], cdf: &[f64], min: usize, max: usize) -> String {
    let words = min + rng.below(max - min + 1);
    let mut line = format!("{},", 1 + rng.below(5));
    for w in 0..words {
        if w > 0 {
            line.push(' ');
        }
        let u = rng.unit();
        let idx = cdf.partition_point(|&c| c < u).min(vocab.len() - 1);
        line.push_str(&vocab[idx]);
    }
    line
}

fn review_pool(seed: u64, vocab: &[String]) -> Vec<String> {
    let mut cdf = Vec::with_capacity(vocab.len());
    let mut total = 0.0;
    for i in 1..=vocab.len() {
        total += 1.0 / (i as f64).powf(1.2);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    let mut rng = Rng::new(seed ^ 0x7e87);
    (0..POOL_ROWS)
        .map(|_| review_line(&mut rng, vocab, &cdf, 8, 40))
        .collect()
}

/// The SA models at scale 0.25 of the workload crate's defaults.
fn sa_config() -> SaConfig {
    SaConfig {
        n_pipelines: 250,
        char_entries: 5_000,
        word_entries_small: 50,
        word_entries_large: 1_250,
        vocab_size: 2_000,
        seed: MODEL_SEED,
    }
}

fn churn_config() -> ChurnConfig {
    ChurnConfig {
        n_slots: 32,
        n_versions: 4,
        char_entries: 20_000,
        word_entries: 5_000,
        vocab_size: 8_000,
        seed: MODEL_SEED,
        ..ChurnConfig::default()
    }
}

/// Generates the models (fixed) and the traffic (from `seed`) of a workload.
pub fn build(workload: Workload, seed: u64) -> Inputs {
    let (images, lines, dense, char_dict) = match workload {
        Workload::SaSingle | Workload::SaBatch => {
            let sa = sa::build(&sa_config());
            let images = sa
                .graphs
                .iter()
                .map(|g| vec![Arc::new(g.to_model_image())])
                .collect();
            // Char version 4 is the most popular one (86 of 250 plans).
            let dict = Arc::clone(&sa.char_versions[4]);
            (images, review_pool(seed, &sa.vocab), Vec::new(), Some(dict))
        }
        Workload::AcDenseBatch => {
            let ac = ac::build(&AcConfig {
                n_pipelines: 250,
                input_dim: DENSE_DIM,
                dense_input: true,
                seed: MODEL_SEED,
            });
            let images = ac
                .graphs
                .iter()
                .map(|g| vec![Arc::new(g.to_model_image())])
                .collect();
            let dense = StructuredGen::new(seed ^ 0xde25e, DENSE_DIM).records(POOL_ROWS);
            (images, Vec::new(), dense, None)
        }
        Workload::ChurnMixed => {
            let config = churn_config();
            let vocab = synth::vocabulary(config.seed, config.vocab_size);
            // The same dictionary `churn::build` gives every even slot.
            let dict = Arc::new(synth::char_ngram(
                config.seed ^ 0xc0,
                3,
                config.char_entries,
            ));
            let images = churn::build(&config).images;
            (images, review_pool(seed, &vocab), Vec::new(), Some(dict))
        }
    };
    let n_requests = SCHEDULE_ROWS / workload.rows_per_request();
    let mut zipf = Zipf::new(images.len(), ZIPF_ALPHA, seed ^ 0x21bf);
    let targets = (0..n_requests).map(|_| zipf.sample() as u16).collect();
    let mut rng = Rng::new(seed ^ 0x5c4ed);
    let rows = (0..SCHEDULE_ROWS)
        .map(|_| rng.below(POOL_ROWS) as u16)
        .collect();
    Inputs {
        workload,
        images,
        lines,
        dense,
        targets,
        rows,
        char_dict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traffic half of [`build`], without synthesizing 250 models.
    fn traffic(seed: u64) -> (Vec<String>, Vec<u16>) {
        let vocab = synth::vocabulary(MODEL_SEED, 200);
        let mut rng = Rng::new(seed ^ 0x5c4ed);
        let rows = (0..1024).map(|_| rng.below(POOL_ROWS) as u16).collect();
        (review_pool(seed, &vocab), rows)
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let (lines_a, rows_a) = traffic(7);
        let (lines_b, rows_b) = traffic(7);
        let (lines_c, rows_c) = traffic(8);
        assert_eq!(lines_a, lines_b);
        assert_eq!(rows_a, rows_b);
        assert_ne!(lines_a, lines_c);
        assert_ne!(rows_a, rows_c);
    }

    #[test]
    fn review_lines_have_a_rating_and_8_to_40_words() {
        let (lines, _) = traffic(3);
        assert_eq!(lines.len(), POOL_ROWS);
        for line in &lines {
            let (rating, review) = line.split_once(',').expect("rating,review");
            assert!(("1"..="5").contains(&rating));
            let words = review.split(' ').count();
            assert!((8..=40).contains(&words), "{words} words");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
