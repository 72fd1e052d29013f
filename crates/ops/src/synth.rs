//! Deterministic parameter synthesis ("training" substitute).
//!
//! The paper's pipelines are trained on production data we do not have
//! (Amazon reviews for SA, an internal event record for AC). The systems
//! experiments do not depend on model *accuracy* — only on parameter shapes,
//! sizes and sharing structure — so we synthesize parameters from seeds:
//! every function here is a pure function of its seed, which makes
//! workloads reproducible bit-for-bit across runs and machines, and lets
//! the workload generator give *identical* seeds to operators that the
//! paper observes being shared across pipelines (Figure 3).

use crate::bayes::NaiveBayesParams;
use crate::feat::binner::BinnerParams;
use crate::feat::imputer::ImputerParams;
use crate::feat::scaler::ScalerParams;
use crate::kmeans::KMeansParams;
use crate::linear::{LinearKind, LinearParams};
use crate::pca::PcaParams;
use crate::text::ngram::NgramParams;
use crate::tree::{EnsembleMode, EnsembleParams, MulticlassTreeParams, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Generates a pseudo-word of 3–9 lowercase letters.
pub fn word(rng: &mut StdRng) -> String {
    const CONS: &[u8] = b"bcdfghjklmnprstvwz";
    const VOWS: &[u8] = b"aeiou";
    let syllables = rng.gen_range(1..=3);
    let mut w = String::new();
    for _ in 0..syllables {
        w.push(CONS[rng.gen_range(0..CONS.len())] as char);
        w.push(VOWS[rng.gen_range(0..VOWS.len())] as char);
        if rng.gen_bool(0.3) {
            w.push(CONS[rng.gen_range(0..CONS.len())] as char);
        }
    }
    w
}

/// A synthetic vocabulary of `size` distinct pseudo-words.
pub fn vocabulary(seed: u64, size: usize) -> Vec<String> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(size);
    let mut seen = std::collections::HashSet::with_capacity(size);
    while out.len() < size {
        let mut w = word(&mut r);
        // Suffix a digit on collision so the vocabulary always reaches the
        // requested size.
        while !seen.insert(w.clone()) {
            w.push(char::from(b'0' + (out.len() % 10) as u8));
        }
        out.push(w);
    }
    out
}

/// Character n-gram dictionary: `entries` random `n`-letter strings.
pub fn char_ngram(seed: u64, n: u32, entries: usize) -> NgramParams {
    let mut r = rng(seed);
    let mut keys = Vec::with_capacity(entries);
    let mut seen = std::collections::HashSet::with_capacity(entries);
    while keys.len() < entries {
        let k: String = (0..n)
            .map(|_| (b'a' + r.gen_range(0..26u8)) as char)
            .collect();
        if seen.insert(k.clone()) {
            keys.push(k.into_boxed_str());
        }
        if seen.len() >= 26usize.saturating_pow(n) {
            break; // alphabet exhausted for tiny n
        }
    }
    NgramParams::new(n, false, true, keys)
}

/// Word n-gram dictionary over a shared vocabulary: `entries` n-grams of
/// length `1..=n` drawn from `vocab`.
pub fn word_ngram(seed: u64, n: u32, entries: usize, vocab: &[String]) -> NgramParams {
    let mut r = rng(seed);
    let mut keys = Vec::with_capacity(entries);
    let mut seen = std::collections::HashSet::with_capacity(entries);
    while keys.len() < entries && seen.len() < entries * 8 {
        let k = r.gen_range(1..=n) as usize;
        let gram: Vec<&str> = (0..k)
            .map(|_| vocab[r.gen_range(0..vocab.len())].as_str())
            .collect();
        let key = gram.join(" ");
        if seen.insert(key.clone()) {
            keys.push(key.into_boxed_str());
        }
    }
    NgramParams::word(n, true, true, keys)
}

/// Linear model with weights in `[-1, 1] / sqrt(dim)`.
pub fn linear(seed: u64, dim: usize, kind: LinearKind) -> LinearParams {
    let mut r = rng(seed);
    let scale = 1.0 / (dim.max(1) as f32).sqrt();
    let weights = (0..dim).map(|_| r.gen_range(-1.0..1.0) * scale).collect();
    LinearParams::new(kind, weights, r.gen_range(-0.5..0.5))
}

/// Complete binary decision tree of the given depth.
///
/// Nodes are numbered in BFS order so every child index exceeds its
/// parent's — the forward-ordering invariant [`Tree::validate`] requires.
pub fn tree(seed: u64, input_dim: usize, depth: u32) -> Tree {
    let mut r = rng(seed);
    let internal = (1usize << depth) - 1;
    let leaves = 1usize << depth;
    let mut t = Tree {
        features: Vec::with_capacity(internal),
        thresholds: Vec::with_capacity(internal),
        left: Vec::with_capacity(internal),
        right: Vec::with_capacity(internal),
        leaf_values: Vec::with_capacity(leaves),
    };
    if depth == 0 {
        return Tree::leaf(r.gen_range(-1.0..1.0));
    }
    for i in 0..internal {
        t.features.push(r.gen_range(0..input_dim as u32));
        t.thresholds.push(r.gen_range(-1.0..1.0));
        let (l, rr) = (2 * i + 1, 2 * i + 2);
        t.left.push(if l < internal {
            l as i32
        } else {
            !((l - internal) as i32)
        });
        t.right.push(if rr < internal {
            rr as i32
        } else {
            !((rr - internal) as i32)
        });
    }
    for _ in 0..leaves {
        t.leaf_values.push(r.gen_range(-1.0..1.0));
    }
    t
}

/// Tree ensemble of `n_trees` trees of the given depth.
pub fn ensemble(
    seed: u64,
    input_dim: usize,
    n_trees: usize,
    depth: u32,
    mode: EnsembleMode,
) -> EnsembleParams {
    let mut r = rng(seed);
    let trees = (0..n_trees)
        .map(|i| tree(seed.wrapping_add(i as u64 + 1), input_dim, depth))
        .collect();
    let weights = (0..n_trees).map(|_| r.gen_range(0.1..1.0)).collect();
    EnsembleParams::new(trees, weights, mode, input_dim as u32)
        .expect("synthesized ensemble is structurally valid")
}

/// One-vs-all multiclass classifier.
pub fn multiclass(
    seed: u64,
    input_dim: usize,
    classes: usize,
    trees_per_class: usize,
    depth: u32,
) -> MulticlassTreeParams {
    let per_class = (0..classes)
        .map(|c| {
            ensemble(
                seed.wrapping_add(0x1000 * (c as u64 + 1)),
                input_dim,
                trees_per_class,
                depth,
                EnsembleMode::Sum,
            )
        })
        .collect();
    MulticlassTreeParams::new(per_class).expect("synthesized multiclass is valid")
}

/// K-Means model with centroids in `[-1, 1]^dim`.
pub fn kmeans(seed: u64, k: usize, dim: usize) -> KMeansParams {
    let mut r = rng(seed);
    let centroids = (0..k * dim).map(|_| r.gen_range(-1.0..1.0)).collect();
    KMeansParams::new(centroids, k as u32, dim as u32).expect("synthesized kmeans is valid")
}

/// PCA projector with random orthogonal-ish components.
pub fn pca(seed: u64, m: usize, dim: usize) -> PcaParams {
    let mut r = rng(seed);
    let mean = (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect();
    let scale = 1.0 / (dim as f32).sqrt();
    let components = (0..m * dim)
        .map(|_| r.gen_range(-1.0..1.0) * scale)
        .collect();
    PcaParams::new(mean, components, m as u32, dim as u32).expect("synthesized pca is valid")
}

/// Standardizing scaler.
pub fn scaler(seed: u64, dim: usize) -> ScalerParams {
    let mut r = rng(seed);
    let offset = (0..dim).map(|_| r.gen_range(-2.0..2.0)).collect();
    let scale = (0..dim).map(|_| r.gen_range(0.2..2.0)).collect();
    ScalerParams::new(offset, scale)
}

/// Mean imputer.
pub fn imputer(seed: u64, dim: usize) -> ImputerParams {
    let mut r = rng(seed);
    ImputerParams::new((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect())
}

/// Quantile binner with `bins` bins per dimension.
pub fn binner(seed: u64, dim: usize, bins: usize) -> BinnerParams {
    let mut r = rng(seed);
    let bounds = (0..dim)
        .map(|_| {
            let mut b: Vec<f32> = (0..bins - 1).map(|_| r.gen_range(-2.0..2.0)).collect();
            b.sort_by(f32::total_cmp);
            b
        })
        .collect();
    BinnerParams::new(bounds)
}

/// Multinomial naive Bayes over `dim` features.
pub fn naive_bayes(seed: u64, classes: usize, dim: usize) -> NaiveBayesParams {
    let mut r = rng(seed);
    let log_prior = (0..classes).map(|_| r.gen_range(-3.0..0.0f32)).collect();
    let log_lik = (0..classes * dim)
        .map(|_| r.gen_range(-8.0..0.0f32))
        .collect();
    NaiveBayesParams::new(log_prior, log_lik, dim as u32).expect("synthesized NB is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamBlob;

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(
            linear(7, 32, LinearKind::Logistic),
            linear(7, 32, LinearKind::Logistic)
        );
        assert_eq!(char_ngram(3, 3, 100), char_ngram(3, 3, 100));
        let v = vocabulary(1, 50);
        assert_eq!(word_ngram(9, 2, 40, &v), word_ngram(9, 2, 40, &v));
        assert_eq!(kmeans(5, 4, 8), kmeans(5, 4, 8));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            linear(1, 32, LinearKind::Logistic).checksum(),
            linear(2, 32, LinearKind::Logistic).checksum()
        );
    }

    #[test]
    fn vocabulary_is_distinct_and_sized() {
        let v = vocabulary(42, 500);
        assert_eq!(v.len(), 500);
        let set: std::collections::HashSet<_> = v.iter().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn char_dict_reaches_requested_size() {
        let p = char_ngram(11, 3, 1000);
        assert_eq!(p.dim(), 1000);
    }

    #[test]
    fn tiny_alphabet_saturates_gracefully() {
        // 26 possible 1-grams; asking for more must not loop forever.
        let p = char_ngram(11, 1, 100);
        assert!(p.dim() <= 26);
    }

    #[test]
    fn synthesized_trees_validate() {
        for depth in 0..6 {
            let t = tree(depth as u64, 16, depth);
            t.validate(16).unwrap();
            assert_eq!(t.leaves(), 1usize << depth);
        }
    }

    #[test]
    fn ensemble_and_multiclass_are_usable() {
        use pretzel_data::{ColumnType, Vector};
        let e = ensemble(3, 8, 5, 3, EnsembleMode::Average);
        let mut out = Vector::Scalar(0.0);
        e.apply(&Vector::Dense(vec![0.1; 8]), &mut out).unwrap();
        let mc = multiclass(4, 8, 3, 2, 2);
        let mut scores = Vector::with_type(ColumnType::F32Dense { len: 3 });
        mc.apply(&Vector::Dense(vec![0.1; 8]), &mut scores).unwrap();
        assert_eq!(scores.as_dense().unwrap().len(), 3);
    }

    #[test]
    fn binner_bounds_are_sorted() {
        let b = binner(6, 4, 8);
        for bs in &b.bounds {
            assert!(bs.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
