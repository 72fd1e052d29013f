//! The Object Store: parameter dedup.
//!
//! "Since many DAGs have similar structures, sharing operators' state
//! (parameters) can considerably improve memory footprint... The Object
//! Store is populated off-line: when a Flour program is submitted for
//! planning, new parameters are kept in the Object Store, while parameters
//! that already exist are ignored and the stage information is rewritten to
//! reuse the previously loaded one. Parameters equality is computed by
//! looking at the checksum of the serialized version of the objects"
//! (paper §4.1.3).
//!
//! That checksum is taken at most once per parameter object and memoised
//! on it ([`pretzel_ops::params::ParamBlob::checksum`]); an object decoded
//! from a model image is seeded with the section checksum `read_model_file`
//! verified and never serialised at all. Every key this store computes —
//! [`ObjectStore::intern`], [`ObjectStore::retain_plan`] /
//! [`ObjectStore::release_plan`], [`ObjectStore::release_unreferenced`] —
//! is therefore a memo read, so a deploy or undeploy touching resident
//! parameters costs nothing proportional to their size.
//!
//! **Lifecycle GC:** the store is *ref-counted per plan*. Registration
//! calls [`ObjectStore::retain_plan`] (one reference per unique parameter
//! checksum a plan shares), undeploy calls [`ObjectStore::release_plan`],
//! and parameters whose count hits zero are freed on the spot — so
//! [`ObjectStore::unique_bytes`] returns to baseline after a full
//! deploy→undeploy churn cycle instead of growing monotonically. The
//! counting discipline mirrors the constant-time concurrent alloc/free of
//! Blelloch & Wei (arXiv:2008.04296): acquisition and release are both a
//! single locked counter update, independent of how many plans share the
//! object.
//!
//! **One lock:** only the control plane touches the store — deploy,
//! undeploy, image decode and `STATS` — never a request, so the parameter
//! map sits behind one mutex, and an intern is one lookup-or-insert under
//! it.

use crate::plan::StagePlan;
use parking_lot::Mutex;
use pretzel_ops::Op;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// One resident parameter object plus its plan refcount.
#[derive(Debug)]
struct StoreEntry {
    op: Op,
    /// How many *deployed plans* reference this checksum (one per plan,
    /// however many steps reuse it). Entries interned ahead of retention
    /// (image loading, ad-hoc compiles) sit at zero until a registration
    /// retains them — or until [`ObjectStore::sweep_unreferenced`] reaps
    /// them after a failed deploy.
    plan_refs: u64,
}

/// Checksum-keyed store of shared operator parameters.
#[derive(Debug, Default)]
pub struct ObjectStore {
    ops: Mutex<HashMap<u64, StoreEntry>>,
    interned: AtomicU64,
    reused: AtomicU64,
    bytes_saved: AtomicU64,
    released: AtomicU64,
    released_bytes: AtomicU64,
}

/// The unique `(checksum, op)` parameter set of a plan, through
/// [`crate::plan::StageOp::for_each_param`] — the walk that visits what
/// [`crate::physical::intern_plan`] interned, so retain/release touch
/// exactly the checksums registration interned.
fn plan_param_set(plan: &StagePlan) -> Vec<(u64, Op)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for stage in &plan.stages {
        for step in &stage.steps {
            step.op.for_each_param(|op| {
                let sum = op.checksum();
                if seen.insert(sum) {
                    out.push((sum, op));
                }
            });
        }
    }
    out
}

/// The parameter references one plan holds: the checksum of every unique
/// parameter object [`ObjectStore::retain_plan`] counted for it.
#[derive(Debug, Default)]
#[must_use = "retained references are freed only through `ObjectStore::release_plan`"]
pub struct PlanRefs(Box<[u64]>);

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Interns an operator: returns the canonical shared instance.
    ///
    /// If an operator with the same parameter checksum was interned before,
    /// its clone (sharing the `Arc`ed parameters) is returned and the
    /// duplicate's parameters become garbage; otherwise `op` itself becomes
    /// the canonical instance.
    pub fn intern(&self, op: Op) -> Op {
        let key = op.checksum();
        let mut ops = self.ops.lock();
        match ops.entry(key) {
            // Re-interning the canonical instance itself is a no-op (and
            // must not inflate the dedup counters).
            Entry::Occupied(e) if e.get().op.params_addr() == op.params_addr() => op,
            Entry::Occupied(e) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                self.bytes_saved
                    .fetch_add(op.heap_bytes() as u64, Ordering::Relaxed);
                e.get().op.clone()
            }
            Entry::Vacant(v) => {
                self.interned.fetch_add(1, Ordering::Relaxed);
                v.insert(StoreEntry {
                    op: op.clone(),
                    plan_refs: 0,
                });
                op
            }
        }
    }

    /// Records one deployed plan's reference on every unique parameter
    /// object it shares (call once per registration, after interning) and
    /// returns what [`Self::release_plan`] needs to take them back, so the
    /// caller need not keep the logical plan.
    ///
    /// An entry missing from the store (swept between intern and retain by
    /// a concurrent failed deploy) is re-inserted from the plan's own
    /// canonical instance, so retention never loses parameters.
    pub fn retain_plan(&self, plan: &StagePlan) -> PlanRefs {
        let params = plan_param_set(plan);
        let sums = params.iter().map(|&(sum, _)| sum).collect();
        let mut ops = self.ops.lock();
        for (sum, op) in params {
            ops.entry(sum)
                .or_insert(StoreEntry { op, plan_refs: 0 })
                .plan_refs += 1;
        }
        PlanRefs(sums)
    }

    /// Releases one plan's references; parameters whose count hits zero are
    /// freed immediately. Returns `(objects freed, heap bytes freed)` — the
    /// reclamation half of `undeploy`.
    pub fn release_plan(&self, refs: &PlanRefs) -> (usize, usize) {
        let mut freed = 0usize;
        let mut freed_bytes = 0usize;
        let mut ops = self.ops.lock();
        for &sum in refs.0.iter() {
            let Some(entry) = ops.get_mut(&sum) else {
                continue;
            };
            entry.plan_refs = entry.plan_refs.saturating_sub(1);
            if entry.plan_refs == 0 {
                freed_bytes += entry.op.heap_bytes();
                freed += 1;
                ops.remove(&sum);
            }
        }
        self.released.fetch_add(freed as u64, Ordering::Relaxed);
        self.released_bytes
            .fetch_add(freed_bytes as u64, Ordering::Relaxed);
        (freed, freed_bytes)
    }

    /// Drops the given checksums if (still) unreferenced — the targeted
    /// cleanup a successful deploy runs over its image's operators, so
    /// parameters the optimizer compiled away (e.g. a pushed-down Concat)
    /// do not linger as zero-ref residents. Returns the heap bytes freed.
    pub fn release_unreferenced(&self, checksums: impl IntoIterator<Item = u64>) -> usize {
        let mut freed_bytes = 0usize;
        let mut freed = 0u64;
        let mut ops = self.ops.lock();
        for sum in checksums {
            if let Some(entry) = ops.get(&sum) {
                if entry.plan_refs == 0 {
                    freed_bytes += entry.op.heap_bytes();
                    freed += 1;
                    ops.remove(&sum);
                }
            }
        }
        self.released.fetch_add(freed, Ordering::Relaxed);
        self.released_bytes
            .fetch_add(freed_bytes as u64, Ordering::Relaxed);
        freed_bytes
    }

    /// Drops every entry no deployed plan references (the cleanup pass a
    /// failed deploy runs so half-loaded images do not pin parameters).
    /// Returns the heap bytes freed.
    pub fn sweep_unreferenced(&self) -> usize {
        let mut freed_bytes = 0usize;
        let mut freed = 0u64;
        self.ops.lock().retain(|_, entry| {
            if entry.plan_refs == 0 {
                freed_bytes += entry.op.heap_bytes();
                freed += 1;
                false
            } else {
                true
            }
        });
        self.released.fetch_add(freed, Ordering::Relaxed);
        self.released_bytes
            .fetch_add(freed_bytes as u64, Ordering::Relaxed);
        freed_bytes
    }

    /// Plan refcount of a checksum (0 when absent or never retained).
    pub fn plan_refs(&self, checksum: u64) -> u64 {
        self.ops
            .lock()
            .get(&checksum)
            .map_or(0, |entry| entry.plan_refs)
    }

    /// Parameter objects freed by release paths so far.
    pub fn release_count(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
    }

    /// Parameter heap bytes freed by release paths so far.
    pub fn released_bytes(&self) -> u64 {
        self.released_bytes.load(Ordering::Relaxed)
    }

    /// Looks up the canonical operator for a parameter checksum, if loaded.
    ///
    /// Loaders use this to skip deserializing model-file sections whose
    /// parameters are already resident (the fast-load path of §5.1).
    pub fn get(&self, checksum: u64) -> Option<Op> {
        let hit = self.ops.lock().get(&checksum).map(|e| e.op.clone());
        if let Some(op) = &hit {
            self.reused.fetch_add(1, Ordering::Relaxed);
            // The caller was about to deserialize a private copy of these
            // parameters; the canonical object's size approximates it.
            self.bytes_saved
                .fetch_add(op.heap_bytes() as u64, Ordering::Relaxed);
        }
        hit
    }

    /// Number of unique parameter objects stored.
    pub fn len(&self) -> usize {
        self.ops.lock().len()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ops.lock().is_empty()
    }

    /// Total heap bytes of the unique parameter objects.
    pub fn unique_bytes(&self) -> usize {
        self.ops.lock().values().map(|e| e.op.heap_bytes()).sum()
    }

    /// Heap bytes avoided by returning shared instances.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved.load(Ordering::Relaxed)
    }

    /// Count of intern calls that found an existing object.
    pub fn reuse_count(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_ops::synth;
    use pretzel_ops::text::tokenizer::TokenizerParams;
    use std::sync::Arc;

    #[test]
    fn intern_shares_identical_params() {
        let store = ObjectStore::new();
        let a = Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct()));
        let b = Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct()));
        assert_ne!(a.params_addr(), b.params_addr(), "distinct allocations");
        let a = store.intern(a);
        let b = store.intern(b);
        assert_eq!(a.params_addr(), b.params_addr(), "interned to one object");
        assert_eq!(store.len(), 1);
        assert_eq!(store.reuse_count(), 1);
    }

    #[test]
    fn intern_keeps_distinct_params_distinct() {
        let store = ObjectStore::new();
        let a = store.intern(Op::CharNgram(Arc::new(synth::char_ngram(1, 3, 50))));
        let b = store.intern(Op::CharNgram(Arc::new(synth::char_ngram(2, 3, 50))));
        assert_ne!(a.params_addr(), b.params_addr());
        assert_eq!(store.len(), 2);
        assert_eq!(store.reuse_count(), 0);
    }

    #[test]
    fn bytes_saved_accumulates() {
        let store = ObjectStore::new();
        let dict = Arc::new(synth::char_ngram(7, 3, 200));
        let bytes = Op::CharNgram(Arc::clone(&dict)).heap_bytes();
        store.intern(Op::CharNgram(Arc::clone(&dict)));
        for _ in 0..3 {
            store.intern(Op::CharNgram(Arc::new(synth::char_ngram(7, 3, 200))));
        }
        assert_eq!(store.bytes_saved(), 3 * bytes as u64);
        assert_eq!(store.unique_bytes(), bytes);
    }

    #[test]
    fn retain_release_frees_at_zero_refs() {
        use crate::plan::{BufDef, Loc, LogicalStage, StageOp, Step};
        use pretzel_data::ColumnType;
        use pretzel_ops::linear::LinearKind;

        let shared = Arc::new(synth::char_ngram(1, 3, 64));
        let plan_with_linear = |seed: u64| {
            let lin = Arc::new(synth::linear(seed, 64, LinearKind::Logistic));
            StagePlan {
                source_type: ColumnType::Text,
                slots: vec![
                    BufDef::new(ColumnType::Text, 64),
                    BufDef::new(ColumnType::F32Sparse { len: 64 }, 16),
                    BufDef::new(ColumnType::F32Scalar, 1),
                ],
                stages: vec![LogicalStage {
                    steps: vec![
                        Step {
                            op: StageOp::Op(Op::CharNgram(Arc::clone(&shared))),
                            inputs: vec![Loc::Slot(0)],
                            output: Loc::Slot(1),
                        },
                        Step {
                            op: StageOp::Op(Op::Linear(lin)),
                            inputs: vec![Loc::Slot(1)],
                            output: Loc::Slot(2),
                        },
                    ],
                    scratch: vec![],
                    reads: vec![0],
                    writes: vec![1, 2],
                    dense: false,
                    vectorizable: false,
                }],
                output_slot: 2,
                stats: crate::train_stats::NodeStats::default(),
            }
        };
        let store = ObjectStore::new();
        let mut a = plan_with_linear(1);
        let mut b = plan_with_linear(2);
        crate::physical::intern_plan(&mut a, &store);
        let refs_a = store.retain_plan(&a);
        crate::physical::intern_plan(&mut b, &store);
        let refs_b = store.retain_plan(&b);
        let shared_sum = Op::CharNgram(Arc::clone(&shared)).checksum();
        assert_eq!(store.plan_refs(shared_sum), 2, "featurizer shared by both");
        assert_eq!(store.len(), 3, "1 shared ngram + 2 unique linears");

        let (freed_a, bytes_a) = store.release_plan(&refs_a);
        assert_eq!(freed_a, 1, "only plan A's linear dies");
        assert!(bytes_a > 0);
        assert_eq!(store.plan_refs(shared_sum), 1);
        let (freed_b, _) = store.release_plan(&refs_b);
        assert_eq!(freed_b, 2, "B's linear AND the now-unshared ngram die");
        assert!(store.is_empty(), "full churn returns the store to empty");
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.release_count(), 3);
    }

    #[test]
    fn sweep_unreferenced_reaps_orphans_only() {
        let store = ObjectStore::new();
        let orphan = store.intern(Op::Tokenizer(Arc::new(TokenizerParams::whitespace_punct())));
        assert_eq!(store.plan_refs(orphan.checksum()), 0);
        assert_eq!(store.len(), 1);
        let freed = store.sweep_unreferenced();
        assert!(freed > 0);
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_intern_and_get_across_shards() {
        // Readers hammer `get` while writers intern fresh and duplicate
        // parameters: every lookup must return the canonical instance and
        // the dedup counters must balance exactly.
        let store = Arc::new(ObjectStore::new());
        let dicts: Vec<_> = (0..8)
            .map(|i| Arc::new(synth::char_ngram(i, 3, 32)))
            .collect();
        let sums: Vec<u64> = dicts
            .iter()
            .map(|d| Op::CharNgram(Arc::clone(d)).checksum())
            .collect();
        for d in &dicts {
            store.intern(Op::CharNgram(Arc::clone(d)));
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                let dicts = dicts.clone();
                let sums = sums.clone();
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let i = (t + round) % dicts.len();
                        let hit = store.get(sums[i]).expect("interned above");
                        assert_eq!(
                            hit.params_addr(),
                            Op::CharNgram(Arc::clone(&dicts[i])).params_addr()
                        );
                        // A duplicate allocation interns to the canonical one.
                        let dup = store
                            .intern(Op::CharNgram(Arc::new(synth::char_ngram(i as u64, 3, 32))));
                        assert_eq!(dup.params_addr(), hit.params_addr());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), dicts.len(), "no duplicate entries published");
        // 4 threads x 200 rounds: one reuse per `get` + one per dup intern.
        assert_eq!(store.reuse_count(), 4 * 200 * 2);
    }
}
