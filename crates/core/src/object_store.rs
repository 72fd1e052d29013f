//! The Object Store: parameter dedup and sub-plan materialization.
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
//! The same component hosts the sub-plan materialization cache (§4.3):
//! results of cacheable featurizer steps, keyed by `(step checksum, input
//! hash)`, with LRU eviction under a byte budget.
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
//! **Sharded read path:** the parameter map is split across
//! `STORE_SHARDS` reader-writer shards keyed by checksum, so the
//! read-mostly lookups ([`ObjectStore::get`], the intern fast path) run
//! under shared read locks and never contend with each other; only the
//! deploy/undeploy write paths take a shard's write lock, and only for
//! the checksums that hash there. Ref-count lifecycle semantics are
//! unchanged — each entry's refcount still moves under its shard lock.

use crate::lru::LruCache;
use crate::plan::StagePlan;
use parking_lot::{Mutex, RwLock};
use pretzel_data::Vector;
use pretzel_ops::Op;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Shard count of the parameter map. Lookups are read-mostly (every load
/// and every compile probes; only deploy/undeploy writes), so the map is
/// split into reader-writer shards keyed by checksum: concurrent readers
/// share a shard lock, and writers serialize only within one shard.
const STORE_SHARDS: usize = 16;

/// Maps a parameter checksum to its shard. Checksums are already
/// well-mixed digests, but a Fibonacci multiply keeps the shard choice
/// robust if a parameter kind ever produces structured low bits.
fn shard_of(checksum: u64) -> usize {
    (checksum.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (STORE_SHARDS - 1)
}

/// One plan's access-recency record: a pair of relaxed atomics written per
/// admitted request, read only at snapshot time. The runtime resolves it
/// once per plan ([`ObjectStore::plan_access`]) and keeps it beside the
/// compiled plan, so noting an access takes no map read.
#[derive(Debug, Default)]
pub struct PlanAccess {
    count: AtomicU64,
    last_epoch: AtomicU64,
}

/// Checksum-keyed store of shared operator parameters.
#[derive(Debug)]
pub struct ObjectStore {
    shards: Vec<RwLock<HashMap<u64, StoreEntry>>>,
    interned: AtomicU64,
    reused: AtomicU64,
    bytes_saved: AtomicU64,
    released: AtomicU64,
    released_bytes: AtomicU64,
    /// Global logical access clock, starting at 1. It ticks when recency
    /// is read ([`Self::plan_access_snapshot`]), never per access: an
    /// access stamps its plan with the current value, so `last_epoch`
    /// orders plans by the snapshot interval of their latest request
    /// (plans served within one interval tie) without a wall-clock read or
    /// a shared read-modify-write per request.
    access_epoch: AtomicU64,
    /// Per-plan hotness (access count + recency epoch) — the signal the
    /// million-model tiering policy demotes cold parameters on. Written
    /// when a plan's record is resolved or forgotten and read at snapshot
    /// time; accesses go through the resolved record, not through the map.
    plan_access: RwLock<HashMap<u32, Arc<PlanAccess>>>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore {
            shards: (0..STORE_SHARDS).map(|_| RwLock::default()).collect(),
            interned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            released: AtomicU64::new(0),
            released_bytes: AtomicU64::new(0),
            access_epoch: AtomicU64::new(1),
            plan_access: RwLock::new(HashMap::new()),
        }
    }
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
        let shard = &self.shards[shard_of(key)];
        // Fast path under the read lock: most interns during steady-state
        // deploys find the canonical instance already resident.
        {
            let ops = shard.read();
            match ops.get(&key) {
                // Re-interning the canonical instance itself is a no-op
                // (and must not inflate the dedup counters).
                Some(existing) if existing.op.params_addr() == op.params_addr() => return op,
                Some(existing) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    self.bytes_saved
                        .fetch_add(op.heap_bytes() as u64, Ordering::Relaxed);
                    return existing.op.clone();
                }
                None => {}
            }
        }
        let mut ops = shard.write();
        // Re-check under the write lock: a racing intern of the same
        // checksum may have published between the two acquisitions.
        match ops.get(&key) {
            Some(existing) if existing.op.params_addr() == op.params_addr() => op,
            Some(existing) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                self.bytes_saved
                    .fetch_add(op.heap_bytes() as u64, Ordering::Relaxed);
                existing.op.clone()
            }
            None => {
                self.interned.fetch_add(1, Ordering::Relaxed);
                ops.insert(
                    key,
                    StoreEntry {
                        op: op.clone(),
                        plan_refs: 0,
                    },
                );
                op
            }
        }
    }

    /// Records one deployed plan's reference on every unique parameter
    /// object it shares (call once per registration, after interning).
    ///
    /// An entry missing from the store (swept between intern and retain by
    /// a concurrent failed deploy) is re-inserted from the plan's own
    /// canonical instance, so retention never loses parameters.
    pub fn retain_plan(&self, plan: &StagePlan) {
        for (sum, op) in plan_param_set(plan) {
            let mut ops = self.shards[shard_of(sum)].write();
            ops.entry(sum)
                .or_insert(StoreEntry { op, plan_refs: 0 })
                .plan_refs += 1;
        }
    }

    /// Releases one plan's references; parameters whose count hits zero are
    /// freed immediately. Returns `(objects freed, heap bytes freed)` — the
    /// reclamation half of `undeploy`.
    pub fn release_plan(&self, plan: &StagePlan) -> (usize, usize) {
        let mut freed = 0usize;
        let mut freed_bytes = 0usize;
        for (sum, _) in plan_param_set(plan) {
            let mut ops = self.shards[shard_of(sum)].write();
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
        for sum in checksums {
            let mut ops = self.shards[shard_of(sum)].write();
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
        for shard in &self.shards {
            let mut ops = shard.write();
            ops.retain(|_, entry| {
                if entry.plan_refs == 0 {
                    freed_bytes += entry.op.heap_bytes();
                    freed += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.released.fetch_add(freed, Ordering::Relaxed);
        self.released_bytes
            .fetch_add(freed_bytes as u64, Ordering::Relaxed);
        freed_bytes
    }

    /// Plan refcount of a checksum (0 when absent or never retained).
    pub fn plan_refs(&self, checksum: u64) -> u64 {
        self.shards[shard_of(checksum)]
            .read()
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
        let hit = self.shards[shard_of(checksum)]
            .read()
            .get(&checksum)
            .map(|e| e.op.clone());
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
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Total heap bytes of the unique parameter objects.
    pub fn unique_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|e| e.op.heap_bytes()).sum::<usize>())
            .sum()
    }

    /// Heap bytes avoided by returning shared instances.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved.load(Ordering::Relaxed)
    }

    /// Count of intern calls that found an existing object.
    pub fn reuse_count(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// The access record of `plan` (created on first use), for the caller
    /// to keep and pass to [`Self::note_access`].
    pub fn plan_access(&self, plan: u32) -> Arc<PlanAccess> {
        Arc::clone(self.plan_access.write().entry(plan).or_default())
    }

    /// Notes one serving access: bumps the plan's count and stamps it with
    /// the access clock — relaxed atomics on the plan's own record, the
    /// stamp written only when the clock moved since its last access.
    pub fn note_access(&self, access: &PlanAccess) {
        access.count.fetch_add(1, Ordering::Relaxed);
        let epoch = self.access_epoch.load(Ordering::Relaxed);
        if access.last_epoch.load(Ordering::Relaxed) != epoch {
            access.last_epoch.store(epoch, Ordering::Relaxed);
        }
    }

    /// Forgets a plan's access record (undeploy) so snapshots only rank
    /// live plans.
    pub fn forget_plan_access(&self, plan: u32) {
        self.plan_access.write().remove(&plan);
    }

    /// Per-plan access recency of every plan served at least once, sorted
    /// by plan id — the hotness input to tiering decisions and the
    /// `plan_access` section of the metrics snapshot. Ticks the access
    /// clock, so requests after this snapshot rank hotter than those
    /// before it.
    pub fn plan_access_snapshot(&self) -> Vec<crate::telemetry::PlanAccessSnapshot> {
        self.access_epoch.fetch_add(1, Ordering::Relaxed);
        let g = self.plan_access.read();
        let mut out: Vec<_> = g
            .iter()
            .filter(|(_, a)| a.count.load(Ordering::Relaxed) > 0)
            .map(|(&plan, a)| crate::telemetry::PlanAccessSnapshot {
                plan,
                accesses: a.count.load(Ordering::Relaxed),
                last_access_epoch: a.last_epoch.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|a| a.plan);
        out
    }
}

/// Key of a materialized sub-plan result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatKey {
    /// The plan's key for the producing step: its parameters and, through
    /// the keys of its inputs' producers, every step upstream of it.
    pub step: u64,
    /// Hash of the source record the pipeline is evaluating.
    pub input: u64,
}

/// Named [`MaterializationCache`] counters (replaces the old anonymous
/// `(hits, misses, evictions)` tuple; folded into the metrics snapshot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// LRU cache of materialized featurizer outputs (paper §4.3).
#[derive(Debug)]
pub struct MaterializationCache {
    lru: Mutex<LruCache<MatKey, Arc<Vector>>>,
}

impl MaterializationCache {
    /// Creates a cache with a byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        MaterializationCache {
            lru: Mutex::new(LruCache::new(budget_bytes)),
        }
    }

    /// Looks up a materialized result.
    pub fn get(&self, key: MatKey) -> Option<Arc<Vector>> {
        self.lru.lock().get(&key).cloned()
    }

    /// Looks up a materialized result without touching recency order or
    /// the hit/miss counters (the chunk probe's speculative partition
    /// pass; see [`crate::lru::LruCache::peek`]).
    pub fn peek(&self, key: MatKey) -> Option<Arc<Vector>> {
        self.lru.lock().peek(&key).cloned()
    }

    /// Stores a materialized result (cost = value heap bytes + fixed
    /// overhead).
    pub fn put(&self, key: MatKey, value: Arc<Vector>) {
        let cost = value.heap_bytes() + 64;
        self.lru.lock().insert(key, value, cost);
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> MatCacheStats {
        let g = self.lru.lock();
        MatCacheStats {
            hits: g.hits(),
            misses: g.misses(),
            evictions: g.evictions(),
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.lru.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_ops::synth;
    use pretzel_ops::text::tokenizer::TokenizerParams;

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
        store.retain_plan(&a);
        crate::physical::intern_plan(&mut b, &store);
        store.retain_plan(&b);
        let shared_sum = Op::CharNgram(Arc::clone(&shared)).checksum();
        assert_eq!(store.plan_refs(shared_sum), 2, "featurizer shared by both");
        assert_eq!(store.len(), 3, "1 shared ngram + 2 unique linears");

        let (freed_a, bytes_a) = store.release_plan(&a);
        assert_eq!(freed_a, 1, "only plan A's linear dies");
        assert!(bytes_a > 0);
        assert_eq!(store.plan_refs(shared_sum), 1);
        let (freed_b, _) = store.release_plan(&b);
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

    #[test]
    fn materialization_cache_round_trip() {
        let cache = MaterializationCache::new(4096);
        let key = MatKey { step: 1, input: 2 };
        assert!(cache.get(key).is_none());
        cache.put(key, Arc::new(Vector::Dense(vec![1.0, 2.0])));
        let v = cache.get(key).unwrap();
        assert_eq!(v.as_dense().unwrap(), &[1.0, 2.0]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn materialization_cache_evicts_under_pressure() {
        let cache = MaterializationCache::new(512);
        for i in 0..100 {
            cache.put(
                MatKey { step: i, input: 0 },
                Arc::new(Vector::Dense(vec![0.0; 16])),
            );
        }
        assert!(cache.len() < 100);
        assert!(cache.stats().evictions > 0);
    }
}
