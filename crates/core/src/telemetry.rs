//! Sharded, lock-free runtime telemetry.
//!
//! The observability counterpart of the PR 8 execution plane: every hot-path
//! recorder is split into cache-line-padded shards, each writer thread picks
//! one shard on first use and keeps it, and a recording is a couple of
//! uncontended relaxed atomics — no locks, no allocation, no false sharing.
//! Snapshots merge across shards (histogram merge is exact: buckets are
//! plain sums), so one [`MetricsRegistry::snapshot`] folds the whole request
//! lifecycle — FrontEnd decode, per-plan queue wait (low/high), per-stage
//! execution time and rows, cache probe hit/miss latency, pool lease/miss,
//! steals, completion-to-flush — into a single [`MetricsSnapshot`] that also
//! unifies the pre-existing stat structs (`SchedStats`, `LifecycleStats`,
//! pool and Object Store counters).
//!
//! Latency histograms are log2-bucketed: bucket 0 holds the value 0 and
//! bucket `b` holds `[2^(b-1), 2^b)`, so power-of-two boundaries are exact
//! and merge is loss-free. Counters are wrapping-add (`AtomicU64::fetch_add`
//! wraps by definition), so overflow can never panic a recorder.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pretzel_data::serde_bin::wire::{put_u32, put_u64};
use pretzel_data::serde_bin::Cursor;
use pretzel_data::{DataError, Result};

use crate::object_store::MatCacheStats;

/// Log2 histogram bucket count: bucket 0 is the value 0, bucket `b` covers
/// `[2^(b-1), 2^b)`, and the top bucket absorbs everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for `v`: 0 for 0, otherwise `floor(log2 v) + 1`, clamped to
/// the top bucket. Exact at powers of two: `2^k` is the smallest value in
/// its bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Smallest value bucket `b` can hold.
#[inline]
pub fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value bucket `b` can hold.
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A plain (single-writer) log2 latency histogram; the merge target for
/// [`AtomicHistogram`] shards and the value type inside snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] = self.buckets[bucket_of(v)].wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &c| acc.wrapping_add(c))
    }

    /// Exact merge: bucket-wise wrapping sums. `merge(a, b)` is
    /// indistinguishable from having recorded every sample into one
    /// histogram sequentially.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`); 0 when empty. Log2 buckets bound the estimate to
    /// within 2x of the true sample, which is what latency percentiles need.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper bound of the highest non-empty bucket; 0 when empty.
    pub fn max_observed(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c != 0)
            .map(bucket_upper)
            .unwrap_or(0)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let used = self
            .buckets
            .iter()
            .rposition(|&c| c != 0)
            .map(|b| b + 1)
            .unwrap_or(0);
        put_u32(out, used as u32);
        for &c in &self.buckets[..used] {
            put_u64(out, c);
        }
        put_u64(out, self.sum);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let used = cur.u32()? as usize;
        if used > HIST_BUCKETS {
            return Err(DataError::Codec(format!(
                "histogram bucket count {used} exceeds {HIST_BUCKETS}"
            )));
        }
        let mut h = Histogram::new();
        for b in h.buckets.iter_mut().take(used) {
            *b = cur.u64()?;
        }
        h.sum = cur.u64()?;
        Ok(h)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.count(),
            self.sum,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max_observed()
        )
    }
}

/// The concurrent histogram one shard owns. Recording is three relaxed
/// wrapping `fetch_add`s; reads happen only at snapshot time.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds this shard into `into` (exact: bucket-wise sums).
    fn merge_into(&self, into: &mut Histogram) {
        for (dst, src) in into.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = dst.wrapping_add(src.load(Ordering::Relaxed));
        }
        into.sum = into.sum.wrapping_add(self.sum.load(Ordering::Relaxed));
    }

    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        self.merge_into(&mut h);
        h
    }
}

/// Pads a shard to its own cache line so two writer threads never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CacheAligned<T>(T);

/// Stable per-thread shard index: assigned round-robin on a thread's first
/// recording and cached in a thread-local, so an executor writes the same
/// shard for its whole life. With `threads <= shards` every writer owns its
/// shard outright; beyond that, collisions stay correct (atomics).
#[inline]
fn shard_index(n_shards: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(i);
        }
        i & (n_shards - 1)
    })
}

/// How many shards each recorder splits into: enough for one per hardware
/// thread (power of two for mask indexing), capped so per-plan recorders
/// stay small.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .next_power_of_two()
        .clamp(1, 16)
}

/// One shard of a per-plan recorder.
#[derive(Debug, Default)]
struct PlanShard {
    batch_requests: AtomicU64,
    rr_requests: AtomicU64,
    records: AtomicU64,
    stage_rows: AtomicU64,
    queue_wait_low_ns: AtomicHistogram,
    queue_wait_high_ns: AtomicHistogram,
    stage_exec_ns: AtomicHistogram,
    faults: AtomicU64,
    fault_ns: AtomicHistogram,
}

/// Per-plan metric set: sharded per writer thread, resolved once per
/// submission (the scheduler clones the `Arc` into each chunk task), so the
/// steady-state cost per event is the shard-local atomics and nothing else.
#[derive(Debug)]
pub struct PlanRecorder {
    shards: Box<[CacheAligned<PlanShard>]>,
}

impl PlanRecorder {
    fn new(n_shards: usize) -> Self {
        PlanRecorder {
            shards: (0..n_shards).map(|_| CacheAligned::default()).collect(),
        }
    }

    #[inline]
    fn shard(&self) -> &PlanShard {
        &self.shards[shard_index(self.shards.len())].0
    }

    #[inline]
    pub fn note_batch_request(&self) {
        self.shard().batch_requests.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn note_rr_request(&self) {
        self.shard().rr_requests.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_records(&self, n: u64) {
        self.shard().records.fetch_add(n, Ordering::Relaxed);
    }

    /// Queue-wait sample for one chunk-stage event, split by the priority
    /// class it waited in (`high` = a started pipeline re-entering).
    #[inline]
    pub fn record_queue_wait(&self, high: bool, ns: u64) {
        let s = self.shard();
        if high {
            s.queue_wait_high_ns.record(ns);
        } else {
            s.queue_wait_low_ns.record(ns);
        }
    }

    /// Execution-time + row-count sample for one chunk-stage event.
    #[inline]
    pub fn record_stage(&self, ns: u64, rows: u64) {
        let s = self.shard();
        s.stage_exec_ns.record(ns);
        s.stage_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// One contained execution fault: `ns` is the time the faulting
    /// stage/request burned before it panicked (the wasted-work signal
    /// that pairs with the fault rate).
    #[inline]
    pub fn record_fault(&self, ns: u64) {
        let s = self.shard();
        s.faults.fetch_add(1, Ordering::Relaxed);
        s.fault_ns.record(ns);
    }

    fn snapshot(&self, plan: u32) -> PlanMetricsSnapshot {
        let mut snap = PlanMetricsSnapshot {
            plan,
            ..Default::default()
        };
        for s in self.shards.iter() {
            let s = &s.0;
            snap.batch_requests = snap
                .batch_requests
                .wrapping_add(s.batch_requests.load(Ordering::Relaxed));
            snap.rr_requests = snap
                .rr_requests
                .wrapping_add(s.rr_requests.load(Ordering::Relaxed));
            snap.records = snap.records.wrapping_add(s.records.load(Ordering::Relaxed));
            snap.stage_rows = snap
                .stage_rows
                .wrapping_add(s.stage_rows.load(Ordering::Relaxed));
            snap.faults = snap.faults.wrapping_add(s.faults.load(Ordering::Relaxed));
            s.queue_wait_low_ns.merge_into(&mut snap.queue_wait_low_ns);
            s.queue_wait_high_ns
                .merge_into(&mut snap.queue_wait_high_ns);
            s.stage_exec_ns.merge_into(&mut snap.stage_exec_ns);
            s.fault_ns.merge_into(&mut snap.fault_ns);
        }
        snap
    }
}

/// One shard of the registry-global (not per-plan) recorders.
#[derive(Debug, Default)]
struct GlobalShard {
    decode_ns: AtomicHistogram,
    completion_flush_ns: AtomicHistogram,
    cache_probe_hit_ns: AtomicHistogram,
    cache_probe_miss_ns: AtomicHistogram,
    delayed_drops: AtomicU64,
}

/// The runtime's metric plane: global sharded recorders plus a read-mostly
/// map of per-plan recorders (write-locked only on a plan's first request).
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Box<[CacheAligned<GlobalShard>]>,
    plans: RwLock<HashMap<u32, Arc<PlanRecorder>>>,
    n_shards: usize,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        let n_shards = default_shards();
        MetricsRegistry {
            shards: (0..n_shards).map(|_| CacheAligned::default()).collect(),
            plans: RwLock::new(HashMap::new()),
            n_shards,
        }
    }

    #[inline]
    fn shard(&self) -> &GlobalShard {
        &self.shards[shard_index(self.shards.len())].0
    }

    /// The recorder for `plan` (created on first use). Steady state is one
    /// read-lock + hash lookup, amortized over a whole submission.
    pub fn plan_recorder(&self, plan: u32) -> Arc<PlanRecorder> {
        if let Some(rec) = self.plans.read().get(&plan) {
            return Arc::clone(rec);
        }
        let mut w = self.plans.write();
        Arc::clone(
            w.entry(plan)
                .or_insert_with(|| Arc::new(PlanRecorder::new(self.n_shards))),
        )
    }

    /// Drops a plan's recorder (undeploy without redeploy).
    pub fn forget_plan(&self, plan: u32) {
        self.plans.write().remove(&plan);
    }

    /// FrontEnd frame-decode latency (wire bytes to engine-ready input).
    #[inline]
    pub fn record_decode(&self, ns: u64) {
        self.shard().decode_ns.record(ns);
    }

    /// Batch-completion to response-flush latency (reactor plane).
    #[inline]
    pub fn record_completion_flush(&self, ns: u64) {
        self.shard().completion_flush_ns.record(ns);
    }

    /// Materialization-cache probe latency, split by outcome.
    #[inline]
    pub fn record_cache_probe(&self, hit: bool, ns: u64) {
        let s = self.shard();
        if hit {
            s.cache_probe_hit_ns.record(ns);
        } else {
            s.cache_probe_miss_ns.record(ns);
        }
    }

    /// Delayed-batch results dropped because their client disconnected.
    #[inline]
    pub fn note_delayed_drops(&self, n: u64) {
        self.shard().delayed_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Merges every shard into the telemetry-owned part of a snapshot; the
    /// runtime then folds in the stat structs it owns (scheduler, pools,
    /// lifecycle, store, cache) and the FrontEnd overlays its own.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for s in self.shards.iter() {
            let s = &s.0;
            s.decode_ns.merge_into(&mut snap.decode_ns);
            s.completion_flush_ns
                .merge_into(&mut snap.completion_flush_ns);
            s.cache_probe_hit_ns
                .merge_into(&mut snap.cache_probe_hit_ns);
            s.cache_probe_miss_ns
                .merge_into(&mut snap.cache_probe_miss_ns);
            snap.delayed_drops = snap
                .delayed_drops
                .wrapping_add(s.delayed_drops.load(Ordering::Relaxed));
        }
        let plans = self.plans.read();
        snap.plans = plans.iter().map(|(&id, rec)| rec.snapshot(id)).collect();
        snap.plans.sort_by_key(|p| p.plan);
        snap
    }
}

/// One pool family's lease counters and what it holds idle: the answer to
/// "is warming covering the traffic" (`misses`) and to "which pool is
/// holding memory" (`retained_bytes`, `parked`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    /// Buffers handed back (parked or dropped).
    pub released: u64,
    /// Heap bytes of the buffers parked in the family's free lists.
    pub retained_bytes: u64,
    /// Buffers (vectors and batches) parked in the family's free lists.
    pub parked: u64,
}

impl PoolCounters {
    /// Reads one pool (not its fallback, which reports its own).
    pub fn of(pool: &pretzel_data::pool::VectorPool) -> Self {
        PoolCounters {
            hits: pool.stats().hits(),
            misses: pool.stats().misses(),
            released: pool.stats().released(),
            retained_bytes: pool.retained_bytes() as u64,
            parked: pool.parked_buffers() as u64,
        }
    }
}

impl std::ops::AddAssign for PoolCounters {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.released += other.released;
        self.retained_bytes += other.retained_bytes;
        self.parked += other.parked;
    }
}

/// Scheduler counters (mirrors `SchedStats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulerSnapshot {
    pub stage_events: u64,
    pub records_done: u64,
    pub steals: u64,
}

/// Lease/miss counters and idle holdings for each pool family.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolsSnapshot {
    /// Aggregated executor pools (shared + reserved); the holdings include
    /// the fallback arena behind them.
    pub executor: PoolCounters,
    /// The request-response engine's registration-warmed pool.
    pub request_response: PoolCounters,
    /// The FrontEnd's wire-ingest assembly pool (zero outside a FrontEnd).
    pub ingest: PoolCounters,
}

impl PoolsSnapshot {
    /// The three families in wire order.
    fn families(&self) -> [PoolCounters; 3] {
        [self.executor, self.request_response, self.ingest]
    }
}

/// Lifecycle counters (mirrors `LifecycleStats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LifecycleSnapshot {
    pub deploys: u64,
    pub undeploys: u64,
    pub swaps: u64,
    pub stages_reused: u64,
}

/// One plan's Object Store access-recency entry — the hotness signal the
/// million-model tiering policy consumes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanAccessSnapshot {
    pub plan: u32,
    /// Requests admitted for this plan since deploy.
    pub accesses: u64,
    /// Value of the store's global access clock at this plan's most recent
    /// request; compare across plans for recency (larger = hotter). The
    /// clock ticks once per snapshot, so plans last served between the
    /// same two snapshots tie.
    pub last_access_epoch: u64,
}

/// Object Store counters plus per-plan access recency.
#[derive(Debug, Default, Clone)]
pub struct StoreSnapshot {
    pub unique_objects: u64,
    pub unique_bytes: u64,
    pub reused: u64,
    pub bytes_saved: u64,
    pub released: u64,
    pub released_bytes: u64,
    pub plan_access: Vec<PlanAccessSnapshot>,
}

/// FrontEnd connection counters (present only in STATS served over a
/// FrontEnd; a bare `Runtime::metrics` has no FrontEnd to read).
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontEndSnapshot {
    pub open_connections: u64,
    pub accepted: u64,
    pub protocol_errors: u64,
}

/// One plan's merged request-lifecycle metrics.
#[derive(Debug, Default, Clone)]
pub struct PlanMetricsSnapshot {
    pub plan: u32,
    /// Batch-engine submissions.
    pub batch_requests: u64,
    /// Request-response (inline) predicts.
    pub rr_requests: u64,
    /// Records fully scored by the batch engine.
    pub records: u64,
    /// Rows pushed through stage executions (records x stages).
    pub stage_rows: u64,
    /// Queue wait of chunk-stage events that entered at low priority
    /// (new pipelines).
    pub queue_wait_low_ns: Histogram,
    /// Queue wait of re-entering (started) chunk-stage events.
    pub queue_wait_high_ns: Histogram,
    /// Per-`PhysicalStage` execution time, one sample per chunk-stage event.
    pub stage_exec_ns: Histogram,
    /// Contained execution faults (operator panics) attributed to this
    /// plan, across both engines.
    pub faults: u64,
    /// Time each faulting stage/request burned before it panicked.
    pub fault_ns: Histogram,
    /// True when the fault policy has quarantined this plan (stamped at
    /// snapshot time from the plan's gate, not a telemetry counter).
    pub quarantined: bool,
}

impl PlanMetricsSnapshot {
    /// Total queue-wait samples across both priority classes; equals the
    /// stage-execution sample count (every executed event waited once).
    pub fn queue_wait_events(&self) -> u64 {
        self.queue_wait_low_ns
            .count()
            .wrapping_add(self.queue_wait_high_ns.count())
    }
}

/// Everything the runtime knows about itself, in one merge: telemetry
/// histograms plus the runtime's stat structs.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    pub scheduler: SchedulerSnapshot,
    pub pools: PoolsSnapshot,
    pub lifecycle: LifecycleSnapshot,
    pub store: StoreSnapshot,
    /// Materialization-cache counters, when a cache is configured.
    pub mat_cache: Option<MatCacheStats>,
    pub frontend: Option<FrontEndSnapshot>,
    pub delayed_drops: u64,
    pub decode_ns: Histogram,
    pub completion_flush_ns: Histogram,
    pub cache_probe_hit_ns: Histogram,
    pub cache_probe_miss_ns: Histogram,
    pub plans: Vec<PlanMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// The per-plan section for `plan`, if any requests were recorded.
    pub fn plan(&self, plan: u32) -> Option<&PlanMetricsSnapshot> {
        self.plans.iter().find(|p| p.plan == plan)
    }

    /// The store's access-recency entry for `plan`.
    pub fn plan_access(&self, plan: u32) -> Option<&PlanAccessSnapshot> {
        self.store.plan_access.iter().find(|p| p.plan == plan)
    }

    /// Binary wire encoding (the STATS admin payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.scheduler.stage_events);
        put_u64(out, self.scheduler.records_done);
        put_u64(out, self.scheduler.steals);
        for p in self.pools.families() {
            put_u64(out, p.hits);
            put_u64(out, p.misses);
        }
        put_u64(out, self.lifecycle.deploys);
        put_u64(out, self.lifecycle.undeploys);
        put_u64(out, self.lifecycle.swaps);
        put_u64(out, self.lifecycle.stages_reused);
        put_u64(out, self.store.unique_objects);
        put_u64(out, self.store.unique_bytes);
        put_u64(out, self.store.reused);
        put_u64(out, self.store.bytes_saved);
        put_u64(out, self.store.released);
        put_u64(out, self.store.released_bytes);
        put_u32(out, self.store.plan_access.len() as u32);
        for a in &self.store.plan_access {
            put_u32(out, a.plan);
            put_u64(out, a.accesses);
            put_u64(out, a.last_access_epoch);
        }
        match &self.mat_cache {
            Some(c) => {
                out.push(1);
                put_u64(out, c.hits);
                put_u64(out, c.misses);
                put_u64(out, c.evictions);
            }
            None => out.push(0),
        }
        match &self.frontend {
            Some(f) => {
                out.push(1);
                put_u64(out, f.open_connections);
                put_u64(out, f.accepted);
                put_u64(out, f.protocol_errors);
            }
            None => out.push(0),
        }
        put_u64(out, self.delayed_drops);
        self.decode_ns.encode(out);
        self.completion_flush_ns.encode(out);
        self.cache_probe_hit_ns.encode(out);
        self.cache_probe_miss_ns.encode(out);
        put_u32(out, self.plans.len() as u32);
        for p in &self.plans {
            put_u32(out, p.plan);
            put_u64(out, p.batch_requests);
            put_u64(out, p.rr_requests);
            put_u64(out, p.records);
            put_u64(out, p.stage_rows);
            put_u64(out, p.faults);
            out.push(p.quarantined as u8);
            p.queue_wait_low_ns.encode(out);
            p.queue_wait_high_ns.encode(out);
            p.stage_exec_ns.encode(out);
            p.fault_ns.encode(out);
        }
        // Appended after everything an older reader expects, so a payload
        // without it still decodes (as zeros).
        for p in self.pools.families() {
            put_u64(out, p.retained_bytes);
            put_u64(out, p.parked);
        }
        for p in self.pools.families() {
            put_u64(out, p.released);
        }
    }

    fn decode_bool(cur: &mut Cursor<'_>) -> Result<bool> {
        Ok(cur.u8()? != 0)
    }

    /// Decodes a STATS payload (the client side of [`Self::encode`]).
    pub fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let scheduler = SchedulerSnapshot {
            stage_events: cur.u64()?,
            records_done: cur.u64()?,
            steals: cur.u64()?,
        };
        let mut pool = || -> Result<PoolCounters> {
            Ok(PoolCounters {
                hits: cur.u64()?,
                misses: cur.u64()?,
                ..PoolCounters::default()
            })
        };
        let mut pools = PoolsSnapshot {
            executor: pool()?,
            request_response: pool()?,
            ingest: pool()?,
        };
        let lifecycle = LifecycleSnapshot {
            deploys: cur.u64()?,
            undeploys: cur.u64()?,
            swaps: cur.u64()?,
            stages_reused: cur.u64()?,
        };
        let mut store = StoreSnapshot {
            unique_objects: cur.u64()?,
            unique_bytes: cur.u64()?,
            reused: cur.u64()?,
            bytes_saved: cur.u64()?,
            released: cur.u64()?,
            released_bytes: cur.u64()?,
            plan_access: Vec::new(),
        };
        let n_access = cur.u32()? as usize;
        store.plan_access.reserve(n_access.min(4096));
        for _ in 0..n_access {
            store.plan_access.push(PlanAccessSnapshot {
                plan: cur.u32()?,
                accesses: cur.u64()?,
                last_access_epoch: cur.u64()?,
            });
        }
        let mat_cache = if Self::decode_bool(cur)? {
            Some(MatCacheStats {
                hits: cur.u64()?,
                misses: cur.u64()?,
                evictions: cur.u64()?,
            })
        } else {
            None
        };
        let frontend = if Self::decode_bool(cur)? {
            Some(FrontEndSnapshot {
                open_connections: cur.u64()?,
                accepted: cur.u64()?,
                protocol_errors: cur.u64()?,
            })
        } else {
            None
        };
        let delayed_drops = cur.u64()?;
        let decode_ns = Histogram::decode(cur)?;
        let completion_flush_ns = Histogram::decode(cur)?;
        let cache_probe_hit_ns = Histogram::decode(cur)?;
        let cache_probe_miss_ns = Histogram::decode(cur)?;
        let n_plans = cur.u32()? as usize;
        let mut plans = Vec::with_capacity(n_plans.min(4096));
        for _ in 0..n_plans {
            plans.push(PlanMetricsSnapshot {
                plan: cur.u32()?,
                batch_requests: cur.u64()?,
                rr_requests: cur.u64()?,
                records: cur.u64()?,
                stage_rows: cur.u64()?,
                faults: cur.u64()?,
                quarantined: Self::decode_bool(cur)?,
                queue_wait_low_ns: Histogram::decode(cur)?,
                queue_wait_high_ns: Histogram::decode(cur)?,
                stage_exec_ns: Histogram::decode(cur)?,
                fault_ns: Histogram::decode(cur)?,
            });
        }
        // Pool holdings trail the payload; one from a server that predates
        // them ends here and they read 0.
        if cur.remaining() > 0 {
            for p in [
                &mut pools.executor,
                &mut pools.request_response,
                &mut pools.ingest,
            ] {
                p.retained_bytes = cur.u64()?;
                p.parked = cur.u64()?;
            }
        }
        if cur.remaining() > 0 {
            for p in [
                &mut pools.executor,
                &mut pools.request_response,
                &mut pools.ingest,
            ] {
                p.released = cur.u64()?;
            }
        }
        Ok(MetricsSnapshot {
            scheduler,
            pools,
            lifecycle,
            store,
            mat_cache,
            frontend,
            delayed_drops,
            decode_ns,
            completion_flush_ns,
            cache_probe_hit_ns,
            cache_probe_miss_ns,
            plans,
        })
    }

    /// JSON rendering (hand-rolled; the repo carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"scheduler\":{{\"stage_events\":{},\"records_done\":{},\"steals\":{}}}",
            self.scheduler.stage_events, self.scheduler.records_done, self.scheduler.steals
        ));
        let pool = |p: &PoolCounters| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"released\":{},\"retained_bytes\":{},\"parked\":{}}}",
                p.hits, p.misses, p.released, p.retained_bytes, p.parked
            )
        };
        s.push_str(&format!(
            ",\"pools\":{{\"executor\":{},\"request_response\":{},\"ingest\":{}}}",
            pool(&self.pools.executor),
            pool(&self.pools.request_response),
            pool(&self.pools.ingest)
        ));
        s.push_str(&format!(
            ",\"lifecycle\":{{\"deploys\":{},\"undeploys\":{},\"swaps\":{},\"stages_reused\":{}}}",
            self.lifecycle.deploys,
            self.lifecycle.undeploys,
            self.lifecycle.swaps,
            self.lifecycle.stages_reused
        ));
        s.push_str(&format!(
            ",\"store\":{{\"unique_objects\":{},\"unique_bytes\":{},\"reused\":{},\"bytes_saved\":{},\"released\":{},\"released_bytes\":{},\"plan_access\":[",
            self.store.unique_objects,
            self.store.unique_bytes,
            self.store.reused,
            self.store.bytes_saved,
            self.store.released,
            self.store.released_bytes
        ));
        for (i, a) in self.store.plan_access.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"plan\":{},\"accesses\":{},\"last_access_epoch\":{}}}",
                a.plan, a.accesses, a.last_access_epoch
            ));
        }
        s.push_str("]}");
        match &self.mat_cache {
            Some(c) => s.push_str(&format!(
                ",\"mat_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                c.hits, c.misses, c.evictions
            )),
            None => s.push_str(",\"mat_cache\":null"),
        }
        match &self.frontend {
            Some(f) => s.push_str(&format!(
                ",\"frontend\":{{\"open_connections\":{},\"accepted\":{},\"protocol_errors\":{}}}",
                f.open_connections, f.accepted, f.protocol_errors
            )),
            None => s.push_str(",\"frontend\":null"),
        }
        s.push_str(&format!(
            ",\"delayed_drops\":{},\"decode_ns\":{},\"completion_flush_ns\":{},\"cache_probe_hit_ns\":{},\"cache_probe_miss_ns\":{},\"plans\":[",
            self.delayed_drops,
            self.decode_ns.to_json(),
            self.completion_flush_ns.to_json(),
            self.cache_probe_hit_ns.to_json(),
            self.cache_probe_miss_ns.to_json()
        ));
        for (i, p) in self.plans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"plan\":{},\"batch_requests\":{},\"rr_requests\":{},\"records\":{},\"stage_rows\":{},\"faults\":{},\"quarantined\":{},\"queue_wait_low_ns\":{},\"queue_wait_high_ns\":{},\"stage_exec_ns\":{},\"fault_ns\":{}}}",
                p.plan,
                p.batch_requests,
                p.rr_requests,
                p.records,
                p.stage_rows,
                p.faults,
                p.quarantined,
                p.queue_wait_low_ns.to_json(),
                p.queue_wait_high_ns.to_json(),
                p.stage_exec_ns.to_json(),
                p.fault_ns.to_json()
            ));
        }
        s.push_str("]}");
        s
    }

    /// Compact fixed-width text rendering (`pretzel-cli stats`-style).
    pub fn render_text(&self) -> String {
        fn hist_line(name: &str, h: &Histogram) -> String {
            format!(
                "  {name:<22} n={:<9} p50={:<9} p99={:<9} max={}\n",
                h.count(),
                h.p50(),
                h.p99(),
                h.max_observed()
            )
        }
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "scheduler: stage_events={} records_done={} steals={}\n",
            self.scheduler.stage_events, self.scheduler.records_done, self.scheduler.steals
        ));
        let pool = |p: &PoolCounters| {
            format!(
                "{}h/{}m/{}r {}B/{}buf",
                p.hits, p.misses, p.released, p.retained_bytes, p.parked
            )
        };
        s.push_str(&format!(
            "pools: exec {}  rr {}  ingest {}\n",
            pool(&self.pools.executor),
            pool(&self.pools.request_response),
            pool(&self.pools.ingest)
        ));
        s.push_str(&format!(
            "lifecycle: deploys={} undeploys={} swaps={} stages_reused={}\n",
            self.lifecycle.deploys,
            self.lifecycle.undeploys,
            self.lifecycle.swaps,
            self.lifecycle.stages_reused
        ));
        s.push_str(&format!(
            "store: objects={} bytes={} reused={} saved={} released={}/{}B\n",
            self.store.unique_objects,
            self.store.unique_bytes,
            self.store.reused,
            self.store.bytes_saved,
            self.store.released,
            self.store.released_bytes
        ));
        if let Some(c) = &self.mat_cache {
            s.push_str(&format!(
                "mat_cache: hits={} misses={} evictions={}\n",
                c.hits, c.misses, c.evictions
            ));
        }
        if let Some(f) = &self.frontend {
            s.push_str(&format!(
                "frontend: open={} accepted={} protocol_errors={} delayed_drops={}\n",
                f.open_connections, f.accepted, f.protocol_errors, self.delayed_drops
            ));
        }
        s.push_str(&hist_line("decode_ns", &self.decode_ns));
        s.push_str(&hist_line("completion_flush_ns", &self.completion_flush_ns));
        s.push_str(&hist_line("cache_probe_hit_ns", &self.cache_probe_hit_ns));
        s.push_str(&hist_line("cache_probe_miss_ns", &self.cache_probe_miss_ns));
        for p in &self.plans {
            let access = self.plan_access(p.plan);
            s.push_str(&format!(
                "plan {}: batch_req={} rr_req={} records={} stage_rows={} faults={}{} accesses={} last_epoch={}\n",
                p.plan,
                p.batch_requests,
                p.rr_requests,
                p.records,
                p.stage_rows,
                p.faults,
                if p.quarantined { " QUARANTINED" } else { "" },
                access.map_or(0, |a| a.accesses),
                access.map_or(0, |a| a.last_access_epoch)
            ));
            s.push_str(&hist_line("queue_wait_low_ns", &p.queue_wait_low_ns));
            s.push_str(&hist_line("queue_wait_high_ns", &p.queue_wait_high_ns));
            s.push_str(&hist_line("stage_exec_ns", &p.stage_exec_ns));
            if p.faults > 0 {
                s.push_str(&hist_line("fault_ns", &p.fault_ns));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for b in 0..HIST_BUCKETS {
            assert!(bucket_lower(b) <= bucket_upper(b));
            assert_eq!(bucket_of(bucket_lower(b)), b);
            assert_eq!(bucket_of(bucket_upper(b)), b);
        }
    }

    #[test]
    fn quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!(h.p50() >= 3);
        assert!(h.p99() >= 100_000);
        assert!(h.max_observed() >= 100_000);
    }

    #[test]
    fn snapshot_roundtrips_through_wire_encoding() {
        let reg = MetricsRegistry::new();
        reg.record_decode(420);
        reg.record_cache_probe(true, 64);
        reg.note_delayed_drops(2);
        let rec = reg.plan_recorder(7);
        rec.note_batch_request();
        rec.record_queue_wait(false, 1_000);
        rec.record_stage(8_000, 16);
        rec.record_fault(2_500);
        let mut snap = reg.snapshot();
        snap.plans[0].quarantined = true;
        snap.mat_cache = Some(MatCacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
        });
        snap.store.plan_access.push(PlanAccessSnapshot {
            plan: 7,
            accesses: 1,
            last_access_epoch: 1,
        });
        snap.pools.ingest.retained_bytes = 4096;
        snap.pools.ingest.parked = 3;
        snap.pools.ingest.released = 5;
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let back = MetricsSnapshot::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.pools.ingest, snap.pools.ingest);
        // A payload from before release counts were reported ends where
        // they now start: it decodes, and they read 0.
        let older = &buf[..buf.len() - 3 * 8];
        let old_back = MetricsSnapshot::decode(&mut Cursor::new(older)).unwrap();
        assert_eq!(old_back.pools.ingest.released, 0);
        assert_eq!(old_back.pools.ingest.parked, 3);
        // Likewise from before pool holdings were reported.
        let oldest = &older[..older.len() - 3 * 16];
        let old_back = MetricsSnapshot::decode(&mut Cursor::new(oldest)).unwrap();
        assert_eq!(old_back.pools.ingest, PoolCounters::default());
        assert_eq!(old_back.plans.len(), 1);
        assert_eq!(back.delayed_drops, 2);
        assert_eq!(back.decode_ns, snap.decode_ns);
        assert_eq!(back.plans.len(), 1);
        assert_eq!(back.plans[0].batch_requests, 1);
        assert_eq!(back.plans[0].stage_rows, 16);
        assert_eq!(back.plans[0].stage_exec_ns, snap.plans[0].stage_exec_ns);
        assert_eq!(back.plans[0].faults, 1);
        assert!(back.plans[0].quarantined);
        assert_eq!(back.plans[0].fault_ns, snap.plans[0].fault_ns);
        assert_eq!(back.plan_access(7).unwrap().accesses, 1);
        assert!(back.to_json().contains("\"plan\":7"));
        assert!(back.to_json().contains("\"faults\":1"));
        assert!(back.render_text().contains("plan 7:"));
        assert!(back.render_text().contains("QUARANTINED"));
    }
}
