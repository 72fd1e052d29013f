//! Lock-free runtime telemetry.
//!
//! The observability counterpart of the execution plane. Every recorder is
//! a set of relaxed atomics — no locks, no allocation on the recording
//! path — and none is split per core: each sees at most one write per
//! request or chunk-stage event. The registry holds one set of the
//! registry-wide recorders (a sample of decodes, completion flushes,
//! delayed-batch drops). A plan's recorder is one set of
//! counters, sized by the plan rather than by the host's core count; each
//! of its histograms is allocated on the first sample, so a histogram the
//! plan's engine never writes costs nothing. Snapshots merge exactly
//! (histogram buckets are plain sums), so one
//! [`MetricsRegistry::snapshot`] folds the whole request lifecycle —
//! FrontEnd decode, per-plan queue wait (low/high), per-stage execution
//! time and rows, pool lease/miss, steals, completion-to-flush — into a
//! single [`MetricsSnapshot`] that also
//! unifies the pre-existing stat structs (`SchedStats`, `LifecycleStats`,
//! pool and Object Store counters).
//!
//! Latency histograms are log2-bucketed: bucket 0 holds the value 0 and
//! bucket `b` holds `[2^(b-1), 2^b)`, so power-of-two boundaries are exact
//! and merge is loss-free. Counters are wrapping-add (`AtomicU64::fetch_add`
//! wraps by definition), so overflow can never panic a recorder.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use pretzel_data::serde_bin::wire::{put_u32, put_u64};
use pretzel_data::serde_bin::Cursor;
use pretzel_data::{DataError, Result};

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
/// [`AtomicHistogram`]s and the value type inside snapshots. It keeps the
/// buckets up to its highest non-empty one — what the `STATS` wire sends —
/// so an empty histogram allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts, up to the highest non-empty bucket.
    buckets: Vec<u64>,
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] = self.buckets[b].wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
    }

    /// Per-bucket sample counts, up to the highest non-empty bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
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
        self.add_counts(&other.buckets, other.sum);
    }

    /// Folds one recorder in (exact: bucket-wise sums).
    fn add_atomic(&mut self, h: &AtomicHistogram) {
        let counts: [u64; HIST_BUCKETS] =
            std::array::from_fn(|b| h.buckets[b].load(Ordering::Relaxed));
        self.add_counts(&counts, h.sum.load(Ordering::Relaxed));
    }

    /// Adds `counts` bucket-wise, growing only to their highest non-empty
    /// bucket.
    fn add_counts(&mut self, counts: &[u64], sum: u64) {
        let used = counts.iter().rposition(|&c| c != 0).map_or(0, |b| b + 1);
        if used > self.buckets.len() {
            self.buckets.resize(used, 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&counts[..used]) {
            *dst = dst.wrapping_add(src);
        }
        self.sum = self.sum.wrapping_add(sum);
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
}

/// A concurrent histogram. Recording is two relaxed wrapping `fetch_add`s;
/// reads happen only at snapshot time.
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

    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        h.add_atomic(self);
        h
    }
}

/// An [`AtomicHistogram`] allocated on its first sample: a histogram its
/// plan's engine never writes costs one pointer.
#[derive(Debug, Default)]
struct LazyHistogram(OnceLock<Box<AtomicHistogram>>);

impl LazyHistogram {
    #[inline]
    fn record(&self, v: u64) {
        self.0.get_or_init(Box::default).record(v);
    }

    fn snapshot(&self) -> Histogram {
        self.0.get().map_or_else(Histogram::new, |h| h.snapshot())
    }
}

/// Per-plan metric set, resolved once per submission (the scheduler clones
/// the `Arc` into each chunk task). One set per plan, not one per core: it
/// is written once per chunk-stage event or request, so its relaxed atomics
/// see little contention, and its size does not grow with the host.
#[derive(Debug, Default)]
pub struct PlanRecorder {
    batch_requests: AtomicU64,
    rr_requests: AtomicU64,
    records: AtomicU64,
    stage_rows: AtomicU64,
    faults: AtomicU64,
    queue_wait_low_ns: LazyHistogram,
    queue_wait_high_ns: LazyHistogram,
    stage_exec_ns: LazyHistogram,
    fault_ns: LazyHistogram,
}

impl PlanRecorder {
    #[inline]
    pub fn note_batch_request(&self) {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn note_rr_request(&self) {
        self.rr_requests.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_records(&self, n: u64) {
        self.records.fetch_add(n, Ordering::Relaxed);
    }

    /// Queue-wait sample for one chunk-stage event, split by the priority
    /// class it waited in (`high` = a started pipeline re-entering).
    #[inline]
    pub fn record_queue_wait(&self, high: bool, ns: u64) {
        if high {
            self.queue_wait_high_ns.record(ns);
        } else {
            self.queue_wait_low_ns.record(ns);
        }
    }

    /// Execution-time + row-count sample for one chunk-stage event.
    #[inline]
    pub fn record_stage(&self, ns: u64, rows: u64) {
        self.stage_exec_ns.record(ns);
        self.stage_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// One contained execution fault: `ns` is the time the faulting
    /// stage/request burned before it panicked (the wasted-work signal
    /// that pairs with the fault rate).
    #[inline]
    pub fn record_fault(&self, ns: u64) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.fault_ns.record(ns);
    }

    fn snapshot(&self, plan: u32) -> PlanMetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PlanMetricsSnapshot {
            plan,
            batch_requests: load(&self.batch_requests),
            rr_requests: load(&self.rr_requests),
            records: load(&self.records),
            stage_rows: load(&self.stage_rows),
            queue_wait_low_ns: self.queue_wait_low_ns.snapshot(),
            queue_wait_high_ns: self.queue_wait_high_ns.snapshot(),
            stage_exec_ns: self.stage_exec_ns.snapshot(),
            faults: load(&self.faults),
            fault_ns: self.fault_ns.snapshot(),
            quarantined: false,
        }
    }
}

/// The runtime's metric plane: one set of registry-wide recorders plus a
/// read-mostly map of per-plan recorders (write-locked only on a plan's
/// first request).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    decode_ns: AtomicHistogram,
    completion_flush_ns: AtomicHistogram,
    delayed_drops: AtomicU64,
    plans: RwLock<HashMap<u32, Arc<PlanRecorder>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The recorder for `plan` (created on first use). Steady state is one
    /// read-lock + hash lookup, amortized over a whole submission.
    pub fn plan_recorder(&self, plan: u32) -> Arc<PlanRecorder> {
        if let Some(rec) = self.plans.read().get(&plan) {
            return Arc::clone(rec);
        }
        let mut w = self.plans.write();
        Arc::clone(w.entry(plan).or_default())
    }

    /// Drops a plan's recorder (undeploy without redeploy).
    pub fn forget_plan(&self, plan: u32) {
        self.plans.write().remove(&plan);
    }

    /// FrontEnd frame-decode latency (wire bytes to engine-ready input).
    #[inline]
    pub fn record_decode(&self, ns: u64) {
        self.decode_ns.record(ns);
    }

    /// Batch-completion to response-flush latency (reactor plane).
    #[inline]
    pub fn record_completion_flush(&self, ns: u64) {
        self.completion_flush_ns.record(ns);
    }

    /// Delayed-batch results dropped because their client disconnected.
    #[inline]
    pub fn note_delayed_drops(&self, n: u64) {
        self.delayed_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// The telemetry-owned part of a snapshot; the runtime then folds in
    /// the stat structs it owns (scheduler, pools, lifecycle, store)
    /// and the FrontEnd overlays its own.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            decode_ns: self.decode_ns.snapshot(),
            completion_flush_ns: self.completion_flush_ns.snapshot(),
            delayed_drops: self.delayed_drops.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        };
        let plans = self.plans.read();
        snap.plans = plans.iter().map(|(&id, rec)| rec.snapshot(id)).collect();
        snap.plans.sort_by_key(|p| p.plan);
        snap
    }
}

/// A snapshot struct's field walk (the STATS schema, below): every field
/// once, in wire and JSON order. [`Encoder`] and [`JsonWriter`] visit it
/// through `put`, [`Decoder`] through `take`.
trait Walk: Sized + Default {
    fn put(&self, sink: &mut impl Sink);
    fn take(source: &mut impl Source) -> Result<Self>;
}

/// A visitor that reads a snapshot, one method per kind of field.
trait Sink: Sized {
    fn u64(&mut self, name: &'static str, v: &u64);
    fn u32(&mut self, name: &'static str, v: &u32);
    fn bool(&mut self, name: &'static str, v: &bool);
    fn hist(&mut self, name: &'static str, h: &Histogram);
    fn section(&mut self, _name: &'static str, s: &impl Walk) {
        s.put(self);
    }
    fn option(&mut self, name: &'static str, s: &Option<impl Walk>);
    fn list(&mut self, name: &'static str, items: &[impl Walk]);
}

/// A visitor that builds a snapshot, one method per kind of field.
trait Source: Sized {
    fn u64(&mut self, name: &'static str) -> Result<u64>;
    fn u32(&mut self, name: &'static str) -> Result<u32>;
    fn bool(&mut self, name: &'static str) -> Result<bool>;
    fn hist(&mut self, name: &'static str) -> Result<Histogram>;
    fn section<T: Walk>(&mut self, _name: &'static str) -> Result<T> {
        T::take(self)
    }
    fn option<T: Walk>(&mut self, name: &'static str) -> Result<Option<T>>;
    fn list<T: Walk>(&mut self, name: &'static str) -> Result<Vec<T>>;
}

/// Declares structs' [`Walk`]s: one `field: kind` per field, `kind`
/// naming the visitor method that codes it. `take` builds the struct as a
/// literal, so a field left out of its walk does not compile.
macro_rules! walk {
    ($($ty:ident { $($field:ident: $kind:ident),+ $(,)? })+) => {$(
        impl Walk for $ty {
            fn put(&self, sink: &mut impl Sink) {
                $(sink.$kind(stringify!($field), &self.$field);)+
            }
            fn take(source: &mut impl Source) -> Result<Self> {
                Ok(Self { $($field: source.$kind(stringify!($field))?,)+ })
            }
        }
    )+};
}

/// One pool family's lease counters and what it holds idle: the answer to
/// "is warming covering the traffic" (`misses`) and to "which pool is
/// holding memory" (`retained_bytes`, `parked`, `class_bytes`).
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
    /// Heap bytes of the family's free lists themselves (each size class's
    /// list capacity): what the free lists cost beside the buffers parked
    /// in them.
    pub class_bytes: u64,
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
            class_bytes: pool.class_bytes() as u64,
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
        self.class_bytes += other.class_bytes;
    }
}

/// Scheduler counters (mirrors `SchedStats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    pub stage_events: u64,
    pub records_done: u64,
    pub steals: u64,
}

/// Lease/miss counters and idle holdings for each pool family.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolsSnapshot {
    /// Aggregated executor pools (shared + reserved); the holdings include
    /// the fallback arena behind them.
    pub executor: PoolCounters,
    /// The request-response engine's registration-warmed pool.
    pub request_response: PoolCounters,
    /// The FrontEnd's wire-ingest assembly pool (zero outside a FrontEnd).
    pub ingest: PoolCounters,
}

/// Lifecycle counters (mirrors `LifecycleStats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleSnapshot {
    pub deploys: u64,
    pub undeploys: u64,
    pub swaps: u64,
    pub stages_reused: u64,
}

/// Object Store counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    pub unique_objects: u64,
    pub unique_bytes: u64,
    pub reused: u64,
    pub bytes_saved: u64,
    pub released: u64,
    pub released_bytes: u64,
}

/// FrontEnd connection counters (present only in STATS served over a
/// FrontEnd; a bare `Runtime::metrics` has no FrontEnd to read).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndSnapshot {
    pub open_connections: u64,
    pub accepted: u64,
    pub refused: u64,
    pub protocol_errors: u64,
}

/// One plan's merged request-lifecycle metrics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
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
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub scheduler: SchedulerSnapshot,
    pub pools: PoolsSnapshot,
    pub lifecycle: LifecycleSnapshot,
    pub store: StoreSnapshot,
    pub frontend: Option<FrontEndSnapshot>,
    pub delayed_drops: u64,
    pub decode_ns: Histogram,
    pub completion_flush_ns: Histogram,
    pub plans: Vec<PlanMetricsSnapshot>,
}

// The STATS schema: every snapshot struct's walk, in wire and JSON order.
walk! {
    MetricsSnapshot {
        scheduler: section, pools: section, lifecycle: section, store: section,
        frontend: option, delayed_drops: u64, decode_ns: hist, completion_flush_ns: hist,
        plans: list,
    }
    SchedulerSnapshot { stage_events: u64, records_done: u64, steals: u64 }
    PoolsSnapshot { executor: section, request_response: section, ingest: section }
    PoolCounters {
        hits: u64, misses: u64, released: u64, retained_bytes: u64, parked: u64, class_bytes: u64,
    }
    LifecycleSnapshot { deploys: u64, undeploys: u64, swaps: u64, stages_reused: u64 }
    StoreSnapshot {
        unique_objects: u64, unique_bytes: u64, reused: u64, bytes_saved: u64, released: u64,
        released_bytes: u64,
    }
    FrontEndSnapshot { open_connections: u64, accepted: u64, refused: u64, protocol_errors: u64 }
    PlanMetricsSnapshot {
        plan: u32, batch_requests: u64, rr_requests: u64, records: u64, stage_rows: u64,
        faults: u64, quarantined: bool, queue_wait_low_ns: hist, queue_wait_high_ns: hist,
        stage_exec_ns: hist, fault_ns: hist,
    }
}

impl MetricsSnapshot {
    /// The per-plan section for `plan`, if any requests were recorded.
    pub fn plan(&self, plan: u32) -> Option<&PlanMetricsSnapshot> {
        self.plans.iter().find(|p| p.plan == plan)
    }

    /// Binary wire encoding (the STATS admin payload): the payload's
    /// length is counted first, so `out` grows once, to fit.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut len = EncodedLen(0);
        self.put(&mut len);
        out.reserve_exact(len.0);
        self.put(&mut Encoder(out));
    }

    /// Decodes a STATS payload (the client side of [`Self::encode`]); the
    /// payload must fill the rest of `cur`.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let snap = Self::take(&mut Decoder(cur))?;
        match cur.remaining() {
            0 => Ok(snap),
            n => Err(DataError::Codec(format!("{n} bytes after the snapshot"))),
        }
    }

    /// JSON rendering: every section an object, an absent one `null`, a
    /// histogram its count, sum, mean, p50, p99 and max.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter(String::with_capacity(1024));
        w.object(self);
        w.0
    }
}

/// The STATS encoder: little-endian fixed-width fields, a presence byte
/// before an optional section, a `u32` count before a list, and a
/// histogram as its buckets up to the last non-empty one (count first)
/// followed by its sum.
struct Encoder<'a>(&'a mut Vec<u8>);

impl Sink for Encoder<'_> {
    fn u64(&mut self, _: &'static str, v: &u64) {
        put_u64(self.0, *v);
    }

    fn u32(&mut self, _: &'static str, v: &u32) {
        put_u32(self.0, *v);
    }

    fn bool(&mut self, _: &'static str, v: &bool) {
        self.0.push(*v as u8);
    }

    fn hist(&mut self, _: &'static str, h: &Histogram) {
        put_u32(self.0, h.buckets.len() as u32);
        for &c in &h.buckets {
            put_u64(self.0, c);
        }
        put_u64(self.0, h.sum);
    }

    fn option(&mut self, _: &'static str, s: &Option<impl Walk>) {
        self.0.push(s.is_some() as u8);
        if let Some(s) = s {
            s.put(self);
        }
    }

    fn list(&mut self, _: &'static str, items: &[impl Walk]) {
        put_u32(self.0, items.len() as u32);
        for item in items {
            item.put(self);
        }
    }
}

/// Counts the bytes [`Encoder`] writes for the same walk.
struct EncodedLen(usize);

impl Sink for EncodedLen {
    fn u64(&mut self, _: &'static str, _: &u64) {
        self.0 += 8;
    }

    fn u32(&mut self, _: &'static str, _: &u32) {
        self.0 += 4;
    }

    fn bool(&mut self, _: &'static str, _: &bool) {
        self.0 += 1;
    }

    fn hist(&mut self, _: &'static str, h: &Histogram) {
        self.0 += 4 + 8 * h.buckets.len() + 8;
    }

    fn option(&mut self, _: &'static str, s: &Option<impl Walk>) {
        self.0 += 1;
        if let Some(s) = s {
            s.put(self);
        }
    }

    fn list(&mut self, _: &'static str, items: &[impl Walk]) {
        self.0 += 4;
        for item in items {
            item.put(self);
        }
    }
}

/// The STATS decoder, the encoder's inverse. Short bytes, a flag other
/// than 0 or 1 and more histogram buckets than exist are
/// [`DataError::Codec`] errors. A count is checked against the bytes left
/// before anything is reserved for it — a list's items take at least the
/// encoding of a default item each — so a list is allocated once at its
/// size, and a count the bytes cannot hold allocates nothing.
struct Decoder<'c, 'a>(&'c mut Cursor<'a>);

impl Decoder<'_, '_> {
    /// Fails unless the bytes left can hold `n` items of `min_bytes` each.
    fn check_room(&self, name: &str, n: usize, min_bytes: usize) -> Result<()> {
        let left = self.0.remaining();
        if n.saturating_mul(min_bytes) > left {
            return Err(DataError::Codec(format!(
                "`{name}` announces {n} items of {min_bytes}+ bytes, {left} bytes left"
            )));
        }
        Ok(())
    }
}

/// Bytes of the smallest encoding of a `T`: its default's (every number
/// fixed-width, every histogram and list empty, every option absent).
fn min_encoded<T: Walk>() -> usize {
    let mut buf = Vec::new();
    T::default().put(&mut Encoder(&mut buf));
    buf.len()
}

impl Source for Decoder<'_, '_> {
    fn u64(&mut self, _: &'static str) -> Result<u64> {
        self.0.u64()
    }

    fn u32(&mut self, _: &'static str) -> Result<u32> {
        self.0.u32()
    }

    fn bool(&mut self, name: &'static str) -> Result<bool> {
        match self.0.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DataError::Codec(format!("`{name}` flag byte is {b}"))),
        }
    }

    fn hist(&mut self, name: &'static str) -> Result<Histogram> {
        let used = self.0.u32()? as usize;
        if used > HIST_BUCKETS {
            return Err(DataError::Codec(format!(
                "`{name}` bucket count {used} exceeds {HIST_BUCKETS}"
            )));
        }
        self.check_room(name, used + 1, 8)?;
        let mut buckets = Vec::with_capacity(used);
        for _ in 0..used {
            buckets.push(self.0.u64()?);
        }
        // The encoder sends none, but a trailing empty bucket must not make
        // two equal histograms compare unequal.
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Ok(Histogram {
            buckets,
            sum: self.0.u64()?,
        })
    }

    fn option<T: Walk>(&mut self, name: &'static str) -> Result<Option<T>> {
        self.bool(name)?.then(|| T::take(self)).transpose()
    }

    fn list<T: Walk>(&mut self, name: &'static str) -> Result<Vec<T>> {
        let n = self.0.u32()? as usize;
        self.check_room(name, n, min_encoded::<T>())?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(self)?);
        }
        Ok(items)
    }
}

/// The JSON writer (hand-rolled; the repo carries no serde).
struct JsonWriter(String);

impl JsonWriter {
    /// A comma, unless a member or item is the first of its object or list.
    fn sep(&mut self) {
        if !self.0.ends_with(['{', '[']) {
            self.0.push(',');
        }
    }

    fn key(&mut self, name: &str) {
        self.sep();
        let _ = write!(self.0, "\"{name}\":");
    }

    fn scalar(&mut self, name: &str, v: impl std::fmt::Display) {
        self.key(name);
        let _ = write!(self.0, "{v}");
    }

    fn object(&mut self, s: &impl Walk) {
        self.0.push('{');
        s.put(self);
        self.0.push('}');
    }
}

impl Sink for JsonWriter {
    fn u64(&mut self, name: &'static str, v: &u64) {
        self.scalar(name, v);
    }

    fn u32(&mut self, name: &'static str, v: &u32) {
        self.scalar(name, v);
    }

    fn bool(&mut self, name: &'static str, v: &bool) {
        self.scalar(name, v);
    }

    fn hist(&mut self, name: &'static str, h: &Histogram) {
        self.key(name);
        let _ = write!(
            self.0,
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            h.count(),
            h.sum,
            h.mean(),
            h.p50(),
            h.p99(),
            h.max_observed()
        );
    }

    fn section(&mut self, name: &'static str, s: &impl Walk) {
        self.key(name);
        self.object(s);
    }

    fn option(&mut self, name: &'static str, s: &Option<impl Walk>) {
        match s {
            Some(s) => self.section(name, s),
            None => self.scalar(name, "null"),
        }
    }

    fn list(&mut self, name: &'static str, items: &[impl Walk]) {
        self.key(name);
        self.0.push('[');
        for item in items {
            self.sep();
            self.object(item);
        }
        self.0.push(']');
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
    fn histograms_hold_buckets_up_to_their_highest_sample() {
        let empty = Histogram::new();
        assert_eq!(
            empty.buckets.capacity(),
            0,
            "an empty histogram allocates nothing"
        );
        let mut h = Histogram::new();
        h.record(1000); // bucket 10
        h.record(3);
        assert_eq!(h.buckets().len(), 11);
        let mut merged = Histogram::new();
        merged.merge(&h);
        merged.merge(&Histogram::new());
        assert_eq!(merged, h);
        // An atomic recorder's snapshot is trimmed the same way.
        let atomic = AtomicHistogram::default();
        assert_eq!(atomic.snapshot(), Histogram::new());
        atomic.record(1000);
        atomic.record(3);
        assert_eq!(atomic.snapshot(), h);
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused_up_front() {
        let (_, buf) = filled();
        // The plan list's count is the last u32 before its first plan;
        // find it by re-encoding the snapshot without plans.
        let (mut snap, _) = filled();
        snap.plans.clear();
        let mut head = Vec::new();
        snap.encode(&mut head);
        let at = head.len() - 4;
        assert_eq!(buf[at..at + 4], 2u32.to_le_bytes());
        let mut bad = buf.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = MetricsSnapshot::decode(&mut Cursor::new(&bad)).unwrap_err();
        assert!(
            matches!(&err, DataError::Codec(m) if m.contains("`plans` announces")),
            "{err:?}"
        );
    }

    /// Gives every field of a walk a distinct value (a flag alternates):
    /// every optional section is present and every list holds two items.
    struct Filler(u64);

    impl Source for Filler {
        fn u64(&mut self, _: &'static str) -> Result<u64> {
            self.0 += 1;
            Ok(self.0)
        }

        fn u32(&mut self, name: &'static str) -> Result<u32> {
            Ok(self.u64(name)? as u32)
        }

        fn bool(&mut self, name: &'static str) -> Result<bool> {
            Ok(self.u64(name)? % 2 == 1)
        }

        fn hist(&mut self, name: &'static str) -> Result<Histogram> {
            let mut h = Histogram::new();
            h.record(self.u64(name)?);
            h.record(self.u64(name)? << 40);
            Ok(h)
        }

        fn option<T: Walk>(&mut self, _: &'static str) -> Result<Option<T>> {
            T::take(self).map(Some)
        }

        fn list<T: Walk>(&mut self, _: &'static str) -> Result<Vec<T>> {
            (0..2).map(|_| T::take(self)).collect()
        }
    }

    fn filled() -> (MetricsSnapshot, Vec<u8>) {
        let snap = MetricsSnapshot::take(&mut Filler(0)).unwrap();
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        (snap, buf)
    }

    #[test]
    fn every_field_survives_the_wire() {
        let (snap, buf) = filled();
        assert_eq!(snap.plans.len(), 2);
        assert!(snap.frontend.is_some());
        assert_ne!(snap.plans[0].quarantined, snap.plans[1].quarantined);
        let back = MetricsSnapshot::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn the_payload_is_sized_before_it_is_written() {
        for snap in [filled().0, MetricsSnapshot::default()] {
            let mut len = EncodedLen(0);
            snap.put(&mut len);
            let mut buf = Vec::new();
            snap.encode(&mut buf);
            assert_eq!(len.0, buf.len());
            assert_eq!(buf.capacity(), buf.len(), "grown once, to fit");
        }
    }

    #[test]
    fn cut_or_padded_payloads_are_codec_errors() {
        let (_, mut buf) = filled();
        for cut in 0..buf.len() {
            let err = MetricsSnapshot::decode(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, DataError::Codec(_)), "cut at {cut}: {err:?}");
        }
        buf.push(0);
        let err = MetricsSnapshot::decode(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, DataError::Codec(_)), "{err:?}");
    }

    /// A fixed snapshot: two plans and no FrontEnd.
    fn golden_snapshot() -> MetricsSnapshot {
        let hist = |samples: &[u64]| {
            let mut h = Histogram::new();
            for &v in samples {
                h.record(v);
            }
            h
        };
        MetricsSnapshot {
            scheduler: SchedulerSnapshot {
                stage_events: 11,
                records_done: 12,
                steals: 13,
            },
            pools: PoolsSnapshot {
                executor: PoolCounters {
                    hits: 21,
                    misses: 22,
                    released: 23,
                    retained_bytes: 24,
                    parked: 25,
                    class_bytes: 26,
                },
                ingest: PoolCounters {
                    misses: 31,
                    ..Default::default()
                },
                ..Default::default()
            },
            lifecycle: LifecycleSnapshot {
                deploys: 41,
                undeploys: 42,
                swaps: 43,
                stages_reused: 44,
            },
            store: StoreSnapshot {
                unique_objects: 51,
                unique_bytes: 52,
                reused: 53,
                bytes_saved: 54,
                released: 55,
                released_bytes: 56,
            },
            frontend: None,
            delayed_drops: 71,
            decode_ns: hist(&[0, 1, 900, 4096]),
            completion_flush_ns: hist(&[1 << 40]),
            plans: vec![
                PlanMetricsSnapshot {
                    plan: 3,
                    rr_requests: 103,
                    stage_exec_ns: hist(&[250, 260, 70_000]),
                    ..Default::default()
                },
                PlanMetricsSnapshot {
                    plan: 9,
                    batch_requests: 109,
                    records: 2048,
                    stage_rows: 4096,
                    queue_wait_low_ns: hist(&[5_000]),
                    queue_wait_high_ns: hist(&[7, 8]),
                    faults: 2,
                    fault_ns: hist(&[123_456, 3]),
                    quarantined: true,
                    ..Default::default()
                },
            ],
        }
    }

    /// The JSON readers parse: key names, key order, `null` for an absent
    /// section and each histogram's summary.
    #[test]
    fn json_rendering_is_pinned() {
        let golden = concat!(
            r#"{"scheduler":{"stage_events":11,"records_done":12,"steals":13},"#,
            r#""pools":{"executor":{"hits":21,"misses":22,"released":23,"retained_bytes":24,"#,
            r#""parked":25,"class_bytes":26},"request_response":{"hits":0,"misses":0,"#,
            r#""released":0,"retained_bytes":0,"parked":0,"class_bytes":0},"ingest":{"hits":0,"#,
            r#""misses":31,"released":0,"retained_bytes":0,"parked":0,"class_bytes":0}},"#,
            r#""lifecycle":{"deploys":41,"undeploys":42,"#,
            r#""swaps":43,"stages_reused":44},"store":{"unique_objects":51,"unique_bytes":52,"#,
            r#""reused":53,"bytes_saved":54,"released":55,"released_bytes":56},"#,
            r#""frontend":null,"#,
            r#""delayed_drops":71,"decode_ns":{"count":4,"sum":4997,"mean":1249,"p50":1,"#,
            r#""p99":8191,"max":8191},"completion_flush_ns":{"count":1,"sum":1099511627776,"#,
            r#""mean":1099511627776,"p50":2199023255551,"p99":2199023255551,"#,
            r#""max":2199023255551},"plans":[{"plan":3,"batch_requests":0,"rr_requests":103,"#,
            r#""records":0,"stage_rows":0,"faults":0,"quarantined":false,"#,
            r#""queue_wait_low_ns":{"count":0,"sum":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
            r#""queue_wait_high_ns":{"count":0,"sum":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
            r#""stage_exec_ns":{"count":3,"sum":70510,"mean":23503,"p50":511,"p99":131071,"#,
            r#""max":131071},"fault_ns":{"count":0,"sum":0,"mean":0,"p50":0,"p99":0,"#,
            r#""max":0}},{"plan":9,"batch_requests":109,"rr_requests":0,"records":2048,"#,
            r#""stage_rows":4096,"faults":2,"quarantined":true,"queue_wait_low_ns":{"count":1,"#,
            r#""sum":5000,"mean":5000,"p50":8191,"p99":8191,"max":8191},"#,
            r#""queue_wait_high_ns":{"count":2,"sum":15,"mean":7,"p50":7,"p99":15,"max":15},"#,
            r#""stage_exec_ns":{"count":0,"sum":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
            r#""fault_ns":{"count":2,"sum":123459,"mean":61729,"p50":3,"p99":131071,"#,
            r#""max":131071}}]}"#,
        );
        assert_eq!(golden_snapshot().to_json(), golden);
    }
}
