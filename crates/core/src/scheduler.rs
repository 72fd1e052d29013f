//! Event-based scheduling of physical stages over shared executors.
//!
//! "Each core runs an Executor instance whereby all Executors pull work
//! from a shared pair of queues: one low priority queue for newly submitted
//! plans, and one high priority queue for already started stages. ...
//! Two priority queues allow started pipelines to be scheduled earlier and
//! therefore return memory quickly" (paper §4.2.2).
//!
//! The unit of scheduling is a *chunk event*: `(plan, records[a..b],
//! stage k)`. Executing it runs stage `k` over the whole chunk with the
//! batch kernels and re-enqueues `(…, stage k+1)` at high priority; the
//! final stage writes results and releases the chunk's working set — one
//! [`ColumnBatch`] per plan slot — back to its pool. Working sets are
//! leased lazily when a chunk's first stage runs, per the paper ("vectors
//! are requested per pipeline and lazily fulfilled when a pipeline's first
//! stage is being evaluated").
//!
//! **The execution plane.** Each executor owns its own `DualQueue` and
//! vector-pool arena; submissions round-robin chunks across the worker
//! queues, and a worker whose own queue is empty *steals*: one scan of the
//! other queues, starting one victim further on each time, taking from
//! each victim its low queue (stage-0 chunks whose working sets the thief
//! leases from its **own** arena) before its high queue (started chunks
//! whose buffers live in the victim's arena and go home to it when the
//! thief retires them). Stolen chunks re-enter the *thief's* queue for
//! later stages, so a chunk migrates at most once per dry spell. A worker
//! that finds nothing anywhere sleeps until a submission wakes it
//! (`Sleepers`): an idle executor costs no CPU.
//!
//! **Batch completion** is one lock and one condvar per batch
//! (`BatchState`): a retiring chunk writes its scores (or the batch's
//! first error) and counts itself down under the lock, and the last one
//! marks the batch done there; waiters sleep on the condvar, and a
//! registered completion callback runs exactly once.
//!
//! **Reservation-based scheduling**: a plan may reserve its own executor
//! (and vector pool) — a one-worker plane of its own, outside every other
//! worker's steal set — so its events bypass the shared queues entirely,
//! emulating container-style isolation while still sharing parameters
//! (paper §4.2.2).

use crate::clock::Clock;
use crate::lifecycle::GatePass;
use crate::physical::{ExecCtx, ModelPlan, SourceRef};
use crate::telemetry::{MetricsRegistry, PlanRecorder, PoolCounters};
use parking_lot::{Condvar, Mutex};
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, DataError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One prediction request record: what the scheduler runs and what a
/// [`crate::frontend::PredictRequest`] sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A text line (CSV payload).
    Text(String),
    /// A dense numeric record.
    Dense(Vec<f32>),
    /// A sparse numeric record (pre-featurized payload).
    Sparse {
        /// Sorted, unique element indices.
        indices: Vec<u32>,
        /// Values parallel to `indices`.
        values: Vec<f32>,
        /// Logical dimensionality.
        dim: u32,
    },
}

impl Record {
    /// Borrows the record as a [`SourceRef`].
    pub fn as_source(&self) -> SourceRef<'_> {
        match self {
            Record::Text(s) => SourceRef::Text(s),
            Record::Dense(x) => SourceRef::Dense(x),
            Record::Sparse {
                indices,
                values,
                dim,
            } => SourceRef::Sparse {
                indices,
                values,
                dim: *dim,
            },
        }
    }
}

/// A whole request's source rows assembled into one [`ColumnBatch`]
/// (wire-to-columnar ingest).
///
/// The scheduler's chunks share this read-only; when the last chunk drops
/// its reference, the batch buffer returns to its *home* pool (the
/// FrontEnd's ingest pool), so wire-assembled buffers recirculate instead
/// of draining the pool one request at a time.
#[derive(Debug)]
pub struct AssembledBatch {
    rows: ColumnBatch,
    home: Option<Arc<VectorPool>>,
}

impl AssembledBatch {
    /// Wraps assembled rows; `home` is the pool the batch buffer returns to
    /// when the request completes.
    pub fn new(rows: ColumnBatch, home: Option<Arc<VectorPool>>) -> Self {
        AssembledBatch { rows, home }
    }

    /// The assembled source rows.
    pub fn rows(&self) -> &ColumnBatch {
        &self.rows
    }

    /// Number of assembled rows.
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// True if the request holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Drop for AssembledBatch {
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            pool.release_batch(std::mem::replace(
                &mut self.rows,
                ColumnBatch::Scalar(Vec::new()),
            ));
        }
    }
}

/// Continuation invoked when a batch's last chunk completes (the reactor
/// FrontEnd's completion routing — no thread blocks on the handle).
type CompletionFn = Box<dyn FnOnce(Result<Vec<f32>>) + Send + 'static>;

/// Shared state of one in-flight batch request: one lock over everything
/// its chunks write and its handle reads, and one condvar its waiter sleeps
/// on. [`complete_chunk`] documents the protocol.
struct BatchState {
    inner: Mutex<BatchInner>,
    done: Condvar,
}

/// What [`BatchState`]'s lock guards.
struct BatchInner {
    results: Vec<f32>,
    /// The first error any chunk reported; it wins over the scores.
    error: Option<DataError>,
    /// Chunks not yet retired.
    remaining: usize,
    /// The submission's hold on its plan's lifecycle gate, released when
    /// the last chunk retires — `undeploy` drains against exactly this.
    gate: Option<GatePass>,
    /// Registered by [`BatchHandle::on_complete`] while the batch is not
    /// done; taken and run by the chunk that completes it.
    watcher: Option<CompletionFn>,
    done: bool,
}

impl std::fmt::Debug for BatchState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BatchState")
            .field("remaining", &inner.remaining)
            .field("done", &inner.done)
            .finish()
    }
}

impl BatchInner {
    /// Takes the final outcome: the first error if any chunk failed, the
    /// scores otherwise. Call only once `done` is set.
    fn harvest(&mut self) -> Result<Vec<f32>> {
        match self.error.take() {
            Some(err) => Err(err),
            None => Ok(std::mem::take(&mut self.results)),
        }
    }
}

/// Handle for awaiting a submitted batch.
#[derive(Debug)]
pub struct BatchHandle {
    state: Arc<BatchState>,
}

impl BatchHandle {
    /// Blocks until every chunk completed; returns the per-record scores.
    pub fn wait(self) -> Result<Vec<f32>> {
        let mut inner = self.state.inner.lock();
        while !inner.done {
            self.state.done.wait(&mut inner);
        }
        inner.harvest()
    }

    /// Registers a continuation invoked (once, from the executor thread
    /// that completes the last chunk) with the batch's outcome — the
    /// non-blocking alternative to [`Self::wait`] that lets a reactor
    /// route completions back to itself instead of parking a thread per
    /// in-flight request. If the batch already completed, `f` runs
    /// immediately on the caller.
    pub fn on_complete(self, f: impl FnOnce(Result<Vec<f32>>) + Send + 'static) {
        let mut inner = self.state.inner.lock();
        if !inner.done {
            inner.watcher = Some(Box::new(f));
            return;
        }
        let outcome = inner.harvest();
        drop(inner);
        f(outcome);
    }
}

/// Telemetry riding on a chunk event: the plan's recorder (resolved once
/// per submission) plus the enqueue instant and priority class of the
/// *current* wait, re-stamped on every re-enqueue.
struct TaskMeter {
    rec: Arc<PlanRecorder>,
    enqueued_at: Instant,
    /// True once the chunk re-enters at high priority (started pipeline).
    high: bool,
}

/// A chunk event: one contiguous range of a batch at one stage.
struct ChunkTask {
    /// Per-plan telemetry recorder + queue-wait stamp.
    meter: TaskMeter,
    /// The plan's runtime id, carried so a contained fault can be
    /// attributed to the plan (fault hook + quarantine policy).
    plan_id: u32,
    plan: Arc<ModelPlan>,
    input: Arc<AssembledBatch>,
    range: (usize, usize),
    stage: usize,
    /// Working set — one [`ColumnBatch`] per plan slot for the whole chunk
    /// — leased lazily at the chunk's first stage.
    working: Option<Vec<ColumnBatch>>,
    /// Pool the working set came from (returned there on completion).
    lease_pool: Option<Arc<VectorPool>>,
    state: Arc<BatchState>,
}

/// One executor's pair of priority queues.
#[derive(Debug, Default)]
struct QueueInner {
    high: VecDeque<ChunkTask>,
    low: VecDeque<ChunkTask>,
    closed: bool,
}

impl std::fmt::Debug for ChunkTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkTask")
            .field("range", &self.range)
            .field("stage", &self.stage)
            .finish()
    }
}

/// Aligned to a cache line: a plane's queues sit side by side, and each
/// worker locks its own on every push and pop.
#[derive(Debug, Default)]
#[repr(align(64))]
struct DualQueue {
    inner: Mutex<QueueInner>,
}

impl DualQueue {
    fn push_high(&self, t: ChunkTask) {
        self.inner.lock().high.push_back(t);
    }

    /// Enqueues at low priority unless the queue was closed, in which case
    /// the task is handed back.
    fn try_push_low(&self, t: ChunkTask) -> Option<ChunkTask> {
        let mut g = self.inner.lock();
        if g.closed {
            return Some(t);
        }
        g.low.push_back(t);
        None
    }

    /// Owner pop: the high-priority queue (started pipelines) first.
    fn try_pop(&self) -> Option<ChunkTask> {
        let mut g = self.inner.lock();
        if let Some(t) = g.high.pop_front() {
            return Some(t);
        }
        g.low.pop_front()
    }

    /// Steals one event for another worker. Priority is *inverted*
    /// relative to the owner: the low queue first — a stage-0 chunk has no
    /// working set yet, so the thief leases from its own arena and keeps
    /// locality — falling back to a started chunk, whose buffers return to
    /// the victim's arena (a cross-core return is a plain release there).
    fn steal(&self) -> Option<ChunkTask> {
        let mut g = self.inner.lock();
        if let Some(t) = g.low.pop_front() {
            return Some(t);
        }
        g.high.pop_front()
    }

    /// True when the queue is closed *and* drained — the owner's signal to
    /// exit (its queue can no longer grow: submissions stop before close,
    /// and workers only re-push to their own queue).
    fn is_finished(&self) -> bool {
        let g = self.inner.lock();
        g.closed && g.high.is_empty() && g.low.is_empty()
    }

    fn close(&self) {
        self.inner.lock().closed = true;
    }
}

/// Upper bound on one sleep of an idle worker. Nothing depends on
/// it for progress — a submission wakes a sleeper — it is the "every wait
/// is bounded" net under a wake-up lost to a bug. Unit tests stretch it so
/// that they cannot pass by falling into the net.
const SAFETY_PARK: std::time::Duration = if cfg!(test) {
    std::time::Duration::from_secs(10)
} else {
    std::time::Duration::from_millis(20)
};

/// Where a plane's dry workers sleep, and how submitters wake them.
///
/// A worker that found nothing announces itself ([`Self::announce`]),
/// scans **every** queue once more, and only then sleeps; a submitter
/// pushes first and checks for announced sleepers second. Whichever order
/// the two interleave in, either the worker's scan sees the push or the
/// submitter sees the announcement (both sides use `SeqCst`, and queue
/// pushes and scans go through the queue's mutex). A wake that lands
/// between a worker's scan and its sleep is not lost either: it moves
/// `epoch`, and the worker sleeps only while `epoch` is what it read when
/// it announced. Aligned to a cache line, apart from the submitters'
/// round-robin counter beside it in [`Plane`].
#[derive(Debug, Default)]
#[repr(align(64))]
struct Sleepers {
    /// Workers between [`Self::announce`] and the end of their sleep.
    announced: AtomicUsize,
    /// Wake-ups issued so far; written under `lock`.
    epoch: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Sleepers {
    /// Registers the calling worker as about to sleep; returns the epoch
    /// to hand to [`Self::sleep`]. Must be followed by exactly one
    /// [`Self::sleep`] or [`Self::retract`].
    fn announce(&self) -> u64 {
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.announced.fetch_add(1, Ordering::SeqCst);
        epoch
    }

    /// Takes back an announcement: the post-announcement scan found work.
    fn retract(&self) {
        self.announced.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sleeps until a wake-up issued after the matching
    /// [`Self::announce`], or [`SAFETY_PARK`].
    fn sleep(&self, announced_at: u64) {
        let mut g = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) == announced_at {
            self.cv.wait_for(&mut g, SAFETY_PARK);
        }
        drop(g);
        self.retract();
    }

    /// Wakes one sleeper if any worker has announced itself; called after
    /// the work it should find is already in a queue.
    fn wake_one(&self) {
        if self.announced.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock();
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper (shutdown).
    fn wake_all(&self) {
        let _g = self.lock.lock();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Scheduler counters exposed to benchmarks and tests.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Stage events executed.
    pub stage_events: AtomicU64,
    /// Records fully scored.
    pub records_done: AtomicU64,
    /// Chunk events taken from another worker's queue.
    pub steals: AtomicU64,
}

/// One plan's reserved executor: its one-worker plane, pool and thread
/// handle, so [`Scheduler::unreserve`] can close the plane and join the
/// thread, and deploy-time warming can reach the pool.
#[derive(Debug)]
struct ReservedExec {
    plane: Arc<Plane>,
    pool: Arc<VectorPool>,
    handle: JoinHandle<()>,
}

/// How many working sets deploy-time warming keeps parked per executor
/// pool, per size class.
///
/// The bound it covers: leases outstanding from one arena, per class, are
/// at most the chunks that leased from it and have not retired, times the
/// buffers of that class one chunk leases ([`ModelPlan::working_set`]). An
/// executor leases only when it runs a chunk's stage 0, and it pops its
/// high queue — where it parked the chunk it last ran — before anything
/// else, so it starts a second chunk only after the first retired or was
/// stolen from that queue; every started chunk is thus either running on
/// an executor or is the one entry of that executor's high queue, and
/// there are never more started chunks than executors. Two sets cover the
/// chunk an executor is running plus one stolen from it, which is every
/// case on two executors and every common one on more (steals take
/// unstarted chunks first). Past that — several thieves in a row emptying
/// one victim's high queue — a lease refills from the fallback arena or
/// misses, and the buffer it allocated parks in the arena on return, so
/// the class grows to what the traffic needed and stays there; the number
/// of deployed plans never enters. A plan nobody is scoring costs no pool
/// bytes of its own; the classes only a retired plan used keep at most
/// what was parked in them (≤ 128 classes per arena, ≤ the class cap
/// each).
const WARM_WORKING_SETS: usize = 2;

/// Construction parameters of a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Executor thread count.
    pub n_executors: usize,
    /// Pool (vs allocate) working-set buffers.
    pub pooling: bool,
    /// Records per chunk event.
    pub chunk_size: usize,
    /// Telemetry plane: per-plan queue-wait and stage-execution recording.
    pub telemetry: Arc<MetricsRegistry>,
    /// The clock those recordings read.
    pub clock: Clock,
}

/// Callback invoked on the faulting executor's thread after a panic was
/// contained: receives the faulting plan's id. The runtime installs its
/// fault policy here (sliding-window counting → quarantine → alias
/// rollback); the scheduler itself only contains and attributes.
pub type FaultHook = Arc<dyn Fn(u32) + Send + Sync>;

/// The hook cell shared between the scheduler handle and its executor
/// threads. A cell (rather than a constructor argument) because the
/// runtime builds the scheduler before the policy state the hook captures;
/// set once, it is read without a lock.
#[derive(Clone, Default)]
struct FaultHookCell(Arc<OnceLock<FaultHook>>);

impl std::fmt::Debug for FaultHookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHookCell")
    }
}

/// What every executor thread shares with the scheduler handle.
#[derive(Debug, Clone)]
struct ExecEnv {
    stats: Arc<SchedStats>,
    /// Telemetry registry shared with the runtime.
    telemetry: Arc<MetricsRegistry>,
    /// The runtime's clock: queue-wait and stage stamps.
    clock: Clock,
    /// Fault-policy callback cell.
    fault_hook: FaultHookCell,
    /// Buffers executors keep leased in their chunk frames between tasks
    /// (see [`Scheduler::pool_outstanding`]).
    held: Arc<AtomicI64>,
}

/// A set of executors that share work: one queue pair per executor,
/// chunks round-robin across them and dry workers steal from each other.
/// The scheduler runs one plane for unreserved plans and a one-worker plane
/// per reservation.
#[derive(Debug)]
struct Plane {
    workers: Vec<DualQueue>,
    next: AtomicUsize,
    sleepers: Sleepers,
}

impl Plane {
    /// Starts one worker thread per pool, the `i`-th named `name(i)`.
    fn spawn(
        pools: &[Arc<VectorPool>],
        name: impl Fn(usize) -> String,
        env: &ExecEnv,
    ) -> (Arc<Plane>, Vec<JoinHandle<()>>) {
        let plane = Arc::new(Plane {
            workers: pools.iter().map(|_| DualQueue::default()).collect(),
            next: AtomicUsize::new(0),
            sleepers: Sleepers::default(),
        });
        let handles = pools
            .iter()
            .enumerate()
            .map(|(i, pool)| {
                let (plane, pool, env) = (Arc::clone(&plane), Arc::clone(pool), env.clone());
                std::thread::Builder::new()
                    .name(name(i))
                    .spawn(move || worker_loop(i, &plane, pool, env))
                    .expect("spawn executor")
            })
            .collect();
        (plane, handles)
    }

    /// Enqueues a new chunk at low priority, or hands it back if the plane
    /// was closed (a reservation's plane closes when its plan is
    /// unreserved; its executor may already have exited).
    fn try_push_low(&self, t: ChunkTask) -> Option<ChunkTask> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        let rejected = self.workers[i].try_push_low(t);
        if rejected.is_none() {
            // Whoever owns queue `i` may be busy: any sleeper can steal
            // the chunk.
            self.sleepers.wake_one();
        }
        rejected
    }

    fn close(&self) {
        for q in &self.workers {
            q.close();
        }
        self.sleepers.wake_all();
    }
}

/// The stage scheduler: executors, run queues, reservations.
#[derive(Debug)]
pub struct Scheduler {
    plane: Arc<Plane>,
    executors: Vec<JoinHandle<()>>,
    /// The per-executor pools, kept visible so deploy-time plan warming
    /// can pre-lease working sets ("allocated per Executor to improve
    /// locality", paper §4.2.1 — warming fills each executor's own pool).
    exec_pools: Vec<Arc<VectorPool>>,
    /// The shared arena behind every per-core arena (`None` with pooling
    /// off): arena-dry acquires refill from it, arena-full releases spill
    /// to it.
    fallback_pool: Option<Arc<VectorPool>>,
    reserved: Mutex<std::collections::HashMap<u32, ReservedExec>>,
    chunk_size: usize,
    env: ExecEnv,
}

impl Scheduler {
    /// Starts the executor threads described by `cfg`: each owns a run
    /// queue and a pool arena fronting one shared fallback arena
    /// (see the module docs for the steal policy). A chunk event runs one
    /// stage of its plan's program over the chunk's columnar working set
    /// ([`ModelPlan::execute_stage_batch`]): whole-chunk batch kernels.
    pub fn with_config(cfg: SchedulerConfig) -> Self {
        let fallback_pool = cfg.pooling.then(|| Arc::new(VectorPool::arena()));
        let exec_pools: Vec<Arc<VectorPool>> = (0..cfg.n_executors.max(1))
            .map(|_| Arc::new(build_pool(fallback_pool.as_ref())))
            .collect();
        let env = ExecEnv {
            stats: Arc::default(),
            telemetry: cfg.telemetry,
            clock: cfg.clock,
            fault_hook: FaultHookCell::default(),
            held: Arc::default(),
        };
        let (plane, executors) = Plane::spawn(&exec_pools, |i| format!("pretzel-exec-{i}"), &env);
        Scheduler {
            plane,
            executors,
            exec_pools,
            fallback_pool,
            reserved: Mutex::default(),
            chunk_size: cfg.chunk_size.max(1),
            env,
        }
    }

    /// Installs the fault-policy callback invoked (on the faulting
    /// executor's thread) each time a panic is contained, with the
    /// faulting plan's id. The first hook installed stays: a later call
    /// is ignored.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        let _ = self.env.fault_hook.0.set(hook);
    }

    /// Scheduler counters.
    pub fn stats(&self) -> &SchedStats {
        &self.env.stats
    }

    /// Reserves a dedicated executor (with its own pool and queue) for
    /// `plan_id`. Parameters and physical stages remain shared.
    pub fn reserve(&self, plan_id: u32) {
        self.reserved.lock().entry(plan_id).or_insert_with(|| {
            let pool = Arc::new(build_pool(self.fallback_pool.as_ref()));
            let (plane, mut handles) = Plane::spawn(
                std::slice::from_ref(&pool),
                |_| format!("pretzel-reserved-{plan_id}"),
                &self.env,
            );
            let handle = handles.pop().expect("one worker per pool");
            ReservedExec {
                plane,
                pool,
                handle,
            }
        });
    }

    /// Deploy-time plan warming for the batch engine: tops the pools that
    /// will actually serve `plan_id` — its dedicated pool when the plan is
    /// reserved, the shared executor pools otherwise — up to
    /// `WARM_WORKING_SETS` working sets of the plan per size class
    /// ([`ModelPlan::working_set`]), so the first post-deploy (or
    /// post-swap) chunk pays no pool misses. Provisioning is per class,
    /// not per plan: a class that already holds enough — because a plan
    /// with the same shapes was deployed before — gets nothing, so N
    /// same-shaped plans hold one provision per executor and the N-th
    /// deploy allocates no buffer.
    ///
    /// A provisioned batch is what a missed lease would have built — row
    /// structures for one chunk, dense rows in full — built early. Element
    /// storage of variable-length rows (text bytes, tokens, sparse
    /// entries) is not reserved from the per-row training statistics:
    /// `chunk_size` × a per-row maximum is a worst case squared, and a
    /// class would hold it for good (the 250 AC plans of the serving
    /// benchmark have 99 sparse classes; at 64 rows × 256 entries that is
    /// 38 MiB never touched). It grows in place inside the first chunks
    /// that fill the batch and is kept from then on — capacity growth in a
    /// leased buffer, not a pool miss.
    pub fn warm_plan(&self, plan_id: u32, plan: &ModelPlan) {
        let reserved = self.reserved.lock();
        let pools = match reserved.get(&plan_id) {
            Some(own) => std::slice::from_ref(&own.pool),
            None => &self.exec_pools[..],
        };
        let working_set = plan.working_set();
        for pool in pools {
            for need in &working_set {
                pool.warm_batches(need.ty, self.chunk_size, 0, need.count * WARM_WORKING_SETS);
            }
        }
    }

    /// Aggregate lease hit/miss counters across every executor pool (shared
    /// and reserved) — the observable the deploy-time warming tests gate on
    /// — and what the family holds idle, the fallback arena behind the
    /// per-core arenas included (its own lease counters never move: the
    /// fronting arena counts the traffic).
    pub fn pool_stats(&self) -> PoolCounters {
        let reserved = self.reserved.lock();
        let mut agg = PoolCounters::default();
        for pool in self
            .exec_pools
            .iter()
            .chain(reserved.values().map(|r| &r.pool))
            .chain(&self.fallback_pool)
        {
            agg += PoolCounters::of(pool);
        }
        agg
    }

    /// Outstanding leases across every executor pool (shared and
    /// reserved): acquisitions minus returns ([`PoolStats::outstanding`]).
    /// At quiescence this is exactly the number of leased buffers that
    /// never came home — the unwind-safety observable: a contained fault
    /// that leaked its chunk's working set shows up here even though
    /// hit/miss ratios look healthy. The scratch executors keep in their
    /// chunk frames between tasks is not outstanding in that sense and is
    /// discounted.
    ///
    /// [`PoolStats::outstanding`]: pretzel_data::pool::PoolStats::outstanding
    pub fn pool_outstanding(&self) -> i64 {
        let reserved = self.reserved.lock();
        let leased: i64 = self
            .exec_pools
            .iter()
            .chain(reserved.values().map(|r| &r.pool))
            .map(|pool| pool.stats().outstanding())
            .sum();
        leased - self.env.held.load(Ordering::Relaxed)
    }

    /// Tears down a plan's reservation: removes its plane from the routing
    /// map (new submissions fall back to the general plane), closes it,
    /// lets the dedicated executor drain its remaining events, and joins
    /// the thread — the reverse of [`Self::reserve`], so churned reserved
    /// plans leak neither a thread nor a pool.
    ///
    /// Returns `true` if a reservation existed.
    pub fn unreserve(&self, plan_id: u32) -> bool {
        let slot = self.reserved.lock().remove(&plan_id);
        let Some(res) = slot else {
            return false;
        };
        res.plane.close();
        join_unless_current(res.handle);
        true
    }

    /// Number of live reservations (tests and the admin surface).
    pub fn reserved_count(&self) -> usize {
        self.reserved.lock().len()
    }

    /// Submits an assembled request batch: the rows the FrontEnd built
    /// straight from the wire become the rows chunks load from. Chunks
    /// enter the low-priority queue (new pipelines) and climb to high
    /// priority as they progress; each copies its row range into a leased
    /// slot 0 at its first stage, and the batch returns to its home pool
    /// when the last chunk lets go of it. `gate`, the plan's lifecycle
    /// pass, is held until the last chunk retires.
    pub fn submit_assembled(
        &self,
        plan_id: u32,
        plan: Arc<ModelPlan>,
        input: AssembledBatch,
        gate: Option<GatePass>,
    ) -> BatchHandle {
        let n = input.len();
        let n_chunks = n.div_ceil(self.chunk_size);
        let state = Arc::new(BatchState {
            inner: Mutex::new(BatchInner {
                results: vec![0.0; n],
                error: None,
                remaining: n_chunks,
                // An empty batch completes here: the pass (if any) drops now
                // rather than waiting for a chunk that will never run.
                gate: if n == 0 { None } else { gate },
                watcher: None,
                done: n == 0,
            }),
            done: Condvar::new(),
        });
        if n == 0 {
            return BatchHandle { state };
        }
        let input = Arc::new(input);
        let reserved_plane = {
            let reserved = self.reserved.lock();
            reserved.get(&plan_id).map(|r| Arc::clone(&r.plane))
        };
        // One recorder resolution per submission (not per chunk): the map
        // read amortizes over the whole batch.
        let recorder = self.env.telemetry.plan_recorder(plan_id);
        recorder.note_batch_request();
        let enqueued_at = self.env.clock.now();
        let mut start = 0usize;
        while start < n {
            let end = (start + self.chunk_size).min(n);
            let task = ChunkTask {
                meter: TaskMeter {
                    rec: Arc::clone(&recorder),
                    enqueued_at,
                    high: false,
                },
                plan_id,
                plan: Arc::clone(&plan),
                input: Arc::clone(&input),
                range: (start, end),
                stage: 0,
                working: None,
                lease_pool: None,
                state: Arc::clone(&state),
            };
            // A reserved plane that closed between routing and push (the
            // plan was unreserved concurrently) hands the task back; it then
            // runs on the general plane instead of being lost.
            let task = match &reserved_plane {
                Some(own) => own.try_push_low(task),
                None => Some(task),
            };
            if let Some(task) = task.and_then(|t| self.plane.try_push_low(t)) {
                // The general plane closes only in teardown, which owns the
                // scheduler exclusively; fail rather than strand the chunk.
                let err = DataError::Runtime("scheduler shut down".into());
                complete_chunk(task, Some(err), &self.env.stats);
            }
            start = end;
        }
        BatchHandle { state }
    }

    /// Closes the queues and joins every executor.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.plane.close();
        let reserved: Vec<ReservedExec> = self.reserved.lock().drain().map(|(_, r)| r).collect();
        for r in &reserved {
            r.plane.close();
        }
        let handles = self.executors.drain(..);
        for h in handles.chain(reserved.into_iter().map(|r| r.handle)) {
            join_unless_current(h);
        }
    }
}

/// Joins an executor thread — unless it is the calling thread. A
/// completion callback that drops the last handle on the scheduler runs
/// teardown *on* an executor; joining itself would deadlock (`EDEADLK`).
/// Its queue is already closed, so it exits as soon as the callback
/// returns.
fn join_unless_current(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Builds one executor's pool ("vector pools are allocated per Executor to
/// improve locality", paper §4.2.1): an arena of its own fronting
/// the scheduler-wide fallback arena, or a pass-through pool with pooling
/// off. The scheduler keeps a handle so deploy-time warming and stats can
/// reach it.
fn build_pool(fallback: Option<&Arc<VectorPool>>) -> VectorPool {
    match fallback {
        Some(global) => VectorPool::arena().with_fallback(Arc::clone(global)),
        None => VectorPool::disabled(),
    }
}

/// One executor: drain the own queue, then try stealing, then sleep until
/// a submission wakes it. Chunks always re-enter the queue of the worker
/// that ran their last stage — including stolen ones, which re-enter the
/// THIEF's queue — so once submissions stop, a queue that is closed and
/// empty can never refill and the worker exits.
fn worker_loop(idx: usize, plane: &Plane, pool: Arc<VectorPool>, env: ExecEnv) {
    let ExecEnv {
        stats,
        clock,
        fault_hook,
        held,
        ..
    } = env;
    let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_held(held);
    ctx.clock = clock;
    let (queues, sleepers) = (&plane.workers[..], &plane.sleepers);
    let own = &queues[idx];
    // Where the next scan of the other queues starts, one victim further
    // on each scan; seeded with the worker index so that thieves do not
    // all start at the same victim. The flag tells a steal from a pop.
    let mut offset = idx;
    let mut find = || {
        own.try_pop().map(|task| (task, false)).or_else(|| {
            let stolen = steal_any(queues, idx, offset);
            offset = offset.wrapping_add(1);
            stolen.map(|task| (task, true))
        })
    };
    loop {
        let mut found = find();
        if found.is_none() {
            // Announce the sleep, then look at every queue once more: a
            // chunk pushed before the announcement was visible shows up in
            // this scan, a later one wakes a sleeper.
            let announced_at = sleepers.announce();
            found = find();
            if found.is_none() && !own.is_finished() {
                sleepers.sleep(announced_at);
                continue;
            }
            sleepers.retract();
        }
        let Some((task, stolen)) = found else {
            return; // own queue closed and drained
        };
        if stolen {
            stats.steals.fetch_add(1, Ordering::Relaxed);
        }
        run_chunk_stage(task, own, &pool, &mut ctx, &stats, &fault_hook);
    }
}

/// One scan of every queue but the worker's own (`idx`), starting
/// `offset` victims on, that steals the first chunk it finds
/// ([`DualQueue::steal`]: a victim's low queue before its high one).
fn steal_any(queues: &[DualQueue], idx: usize, offset: usize) -> Option<ChunkTask> {
    let n = queues.len();
    (0..n - 1).find_map(|k| queues[(idx + 1 + (offset + k) % (n - 1)) % n].steal())
}

fn run_chunk_stage(
    mut task: ChunkTask,
    queue: &DualQueue,
    pool: &Arc<VectorPool>,
    ctx: &mut ExecCtx,
    stats: &SchedStats,
    fault_hook: &FaultHookCell,
) {
    let (start, end) = task.range;
    let n = end - start;
    // Queue wait: elapsed since this event entered its queue, attributed
    // to the priority class it waited in. The same stamp then re-opens as
    // the stage-execution clock (stage 0 charges its lazy lease + load to
    // the stage, which is where that work happens).
    let stage_start = ctx.clock.now();
    let m = &task.meter;
    m.rec.record_queue_wait(
        m.high,
        stage_start.duration_since(m.enqueued_at).as_nanos() as u64,
    );
    // Lazy lease: ONE batch per plan slot, acquired from THIS executor's
    // pool at the first stage, and the chunk's row range bulk-copied into
    // slot 0 (one extend per backing buffer).
    if task.stage == 0 {
        let mut slots: Vec<ColumnBatch> = task
            .plan
            .slot_types()
            .iter()
            .map(|&t| pool.acquire_batch(t, n))
            .collect();
        let loaded = slots[0].extend_from_range(task.input.rows(), start, end);
        task.lease_pool = Some(Arc::clone(pool));
        task.working = Some(slots);
        if let Err(e) = loaded {
            complete_chunk(task, Some(e), stats);
            return;
        }
    }
    let plan = &task.plan;
    let slots = task
        .working
        .as_mut()
        .expect("working set leased at stage 0");
    // The fault containment boundary: operator code below this point runs
    // under `catch_unwind`, so a panicking kernel fails its own chunk with
    // a clean `ExecutionFault` instead of killing the executor thread and
    // every queue behind it. `AssertUnwindSafe` is justified because every
    // piece of state the closure can leave inconsistent is recovered on
    // the panic path: the stage's scratch stays in the context's chunk
    // frame (cleared before its next use), the chunk's leased working set
    // returns through `complete_chunk` → `release_leases`, and the gate
    // pass drops there too — nothing else outlives the chunk.
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.execute_stage_batch(task.stage, slots, n, ctx)
    })) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(payload) => Some(DataError::ExecutionFault(panic_message(payload.as_ref()))),
    };
    if let Some(err) = outcome {
        if matches!(err, DataError::ExecutionFault(_)) {
            task.meter
                .rec
                .record_fault(ctx.clock.since(stage_start).as_nanos() as u64);
            if let Some(hook) = fault_hook.0.get() {
                hook(task.plan_id);
            }
        }
        complete_chunk(task, Some(err), stats);
        return;
    }
    stats.stage_events.fetch_add(1, Ordering::Relaxed);
    // One read ends this stage and, for a started pipeline, opens its next
    // queue wait.
    let stage_end = ctx.clock.now();
    task.meter.rec.record_stage(
        stage_end.duration_since(stage_start).as_nanos() as u64,
        n as u64,
    );

    if task.stage + 1 < task.plan.stages.len() {
        task.stage += 1;
        task.meter.enqueued_at = stage_end;
        task.meter.high = true;
        // Started pipelines re-enter at high priority so they finish and
        // return their working sets quickly.
        queue.push_high(task);
    } else {
        complete_chunk(task, None, stats);
    }
}

fn release_leases(task: &mut ChunkTask) {
    let (Some(pool), Some(mut slots)) = (task.lease_pool.take(), task.working.take()) else {
        return;
    };
    // Span outputs (e.g. CSV field selection) borrow the text source in
    // slot 0, so slots release in REVERSE order: the borrowers detach first
    // and the source parks last with its buffer unshared — releasing the
    // source first would make it detect the live borrow and drop its buffer
    // instead of keeping it for the next lease.
    while let Some(b) = slots.pop() {
        pool.release_batch(b);
    }
}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`panic!` with a literal yields `&str`, with a format string
/// `String`; anything else gets a generic label).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "operator panicked".to_string()
    }
}

/// The chunk's scores: its rows of the plan's output slot. An output that
/// is not scalar or is missing rows is an engine bug; it fails the batch
/// loudly instead of serving NaNs.
fn chunk_scores(task: &ChunkTask) -> Result<&[f32]> {
    let n = task.range.1 - task.range.0;
    let out = &task.working.as_ref().expect("leased at stage 0")[task.plan.output_slot as usize];
    out.as_scalars().filter(|s| s.len() == n).ok_or_else(|| {
        DataError::Runtime(format!(
            "plan produced a malformed output batch: want {n} scalars, got {:?} x {}",
            out.column_type(),
            out.rows(),
        ))
    })
}

/// Retires a chunk — after its final stage, or with the error that ended
/// it (`failed`) — in one critical section of its batch's lock: writes its
/// scores (or keeps the batch's first error), releases its working set,
/// lets go of the task and counts it down. The last chunk also releases
/// the gate pass, marks the batch done and takes the watcher; once
/// unlocked it wakes the waiter and runs the watcher on the harvest.
///
/// Everything a completed batch's observer may rely on happens before
/// `done` is set, under the lock that observer reads it with:
/// - the plan `Arc` (and through it the catalog's stages) is gone, so an
///   `undeploy` that follows the wake-up finds no reference of this batch
///   when it sweeps the catalog;
/// - the gate pass is released, so `undeploy`'s drain has nothing left to
///   wait on for this batch.
///
/// The watcher runs exactly once: [`BatchHandle::on_complete`] either
/// registers it before `done` is set, and this chunk takes it, or finds
/// `done` set and runs it on the registering thread.
fn complete_chunk(mut task: ChunkTask, failed: Option<DataError>, stats: &SchedStats) {
    let state = Arc::clone(&task.state);
    let (start, end) = task.range;
    let mut batch = state.inner.lock();
    match failed.map_or_else(|| chunk_scores(&task), Err) {
        Ok(scores) => {
            batch.results[start..end].copy_from_slice(scores);
            stats
                .records_done
                .fetch_add((end - start) as u64, Ordering::Relaxed);
            task.meter.rec.add_records((end - start) as u64);
        }
        Err(err) => {
            batch.error.get_or_insert(err);
        }
    }
    release_leases(&mut task);
    drop(task);
    batch.remaining -= 1;
    if batch.remaining > 0 {
        return;
    }
    drop(batch.gate.take());
    batch.done = true;
    let watcher = batch.watcher.take();
    let outcome = watcher.as_ref().map(|_| batch.harvest());
    drop(batch);
    state.done.notify_all();
    if let (Some(watcher), Some(outcome)) = (watcher, outcome) {
        watcher(outcome);
    }
}

#[cfg(test)]
// The parking tests time real condition-variable waits against
// `SAFETY_PARK`, which no clock of the runtime's governs.
#[allow(clippy::disallowed_methods)]
pub(crate) mod tests {
    use super::*;
    use crate::flour::FlourContext;
    use crate::object_store::ObjectStore;
    use crate::physical::CompileOptions;
    use pretzel_data::{ColumnType, Vector};
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::{synth, Op};
    use std::sync::mpsc::{self, TryRecvError};
    use std::time::Duration;

    /// Silences the fault op's expected panics without hiding any other.
    pub(crate) fn quiet_fault_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload().downcast_ref::<String>();
                if !payload.is_some_and(|m| m.contains("fault-op:")) {
                    default_hook(info);
                }
            }));
        });
    }

    fn sa_plan(seed: u64) -> Arc<ModelPlan> {
        sa_plan_with(seed, &CompileOptions::default())
    }

    fn sa_plan_with(seed: u64, opts: &CompileOptions) -> Arc<ModelPlan> {
        sa_plan_over(seed, opts, None)
    }

    /// An SA plan whose records pass the panic injector (marker `boom`)
    /// first.
    fn faulting_plan() -> Arc<ModelPlan> {
        let fault = pretzel_ops::fault::FaultParams::new("boom");
        let fault = pretzel_ops::Op::FaultInjector(Arc::new(fault));
        sa_plan_over(3, &CompileOptions::default(), Some(fault))
    }

    fn sa_plan_over(seed: u64, opts: &CompileOptions, first: Option<Op>) -> Arc<ModelPlan> {
        let vocab = synth::vocabulary(0, 64);
        let ctx = FlourContext::new();
        let mut text = ctx.csv(',').select_text(1);
        if let Some(op) = first {
            text = text.apply(op);
        }
        let tokens = text.tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 128)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 128, &vocab)));
        let logical = c
            .concat(&w)
            .classifier_linear(Arc::new(synth::linear(seed, 256, LinearKind::Logistic)))
            .plan()
            .unwrap();
        let store = ObjectStore::new();
        Arc::new(ModelPlan::compile(logical, opts, &store).unwrap())
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::Text(format!("5,this is review number {i} quite nice")))
            .collect()
    }

    /// Packs records into an assembled batch with no home pool,
    /// typed by its first record.
    fn assembled(records: &[Record]) -> AssembledBatch {
        let ty = match records.first() {
            Some(Record::Dense(x)) => ColumnType::F32Dense { len: x.len() },
            _ => ColumnType::Text,
        };
        let mut rows = ColumnBatch::with_type(ty);
        for r in records {
            r.as_source().load_into_batch(&mut rows).unwrap();
        }
        AssembledBatch::new(rows, None)
    }

    fn submit(sched: &Scheduler, id: u32, plan: &Arc<ModelPlan>, recs: &[Record]) -> BatchHandle {
        sched.submit_assembled(id, Arc::clone(plan), assembled(recs), None)
    }

    fn config(n_executors: usize, chunk_size: usize) -> SchedulerConfig {
        SchedulerConfig {
            n_executors,
            pooling: true,
            chunk_size,
            telemetry: Arc::new(MetricsRegistry::new()),
            clock: Clock::real(),
        }
    }

    fn scheduler(n_executors: usize, chunk_size: usize) -> Scheduler {
        Scheduler::with_config(config(n_executors, chunk_size))
    }

    /// The request-response engine's row path over `recs`: the reference
    /// every batch score must equal bitwise.
    fn inline_scores(plan: &ModelPlan, recs: &[Record]) -> Vec<f32> {
        let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        recs.iter()
            .map(|r| plan.execute(r.as_source(), &mut slots, &mut ctx).unwrap())
            .collect()
    }

    /// [`ModelPlan::execute_batch`] over `recs` as one chunk: the reference
    /// a completion's scores must equal bitwise.
    fn execute_batch_scores(plan: &ModelPlan, recs: &[Record]) -> Vec<f32> {
        let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
        let mut slots: Vec<ColumnBatch> = plan
            .slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let sources: Vec<SourceRef<'_>> = recs.iter().map(Record::as_source).collect();
        let mut out = vec![0.0; recs.len()];
        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut out)
            .unwrap();
        out
    }

    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} record {i}: {x} vs {y}");
        }
    }

    #[test]
    fn batch_results_match_inline_execution() {
        // Bitwise against the row path, for the fused plan the runtime
        // serves and the stepwise reference, each cold and then warm.
        let recs = records(17);
        for fuse_text in [true, false] {
            let plan = sa_plan_with(3, &CompileOptions { fuse_text });
            let expect = inline_scores(&plan, &recs);
            let sched = scheduler(2, 4);
            for pass in ["cold", "warm"] {
                let scores = submit(&sched, 0, &plan, &recs).wait().unwrap();
                assert_bitwise(&scores, &expect, &format!("fuse {fuse_text} {pass}"));
            }
            sched.shutdown();
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let plan = sa_plan(1);
        let sched = scheduler(1, 8);
        let scores = submit(&sched, 0, &plan, &[]).wait().unwrap();
        assert!(scores.is_empty());
        // A callback runs here, before `on_complete` returns.
        let seen = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&seen);
        submit(&sched, 0, &plan, &[]).on_complete(move |outcome| {
            *sink.lock() = Some((std::thread::current().id(), outcome.map(|s| s.len())));
        });
        let seen = seen.lock().take();
        assert_eq!(seen, Some((std::thread::current().id(), Ok(0))));
        sched.shutdown();
    }

    #[test]
    fn concurrent_batches_across_plans() {
        let plans: Vec<_> = (0..4).map(sa_plan).collect();
        let sched = scheduler(4, 8);
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| submit(&sched, i as u32, p, &records(23)))
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().len(), 23);
        }
        assert_eq!(sched.stats().records_done.load(Ordering::Relaxed), 4 * 23);
        // 1 event per chunk per stage (an SA plan is one stage).
        let chunks = 23usize.div_ceil(8);
        let stages: usize = plans.iter().map(|p| p.stages.len()).sum();
        assert_eq!(stages, plans.len());
        assert_eq!(
            sched.stats().stage_events.load(Ordering::Relaxed),
            (chunks * stages) as u64
        );
        sched.shutdown();
    }

    #[test]
    fn errors_propagate_to_handle() {
        let plan = sa_plan(5);
        let sched = scheduler(2, 4);
        // Dense record into a text pipeline: source load fails.
        let handle = submit(&sched, 0, &plan, &[Record::Dense(vec![1.0, 2.0])]);
        assert!(handle.wait().is_err());
        sched.shutdown();
    }

    #[test]
    fn reserved_plan_executes_on_dedicated_queue() {
        let plan = sa_plan(9);
        let sched = scheduler(1, 4);
        sched.reserve(7);
        let h = submit(&sched, 7, &plan, &records(5));
        assert_eq!(h.wait().unwrap().len(), 5);
        // Unreserved traffic still flows through the general plane.
        let h2 = submit(&sched, 1, &plan, &records(5));
        assert_eq!(h2.wait().unwrap().len(), 5);
        sched.shutdown();
    }

    #[test]
    fn columnar_errors_propagate_and_release_leases() {
        let plan = sa_plan(25);
        let sched = scheduler(1, 4);
        // Dense record into a text pipeline: batch source load fails.
        let handle = submit(&sched, 0, &plan, &[Record::Dense(vec![1.0])]);
        assert!(handle.wait().is_err());
        sched.shutdown();
    }

    #[test]
    fn pooling_disabled_still_correct() {
        let plan = sa_plan(11);
        let sched = Scheduler::with_config(SchedulerConfig {
            pooling: false,
            ..config(2, 4)
        });
        let scores = submit(&sched, 0, &plan, &records(9)).wait().unwrap();
        assert_eq!(scores.len(), 9);
        sched.shutdown();
    }

    #[test]
    fn unreserve_drains_and_joins_the_dedicated_executor() {
        let plan = sa_plan(41);
        let sched = scheduler(1, 4);
        sched.reserve(3);
        assert_eq!(sched.reserved_count(), 1);
        let h = submit(&sched, 3, &plan, &records(13));
        assert_eq!(h.wait().unwrap().len(), 13);
        assert!(sched.unreserve(3), "reservation existed");
        assert_eq!(sched.reserved_count(), 0);
        assert!(!sched.unreserve(3), "second unreserve is a no-op");
        // Post-unreserve traffic for the plan flows through the general
        // plane: nothing is lost.
        let h2 = submit(&sched, 3, &plan, &records(5));
        assert_eq!(h2.wait().unwrap().len(), 5);
        sched.shutdown();
    }

    #[test]
    fn reserve_unreserve_churn_does_not_leak_threads() {
        let plan = sa_plan(43);
        let sched = scheduler(1, 4);
        for round in 0..20u32 {
            sched.reserve(round);
            let h = submit(&sched, round, &plan, &records(3));
            assert_eq!(h.wait().unwrap().len(), 3);
            assert!(sched.unreserve(round));
        }
        assert_eq!(sched.reserved_count(), 0);
        sched.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let plan = sa_plan(13);
        let sched = scheduler(2, 4);
        let h = submit(&sched, 0, &plan, &records(3));
        let _ = h.wait().unwrap();
        drop(sched);
    }

    #[test]
    fn dry_workers_steal_queued_chunks() {
        for n_executors in [2, 3] {
            dry_workers_steal_queued_chunks_on(n_executors);
        }
    }

    fn dry_workers_steal_queued_chunks_on(n_executors: usize) {
        // Force the steal path: worker 0 gets a heavy chunk with a tiny
        // chunk queued behind it; every other worker runs dry in
        // microseconds and must steal the tiny chunk to make progress.
        // Round-robin routing makes the landing deterministic (the heavy
        // chunk on worker 0, one filler on each other worker, then the
        // tiny chunk on worker 0 again); only the steal timing is racy, so
        // retry a few rounds before declaring the path dead.
        let plan = sa_plan(53);
        let heavy: Vec<Record> = (0..3000)
            .map(|i| Record::Text(format!("5,review {i} with several tokens to chew on")))
            .collect();
        let mut stole = false;
        for _round in 0..20 {
            let sched = scheduler(n_executors, 4096);
            let ha = submit(&sched, 0, &plan, &heavy);
            let fillers: Vec<_> = (1..n_executors)
                .map(|_| submit(&sched, 0, &plan, &records(2)))
                .collect();
            let hc = submit(&sched, 0, &plan, &records(3));
            assert_eq!(ha.wait().unwrap().len(), 3000);
            for h in fillers {
                assert_eq!(h.wait().unwrap().len(), 2);
            }
            let scores = hc.wait().unwrap();
            assert_eq!(scores.len(), 3);
            // Stolen or not, the chunk's math is the worker-independent
            // reference result.
            assert_bitwise(&scores, &inline_scores(&plan, &records(3)), "stolen chunk");
            let steals = sched.stats().steals.load(Ordering::Relaxed);
            sched.shutdown();
            if steals > 0 {
                stole = true;
                break;
            }
        }
        assert!(
            stole,
            "{n_executors} executors: no round ever exercised the steal path"
        );
    }

    #[test]
    fn a_wake_between_announcement_and_sleep_is_not_lost() {
        // The interleaving a condition variable alone loses, forced: the
        // wake-up lands after the worker's last scan and before its wait.
        let sleepers = Sleepers::default();
        let announced_at = sleepers.announce();
        sleepers.wake_one();
        let t0 = Instant::now();
        sleepers.sleep(announced_at);
        assert!(t0.elapsed() < SAFETY_PARK / 2, "slept through a wake-up");
        assert_eq!(sleepers.announced.load(Ordering::SeqCst), 0);
        // With nobody announced a submitter pays no lock and no syscall.
        sleepers.wake_one();
        assert_eq!(sleepers.epoch.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chunks_pushed_while_workers_go_to_sleep_are_never_stranded() {
        for n_executors in [2, 3] {
            chunks_pushed_while_workers_go_to_sleep_are_never_stranded_on(n_executors);
        }
    }

    fn chunks_pushed_while_workers_go_to_sleep_are_never_stranded_on(n_executors: usize) {
        // The parking protocol under the interleavings it exists for. One
        // thread keeps a long single-chunk batch in flight, so most of the
        // time one worker is busy and the chunks round-robin routing puts
        // in its queue can only be served by a thief; the producers submit
        // one tiny batch at a time and wait for it, so the other workers
        // run dry and head for sleep again just as the next chunk arrives.
        // A wake-up lost anywhere strands a chunk until its queue's owner
        // is free or the safety park expires — which unit tests stretch to
        // 10 s, so that a stranded chunk is unmistakable.
        let plan = sa_plan(59);
        let sched = Arc::new(scheduler(n_executors, 4096));
        let producing = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let busy = {
            let (sched, plan, producing) = (
                Arc::clone(&sched),
                Arc::clone(&plan),
                Arc::clone(&producing),
            );
            std::thread::spawn(move || {
                let long = records(2000);
                while producing.load(Ordering::Acquire) {
                    assert_eq!(submit(&sched, 0, &plan, &long).wait().unwrap().len(), 2000);
                }
            })
        };
        let producers: Vec<_> = (0..3)
            .map(|_| {
                let (sched, plan) = (Arc::clone(&sched), Arc::clone(&plan));
                std::thread::spawn(move || {
                    let tiny = records(1);
                    let mut slowest = std::time::Duration::ZERO;
                    for _ in 0..1500 {
                        let t0 = Instant::now();
                        assert_eq!(submit(&sched, 0, &plan, &tiny).wait().unwrap().len(), 1);
                        slowest = slowest.max(t0.elapsed());
                        if slowest >= SAFETY_PARK / 2 {
                            break; // already failed; do not sit out more parks
                        }
                    }
                    slowest
                })
            })
            .collect();
        let slowest = producers
            .into_iter()
            .map(|p| p.join().unwrap())
            .max()
            .unwrap();
        producing.store(false, Ordering::Release);
        busy.join().unwrap();
        assert!(
            slowest < SAFETY_PARK / 2,
            "{n_executors} executors: a chunk waited {slowest:?}: it was served by the safety \
             park, not by a wake-up"
        );
        Arc::into_inner(sched).unwrap().shutdown();
    }

    #[test]
    fn unreserve_vs_steal_stress_loses_nothing() {
        // Reservation churn racing submissions. Chunks routed to a
        // reserved plane that closes mid-flight
        // fall back to the general plane; every record must score exactly
        // once — `records_done` catches both loss (short) and
        // double-execution (long).
        const BATCHES: usize = 120;
        const PER_BATCH: usize = 7;
        let plan = sa_plan(59);
        let sched = Arc::new(scheduler(4, 4));
        let (tx, rx) = std::sync::mpsc::channel::<Result<Vec<f32>>>();
        let churn = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    sched.reserve(9);
                    std::thread::yield_now();
                    sched.unreserve(9);
                }
            })
        };
        let submitter = {
            let sched = Arc::clone(&sched);
            let plan = Arc::clone(&plan);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for _ in 0..BATCHES {
                    let tx = tx.clone();
                    submit(&sched, 9, &plan, &records(PER_BATCH))
                        .on_complete(move |r| tx.send(r).unwrap());
                }
            })
        };
        drop(tx);
        for i in 0..BATCHES {
            let scores = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("batch {i} never completed"))
                .unwrap();
            assert_eq!(scores.len(), PER_BATCH);
        }
        submitter.join().unwrap();
        churn.join().unwrap();
        assert_eq!(
            sched.stats().records_done.load(Ordering::Relaxed),
            (BATCHES * PER_BATCH) as u64,
            "records lost or double-executed under reservation churn"
        );
    }

    #[test]
    fn completion_runs_exactly_once() {
        // Even batches register their callback right after the submit, so
        // the registration races the chunk that completes the batch:
        // either side may run it. Odd batches register once every chunk
        // has retired, so each finds its batch done and runs its callback
        // on this thread. Every callback must run exactly once.
        const BATCHES: usize = 1000;
        let plan = sa_plan(61);
        let sets: Vec<Vec<Record>> = (1..=8).map(records).collect();
        let expect: Vec<Vec<f32>> = sets
            .iter()
            .map(|recs| execute_batch_scores(&plan, recs))
            .collect();
        let sched = scheduler(2, 64);
        let (tx, rx) = mpsc::channel();
        let callback = |i: usize| {
            let tx = tx.clone();
            move |outcome| tx.send((i, std::thread::current().id(), outcome)).unwrap()
        };
        let mut held = Vec::new();
        let mut rows = 0;
        for i in 0..BATCHES {
            let recs = &sets[i % sets.len()];
            rows += recs.len() as u64;
            let handle = submit(&sched, 0, &plan, recs);
            if i % 2 == 0 {
                handle.on_complete(callback(i));
            } else {
                held.push((i, handle));
            }
        }
        // A chunk counts its rows in the critical section that marks its
        // (single-chunk) batch done, so once every row is counted, every
        // batch is done for a registration that takes the lock after it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while sched.stats().records_done.load(Ordering::Relaxed) < rows {
            assert!(Instant::now() < deadline, "batches never completed");
            std::thread::yield_now();
        }
        for (i, handle) in held {
            handle.on_complete(callback(i));
        }
        drop(tx);
        let mut runs = vec![0usize; BATCHES];
        for _ in 0..BATCHES {
            let (i, thread, outcome) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a callback never ran");
            runs[i] += 1;
            if i % 2 == 1 {
                assert_eq!(thread, std::thread::current().id(), "batch {i}");
            }
            assert_bitwise(
                &outcome.unwrap(),
                &expect[i % sets.len()],
                &format!("batch {i}"),
            );
        }
        sched.shutdown();
        // Every sender left belonged to a callback; all are gone now.
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Disconnected));
        assert!(runs.iter().all(|&r| r == 1), "a callback ran twice");
    }

    #[test]
    fn a_faulting_chunk_reports_its_error_once() {
        quiet_fault_panics();
        let plan = faulting_plan();
        let sched = scheduler(2, 4);
        let mut recs = records(12);
        recs[5] = Record::Text("5,boom goes the middle chunk".into());
        let (tx, rx) = mpsc::channel();
        submit(&sched, 0, &plan, &recs).on_complete(move |outcome| tx.send(outcome).unwrap());
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the callback never ran");
        assert!(
            matches!(outcome, Err(DataError::ExecutionFault(_))),
            "{outcome:?}"
        );
        // The two healthy chunks scored their rows, and every lease of the
        // three came home before the batch completed.
        assert_eq!(sched.stats().records_done.load(Ordering::Relaxed), 8);
        assert_eq!(sched.pool_outstanding(), 0);
        sched.shutdown();
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Disconnected));
    }
}
