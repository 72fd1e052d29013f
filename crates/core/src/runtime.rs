//! The PRETZEL Runtime: registration, catalog, and the two engines.
//!
//! "Model plans generated by MPC are registered in the PRETZEL Runtime.
//! Upon registration, a unique pipeline ID is generated, and physical
//! stages composing a plan are loaded into a system catalog. If two plans
//! use the same physical stage, this is loaded only once in the catalog so
//! that similar plans may share the same physical stages during execution"
//! (paper §4.2.1).
//!
//! Two engines serve inference (paper Figure 7):
//! * the **request-response engine** ([`Runtime::predict`]) inlines the
//!   whole plan in the calling thread — no scheduling overhead, for
//!   latency-critical single predictions;
//! * the **batch engine** ([`Runtime::predict_batch`]) forwards chunked
//!   stage events to the [`Scheduler`].
//!
//! The ±AOT ablation (paper §5.2.1) maps to [`RuntimeConfig::aot`]: with
//! AOT off, plan compilation (parameter checksumming, stage construction,
//! physical selection) is deferred to the first prediction, reproducing the
//! cold-start penalty that CrossGen removes for the real system.

use crate::clock::Clock;
use crate::graph::TransformGraph;
use crate::lifecycle::{
    AliasMap, DeployOptions, GatePass, LifecycleStats, PlanGate, PlanInfo, UndeployReport,
};
use crate::object_store::{ObjectStore, PlanRefs};
use crate::physical::{ExecCtx, ModelPlan, PhysicalStage, SourceRef};
use crate::plan::StagePlan;
use crate::scheduler::{AssembledBatch, BatchHandle, Record, Scheduler};
use crate::telemetry::{
    LifecycleSnapshot, MetricsRegistry, MetricsSnapshot, PlanRecorder, PoolCounters,
    SchedulerSnapshot, StoreSnapshot,
};
use parking_lot::{Mutex, RwLock};
use pretzel_data::pool::VectorPool;
use pretzel_data::{DataError, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a registered plan.
pub type PlanId = u32;

/// How many times an alias-addressed request re-resolves after losing the
/// race with a concurrent undeploy (the swapped-from version retired
/// between resolve and admission). Each retry lands on the alias's current
/// binding, so a bounded number of attempts suffices unless aliases churn
/// faster than requests execute.
const ALIAS_RETRIES: usize = 8;

/// An alias that names no plan: the client's to fix.
fn unknown_alias(alias: &str) -> DataError {
    DataError::BadInput(format!("unknown alias `{alias}`"))
}

/// Sliding window over which [`RuntimeConfig::fault_quarantine_threshold`]
/// counts execution faults.
pub const FAULT_WINDOW: std::time::Duration = std::time::Duration::from_secs(10);

/// Upper bound on retired-plan tombstones kept in the registry.
/// Tombstones make lookups of undeployed ids fail with a clean
/// `PlanRetired` instead of `UnknownPlan`; beyond the cap the oldest
/// (lowest-id) tombstones are compacted away — but a **retired-epoch
/// watermark** remembers how far compaction advanced, so even compacted
/// ids keep reporting [`DataError::PlanRetired`] exactly (ids are
/// allocated monotonically and never recycled, so any missing id below
/// the watermark was necessarily retired).
pub const TOMBSTONE_CAP: usize = 1024;

/// Runtime configuration (ablation switches map to paper experiments).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of batch-engine executors (cores).
    pub n_executors: usize,
    /// Pool and reuse vectors (off = "no vector pooling" ablation).
    pub pooling: bool,
    /// Compile plans at registration (off = "no AOT" ablation: first
    /// prediction pays compilation).
    pub aot: bool,
    /// Records per batch-engine chunk event.
    pub chunk_size: usize,
    /// Execution faults (contained operator panics) within
    /// [`FAULT_WINDOW`] that quarantine a plan: its gate closes
    /// (new submissions fail with [`DataError::PlanQuarantined`]) and any
    /// alias currently serving the plan auto-rolls back to its most
    /// recent live previous version. `0` disables quarantine — faults are
    /// still contained and counted, but the plan keeps serving.
    pub fault_quarantine_threshold: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            n_executors: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            pooling: true,
            aot: true,
            chunk_size: 64,
            fault_quarantine_threshold: 3,
        }
    }
}

/// Per-plan registration options (paper §4.2: set when registering).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegisterOptions {
    /// Reserve a dedicated executor + pool for this plan.
    pub reserved: bool,
}

/// The plan registry: every deployed plan and tombstone by id.
type Registry = HashMap<PlanId, Arc<RegisteredPlan>>;

#[derive(Debug)]
struct RegisteredPlan {
    /// The plan's Object Store references, released by `undeploy`: all a
    /// compiled plan keeps of its logical form.
    refs: PlanRefs,
    /// The interned logical plan of a deferred (AOT-off) compile, until
    /// the plan is undeployed; held while that compile runs, so concurrent
    /// first requests compile once. `None` once an AOT compile consumed it.
    logical: Mutex<Option<StagePlan>>,
    /// Set once, when the plan compiles. `undeploy` reclaims it by
    /// replacing the whole registry entry with a tombstone.
    compiled: OnceLock<Serving>,
    /// Admission gate + in-flight counter: `undeploy` retires it, then
    /// drains it before reclaiming anything.
    gate: Arc<PlanGate>,
}

impl RegisteredPlan {
    /// What an undeployed plan leaves in the registry: its (retired) gate.
    fn tombstone(gate: &Arc<PlanGate>) -> Self {
        RegisteredPlan {
            refs: PlanRefs::default(),
            logical: Mutex::new(None),
            compiled: OnceLock::new(),
            gate: Arc::clone(gate),
        }
    }
}

/// Everything a request needs from its plan, resolved once when the plan
/// compiles so that admission reads one map (the plan registry) and
/// nothing else: the executable plan and its telemetry recorder. Dropped
/// as a unit by `undeploy`.
#[derive(Debug)]
struct Serving {
    plan: Arc<ModelPlan>,
    recorder: Arc<PlanRecorder>,
}

/// A request-response session: an execution context over the runtime's
/// request-response pool, holding the frame of the last plan it served.
/// [`Runtime::predict_source`] uses one per calling thread; a thread that
/// serves many requests for one runtime (a FrontEnd reactor) can own one
/// ([`Runtime::rr_session`]) and pass it to [`Runtime::predict_source_in`].
///
/// The frame — the plan's slots and every stage's scratch — stays leased
/// between requests: a request whose plan has the same frame layout —
/// every plan of one pipeline family does — clears and reuses it, and
/// touches the pool not at all. A different layout hands the frame back
/// and leases its own. [`Runtime::pool_outstanding`] discounts what
/// sessions hold, and dropping the session returns it.
#[derive(Debug)]
pub struct RrSession {
    ctx: ExecCtx,
}

/// Unique runtime identity, for [`RR_SESSION`].
static NEXT_RUNTIME: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's request-response session, tagged with the runtime it
    /// belongs to: [`Runtime::predict_source`] takes no lock to find it.
    static RR_SESSION: RefCell<Option<(u64, RrSession)>> = const { RefCell::new(None) };
}

/// The runtime's fault-recovery policy, shared with the scheduler's
/// executor threads through the fault hook. Containment lives at the
/// scheduler boundary; this is the *recovery* half: count faults per plan
/// over a sliding window, quarantine the plan's gate when the threshold
/// trips, and roll every alias serving the quarantined version back to
/// its most recent live predecessor (Theseus-style fault-driven unit
/// replacement, at version-pointer cost).
#[derive(Debug)]
struct FaultPolicy {
    /// Faults within [`FAULT_WINDOW`] that trip quarantine; 0 = never.
    threshold: usize,
    clock: Clock,
    /// Per-plan fault timestamps inside the current window.
    windows: Mutex<HashMap<PlanId, std::collections::VecDeque<std::time::Instant>>>,
    plans: Arc<RwLock<Registry>>,
    aliases: Arc<AliasMap>,
}

impl FaultPolicy {
    /// Handles one contained fault attributed to `id`. Runs on the
    /// faulting executor's thread (or the request-response caller), so it
    /// stays short: a window update, and — only on the quarantine
    /// transition — the gate close + alias rollback.
    fn on_fault(&self, id: PlanId) {
        if self.threshold == 0 {
            return;
        }
        let tripped = {
            let now = self.clock.now();
            let mut windows = self.windows.lock();
            let q = windows.entry(id).or_default();
            while q
                .front()
                .is_some_and(|&t| now.duration_since(t) > FAULT_WINDOW)
            {
                q.pop_front();
            }
            q.push_back(now);
            q.len() >= self.threshold
        };
        if !tripped {
            return;
        }
        let Some(gate) = self.plans.read().get(&id).map(|e| Arc::clone(&e.gate)) else {
            return;
        };
        // First quarantine wins ownership of the rollback; repeat trips
        // (faults already in flight when the gate closed) do nothing.
        if !gate.quarantine() {
            return;
        }
        let live = |v: PlanId| {
            v != id
                && self
                    .plans
                    .read()
                    .get(&v)
                    .is_some_and(|e| !e.gate.is_retired() && !e.gate.is_quarantined())
        };
        for (alias, bound) in self.aliases.snapshot() {
            if bound == id {
                // No live predecessor leaves the alias on the quarantined
                // version: clients see `PlanQuarantined` rather than a
                // silent re-route to an arbitrary plan.
                self.aliases.rollback_until(&alias, live);
            }
        }
    }

    /// Drops a plan's fault window (undeploy cleanup).
    fn forget(&self, id: PlanId) {
        self.windows.lock().remove(&id);
    }
}

/// The serving runtime.
#[derive(Debug)]
pub struct Runtime {
    /// Unique among the process's runtimes (keys [`RR_SESSION`]).
    id: u64,
    config: RuntimeConfig,
    store: Arc<ObjectStore>,
    catalog: Mutex<HashMap<u64, Arc<PhysicalStage>>>,
    /// Shared with [`FaultPolicy`] (the fault hook runs on executor
    /// threads and needs the gates).
    plans: Arc<RwLock<Registry>>,
    next_plan_id: AtomicU32,
    /// Id-recycling epoch: every plan id **below** this watermark that is
    /// absent from `plans` was a tombstone compacted away — lookups report
    /// `PlanRetired`, not `UnknownPlan`, no matter how long ago the
    /// undeploy happened.
    retired_epoch: AtomicU32,
    /// Shared with [`FaultPolicy`] (auto-rollback repoints aliases from
    /// executor threads).
    aliases: Arc<AliasMap>,
    lifecycle_stats: LifecycleStats,
    scheduler: Scheduler,
    rr_pool: Arc<VectorPool>,
    /// Request-response pool leases parked in [`RrSession`]s between
    /// requests (see there); not outstanding in the leak-check sense.
    rr_held: Arc<AtomicI64>,
    ingest_pool: Arc<VectorPool>,
    /// Telemetry registry, shared with the scheduler and the FrontEnd.
    metrics: Arc<MetricsRegistry>,
    /// Fault counting + quarantine + auto-rollback policy (also installed
    /// as the scheduler's fault hook).
    fault_policy: Arc<FaultPolicy>,
    /// Read by the runtime, its scheduler and its front ends.
    clock: Clock,
}

impl Runtime {
    /// Starts a runtime: executors spawn and pools are created now, so that
    /// "overheads for instantiating memory and threads are paid upfront at
    /// initialization time" (paper §4).
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_clock(config, Clock::real())
    }

    /// [`Self::new`] on `clock` — the test seam: on a [`Clock::manual`]
    /// clock, fault windows and batch delays pass only when a test says.
    pub fn with_clock(config: RuntimeConfig, clock: Clock) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let scheduler = Scheduler::with_config(crate::scheduler::SchedulerConfig {
            n_executors: config.n_executors,
            pooling: config.pooling,
            chunk_size: config.chunk_size,
            telemetry: Arc::clone(&metrics),
            clock: clock.clone(),
        });
        let plans: Arc<RwLock<Registry>> = Arc::default();
        let aliases = Arc::new(AliasMap::new());
        let fault_policy = Arc::new(FaultPolicy {
            threshold: config.fault_quarantine_threshold,
            clock: clock.clone(),
            windows: Mutex::new(HashMap::new()),
            plans: Arc::clone(&plans),
            aliases: Arc::clone(&aliases),
        });
        {
            let policy = Arc::clone(&fault_policy);
            scheduler.set_fault_hook(Arc::new(move |plan_id| policy.on_fault(plan_id)));
        }
        // The request-response and ingest pools serve many FrontEnd worker
        // threads at once; a lease or return holds a pool's lock for one
        // free-list push or pop.
        let serving_pool = || {
            if config.pooling {
                VectorPool::arena()
            } else {
                VectorPool::disabled()
            }
        };
        let rr_pool = Arc::new(serving_pool());
        let ingest_pool = Arc::new(serving_pool());
        Runtime {
            id: NEXT_RUNTIME.fetch_add(1, Ordering::Relaxed),
            config,
            store: Arc::new(ObjectStore::new()),
            catalog: Mutex::new(HashMap::new()),
            plans,
            next_plan_id: AtomicU32::new(0),
            retired_epoch: AtomicU32::new(0),
            aliases,
            lifecycle_stats: LifecycleStats::default(),
            scheduler,
            rr_pool,
            rr_held: Arc::new(AtomicI64::new(0)),
            ingest_pool,
            metrics,
            fault_policy,
            clock,
        }
    }

    /// The runtime's clock.
    pub(crate) fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared Object Store (memory experiments read its counters).
    pub fn object_store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Scheduler counters.
    pub fn scheduler_stats(&self) -> &crate::scheduler::SchedStats {
        self.scheduler.stats()
    }

    /// Aggregate lease hit/miss counters across the batch engine's executor
    /// pools — the observable that verifies deploy-time plan warming
    /// covered the first post-deploy batch.
    pub fn scheduler_pool_stats(&self) -> PoolCounters {
        self.scheduler.pool_stats()
    }

    /// Outstanding pool leases (acquisitions minus returns) summed over
    /// the batch engine's executor pools and the request-response pool,
    /// less the working sets request-response sessions keep between
    /// requests. At quiescence — no request in flight — this is exactly
    /// zero after any amount of traffic, *including contained execution
    /// faults*: a panic that unwound through a chunk without returning its
    /// working set would show up here as a permanent residue. The
    /// unwind-safety stress test gates on exactly that.
    pub fn pool_outstanding(&self) -> i64 {
        self.scheduler.pool_outstanding() + self.rr_pool.stats().outstanding()
            - self.rr_held.load(Ordering::Relaxed)
    }

    /// Heap bytes parked idle in every pool the runtime owns: the executor
    /// family (per-core arenas, reserved pools, the fallback arena), the
    /// request-response pool and the ingest pool. Provisioning is per size
    /// class, so this does not grow with the number of deployed plans that
    /// share shapes; [`Self::metrics`] breaks it down by family.
    pub fn pool_retained_bytes(&self) -> u64 {
        self.scheduler.pool_stats().retained_bytes
            + self.rr_pool.retained_bytes() as u64
            + self.ingest_pool.retained_bytes() as u64
    }

    /// The telemetry registry. The FrontEnd records decode and flush
    /// latencies through this.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// One unified snapshot of everything the runtime knows about itself:
    /// the telemetry plane's histograms and per-plan sections merged with
    /// the stat structs — scheduler counters, pool lease stats, lifecycle
    /// counters and Object Store usage. A plan's request count is its
    /// section's `rr_requests + batch_requests`. This is what the `STATS`
    /// wire verb serializes.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let sched = self.scheduler.stats();
        snap.scheduler = SchedulerSnapshot {
            stage_events: sched.stage_events.load(Ordering::Relaxed),
            records_done: sched.records_done.load(Ordering::Relaxed),
            steals: sched.steals.load(Ordering::Relaxed),
        };
        snap.pools.executor = self.scheduler.pool_stats();
        snap.pools.request_response = PoolCounters::of(&self.rr_pool);
        snap.pools.ingest = PoolCounters::of(&self.ingest_pool);
        let (deploys, undeploys, swaps) = self.lifecycle_stats.counts();
        snap.lifecycle = LifecycleSnapshot {
            deploys,
            undeploys,
            swaps,
            stages_reused: self.lifecycle_stats.stages_reused(),
        };
        snap.store = StoreSnapshot {
            unique_objects: self.store.len() as u64,
            unique_bytes: self.store.unique_bytes() as u64,
            reused: self.store.reuse_count(),
            bytes_saved: self.store.bytes_saved(),
            released: self.store.release_count(),
            released_bytes: self.store.released_bytes(),
        };
        // Quarantine is gate state, not a recorder counter: stamp it at
        // snapshot time so STATS readers see the current verdict even when
        // the tripping faults predate the last snapshot.
        {
            let plans = self.plans.read();
            for p in &mut snap.plans {
                p.quarantined = plans.get(&p.plan).is_some_and(|e| e.gate.is_quarantined());
            }
        }
        snap
    }

    /// Registers a logical plan with default options.
    pub fn register(&self, logical: StagePlan) -> Result<PlanId> {
        self.register_with(logical, RegisterOptions::default())
    }

    /// Registers a logical plan; with [`RuntimeConfig::aot`] the plan is
    /// compiled (and its parameters interned) now, otherwise at first
    /// prediction.
    pub fn register_with(&self, mut logical: StagePlan, opts: RegisterOptions) -> Result<PlanId> {
        logical.validate()?;
        // The Object Store is populated at planning/registration time even
        // when stage compilation is deferred (paper §4.1.3) — duplicate
        // parameter copies never survive registration. Retention makes the
        // plan a counted owner of every parameter it shares, which is what
        // `undeploy` releases.
        crate::physical::intern_plan(&mut logical, &self.store);
        let refs = self.store.retain_plan(&logical);
        let id = self.next_plan_id.fetch_add(1, Ordering::Relaxed);
        let registered = RegisteredPlan {
            refs,
            logical: Mutex::new(None),
            compiled: OnceLock::new(),
            gate: PlanGate::new(),
        };
        let mut aot_plan = None;
        if self.config.aot {
            // The compiled plan is all that serves: the logical plan goes
            // into the compile and does not outlive it.
            match self.compile(logical) {
                Ok(plan) => {
                    // Pay the memory-allocation cost upfront: top the
                    // request-response pool up to this plan's working set,
                    // sized from training statistics (paper §4.2.1).
                    plan.warm_pool(&self.rr_pool);
                    let _ = registered.compiled.set(self.serving(id, Arc::clone(&plan)));
                    aot_plan = Some(plan);
                }
                Err(e) => {
                    // A failed compile must not pin parameters.
                    self.store.release_plan(&registered.refs);
                    return Err(e);
                }
            }
        } else {
            *registered.logical.lock() = Some(logical);
        }
        self.plans.write().insert(id, Arc::new(registered));
        if opts.reserved {
            self.scheduler.reserve(id);
        }
        // Batch-engine warming after the (optional) reservation exists, so
        // a reserved plan provisions its own dedicated pool: the first
        // post-deploy chunk leases pre-built working sets instead of
        // paying pool misses. With AOT off there is nothing to size from
        // yet — the deferred compile pays allocation alongside
        // compilation, as that ablation intends.
        if let Some(plan) = &aot_plan {
            self.scheduler.warm_plan(id, plan);
        }
        Ok(id)
    }

    fn compile(&self, logical: StagePlan) -> Result<Arc<ModelPlan>> {
        // Stage residency probe: signatures are prepared before stages are
        // built, so a stage another live plan already deployed is served
        // as-is and never rebuilt.
        let mut reused = 0u64;
        let mut plan = ModelPlan::compile_with_catalog(logical, |sig| {
            let hit = self.catalog.lock().get(&sig).cloned();
            if hit.is_some() {
                reused += 1;
            }
            hit
        })?;
        self.lifecycle_stats.note_stages_reused(reused);
        // Catalog interning: identical physical stages load once and are
        // shared across plans (paper §4.2.1). Freshly built stages publish
        // here; a concurrent compile of the same signature may have raced
        // us, in which case its entry wins and ours becomes garbage.
        {
            let mut catalog = self.catalog.lock();
            for stage in &mut plan.stages {
                let entry = catalog
                    .entry(stage.signature)
                    .or_insert_with(|| Arc::clone(stage));
                *stage = Arc::clone(entry);
            }
        }
        Ok(Arc::new(plan))
    }

    /// Number of deployed (non-retired) plans.
    pub fn plan_count(&self) -> usize {
        self.plans
            .read()
            .values()
            .filter(|e| !e.gate.is_retired())
            .count()
    }

    /// Number of distinct physical stages in the catalog.
    pub fn catalog_size(&self) -> usize {
        self.catalog.lock().len()
    }

    /// The registry entry of `id` in `plans` (a read of the registry).
    fn lookup<'p>(&self, plans: &'p Registry, id: PlanId) -> Result<&'p Arc<RegisteredPlan>> {
        plans.get(&id).ok_or_else(|| {
            // Below the compaction watermark, an absent id was a retired
            // tombstone: report it exactly as if the tombstone survived.
            if id < self.retired_epoch.load(Ordering::Acquire) {
                DataError::PlanRetired(id)
            } else {
                DataError::UnknownPlan(id)
            }
        })
    }

    fn entry(&self, id: PlanId) -> Result<Arc<RegisteredPlan>> {
        self.lookup(&self.plans.read(), id).map(Arc::clone)
    }

    /// Resolves what requests to a freshly compiled plan will need.
    fn serving(&self, id: PlanId, plan: Arc<ModelPlan>) -> Serving {
        Serving {
            plan,
            recorder: self.metrics.plan_recorder(id),
        }
    }

    fn serving_of<'r>(&self, id: PlanId, registered: &'r RegisteredPlan) -> Result<&'r Serving> {
        if let Some(serving) = registered.compiled.get() {
            return Ok(serving);
        }
        // Cold path (AOT off): compile now; double-checked under the
        // logical-plan lock so concurrent first predictions compile once.
        let logical = registered.logical.lock();
        if let Some(serving) = registered.compiled.get() {
            return Ok(serving);
        }
        let logical = logical.as_ref().ok_or(DataError::PlanRetired(id))?;
        // A clone: a compile that fails leaves the plan to retry.
        let serving = self.serving(id, self.compile(logical.clone())?);
        Ok(registered.compiled.get_or_init(|| serving))
    }

    /// Fetches (compiling on first use when AOT is off) the executable plan.
    pub fn plan(&self, id: PlanId) -> Result<Arc<ModelPlan>> {
        let registered = self.entry(id)?;
        Ok(Arc::clone(&self.serving_of(id, &registered)?.plan))
    }

    /// Admission for one batch submission: enter the plan's lifecycle
    /// gate, then take the plan. Holding the pass guarantees `undeploy`
    /// cannot reclaim the plan until the pass drops — so the pass comes
    /// first in the pair: bound in this order it is dropped last, after
    /// the caller's hold on the plan.
    fn admit(&self, id: PlanId) -> Result<(GatePass, Arc<ModelPlan>)> {
        let registered = self.entry(id)?;
        let pass = registered.gate.enter(id)?;
        let serving = self.serving_of(id, &registered)?;
        Ok((pass, Arc::clone(&serving.plan)))
    }

    /// The pool wire-to-columnar ingest leases request batches from (the
    /// FrontEnd's [`pretzel_data::BatchAssembler`] buffers; they return
    /// here when the request completes).
    pub fn ingest_pool(&self) -> &Arc<VectorPool> {
        &self.ingest_pool
    }

    /// Request-response engine: scores one text record inline.
    pub fn predict(&self, id: PlanId, line: &str) -> Result<f32> {
        self.predict_source(id, SourceRef::Text(line))
    }

    /// Request-response engine: scores one dense record inline.
    pub fn predict_dense(&self, id: PlanId, x: &[f32]) -> Result<f32> {
        self.predict_source(id, SourceRef::Dense(x))
    }

    /// Request-response engine: scores one sparse record inline.
    pub fn predict_sparse(
        &self,
        id: PlanId,
        indices: &[u32],
        values: &[f32],
        dim: u32,
    ) -> Result<f32> {
        self.predict_source(
            id,
            SourceRef::Sparse {
                indices,
                values,
                dim,
            },
        )
    }

    /// Request-response engine over an explicit [`SourceRef`], on the
    /// calling thread's session ([`RrSession`]).
    ///
    /// Scores **straight off the borrowed source** — the request bytes are
    /// not copied into slot 0 unless a library operator reads them
    /// ([`ModelPlan::execute_borrowed`]).
    pub fn predict_source(&self, id: PlanId, source: SourceRef<'_>) -> Result<f32> {
        RR_SESSION
            .try_with(|cell| {
                let Ok(mut mine) = cell.try_borrow_mut() else {
                    // Re-entered on this thread: serve on a session of its own.
                    return self.predict_source_in(&mut self.rr_session(), id, source);
                };
                if mine.as_ref().is_none_or(|(rt, _)| *rt != self.id) {
                    *mine = Some((self.id, self.rr_session()));
                }
                let (_, sess) = mine.as_mut().expect("installed above");
                self.predict_source_in(sess, id, source)
            })
            // The thread is exiting and its session is gone.
            .unwrap_or_else(|_| self.predict_source_in(&mut self.rr_session(), id, source))
    }

    /// A fresh request-response session for a thread that will serve many
    /// requests through [`Self::predict_source_in`].
    pub fn rr_session(&self) -> RrSession {
        let mut ctx = ExecCtx::new(Arc::clone(&self.rr_pool)).with_held(Arc::clone(&self.rr_held));
        ctx.clock = self.clock.clone();
        RrSession { ctx }
    }

    /// [`Self::predict_source`] on a session the caller owns. The session
    /// must come from this runtime's [`Self::rr_session`].
    ///
    /// Admission is one read of the plan registry, held until the score
    /// exists: `undeploy` reclaims a plan under the registry's write lock,
    /// so the read keeps the plan alive without a gate pass or a reference
    /// count of its own. A request that succeeds reads no clock.
    pub fn predict_source_in(
        &self,
        sess: &mut RrSession,
        id: PlanId,
        source: SourceRef<'_>,
    ) -> Result<f32> {
        let outcome = loop {
            let plans = self.plans.read();
            let registered = self.lookup(&plans, id)?;
            registered.gate.admits(id)?;
            let Some(serving) = registered.compiled.get() else {
                drop(plans);
                // AOT off: compile outside the registry lock, then admit
                // again.
                self.plan(id)?;
                continue;
            };
            serving.recorder.note_rr_request();
            let plan = &*serving.plan;
            // Containment boundary for the inline engine: a panicking
            // operator must not unwind through the caller. The frame stays
            // with the session and is cleared before its next use.
            break std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.execute_in_frame(source, &mut sess.ctx)
            }))
            .inspect_err(|_| {
                let burned = plan.replay_to_fault(source, &mut sess.ctx);
                serving.recorder.record_fault(burned.as_nanos() as u64);
            });
        };
        outcome.unwrap_or_else(|payload| {
            // Outside the registry read: quarantine may write aliases and
            // read the registry again.
            self.fault_policy.on_fault(id);
            Err(DataError::ExecutionFault(crate::scheduler::panic_message(
                payload.as_ref(),
            )))
        })
    }

    /// Batch engine over owned records: packs them into a batch leased
    /// from [`Self::ingest_pool`] and submits it through
    /// [`Self::predict_batch_assembled`]. A record that does not fit the
    /// plan's source type (wrong kind, wrong width) fails this call itself
    /// rather than the returned handle.
    pub fn predict_batch(&self, id: PlanId, records: Vec<Record>) -> Result<BatchHandle> {
        let source_type = self.plan(id)?.source_type;
        let mut rows = self.ingest_pool.acquire_batch(source_type, records.len());
        let loaded = records
            .iter()
            .try_for_each(|r| r.as_source().load_into_batch(&mut rows));
        if let Err(e) = loaded {
            self.ingest_pool.release_batch(rows);
            return Err(e);
        }
        self.predict_batch_assembled(id, rows, Vec::new())
    }

    /// Convenience: batch-predict and wait.
    pub fn predict_batch_wait(&self, id: PlanId, records: Vec<Record>) -> Result<Vec<f32>> {
        self.predict_batch(id, records)?.wait()
    }

    /// Batch engine over an assembled request: the rows a
    /// [`pretzel_data::BatchAssembler`] built straight from the wire are
    /// submitted as-is. The batch buffer returns to [`Self::ingest_pool`]
    /// when the request completes.
    ///
    /// `hashes` is dropped at entry: no layer below the front end's result
    /// cache reads per-row content hashes any more. The argument stays so
    /// that callers written against the hashed signature keep compiling.
    pub fn predict_batch_assembled(
        &self,
        id: PlanId,
        rows: pretzel_data::ColumnBatch,
        hashes: Vec<u64>,
    ) -> Result<BatchHandle> {
        drop(hashes);
        let (plan, pass) = match self.admit(id) {
            Ok((pass, plan)) => (plan, pass),
            Err(e) => {
                // Return the lease before reporting: admission failures are
                // a request error, not a reason to leak a pooled buffer.
                self.ingest_pool.release_batch(rows);
                return Err(e);
            }
        };
        if rows.column_type() != plan.source_type {
            let ty = rows.column_type();
            self.ingest_pool.release_batch(rows);
            return Err(DataError::mismatch("plan source", plan.source_type, ty));
        }
        let input = AssembledBatch::new(rows, Some(Arc::clone(&self.ingest_pool)));
        Ok(self.scheduler.submit_assembled(id, plan, input, Some(pass)))
    }

    /// Convenience: assembled-batch predict and wait.
    pub fn predict_batch_assembled_wait(
        &self,
        id: PlanId,
        rows: pretzel_data::ColumnBatch,
        hashes: Vec<u64>,
    ) -> Result<Vec<f32>> {
        self.predict_batch_assembled(id, rows, hashes)?.wait()
    }

    // ---- Model lifecycle (control plane) --------------------------------

    /// Deploys a serialized model file: decode it *through the Object
    /// Store* (already-resident parameters are not re-deserialized — the
    /// paper's §5.1 fast-load behaviour), compile through Oven, register,
    /// and optionally bind an alias. The whole lifecycle is also driveable
    /// over the wire (`DEPLOY` admin verb).
    pub fn deploy(&self, image: &[u8], opts: DeployOptions) -> Result<PlanId> {
        let outcome =
            TransformGraph::from_model_image_shared(image, &self.store).and_then(|graph| {
                crate::oven::optimize(&graph)
                    .and_then(|optimized| {
                        self.register_with(
                            optimized.plan,
                            RegisterOptions {
                                reserved: opts.reserved,
                            },
                        )
                    })
                    .inspect(|_| {
                        // Image operators the optimizer compiled away (a
                        // pushed-down Concat, CSE'd duplicates) were
                        // interned at load but never retained; reap them so
                        // churn cannot accrete zero-ref residents.
                        self.store
                            .release_unreferenced(graph.nodes.iter().map(|n| n.op.checksum()));
                    })
            });
        let id = match outcome {
            Ok(id) => id,
            Err(e) => {
                // A half-loaded or rejected image must not pin parameters:
                // reap whatever it interned that no deployed plan retains.
                self.store.sweep_unreferenced();
                return Err(e);
            }
        };
        if let Some(alias) = &opts.alias {
            self.aliases.repoint(alias, id);
            // Same post-bind recheck as `swap`: if the plan was undeployed
            // between registration and the bind, never leave the alias
            // pointing at the tombstone.
            if self.entry(id).is_ok_and(|e| e.gate.is_retired()) {
                self.aliases.drop_plan(id);
            }
        }
        self.lifecycle_stats.note_deploy();
        Ok(id)
    }

    /// Undeploys a plan: retire the admission gate (new submissions fail
    /// fast with [`DataError::PlanRetired`]), drain in-flight work
    /// (outstanding `BatchHandle`s complete on the old plan), release the
    /// plan's Object Store references (parameters whose refcount hits zero
    /// are freed), GC the stage catalog, unbind aliases, and join any
    /// reserved executor. The id remains a tombstone so later lookups stay
    /// a clean `PlanRetired` rather than `UnknownPlan`.
    pub fn undeploy(&self, id: PlanId) -> Result<UndeployReport> {
        let registered = self.entry(id)?;
        if !registered.gate.retire() {
            return Err(DataError::PlanRetired(id));
        }
        registered.gate.wait_drained();
        // Reclaim: the entry becomes a tombstone under the registry's
        // write lock, which waits out every inline request still reading
        // the plan. No execution can reach the plan after that.
        if let Some(entry) = self.plans.write().get_mut(&id) {
            *entry = Arc::new(RegisteredPlan::tombstone(&registered.gate));
        }
        let (freed_params, freed_param_bytes) = self.store.release_plan(&registered.refs);
        // The last hold on the compiled plan, before the catalog sweep
        // counts who still shares its stages.
        drop(registered);
        let dropped_stages = self.sweep_catalog();
        let dropped_aliases = self.aliases.drop_plan(id);
        self.scheduler.unreserve(id);
        self.compact_tombstones();
        self.fault_policy.forget(id);
        self.metrics.forget_plan(id);
        self.lifecycle_stats.note_undeploy();
        Ok(UndeployReport {
            freed_param_bytes,
            freed_params,
            dropped_stages,
            dropped_aliases,
        })
    }

    /// Bounds the registry's control-plane state under continuous churn:
    /// once more than [`TOMBSTONE_CAP`] retired entries
    /// accumulate, the oldest are removed outright — and the retired-epoch
    /// watermark advances past them, so their ids still resolve to
    /// [`DataError::PlanRetired`] afterwards.
    fn compact_tombstones(&self) {
        let mut plans = self.plans.write();
        let mut retired: Vec<PlanId> = plans
            .iter()
            .filter(|(_, e)| e.gate.is_retired())
            .map(|(&id, _)| id)
            .collect();
        if retired.len() <= TOMBSTONE_CAP {
            return;
        }
        retired.sort_unstable();
        let drop_n = retired.len() - TOMBSTONE_CAP;
        for id in &retired[..drop_n] {
            plans.remove(id);
        }
        // Every id <= the highest compacted one that is now absent from
        // the registry was retired (ids are monotone, never reused).
        self.retired_epoch
            .fetch_max(retired[drop_n - 1] + 1, Ordering::AcqRel);
    }

    /// Atomically repoints `alias` from whatever version it served to
    /// `id`, returning the previous binding. Alias-addressed clients
    /// observe either the old or the new version — never a gap.
    pub fn swap(&self, alias: &str, id: PlanId) -> Result<Option<PlanId>> {
        let registered = self.entry(id)?;
        if registered.gate.is_retired() {
            return Err(DataError::PlanRetired(id));
        }
        let previous = self.aliases.repoint(alias, id);
        // Close the race with a concurrent `undeploy(id)`: its alias
        // cleanup (`drop_plan`) may have run before our repoint landed,
        // which would leave the alias bound to a tombstone forever. The
        // recheck happens after the repoint, so one of the two cleanups is
        // guaranteed to observe (and unbind) the stale binding.
        if registered.gate.is_retired() {
            self.aliases.drop_plan(id);
            return Err(DataError::PlanRetired(id));
        }
        self.lifecycle_stats.note_swap();
        Ok(previous)
    }

    /// Resolves an alias to its current plan id.
    pub fn resolve(&self, alias: &str) -> Option<PlanId> {
        self.aliases.resolve(alias)
    }

    /// Manually rolls `alias` back one version: pops the current binding
    /// off the alias's version history and serves the predecessor.
    /// Returns the version now bound, or `None` when there was no
    /// predecessor to fall back to (the binding is left untouched).
    /// Errors only when the alias itself is unknown.
    pub fn rollback(&self, alias: &str) -> Result<Option<PlanId>> {
        if self.aliases.resolve(alias).is_none() {
            return Err(unknown_alias(alias));
        }
        Ok(self.aliases.rollback(alias))
    }

    /// Runs `f` against the alias's current binding, re-resolving and
    /// retrying (bounded) when the bound version retires mid-request —
    /// this is what makes `swap` + `undeploy(old)` lose zero
    /// alias-addressed requests.
    pub fn with_alias<T>(&self, alias: &str, mut f: impl FnMut(PlanId) -> Result<T>) -> Result<T> {
        let mut attempt = 0;
        loop {
            let id = self.resolve(alias).ok_or_else(|| unknown_alias(alias))?;
            match f(id) {
                Err(DataError::PlanRetired(_) | DataError::PlanQuarantined(_))
                    if attempt < ALIAS_RETRIES =>
                {
                    attempt += 1
                }
                other => return other,
            }
        }
    }

    /// Request-response engine addressed by alias (retries across swaps).
    pub fn predict_source_alias(&self, alias: &str, source: SourceRef<'_>) -> Result<f32> {
        self.with_alias(alias, |id| self.predict_source(id, source))
    }

    /// The admin `LIST` view: every known plan (tombstones included) with
    /// its lifecycle state and bound aliases, sorted by id.
    pub fn list_plans(&self) -> Vec<PlanInfo> {
        let aliases = self.aliases.snapshot();
        let mut out: Vec<PlanInfo> = self
            .plans
            .read()
            .iter()
            .map(|(&id, e)| PlanInfo {
                id,
                retired: e.gate.is_retired(),
                quarantined: e.gate.is_quarantined(),
                in_flight: e.gate.in_flight(),
                aliases: aliases
                    .iter()
                    .filter(|(_, bound)| *bound == id)
                    .map(|(a, _)| a.clone())
                    .collect(),
            })
            .collect();
        out.sort_by_key(|info| info.id);
        out
    }

    /// Lifecycle churn counters.
    pub fn lifecycle_stats(&self) -> &LifecycleStats {
        &self.lifecycle_stats
    }

    /// Live reservations in the scheduler (tests / admin surface).
    pub fn reserved_count(&self) -> usize {
        self.scheduler.reserved_count()
    }

    /// Drops catalog stages only retired plans referenced (their `Arc` is
    /// otherwise unshared). Returns how many were collected.
    fn sweep_catalog(&self) -> usize {
        let mut catalog = self.catalog.lock();
        let before = catalog.len();
        catalog.retain(|_, stage| Arc::strong_count(stage) > 1);
        before - catalog.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flour::FlourContext;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;

    fn sa_logical(seed: u64) -> StagePlan {
        let vocab = synth::vocabulary(0, 64);
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(1).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 128)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 128, &vocab)));
        c.concat(&w)
            .classifier_linear(Arc::new(synth::linear(seed, 256, LinearKind::Logistic)))
            .plan()
            .unwrap()
    }

    #[test]
    fn register_and_predict_round_trip() {
        let rt = Runtime::new(RuntimeConfig {
            n_executors: 2,
            ..RuntimeConfig::default()
        });
        let id = rt.register(sa_logical(1)).unwrap();
        let score = rt.predict(id, "5,this is a nice product").unwrap();
        assert!((0.0..=1.0).contains(&score));
        // Deterministic.
        assert_eq!(score, rt.predict(id, "5,this is a nice product").unwrap());
    }

    #[test]
    fn request_response_and_batch_agree() {
        let rt = Runtime::new(RuntimeConfig {
            n_executors: 2,
            chunk_size: 3,
            ..RuntimeConfig::default()
        });
        let id = rt.register(sa_logical(2)).unwrap();
        let records: Vec<Record> = (0..10)
            .map(|i| Record::Text(format!("4,review {i} was fine")))
            .collect();
        let batch = rt.predict_batch_wait(id, records.clone()).unwrap();
        for (i, r) in records.iter().enumerate() {
            let Record::Text(line) = r else {
                unreachable!()
            };
            let inline = rt.predict(id, line).unwrap();
            assert!((batch[i] - inline).abs() < 1e-6);
        }
    }

    #[test]
    fn catalog_shares_stages_between_identical_plans() {
        let rt = Runtime::new(RuntimeConfig::default());
        let a = rt.register(sa_logical(7)).unwrap();
        assert_eq!(rt.lifecycle_stats().stages_reused(), 0);
        let b = rt.register(sa_logical(7)).unwrap();
        // Identical logical plans compile to catalog-shared stages: the
        // second registration builds none, it probes them all resident.
        let pa = rt.plan(a).unwrap();
        let pb = rt.plan(b).unwrap();
        for (sa, sb) in pa.stages.iter().zip(&pb.stages) {
            assert!(Arc::ptr_eq(sa, sb));
        }
        assert_eq!(rt.catalog_size(), pa.stages.len());
        assert_eq!(rt.lifecycle_stats().stages_reused(), pa.stages.len() as u64);
    }

    #[test]
    fn distinct_weights_share_featurizer_params_not_stages() {
        let rt = Runtime::new(RuntimeConfig::default());
        let a = rt.register(sa_logical(1)).unwrap();
        let b = rt.register(sa_logical(2)).unwrap();
        // Featurizer params interned once; 2 linear models are distinct.
        assert!(rt.object_store().reuse_count() > 0);
        let params = |id| {
            let mut addrs = Vec::new();
            for step in rt.plan(id).unwrap().stages.iter().flat_map(|s| &s.steps) {
                step.op
                    .for_each_param(|op| addrs.push((op.kind(), op.params_addr())));
            }
            addrs
        };
        let (pa, pb) = (params(a), params(b));
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.0, y.0);
            assert_eq!(
                x.1 == y.1,
                x.0 != pretzel_ops::OpKind::Linear,
                "{x:?} {y:?}"
            );
        }
        // An SA plan is one stage; the signatures differ (weights differ),
        // so the catalog holds one per plan.
        assert_eq!(rt.plan(a).unwrap().stages.len(), 1);
        assert_eq!(rt.catalog_size(), 2);
    }

    #[test]
    fn aot_off_compiles_lazily() {
        let rt = Runtime::new(RuntimeConfig {
            aot: false,
            ..RuntimeConfig::default()
        });
        let id = rt.register(sa_logical(3)).unwrap();
        // Parameters are interned at registration (the Object Store is an
        // off-line structure), but stage compilation is deferred: the
        // catalog stays empty until the first prediction.
        assert!(!rt.object_store().is_empty());
        assert_eq!(rt.catalog_size(), 0);
        let _ = rt.predict(id, "1,cold start pays compilation").unwrap();
        assert!(rt.catalog_size() > 0);
    }

    #[test]
    fn unknown_plan_id_is_error() {
        let rt = Runtime::new(RuntimeConfig::default());
        assert!(rt.predict(42, "x").is_err());
    }

    #[test]
    fn reserved_registration_works_end_to_end() {
        let rt = Runtime::new(RuntimeConfig {
            n_executors: 1,
            ..RuntimeConfig::default()
        });
        let id = rt
            .register_with(sa_logical(5), RegisterOptions { reserved: true })
            .unwrap();
        let scores = rt
            .predict_batch_wait(
                id,
                vec![Record::Text("1,ok".into()), Record::Text("2,fine".into())],
            )
            .unwrap();
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn dense_pipeline_predicts() {
        let dim = 8;
        let ctx = FlourContext::new();
        let x = ctx.dense_source(dim);
        let logical = x
            .scale(Arc::new(synth::scaler(1, dim)))
            .regressor_tree(Arc::new(synth::ensemble(
                2,
                dim,
                3,
                3,
                pretzel_ops::tree::EnsembleMode::Average,
            )))
            .plan()
            .unwrap();
        let rt = Runtime::new(RuntimeConfig::default());
        let id = rt.register(logical).unwrap();
        let score = rt.predict_dense(id, &[0.5; 8]).unwrap();
        assert!(score.is_finite());
    }
}
