//! Physical stages and the Model Plan Compiler (MPC).
//!
//! "Once the logical plan is generated, MPC traverses the DAG in topological
//! order and maps each logical stage into a physical implementation.
//! Physical implementations are AOT-compiled, parameterized, lock-free
//! computation units" (paper §4.1.2). In this Rust reproduction every
//! kernel is statically compiled; what MPC decides is *which* kernel shape
//! serves a logical stage (the paper's 1-logical-to-n-physical mapping):
//!
//! * the generic **stepwise** program, executing each step with enum
//!   dispatch over pooled buffers;
//! * **fused n-gram·dot kernels**: when a stage contains `CharNgram →
//!   PartialDot` (or the word variant) with a scratch-only intermediate,
//!   the two steps collapse into one kernel that accumulates
//!   `weights[offset + idx]` per dictionary hit and never materializes the
//!   sparse feature vector; or
//! * the **fused text step**: when a stage's `Combine` reads only such
//!   fused n-gram·dots over one text, which a `CsvParse(TextField)` selects
//!   and one `Tokenizer` splits, all of it — field selection to score —
//!   becomes one [`StageOp::FusedText`] that reads the row once
//!   ([`pretzel_ops::text::fused`]). A Sentiment Analysis plan is that one
//!   step.
//!
//! Both fusions run only with [`CompileOptions::fuse_ngram_dot`]; with the
//! materialization cache on, featurizer outputs stay steps of their own so
//! they can be cached.
//!
//! Physical stages are identified by a structural [`PhysicalStage::signature`]
//! so the runtime catalog can load each distinct stage once and share it
//! between plans (paper §4.2.1).
//!
//! A [`ModelPlan`] also links its stages into one program over one
//! *frame* — the plan's slots, then every stage's scratch — so a row
//! execution runs all steps in one loop, with every operand's place fixed
//! at compile time, over buffers the [`ExecCtx`] keeps between executions.
//! The batch engine still runs stage by stage over chunk batches.

use crate::object_store::{MatKey, MaterializationCache, ObjectStore};
use crate::plan::{BufDef, Loc, LogicalStage, StageOp, StagePlan, Step};
use pretzel_data::batch::ColRef;
use pretzel_data::hash::Fnv1a;
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};
use pretzel_ops::text::fused::{FusedText, NgramLevel, TextBranch};
use pretzel_ops::Op;
use std::sync::Arc;

/// Compilation options chosen by the runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fuse `ngram → PartialDot` pairs into single kernels, and whole text
    /// plans into one fused text step. Disabled when sub-plan
    /// materialization is on, so that shared featurizer outputs stay
    /// cacheable (fused outputs embed per-pipeline weights and would never
    /// hit).
    pub fuse_ngram_dot: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fuse_ngram_dot: true,
        }
    }
}

/// An executable, shareable physical stage.
#[derive(Debug)]
pub struct PhysicalStage {
    /// Steps after physical selection (possibly fused).
    pub steps: Vec<Step>,
    /// Stage-local scratch buffers.
    pub scratch: Vec<BufDef>,
    /// Plan slots read (scheduling metadata).
    pub reads: Vec<u32>,
    /// Plan slots written.
    pub writes: Vec<u32>,
    /// Structural identity for catalog interning.
    pub signature: u64,
    /// Stage labelled dense by training statistics.
    pub dense: bool,
    /// Stage labelled vectorizable.
    pub vectorizable: bool,
    /// Per-step materialization keys, precomputed at compile time
    /// (`Some(step checksum)` for cacheable featurizer steps). Checksums
    /// serialize parameters, so they must never be computed on the
    /// prediction path.
    mat_steps: Vec<Option<u64>>,
}

/// Per-executor execution context: the vector pool, the frame a whole-plan
/// execution runs in, reusable scratch containers for stage-at-a-time
/// execution, and the optional materialization cache.
#[derive(Debug)]
pub struct ExecCtx {
    /// Pool backing the frame and stage scratch (and, at the runtime
    /// layer, slot leases).
    pub pool: Arc<VectorPool>,
    /// Sub-plan materialization cache, if enabled.
    pub cache: Option<Arc<MaterializationCache>>,
    /// Hash of the current source record (materialization key component,
    /// per-record path).
    pub source_hash: u64,
    /// Per-row source hashes of the current chunk (materialization key
    /// components, columnar path). Must hold one hash per chunk row before
    /// a stage with cacheable steps executes in batch mode.
    pub source_hashes: Vec<u64>,
    /// Telemetry registry for cache-probe latency recording; `None` (the
    /// telemetry-off ablation leg) executes with zero clock reads.
    pub telemetry: Option<Arc<crate::telemetry::MetricsRegistry>>,
    /// The buffers of the last whole-plan execution, kept between
    /// executions: the scratch of every stage, preceded by the plan's
    /// slots when the context owns them (a request-response session). It
    /// is leased from `pool` when the layout changes, cleared when it does
    /// not, and returned when the context drops.
    frame: Vec<Vector>,
    /// Index of the program step the last whole-plan execution reached —
    /// after a contained panic, the step that faulted.
    reached: usize,
    scratch: Vec<Vector>,
    batch_scratch: Vec<ColumnBatch>,
}

impl ExecCtx {
    /// Creates a context over a pool.
    pub fn new(pool: Arc<VectorPool>) -> Self {
        ExecCtx {
            pool,
            cache: None,
            source_hash: 0,
            source_hashes: Vec::new(),
            telemetry: None,
            frame: Vec::new(),
            reached: 0,
            scratch: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// Makes the frame a cleared set of buffers of `layout`: the same
    /// buffers when the layout is the one they were leased for, else the
    /// old ones go back to the pool and a new set is leased.
    fn fit_frame(&mut self, layout: &[BufDef]) {
        let fits = self.frame.len() == layout.len()
            && self
                .frame
                .iter()
                .zip(layout)
                .all(|(v, def)| v.column_type() == def.ty);
        if fits {
            self.frame.iter_mut().for_each(Vector::reset);
            return;
        }
        self.release_frame();
        let pool = &self.pool;
        self.frame
            .extend(layout.iter().map(|def| pool.acquire(def.ty)));
    }

    /// Returns the frame's buffers to the pool.
    pub(crate) fn release_frame(&mut self) {
        for v in self.frame.drain(..) {
            self.pool.release(v);
        }
    }

    /// Buffers the frame holds (leases outstanding from the pool).
    pub(crate) fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Fits the frame to `layout` and lends it out, together with what the
    /// step loop reads, for one execution scoring `source`.
    fn frame_for(
        &mut self,
        layout: &[BufDef],
        source: SourceRef<'_>,
    ) -> (&mut [Vector], StepEnv<'_>, &mut usize) {
        self.source_hash = if self.cache.is_some() {
            source.content_hash()
        } else {
            0
        };
        self.fit_frame(layout);
        let env = StepEnv {
            cache: self.cache.as_deref(),
            telemetry: self.telemetry.as_ref(),
            source_hash: self.source_hash,
        };
        (&mut self.frame, env, &mut self.reached)
    }

    /// Enables sub-plan materialization.
    pub fn with_cache(mut self, cache: Arc<MaterializationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables cache-probe latency recording into `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Arc<crate::telemetry::MetricsRegistry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Returns any stage scratch stranded in the context to the pool.
    ///
    /// On the normal path `PhysicalStage::execute`/`execute_batch` drain
    /// their scratch back to the pool before returning, so this is a no-op.
    /// When an operator *panics* mid-stage the drain is skipped — the
    /// unwind tears straight through the stage body — and because contexts
    /// are reused across chunks (per executor thread) the stranded buffers
    /// would poison the next execution's `debug_assert!(ctx.scratch
    /// .is_empty())` and leak pool capacity. Fault containment calls this
    /// from every `catch_unwind` recovery arm. The frame needs no recovery:
    /// a step borrows its buffers in place, so they stay in the frame.
    pub fn recover_scratch(&mut self) {
        for v in self.scratch.drain(..) {
            self.pool.release(v);
        }
        for b in self.batch_scratch.drain(..) {
            self.pool.release_batch(b);
        }
    }
}

impl Drop for ExecCtx {
    fn drop(&mut self) {
        self.release_frame();
    }
}

/// A materialization-cache lookup, timed into the telemetry registry when
/// one is installed (split by hit/miss outcome) and a plain `get` otherwise.
#[inline]
fn timed_cache_get(
    telemetry: Option<&Arc<crate::telemetry::MetricsRegistry>>,
    cache: &MaterializationCache,
    key: MatKey,
) -> Option<Arc<Vector>> {
    match telemetry {
        Some(t) => {
            let t0 = std::time::Instant::now();
            let hit = cache.get(key);
            t.record_cache_probe(hit.is_some(), t0.elapsed().as_nanos() as u64);
            hit
        }
        None => cache.get(key),
    }
}

/// What the step loop reads besides its buffers: the materialization
/// cache, the source hash that keys it, and where cache probes are timed.
struct StepEnv<'a> {
    cache: Option<&'a MaterializationCache>,
    telemetry: Option<&'a Arc<crate::telemetry::MetricsRegistry>>,
    source_hash: u64,
}

/// One buffer array with at most one buffer borrowed out of it: `lo` holds
/// the buffers below that one, `hi` the buffers above it.
#[derive(Clone, Copy)]
struct Around<'a> {
    lo: &'a [Vector],
    hi: &'a [Vector],
}

impl<'a> Around<'a> {
    fn whole(bufs: &'a [Vector]) -> Self {
        Around { lo: bufs, hi: &[] }
    }

    /// Splits `bufs` around buffer `i`, which is borrowed out mutably.
    fn split(bufs: &'a mut [Vector], i: u32) -> (&'a mut Vector, Self) {
        let (lo, rest) = bufs.split_at_mut(i as usize);
        let (out, hi) = rest
            .split_first_mut()
            .expect("validated plans write buffers in range");
        (out, Around { lo, hi })
    }

    #[inline]
    fn get(self, i: u32) -> &'a Vector {
        let i = i as usize;
        match i.checked_sub(self.lo.len()) {
            None => &self.lo[i],
            // `k == 0` is the borrowed-out buffer: validated plans never
            // read a step's output as its input.
            Some(k) => &self.hi[k.wrapping_sub(1)],
        }
    }
}

/// A step's operands: its output borrowed mutably in place, every other
/// slot and scratch buffer readable.
struct Operands<'a> {
    out: &'a mut Vector,
    slots: Around<'a>,
    scratch: Around<'a>,
}

impl<'a> Operands<'a> {
    fn of(slots: &'a mut [Vector], scratch: &'a mut [Vector], output: Loc) -> Self {
        match output {
            Loc::Slot(i) => {
                let (out, slots) = Around::split(slots, i);
                Operands {
                    out,
                    slots,
                    scratch: Around::whole(scratch),
                }
            }
            Loc::Scratch(i) => {
                let (out, scratch) = Around::split(scratch, i);
                Operands {
                    out,
                    slots: Around::whole(slots),
                    scratch,
                }
            }
        }
    }
}

/// Reads an input operand next to a borrowed-out output.
#[inline]
fn read<'a>(slots: Around<'a>, scratch: Around<'a>, loc: Loc) -> &'a Vector {
    match loc {
        Loc::Slot(i) => slots.get(i),
        Loc::Scratch(i) => scratch.get(i),
    }
}

/// Runs one step's row kernel over its inputs into `out`.
#[inline]
fn apply_step(step: &Step, slots: Around<'_>, scratch: Around<'_>, out: &mut Vector) -> Result<()> {
    let r = |loc: &Loc| read(slots, scratch, *loc);
    match step.inputs.as_slice() {
        [] => Err(DataError::Runtime(format!(
            "step {} has no inputs",
            step.op.name()
        ))),
        [a] => step.op.apply(&[r(a)], out),
        [a, b] => step.op.apply(&[r(a), r(b)], out),
        [a, b, c] => step.op.apply(&[r(a), r(b), r(c)], out),
        [a, b, c, d] => step.op.apply(&[r(a), r(b), r(c), r(d)], out),
        many => {
            // Rare (wide Concat/Combine): one small allocation.
            let refs: Vec<&Vector> = many.iter().map(r).collect();
            step.op.apply(&refs, out)
        }
    }
}

/// Runs `step` off the borrowed source row when the source is its first
/// input (and no other) and the operator has a row kernel for the source's
/// shape; `Ok(false)` when it has not, and the source must be materialized.
fn apply_row_borrowed(
    step: &Step,
    src: SourceRef<'_>,
    slots: &mut [Vector],
    scratch: &mut [Vector],
) -> Result<bool> {
    let [Loc::Slot(0), rest @ ..] = step.inputs.as_slice() else {
        return Ok(false);
    };
    if rest.contains(&Loc::Slot(0)) {
        return Ok(false);
    }
    let Operands {
        out,
        slots,
        scratch,
    } = Operands::of(slots, scratch, step.output);
    let r = |loc: &Loc| read(slots, scratch, *loc);
    let row = src.as_row();
    match rest {
        [] => step.op.apply_row(row, &[], out),
        [a] => step.op.apply_row(row, &[r(a)], out),
        many => {
            let refs: Vec<&Vector> = many.iter().map(r).collect();
            step.op.apply_row(row, &refs, out)
        }
    }
}

/// The one step loop of row execution: runs `steps` in order over `slots`
/// and `scratch`. A whole plan runs its program through it over a frame; a
/// single stage runs its own steps over leased scratch
/// ([`PhysicalStage::execute`]).
///
/// With a borrowed `source`, a step whose first input is the (not yet
/// materialized) source runs its row kernel off the borrowed row — no
/// slot-0 copy. A step without a borrowed kernel materializes the source
/// into slot 0 once and runs like every other step. `reached` is set to
/// each step's index before it runs.
fn run_steps(
    steps: &[Step],
    mat_steps: &[Option<u64>],
    mut source: Option<&mut BorrowedSource<'_>>,
    slots: &mut [Vector],
    scratch: &mut [Vector],
    env: &StepEnv<'_>,
    reached: &mut usize,
) -> Result<()> {
    for (i, (step, &mat)) in steps.iter().zip(mat_steps).enumerate() {
        *reached = i;
        // Sub-plan materialization (paper §4.3): shared featurizer steps
        // keyed by (precomputed step checksum, source hash).
        let cached = match (env.cache, mat) {
            (Some(cache), Some(step_sum)) => Some((
                cache,
                MatKey {
                    step: step_sum,
                    input: env.source_hash,
                },
            )),
            _ => None,
        };
        if let Some((cache, key)) = cached {
            if let Some(hit) = timed_cache_get(env.telemetry, cache, key) {
                Operands::of(slots, scratch, step.output)
                    .out
                    .clone_from(&hit);
                continue;
            }
        }
        let mut applied = false;
        let unloaded = source
            .as_deref_mut()
            .filter(|bs| !bs.loaded && step.inputs.contains(&Loc::Slot(0)));
        if let Some(bs) = unloaded {
            applied = apply_row_borrowed(step, bs.src, slots, scratch)?;
            if !applied {
                bs.src.load_into(&mut slots[0])?;
                bs.loaded = true;
            }
        }
        let Operands {
            out,
            slots: s,
            scratch: t,
        } = Operands::of(slots, scratch, step.output);
        if !applied {
            apply_step(step, s, t, out)?;
        }
        if let Some((cache, key)) = cached {
            cache.put(key, Arc::new(out.clone()));
        }
    }
    Ok(())
}

#[inline]
fn batch_buf<'a>(
    slots: &'a [ColumnBatch],
    scratch: &'a [ColumnBatch],
    loc: Loc,
) -> &'a ColumnBatch {
    match loc {
        Loc::Slot(i) => &slots[i as usize],
        Loc::Scratch(i) => &scratch[i as usize],
    }
}

#[inline]
fn take_batch(slots: &mut [ColumnBatch], scratch: &mut [ColumnBatch], loc: Loc) -> ColumnBatch {
    let place = match loc {
        Loc::Slot(i) => &mut slots[i as usize],
        Loc::Scratch(i) => &mut scratch[i as usize],
    };
    std::mem::replace(place, ColumnBatch::Scalar(Vec::new()))
}

#[inline]
fn put_batch(slots: &mut [ColumnBatch], scratch: &mut [ColumnBatch], loc: Loc, b: ColumnBatch) {
    match loc {
        Loc::Slot(i) => slots[i as usize] = b,
        Loc::Scratch(i) => scratch[i as usize] = b,
    }
}

/// The cheap first half of stage compilation: fused steps plus the stage
/// signature, computed **before** the full physical stage is built. The
/// runtime catalog probes the signature and, on a hit, serves the stage a
/// live plan already deployed and throws this away.
#[derive(Debug)]
pub struct PreparedStage {
    steps: Vec<Step>,
    scratch: Vec<BufDef>,
    reads: Vec<u32>,
    writes: Vec<u32>,
    /// The catalog-interning signature the finished stage will carry.
    pub signature: u64,
    dense: bool,
    vectorizable: bool,
}

impl PhysicalStage {
    /// Compiles a logical stage into its physical implementation.
    pub fn compile(logical: &LogicalStage, opts: &CompileOptions) -> Self {
        Self::finish(Self::prepare(logical, opts))
    }

    /// First half of [`Self::compile`]: operator fusion and the stage
    /// signature, cheap enough to run just to probe the catalog.
    pub fn prepare(logical: &LogicalStage, opts: &CompileOptions) -> PreparedStage {
        let mut steps = logical.steps.clone();
        let mut scratch = logical.scratch.clone();
        if opts.fuse_ngram_dot {
            fuse_ngram_dot(&mut steps, &mut scratch);
            fuse_text(&mut steps, &mut scratch);
        }
        let signature = signature_of(&steps, &scratch, logical.dense, logical.vectorizable);
        PreparedStage {
            steps,
            scratch,
            reads: logical.reads.clone(),
            writes: logical.writes.clone(),
            signature,
            dense: logical.dense,
            vectorizable: logical.vectorizable,
        }
    }

    /// Second half of [`Self::compile`]: builds the executable stage from
    /// the prepared parts (catalog misses only).
    pub fn finish(prepared: PreparedStage) -> Self {
        let mat_steps = prepared
            .steps
            .iter()
            .map(|s| s.op.cacheable().then(|| s.op.checksum()))
            .collect();
        PhysicalStage {
            steps: prepared.steps,
            scratch: prepared.scratch,
            reads: prepared.reads,
            writes: prepared.writes,
            signature: prepared.signature,
            dense: prepared.dense,
            vectorizable: prepared.vectorizable,
            mat_steps,
        }
    }

    /// Executes the stage alone over the plan working set `slots` (whole
    /// plans run every stage in one loop instead: [`ModelPlan::execute`]).
    ///
    /// Scratch buffers come from `ctx.pool` and return to it before the
    /// call ends; the reusable container in `ctx` keeps this allocation-free
    /// after warm-up.
    pub fn execute(&self, slots: &mut [Vector], ctx: &mut ExecCtx) -> Result<()> {
        let ExecCtx {
            pool,
            cache,
            source_hash,
            telemetry,
            scratch,
            ..
        } = ctx;
        debug_assert!(scratch.is_empty());
        scratch.extend(self.scratch.iter().map(|def| pool.acquire(def.ty)));
        let env = StepEnv {
            cache: cache.as_deref(),
            telemetry: telemetry.as_ref(),
            source_hash: *source_hash,
        };
        let result = run_steps(
            &self.steps,
            &self.mat_steps,
            None,
            slots,
            scratch,
            &env,
            &mut 0,
        );
        // Always return scratch, also on error paths.
        for v in scratch.drain(..) {
            pool.release(v);
        }
        result
    }

    /// True if any step of this stage is a sub-plan materialization
    /// candidate. The scheduler uses this to decide whether a columnar
    /// chunk needs per-row source hashes before the stage runs.
    pub fn has_cacheable_steps(&self) -> bool {
        self.mat_steps.iter().any(Option::is_some)
    }

    /// Executes the stage over a columnar working set: one kernel call per
    /// step for the whole chunk, instead of one per step *per record*.
    ///
    /// Stage-local scratch is leased as batches (one per scratch def per
    /// chunk) and returned before the call ends. With sub-plan
    /// materialization enabled, cacheable steps run the chunk-level cache
    /// probe (hit/miss partition + miss sub-batch) instead of the plain
    /// whole-chunk kernel; `ctx.source_hashes` must then hold one hash per
    /// chunk row.
    pub fn execute_batch(
        &self,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        debug_assert!(ctx.batch_scratch.is_empty());
        for def in &self.scratch {
            let b = ctx.pool.acquire_batch(def.ty, rows);
            ctx.batch_scratch.push(b);
        }
        let result = self.run_steps_batch(slots, rows, ctx);
        let pool = Arc::clone(&ctx.pool);
        for b in ctx.batch_scratch.drain(..) {
            pool.release_batch(b);
        }
        result
    }

    fn run_steps_batch(
        &self,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        for (step_idx, step) in self.steps.iter().enumerate() {
            // Sub-plan materialization (paper §4.3) at chunk granularity:
            // probe per row, batch-evaluate only the misses.
            if let Some(step_sum) = self.mat_steps[step_idx] {
                if let Some(cache) = ctx.cache.as_ref().map(Arc::clone) {
                    let probe = ChunkCacheProbe {
                        cache,
                        pool: Arc::clone(&ctx.pool),
                        step_sum,
                    };
                    probe.run_step(step, slots, rows, ctx)?;
                    continue;
                }
            }
            let mut out = take_batch(slots, &mut ctx.batch_scratch, step.output);
            let res = apply_step_batch(step, slots, &ctx.batch_scratch, &mut out);
            put_batch(slots, &mut ctx.batch_scratch, step.output, out);
            res?;
        }
        Ok(())
    }
}

/// Runs one step's batch kernel over the chunk, reading inputs from
/// `slots`/`scratch` into the (taken) output batch `out`.
fn apply_step_batch(
    step: &Step,
    slots: &[ColumnBatch],
    scratch: &[ColumnBatch],
    out: &mut ColumnBatch,
) -> Result<()> {
    match step.inputs.as_slice() {
        [] => Err(DataError::Runtime(format!(
            "step {} has no inputs",
            step.op.name()
        ))),
        [a] => step.op.apply_batch(&[batch_buf(slots, scratch, *a)], out),
        [a, b] => step.op.apply_batch(
            &[batch_buf(slots, scratch, *a), batch_buf(slots, scratch, *b)],
            out,
        ),
        many => {
            let refs: Vec<&ColumnBatch> =
                many.iter().map(|&l| batch_buf(slots, scratch, l)).collect();
            step.op.apply_batch(&refs, out)
        }
    }
}

/// One cacheable step's chunk-level materialization-cache probe.
///
/// The columnar analogue of the per-record cache branch in the row step
/// loop (`run_steps`): partition the chunk into a hit set and a
/// miss sub-batch ([`ColumnBatch::gather`]/[`ColumnBatch::push_row`]
/// selection kernels), run the step's batch kernel only on the misses, and
/// scatter hits + computed rows back into one output batch in original row
/// order.
///
/// Per-record cache semantics are preserved **exactly**, including LRU
/// recency order and eviction victims under mid-chunk eviction pressure:
///
/// 1. a *speculative* partition pass peeks every row's key without
///    touching recency or counters ([`MaterializationCache::peek`]);
/// 2. the speculated misses batch-evaluate over gathered sub-batches,
///    with no cache writes;
/// 3. a *replay* pass then issues the real cache operations in original
///    row order — one `get` per row, one `put` per `get` that missed —
///    which is the identical operation sequence the per-record path
///    produces, so the LRU list transitions through the same states. A
///    replayed `get` that disagrees with the speculation (its entry was
///    evicted by an earlier in-chunk insert, or an in-chunk duplicate's
///    insert already landed) is handled the way the per-record path would:
///    use the cached value on an unexpected hit, recompute the single row
///    on an unexpected miss.
struct ChunkCacheProbe {
    cache: Arc<MaterializationCache>,
    pool: Arc<VectorPool>,
    step_sum: u64,
}

impl ChunkCacheProbe {
    fn run_step(
        &self,
        step: &Step,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        if ctx.source_hashes.len() != rows {
            return Err(DataError::Runtime(format!(
                "cache-aware batch execution wants {rows} source hashes, has {}",
                ctx.source_hashes.len()
            )));
        }
        // Phase 1: speculative partition via non-mutating peeks.
        // `plan[r]` is `Some(j)` when row `r` is the first in-chunk
        // occurrence of an uncached key and will be batch-computed at miss
        // sub-batch row `j`; `None` when the row is expected to hit at
        // replay time (peeked hit, or duplicate of an earlier in-chunk
        // miss whose insert will have landed by then).
        let mut plan: Vec<Option<usize>> = Vec::with_capacity(rows);
        let mut miss_rows: Vec<usize> = Vec::new();
        let mut pending: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (r, &input) in ctx.source_hashes.iter().enumerate() {
            if pending.contains(&input) {
                plan.push(None);
                continue;
            }
            let key = MatKey {
                step: self.step_sum,
                input,
            };
            match self.cache.peek(key) {
                Some(_) => plan.push(None),
                None => {
                    pending.insert(input);
                    plan.push(Some(miss_rows.len()));
                    miss_rows.push(r);
                }
            }
        }
        // All-miss fast path (cold caches, unique request streams): no
        // sub-batch needed — run the kernel over the original slot batches
        // exactly like the uncached path, then replay the get/put pairs.
        // Duplicates plan as `None`, so all-miss implies all keys unique.
        if miss_rows.len() == rows {
            return self.run_all_miss(step, slots, rows, ctx);
        }
        // Phase 2: batch-evaluate the speculated misses over gathered
        // sub-batches. No cache writes yet — those belong to the replay.
        let out_ty = batch_buf(slots, &ctx.batch_scratch, step.output).column_type();
        let miss_out = if miss_rows.is_empty() {
            None
        } else {
            Some(self.eval_miss_rows(step, &miss_rows, out_ty, slots, &ctx.batch_scratch)?)
        };
        // Phase 3: replay the cache operations in original row order. From
        // here on the cache sees exactly what the per-record path would
        // have issued, so hit/miss counters, recency order, and eviction
        // victims match it even under mid-chunk eviction pressure.
        let replayed: Result<Vec<Arc<Vector>>> = (|| {
            let mut srcs = Vec::with_capacity(rows);
            for (r, row_plan) in plan.iter().enumerate() {
                let key = MatKey {
                    step: self.step_sum,
                    input: ctx.source_hashes[r],
                };
                match timed_cache_get(ctx.telemetry.as_ref(), &self.cache, key) {
                    Some(hit) => srcs.push(hit),
                    None => {
                        let value = match row_plan {
                            Some(j) => Arc::new(
                                miss_out
                                    .as_ref()
                                    .expect("miss rows imply a miss batch")
                                    .row(*j)
                                    .to_vector(),
                            ),
                            // Speculated hit whose entry an earlier replay
                            // insert evicted, or a duplicate whose insert
                            // was already evicted (degenerate budget):
                            // recompute the row alone, as the per-record
                            // path would on this miss.
                            None => {
                                let one = self.eval_miss_rows(
                                    step,
                                    &[r],
                                    out_ty,
                                    slots,
                                    &ctx.batch_scratch,
                                )?;
                                let v = Arc::new(one.row(0).to_vector());
                                self.pool.release_batch(one);
                                v
                            }
                        };
                        self.cache.put(key, Arc::clone(&value));
                        srcs.push(value);
                    }
                }
            }
            Ok(srcs)
        })();
        if let Some(b) = miss_out {
            self.pool.release_batch(b);
        }
        let srcs = replayed?;
        // Phase 4: scatter the per-row values into the output batch in
        // original row order.
        let mut out = take_batch(slots, &mut ctx.batch_scratch, step.output);
        out.reset();
        let mut res = Ok(());
        for v in &srcs {
            if let Err(e) = out.push_row(ColRef::from_vector(v)) {
                res = Err(e);
                break;
            }
        }
        put_batch(slots, &mut ctx.batch_scratch, step.output, out);
        res
    }

    /// Whole-chunk miss: runs the step's batch kernel in place (no
    /// gather/scatter copies), then replays the per-row `get` (miss) +
    /// `put` pairs in row order — the same operation sequence the
    /// per-record path issues on a cold chunk.
    fn run_all_miss(
        &self,
        step: &Step,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        let mut out = take_batch(slots, &mut ctx.batch_scratch, step.output);
        let mut res = apply_step_batch(step, slots, &ctx.batch_scratch, &mut out);
        if res.is_ok() && out.rows() != rows {
            res = Err(DataError::Runtime(format!(
                "step {} produced {} rows for a {rows}-row chunk",
                step.op.name(),
                out.rows(),
            )));
        }
        if res.is_ok() {
            for (r, &input) in ctx.source_hashes.iter().enumerate() {
                let key = MatKey {
                    step: self.step_sum,
                    input,
                };
                // All keys are unique and were absent at peek time, and
                // replay only inserts keys from this same set, so the get
                // always misses; it is issued anyway to keep the counter
                // and recency traffic identical to per-record execution.
                let _ = timed_cache_get(ctx.telemetry.as_ref(), &self.cache, key);
                self.cache.put(key, Arc::new(out.row(r).to_vector()));
            }
        }
        put_batch(slots, &mut ctx.batch_scratch, step.output, out);
        res
    }

    /// Gathers `miss_rows` of the step's inputs into pooled sub-batches and
    /// runs the step's batch kernel over them; returns the computed miss
    /// batch (pooled — the caller releases it). Cache insertion is NOT done
    /// here: the replay pass owns all cache writes so they land in original
    /// row order.
    fn eval_miss_rows(
        &self,
        step: &Step,
        miss_rows: &[usize],
        out_ty: ColumnType,
        slots: &[ColumnBatch],
        scratch: &[ColumnBatch],
    ) -> Result<ColumnBatch> {
        let mut gathered: Vec<ColumnBatch> = Vec::with_capacity(step.inputs.len());
        let mut res = Ok(());
        for &loc in &step.inputs {
            let src = batch_buf(slots, scratch, loc);
            let mut g = self.pool.acquire_batch(src.column_type(), miss_rows.len());
            res = src.gather(miss_rows, &mut g);
            gathered.push(g);
            if res.is_err() {
                break;
            }
        }
        let mut miss_out = self.pool.acquire_batch(out_ty, miss_rows.len());
        if res.is_ok() {
            if step.inputs.is_empty() {
                res = Err(DataError::Runtime(format!(
                    "step {} has no inputs",
                    step.op.name()
                )));
            } else {
                let refs: Vec<&ColumnBatch> = gathered.iter().collect();
                res = step.op.apply_batch(&refs, &mut miss_out);
            }
        }
        if res.is_ok() && miss_out.rows() != miss_rows.len() {
            res = Err(DataError::Runtime(format!(
                "step {} produced {} rows for a {}-row miss sub-batch",
                step.op.name(),
                miss_out.rows(),
                miss_rows.len()
            )));
        }
        for g in gathered {
            self.pool.release_batch(g);
        }
        if let Err(e) = res {
            self.pool.release_batch(miss_out);
            return Err(e);
        }
        Ok(miss_out)
    }
}

/// Rewrites `CharNgram/WordNgram → PartialDot` pairs over a private scratch
/// intermediate into single fused kernels, then compacts scratch defs.
fn fuse_ngram_dot(steps: &mut Vec<Step>, scratch: &mut Vec<BufDef>) {
    loop {
        let mut fused_any = false;
        'search: for i in 0..steps.len() {
            let scratch_out = match steps[i].output {
                Loc::Scratch(s) => s,
                Loc::Slot(_) => continue,
            };
            let ngram = match &steps[i].op {
                StageOp::Op(Op::CharNgram(p)) => (Arc::clone(p), false),
                StageOp::Op(Op::WordNgram(p)) => (Arc::clone(p), true),
                _ => continue,
            };
            // The intermediate must be consumed by exactly one PartialDot
            // and nothing else.
            let mut consumer = None;
            for (j, step) in steps.iter().enumerate() {
                if j == i {
                    continue;
                }
                let uses = step.inputs.contains(&Loc::Scratch(scratch_out))
                    || step.output == Loc::Scratch(scratch_out);
                if uses {
                    if consumer.is_some() {
                        continue 'search;
                    }
                    match &step.op {
                        StageOp::PartialDot { .. } if step.inputs.len() == 1 && j > i => {
                            consumer = Some(j);
                        }
                        _ => continue 'search,
                    }
                }
            }
            let Some(j) = consumer else { continue };
            let (linear, offset) = match &steps[j].op {
                StageOp::PartialDot { linear, offset } => (Arc::clone(linear), *offset),
                _ => unreachable!("consumer checked above"),
            };
            let (ngram, is_word) = ngram;
            let fused = Step {
                op: if is_word {
                    StageOp::FusedWordNgramDot {
                        ngram,
                        linear,
                        offset,
                    }
                } else {
                    StageOp::FusedCharNgramDot {
                        ngram,
                        linear,
                        offset,
                    }
                },
                inputs: steps[i].inputs.clone(),
                output: steps[j].output,
            };
            steps[i] = fused;
            steps.remove(j);
            fused_any = true;
            break;
        }
        if !fused_any {
            break;
        }
    }
    compact_scratch(steps, scratch);
}

/// Rewrites `CsvParse(TextField) → Tokenizer → {Char,Word}NgramDot →
/// Combine` into one [`StageOp::FusedText`] step in the Combine's place,
/// then compacts scratch. Runs after [`fuse_ngram_dot`], whose fused dots
/// are the branches.
fn fuse_text(steps: &mut Vec<Step>, scratch: &mut Vec<BufDef>) {
    while let Some((j, fused, mut absorbed)) =
        (0..steps.len()).find_map(|j| text_fusion_at(steps, j).map(|(s, a)| (j, s, a)))
    {
        steps[j] = fused;
        absorbed.sort_unstable();
        for &i in absorbed.iter().rev() {
            steps.remove(i);
        }
    }
    compact_scratch(steps, scratch);
}

/// The fused text step that can replace the `Combine` at `steps[j]`, and
/// the steps it absorbs: the fused n-gram·dots that alone produce its
/// partials, the tokenizer whose tokens only they read, and the CSV field
/// parser whose text only those read. `None` when the Combine reads
/// anything else or the parts do not fit one pass ([`FusedText::new`]).
fn text_fusion_at(steps: &[Step], j: usize) -> Option<(Step, Vec<usize>)> {
    let StageOp::Combine { linear } = &steps[j].op else {
        return None;
    };
    let writer = |loc: Loc| steps.iter().position(|s| s.output == loc);
    let read_only_by = |loc: Loc, allowed: &[usize]| {
        matches!(loc, Loc::Scratch(_))
            && steps
                .iter()
                .enumerate()
                .all(|(i, s)| allowed.contains(&i) || !s.inputs.contains(&loc))
    };
    let (mut text, mut tokens) = (None, None);
    let mut branches = Vec::new();
    let mut absorbed = Vec::new();
    for &partial in &steps[j].inputs {
        let p = writer(partial)?;
        let (level, ngram, offset) = match &steps[p].op {
            StageOp::FusedCharNgramDot {
                ngram,
                linear: l,
                offset,
            } if Arc::ptr_eq(l, linear) => (NgramLevel::Char, ngram, *offset),
            StageOp::FusedWordNgramDot {
                ngram,
                linear: l,
                offset,
            } if Arc::ptr_eq(l, linear) => (NgramLevel::Word, ngram, *offset),
            _ => return None,
        };
        if absorbed.contains(&p) || !read_only_by(partial, &[j]) {
            return None;
        }
        let inputs = &steps[p].inputs;
        if *text.get_or_insert(inputs[0]) != inputs[0] {
            return None;
        }
        if level == NgramLevel::Word && *tokens.get_or_insert(inputs[1]) != inputs[1] {
            return None;
        }
        branches.push(TextBranch {
            level,
            ngram: Arc::clone(ngram),
            offset,
        });
        absorbed.push(p);
    }
    let text = text?;
    let tokenizer = match tokens {
        None => None,
        Some(k) => {
            let w = writer(k)?;
            let StageOp::Op(Op::Tokenizer(tok)) = &steps[w].op else {
                return None;
            };
            if steps[w].inputs != [text] || !read_only_by(k, &absorbed) {
                return None;
            }
            absorbed.push(w);
            Some(Arc::clone(tok))
        }
    };
    let mut input = text;
    let mut field = None;
    if let Some(w) = writer(text).filter(|_| read_only_by(text, &absorbed)) {
        if let StageOp::Op(Op::CsvParse(csv)) = &steps[w].op {
            input = steps[w].inputs[0];
            field = Some(Arc::clone(csv));
            absorbed.push(w);
        }
    }
    let fused = FusedText::new(field, tokenizer, branches, Arc::clone(linear))?;
    let step = Step {
        op: StageOp::FusedText(Arc::new(fused)),
        inputs: vec![input],
        output: steps[j].output,
    };
    Some((step, absorbed))
}

/// Drops scratch definitions no step references and renumbers `Loc::Scratch`.
fn compact_scratch(steps: &mut [Step], scratch: &mut Vec<BufDef>) {
    let mut used = vec![false; scratch.len()];
    for step in steps.iter() {
        for loc in step.inputs.iter().chain(std::iter::once(&step.output)) {
            if let Loc::Scratch(s) = loc {
                used[*s as usize] = true;
            }
        }
    }
    let mut remap = vec![u32::MAX; scratch.len()];
    let mut next = 0u32;
    for (i, &u) in used.iter().enumerate() {
        if u {
            remap[i] = next;
            next += 1;
        }
    }
    let mut kept = Vec::with_capacity(next as usize);
    for (i, def) in scratch.iter().enumerate() {
        if used[i] {
            kept.push(*def);
        }
    }
    *scratch = kept;
    for step in steps.iter_mut() {
        for loc in step
            .inputs
            .iter_mut()
            .chain(std::iter::once(&mut step.output))
        {
            if let Loc::Scratch(s) = loc {
                *s = remap[*s as usize];
            }
        }
    }
}

fn signature_of(steps: &[Step], scratch: &[BufDef], dense: bool, vectorizable: bool) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(steps.len() as u64);
    for step in steps {
        h.write_u64(step.op.checksum());
        for loc in &step.inputs {
            h.write_u64(loc_code(*loc));
        }
        h.write_u64(loc_code(step.output));
    }
    for def in scratch {
        h.write(def.ty.to_string().as_bytes());
    }
    h.write(&[u8::from(dense), u8::from(vectorizable)]);
    h.finish()
}

fn loc_code(loc: Loc) -> u64 {
    match loc {
        Loc::Slot(i) => u64::from(i),
        Loc::Scratch(i) => (1 << 32) | u64::from(i),
    }
}

/// The borrowed source of a borrowed-source execution: the request row is
/// served to slot-0 readers directly and materialized into the pooled
/// slot-0 vector only if some step lacks a borrowed kernel — at most once
/// per request, and never on the SA/text and sparse-linear hot paths.
pub(crate) struct BorrowedSource<'a> {
    src: SourceRef<'a>,
    loaded: bool,
}

/// A borrowed source record handed to plan execution.
#[derive(Debug, Clone, Copy)]
pub enum SourceRef<'a> {
    /// A text line (CSV request payload).
    Text(&'a str),
    /// A dense numeric record.
    Dense(&'a [f32]),
    /// A sparse numeric record (pre-featurized request payload): sorted
    /// unique `indices` parallel to `values`.
    Sparse {
        /// Sorted, unique element indices.
        indices: &'a [u32],
        /// Values parallel to `indices`.
        values: &'a [f32],
        /// Logical dimensionality.
        dim: u32,
    },
}

impl<'a> SourceRef<'a> {
    /// Copies the source into the (pooled) slot-0 buffer without
    /// reallocating when capacities suffice.
    pub fn load_into(&self, slot: &mut Vector) -> Result<()> {
        match (self, slot) {
            (SourceRef::Text(s), Vector::Text(dst)) => {
                dst.clear();
                dst.push_str(s);
                Ok(())
            }
            (SourceRef::Dense(x), Vector::Dense(dst)) if dst.len() == x.len() => {
                dst.copy_from_slice(x);
                Ok(())
            }
            (
                SourceRef::Sparse {
                    indices,
                    values,
                    dim,
                },
                Vector::Sparse {
                    indices: di,
                    values: dv,
                    dim: dd,
                },
            ) if dd == dim => {
                di.clear();
                di.extend_from_slice(indices);
                dv.clear();
                dv.extend_from_slice(values);
                Ok(())
            }
            (src, slot) => Err(DataError::Runtime(format!(
                "source {src:?} does not fit slot {:?}",
                slot.column_type()
            ))),
        }
    }

    /// Appends the source as one row of the (pooled) slot-0 batch.
    pub fn load_into_batch(&self, slot: &mut ColumnBatch) -> Result<()> {
        match (self, &mut *slot) {
            (SourceRef::Text(s), ColumnBatch::Text { .. } | ColumnBatch::TextSpans { .. }) => {
                slot.push_text(s)
            }
            (SourceRef::Dense(x), ColumnBatch::Dense { dim, .. }) if *dim == x.len() => {
                let row = slot.push_dense_row()?;
                row.copy_from_slice(x);
                Ok(())
            }
            (
                SourceRef::Sparse {
                    indices,
                    values,
                    dim,
                },
                ColumnBatch::Sparse { dim: dd, .. },
            ) if dd == dim => slot.push_row(ColRef::Sparse {
                indices,
                values,
                dim: *dim,
            }),
            (src, slot) => Err(DataError::Runtime(format!(
                "source {src:?} does not fit batch slot {:?}",
                slot.column_type()
            ))),
        }
    }

    /// Borrows the source as a batch-row reference (the shape the row-level
    /// kernels of the borrowed-source execute consume).
    pub fn as_row(&self) -> ColRef<'a> {
        match *self {
            SourceRef::Text(s) => ColRef::Text(s),
            SourceRef::Dense(x) => ColRef::Dense(x),
            SourceRef::Sparse {
                indices,
                values,
                dim,
            } => ColRef::Sparse {
                indices,
                values,
                dim,
            },
        }
    }

    /// Hash of the record content (materialization / result-cache key).
    ///
    /// Delegates to the shared helpers in [`pretzel_data::hash`] so wire
    /// ingest, Record staging, and batch rows all key caches identically.
    pub fn content_hash(&self) -> u64 {
        match self {
            SourceRef::Text(s) => pretzel_data::hash::content_hash_text(s),
            SourceRef::Dense(x) => pretzel_data::hash::content_hash_dense(x),
            SourceRef::Sparse {
                indices,
                values,
                dim,
            } => pretzel_data::hash::content_hash_sparse(indices, values, *dim),
        }
    }
}

/// One pool size class of a plan's working set
/// ([`ModelPlan::working_set`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassNeed {
    /// The class: pools keep one free list per column type.
    pub ty: ColumnType,
    /// Slots plus scratch buffers of the class one execution leases.
    pub count: usize,
    /// Largest training-statistics size hint among them.
    pub max_stored: usize,
}

/// A compiled, registered model plan: the unit of serving.
#[derive(Debug)]
pub struct ModelPlan {
    /// Source record type (slot 0).
    pub source_type: ColumnType,
    /// Plan working-set layout.
    pub slots: Vec<BufDef>,
    /// Physical stages in execution order (possibly shared with other
    /// plans via the runtime catalog).
    pub stages: Vec<Arc<PhysicalStage>>,
    /// Slot holding the final prediction.
    pub output_slot: u32,
    /// The logical plan this was compiled from (introspection/debugging).
    pub logical: StagePlan,
    /// Every stage's steps in execution order, each stage's scratch
    /// operands renumbered to where that scratch sits in the frame: what a
    /// whole-plan execution runs, in one loop.
    program: Vec<Step>,
    /// Materialization key of each program step.
    program_mat: Vec<Option<u64>>,
    /// Frame layout: the slots, then every stage's scratch.
    frame: Vec<BufDef>,
}

/// Links `stages` into one program over one frame (see [`ModelPlan`]'s
/// `program` and `frame`).
fn link(
    slots: &[BufDef],
    stages: &[Arc<PhysicalStage>],
) -> (Vec<Step>, Vec<Option<u64>>, Vec<BufDef>) {
    let mut program = Vec::new();
    let mut program_mat = Vec::new();
    let mut frame = slots.to_vec();
    for stage in stages {
        let base = (frame.len() - slots.len()) as u32;
        for step in &stage.steps {
            let mut step = step.clone();
            for loc in step
                .inputs
                .iter_mut()
                .chain(std::iter::once(&mut step.output))
            {
                if let Loc::Scratch(s) = loc {
                    *s += base;
                }
            }
            program.push(step);
        }
        program_mat.extend_from_slice(&stage.mat_steps);
        frame.extend_from_slice(&stage.scratch);
    }
    (program, program_mat, frame)
}

impl ModelPlan {
    /// Compiles a validated logical plan, interning operator parameters in
    /// the Object Store.
    pub fn compile(logical: StagePlan, opts: &CompileOptions, store: &ObjectStore) -> Result<Self> {
        Self::compile_with_catalog(logical, opts, store, |_| None)
    }

    /// [`Self::compile`] with a stage-residency probe: each stage's
    /// signature is prepared first and offered to `lookup`; a hit serves
    /// the resident [`PhysicalStage`] (identity and all — warm catalog
    /// entries are shared intact) and skips construction. The runtime
    /// threads its catalog through here, so a plan whose stages another
    /// live plan already deployed builds none of them.
    pub fn compile_with_catalog(
        mut logical: StagePlan,
        opts: &CompileOptions,
        store: &ObjectStore,
        mut lookup: impl FnMut(u64) -> Option<Arc<PhysicalStage>>,
    ) -> Result<Self> {
        logical.validate()?;
        // Parameter interning: rewrite every step to reference the
        // canonical shared parameter objects (paper §4.1.3).
        for stage in &mut logical.stages {
            for step in &mut stage.steps {
                intern_step(step, store);
            }
        }
        let stages: Vec<Arc<PhysicalStage>> = logical
            .stages
            .iter()
            .map(|ls| {
                let prepared = PhysicalStage::prepare(ls, opts);
                lookup(prepared.signature)
                    .unwrap_or_else(|| Arc::new(PhysicalStage::finish(prepared)))
            })
            .collect();
        let (program, program_mat, frame) = link(&logical.slots, &stages);
        Ok(ModelPlan {
            source_type: logical.source_type,
            slots: logical.slots.clone(),
            stages,
            output_slot: logical.output_slot,
            logical,
            program,
            program_mat,
            frame,
        })
    }

    /// Column types of the plan working set (lease layout).
    pub fn slot_types(&self) -> Vec<ColumnType> {
        self.slots.iter().map(|d| d.ty).collect()
    }

    fn check_lease(&self, slots: &[Vector]) -> Result<()> {
        if slots.len() == self.slots.len() {
            return Ok(());
        }
        Err(DataError::Runtime(format!(
            "lease has {} slots, plan wants {}",
            slots.len(),
            self.slots.len()
        )))
    }

    /// Runs the program over `slots` and `scratch`, serving slot-0 reads
    /// straight off `source` when `borrow`, and returns the score.
    fn run(
        &self,
        source: SourceRef<'_>,
        borrow: bool,
        slots: &mut [Vector],
        scratch: &mut [Vector],
        env: &StepEnv<'_>,
        reached: &mut usize,
    ) -> Result<f32> {
        let mut borrowed = BorrowedSource {
            src: source,
            loaded: false,
        };
        run_steps(
            &self.program,
            &self.program_mat,
            borrow.then_some(&mut borrowed),
            slots,
            scratch,
            env,
            reached,
        )?;
        slots[self.output_slot as usize]
            .as_scalar()
            .ok_or_else(|| DataError::Runtime("plan output is not scalar".into()))
    }

    /// Executes the full plan inline over a leased working set, every
    /// stage's scratch in `ctx`'s frame.
    ///
    /// `slots` must match [`Self::slot_types`]; the source is copied into
    /// slot 0 first (the copy [`Self::execute_borrowed`] avoids).
    pub fn execute(
        &self,
        source: SourceRef<'_>,
        slots: &mut [Vector],
        ctx: &mut ExecCtx,
    ) -> Result<f32> {
        self.check_lease(slots)?;
        source.load_into(&mut slots[0])?;
        let (scratch, env, reached) = ctx.frame_for(&self.frame[self.slots.len()..], source);
        self.run(source, false, slots, scratch, &env, reached)
    }

    /// Executes the full plan inline, scoring **straight off the borrowed
    /// source** instead of copying it into the pooled slot-0 vector first
    /// (the request-response engine's borrowed-source execute).
    ///
    /// Steps reading the source dispatch through row-level kernels
    /// ([`crate::plan::StageOp::apply_row`]); a step without a borrowed
    /// kernel for this source shape materializes slot 0 once and the plan
    /// continues on the classic path. Scores are bitwise-identical to
    /// [`Self::execute`] either way.
    pub fn execute_borrowed(
        &self,
        source: SourceRef<'_>,
        slots: &mut [Vector],
        ctx: &mut ExecCtx,
    ) -> Result<f32> {
        self.check_lease(slots)?;
        let (scratch, env, reached) = ctx.frame_for(&self.frame[self.slots.len()..], source);
        self.run(source, true, slots, scratch, &env, reached)
    }

    /// [`Self::execute_borrowed`] with the slots in `ctx`'s frame too: the
    /// request-response session's execute, which leases nothing while
    /// consecutive plans share a frame layout.
    pub(crate) fn execute_in_frame(&self, source: SourceRef<'_>, ctx: &mut ExecCtx) -> Result<f32> {
        let (frame, env, reached) = ctx.frame_for(&self.frame, source);
        let (slots, scratch) = frame.split_at_mut(self.slots.len());
        self.run(source, true, slots, scratch, &env, reached)
    }

    /// How long the last [`Self::execute_in_frame`] in `ctx` ran before the
    /// step that panicked: the steps before it are replayed once, cache
    /// detached, under a clock. The request-response engine reads no clock
    /// while a request succeeds; this is how a contained fault still
    /// records its duration. An operator's panic is a function of its row,
    /// so the replayed steps are the ones that completed.
    pub(crate) fn replay_to_fault(
        &self,
        source: SourceRef<'_>,
        ctx: &mut ExecCtx,
    ) -> std::time::Duration {
        let done = ctx.reached.min(self.program.len());
        let (frame, _, _) = ctx.frame_for(&self.frame, source);
        let (slots, scratch) = frame.split_at_mut(self.slots.len());
        let env = StepEnv {
            cache: None,
            telemetry: None,
            source_hash: 0,
        };
        let mut borrowed = BorrowedSource {
            src: source,
            loaded: false,
        };
        let t0 = std::time::Instant::now();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_steps(
                &self.program[..done],
                &self.program_mat[..done],
                Some(&mut borrowed),
                slots,
                scratch,
                &env,
                &mut 0,
            )
        }));
        t0.elapsed()
    }

    /// Column types of the plan working set as batch buffers.
    ///
    /// Identical to [`Self::slot_types`]; named separately so call sites
    /// document which representation they lease.
    pub fn batch_slot_types(&self) -> Vec<ColumnType> {
        self.slot_types()
    }

    /// Executes the full plan over a chunk of sources using the columnar
    /// working set `slots` (one [`ColumnBatch`] per plan slot, matching
    /// [`Self::slot_types`]), writing one score per source into `out`.
    ///
    /// This is the batch engine's inner loop: stage kernels run once per
    /// chunk over contiguous columns, while scores stay bitwise-identical
    /// to [`Self::execute`] on each record.
    pub fn execute_batch(
        &self,
        sources: &[SourceRef<'_>],
        slots: &mut [ColumnBatch],
        ctx: &mut ExecCtx,
        out: &mut [f32],
    ) -> Result<()> {
        if slots.len() != self.slots.len() {
            return Err(DataError::Runtime(format!(
                "batch lease has {} slots, plan wants {}",
                slots.len(),
                self.slots.len()
            )));
        }
        if out.len() != sources.len() {
            return Err(DataError::Runtime(format!(
                "output buffer has {} rows, chunk has {}",
                out.len(),
                sources.len()
            )));
        }
        for slot in slots.iter_mut() {
            slot.reset();
        }
        for src in sources {
            src.load_into_batch(&mut slots[0])?;
        }
        ctx.source_hashes.clear();
        if ctx.cache.is_some() {
            ctx.source_hashes
                .extend(sources.iter().map(SourceRef::content_hash));
        }
        let rows = sources.len();
        for stage in &self.stages {
            stage.execute_batch(slots, rows, ctx)?;
        }
        let scores = slots[self.output_slot as usize]
            .as_scalars()
            .ok_or_else(|| DataError::Runtime("plan output is not a scalar batch".into()))?;
        if scores.len() != rows {
            return Err(DataError::Runtime(format!(
                "plan produced {} scores for {rows} rows",
                scores.len()
            )));
        }
        out.copy_from_slice(scores);
        Ok(())
    }

    /// The plan's working set by pool size class: for each [`ColumnType`]
    /// among the slots and scratch buffers, how many buffers of that class
    /// one execution leases and the largest training-statistics size hint
    /// among them — exactly the frame a whole-plan execution holds. (The
    /// batch engine leases a stage's scratch only while that stage runs,
    /// so for it this is an upper bound.) The one description both
    /// deploy-time warmers consume ([`Self::warm_pool`],
    /// `Scheduler::warm_plan`).
    pub fn working_set(&self) -> Vec<ClassNeed> {
        let mut need: Vec<ClassNeed> = Vec::new();
        for def in &self.frame {
            match need.iter_mut().find(|n| n.ty == def.ty) {
                Some(n) => {
                    n.count += 1;
                    n.max_stored = n.max_stored.max(def.max_stored);
                }
                None => need.push(ClassNeed {
                    ty: def.ty,
                    count: 1,
                    max_stored: def.max_stored,
                }),
            }
        }
        need
    }

    /// Tops `pool` up to one working set of this plan, sized from training
    /// statistics, so the first predictions hit pre-reserved buffers (paper
    /// §4.2.1: pool allocations are paid at initialization). The
    /// request-response engine's warmer: a session leases one frame and
    /// keeps it between requests, so plans with the same shapes share the
    /// same parked buffers and registering the second one allocates
    /// nothing.
    pub fn warm_pool(&self, pool: &pretzel_data::pool::VectorPool) {
        for need in self.working_set() {
            pool.warm_sized(need.ty, need.max_stored, need.count);
        }
    }

    /// Unique parameter bytes reachable from this plan (post-interning;
    /// shared objects counted once per plan), fused steps included.
    pub fn param_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for step in self.stages.iter().flat_map(|s| &s.steps) {
            step.op.for_each_param(|op| {
                if seen.insert(op.params_addr()) {
                    total += op.heap_bytes();
                }
            });
        }
        total
    }
}

/// Interns every parameter referenced by a logical plan.
///
/// Called at registration: "when a Flour program is submitted for
/// planning, new parameters are kept in the Object Store, while parameters
/// that already exist are ignored and the stage information is rewritten
/// to reuse the previously loaded one" (paper §4.1.3).
pub fn intern_plan(plan: &mut StagePlan, store: &ObjectStore) {
    for stage in &mut plan.stages {
        for step in &mut stage.steps {
            intern_step(step, store);
        }
    }
}

fn intern_step(step: &mut Step, store: &ObjectStore) {
    match &mut step.op {
        StageOp::Op(op) => {
            *op = store.intern(op.clone());
        }
        StageOp::PartialDot { linear, .. } | StageOp::Combine { linear } => {
            if let Op::Linear(p) = store.intern(Op::Linear(Arc::clone(linear))) {
                *linear = p;
            }
        }
        StageOp::TreeOverConcat { ensemble, concat } => {
            if let Op::Concat(p) = store.intern(Op::Concat(Arc::clone(concat))) {
                *concat = p;
            }
            if let Op::TreeEnsemble(p) = store.intern(Op::TreeEnsemble(Arc::clone(ensemble))) {
                *ensemble = p;
            }
        }
        // Fused steps are the compiler's output, built from steps interned
        // here; a logical plan holds none.
        StageOp::FusedCharNgramDot { .. }
        | StageOp::FusedWordNgramDot { .. }
        | StageOp::FusedText(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_stats::NodeStats;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;
    use pretzel_ops::text::tokenizer::TokenizerParams;

    /// Hand-built SA-shaped logical plan:
    /// stage 0: Tokenizer(slot0→slot1), CharNgram(slot0→scratch0),
    ///          PartialDot(scratch0→slot2)
    /// stage 1: WordNgram([slot0,slot1]→scratch0), PartialDot(scratch0→
    ///          scratch1), Combine([slot2,scratch1]→slot3)
    fn sa_logical(
        char_dim: usize,
        word_dim: usize,
    ) -> (StagePlan, Arc<pretzel_ops::linear::LinearParams>) {
        let vocab = synth::vocabulary(1, 64);
        let cgram = Arc::new(synth::char_ngram(2, 3, char_dim));
        let wgram = Arc::new(synth::word_ngram(3, 2, word_dim, &vocab));
        let lin = Arc::new(synth::linear(4, char_dim + word_dim, LinearKind::Logistic));
        let plan = StagePlan {
            source_type: ColumnType::Text,
            slots: vec![
                BufDef::new(ColumnType::Text, 256),
                BufDef::new(ColumnType::TokenList, 64),
                BufDef::new(ColumnType::F32Scalar, 1),
                BufDef::new(ColumnType::F32Scalar, 1),
            ],
            stages: vec![
                LogicalStage {
                    steps: vec![
                        Step {
                            op: StageOp::Op(Op::Tokenizer(Arc::new(
                                TokenizerParams::whitespace_punct(),
                            ))),
                            inputs: vec![Loc::Slot(0)],
                            output: Loc::Slot(1),
                        },
                        Step {
                            op: StageOp::Op(Op::CharNgram(Arc::clone(&cgram))),
                            inputs: vec![Loc::Slot(0)],
                            output: Loc::Scratch(0),
                        },
                        Step {
                            op: StageOp::PartialDot {
                                linear: Arc::clone(&lin),
                                offset: 0,
                            },
                            inputs: vec![Loc::Scratch(0)],
                            output: Loc::Slot(2),
                        },
                    ],
                    scratch: vec![BufDef::new(ColumnType::F32Sparse { len: char_dim }, 64)],
                    reads: vec![0],
                    writes: vec![1, 2],
                    dense: false,
                    vectorizable: false,
                },
                LogicalStage {
                    steps: vec![
                        Step {
                            op: StageOp::Op(Op::WordNgram(Arc::clone(&wgram))),
                            inputs: vec![Loc::Slot(0), Loc::Slot(1)],
                            output: Loc::Scratch(0),
                        },
                        Step {
                            op: StageOp::PartialDot {
                                linear: Arc::clone(&lin),
                                offset: char_dim as u32,
                            },
                            inputs: vec![Loc::Scratch(0)],
                            output: Loc::Scratch(1),
                        },
                        Step {
                            op: StageOp::Combine {
                                linear: Arc::clone(&lin),
                            },
                            inputs: vec![Loc::Slot(2), Loc::Scratch(1)],
                            output: Loc::Slot(3),
                        },
                    ],
                    scratch: vec![
                        BufDef::new(ColumnType::F32Sparse { len: word_dim }, 64),
                        BufDef::new(ColumnType::F32Scalar, 1),
                    ],
                    reads: vec![0, 1, 2],
                    writes: vec![3],
                    dense: false,
                    vectorizable: false,
                },
            ],
            output_slot: 3,
            stats: NodeStats::new(256, 0.05),
        };
        (plan, lin)
    }

    fn run_plan(plan: &ModelPlan, text: &str) -> f32 {
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(Arc::clone(&pool));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        plan.execute(SourceRef::Text(text), &mut slots, &mut ctx)
            .unwrap()
    }

    #[test]
    fn fused_and_unfused_plans_agree() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        let fused = ModelPlan::compile(
            logical.clone(),
            &CompileOptions {
                fuse_ngram_dot: true,
            },
            &store,
        )
        .unwrap();
        let unfused = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        // Fusion removed the two ngram scratch intermediates.
        assert_eq!(fused.stages[0].steps.len(), 2);
        assert_eq!(fused.stages[0].scratch.len(), 0);
        assert_eq!(unfused.stages[0].steps.len(), 3);
        for text in ["a nice product", "utter garbage do not buy", ""] {
            let a = run_plan(&fused, text);
            let b = run_plan(&unfused, text);
            assert!((a - b).abs() < 1e-5, "{text}: fused {a} vs unfused {b}");
        }
    }

    #[test]
    fn compile_interns_parameters() {
        // Two *separately synthesized* (but content-identical) plans: the
        // second compilation must dedup against the first's parameters.
        let (l1, _) = sa_logical(32, 32);
        let (l2, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let a = ModelPlan::compile(l1, &CompileOptions::default(), &store).unwrap();
        let b = ModelPlan::compile(l2, &CompileOptions::default(), &store).unwrap();
        // The two compilations share every parameter object, so the stage
        // signatures (which hash parameter checksums) are identical too.
        assert_eq!(a.stages[0].signature, b.stages[0].signature);
        assert!(store.reuse_count() > 0);
    }

    #[test]
    fn identical_stages_share_signature_distinct_weights_do_not() {
        let (l1, _) = sa_logical(32, 32);
        let (mut l2, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let p1 = ModelPlan::compile(l1, &CompileOptions::default(), &store).unwrap();
        let p2 = ModelPlan::compile(l2.clone(), &CompileOptions::default(), &store).unwrap();
        assert_eq!(p1.stages[0].signature, p2.stages[0].signature);

        // Different linear weights change the fused stage signature.
        let lin2 = Arc::new(synth::linear(99, 64, LinearKind::Logistic));
        for stage in &mut l2.stages {
            for step in &mut stage.steps {
                match &mut step.op {
                    StageOp::PartialDot { linear, .. } | StageOp::Combine { linear } => {
                        *linear = Arc::clone(&lin2);
                    }
                    _ => {}
                }
            }
        }
        let p3 = ModelPlan::compile(l2, &CompileOptions::default(), &store).unwrap();
        assert_ne!(p1.stages[0].signature, p3.stages[0].signature);
    }

    #[test]
    fn materialization_cache_hits_skip_recomputation() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        // Fusion off so featurizer outputs stay cacheable.
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let cache = Arc::new(MaterializationCache::new(1 << 20));
        let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(Arc::clone(&cache));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        let a = plan
            .execute(SourceRef::Text("a nice product"), &mut slots, &mut ctx)
            .unwrap();
        let h0 = cache.stats().hits;
        assert_eq!(h0, 0);
        let b = plan
            .execute(SourceRef::Text("a nice product"), &mut slots, &mut ctx)
            .unwrap();
        let h1 = cache.stats().hits;
        assert!(h1 >= 3, "tokenizer + both ngrams should hit, got {h1}");
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_buffers_return_to_pool() {
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(Arc::clone(&pool));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        for _ in 0..5 {
            plan.execute(SourceRef::Text("some text here"), &mut slots, &mut ctx)
                .unwrap();
        }
        // The frame holds 3 scratch buffers (sparse32, sparse32, scalar),
        // leased once by the first run: two sparse misses on the empty
        // pool, and scalars are pure values that never miss. Later runs
        // reuse the frame and lease nothing.
        assert_eq!(pool.stats().misses(), 2);
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(pool.stats().outstanding(), 3);
        // Stage-at-a-time execution leases a stage's scratch per call and
        // returns it before the call ends.
        for stage in &plan.stages {
            stage.execute(&mut slots, &mut ctx).unwrap();
        }
        assert_eq!(pool.stats().outstanding(), 3);
        drop(ctx);
        assert_eq!(pool.stats().outstanding(), 0, "the frame returns on drop");
    }

    #[test]
    fn execute_batch_bitwise_matches_execute() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        for fuse in [true, false] {
            let plan = ModelPlan::compile(
                logical.clone(),
                &CompileOptions {
                    fuse_ngram_dot: fuse,
                },
                &store,
            )
            .unwrap();
            let lines = [
                "a nice product",
                "utter garbage do not buy",
                "",
                "nice nice nice",
            ];
            let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();

            let pool = Arc::new(VectorPool::arena());
            let mut ctx = ExecCtx::new(Arc::clone(&pool));
            let mut batch_slots: Vec<ColumnBatch> = plan
                .batch_slot_types()
                .iter()
                .map(|&t| ColumnBatch::with_type(t))
                .collect();
            let mut scores = vec![0.0f32; lines.len()];
            plan.execute_batch(&sources, &mut batch_slots, &mut ctx, &mut scores)
                .unwrap();

            for (i, line) in lines.iter().enumerate() {
                let expect = run_plan(&plan, line);
                // Bitwise equality, not tolerance: the batch kernels run
                // the same per-row arithmetic as the per-record kernels.
                assert_eq!(
                    scores[i].to_bits(),
                    expect.to_bits(),
                    "fuse={fuse} line {i}: batch {} vs single {expect}",
                    scores[i]
                );
            }
        }
    }

    #[test]
    fn chunk_cache_probe_matches_per_record_cache_semantics() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        // Fusion off so featurizer outputs stay cacheable.
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        // Rows 0/2 and 1/5 duplicate on purpose: intra-chunk duplicates of
        // a miss must still count as hits, like per-record processing.
        let lines = [
            "a nice product",
            "utter garbage",
            "a nice product",
            "",
            "quite ok really",
            "utter garbage",
        ];
        let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
        let pool = Arc::new(VectorPool::arena());

        // Reference: the per-record cached path, cold then warm.
        let ref_cache = Arc::new(MaterializationCache::new(1 << 20));
        let mut ref_ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(Arc::clone(&ref_cache));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        let mut expected = Vec::new();
        let mut ref_stats = Vec::new();
        for _ in 0..2 {
            for line in &lines {
                expected.push(
                    plan.execute(SourceRef::Text(line), &mut slots, &mut ref_ctx)
                        .unwrap(),
                );
            }
            ref_stats.push(ref_cache.stats());
        }

        // Columnar chunk through the chunk-level probe, cold then warm.
        let batch_cache = Arc::new(MaterializationCache::new(1 << 20));
        let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(Arc::clone(&batch_cache));
        let mut batch_slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let mut scores = vec![0.0f32; lines.len()];
        for pass in 0..2 {
            plan.execute_batch(&sources, &mut batch_slots, &mut ctx, &mut scores)
                .unwrap();
            for (i, s) in scores.iter().enumerate() {
                assert_eq!(
                    s.to_bits(),
                    expected[pass * lines.len() + i].to_bits(),
                    "pass {pass} row {i}: batch {s} vs per-record {}",
                    expected[pass * lines.len() + i]
                );
            }
            let bs = batch_cache.stats();
            let rs = ref_stats[pass];
            let ((h, m), (rh, rm)) = ((bs.hits, bs.misses), (rs.hits, rs.misses));
            assert_eq!(
                (h, m),
                (rh, rm),
                "pass {pass}: chunk probe hit/miss counts diverge from per-record"
            );
        }
    }

    #[test]
    fn chunk_cache_probe_all_miss_then_all_hit() {
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        // Unfused SA has 3 cacheable steps: Tokenizer, CharNgram, WordNgram.
        let lines = ["alpha beta", "gamma", "delta epsilon zeta"];
        let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
        let pool = Arc::new(VectorPool::arena());
        let cache = Arc::new(MaterializationCache::new(1 << 20));
        let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(Arc::clone(&cache));
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let mut scores = vec![0.0f32; lines.len()];
        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut scores)
            .unwrap();
        let s = cache.stats();
        let (h, m) = (s.hits, s.misses);
        assert_eq!((h, m), (0, 3 * lines.len() as u64), "cold chunk: all miss");
        let cold = scores.clone();
        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut scores)
            .unwrap();
        let s = cache.stats();
        let (h, m) = (s.hits, s.misses);
        assert_eq!(
            (h, m),
            (3 * lines.len() as u64, 3 * lines.len() as u64),
            "warm chunk: all hit, no new misses"
        );
        for (a, b) in cold.iter().zip(&scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunk_cache_probe_mixed_hit_miss_chunk() {
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let cache = Arc::new(MaterializationCache::new(1 << 20));
        let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(Arc::clone(&cache));
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        // Warm the cache with "seen", then score a chunk mixing seen and
        // unseen rows: the seen row hits, the unseen row batch-evaluates.
        let mut out = vec![0.0f32; 1];
        plan.execute_batch(
            &[SourceRef::Text("seen before")],
            &mut slots,
            &mut ctx,
            &mut out,
        )
        .unwrap();
        let seen = out[0];
        let sources = [
            SourceRef::Text("brand new line"),
            SourceRef::Text("seen before"),
        ];
        let mut scores = vec![0.0f32; 2];
        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut scores)
            .unwrap();
        assert_eq!(scores[1].to_bits(), seen.to_bits());
        // Uncached reference for the new row.
        let mut plain_ctx = ExecCtx::new(Arc::clone(&pool));
        let mut vslots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        let fresh = plan
            .execute(
                SourceRef::Text("brand new line"),
                &mut vslots,
                &mut plain_ctx,
            )
            .unwrap();
        assert_eq!(scores[0].to_bits(), fresh.to_bits());
    }

    #[test]
    fn chunk_cache_probe_survives_degenerate_budget() {
        // A budget too small to hold anything: every put evicts
        // immediately, deferred duplicates recompute — scores must still
        // be exact.
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let cache = Arc::new(MaterializationCache::new(1));
        let mut ctx = ExecCtx::new(Arc::clone(&pool)).with_cache(cache);
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let lines = ["dup line", "other", "dup line"];
        let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();
        let mut scores = vec![0.0f32; lines.len()];
        plan.execute_batch(&sources, &mut slots, &mut ctx, &mut scores)
            .unwrap();
        let mut plain_ctx = ExecCtx::new(Arc::clone(&pool));
        let mut vslots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        for (i, line) in lines.iter().enumerate() {
            let expect = plan
                .execute(SourceRef::Text(line), &mut vslots, &mut plain_ctx)
                .unwrap();
            assert_eq!(scores[i].to_bits(), expect.to_bits(), "row {i}");
        }
    }

    #[test]
    fn execute_batch_reuses_pooled_batches() {
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(Arc::clone(&pool));
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let sources = [SourceRef::Text("some text"), SourceRef::Text("more text")];
        let mut out = vec![0.0; 2];
        for _ in 0..5 {
            plan.execute_batch(&sources, &mut slots, &mut ctx, &mut out)
                .unwrap();
        }
        // 3 scratch batches per run; the two sparse defs share a size
        // class and stage 0 releases before stage 1 acquires, so only one
        // sparse and one scalar batch are ever allocated.
        assert_eq!(pool.stats().misses(), 2);
        assert_eq!(pool.stats().hits(), 5 * 3 - 2);
    }

    #[test]
    fn execute_batch_source_mismatch_is_error() {
        let (logical, _) = sa_logical(16, 16);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(logical, &CompileOptions::default(), &store).unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(pool);
        let mut slots: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .iter()
            .map(|&t| ColumnBatch::with_type(t))
            .collect();
        let dense = [1.0, 2.0];
        let sources = [SourceRef::Dense(&dense)];
        let mut out = vec![0.0; 1];
        assert!(plan
            .execute_batch(&sources, &mut slots, &mut ctx, &mut out)
            .is_err());
        // Wrong slot count is an error too.
        let mut short: Vec<ColumnBatch> = vec![ColumnBatch::with_type(ColumnType::Text)];
        assert!(plan
            .execute_batch(&[SourceRef::Text("x")], &mut short, &mut ctx, &mut [0.0])
            .is_err());
    }

    #[test]
    fn source_type_mismatch_is_error() {
        let (logical, _) = sa_logical(16, 16);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(logical, &CompileOptions::default(), &store).unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(pool);
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .iter()
            .map(|&t| Vector::with_type(t))
            .collect();
        let err = plan.execute(SourceRef::Dense(&[1.0, 2.0]), &mut slots, &mut ctx);
        assert!(err.is_err());
    }

    #[test]
    fn lease_shape_mismatch_is_error() {
        let (logical, _) = sa_logical(16, 16);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(logical, &CompileOptions::default(), &store).unwrap();
        let pool = Arc::new(VectorPool::arena());
        let mut ctx = ExecCtx::new(pool);
        let mut slots = vec![Vector::Text(String::new())];
        assert!(plan
            .execute(SourceRef::Text("x"), &mut slots, &mut ctx)
            .is_err());
    }

    #[test]
    fn compact_scratch_renumbers() {
        let lin = Arc::new(synth::linear(5, 8, LinearKind::Regression));
        let cgram = Arc::new(synth::char_ngram(6, 3, 8));
        let mut steps = vec![
            Step {
                op: StageOp::Op(Op::CharNgram(cgram)),
                inputs: vec![Loc::Slot(0)],
                output: Loc::Scratch(1),
            },
            Step {
                op: StageOp::PartialDot {
                    linear: lin,
                    offset: 0,
                },
                inputs: vec![Loc::Scratch(1)],
                output: Loc::Slot(1),
            },
        ];
        let mut scratch = vec![
            BufDef::new(ColumnType::F32Scalar, 1), // unused
            BufDef::new(ColumnType::F32Sparse { len: 8 }, 8),
        ];
        compact_scratch(&mut steps, &mut scratch);
        assert_eq!(scratch.len(), 1);
        assert_eq!(steps[0].output, Loc::Scratch(0));
        assert_eq!(steps[1].inputs[0], Loc::Scratch(0));
    }

    #[test]
    fn param_bytes_counts_unique_objects_once() {
        let (logical, _) = sa_logical(32, 32);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(
            logical,
            &CompileOptions {
                fuse_ngram_dot: false,
            },
            &store,
        )
        .unwrap();
        assert!(plan.param_bytes() > 0);
    }

    /// The SA pipeline through Oven: CsvParse → Tokenizer → {CharNgram,
    /// WordNgram} → Concat → Linear, one stage after optimization.
    fn sa_optimized() -> StagePlan {
        let vocab = synth::vocabulary(1, 64);
        let tokens = crate::flour::FlourContext::new()
            .csv(',')
            .select_text(1)
            .tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(2, 3, 64)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(3, 2, 64, &vocab)));
        c.concat(&w)
            .classifier_linear(Arc::new(synth::linear(4, 128, LinearKind::Logistic)))
            .plan()
            .unwrap()
    }

    fn compile_sa(fuse_ngram_dot: bool) -> ModelPlan {
        let opts = CompileOptions { fuse_ngram_dot };
        ModelPlan::compile(sa_optimized(), &opts, &ObjectStore::new()).unwrap()
    }

    #[test]
    fn sa_plan_compiles_to_one_fused_text_step() {
        let plan = compile_sa(true);
        assert_eq!(plan.stages.len(), 1);
        let stage = &plan.stages[0];
        assert!(
            matches!(stage.steps.as_slice(), [Step { op: StageOp::FusedText(_), inputs, output }]
                if inputs == &[Loc::Slot(0)] && *output == Loc::Slot(1)),
            "{stage:#?}"
        );
        assert!(stage.scratch.is_empty());
        assert_eq!(plan.slot_types(), [ColumnType::Text, ColumnType::F32Scalar]);
        // Without fusion the stage keeps every operator: CSV, tokenizer,
        // two n-grams, two partial dots and the Combine.
        assert_eq!(compile_sa(false).stages[0].steps.len(), 7);
    }

    #[test]
    fn param_bytes_of_a_fused_plan_equal_the_unfused_plans() {
        let (fused, unfused) = (compile_sa(true), compile_sa(false));
        assert_eq!(fused.param_bytes(), unfused.param_bytes());
        // The dictionaries and weights are in it, not just the CSV and
        // tokenizer parameters.
        let mut dictionaries = 0;
        fused.stages[0].steps[0].op.for_each_param(|op| {
            if matches!(op, Op::CharNgram(_) | Op::WordNgram(_) | Op::Linear(_)) {
                dictionaries += op.heap_bytes();
            }
        });
        assert!(dictionaries > 0 && fused.param_bytes() > dictionaries);
    }

    #[test]
    fn text_fusion_leaves_a_combine_with_another_branch_alone() {
        // A hashing branch beside the n-grams: the Combine reads a partial
        // no fused n-gram·dot produced, so the text steps stay apart.
        let vocab = synth::vocabulary(1, 64);
        let tokens = crate::flour::FlourContext::new()
            .csv(',')
            .select_text(1)
            .tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(2, 3, 64)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(3, 2, 64, &vocab)));
        let h = tokens.hashing(Arc::new(pretzel_ops::text::hashing::HashingParams::new(
            3, 32, true,
        )));
        let logical = c
            .concat_many(&[&w, &h])
            .classifier_linear(Arc::new(synth::linear(4, 160, LinearKind::Logistic)))
            .plan()
            .unwrap();
        let plan =
            ModelPlan::compile(logical, &CompileOptions::default(), &ObjectStore::new()).unwrap();
        let names: Vec<&str> = plan.stages[0].steps.iter().map(|s| s.op.name()).collect();
        assert!(names.contains(&"FusedCharNgramDot"), "{names:?}");
        assert!(!names.contains(&"FusedText"), "{names:?}");
        let score = run_plan(&plan, "5,a fine line,US");
        assert!((0.0..=1.0).contains(&score));
    }
}
