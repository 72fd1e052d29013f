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
//!   dispatch over pooled buffers; or
//! * the **fused text step**: when a stage's `Combine` reads only
//!   `PartialDot`s, each over the private scratch output of a `CharNgram`
//!   or `WordNgram`, and the n-grams read one text, which a
//!   `CsvParse(TextField)` selects and one `Tokenizer` splits, all of it —
//!   field selection to score — becomes one [`StageOp::FusedText`] that
//!   reads the row once and materializes no sparse feature vector
//!   ([`pretzel_ops::text::fused`]). A Sentiment Analysis plan is that one
//!   step. A text stage the fused step cannot absorb runs stepwise.
//!
//! The fusion runs only with [`CompileOptions::fuse_text`]; with the
//! materialization cache on, featurizer outputs stay steps of their own so
//! they can be cached.
//!
//! Physical stages are identified by a structural [`PhysicalStage::signature`]
//! so the runtime catalog can load each distinct stage once and share it
//! between plans (paper §4.2.1).
//!
//! A [`ModelPlan`] links its stages into one *program* over one *frame* —
//! the plan's slots, then every stage's scratch — with every operand's
//! place fixed at compile time, and both engines run that program through
//! one step loop, generic over the frame's buffers: row [`Vector`]s in the
//! request-response engine, chunk [`ColumnBatch`]es in the batch engine,
//! which runs a chunk through one stage's steps at a time. A cacheable step
//! runs inside its buffer kind's materialization-cache wrapper (paper
//! §4.3) under a key the plan computed at compile time: the step's
//! parameters and, through the keys of its inputs' producers, every step
//! upstream of it. Keys belong to the plan, not to the shared stage: one
//! stage can sit in plans whose upstream steps differ.

use crate::clock::Clock;
use crate::object_store::{MatKey, MaterializationCache, ObjectStore};
use crate::plan::{BufDef, Loc, LogicalStage, StageOp, StagePlan, Step};
use crate::telemetry::MetricsRegistry;
use pretzel_data::batch::ColRef;
use pretzel_data::hash::Fnv1a;
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};
use pretzel_ops::text::fused::{FusedText, NgramLevel, TextBranch};
use pretzel_ops::Op;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Compilation options chosen by the runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fuse whole text stages — CSV field, tokenizer, n-grams, their
    /// partial dots and the Combine — into one [`StageOp::FusedText`] step.
    /// Disabled when sub-plan materialization is on, so that shared
    /// featurizer outputs stay cacheable (a fused step embeds per-pipeline
    /// weights and would never hit).
    pub fuse_text: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse_text: true }
    }
}

/// An executable physical stage: what the runtime catalog shares between
/// plans. What a stage's place in one plan decides — where its scratch sits
/// in the frame, the materialization keys of its steps — lives on
/// [`ModelPlan`].
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
}

/// Per-executor execution context: the vector pool, the frames executions
/// run in, the source hashes that key the materialization cache, and the
/// optional cache itself.
#[derive(Debug)]
pub struct ExecCtx {
    /// Pool backing the frames (and, at the runtime layer, slot leases).
    pub pool: Arc<VectorPool>,
    /// Sub-plan materialization cache, if enabled.
    pub cache: Option<Arc<MaterializationCache>>,
    /// Source hash of each row of the current execution — one for a row,
    /// one per chunk row — the input half of every materialization key.
    /// Must hold one hash per row before a cached step executes.
    pub source_hashes: Vec<u64>,
    /// Telemetry registry for cache-probe latency recording (installed on
    /// executors' contexts); `None` probes the cache untimed.
    pub telemetry: Option<Arc<MetricsRegistry>>,
    /// Times cache probes and fault replays: the real clock, or its owner's.
    pub(crate) clock: Clock,
    /// The buffers kept between executions: one frame per buffer kind.
    frames: Frames,
    /// Count of the buffers the frames hold ([`Self::with_held`]).
    held: Arc<AtomicI64>,
    /// Index of the program step the last execution reached — after a
    /// contained panic, the step that faulted.
    reached: usize,
}

type Frames = (Frame<Vector>, Frame<ColumnBatch>);

/// Buffers leased by layout and kept between executions. A frame is
/// fitted to a layout — a buffer whose type the layout keeps is cleared
/// and reused, every other one goes back to the pool and a buffer of the
/// new type is leased in its place — and returned when its context drops.
/// An execution's buffers stay in the frame, also when a kernel unwinds,
/// so a contained panic strands nothing.
#[derive(Debug)]
struct Frame<B>(Vec<B>);

impl<B: Buf> Frame<B> {
    /// Fits the frame to `layout`, a buffer leased anew sized for `rows`
    /// rows. A disabled pool (the pooling-off ablation) leases anew always.
    fn fit(&mut self, layout: &[BufDef], rows: usize, pool: &VectorPool, held: &AtomicI64) {
        let before = self.0.len();
        self.0
            .drain(layout.len().min(before)..)
            .for_each(|b| b.give_back(pool));
        for (i, def) in layout.iter().enumerate() {
            match self.0.get_mut(i) {
                Some(b) if pool.is_enabled() && b.column_type() == def.ty => b.clear(),
                Some(b) => std::mem::replace(b, B::lease(pool, def.ty, rows)).give_back(pool),
                None => self.0.push(B::lease(pool, def.ty, rows)),
            }
        }
        if self.0.len() != before {
            held.fetch_add(self.0.len() as i64 - before as i64, Ordering::Relaxed);
        }
    }

    /// Returns the frame's buffers to the pool.
    fn release(&mut self, pool: &VectorPool, held: &AtomicI64) {
        held.fetch_sub(self.0.len() as i64, Ordering::Relaxed);
        self.0.drain(..).for_each(|b| b.give_back(pool));
    }
}

impl ExecCtx {
    /// Creates a context over a pool.
    pub fn new(pool: Arc<VectorPool>) -> Self {
        ExecCtx {
            pool,
            cache: None,
            source_hashes: Vec::new(),
            telemetry: None,
            clock: Clock::real(),
            frames: (Frame(Vec::new()), Frame(Vec::new())),
            held: Arc::default(),
            reached: 0,
        }
    }

    /// Enables sub-plan materialization.
    pub fn with_cache(mut self, cache: Arc<MaterializationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables cache-probe latency recording into `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Arc<MetricsRegistry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Counts the buffers this context's frames hold into `held`, so an
    /// owner that checks its pool for leaks at quiescence can discount the
    /// frames its contexts keep between executions (request-response
    /// sessions, executors).
    pub(crate) fn with_held(mut self, held: Arc<AtomicI64>) -> Self {
        self.held = held;
        self
    }

    /// Fits the frame of buffer kind `B` to `layout` and lends it out with
    /// what the step loop reads.
    fn loan<B: Buf>(&mut self, layout: &[BufDef], rows: usize) -> Loan<'_, B> {
        let ExecCtx {
            pool,
            cache,
            source_hashes,
            telemetry,
            clock,
            frames,
            held,
            reached,
        } = self;
        let frame = B::frame(frames);
        frame.fit(layout, rows, pool, held);
        Loan {
            frame: &mut frame.0,
            mat: cache.as_deref().map(|cache| Mat {
                cache,
                hashes: source_hashes,
                pool,
                telemetry: telemetry.as_deref().map(|t| (t, &*clock)),
            }),
            reached,
        }
    }

    /// [`Self::loan`] of the row frame for one execution scoring `source`,
    /// whose hash is the key input when the context caches.
    fn row_loan(&mut self, layout: &[BufDef], source: SourceRef<'_>) -> Loan<'_, Vector> {
        if self.cache.is_some() {
            self.source_hashes.clear();
            self.source_hashes.push(source.content_hash());
        }
        self.loan(layout, 1)
    }
}

impl Drop for ExecCtx {
    fn drop(&mut self) {
        self.frames.0.release(&self.pool, &self.held);
        self.frames.1.release(&self.pool, &self.held);
    }
}

/// One execution's loan from an [`ExecCtx`]: the fitted frame, the cache
/// view when the context caches, and the step counter.
struct Loan<'a, B> {
    frame: &'a mut [B],
    mat: Option<Mat<'a>>,
    reached: &'a mut usize,
}

/// A cached execution's view of the materialization cache.
struct Mat<'a> {
    cache: &'a MaterializationCache,
    /// Each row's key input ([`ExecCtx::source_hashes`]).
    hashes: &'a [u64],
    /// Where a chunk's miss sub-batches are leased.
    pool: &'a VectorPool,
    /// Where probes are recorded, and the clock that times them.
    telemetry: Option<(&'a MetricsRegistry, &'a Clock)>,
}

impl Mat<'_> {
    /// A lookup, timed into the telemetry registry when one is installed
    /// (split by hit/miss outcome) and a plain `get` otherwise.
    fn get(&self, key: MatKey) -> Option<Arc<Vector>> {
        match self.telemetry {
            Some((t, clock)) => {
                let t0 = clock.now();
                let hit = self.cache.get(key);
                t.record_cache_probe(hit.is_some(), clock.since(t0).as_nanos() as u64);
                hit
            }
            None => self.cache.get(key),
        }
    }
}

/// A buffer the step loop runs over: a row [`Vector`] (request-response
/// engine) or a chunk [`ColumnBatch`] (batch engine). It supplies what
/// differs between the two: leasing, the kernel call, and the
/// materialization-cache wrapper around a cacheable step.
trait Buf: Sized {
    /// This kind's frame among a context's frames.
    fn frame(frames: &mut Frames) -> &mut Frame<Self>;
    /// Leases a cleared buffer of `ty` for `rows` rows from `pool`.
    fn lease(pool: &VectorPool, ty: ColumnType, rows: usize) -> Self;
    /// Returns the buffer to `pool`.
    fn give_back(self, pool: &VectorPool);
    fn column_type(&self) -> ColumnType;
    /// Clears the buffer, keeping its capacity.
    fn clear(&mut self);
    /// The step kernel: the engine's one call of [`StageOp::apply`] or
    /// [`StageOp::apply_batch`].
    fn kernel(op: &StageOp, inputs: &[&Self], out: &mut Self) -> Result<()>;

    /// Runs `step` uncached.
    fn step(
        step: &Step,
        _source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()> {
        apply_step(step, &mut Operands::of(slots, scratch, step.output))
    }

    /// Runs the cacheable `step` through the materialization cache, keyed
    /// by the plan's `key` for the step and each row's source hash.
    fn materialize(
        step: &Step,
        key: u64,
        mat: &Mat<'_>,
        source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()>;
}

impl Buf for Vector {
    fn frame(frames: &mut Frames) -> &mut Frame<Self> {
        &mut frames.0
    }

    fn lease(pool: &VectorPool, ty: ColumnType, _rows: usize) -> Self {
        pool.acquire(ty)
    }

    fn give_back(self, pool: &VectorPool) {
        pool.release(self)
    }

    fn column_type(&self) -> ColumnType {
        Vector::column_type(self)
    }

    fn clear(&mut self) {
        self.reset()
    }

    fn kernel(op: &StageOp, inputs: &[&Self], out: &mut Self) -> Result<()> {
        op.apply(inputs, out)
    }

    /// With a borrowed `source` not yet materialized, a synthetic step
    /// reading it runs off the borrowed row — no slot-0 copy. The first
    /// library operator reading it materializes the source into slot 0
    /// once and runs like every other step.
    #[inline]
    fn step(
        step: &Step,
        source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()> {
        let unloaded = source.filter(|bs| !bs.loaded && step.inputs.contains(&Loc::Slot(0)));
        if let Some(bs) = unloaded {
            if apply_row_borrowed(step, bs.src, slots, scratch)? {
                return Ok(());
            }
            bs.src.load_into(&mut slots[0])?;
            bs.loaded = true;
        }
        apply_step(step, &mut Operands::of(slots, scratch, step.output))
    }

    /// One `get`; on a miss the step runs and one `put` stores its output.
    fn materialize(
        step: &Step,
        key: u64,
        mat: &Mat<'_>,
        source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()> {
        let key = MatKey {
            step: key,
            input: mat.hashes[0],
        };
        if let Some(hit) = mat.get(key) {
            Operands::of(slots, scratch, step.output)
                .out
                .clone_from(&hit);
            return Ok(());
        }
        Self::step(step, source, slots, scratch)?;
        let out = Operands::of(slots, scratch, step.output).out;
        mat.cache.put(key, Arc::new(out.clone()));
        Ok(())
    }
}

impl Buf for ColumnBatch {
    fn frame(frames: &mut Frames) -> &mut Frame<Self> {
        &mut frames.1
    }

    fn lease(pool: &VectorPool, ty: ColumnType, rows: usize) -> Self {
        pool.acquire_batch(ty, rows)
    }

    fn give_back(self, pool: &VectorPool) {
        pool.release_batch(self)
    }

    fn column_type(&self) -> ColumnType {
        ColumnBatch::column_type(self)
    }

    fn clear(&mut self) {
        self.reset()
    }

    fn kernel(op: &StageOp, inputs: &[&Self], out: &mut Self) -> Result<()> {
        op.apply_batch(inputs, out)
    }

    fn materialize(
        step: &Step,
        key: u64,
        mat: &Mat<'_>,
        _source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()> {
        ChunkProbe { step, key, mat }.run(Operands::of(slots, scratch, step.output))
    }
}

/// One buffer array with at most one buffer borrowed out of it: `lo` holds
/// the buffers below that one, `hi` the buffers above it.
struct Around<'a, B> {
    lo: &'a [B],
    hi: &'a [B],
}

impl<B> Clone for Around<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B> Copy for Around<'_, B> {}

impl<'a, B> Around<'a, B> {
    fn whole(bufs: &'a [B]) -> Self {
        Around { lo: bufs, hi: &[] }
    }

    /// Splits `bufs` around buffer `i`, which is borrowed out mutably.
    fn split(bufs: &'a mut [B], i: u32) -> (&'a mut B, Self) {
        let (lo, rest) = bufs.split_at_mut(i as usize);
        let (out, hi) = rest
            .split_first_mut()
            .expect("validated plans write buffers in range");
        (out, Around { lo, hi })
    }

    #[inline]
    fn get(self, i: u32) -> &'a B {
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
struct Operands<'a, B> {
    out: &'a mut B,
    slots: Around<'a, B>,
    scratch: Around<'a, B>,
}

impl<'a, B> Operands<'a, B> {
    fn of(slots: &'a mut [B], scratch: &'a mut [B], output: Loc) -> Self {
        let (out, slots, scratch) = match output {
            Loc::Slot(i) => {
                let (out, slots) = Around::split(slots, i);
                (out, slots, Around::whole(scratch))
            }
            Loc::Scratch(i) => {
                let (out, scratch) = Around::split(scratch, i);
                (out, Around::whole(slots), scratch)
            }
        };
        Operands {
            out,
            slots,
            scratch,
        }
    }
}

/// Reads an input operand next to a borrowed-out output.
#[inline]
fn read<'a, B>(slots: Around<'a, B>, scratch: Around<'a, B>, loc: Loc) -> &'a B {
    match loc {
        Loc::Slot(i) => slots.get(i),
        Loc::Scratch(i) => scratch.get(i),
    }
}

/// Runs `step`'s kernel over its inputs into its output.
#[inline]
fn apply_step<B: Buf>(step: &Step, ops: &mut Operands<'_, B>) -> Result<()> {
    let r = |loc: &Loc| read(ops.slots, ops.scratch, *loc);
    let out = &mut *ops.out;
    match step.inputs.as_slice() {
        [] => Err(DataError::Runtime(format!(
            "step {} has no inputs",
            step.op.name()
        ))),
        [a] => B::kernel(&step.op, &[r(a)], out),
        [a, b] => B::kernel(&step.op, &[r(a), r(b)], out),
        [a, b, c] => B::kernel(&step.op, &[r(a), r(b), r(c)], out),
        [a, b, c, d] => B::kernel(&step.op, &[r(a), r(b), r(c), r(d)], out),
        many => {
            // Rare (wide Concat/Combine): one small allocation.
            let refs: Vec<&B> = many.iter().map(r).collect();
            B::kernel(&step.op, &refs, out)
        }
    }
}

/// Runs `step` off the borrowed source row when the source is its first
/// input (and no other) and the step is synthetic
/// ([`StageOp::apply_row`]); `Ok(false)` otherwise, and the source must be
/// materialized.
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
    let ops = Operands::of(slots, scratch, step.output);
    let r = |loc: &Loc| read(ops.slots, ops.scratch, *loc);
    let row = src.as_row();
    match rest {
        [] => step.op.apply_row(row, &[], ops.out),
        [a] => step.op.apply_row(row, &[r(a)], ops.out),
        many => {
            let refs: Vec<&Vector> = many.iter().map(r).collect();
            step.op.apply_row(row, &refs, ops.out)
        }
    }
}

/// The one step loop of both engines: runs `steps` in order over `slots`
/// and `scratch`, row vectors or chunk batches. With a cache view, a step
/// the plan keyed (`keys[i]`) runs inside its buffer kind's
/// materialization wrapper ([`Buf::materialize`]); every other step calls
/// its kernel. A borrowed `source` (rows only) serves slot-0 reads until
/// some step needs it materialized. `reached` is set to each step's index
/// before it runs.
fn run_steps<B: Buf>(
    steps: &[Step],
    keys: &[Option<u64>],
    mat: Option<&Mat<'_>>,
    mut source: Option<&mut BorrowedSource<'_>>,
    slots: &mut [B],
    scratch: &mut [B],
    reached: &mut usize,
) -> Result<()> {
    for (i, step) in steps.iter().enumerate() {
        *reached = i;
        let source = source.as_deref_mut();
        match mat.and_then(|m| Some((m, keys.get(i).copied().flatten()?))) {
            Some((mat, key)) => B::materialize(step, key, mat, source, slots, scratch)?,
            None => B::step(step, source, slots, scratch)?,
        }
    }
    Ok(())
}

/// Runs `steps` over a chunk of `rows` rows in `slots`, their scratch in
/// `ctx`'s chunk frame fitted to `scratch`; with a cache in `ctx`, a step
/// keyed in `keys` runs through the chunk probe.
fn run_chunk(
    steps: &[Step],
    keys: &[Option<u64>],
    scratch: &[BufDef],
    slots: &mut [ColumnBatch],
    rows: usize,
    ctx: &mut ExecCtx,
) -> Result<()> {
    let loan = ctx.loan::<ColumnBatch>(scratch, rows);
    let mat = loan
        .mat
        .as_ref()
        .filter(|_| keys.iter().any(Option::is_some));
    let result = match mat {
        Some(m) if m.hashes.len() != rows => Err(DataError::Runtime(format!(
            "cache-aware batch execution wants {rows} source hashes, has {}",
            m.hashes.len()
        ))),
        mat => run_steps(
            steps,
            keys,
            mat,
            None,
            slots,
            &mut *loan.frame,
            &mut *loan.reached,
        ),
    };
    // A span output in scratch borrows slot 0's text: let go of it, or the
    // slot drops its buffer when the caller reuses or returns it.
    loan.frame.iter_mut().for_each(ColumnBatch::detach_shared);
    result
}

/// The batch engine's materialization wrapper around one cacheable step.
/// It issues exactly the cache operations the row wrapper would, row by
/// row — so hit/miss counters, LRU recency and eviction victims match it
/// even under mid-chunk eviction pressure — while the step's kernel runs
/// once over the misses: peek to partition the chunk (no side effects),
/// batch-evaluate the misses over gathered sub-batches
/// ([`ColumnBatch::gather`]), replay the real `get`s and `put`s in row
/// order, and scatter the rows into the output ([`ColumnBatch::push_row`]).
struct ChunkProbe<'a> {
    step: &'a Step,
    key: u64,
    mat: &'a Mat<'a>,
}

impl ChunkProbe<'_> {
    fn key(&self, row: usize) -> MatKey {
        MatKey {
            step: self.key,
            input: self.mat.hashes[row],
        }
    }

    fn run(&self, mut ops: Operands<'_, ColumnBatch>) -> Result<()> {
        let rows = self.mat.hashes.len();
        // Phase 1: speculative partition via non-mutating peeks.
        // `plan[r]` is `Some(j)` when row `r` is the first in-chunk
        // occurrence of an uncached key and will be batch-computed at miss
        // sub-batch row `j`; `None` when the row is expected to hit at
        // replay time (peeked hit, or duplicate of an earlier in-chunk
        // miss whose insert will have landed by then).
        let mut plan: Vec<Option<usize>> = Vec::with_capacity(rows);
        let mut miss_rows: Vec<usize> = Vec::new();
        let mut pending: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (r, &input) in self.mat.hashes.iter().enumerate() {
            if pending.contains(&input) {
                plan.push(None);
                continue;
            }
            match self.mat.cache.peek(self.key(r)) {
                Some(_) => plan.push(None),
                None => {
                    pending.insert(input);
                    plan.push(Some(miss_rows.len()));
                    miss_rows.push(r);
                }
            }
        }
        // All-miss fast path (cold caches, unique request streams): no
        // sub-batch needed — run the kernel in place exactly like the
        // uncached path, then replay the get/put pairs. Duplicates plan as
        // `None`, so all-miss implies all keys unique: every replayed get
        // misses, and is issued anyway to keep the counter and recency
        // traffic identical to the row wrapper's.
        if miss_rows.len() == rows {
            apply_step(self.step, &mut ops)?;
            self.check_rows(ops.out, rows)?;
            for r in 0..rows {
                let _ = self.mat.get(self.key(r));
                self.mat
                    .cache
                    .put(self.key(r), Arc::new(ops.out.row(r).to_vector()));
            }
            return Ok(());
        }
        // Phase 2: batch-evaluate the speculated misses over gathered
        // sub-batches. No cache writes yet — those belong to the replay.
        let out_ty = ops.out.column_type();
        let miss_out = (!miss_rows.is_empty())
            .then(|| self.eval(&miss_rows, out_ty, &ops))
            .transpose()?;
        // Phase 3: replay the cache operations in original row order. From
        // here on the cache sees exactly what the row wrapper would have
        // issued, so hit/miss counters, recency order, and eviction victims
        // match it even under mid-chunk eviction pressure.
        let replayed: Result<Vec<Arc<Vector>>> = (|| {
            let mut values = Vec::with_capacity(rows);
            for (r, row_plan) in plan.iter().enumerate() {
                if let Some(hit) = self.mat.get(self.key(r)) {
                    values.push(hit);
                    continue;
                }
                let value = match (row_plan, &miss_out) {
                    (Some(j), Some(miss_out)) => Arc::new(miss_out.row(*j).to_vector()),
                    // Speculated hit whose entry an earlier replay insert
                    // evicted, or a duplicate whose insert was already
                    // evicted (degenerate budget): recompute the row
                    // alone, as the row wrapper would on this miss.
                    _ => {
                        let one = self.eval(&[r], out_ty, &ops)?;
                        let v = Arc::new(one.row(0).to_vector());
                        self.mat.pool.release_batch(one);
                        v
                    }
                };
                self.mat.cache.put(self.key(r), Arc::clone(&value));
                values.push(value);
            }
            Ok(values)
        })();
        if let Some(b) = miss_out {
            self.mat.pool.release_batch(b);
        }
        // Phase 4: scatter the per-row values into the output in original
        // row order.
        ops.out.reset();
        for v in &replayed? {
            ops.out.push_row(ColRef::from_vector(v))?;
        }
        Ok(())
    }

    /// Gathers `rows` of the step's inputs into pooled sub-batches and runs
    /// the step's kernel over them; returns the computed batch (pooled —
    /// the caller releases it). Cache insertion is NOT done here: the
    /// replay pass owns all cache writes so they land in original row
    /// order.
    fn eval(
        &self,
        rows: &[usize],
        out_ty: ColumnType,
        ops: &Operands<'_, ColumnBatch>,
    ) -> Result<ColumnBatch> {
        let pool = self.mat.pool;
        let mut gathered: Vec<ColumnBatch> = Vec::with_capacity(self.step.inputs.len());
        let mut miss_out = pool.acquire_batch(out_ty, rows.len());
        let res = self
            .step
            .inputs
            .iter()
            .try_for_each(|&loc| {
                let src = read(ops.slots, ops.scratch, loc);
                gathered.push(pool.acquire_batch(src.column_type(), rows.len()));
                src.gather(rows, gathered.last_mut().expect("pushed above"))
            })
            .and_then(|()| {
                let refs: Vec<&ColumnBatch> = gathered.iter().collect();
                ColumnBatch::kernel(&self.step.op, &refs, &mut miss_out)
            })
            .and_then(|()| self.check_rows(&miss_out, rows.len()));
        gathered.into_iter().for_each(|g| pool.release_batch(g));
        match res {
            Ok(()) => Ok(miss_out),
            Err(e) => {
                pool.release_batch(miss_out);
                Err(e)
            }
        }
    }

    fn check_rows(&self, out: &ColumnBatch, rows: usize) -> Result<()> {
        if out.rows() == rows {
            return Ok(());
        }
        Err(DataError::Runtime(format!(
            "step {} produced {} rows for {rows} rows",
            self.step.op.name(),
            out.rows()
        )))
    }
}

impl PhysicalStage {
    /// Compiles a logical stage into its physical implementation: operator
    /// fusion and the stage signature, cheap enough to run just to probe
    /// the runtime catalog.
    pub fn compile(logical: &LogicalStage, opts: &CompileOptions) -> Self {
        let mut steps = logical.steps.clone();
        let mut scratch = logical.scratch.clone();
        if opts.fuse_text {
            fuse_text(&mut steps, &mut scratch);
        }
        let signature = signature_of(&steps, &scratch, logical.dense, logical.vectorizable);
        PhysicalStage {
            steps,
            scratch,
            reads: logical.reads.clone(),
            writes: logical.writes.clone(),
            signature,
            dense: logical.dense,
            vectorizable: logical.vectorizable,
        }
    }

    /// Executes the stage alone over the plan working set `slots`, its
    /// scratch in `ctx`'s row frame: a view over the step loop whole plans
    /// run ([`ModelPlan::execute`]). It runs **uncached** — materialization
    /// keys belong to the plans a stage sits in, not to the stage.
    pub fn execute(&self, slots: &mut [Vector], ctx: &mut ExecCtx) -> Result<()> {
        let loan = ctx.loan::<Vector>(&self.scratch, 1);
        run_steps(
            &self.steps,
            &[],
            None,
            None,
            slots,
            loan.frame,
            loan.reached,
        )
    }

    /// [`Self::execute`] over a chunk of `rows` rows in the columnar
    /// working set `slots` — one kernel call per step for the whole chunk,
    /// scratch in `ctx`'s chunk frame — and, like it, **uncached**. The
    /// batch engine runs a plan's stages through
    /// [`ModelPlan::execute_stage_batch`], which caches.
    pub fn execute_batch(
        &self,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        run_chunk(&self.steps, &[], &self.scratch, slots, rows, ctx)
    }
}

/// Rewrites `CsvParse(TextField) → Tokenizer → {Char,Word}Ngram →
/// PartialDot → Combine` into one [`StageOp::FusedText`] step in the
/// Combine's place, then compacts scratch.
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
/// the steps it absorbs: for each partial, the `PartialDot` of the
/// Combine's model that alone produces it and the n-gram whose scratch
/// output only that dot reads; the tokenizer whose tokens only the n-grams
/// read; and the CSV field parser whose text only those read. `None` when
/// the Combine reads anything else or the parts do not fit one pass
/// ([`FusedText::new`]).
fn text_fusion_at(steps: &[Step], j: usize) -> Option<(Step, Vec<usize>)> {
    let StageOp::Combine { linear } = &steps[j].op else {
        return None;
    };
    let writer = |loc: Loc| steps.iter().position(|s| s.output == loc);
    // A scratch buffer one step writes and only `readers` read.
    let private_to = |loc: Loc, readers: &[usize]| {
        matches!(loc, Loc::Scratch(_))
            && steps.iter().filter(|s| s.output == loc).count() == 1
            && steps
                .iter()
                .enumerate()
                .all(|(i, s)| readers.contains(&i) || !s.inputs.contains(&loc))
    };
    let (mut text, mut tokens) = (None, None);
    let mut branches = Vec::new();
    let mut absorbed = Vec::new();
    for &partial in &steps[j].inputs {
        let p = writer(partial)?;
        let StageOp::PartialDot { linear: l, offset } = &steps[p].op else {
            return None;
        };
        if !Arc::ptr_eq(l, linear) || absorbed.contains(&p) || !private_to(partial, &[j]) {
            return None;
        }
        let [features] = steps[p].inputs[..] else {
            return None;
        };
        let g = writer(features)?;
        let (level, ngram) = match &steps[g].op {
            StageOp::Op(Op::CharNgram(ngram)) => (NgramLevel::Char, ngram),
            StageOp::Op(Op::WordNgram(ngram)) => (NgramLevel::Word, ngram),
            _ => return None,
        };
        if !private_to(features, &[p]) {
            return None;
        }
        let inputs = &steps[g].inputs;
        if *text.get_or_insert(inputs[0]) != inputs[0] {
            return None;
        }
        if level == NgramLevel::Word && *tokens.get_or_insert(inputs[1]) != inputs[1] {
            return None;
        }
        branches.push(TextBranch {
            level,
            ngram: Arc::clone(ngram),
            offset: *offset,
        });
        absorbed.extend([p, g]);
    }
    let text = text?;
    let tokenizer = match tokens {
        None => None,
        Some(k) => {
            let w = writer(k)?;
            let StageOp::Op(Op::Tokenizer(tok)) = &steps[w].op else {
                return None;
            };
            if steps[w].inputs != [text] || !private_to(k, &absorbed) {
                return None;
            }
            absorbed.push(w);
            Some(Arc::clone(tok))
        }
    };
    let mut input = text;
    let mut field = None;
    if let Some(w) = writer(text).filter(|_| private_to(text, &absorbed)) {
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
    // A kept buffer's new index is the number of kept buffers before it.
    let remap: Vec<u32> = used
        .iter()
        .scan(0, |kept, &u| {
            Some(std::mem::replace(kept, *kept + u32::from(u)))
        })
        .collect();
    let mut keep = used.iter();
    scratch.retain(|_| *keep.next().expect("one flag per buffer"));
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
/// served to synthetic steps directly and materialized into the pooled
/// slot-0 vector when a library operator reads it — at most once per
/// request, and never for a plan whose one step is [`StageOp::FusedText`].
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
            (src, slot) => Err(DataError::mismatch(
                "plan source",
                slot.column_type(),
                src.as_row().column_type(),
            )),
        }
    }

    /// Appends the source as one row of the (pooled) slot-0 batch.
    pub fn load_into_batch(&self, slot: &mut ColumnBatch) -> Result<()> {
        slot.push_row(self.as_row())
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
    /// Every stage's steps in execution order, each stage's scratch
    /// operands renumbered to where that scratch sits in the frame: what
    /// both engines run.
    program: Vec<Step>,
    /// The program steps of each stage.
    stage_steps: Vec<Range<usize>>,
    /// Materialization key of each program step, `Some` for a cacheable
    /// one ([`step_keys`]).
    keys: Vec<Option<u64>>,
    /// Frame layout: the slots, then every stage's scratch.
    frame: Vec<BufDef>,
}

/// Links `stages` into one program over one frame (see [`ModelPlan`]'s
/// `program`, `stage_steps` and `frame`).
fn link(
    slots: &[BufDef],
    stages: &[Arc<PhysicalStage>],
) -> (Vec<Step>, Vec<Range<usize>>, Vec<BufDef>) {
    let mut program = Vec::new();
    let mut stage_steps = Vec::with_capacity(stages.len());
    let mut frame = slots.to_vec();
    for stage in stages {
        let base = (frame.len() - slots.len()) as u32;
        let start = program.len();
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
        stage_steps.push(start..program.len());
        frame.extend_from_slice(&stage.scratch);
    }
    (program, stage_steps, frame)
}

/// The materialization key of each step of a linked `program` whose frame
/// holds `slots` slots and `frame_len` buffers, `Some` for a cacheable step:
/// a hash of the step's parameter checksum and, in input order, the key of
/// each input's producer (the source's is a fixed tag). A key therefore
/// names the step's whole upstream sub-plan: two plans share a cache entry
/// exactly when the sub-plans up to it are equal, whatever their slot
/// layouts or their downstream steps.
fn step_keys(program: &[Step], slots: usize, frame_len: usize) -> Vec<Option<u64>> {
    const SOURCE: u64 = 0x736f_7572_6365_2e30;
    let at = |loc: Loc| match loc {
        Loc::Slot(i) => i as usize,
        Loc::Scratch(i) => slots + i as usize,
    };
    let mut produced = vec![SOURCE; frame_len];
    program
        .iter()
        .map(|step| {
            let mut h = Fnv1a::new();
            h.write_u64(step.op.checksum());
            for &loc in &step.inputs {
                h.write_u64(produced[at(loc)]);
            }
            let key = h.finish();
            produced[at(step.output)] = key;
            step.op.cacheable().then_some(key)
        })
        .collect()
}

impl ModelPlan {
    /// Validates a logical plan and compiles it, interning operator
    /// parameters in the Object Store.
    pub fn compile(
        mut logical: StagePlan,
        opts: &CompileOptions,
        store: &ObjectStore,
    ) -> Result<Self> {
        logical.validate()?;
        intern_plan(&mut logical, store);
        Self::compile_with_catalog(logical, opts, |_| None)
    }

    /// Compiles a logical plan that is already validated and whose
    /// parameters are already interned (the runtime does both at
    /// registration), with a stage-residency probe: each
    /// compiled stage's signature is offered to `lookup`, and a hit serves
    /// the resident [`PhysicalStage`] instead (identity and all — warm
    /// catalog entries are shared intact). The runtime threads its catalog
    /// through here, so plans share every stage another live plan deployed.
    pub(crate) fn compile_with_catalog(
        logical: StagePlan,
        opts: &CompileOptions,
        mut lookup: impl FnMut(u64) -> Option<Arc<PhysicalStage>>,
    ) -> Result<Self> {
        let stages: Vec<Arc<PhysicalStage>> = logical
            .stages
            .iter()
            .map(|ls| {
                let stage = PhysicalStage::compile(ls, opts);
                lookup(stage.signature).unwrap_or_else(|| Arc::new(stage))
            })
            .collect();
        let (program, stage_steps, frame) = link(&logical.slots, &stages);
        let keys = step_keys(&program, logical.slots.len(), frame.len());
        Ok(ModelPlan {
            source_type: logical.source_type,
            slots: logical.slots,
            stages,
            output_slot: logical.output_slot,
            program,
            stage_steps,
            keys,
            frame,
        })
    }

    /// Column types of the plan working set (lease layout).
    pub fn slot_types(&self) -> Vec<ColumnType> {
        self.slots.iter().map(|d| d.ty).collect()
    }

    /// Every stage's scratch, where it sits in the frame after the slots.
    fn scratch(&self) -> &[BufDef] {
        &self.frame[self.slots.len()..]
    }

    fn check_lease(&self, slots: usize) -> Result<()> {
        if slots == self.slots.len() {
            return Ok(());
        }
        let want = self.slots.len();
        Err(DataError::Runtime(format!(
            "lease has {slots} slots, plan wants {want}"
        )))
    }

    /// Runs the program over one row — over `slots` and `ctx`'s frame of
    /// scratch, or with `None` over `ctx`'s frame of slots and scratch —
    /// serving slot-0 reads straight off `source` when `borrow`, cached
    /// under the plan's keys when `ctx` caches, and returns the score.
    fn run_row(
        &self,
        source: SourceRef<'_>,
        borrow: bool,
        slots: Option<&mut [Vector]>,
        ctx: &mut ExecCtx,
    ) -> Result<f32> {
        let layout = if slots.is_some() {
            self.scratch()
        } else {
            &self.frame
        };
        let loan = ctx.row_loan(layout, source);
        let (slots, scratch) = match slots {
            Some(slots) => (slots, loan.frame),
            None => loan.frame.split_at_mut(self.slots.len()),
        };
        let mut borrowed = BorrowedSource {
            src: source,
            loaded: false,
        };
        let src = borrow.then_some(&mut borrowed);
        run_steps(
            &self.program,
            &self.keys,
            loan.mat.as_ref(),
            src,
            slots,
            scratch,
            loan.reached,
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
        self.check_lease(slots.len())?;
        source.load_into(&mut slots[0])?;
        self.run_row(source, false, Some(slots), ctx)
    }

    /// Executes the full plan inline, scoring **straight off the borrowed
    /// source** instead of copying it into the pooled slot-0 vector first
    /// (the request-response engine's borrowed-source execute).
    ///
    /// Synthetic steps read the borrowed row
    /// ([`crate::plan::StageOp::apply_row`]); the first library operator
    /// reading the source materializes slot 0 once and the plan continues
    /// on the classic path. Scores are bitwise-identical to
    /// [`Self::execute`] either way.
    pub fn execute_borrowed(
        &self,
        source: SourceRef<'_>,
        slots: &mut [Vector],
        ctx: &mut ExecCtx,
    ) -> Result<f32> {
        self.check_lease(slots.len())?;
        self.run_row(source, true, Some(slots), ctx)
    }

    /// [`Self::execute_borrowed`] with the slots in `ctx`'s frame too: the
    /// request-response session's execute, which leases nothing while
    /// consecutive plans share a frame layout.
    pub(crate) fn execute_in_frame(&self, source: SourceRef<'_>, ctx: &mut ExecCtx) -> Result<f32> {
        self.run_row(source, true, None, ctx)
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
        let t0 = ctx.clock.now();
        let loan = ctx.loan::<Vector>(&self.frame, 1);
        let (slots, scratch) = loan.frame.split_at_mut(self.slots.len());
        let mut borrowed = BorrowedSource {
            src: source,
            loaded: false,
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_steps(
                &self.program[..done],
                &[],
                None,
                Some(&mut borrowed),
                slots,
                scratch,
                &mut 0,
            )
        }));
        ctx.clock.since(t0)
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
    /// The program runs in one pass over the chunk — one kernel call per
    /// step, scratch in `ctx`'s chunk frame — while scores stay
    /// bitwise-identical to [`Self::execute`] on each record.
    pub fn execute_batch(
        &self,
        sources: &[SourceRef<'_>],
        slots: &mut [ColumnBatch],
        ctx: &mut ExecCtx,
        out: &mut [f32],
    ) -> Result<()> {
        self.check_lease(slots.len())?;
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
        run_chunk(&self.program, &self.keys, self.scratch(), slots, rows, ctx)?;
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

    /// Runs stage `stage`'s steps of the program over a chunk of `rows`
    /// rows in the columnar working set `slots`: the batch engine's chunk
    /// event (paper §4.2.2). With a cache in `ctx` and a cached stage
    /// ([`Self::stage_is_cached`]), `ctx.source_hashes` must hold one hash
    /// per row.
    pub fn execute_stage_batch(
        &self,
        stage: usize,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        let steps = self.stage_steps[stage].clone();
        run_chunk(
            &self.program[steps.clone()],
            &self.keys[steps],
            self.scratch(),
            slots,
            rows,
            ctx,
        )
    }

    /// True if stage `stage` has a step the materialization cache keys.
    pub fn stage_is_cached(&self, stage: usize) -> bool {
        self.keys[self.stage_steps[stage].clone()]
            .iter()
            .any(Option::is_some)
    }

    /// The plan's working set by pool size class: for each [`ColumnType`]
    /// among the slots and scratch buffers, how many buffers of that class
    /// one execution leases and the largest training-statistics size hint
    /// among them — exactly a frame: a session's, or an executor's chunk
    /// frame plus one chunk's slots. The one description both deploy-time
    /// warmers consume ([`Self::warm_pool`], `Scheduler::warm_plan`).
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
        // The fused step is the compiler's output, built from steps interned
        // here; a logical plan holds none.
        StageOp::FusedText(_) => {}
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
        let (fused, unfused) = (compile_sa(true), compile_sa(false));
        assert_eq!(fused.stages[0].steps.len(), 1);
        assert_eq!(fused.stages[0].scratch.len(), 0);
        for text in [
            "5,a nice product,US",
            "7,utter garbage do not buy,DE",
            "1,,",
        ] {
            let a = run_plan(&fused, text);
            let b = run_plan(&unfused, text);
            assert_eq!(a.to_bits(), b.to_bits(), "{text}: fused {a} vs unfused {b}");
        }
    }

    #[test]
    fn text_fusion_needs_the_combine_in_the_stage() {
        // The char branch's partial leaves stage 0 in a slot, so stage 1's
        // Combine reads a partial no step of its stage produced: both
        // stages stay stepwise whatever the option.
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        let plan = ModelPlan::compile(logical, &CompileOptions::default(), &store).unwrap();
        let names: Vec<Vec<&str>> = plan
            .stages
            .iter()
            .map(|st| st.steps.iter().map(|s| s.op.name()).collect())
            .collect();
        assert_eq!(
            names,
            [
                vec!["Tokenizer", "CharNgram", "PartialDot"],
                vec!["WordNgram", "PartialDot", "Combine"]
            ]
        );
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        // Stage-at-a-time execution fits the same frame to each stage's
        // scratch in turn, so it ends holding stage 1's two buffers.
        for stage in &plan.stages {
            stage.execute(&mut slots, &mut ctx).unwrap();
        }
        assert_eq!(pool.stats().outstanding(), 2);
        drop(ctx);
        assert_eq!(pool.stats().outstanding(), 0, "the frame returns on drop");
    }

    #[test]
    fn execute_batch_bitwise_matches_execute() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        for fuse in [true, false] {
            let plan =
                ModelPlan::compile(logical.clone(), &CompileOptions { fuse_text: fuse }, &store)
                    .unwrap();
            let lines = [
                "a nice product",
                "utter garbage do not buy",
                "",
                "nice nice nice",
            ];
            let sources: Vec<SourceRef<'_>> = lines.iter().map(|l| SourceRef::Text(l)).collect();

            // Uncached, then cached (cold and warm): both engines key the
            // cache alike and wrap a cacheable step at one site.
            for cached in [false, true] {
                let pool = Arc::new(VectorPool::arena());
                let mut ctx = ExecCtx::new(Arc::clone(&pool));
                if cached {
                    ctx = ctx.with_cache(Arc::new(MaterializationCache::new(1 << 20)));
                }
                let mut batch_slots: Vec<ColumnBatch> = plan
                    .batch_slot_types()
                    .iter()
                    .map(|&t| ColumnBatch::with_type(t))
                    .collect();
                let mut scores = vec![0.0f32; lines.len()];
                for pass in 0..2 {
                    plan.execute_batch(&sources, &mut batch_slots, &mut ctx, &mut scores)
                        .unwrap();
                    for (i, line) in lines.iter().enumerate() {
                        let expect = run_plan(&plan, line);
                        // Bitwise equality, not tolerance: the batch kernels
                        // run the same per-row arithmetic as the row kernels.
                        assert_eq!(
                            scores[i].to_bits(),
                            expect.to_bits(),
                            "fuse={fuse} cached={cached} pass {pass} line {i}: \
                             batch {} vs single {expect}",
                            scores[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_cache_probe_matches_per_record_cache_semantics() {
        let (logical, _) = sa_logical(64, 64);
        let store = ObjectStore::new();
        // Fusion off so featurizer outputs stay cacheable.
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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
        // The chunk frame holds the plan's 3 scratch batches (two sparse,
        // one scalar) between runs: the first run leases them from the
        // empty pool (3 misses), the later runs reuse them and lease
        // nothing.
        assert_eq!(pool.stats().misses(), 3);
        assert_eq!(pool.stats().hits(), 0);
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
        let plan =
            ModelPlan::compile(logical, &CompileOptions { fuse_text: false }, &store).unwrap();
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

    fn compile_sa(fuse_text: bool) -> ModelPlan {
        let opts = CompileOptions { fuse_text };
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
    fn an_out_of_range_text_plan_runs_unfused_to_a_typed_error() {
        // The model is shorter than the two branches' weight segments:
        // `FusedText::new` refuses, the stage stays stepwise, and every
        // engine reports the short segment instead of panicking.
        let mut logical = sa_optimized();
        let short = Arc::new(synth::linear(4, 96, LinearKind::Logistic));
        for step in &mut logical.stages[0].steps {
            if let StageOp::PartialDot { linear, .. } | StageOp::Combine { linear } = &mut step.op {
                *linear = Arc::clone(&short);
            }
        }
        let plan =
            ModelPlan::compile(logical, &CompileOptions::default(), &ObjectStore::new()).unwrap();
        let names: Vec<&str> = plan.stages[0].steps.iter().map(|s| s.op.name()).collect();
        assert!(!names.contains(&"FusedText"), "{names:?}");
        assert!(names.contains(&"WordNgram"), "{names:?}");
        let line = "5,a fine line,US";
        let mut ctx = ExecCtx::new(Arc::new(VectorPool::arena()));
        let mut slots: Vec<Vector> = plan
            .slot_types()
            .into_iter()
            .map(Vector::with_type)
            .collect();
        for borrowed in [false, true] {
            let src = SourceRef::Text(line);
            let got = match borrowed {
                false => plan.execute(src, &mut slots, &mut ctx),
                true => plan.execute_borrowed(src, &mut slots, &mut ctx),
            };
            assert!(
                matches!(got, Err(DataError::SchemaMismatch { .. })),
                "{got:?}"
            );
        }
        let mut batch: Vec<ColumnBatch> = plan
            .batch_slot_types()
            .into_iter()
            .map(ColumnBatch::with_type)
            .collect();
        let got = plan.execute_batch(&[SourceRef::Text(line)], &mut batch, &mut ctx, &mut [0.0]);
        assert!(
            matches!(got, Err(DataError::SchemaMismatch { .. })),
            "{got:?}"
        );
    }

    #[test]
    fn text_fusion_leaves_a_combine_with_another_branch_alone() {
        // A hashing branch beside the n-grams: the Combine reads a partial
        // no n-gram·dot produced, so the text steps stay apart.
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
        assert!(names.contains(&"CharNgram"), "{names:?}");
        assert!(names.contains(&"PartialDot"), "{names:?}");
        assert!(!names.contains(&"FusedText"), "{names:?}");
        let score = run_plan(&plan, "5,a fine line,US");
        assert!((0.0..=1.0).contains(&score));
    }
}
