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
//! The runtime always fuses; [`CompileOptions::fuse_text`] off is the
//! stepwise reference the fused step is tested against.
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
//! which runs a chunk through one stage's steps at a time.

use crate::clock::Clock;
use crate::object_store::ObjectStore;
use crate::plan::{BufDef, Loc, LogicalStage, StageOp, StagePlan, Step};
use pretzel_data::batch::ColRef;
use pretzel_data::hash::Fnv1a;
use pretzel_data::pool::VectorPool;
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};
use pretzel_ops::text::fused::{FusedText, NgramLevel, TextBranch};
use pretzel_ops::Op;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Compilation options of [`ModelPlan::compile`]. The runtime always
/// compiles with the default (fused); `fuse_text: false` builds the
/// stepwise reference that tests hold the fused step to, bitwise.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fuse whole text stages — CSV field, tokenizer, n-grams, their
    /// partial dots and the Combine — into one [`StageOp::FusedText`] step.
    pub fuse_text: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse_text: true }
    }
}

/// An executable physical stage: what the runtime catalog shares between
/// plans. What a stage's place in one plan decides — where its scratch sits
/// in the frame — lives on [`ModelPlan`].
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

/// Per-executor execution context: the vector pool and the frames
/// executions run in.
#[derive(Debug)]
pub struct ExecCtx {
    /// Pool backing the frames (and, at the runtime layer, slot leases).
    pub pool: Arc<VectorPool>,
    /// Times fault replays: the real clock, or its owner's.
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
            clock: Clock::real(),
            frames: (Frame(Vec::new()), Frame(Vec::new())),
            held: Arc::default(),
            reached: 0,
        }
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
        let frame = B::frame(&mut self.frames);
        frame.fit(layout, rows, &self.pool, &self.held);
        Loan {
            frame: &mut frame.0,
            reached: &mut self.reached,
        }
    }
}

impl Drop for ExecCtx {
    fn drop(&mut self) {
        self.frames.0.release(&self.pool, &self.held);
        self.frames.1.release(&self.pool, &self.held);
    }
}

/// One execution's loan from an [`ExecCtx`]: the fitted frame and the step
/// counter.
struct Loan<'a, B> {
    frame: &'a mut [B],
    reached: &'a mut usize,
}

/// A buffer the step loop runs over: a row [`Vector`] (request-response
/// engine) or a chunk [`ColumnBatch`] (batch engine). It supplies what
/// differs between the two: leasing, the kernel call, and (rows only) the
/// borrowed source.
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

    /// Runs `step`.
    fn step(
        step: &Step,
        _source: Option<&mut BorrowedSource<'_>>,
        slots: &mut [Self],
        scratch: &mut [Self],
    ) -> Result<()> {
        apply_step(step, &mut Operands::of(slots, scratch, step.output))
    }
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
/// and `scratch`, row vectors or chunk batches. A borrowed `source` (rows
/// only) serves slot-0 reads until some step needs it materialized.
/// `reached` is set to each step's index before it runs.
fn run_steps<B: Buf>(
    steps: &[Step],
    mut source: Option<&mut BorrowedSource<'_>>,
    slots: &mut [B],
    scratch: &mut [B],
    reached: &mut usize,
) -> Result<()> {
    for (i, step) in steps.iter().enumerate() {
        *reached = i;
        B::step(step, source.as_deref_mut(), slots, scratch)?;
    }
    Ok(())
}

/// Runs `steps` over a chunk of `rows` rows in `slots`, their scratch in
/// `ctx`'s chunk frame fitted to `scratch`.
fn run_chunk(
    steps: &[Step],
    scratch: &[BufDef],
    slots: &mut [ColumnBatch],
    rows: usize,
    ctx: &mut ExecCtx,
) -> Result<()> {
    let loan = ctx.loan::<ColumnBatch>(scratch, rows);
    let result = run_steps(steps, None, slots, &mut *loan.frame, loan.reached);
    // A span output in scratch borrows slot 0's text: let go of it, or the
    // slot drops its buffer when the caller reuses or returns it.
    loan.frame.iter_mut().for_each(ColumnBatch::detach_shared);
    result
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
    /// run ([`ModelPlan::execute`]).
    pub fn execute(&self, slots: &mut [Vector], ctx: &mut ExecCtx) -> Result<()> {
        let loan = ctx.loan::<Vector>(&self.scratch, 1);
        run_steps(&self.steps, None, slots, loan.frame, loan.reached)
    }

    /// [`Self::execute`] over a chunk of `rows` rows in the columnar
    /// working set `slots` — one kernel call per step for the whole chunk,
    /// scratch in `ctx`'s chunk frame. The batch engine runs a plan's stages
    /// through [`ModelPlan::execute_stage_batch`].
    pub fn execute_batch(
        &self,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        run_chunk(&self.steps, &self.scratch, slots, rows, ctx)
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
        Self::build(logical, opts, |_| None)
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
        lookup: impl FnMut(u64) -> Option<Arc<PhysicalStage>>,
    ) -> Result<Self> {
        Self::build(logical, &CompileOptions::default(), lookup)
    }

    /// Compiles each stage of `logical` with `opts`, takes the resident
    /// stage `lookup` offers for its signature, and links the plan.
    fn build(
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
        Ok(ModelPlan {
            source_type: logical.source_type,
            slots: logical.slots,
            stages,
            output_slot: logical.output_slot,
            program,
            stage_steps,
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
    /// serving slot-0 reads straight off `source` when `borrow`, and returns
    /// the score.
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
        let loan = ctx.loan::<Vector>(layout, 1);
        let (slots, scratch) = match slots {
            Some(slots) => (slots, loan.frame),
            None => loan.frame.split_at_mut(self.slots.len()),
        };
        let mut borrowed = BorrowedSource {
            src: source,
            loaded: false,
        };
        let src = borrow.then_some(&mut borrowed);
        run_steps(&self.program, src, slots, scratch, loan.reached)?;
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
    /// step that panicked: the steps before it are replayed once under a
    /// clock. The request-response engine reads no clock
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
        let rows = sources.len();
        run_chunk(&self.program, self.scratch(), slots, rows, ctx)?;
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
    /// event (paper §4.2.2).
    pub fn execute_stage_batch(
        &self,
        stage: usize,
        slots: &mut [ColumnBatch],
        rows: usize,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        let steps = &self.program[self.stage_steps[stage].clone()];
        run_chunk(steps, self.scratch(), slots, rows, ctx)
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

            let pool = Arc::new(VectorPool::arena());
            let mut ctx = ExecCtx::new(Arc::clone(&pool));
            let mut batch_slots: Vec<ColumnBatch> = plan
                .batch_slot_types()
                .iter()
                .map(|&t| ColumnBatch::with_type(t))
                .collect();
            let mut scores = vec![0.0f32; lines.len()];
            // Twice: the second pass runs in the frame the first one left.
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
                        "fuse={fuse} pass {pass} line {i}: batch {} vs single {expect}",
                        scores[i]
                    );
                }
            }
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
