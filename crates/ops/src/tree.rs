//! Tree-based models: single trees, ensembles, one-vs-all multiclass trees
//! and the TreeFeaturizer.
//!
//! The Attendee Count pipelines "comprise several ML models forming an
//! ensemble: ... a TreeFeaturizer, and multi-class tree-based classifier,
//! all fed into a final tree (or forest) rendering the prediction"
//! (paper §5, Table 1). All tree operators share one flat node encoding
//! and one walk, [`Tree::eval`].
//!
//! The walk is branch-free: a step indexes the node's two children with
//! the test's outcome, `[right[i], left[i]][usize::from(x <= t)]`, instead
//! of branching on it. On real-valued features that branch goes either
//! way about half the time, so a predictor misses it at every other
//! level; the select turns a walk into a chain of dependent loads that the
//! core overlaps across an ensemble's independent trees. The select keeps
//! the branch's semantics exactly: NaN fails every `<=` and goes right, as
//! before, and `-0.0 <= t` agrees with `0.0 <= t` for every `t`, so a
//! signed zero takes the same child whichever way a kernel stored it. Only
//! the loop exit (`child < 0`) still branches, once per tree.
//!
//! Every walk reads its features through `with_row`. A dense input row
//! is read in place; a sparse row is scattered once into a thread-local
//! dense row of the input's dimension and cleared by the same indices after
//! the row, so a node visit is one index, not a binary search over the
//! row's nonzeros. A sparse row wider than the thread-local row keeps
//! (`DENSE_ROW_RETAIN` floats) is read by binary search over its sorted
//! indices instead, so it costs O(nnz) rather than a buffer of its width
//! grown and zeroed per row. A final forest whose only input is a Concat
//! reads the Concat's branches the same way, assembled straight into that
//! row with no concatenated vector built ([`EnsembleParams::score_concat`],
//! the kernel of Oven's tree pushdown). Reading a branch's `-0.0` where
//! the Concat would have dropped it (and a sparse read returned `+0.0`)
//! takes the same child, by the signed-zero argument above.

use crate::annotations::Annotations;
use crate::feat::concat::ConcatParams;
use crate::params::{ChecksumMemo, ParamBlob};
use pretzel_data::batch::ColRef;
use pretzel_data::serde_bin::{wire, Cursor, Section};
use pretzel_data::{ColumnBatch, ColumnType, DataError, Result, Vector};

/// A single decision tree in flat-array form.
///
/// Internal node `i` tests `features[i] <= thresholds[i]` and branches to
/// `left[i]` / `right[i]`. A child value `c >= 0` is an internal node index;
/// `c < 0` encodes leaf `!c` (bitwise-not). Children always have a *larger*
/// index than their parent, which makes traversal termination a structural
/// property (checked by [`Tree::validate`]) rather than a runtime hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    /// Feature tested at each internal node.
    pub features: Vec<u32>,
    /// Threshold at each internal node.
    pub thresholds: Vec<f32>,
    /// Left child (internal index or `!leaf`).
    pub left: Vec<i32>,
    /// Right child (internal index or `!leaf`).
    pub right: Vec<i32>,
    /// Value at each leaf.
    pub leaf_values: Vec<f32>,
}

impl Tree {
    /// A single-leaf tree returning `value` for any input.
    pub fn leaf(value: f32) -> Self {
        Tree {
            features: vec![],
            thresholds: vec![],
            left: vec![],
            right: vec![],
            leaf_values: vec![value],
        }
    }

    /// Number of internal nodes.
    pub fn internal_nodes(&self) -> usize {
        self.features.len()
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.leaf_values.len()
    }

    /// Structural validation: parallel arrays, child ordering, index ranges.
    pub fn validate(&self, input_dim: usize) -> Result<()> {
        let n = self.features.len();
        if self.thresholds.len() != n || self.left.len() != n || self.right.len() != n {
            return Err(DataError::Codec("tree arrays are not parallel".into()));
        }
        if self.leaf_values.is_empty() {
            return Err(DataError::Codec("tree has no leaves".into()));
        }
        if n == 0 && self.leaf_values.len() != 1 {
            return Err(DataError::Codec("leaf-only tree must have one leaf".into()));
        }
        for i in 0..n {
            if self.features[i] as usize >= input_dim {
                return Err(DataError::Codec(format!(
                    "tree node {i} tests feature {} beyond input dim {input_dim}",
                    self.features[i]
                )));
            }
            for c in [self.left[i], self.right[i]] {
                if c >= 0 {
                    let c = c as usize;
                    if c <= i || c >= n {
                        return Err(DataError::Codec(format!(
                            "tree node {i} has non-forward child {c}"
                        )));
                    }
                } else {
                    let leaf = !c as usize;
                    if leaf >= self.leaf_values.len() {
                        return Err(DataError::Codec(format!(
                            "tree node {i} references missing leaf {leaf}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates the tree, returning `(leaf_index, leaf_value)`. Each step
    /// selects the child by the test's outcome rather than branching on it
    /// (see the module docs).
    pub fn eval(&self, x: impl Fn(usize) -> f32) -> (usize, f32) {
        let n = self.features.len();
        if n == 0 {
            return (0, self.leaf_values[0]);
        }
        // One length for the four arrays: a node index is checked once.
        let (features, thresholds) = (&self.features[..n], &self.thresholds[..n]);
        let (left, right) = (&self.left[..n], &self.right[..n]);
        let mut node = 0usize;
        loop {
            let goes_left = x(features[node] as usize) <= thresholds[node];
            let next = [right[node], left[node]][usize::from(goes_left)];
            if next < 0 {
                let leaf = !next as usize;
                return (leaf, self.leaf_values[leaf]);
            }
            node = next as usize;
        }
    }

    fn write(&self, buf: &mut Vec<u8>) {
        wire::put_u32s(buf, &self.features);
        wire::put_f32s(buf, &self.thresholds);
        wire::put_u32(buf, self.left.len() as u32);
        for &v in &self.left {
            wire::put_u32(buf, v as u32);
        }
        wire::put_u32(buf, self.right.len() as u32);
        for &v in &self.right {
            wire::put_u32(buf, v as u32);
        }
        wire::put_f32s(buf, &self.leaf_values);
    }

    fn read(cur: &mut Cursor<'_>) -> Result<Self> {
        let features = cur.u32s()?;
        let thresholds = cur.f32s()?;
        let left = cur.u32s()?.into_iter().map(|v| v as i32).collect();
        let right = cur.u32s()?.into_iter().map(|v| v as i32).collect();
        let leaf_values = cur.f32s()?;
        Ok(Tree {
            features,
            thresholds,
            left,
            right,
            leaf_values,
        })
    }

    fn bytes(&self) -> usize {
        self.features.capacity() * 4
            + self.thresholds.capacity() * 4
            + self.left.capacity() * 4
            + self.right.capacity() * 4
            + self.leaf_values.capacity() * 4
    }
}

/// Retention bound on the thread-local dense row, in floats (4 MiB). A
/// row that wide must not pin its buffer on the executor thread forever,
/// and a sparse row wider than this is not scattered at all.
const DENSE_ROW_RETAIN: usize = 1 << 20;

/// The thread-local dense row sparse inputs are scattered into.
#[derive(Debug, Default)]
struct DenseRow {
    /// All `+0.0` between rows.
    x: Vec<f32>,
    /// Set while a row is scattered in. A row that errors or unwinds half
    /// way leaves it set, and the next row zeroes the whole buffer first.
    dirty: bool,
}

impl DenseRow {
    /// The first `dim` floats of the zeroed buffer, marked dirty.
    fn open(&mut self, dim: usize) -> &mut [f32] {
        if self.dirty {
            self.x.fill(0.0);
        }
        if self.x.len() < dim {
            self.x.resize(dim, 0.0);
        }
        self.dirty = true;
        &mut self.x[..dim]
    }

    /// Marks the buffer zero again (the caller cleared what it wrote) and
    /// applies the retention bound.
    fn close(&mut self) {
        self.dirty = false;
        if self.x.capacity() > DENSE_ROW_RETAIN {
            self.x.truncate(DENSE_ROW_RETAIN);
            self.x.shrink_to(DENSE_ROW_RETAIN);
        }
    }
}

std::thread_local! {
    static DENSE_ROW: std::cell::RefCell<DenseRow> = std::cell::RefCell::new(DenseRow::default());
}

/// Runs `f` with the thread's dense row, like `ngram::with_scratch`: a
/// plain `borrow_mut`, since the walks never re-enter.
fn with_row_scratch<R>(f: impl FnOnce(&mut DenseRow) -> R) -> R {
    DENSE_ROW.with(|cell| f(&mut cell.borrow_mut()))
}

/// Writes a sparse row's values into `x` (indices past `x` are skipped: a
/// tree never reads them).
fn scatter(x: &mut [f32], indices: &[u32], values: &[f32]) {
    for (&i, &v) in indices.iter().zip(values) {
        if let Some(slot) = x.get_mut(i as usize) {
            *slot = v;
        }
    }
}

/// Zeroes what [`scatter`] wrote.
fn unscatter(x: &mut [f32], indices: &[u32]) {
    for &i in indices {
        if let Some(slot) = x.get_mut(i as usize) {
            *slot = 0.0;
        }
    }
}

/// A row as a tree walk reads it.
#[derive(Debug, Clone, Copy)]
pub enum Features<'a> {
    /// One float per feature, read by index.
    Dense(&'a [f32]),
    /// A sparse row too wide to scatter, read by binary search; a feature
    /// it does not hold reads `+0.0`.
    Sparse {
        /// Sorted, unique feature indices.
        indices: &'a [u32],
        /// The value at each index.
        values: &'a [f32],
    },
}

impl Features<'_> {
    /// Walks `tree` over this row (the reader is chosen once per tree).
    fn eval(self, tree: &Tree) -> (usize, f32) {
        match self {
            Features::Dense(x) => tree.eval(|i| x[i]),
            Features::Sparse { indices, values } => tree.eval(|i| {
                indices
                    .binary_search(&(i as u32))
                    .map_or(0.0, |k| values[k])
            }),
        }
    }
}

/// Checks that a tree operator's input is numeric of width `dim`.
fn check_numeric(operator: &str, dim: u32, found: ColumnType) -> Result<()> {
    match found.dimension() {
        Some(d) if d == dim as usize => Ok(()),
        _ => Err(DataError::mismatch(
            operator,
            format!("numeric[{dim}]"),
            found,
        )),
    }
}

/// Runs `f` over `row` as the trees read it: a dense row in place, a
/// scalar as a one-element slice, a sparse row no wider than
/// [`DENSE_ROW_RETAIN`] scattered into the thread's dense row (cleared by
/// the same indices afterwards), and a wider one by binary search. Sparse
/// rows are sorted and unique, so the scatter holds exactly what the
/// search finds.
fn with_row<R>(row: ColRef<'_>, f: impl FnOnce(Features<'_>) -> R) -> Result<R> {
    match row {
        ColRef::Dense(x) => Ok(f(Features::Dense(x))),
        ColRef::Scalar(x) => Ok(f(Features::Dense(std::slice::from_ref(&x)))),
        ColRef::Sparse {
            indices,
            values,
            dim,
        } if dim as usize > DENSE_ROW_RETAIN => Ok(f(Features::Sparse { indices, values })),
        ColRef::Sparse {
            indices,
            values,
            dim,
        } => Ok(with_row_scratch(|s| {
            let x = s.open(dim as usize);
            scatter(x, indices, values);
            let out = f(Features::Dense(x));
            unscatter(x, indices);
            s.close();
            out
        })),
        other => Err(DataError::mismatch(
            "tree",
            "a numeric input",
            other.column_type(),
        )),
    }
}

/// How an ensemble combines member scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleMode {
    /// Sum of weighted scores (gradient-boosting style).
    Sum,
    /// Weighted average (random-forest style).
    Average,
}

/// Parameters of a tree ensemble regressor / scorer.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleParams {
    /// Member trees.
    pub trees: Vec<Tree>,
    /// Per-tree weights.
    pub weights: Vec<f32>,
    /// Combination mode.
    pub mode: EnsembleMode,
    /// Expected input dimensionality.
    pub input_dim: u32,
    memo: ChecksumMemo,
}

impl EnsembleParams {
    /// Creates an ensemble after validating every member tree.
    pub fn new(
        trees: Vec<Tree>,
        weights: Vec<f32>,
        mode: EnsembleMode,
        input_dim: u32,
    ) -> Result<Self> {
        if trees.len() != weights.len() || trees.is_empty() {
            return Err(DataError::Codec(format!(
                "ensemble with {} trees and {} weights",
                trees.len(),
                weights.len()
            )));
        }
        for t in &trees {
            t.validate(input_dim as usize)?;
        }
        Ok(EnsembleParams {
            trees,
            weights,
            mode,
            input_dim,
            memo: ChecksumMemo::default(),
        })
    }

    /// Operator annotations: compute-bound (pointer chasing, no fusion win).
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Total number of leaves across member trees (TreeFeaturizer dim).
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(Tree::leaves).sum()
    }

    /// Weighted ensemble score of one row of `input_dim` features. The
    /// one row routine behind the per-record, batch and Concat-reading
    /// kernels (and [`MulticlassTreeParams`]), so their bitwise agreement
    /// rests on one implementation.
    pub fn score(&self, x: Features<'_>) -> f32 {
        let mut acc = 0.0f32;
        for (t, &w) in self.trees.iter().zip(&self.weights) {
            acc += w * x.eval(t).1;
        }
        if self.mode == EnsembleMode::Average {
            acc /= self.trees.len() as f32;
        }
        acc
    }

    /// Scores the row a Concat of `branches` branches would build, without
    /// building it: branch `k` (read through `branch(k)`) lands at
    /// `concat.offset(k)` of the thread's dense row — a dense branch
    /// copied, a sparse one scattered, a scalar set — the trees walk it as
    /// in [`Self::score`], and every range written is zeroed again. Scores
    /// are bitwise those of [`Self::score`] over the Concat's output.
    pub fn score_concat<'a>(
        &self,
        concat: &ConcatParams,
        branches: usize,
        branch: impl Fn(usize) -> ColRef<'a>,
    ) -> Result<f32> {
        let dim = concat.dim();
        if branches != concat.input_dims.len() || dim != self.input_dim as usize {
            let want = format!(
                "{} branches of dim {}",
                concat.input_dims.len(),
                self.input_dim
            );
            let found = format!("{branches} branches of dim {dim}");
            return Err(DataError::mismatch("tree over concat", want, found));
        }
        with_row_scratch(|s| {
            let x = s.open(dim);
            let mut offset = 0;
            for (k, &want) in concat.input_dims.iter().enumerate() {
                let seg = &mut x[offset..offset + want as usize];
                match branch(k) {
                    ColRef::Dense(v) if v.len() == seg.len() => seg.copy_from_slice(v),
                    ColRef::Sparse {
                        indices,
                        values,
                        dim,
                    } if dim == want => scatter(seg, indices, values),
                    ColRef::Scalar(v) if want == 1 => seg[0] = v,
                    // The buffer stays dirty: the next row zeroes it whole.
                    other => {
                        let want = format!("numeric[{want}] at branch {k}");
                        return Err(DataError::mismatch(
                            "tree over concat",
                            want,
                            other.column_type(),
                        ));
                    }
                }
                offset += want as usize;
            }
            let y = self.score(Features::Dense(x));
            let mut offset = 0;
            for (k, &want) in concat.input_dims.iter().enumerate() {
                let seg = &mut x[offset..offset + want as usize];
                match branch(k) {
                    ColRef::Sparse { indices, .. } => unscatter(seg, indices),
                    _ => seg.fill(0.0),
                }
                offset += want as usize;
            }
            s.close();
            Ok(y)
        })
    }

    /// Scores `input` into a scalar `out`.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        self.check_input(input)?;
        let acc = with_row(ColRef::from_vector(input), |x| self.score(x))?;
        match out {
            Vector::Scalar(s) => {
                *s = acc;
                Ok(())
            }
            other => Err(DataError::mismatch(
                "ensemble",
                "F32Scalar output",
                other.column_type(),
            )),
        }
    }

    /// TreeFeaturizer semantics: one-hot of each member's leaf index, packed
    /// into a sparse vector of dimension [`Self::total_leaves`].
    ///
    /// "The well-known trees-as-features trick": the leaf a sample lands in
    /// is a learned discretization of the input space.
    pub fn apply_featurize(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        self.check_input(input)?;
        match out {
            Vector::Sparse { dim, .. } if *dim as usize == self.total_leaves() => {}
            other => return Err(self.leaves_mismatch(other.column_type())),
        }
        out.reset();
        with_row(ColRef::from_vector(input), |x| {
            self.featurize(x, |idx| out.sparse_accumulate(idx, 1.0))
        })
    }

    /// TreeFeaturizer row routine: emits each member's leaf one-hot index
    /// (offset by the leaves of the members before it) for one row.
    fn featurize(&self, x: Features<'_>, mut emit: impl FnMut(u32)) {
        let mut offset = 0u32;
        for t in &self.trees {
            let (leaf, _) = x.eval(t);
            emit(offset + leaf as u32);
            offset += t.leaves() as u32;
        }
    }

    /// Batch kernel: scores every row of the chunk into a scalar batch
    /// through the same [`Self::score`] as the per-record kernel; the flat
    /// tree arrays stay cache-hot across rows.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        self.check_batch_input(input)?;
        let rows = input.rows();
        if out.column_type() != pretzel_data::ColumnType::F32Scalar {
            return Err(DataError::mismatch(
                "ensemble",
                "F32Scalar output",
                out.column_type(),
            ));
        }
        let y = out.fill_scalar(rows)?;
        for (r, slot) in y.iter_mut().enumerate() {
            *slot = with_row(input.row(r), |x| self.score(x))?;
        }
        Ok(())
    }

    /// Batch TreeFeaturizer: leaf one-hots for every row, packed into one
    /// CSR batch (row construction identical to [`Self::apply_featurize`]).
    pub fn eval_batch_featurize(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        self.check_batch_input(input)?;
        match out {
            ColumnBatch::Sparse { dim, .. } if *dim as usize == self.total_leaves() => {}
            other => return Err(self.leaves_mismatch(other.column_type())),
        }
        out.reset();
        for r in 0..input.rows() {
            let mut srow = out.begin_sparse_row()?;
            with_row(input.row(r), |x| {
                self.featurize(x, |idx| srow.accumulate(idx, 1.0))
            })?;
            srow.finish();
        }
        Ok(())
    }

    fn check_input(&self, input: &Vector) -> Result<()> {
        check_numeric("ensemble", self.input_dim, input.column_type())
    }

    fn check_batch_input(&self, input: &ColumnBatch) -> Result<()> {
        check_numeric("ensemble", self.input_dim, input.column_type())
    }

    fn leaves_mismatch(&self, found: ColumnType) -> DataError {
        let want = format!("F32Sparse[{}] output", self.total_leaves());
        DataError::mismatch("tree featurizer", want, found)
    }
}

impl ParamBlob for EnsembleParams {
    const KIND: &'static str = "TreeEnsemble";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut cfg = Vec::new();
        wire::put_u32(&mut cfg, if self.mode == EnsembleMode::Sum { 0 } else { 1 });
        wire::put_u32(&mut cfg, self.input_dim);
        let mut w = Vec::new();
        wire::put_f32s(&mut w, &self.weights);
        let mut trees = Vec::new();
        wire::put_u32(&mut trees, self.trees.len() as u32);
        for t in &self.trees {
            t.write(&mut trees);
        }
        vec![
            ("config".into(), cfg),
            ("weights".into(), w),
            ("trees".into(), trees),
        ]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cfg = Cursor::new(section.entry("config")?);
        let mode = if cfg.u32()? == 0 {
            EnsembleMode::Sum
        } else {
            EnsembleMode::Average
        };
        let input_dim = cfg.u32()?;
        let weights = Cursor::new(section.entry("weights")?).f32s()?;
        let mut cur = Cursor::new(section.entry("trees")?);
        let n = cur.u32()? as usize;
        let mut trees = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            trees.push(Tree::read(&mut cur)?);
        }
        EnsembleParams::new(trees, weights, mode, input_dim)
    }

    fn heap_bytes(&self) -> usize {
        self.weights.capacity() * 4
            + self.trees.capacity() * std::mem::size_of::<Tree>()
            + self.trees.iter().map(Tree::bytes).sum::<usize>()
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

/// Parameters of a one-vs-all multiclass tree classifier.
///
/// One ensemble-of-one-or-more trees per class; the output is the dense
/// vector of per-class scores.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassTreeParams {
    /// One scorer per class.
    pub per_class: Vec<EnsembleParams>,
    memo: ChecksumMemo,
}

impl MulticlassTreeParams {
    /// Creates a multiclass classifier from per-class ensembles.
    pub fn new(per_class: Vec<EnsembleParams>) -> Result<Self> {
        if per_class.is_empty() {
            return Err(DataError::Codec("multiclass with zero classes".into()));
        }
        let dim = per_class[0].input_dim;
        if per_class.iter().any(|e| e.input_dim != dim) {
            return Err(DataError::Codec(
                "multiclass ensembles disagree on input dim".into(),
            ));
        }
        Ok(MulticlassTreeParams {
            per_class,
            memo: ChecksumMemo::default(),
        })
    }

    /// Number of classes (output dimensionality).
    pub fn classes(&self) -> usize {
        self.per_class.len()
    }

    /// Expected input dimensionality.
    pub fn input_dim(&self) -> u32 {
        self.per_class[0].input_dim
    }

    /// Operator annotations: compute-bound.
    pub fn annotations(&self) -> Annotations {
        Annotations::compute()
    }

    /// Per-class ensemble scores of one row. Shared by the per-record and
    /// batch kernels, so their bitwise agreement rests on one
    /// implementation.
    fn score(&self, x: Features<'_>, y: &mut [f32]) {
        for (ens, slot) in self.per_class.iter().zip(y.iter_mut()) {
            *slot = ens.score(x);
        }
    }

    /// Scores `input` into a dense per-class score vector.
    pub fn apply(&self, input: &Vector, out: &mut Vector) -> Result<()> {
        check_numeric("multiclass", self.input_dim(), input.column_type())?;
        match out {
            Vector::Dense(y) if y.len() == self.classes() => {
                with_row(ColRef::from_vector(input), |x| self.score(x, y))
            }
            other => Err(self.output_mismatch(other.column_type())),
        }
    }

    /// Batch kernel: per-class ensemble scores for every row through the
    /// same `Self::score` as the per-record kernel.
    pub fn eval_batch(&self, input: &ColumnBatch, out: &mut ColumnBatch) -> Result<()> {
        let classes = self.classes();
        if out.column_type() != (pretzel_data::ColumnType::F32Dense { len: classes }) {
            return Err(self.output_mismatch(out.column_type()));
        }
        check_numeric("multiclass", self.input_dim(), input.column_type())?;
        let rows = input.rows();
        let y = out.fill_dense(rows)?;
        for (r, yr) in y.chunks_exact_mut(classes).enumerate().take(rows) {
            with_row(input.row(r), |x| self.score(x, yr))?;
        }
        Ok(())
    }

    fn output_mismatch(&self, found: ColumnType) -> DataError {
        DataError::mismatch(
            "multiclass",
            format!("F32Dense[{}] output", self.classes()),
            found,
        )
    }
}

impl ParamBlob for MulticlassTreeParams {
    const KIND: &'static str = "MulticlassTree";

    fn to_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut blob = Vec::new();
        wire::put_u32(&mut blob, self.per_class.len() as u32);
        for ens in &self.per_class {
            // Nested encoding: reuse the ensemble's own entries.
            let entries = ens.to_entries();
            wire::put_u32(&mut blob, entries.len() as u32);
            for (name, bytes) in entries {
                wire::put_str(&mut blob, &name);
                wire::put_u64(&mut blob, bytes.len() as u64);
                blob.extend_from_slice(&bytes);
            }
        }
        vec![("classes".into(), blob)]
    }

    fn from_entries(section: &Section) -> Result<Self> {
        let mut cur = Cursor::new(section.entry("classes")?);
        let n = cur.u32()? as usize;
        let mut per_class = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            let n_entries = cur.u32()? as usize;
            let mut entries = Vec::with_capacity(n_entries.min(16));
            for _ in 0..n_entries {
                let name = cur.str()?;
                let bytes = cur.bytes()?.to_vec();
                entries.push((name, bytes));
            }
            let inner = Section {
                name: "class".into(),
                checksum: 0,
                entries,
            };
            per_class.push(EnsembleParams::from_entries(&inner)?);
        }
        MulticlassTreeParams::new(per_class)
    }

    fn heap_bytes(&self) -> usize {
        self.per_class.iter().map(|e| e.heap_bytes()).sum()
    }

    fn checksum_memo(&self) -> &ChecksumMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_data::ColumnType;

    /// A depth-2 stump: x[0] <= 1.0 ? (x[1] <= 0.5 ? 10 : 20) : 30.
    fn sample_tree() -> Tree {
        Tree {
            features: vec![0, 1],
            thresholds: vec![1.0, 0.5],
            left: vec![1, !0],
            right: vec![!2, !1],
            leaf_values: vec![10.0, 20.0, 30.0],
        }
    }

    #[test]
    fn eval_walks_both_branches() {
        let t = sample_tree();
        assert_eq!(t.eval(|i| [0.0, 0.0][i]), (0, 10.0));
        assert_eq!(t.eval(|i| [0.0, 1.0][i]), (1, 20.0));
        assert_eq!(t.eval(|i| [5.0, 0.0][i]), (2, 30.0));
    }

    #[test]
    fn leaf_tree_is_constant() {
        let t = Tree::leaf(7.0);
        assert_eq!(t.eval(|_| 123.0), (0, 7.0));
        t.validate(0).unwrap();
    }

    #[test]
    fn validate_rejects_backward_children() {
        let mut t = sample_tree();
        t.left[1] = 0; // points back to the root: potential cycle
        assert!(t.validate(2).is_err());
    }

    #[test]
    fn validate_rejects_bad_feature_and_leaf() {
        let mut t = sample_tree();
        t.features[0] = 9;
        assert!(t.validate(2).is_err());
        let mut t2 = sample_tree();
        t2.right[1] = !9;
        assert!(t2.validate(2).is_err());
    }

    #[test]
    fn ensemble_sum_and_average() {
        let trees = vec![Tree::leaf(1.0), Tree::leaf(3.0)];
        let sum = EnsembleParams::new(trees.clone(), vec![1.0, 1.0], EnsembleMode::Sum, 2).unwrap();
        let avg = EnsembleParams::new(trees, vec![1.0, 1.0], EnsembleMode::Average, 2).unwrap();
        let x = Vector::Dense(vec![0.0, 0.0]);
        let mut out = Vector::Scalar(0.0);
        sum.apply(&x, &mut out).unwrap();
        assert_eq!(out.as_scalar().unwrap(), 4.0);
        avg.apply(&x, &mut out).unwrap();
        assert_eq!(out.as_scalar().unwrap(), 2.0);
    }

    #[test]
    fn featurizer_one_hot_per_tree() {
        let ens = EnsembleParams::new(
            vec![sample_tree(), Tree::leaf(0.0)],
            vec![1.0, 1.0],
            EnsembleMode::Sum,
            2,
        )
        .unwrap();
        assert_eq!(ens.total_leaves(), 4);
        let x = Vector::Dense(vec![5.0, 0.0]); // lands in leaf 2 of tree 0
        let mut out = Vector::with_type(ColumnType::F32Sparse { len: 4 });
        ens.apply_featurize(&x, &mut out).unwrap();
        assert_eq!(out.to_dense(4).unwrap(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sparse_input_reads_zero_for_missing() {
        let t = sample_tree();
        let mut sp = Vector::with_type(ColumnType::F32Sparse { len: 2 });
        sp.sparse_accumulate(0, 5.0);
        // x[1] missing -> 0.0 -> right path at root, leaf 2.
        let leaf = with_row(ColRef::from_vector(&sp), |x| x.eval(&t)).unwrap();
        assert_eq!(leaf, (2, 30.0));
    }

    /// Floats the thread's dense row holds on to.
    fn retained_row_floats() -> usize {
        with_row_scratch(|s| s.x.capacity())
    }

    #[test]
    fn wide_sparse_row_is_searched_not_scattered() {
        let dim = 1usize << 21;
        let ens = crate::synth::ensemble(41, dim, 9, 6, EnsembleMode::Sum);
        // Hold every other feature the trees test (the rest read +0.0),
        // with values equal to a threshold, signed zeros, NaN and infinities.
        let mut tested: Vec<u32> = ens.trees.iter().flat_map(|t| t.features.clone()).collect();
        tested.sort_unstable();
        tested.dedup();
        let indices: Vec<u32> = tested.iter().copied().step_by(2).collect();
        let palette = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        let values: Vec<f32> = (0..indices.len())
            .map(|k| match k % 8 {
                k @ 0..=5 => palette[k],
                _ => ens.trees[0].thresholds[k % ens.trees[0].thresholds.len()],
            })
            .collect();
        assert!(indices.iter().any(|&i| i as usize >= DENSE_ROW_RETAIN));
        let row = Vector::Sparse {
            indices: indices.clone(),
            values: values.clone(),
            dim: dim as u32,
        };

        assert_eq!(retained_row_floats(), 0);
        let mut searched = Vector::Scalar(0.0);
        ens.apply(&row, &mut searched).unwrap();
        let mut leaves = Vector::with_type(ColumnType::F32Sparse {
            len: ens.total_leaves(),
        });
        ens.apply_featurize(&row, &mut leaves).unwrap();
        assert_eq!(retained_row_floats(), 0, "a wide row grew the dense row");

        // The scatter path, run by hand on the same row.
        let (scattered, scattered_leaves) = with_row_scratch(|s| {
            let x = s.open(dim);
            scatter(x, &indices, &values);
            let y = ens.score(Features::Dense(x));
            let mut hot = Vec::new();
            ens.featurize(Features::Dense(x), |i| hot.push(i));
            unscatter(x, &indices);
            s.close();
            (y, hot)
        });
        assert!(retained_row_floats() <= DENSE_ROW_RETAIN);
        assert_eq!(searched.as_scalar().unwrap().to_bits(), scattered.to_bits());
        let Vector::Sparse { indices: hot, .. } = &leaves else {
            unreachable!("featurizer output is sparse")
        };
        assert_eq!(hot, &scattered_leaves);
    }

    #[test]
    fn multiclass_scores_every_class() {
        let mk = |v: f32| {
            EnsembleParams::new(vec![Tree::leaf(v)], vec![1.0], EnsembleMode::Sum, 3).unwrap()
        };
        let mc = MulticlassTreeParams::new(vec![mk(0.1), mk(0.7), mk(0.2)]).unwrap();
        let x = Vector::Dense(vec![0.0; 3]);
        let mut out = Vector::with_type(ColumnType::F32Dense { len: 3 });
        mc.apply(&x, &mut out).unwrap();
        assert_eq!(out.as_dense().unwrap(), &[0.1, 0.7, 0.2]);
    }

    #[test]
    fn ensemble_round_trip() {
        let ens = EnsembleParams::new(
            vec![sample_tree(), Tree::leaf(1.5)],
            vec![0.5, 2.0],
            EnsembleMode::Average,
            2,
        )
        .unwrap();
        let section = Section {
            name: "op.Ens".into(),
            checksum: 0,
            entries: ens.to_entries(),
        };
        let q = EnsembleParams::from_entries(&section).unwrap();
        assert_eq!(ens, q);
        assert_eq!(ens.checksum(), q.checksum());
    }

    #[test]
    fn multiclass_round_trip() {
        let mk = |v: f32| {
            EnsembleParams::new(
                vec![sample_tree(), Tree::leaf(v)],
                vec![1.0, 1.0],
                EnsembleMode::Sum,
                2,
            )
            .unwrap()
        };
        let mc = MulticlassTreeParams::new(vec![mk(1.0), mk(2.0)]).unwrap();
        let section = Section {
            name: "op.Mc".into(),
            checksum: 0,
            entries: mc.to_entries(),
        };
        let q = MulticlassTreeParams::from_entries(&section).unwrap();
        assert_eq!(mc, q);
    }

    #[test]
    fn corrupt_ensemble_rejected() {
        // Weights/trees length mismatch must fail at construction.
        assert!(
            EnsembleParams::new(vec![Tree::leaf(1.0)], vec![1.0, 2.0], EnsembleMode::Sum, 1)
                .is_err()
        );
        assert!(EnsembleParams::new(vec![], vec![], EnsembleMode::Sum, 1).is_err());
    }
}
