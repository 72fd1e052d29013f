//! The model lifecycle control plane: admission gates, aliases, counters.
//!
//! PRETZEL's headline scenario is a runtime serving *hundreds to thousands*
//! of model pipelines under constant churn — new versions deploy, old ones
//! retire, aliases flip — so deployed models must be first-class **mutable**
//! state, not append-only catalog rows. This module holds the control-plane
//! primitives the [`crate::runtime::Runtime`] composes into
//! `deploy`/`undeploy`/`swap`/`list`:
//!
//! * [`PlanGate`] — a per-plan admission gate plus in-flight counter. Every
//!   batch submission holds a [`GatePass`] for its lifetime; `undeploy`
//!   *retires* the gate (new submissions fail fast with
//!   [`DataError::PlanRetired`]) and then waits for the count to drain to
//!   zero, so outstanding `BatchHandle`s complete on the old plan. The
//!   retire/drain discipline follows the epoch-style reclamation of
//!   Blelloch & Wei (arXiv:2008.04296): writers announce an epoch flip
//!   (retire), readers finish inside their epoch (passes drain), and only
//!   then is memory reclaimed.
//! * [`AliasMap`] — named endpoints. `swap` atomically repoints a stable
//!   alias from version *k* to version *k+1* (a single pointer flip under
//!   the write lock, the LL/SC-style version-pointer move of
//!   arXiv:1911.09671), so alias-addressed clients never observe a gap:
//!   every request resolves to *some* deployed version.
//! * [`DeployOptions`] / [`UndeployReport`] / [`PlanInfo`] — the admin
//!   surface types the wire protocol serializes.
//! * [`LifecycleStats`] — monotonic churn counters.
//!
//! The reclamation half of the lifecycle (freeing parameters whose last
//! plan retired) lives in the ref-counted
//! [`crate::object_store::ObjectStore`]; see `retain_plan`/`release_plan`.

use crate::runtime::PlanId;
use parking_lot::{Condvar, Mutex, RwLock};
use pretzel_data::{DataError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// [`PlanGate::state`] flag: the plan was retired.
const RETIRED: usize = 0b01;
/// [`PlanGate::state`] flag: the fault policy closed the gate.
const QUARANTINED: usize = 0b10;
/// One in-flight submission in [`PlanGate::state`] (the count sits above
/// the two flag bits).
const ONE_PASS: usize = 0b100;

/// Admission gate and in-flight counter of one deployed plan.
///
/// The gate is the drain mechanism behind `undeploy`: submissions `enter`
/// (failing fast once retired) and hold the returned [`GatePass`] until the
/// work completes; `retire` + [`PlanGate::wait_drained`] gives the caller a
/// point in time after which no execution can touch the plan.
///
/// Flags and count share one atomic word, so admitting a submission and
/// letting it go are one read-modify-write each. The mutex and condition
/// variable serve only the drain wait. An inline (request-response) call
/// takes no pass: it checks the flags ([`PlanGate::admits`]) under the
/// runtime's registry read lock and holds that lock until it has its
/// score, and reclamation needs the lock for writing.
#[derive(Debug)]
pub struct PlanGate {
    /// `in_flight << 2 | QUARANTINED | RETIRED`.
    state: AtomicUsize,
    drain_lock: Mutex<()>,
    drained: Condvar,
}

impl PlanGate {
    /// Creates an open gate with nothing in flight.
    pub fn new() -> Arc<Self> {
        Arc::new(PlanGate {
            state: AtomicUsize::new(0),
            drain_lock: Mutex::new(()),
            drained: Condvar::new(),
        })
    }

    /// Admits one submission, or rejects it with
    /// [`DataError::PlanRetired`] once the plan was retired (or
    /// [`DataError::PlanQuarantined`] once the fault policy closed the
    /// gate). The returned pass decrements the in-flight count when dropped.
    pub fn enter(self: &Arc<Self>, id: PlanId) -> Result<GatePass> {
        // Flags are checked and the count raised in one exchange, so a
        // pass is never issued after `retire` returned: `SeqCst` on every
        // access to `state` gives retire, enter and the drain wait one
        // order to agree on.
        let mut state = self.state.load(Ordering::SeqCst);
        loop {
            if state & RETIRED != 0 {
                return Err(DataError::PlanRetired(id));
            }
            if state & QUARANTINED != 0 {
                return Err(DataError::PlanQuarantined(id));
            }
            match self.state.compare_exchange_weak(
                state,
                state + ONE_PASS,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Ok(GatePass {
                        gate: Arc::clone(self),
                    })
                }
                Err(now) => state = now,
            }
        }
    }

    /// [`Self::enter`]'s verdict without a pass: `Ok` while the gate is
    /// open, else the error `enter` would return.
    pub fn admits(&self, id: PlanId) -> Result<()> {
        let state = self.state.load(Ordering::SeqCst);
        if state & RETIRED != 0 {
            Err(DataError::PlanRetired(id))
        } else if state & QUARANTINED != 0 {
            Err(DataError::PlanQuarantined(id))
        } else {
            Ok(())
        }
    }

    /// Marks the plan retired; returns `true` on the first retire (the
    /// caller that wins owns the teardown), `false` if already retired.
    pub fn retire(&self) -> bool {
        self.state.fetch_or(RETIRED, Ordering::SeqCst) & RETIRED == 0
    }

    /// Closes the gate to new submissions after the fault policy tripped;
    /// in-flight work completes normally (the quarantine boundary is
    /// admission, not execution). Returns `true` on the first call (that
    /// caller owns the recovery action — alias rollback), `false` if the
    /// plan was already quarantined.
    pub fn quarantine(&self) -> bool {
        self.state.fetch_or(QUARANTINED, Ordering::SeqCst) & QUARANTINED == 0
    }

    /// Blocks until every admitted submission has completed.
    pub fn wait_drained(&self) {
        let mut g = self.drain_lock.lock();
        while self.in_flight() > 0 {
            self.drained.wait(&mut g);
        }
    }

    /// True once [`Self::retire`] ran.
    pub fn is_retired(&self) -> bool {
        self.state.load(Ordering::SeqCst) & RETIRED != 0
    }

    /// True once [`Self::quarantine`] ran.
    pub fn is_quarantined(&self) -> bool {
        self.state.load(Ordering::SeqCst) & QUARANTINED != 0
    }

    /// Number of submissions currently holding a pass.
    pub fn in_flight(&self) -> usize {
        self.state.load(Ordering::SeqCst) / ONE_PASS
    }
}

/// One admitted submission's hold on its plan: keeps `undeploy` from
/// completing until this work finishes. Dropped by the request-response
/// engine at return, and by the scheduler when a batch's last chunk
/// completes.
#[derive(Debug)]
pub struct GatePass {
    gate: Arc<PlanGate>,
}

impl Drop for GatePass {
    fn drop(&mut self) {
        let before = self.gate.state.fetch_sub(ONE_PASS, Ordering::SeqCst);
        // Only a drain wait cares, and it starts after `retire`. Taking the
        // lock before notifying closes the window between the waiter's
        // check of the count and its wait.
        if before / ONE_PASS == 1 && before & RETIRED != 0 {
            let _g = self.gate.drain_lock.lock();
            self.gate.drained.notify_all();
        }
    }
}

/// Named serving endpoints: alias → version history of deployed plans.
///
/// Each alias keeps a **version stack** — the top is the current binding,
/// deeper entries are previous live-at-the-time versions. `repoint` (the
/// `swap` primitive) pushes under the write lock, so concurrent resolvers
/// see either the old or the new version — never neither — and `rollback`
/// pops back to version *k−1* with the same single-pointer-flip cost. The
/// history is what makes fault-driven recovery a control-plane no-op: when
/// the fault policy quarantines the current version, the previous one is
/// one pop away.
#[derive(Debug, Default)]
pub struct AliasMap {
    inner: RwLock<HashMap<String, Vec<PlanId>>>,
}

impl AliasMap {
    /// Creates an empty alias map.
    pub fn new() -> Self {
        AliasMap::default()
    }

    /// Resolves an alias to its current plan, if bound.
    pub fn resolve(&self, alias: &str) -> Option<PlanId> {
        self.inner.read().get(alias).and_then(|v| v.last().copied())
    }

    /// Atomically repoints `alias` to `id`, returning the previous binding.
    /// The previous version stays in the alias's history so a later
    /// `rollback` can restore it. Re-pointing at a version already in the
    /// history moves it to the top instead of duplicating it, so swap
    /// churn between two versions cannot grow the stack unboundedly.
    pub fn repoint(&self, alias: &str, id: PlanId) -> Option<PlanId> {
        let mut inner = self.inner.write();
        let stack = inner.entry(alias.to_string()).or_default();
        let prev = stack.last().copied();
        if prev != Some(id) {
            stack.retain(|&v| v != id);
            stack.push(id);
        }
        prev
    }

    /// Pops `alias` back to its previous version (manual operator
    /// rollback). Returns the new current version, or `None` when the
    /// alias is unbound or has no history to roll back to.
    pub fn rollback(&self, alias: &str) -> Option<PlanId> {
        let mut inner = self.inner.write();
        let stack = inner.get_mut(alias)?;
        if stack.len() < 2 {
            return None;
        }
        stack.pop();
        stack.last().copied()
    }

    /// Rolls `alias` back to the most recent *previous* version for which
    /// `live` holds, discarding any dead versions in between (automatic
    /// fault recovery: retired versions may still sit in the history).
    /// Leaves the stack untouched and returns `None` when no live
    /// predecessor exists.
    pub fn rollback_until(&self, alias: &str, live: impl Fn(PlanId) -> bool) -> Option<PlanId> {
        let mut inner = self.inner.write();
        let stack = inner.get_mut(alias)?;
        let top = stack.len().checked_sub(1)?;
        let pos = stack[..top].iter().rposition(|&v| live(v))?;
        stack.truncate(pos + 1);
        stack.last().copied()
    }

    /// Removes `id` from every alias's history (undeploy cleanup). An
    /// alias whose *current* version was `id` falls back to its previous
    /// version; an alias left with an empty history is unbound. Returns
    /// how many aliases were affected.
    pub fn drop_plan(&self, id: PlanId) -> usize {
        let mut inner = self.inner.write();
        let mut affected = 0;
        inner.retain(|_, stack| {
            let before = stack.len();
            stack.retain(|&v| v != id);
            if stack.len() != before {
                affected += 1;
            }
            !stack.is_empty()
        });
        affected
    }

    /// All current bindings, sorted by alias (admin LIST payload).
    pub fn snapshot(&self) -> Vec<(String, PlanId)> {
        let mut all: Vec<(String, PlanId)> = self
            .inner
            .read()
            .iter()
            .filter_map(|(a, stack)| stack.last().map(|&id| (a.clone(), id)))
            .collect();
        all.sort();
        all
    }

    /// The full version history of `alias`, oldest first (top of stack —
    /// the current version — last). Empty when unbound.
    pub fn history(&self, alias: &str) -> Vec<PlanId> {
        self.inner.read().get(alias).cloned().unwrap_or_default()
    }

    /// Number of bound aliases.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True if no alias is bound.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

/// Options for [`crate::runtime::Runtime::deploy`].
#[derive(Debug, Clone, Default)]
pub struct DeployOptions {
    /// Bind (or repoint) this alias to the new plan on success.
    pub alias: Option<String>,
    /// Reserve a dedicated executor + pool for the plan (paper §4.2.2).
    pub reserved: bool,
}

/// What an `undeploy` reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndeployReport {
    /// Parameter heap bytes freed from the Object Store (objects whose
    /// plan refcount hit zero).
    pub freed_param_bytes: usize,
    /// Parameter objects freed from the Object Store.
    pub freed_params: usize,
    /// Physical stages garbage-collected from the runtime catalog.
    pub dropped_stages: usize,
    /// Aliases that pointed at the plan and were unbound.
    pub dropped_aliases: usize,
}

/// One row of the admin `LIST` view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInfo {
    /// The plan id.
    pub id: PlanId,
    /// True once the plan was undeployed (tombstone: lookups keep failing
    /// with a clean [`DataError::PlanRetired`] instead of [`DataError::UnknownPlan`]).
    pub retired: bool,
    /// True once the fault policy closed the plan's gate (too many
    /// execution faults inside the sliding window).
    pub quarantined: bool,
    /// Submissions currently holding a gate pass.
    pub in_flight: usize,
    /// Aliases currently bound to this plan, sorted.
    pub aliases: Vec<String>,
}

/// Monotonic churn counters (benchmarks and the admin surface read these).
#[derive(Debug, Default)]
pub struct LifecycleStats {
    deploys: AtomicU64,
    undeploys: AtomicU64,
    swaps: AtomicU64,
    stages_reused: AtomicU64,
}

impl LifecycleStats {
    /// Records one completed deploy.
    pub fn note_deploy(&self) {
        self.deploys.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed undeploy.
    pub fn note_undeploy(&self) {
        self.undeploys.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed alias swap.
    pub fn note_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` physical stages a compile served from catalog residency
    /// (a stage another live plan already deployed) instead of rebuilding.
    pub fn note_stages_reused(&self, n: u64) {
        self.stages_reused.fetch_add(n, Ordering::Relaxed);
    }

    /// Physical stages served from catalog residency at compile time.
    pub fn stages_reused(&self) -> u64 {
        self.stages_reused.load(Ordering::Relaxed)
    }

    /// `(deploys, undeploys, swaps)` so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.deploys.load(Ordering::Relaxed),
            self.undeploys.load(Ordering::Relaxed),
            self.swaps.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_until_retired() {
        let gate = PlanGate::new();
        let pass = gate.enter(7).unwrap();
        assert_eq!(gate.in_flight(), 1);
        assert!(gate.retire(), "first retire wins");
        assert!(!gate.retire(), "second retire loses");
        let err = gate.enter(7).unwrap_err();
        assert!(matches!(err, DataError::PlanRetired(7)));
        drop(pass);
        assert_eq!(gate.in_flight(), 0);
        gate.wait_drained(); // returns immediately
    }

    #[test]
    // Real time, so that the waiter is parked when the pass drops.
    #[allow(clippy::disallowed_methods)]
    fn wait_drained_blocks_until_passes_drop() {
        let gate = PlanGate::new();
        let pass = gate.enter(1).unwrap();
        gate.retire();
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            g2.wait_drained();
            std::time::Instant::now()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let released_at = std::time::Instant::now();
        drop(pass);
        let drained_at = waiter.join().unwrap();
        assert!(drained_at >= released_at, "drain must wait for the pass");
    }

    #[test]
    fn alias_repoint_is_atomic_flip() {
        let aliases = AliasMap::new();
        assert!(aliases.resolve("sentiment").is_none());
        assert_eq!(aliases.repoint("sentiment", 3), None);
        assert_eq!(aliases.repoint("sentiment", 4), Some(3));
        assert_eq!(aliases.resolve("sentiment"), Some(4));
        aliases.repoint("other", 4);
        assert_eq!(aliases.drop_plan(4), 2);
        // "sentiment" falls back to its history; "other" had none and is
        // unbound.
        assert_eq!(aliases.resolve("sentiment"), Some(3));
        assert!(aliases.resolve("other").is_none());
        assert_eq!(aliases.drop_plan(3), 1);
        assert!(aliases.is_empty());
    }

    #[test]
    fn alias_history_pushes_on_swap_and_pops_on_rollback() {
        let aliases = AliasMap::new();
        aliases.repoint("m", 1);
        aliases.repoint("m", 2);
        aliases.repoint("m", 3);
        assert_eq!(aliases.history("m"), vec![1, 2, 3]);
        assert_eq!(aliases.rollback("m"), Some(2));
        assert_eq!(aliases.resolve("m"), Some(2));
        assert_eq!(aliases.rollback("m"), Some(1));
        assert_eq!(aliases.rollback("m"), None, "no history left");
        assert_eq!(aliases.resolve("m"), Some(1), "last version stays bound");
        assert_eq!(aliases.rollback("ghost"), None, "unbound alias");
    }

    #[test]
    fn alias_swap_churn_between_two_versions_does_not_grow_history() {
        let aliases = AliasMap::new();
        for _ in 0..100 {
            aliases.repoint("m", 1);
            aliases.repoint("m", 2);
        }
        assert_eq!(aliases.history("m"), vec![1, 2]);
        // Re-pointing at the current version is a no-op.
        assert_eq!(aliases.repoint("m", 2), Some(2));
        assert_eq!(aliases.history("m"), vec![1, 2]);
    }

    #[test]
    fn rollback_until_skips_dead_versions() {
        let aliases = AliasMap::new();
        aliases.repoint("m", 1);
        aliases.repoint("m", 2);
        aliases.repoint("m", 3);
        aliases.repoint("m", 4);
        // 2 and 3 are dead; auto-rollback from 4 must land on 1.
        assert_eq!(aliases.rollback_until("m", |id| id == 1), Some(1));
        assert_eq!(aliases.resolve("m"), Some(1));
        assert_eq!(aliases.history("m"), vec![1]);
        // No live predecessor: the stack is untouched.
        assert_eq!(aliases.rollback_until("m", |_| false), None);
        assert_eq!(aliases.resolve("m"), Some(1));
    }

    #[test]
    fn quarantine_closes_gate_but_lets_in_flight_finish() {
        let gate = PlanGate::new();
        let pass = gate.enter(9).unwrap();
        assert!(gate.quarantine(), "first quarantine wins");
        assert!(!gate.quarantine(), "second quarantine loses");
        assert!(gate.is_quarantined());
        assert!(!gate.is_retired());
        let err = gate.enter(9).unwrap_err();
        assert!(matches!(err, DataError::PlanQuarantined(9)));
        assert_eq!(gate.in_flight(), 1, "in-flight pass unaffected");
        drop(pass);
        gate.wait_drained();
    }

    #[test]
    fn stats_count() {
        let s = LifecycleStats::default();
        s.note_deploy();
        s.note_deploy();
        s.note_undeploy();
        s.note_swap();
        assert_eq!(s.counts(), (2, 1, 1));
    }
}
