//! The DPCP-p locking protocol (Sec. III).
//!
//! This module captures the protocol's *decision logic* — priority
//! ceilings, processor ceilings and the grant rule — as small, reusable
//! pieces. The discrete-event simulator (`dpcp-sim`) drives its queue
//! machinery through these types, so the protocol rules live in exactly
//! one place.
//!
//! # The locking rules (Sec. III-C)
//!
//! When a vertex `v_{i,x}` issues a request `<_{i,q}` for `ℓ_q` at time `t`:
//!
//! 1. **Rule 1** — `ℓ_q` local and locked: `v_{i,x}` suspends into `SQ_i`.
//! 2. **Rule 2** — `ℓ_q` local and free: `v_{i,x}` locks it and joins
//!    `RQ^L_i` (ready, scheduled ahead of `RQ^N_i`).
//! 3. **Rule 3** — `ℓ_q` global on `℘_k`: `v_{i,x}` suspends into `SQ_i`;
//!    the request tries to lock `ℓ_q` under the priority-ceiling test. If
//!    granted it joins `RQ^G_k` (priority order); otherwise it waits in
//!    `SQ^G_k`.
//! 4. **Rule 4** — on completion the request unlocks `ℓ_q`, leaves `RQ^G_k`
//!    (if global) and `v_{i,x}` re-joins `RQ^N_i`.
//!
//! The grant test is the classic DPCP ceiling rule: a request with
//! effective priority `π^H + π_i` is granted at `t` only if it exceeds the
//! processor ceiling `Π^℘_k(t)` — the maximum ceiling among the locked
//! global resources assigned to `℘_k`.

use dpcp_model::{EffectivePriority, Priority, ResourceId, TaskSet};
use serde::{Deserialize, Serialize};

/// The priority ceilings `Π_q` of every resource in a task set, as computed
/// from the *current* priority assignment.
///
/// Only global resources participate in the ceiling mechanism; local
/// resources are accessed by a single task and need no ceiling. Ceilings of
/// unused resources are `None`.
///
/// # Examples
///
/// ```
/// use dpcp_core::protocol::CeilingTable;
/// use dpcp_model::fig1;
///
/// let tasks = fig1::task_set()?;
/// let ceilings = CeilingTable::new(&tasks);
/// // ℓ1 is shared by both tasks: its ceiling is the higher base priority.
/// let top = tasks.tasks().iter().map(|t| t.priority()).max().unwrap();
/// assert_eq!(ceilings.ceiling(fig1::GLOBAL_RESOURCE).map(|c| c.base()), Some(top));
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CeilingTable {
    ceilings: Vec<Option<EffectivePriority>>,
}

impl CeilingTable {
    /// Computes `Π_q = π^H + max_{τ_j ∈ τ(ℓ_q)} π_j` for every resource.
    pub fn new(tasks: &TaskSet) -> Self {
        let ceilings = tasks
            .resources()
            .map(|q| tasks.ceiling(q).map(EffectivePriority::boost))
            .collect();
        CeilingTable { ceilings }
    }

    /// The ceiling of `ℓ_q`, or `None` when no task uses it.
    pub fn ceiling(&self, resource: ResourceId) -> Option<EffectivePriority> {
        self.ceilings.get(resource.index()).copied().flatten()
    }

    /// Number of resources covered.
    pub fn len(&self) -> usize {
        self.ceilings.len()
    }

    /// `true` when the table covers no resources.
    pub fn is_empty(&self) -> bool {
        self.ceilings.is_empty()
    }
}

/// The effective priority `π^E_i = π^H + π_i` of a global-resource request
/// issued by a job with base priority `base`.
#[inline]
pub fn effective_priority(base: Priority) -> EffectivePriority {
    EffectivePriority::boost(base)
}

/// Tracks the processor ceiling `Π^℘_k(t)` of one processor: the maximum
/// priority ceiling among the global resources assigned to `℘_k` that are
/// locked at time `t`.
///
/// The tracker is a multiset because several resources with equal ceilings
/// can be locked simultaneously on one processor.
///
/// # Examples
///
/// ```
/// use dpcp_core::protocol::{effective_priority, ProcessorCeiling};
/// use dpcp_model::{EffectivePriority, Priority};
///
/// let mut pc = ProcessorCeiling::new();
/// let lo = effective_priority(Priority::new(1));
/// let hi = effective_priority(Priority::new(9));
///
/// // Free processor: anything is granted.
/// assert!(pc.admits(lo));
/// pc.lock(lo);
/// // Only requests above the ceiling get in now.
/// assert!(!pc.admits(lo));
/// assert!(pc.admits(hi));
/// pc.unlock(lo);
/// assert!(pc.admits(lo));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorCeiling {
    /// Locked ceilings, kept sorted ascending; the current processor
    /// ceiling is the last element.
    locked: Vec<EffectivePriority>,
}

impl ProcessorCeiling {
    /// Creates a tracker with no locked resources.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current processor ceiling `Π^℘_k(t)`, or `None` when no global
    /// resource on the processor is locked.
    pub fn current(&self) -> Option<EffectivePriority> {
        self.locked.last().copied()
    }

    /// The DPCP grant test: `π^E > Π^℘_k(t)`, vacuously true when nothing
    /// is locked.
    pub fn admits(&self, request: EffectivePriority) -> bool {
        match self.current() {
            Some(ceiling) => request > ceiling,
            None => true,
        }
    }

    /// Records that a resource with ceiling `c` became locked.
    pub fn lock(&mut self, c: EffectivePriority) {
        let pos = self.locked.partition_point(|&x| x <= c);
        self.locked.insert(pos, c);
    }

    /// Records that a resource with ceiling `c` was unlocked.
    ///
    /// # Panics
    ///
    /// Panics if no resource with ceiling `c` is currently locked — that
    /// would mean the caller's lock bookkeeping is corrupt.
    pub fn unlock(&mut self, c: EffectivePriority) {
        let pos = self
            .locked
            .binary_search(&c)
            .expect("unlock of a ceiling that was never locked");
        self.locked.remove(pos);
    }

    /// Number of currently locked resources on the processor.
    pub fn locked_count(&self) -> usize {
        self.locked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::fig1;

    #[test]
    fn ceiling_table_from_fig1() {
        let ts = fig1::task_set().unwrap();
        let table = CeilingTable::new(&ts);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Global ℓ1's ceiling is the max priority of its two users.
        let expected = ts.tasks().iter().map(|t| t.priority()).max().unwrap();
        assert_eq!(
            table.ceiling(fig1::GLOBAL_RESOURCE),
            Some(EffectivePriority::boost(expected))
        );
        // ℓ2 is used only by τ_i; ceilings exist for any used resource.
        assert!(table.ceiling(fig1::LOCAL_RESOURCE).is_some());
    }

    #[test]
    fn ceiling_of_unused_resource_is_none() {
        let ts = fig1::task_set().unwrap();
        let table = CeilingTable::new(&ts);
        assert_eq!(table.ceiling(ResourceId::new(99)), None);
    }

    #[test]
    fn processor_ceiling_is_max_of_locked() {
        let mut pc = ProcessorCeiling::new();
        let c = |p: u32| effective_priority(Priority::new(p));
        assert_eq!(pc.current(), None);
        pc.lock(c(3));
        pc.lock(c(7));
        pc.lock(c(5));
        assert_eq!(pc.current(), Some(c(7)));
        assert_eq!(pc.locked_count(), 3);
        pc.unlock(c(7));
        assert_eq!(pc.current(), Some(c(5)));
        pc.unlock(c(3));
        pc.unlock(c(5));
        assert_eq!(pc.current(), None);
    }

    #[test]
    fn duplicate_ceilings_are_tracked_as_multiset() {
        let mut pc = ProcessorCeiling::new();
        let c = effective_priority(Priority::new(4));
        pc.lock(c);
        pc.lock(c);
        pc.unlock(c);
        // One instance remains locked.
        assert_eq!(pc.current(), Some(c));
        pc.unlock(c);
        assert_eq!(pc.current(), None);
    }

    #[test]
    #[should_panic(expected = "never locked")]
    fn unlock_without_lock_panics() {
        let mut pc = ProcessorCeiling::new();
        pc.unlock(effective_priority(Priority::new(1)));
    }

    #[test]
    fn grant_test_is_strict() {
        let mut pc = ProcessorCeiling::new();
        let four = effective_priority(Priority::new(4));
        let five = effective_priority(Priority::new(5));
        pc.lock(four);
        // Equal priority is refused — strict exceedance required.
        assert!(!pc.admits(four));
        assert!(pc.admits(five));
    }

    /// The scenario from Lemma 1's proof: once a request `<_{i,q}` is
    /// pending (its ceiling-raising lower-priority blocker holds a resource
    /// with ceiling ≥ π^H + π_i), no *second* lower-priority request can be
    /// granted on the processor.
    #[test]
    fn lemma1_no_second_lower_priority_grant() {
        let mut pc = ProcessorCeiling::new();
        let pi_i = Priority::new(5);
        let pi_a = Priority::new(2); // lower-priority blocker A
        let pi_b = Priority::new(3); // lower-priority would-be blocker B

        // A holds ℓ_u whose ceiling is ≥ π^H + π_i (τ_i uses ℓ_u too).
        let ceiling_u = effective_priority(pi_i);
        pc.lock(ceiling_u);

        // <_{i,q} arrives and is refused (processor ceiling = π^H + π_i,
        // request priority π^H + π_i is not strictly greater).
        assert!(!pc.admits(effective_priority(pi_i)));

        // While A is still in, B (π_b < π_i) can never pass the ceiling.
        assert!(!pc.admits(effective_priority(pi_b)));
        assert!(!pc.admits(effective_priority(pi_a)));

        // Only after A unlocks can anyone else get in — and then the
        // highest-priority pending request (τ_i's) wins by queue order.
        pc.unlock(ceiling_u);
        assert!(pc.admits(effective_priority(pi_i)));
    }

    use dpcp_model::ResourceId;
}
