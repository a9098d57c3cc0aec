//! Per-processor demand **prefix tables keyed by η** — the data structure
//! behind the batched Theorem 1 solver and the light-task analysis.
//!
//! Every window-dependent term of the analysis is a sum of the shape
//! `Σ_j η_j(r) · d_j` over a fixed set of tasks with fixed per-processor
//! demands `d_j`:
//!
//! - `ζ^k_i(r)` (Eq. 5) — other tasks' global critical-section workload on
//!   processor `℘_k`,
//! - the agent interference of Eq. 8 — other tasks' agent workload on
//!   `τ_i`'s own cluster,
//! - `γ_{i,q}(L)` (Eq. 2) — higher-priority demand on `ℓ_q`'s home
//!   processor inside the request recurrences `W_{i,q}`.
//!
//! Because `η_j(r) = ⌈(r + R_j)/T_j⌉` is a step function of the window
//! length, each of these sums is piecewise constant in `r`: it only changes
//! at the finitely many window lengths where some `η_j` gains a job. A
//! [`DemandStepTable`] materializes one such sum as a sorted prefix table
//! `(r_break, value)` — built **once per task** — so every fixed-point
//! iterate reads the demand with a binary search instead of rescanning all
//! tasks and processors.
//!
//! Bit-identity with the direct scans is by construction: the table stores
//! the value of the *original* scan function evaluated at each breakpoint,
//! so a lookup returns exactly what the scan would have returned (the
//! breakpoint set is exhaustive: between two consecutive breakpoints no
//! `η_j` of a contributing task changes). Degenerate workloads whose
//! breakpoint count would exceed [`MAX_TABLE_STEPS`] fall back to the scan
//! transparently.

use dpcp_model::{eta_jobs, ProcessorId, ResourceId, TaskId, Time};

use super::context::AnalysisContext;
use super::interference::agent_interference_others;
use super::request::gamma_on;

/// Breakpoint budget per table. A term contributes ~`D_i/T_j` breakpoints;
/// with the paper's parameter ranges (periods within one order of magnitude
/// of deadlines) real tables hold a few dozen entries. Pathological inputs
/// (tiny periods, huge deadlines) would blow the budget, so past this cap
/// the table is dropped and queries fall back to the direct scan.
pub const MAX_TABLE_STEPS: usize = 4096;

/// One piecewise-constant demand sum `F(r) = Σ_j η_j(r) · d_j`,
/// materialized as a prefix table over its η breakpoints.
///
/// `steps[p] = (r_p, F(r_p))` with `r_0 = 0` and `F` constant on
/// `[r_p, r_{p+1})`; the final entry's value holds for every `r ≥ r_last`
/// up to the build horizon (queries beyond the horizon are out of contract
/// — the solver never exceeds the task's deadline).
#[derive(Debug, Clone, Default)]
pub struct DemandStepTable {
    steps: Vec<(Time, Time)>,
}

impl DemandStepTable {
    /// Builds the table for the window range `[0, horizon]`.
    ///
    /// `terms` yields `(R_j, T_j)` of every task contributing to the sum;
    /// `eval` is the *direct scan* whose values the table memoizes (called
    /// once per breakpoint). Returns `None` when the breakpoint count
    /// exceeds [`MAX_TABLE_STEPS`] — callers then keep using `eval`.
    pub fn build(
        terms: impl Iterator<Item = (Time, Time)>,
        horizon: Time,
        eval: impl Fn(Time) -> Time,
    ) -> Option<DemandStepTable> {
        let mut breaks: Vec<Time> = vec![Time::ZERO];
        for (resp, period) in terms {
            // η_j(r) = ⌈(r + R_j)/T_j⌉ first takes the value c + 1 at
            // r = c·T_j − R_j + 1 (integer nanoseconds), for every
            // c ≥ η_j(0).
            let mut c = eta_jobs(Time::ZERO, resp, period);
            // `checked_mul` failure means the next step lies beyond any
            // representable window.
            while let Some(ct) = period.as_ns().checked_mul(c) {
                // c ≥ ⌈R/T⌉ guarantees c·T ≥ R.
                let r = Time::from_ns(ct - resp.as_ns() + 1);
                if r > horizon {
                    break;
                }
                breaks.push(r);
                if breaks.len() > MAX_TABLE_STEPS {
                    return None;
                }
                c += 1;
            }
        }
        breaks.sort_unstable();
        breaks.dedup();
        let steps: Vec<(Time, Time)> = breaks.into_iter().map(|r| (r, eval(r))).collect();
        debug_assert!(
            steps.windows(2).all(|w| w[0].1 <= w[1].1),
            "demand sums must be non-decreasing in the window length"
        );
        Some(DemandStepTable { steps })
    }

    /// The memoized demand at window length `r` — exactly `eval(r)` of the
    /// build call, for any `r` up to the build horizon.
    #[inline]
    pub fn value_at(&self, r: Time) -> Time {
        let idx = self.steps.partition_point(|&(start, _)| start <= r);
        self.steps[idx - 1].1
    }

    /// The sorted `(breakpoint, value)` pairs (plateau starts).
    #[inline]
    pub fn steps(&self) -> &[(Time, Time)] {
        &self.steps
    }
}

/// All demand tables of one `(context, task)` pair, living inside
/// [`EvalScratch`](super::wcrt::EvalScratch) and rebuilt lazily after
/// [`reset_for_task`](super::wcrt::EvalScratch::reset_for_task).
///
/// The tables are valid while the analysis context (and therefore the
/// response-time bounds `R_j` inside `η_j`) does not change — the same
/// contract as the request-bound memo. Callers that switch task or
/// partition must reset the scratch first; the per-task `ensure` guard
/// only catches task-id changes, not context swaps.
#[derive(Debug, Default)]
pub struct DemandTables {
    prepared: Option<TaskId>,
    /// Eq. 8 agent demand on `τ_i`'s cluster, keyed by η.
    agent: Option<DemandStepTable>,
    /// `ζ^k` per processor hosting global resources, parallel vectors with
    /// `gamma`; `None` entries fall back to the scan.
    zeta: Vec<(ProcessorId, Option<DemandStepTable>)>,
    /// Higher-priority γ demand per resource processor (the window-dependent
    /// part of Lemma 2's request recurrence).
    gamma: Vec<(ProcessorId, Option<DemandStepTable>)>,
    /// `(ℓ_q, N_{i,q}, L_{i,q})` of the global resources homed on `τ_i`'s
    /// own cluster (the signature-dependent Eq. 9 scan, pre-gathered in
    /// cluster iteration order).
    own_cluster: Vec<(ResourceId, u32, Time)>,
    /// `(ℓ_q, N_{i,q}, L_{i,q})` of the task's *local* resources, in
    /// `task.resources()` order (Lemma 4 Eq. 6 and Lemma 5's local term —
    /// pre-gathered so the per-signature scans skip the `BTreeMap`s).
    local_resources: Vec<(ResourceId, u32, Time)>,
    /// Per resource processor (matching Eq. 7's iteration order): the
    /// task-requested global resources hosted there, `(ℓ_q, N_{i,q},
    /// L_{i,q})`. Processors where the task requests nothing are dropped —
    /// they contribute neither to `σ_{i,k}` nor to the sum.
    eq7_lists: Vec<Vec<(ResourceId, u32, Time)>>,
    /// `C'_i` — the task's non-critical WCET (recomputed per call in the
    /// model, constant per task here).
    noncrit: Time,
}

impl DemandTables {
    /// Marks the tables stale; the next [`ensure`](Self::ensure) rebuilds.
    pub fn invalidate(&mut self) {
        self.prepared = None;
    }

    /// Rebuilds the tables when stale or prepared for a different task.
    pub fn ensure(&mut self, ctx: &AnalysisContext<'_>, i: TaskId) {
        if self.prepared == Some(i) {
            return;
        }
        self.build(ctx, i);
        self.prepared = Some(i);
    }

    fn build(&mut self, ctx: &AnalysisContext<'_>, i: TaskId) {
        let horizon = ctx.task(i).deadline();
        let term = |j: TaskId| (ctx.response_bound(j), ctx.tasks.task(j).period());

        // Eq. 8: tasks with agent demand anywhere on τ_i's cluster.
        let agent_terms = ctx
            .tasks
            .iter()
            .filter(|j| j.id() != i && !ctx.cluster_cs_demand(j.id(), i).is_zero())
            .map(|j| term(j.id()));
        self.agent = DemandStepTable::build(agent_terms, horizon, |r| {
            agent_interference_others(ctx, i, r)
        });

        // ζ^k and γ per processor hosting a global resource the task
        // requests — the only processors the solver ever queries (ε entries
        // and `W_{i,q}` homes both derive from the task's own requests);
        // queries for unlisted processors fall back to the scan.
        let task = ctx.task(i);
        let pi_i = task.priority();
        self.zeta.clear();
        self.gamma.clear();
        for &k in ctx.resource_processors() {
            if !ctx
                .resources_on(k)
                .iter()
                .any(|&q| task.total_requests(q) > 0)
            {
                continue;
            }
            let zeta_terms = ctx
                .tasks
                .iter()
                .filter(|j| j.id() != i && !ctx.cs_demand_on(j.id(), k).is_zero())
                .map(|j| term(j.id()));
            let zeta_table = DemandStepTable::build(zeta_terms, horizon, |r| {
                super::blocking::zeta(ctx, i, k, r)
            });
            self.zeta.push((k, zeta_table));

            let gamma_terms = ctx
                .tasks
                .iter()
                .filter(|h| {
                    h.id() != i && h.priority() > pi_i && !ctx.cs_demand_on(h.id(), k).is_zero()
                })
                .map(|h| term(h.id()));
            let gamma_table =
                DemandStepTable::build(gamma_terms, horizon, |w| gamma_on(ctx, i, k, w));
            self.gamma.push((k, gamma_table));
        }

        // Eq. 9 inputs, gathered in the scan's iteration order.
        self.own_cluster.clear();
        for q in ctx.resources_on_cluster(i) {
            let n = task.total_requests(q);
            if n == 0 {
                continue;
            }
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            self.own_cluster.push((q, n, len));
        }

        // Lemma 4/5 inputs: local resources in `task.resources()` order and
        // the Eq. 7 per-processor lists of task-requested globals.
        self.local_resources.clear();
        for q in task.resources() {
            if ctx.tasks.is_global(q) {
                continue;
            }
            let n = task.total_requests(q);
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            self.local_resources.push((q, n, len));
        }
        self.eq7_lists.clear();
        for &k in ctx.resource_processors() {
            let mut list = Vec::new();
            for &q in ctx.resources_on(k) {
                let n = task.total_requests(q);
                if n == 0 {
                    continue;
                }
                let len = task.cs_length(q).unwrap_or(Time::ZERO);
                list.push((q, n, len));
            }
            if !list.is_empty() {
                self.eq7_lists.push(list);
            }
        }
        self.noncrit = task.noncritical_wcet();
    }

    /// `agent_interference_others(ctx, i, r)` via the table (scan fallback).
    #[inline]
    pub fn agent_at(&self, ctx: &AnalysisContext<'_>, i: TaskId, r: Time) -> Time {
        match &self.agent {
            Some(t) => t.value_at(r),
            None => agent_interference_others(ctx, i, r),
        }
    }

    /// `ζ^k_i(r)` via the table for `℘_k` (scan fallback).
    #[inline]
    pub fn zeta_at(&self, ctx: &AnalysisContext<'_>, i: TaskId, k: ProcessorId, r: Time) -> Time {
        match self.zeta.iter().find(|&&(p, _)| p == k) {
            Some((_, Some(t))) => t.value_at(r),
            _ => super::blocking::zeta(ctx, i, k, r),
        }
    }

    /// `γ` demand on processor `k` within a window `w` (scan fallback).
    #[inline]
    pub fn gamma_at(&self, ctx: &AnalysisContext<'_>, i: TaskId, k: ProcessorId, w: Time) -> Time {
        match self.gamma.iter().find(|&&(p, _)| p == k) {
            Some((_, Some(t))) => t.value_at(w),
            _ => gamma_on(ctx, i, k, w),
        }
    }

    /// The pre-gathered `(ℓ_q, N_{i,q}, L_{i,q})` list of Eq. 9.
    #[inline]
    pub fn own_cluster(&self) -> &[(ResourceId, u32, Time)] {
        &self.own_cluster
    }

    /// The task's local resources `(ℓ_q, N_{i,q}, L_{i,q})`, in
    /// `task.resources()` order.
    #[inline]
    pub fn local_resources(&self) -> &[(ResourceId, u32, Time)] {
        &self.local_resources
    }

    /// Eq. 7's per-processor lists of task-requested global resources.
    #[inline]
    pub fn eq7_lists(&self) -> &[Vec<(ResourceId, u32, Time)>] {
        &self.eq7_lists
    }

    /// `C'_i` — the task's non-critical WCET.
    #[inline]
    pub fn noncritical_wcet(&self) -> Time {
        self.noncrit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::blocking::zeta;
    use dpcp_model::fig1;

    #[test]
    fn table_matches_scan_at_every_window() {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        let ctx = AnalysisContext::new(&ts, &part);
        let i = TaskId::new(0);
        let horizon = ts.task(i).deadline();
        let k = ProcessorId::new(1);
        let terms = ts
            .iter()
            .filter(|j| j.id() != i && !ctx.cs_demand_on(j.id(), k).is_zero())
            .map(|j| (ctx.response_bound(j.id()), j.period()));
        let table =
            DemandStepTable::build(terms, horizon, |r| zeta(&ctx, i, k, r)).expect("small table");
        // Exhaustive agreement over the whole horizon at unit granularity.
        let step = fig1::unit().as_ns().max(1) / 4;
        let mut r = 0u64;
        while r <= horizon.as_ns() {
            let t = Time::from_ns(r);
            assert_eq!(table.value_at(t), zeta(&ctx, i, k, t), "window {t}");
            r += step;
        }
        assert!(table.steps().last().is_some_and(|&(r, _)| r <= horizon));
    }

    #[test]
    fn breakpoints_are_exact_eta_steps() {
        // One term: R = 30u, T = 30u ⇒ η(0) = 1, steps at r = c·30u + 1 − 30u.
        let resp = fig1::unit() * 30;
        let period = fig1::unit() * 30;
        let horizon = fig1::unit() * 90;
        let table = DemandStepTable::build(std::iter::once((resp, period)), horizon, |r| {
            Time::from_ns(eta_jobs(r, resp, period))
        })
        .unwrap();
        let steps: Vec<u64> = table.steps().iter().map(|&(r, _)| r.as_ns()).collect();
        let u = fig1::unit().as_ns();
        assert_eq!(steps, vec![0, 1, 30 * u + 1, 60 * u + 1]);
        // Values on each plateau equal η there.
        assert_eq!(table.value_at(Time::ZERO), Time::from_ns(1));
        assert_eq!(table.value_at(Time::from_ns(1)), Time::from_ns(2));
        assert_eq!(table.value_at(Time::from_ns(30 * u)), Time::from_ns(2));
        assert_eq!(table.value_at(Time::from_ns(30 * u + 1)), Time::from_ns(3));
    }

    #[test]
    fn oversized_tables_fall_back() {
        // A 1 ns period against a huge horizon exceeds any step budget.
        let table = DemandStepTable::build(
            std::iter::once((Time::ZERO, Time::from_ns(1))),
            Time::from_ms(1),
            |_| Time::ZERO,
        );
        assert!(table.is_none());
    }

    #[test]
    fn tables_rebuild_only_on_invalidate_or_task_change() {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        let ctx = AnalysisContext::new(&ts, &part);
        let mut tables = DemandTables::default();
        tables.ensure(&ctx, TaskId::new(0));
        let before = tables.prepared;
        tables.ensure(&ctx, TaskId::new(0));
        assert_eq!(tables.prepared, before);
        tables.ensure(&ctx, TaskId::new(1));
        assert_eq!(tables.prepared, Some(TaskId::new(1)));
        tables.invalidate();
        assert_eq!(tables.prepared, None);
    }
}
