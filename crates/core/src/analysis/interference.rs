//! Interference bounds: intra-task interference `I^intra_i` (Lemma 5) and
//! agent interference `I^A_i` (Lemma 6, Eqs. 8–9).
//!
//! Each signature-dependent bound exists in two forms: the direct scan over
//! the task (the reference implementation the equations map onto) and a
//! `*_counts` variant over the pre-gathered lists of the per-task
//! [`DemandTables`] and a dense request-count row. The `*_counts` variants
//! return bit-identical values and are what the batched solver uses.

use dpcp_model::{PathSignature, TaskId, Time};

use super::context::AnalysisContext;
use super::demand::DemandTables;

/// Intra-task interference `I^intra_i` (Lemma 5): the non-critical WCET of
/// vertices off the path plus their local-resource critical sections:
///
/// `I^intra_i ≤ Σ_{v ∉ λ} C'_{i,x} + Σ_{q ∈ Φ^L} (N_{i,q} − N^λ_q) · L_{i,q}`.
///
/// Off-path non-critical work is `C'_i` minus the path's non-critical
/// length, which the signature carries.
pub fn intra_task_interference(ctx: &AnalysisContext<'_>, i: TaskId, sig: &PathSignature) -> Time {
    let task = ctx.task(i);
    let off_path_noncrit = task
        .noncritical_wcet()
        .saturating_sub(sig.noncritical_len());
    let mut local_cs = Time::ZERO;
    for q in task.resources() {
        if ctx.tasks.is_global(q) {
            continue;
        }
        let off_path = task.total_requests(q) - sig.request_count(q).min(task.total_requests(q));
        if off_path > 0 {
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            local_cs = local_cs.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }
    off_path_noncrit.saturating_add(local_cs)
}

/// [`intra_task_interference`] over the pre-gathered per-task lists of the
/// demand tables (no per-signature `BTreeMap` lookups, no `C'_i`
/// recomputation) and a dense per-resource count row (`counts[q] =
/// N^λ_{i,q}`) plus the signature's non-critical path length — the batched
/// solver's scatter buffer replaces the per-entry binary search;
/// bit-identical by the scatter invariant.
pub(crate) fn intra_task_interference_counts(
    tables: &DemandTables,
    noncritical_len: Time,
    counts: &[u32],
) -> Time {
    let off_path_noncrit = tables.noncritical_wcet().saturating_sub(noncritical_len);
    let mut local_cs = Time::ZERO;
    for &(q, n, len) in tables.local_resources() {
        let off_path = n - counts[q.index()].min(n);
        if off_path > 0 {
            local_cs = local_cs.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }
    off_path_noncrit.saturating_add(local_cs)
}

/// Term-wise worst case of Lemma 5 for the EN variant: all of `C'_i` plus
/// every local critical section (`N^λ_q = 0`).
pub fn intra_task_interference_en(ctx: &AnalysisContext<'_>, i: TaskId) -> Time {
    let task = ctx.task(i);
    let mut local_cs = Time::ZERO;
    for q in task.resources() {
        if ctx.tasks.is_global(q) {
            continue;
        }
        local_cs = local_cs.saturating_add(task.cs_demand(q));
    }
    task.noncritical_wcet().saturating_add(local_cs)
}

/// The signature-dependent, window-independent part of the agent
/// interference (Eq. 9): `Σ_{q ∈ Φ^G ∩ Φ^℘(τ_i)} (N_{i,q} − N^λ_q) · L_{i,q}`
/// — agents running on the task's own cluster on behalf of off-path
/// vertices.
pub fn agent_interference_own(ctx: &AnalysisContext<'_>, i: TaskId, sig: &PathSignature) -> Time {
    let task = ctx.task(i);
    let mut total = Time::ZERO;
    for q in ctx.resources_on_cluster(i) {
        let n = task.total_requests(q);
        if n == 0 {
            continue;
        }
        let off_path = n - sig.request_count(q).min(n);
        if off_path > 0 {
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            total = total.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }
    total
}

/// [`agent_interference_own`] over the pre-gathered cluster-resource list
/// of the demand tables (no re-walk of the cluster's processors per
/// signature) and a dense per-resource count row (`counts[q] =
/// N^λ_{i,q}`) — see [`intra_task_interference_counts`].
pub(crate) fn agent_interference_own_counts(tables: &DemandTables, counts: &[u32]) -> Time {
    let mut total = Time::ZERO;
    for &(q, n, len) in tables.own_cluster() {
        let off_path = n - counts[q.index()].min(n);
        if off_path > 0 {
            total = total.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }
    total
}

/// Term-wise worst case of Eq. (9) for the EN variant (`N^λ_q = 0`).
pub fn agent_interference_own_en(ctx: &AnalysisContext<'_>, i: TaskId) -> Time {
    let task = ctx.task(i);
    ctx.resources_on_cluster(i).map(|q| task.cs_demand(q)).sum()
}

/// The window-dependent part of the agent interference (Eq. 8): other
/// tasks' agent workload on `τ_i`'s cluster within a window of length `r`:
/// `Σ_{q ∈ Φ^G ∩ Φ^℘(τ_i)} Σ_{τ_j ≠ τ_i} η_j(r) · N_{j,q} · L_{j,q}`.
///
/// This is the direct scan; the solver reads the same value from the
/// per-task demand table via [`DemandTables::agent_at`].
pub fn agent_interference_others(ctx: &AnalysisContext<'_>, i: TaskId, r: Time) -> Time {
    let mut total = Time::ZERO;
    for j in ctx.tasks.iter() {
        if j.id() == i {
            continue;
        }
        let demand = ctx.cluster_cs_demand(j.id(), i);
        if !demand.is_zero() {
            total = total.saturating_add(demand.saturating_mul(ctx.eta(j.id(), r)));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{enumerate_signatures, fig1, PathSignature, VertexId};

    fn fig1_setup() -> (dpcp_model::Partition, dpcp_model::TaskSet) {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        (part, ts)
    }

    #[test]
    fn intra_interference_subtracts_path_share() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let ti = ts.task(dpcp_model::TaskId::new(0));
        let v = VertexId::new;
        // Longest path (v1, v5, v7, v8): all non-critical, length 10u.
        // C'_i = 19 − (3 + 2·2) = 12u. Off-path non-critical = 12 − 10 = 2u
        // (v2 is fully critical, v3/v4 fully critical, v6 is 2u... v6 IS on
        // no... v6 is off-path and non-critical: 2u. v2,v3,v4 contribute 0.)
        // Local ℓ2: path has no requests ⇒ off-path 2·2u = 4u.
        let sig = PathSignature::from_path(ti, &[v(0), v(4), v(6), v(7)]);
        assert_eq!(
            intra_task_interference(&ctx, dpcp_model::TaskId::new(0), &sig),
            fig1::unit() * 6
        );
    }

    #[test]
    fn en_interference_dominates_every_path() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let i = dpcp_model::TaskId::new(0);
        let en = intra_task_interference_en(&ctx, i);
        for sig in enumerate_signatures(ts.task(i), 64).signatures {
            assert!(en >= intra_task_interference(&ctx, i, &sig));
        }
        // C'_i (12u) + local demand (4u).
        assert_eq!(en, fig1::unit() * 16);
    }

    #[test]
    fn agent_interference_own_counts_cluster_agents_only() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        // ℓ1's agent lives on τ_j's cluster: τ_i (tasks[0]) has no agents on
        // its own cluster.
        let ti = ts.task(dpcp_model::TaskId::new(0));
        let sig = PathSignature::from_path(ti, ti.longest_path());
        assert_eq!(
            agent_interference_own(&ctx, dpcp_model::TaskId::new(0), &sig),
            Time::ZERO
        );
        // τ_j hosts the agent. Its longest path avoids v3 (the requesting
        // vertex), so its own off-path agent work is 1·3u.
        let tj = ts.task(dpcp_model::TaskId::new(1));
        let sigj = PathSignature::from_path(tj, tj.longest_path());
        assert_eq!(
            agent_interference_own(&ctx, dpcp_model::TaskId::new(1), &sigj),
            fig1::unit() * 3
        );
        assert_eq!(
            agent_interference_own_en(&ctx, dpcp_model::TaskId::new(1)),
            fig1::unit() * 3
        );
    }

    #[test]
    fn agent_interference_others_is_windowed() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        // τ_j's cluster hosts ℓ1: τ_i's jobs put η_i(r)·3u of agent work
        // there. r = 10u ⇒ η = ⌈30/20⌉ = 2 ⇒ 6u.
        assert_eq!(
            agent_interference_others(&ctx, dpcp_model::TaskId::new(1), fig1::unit() * 10),
            fig1::unit() * 6
        );
        // τ_i's cluster hosts nothing.
        assert_eq!(
            agent_interference_others(&ctx, dpcp_model::TaskId::new(0), fig1::unit() * 10),
            Time::ZERO
        );
    }
}
