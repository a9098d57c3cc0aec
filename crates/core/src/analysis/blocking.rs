//! Blocking bounds: inter-task blocking `B_i` (Lemma 3, Eqs. 4–5) and
//! intra-task blocking `b_i` (Lemma 4, Eqs. 6–7).

use dpcp_model::{PathSignature, ProcessorId, ResourceId, TaskId, Time};

use super::context::AnalysisContext;

/// The per-processor ε accumulator of Eq. (4):
/// `ε^k_i = Σ_{q ∈ Φ^G ∩ Φ(℘_k)} (β_{i,q} + γ_{i,q}(W_{i,q})) · N^λ_{i,q}`.
///
/// Built once per path signature (it does not depend on the response-time
/// iterate `r`); `per_request(q)` must supply the already-computed
/// `β_{i,q} + γ_{i,q}(W_{i,q})` value for each requested global resource.
#[derive(Debug, Clone, Default)]
pub struct EpsilonTable {
    /// `(processor, ε^k)` pairs for processors with non-zero ε.
    entries: Vec<(ProcessorId, Time)>,
}

impl EpsilonTable {
    /// Builds the table from explicit per-resource request counts.
    ///
    /// `path_requests` yields `(ℓ_q, N^λ_{i,q})` for each global resource
    /// the path requests; `per_request(q)` is the per-request blocking
    /// bound `β_{i,q} + γ_{i,q}(W_{i,q})`.
    pub fn new(
        ctx: &AnalysisContext<'_>,
        path_requests: impl IntoIterator<Item = (ResourceId, u32)>,
        per_request: impl Fn(ResourceId) -> Time,
    ) -> Self {
        let mut table = EpsilonTable::default();
        table.rebuild(ctx, path_requests, per_request);
        table
    }

    /// Refills the table in place, reusing its allocation (the EP variant
    /// rebuilds one table per enumerated signature, so the buffer is hoisted
    /// out of that loop via [`EvalScratch`](super::wcrt::EvalScratch)).
    pub fn rebuild(
        &mut self,
        ctx: &AnalysisContext<'_>,
        path_requests: impl IntoIterator<Item = (ResourceId, u32)>,
        per_request: impl Fn(ResourceId) -> Time,
    ) {
        let entries = &mut self.entries;
        entries.clear();
        for (q, n) in path_requests {
            if n == 0 || !ctx.tasks.is_global(q) {
                continue;
            }
            let Some(home) = ctx.home_of(q) else {
                continue;
            };
            let add = per_request(q).saturating_mul(u64::from(n));
            match entries.iter_mut().find(|(p, _)| *p == home) {
                Some((_, e)) => *e = e.saturating_add(add),
                None => entries.push((home, add)),
            }
        }
    }

    /// Iterates over `(℘_k, ε^k)` pairs with non-zero ε.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessorId, Time)> + '_ {
        self.entries.iter().copied()
    }

    /// `true` when the path requests no global resources at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `ζ^k_i(r)` (Eq. 5) — the total global critical-section workload other
/// tasks place on `℘_k` while the analysed path is pending:
/// `Σ_{τ_j ≠ τ_i} η_j(r) · Σ_{q ∈ Φ^G ∩ Φ(℘_k)} N_{j,q} · L_{j,q}`.
pub fn zeta(ctx: &AnalysisContext<'_>, i: TaskId, k: ProcessorId, r: Time) -> Time {
    let mut total = Time::ZERO;
    for j in ctx.tasks.iter() {
        if j.id() == i {
            continue;
        }
        let demand = ctx.cs_demand_on(j.id(), k);
        if !demand.is_zero() {
            total = total.saturating_add(demand.saturating_mul(ctx.eta(j.id(), r)));
        }
    }
    total
}

/// Inter-task blocking `B_i(r) = Σ_{℘_k} min(ε^k_i, ζ^k_i(r))` (Lemma 3).
///
/// Only processors where the path actually requests something contribute
/// (elsewhere `ε^k = 0`, so the min vanishes).
pub fn inter_task_blocking(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    eps: &EpsilonTable,
    r: Time,
) -> Time {
    eps.iter().map(|(k, e)| e.min(zeta(ctx, i, k, r))).sum()
}

/// [`inter_task_blocking`] with `ζ^k` read from the per-task demand
/// tables instead of rescanning the task set — bit-identical, since the
/// tables memoize [`zeta`] at every η breakpoint. This is the form the
/// batched kernel iterates.
pub(crate) fn inter_task_blocking_tabled(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    eps: &EpsilonTable,
    tables: &super::demand::DemandTables,
    r: Time,
) -> Time {
    eps.iter()
        .map(|(k, e)| e.min(tables.zeta_at(ctx, i, k, r)))
        .sum()
}

/// Intra-task blocking `b_i` for a concrete path signature (Lemma 4):
///
/// - local term (Eq. 6): `Σ_{q ∈ Φ^L ∩ Φ(τ_i)} min(1, N^λ_q) ·
///   (N_{i,q} − N^λ_q) · L_{i,q}`,
/// - global term (Eq. 7): `Σ_{℘_k} σ_{i,k} · Σ_{q ∈ Φ(℘_k)}
///   (N_{i,q} − N^λ_q) · L_{i,q}` with `σ_{i,k} = min(1, Σ_u N^λ_{i,u})`.
pub fn intra_task_blocking(ctx: &AnalysisContext<'_>, i: TaskId, sig: &PathSignature) -> Time {
    let task = ctx.task(i);
    let mut total = Time::ZERO;

    // Eq. (6): local resources the path itself uses.
    for q in task.resources() {
        if ctx.tasks.is_global(q) {
            continue;
        }
        let n_path = sig.request_count(q);
        if n_path == 0 {
            continue;
        }
        let off_path = task.total_requests(q) - n_path;
        if off_path > 0 {
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            total = total.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }

    // Eq. (7): processors hosting a global resource the path requests.
    for &k in ctx.resource_processors() {
        let sigma = ctx
            .resources_on(k)
            .iter()
            .any(|&u| sig.request_count(u) > 0);
        if !sigma {
            continue;
        }
        for &q in ctx.resources_on(k) {
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
    }
    total
}

/// [`intra_task_blocking`] over the pre-gathered per-task lists of the
/// demand tables and a dense per-resource count row (`counts[q] =
/// N^λ_{i,q}`, zero where the path requests nothing) — the batched solver
/// scatters each signature's request vector into this row once, replacing
/// the per-signature `BTreeMap` lookups and the per-entry binary search of
/// [`PathSignature::request_count`]. Arithmetic is identical term for
/// term, so the value is bit-identical by the scatter invariant.
pub(crate) fn intra_task_blocking_counts(
    tables: &super::demand::DemandTables,
    counts: &[u32],
) -> Time {
    let mut total = Time::ZERO;

    // Eq. (6): local resources the path itself uses.
    for &(q, n, len) in tables.local_resources() {
        let n_path = counts[q.index()];
        if n_path == 0 {
            continue;
        }
        let off_path = n - n_path;
        if off_path > 0 {
            total = total.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }

    // Eq. (7): processors hosting a global resource the path requests.
    for list in tables.eq7_lists() {
        let sigma = list.iter().any(|&(u, _, _)| counts[u.index()] > 0);
        if !sigma {
            continue;
        }
        for &(q, n, len) in list {
            let off_path = n - counts[q.index()].min(n);
            if off_path > 0 {
                total = total.saturating_add(len.saturating_mul(u64::from(off_path)));
            }
        }
    }
    total
}

/// The term-wise worst-case intra-task blocking for the EN variant: each
/// term at its own worst request count, so the sum bounds the intra-task
/// blocking of every path. The local term is maximised at `N^λ_q = 1`
/// (`(N_{i,q} − 1) · L_{i,q}`), the global term at `σ = 1, N^λ_q = 0`
/// (`N_{i,q} · L_{i,q}` on every processor hosting a global the task uses).
pub fn intra_task_blocking_en(ctx: &AnalysisContext<'_>, i: TaskId) -> Time {
    let task = ctx.task(i);
    let mut total = Time::ZERO;
    for q in task.resources() {
        if ctx.tasks.is_global(q) {
            continue;
        }
        let n = task.total_requests(q);
        if n >= 1 {
            let len = task.cs_length(q).unwrap_or(Time::ZERO);
            total = total.saturating_add(len.saturating_mul(u64::from(n - 1)));
        }
    }
    for &k in ctx.resource_processors() {
        let uses_any = ctx
            .resources_on(k)
            .iter()
            .any(|&u| task.total_requests(u) > 0);
        if !uses_any {
            continue;
        }
        for &q in ctx.resources_on(k) {
            let n = task.total_requests(q);
            if n > 0 {
                let len = task.cs_length(q).unwrap_or(Time::ZERO);
                total = total.saturating_add(len.saturating_mul(u64::from(n)));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{fig1, PathSignature, TaskId};

    fn fig1_setup() -> (dpcp_model::Partition, dpcp_model::TaskSet) {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        (part, ts)
    }

    /// The signature of τ_i's path through v2 (requests ℓ1 once).
    fn sig_through_global(ts: &dpcp_model::TaskSet) -> PathSignature {
        let ti = ts.task(TaskId::new(0));
        let v = dpcp_model::VertexId::new;
        PathSignature::from_path(ti, &[v(0), v(1), v(5), v(7)])
    }

    /// The signature of τ_i's path through v3 (requests local ℓ2 once).
    fn sig_through_local(ts: &dpcp_model::TaskSet) -> PathSignature {
        let ti = ts.task(TaskId::new(0));
        let v = dpcp_model::VertexId::new;
        PathSignature::from_path(ti, &[v(0), v(2), v(5), v(7)])
    }

    #[test]
    fn zeta_is_windowed_demand_of_others() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let k = dpcp_model::ProcessorId::new(1);
        // τ_j places η_j(r)·3u on ℘1. r = 10u, R_j = 30u, T = 30u → η = 2.
        assert_eq!(
            zeta(&ctx, TaskId::new(0), k, fig1::unit() * 10),
            fig1::unit() * 6
        );
        // From τ_j's view, τ_i contributes likewise.
        assert_eq!(
            zeta(&ctx, TaskId::new(1), k, fig1::unit() * 10),
            fig1::unit() * 6
        );
    }

    #[test]
    fn epsilon_groups_by_home_processor() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let sig = sig_through_global(&ts);
        let eps = EpsilonTable::new(&ctx, sig.requests().iter().copied(), |_q| fig1::unit() * 5);
        let entries: Vec<_> = eps.iter().collect();
        assert_eq!(
            entries,
            vec![(dpcp_model::ProcessorId::new(1), fig1::unit() * 5)]
        );
    }

    #[test]
    fn epsilon_ignores_local_resources() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let sig = sig_through_local(&ts);
        let eps = EpsilonTable::new(&ctx, sig.requests().iter().copied(), |_q| fig1::unit() * 5);
        assert!(eps.is_empty());
    }

    #[test]
    fn inter_task_blocking_takes_min_of_eps_and_zeta() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let sig = sig_through_global(&ts);
        // Force a large ε: min must pick ζ = 6u (at r = 10u).
        let eps = EpsilonTable::new(&ctx, sig.requests().iter().copied(), |_q| {
            fig1::unit() * 100
        });
        assert_eq!(
            inter_task_blocking(&ctx, TaskId::new(0), &eps, fig1::unit() * 10),
            fig1::unit() * 6
        );
        // Small ε wins otherwise.
        let eps = EpsilonTable::new(&ctx, sig.requests().iter().copied(), |_q| fig1::unit() * 2);
        assert_eq!(
            inter_task_blocking(&ctx, TaskId::new(0), &eps, fig1::unit() * 10),
            fig1::unit() * 2
        );
    }

    #[test]
    fn intra_blocking_on_local_resource_path() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        // Path through v3 holds ℓ2 once; the off-path v4 can block it once:
        // (N − N^λ)·L = (2−1)·2u = 2u. No global on the path ⇒ no Eq. (7)
        // term.
        let sig = sig_through_local(&ts);
        assert_eq!(
            intra_task_blocking(&ctx, TaskId::new(0), &sig),
            fig1::unit() * 2
        );
    }

    #[test]
    fn intra_blocking_on_global_resource_path() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        // Path through v2 requests ℓ1 (global): σ = 1 on ℘1, but the path
        // carries the task's only request to ℓ1 ⇒ off-path = 0 ⇒ b = 0.
        // Local ℓ2 is not on this path ⇒ min(1, 0) kills Eq. (6).
        let sig = sig_through_global(&ts);
        assert_eq!(intra_task_blocking(&ctx, TaskId::new(0), &sig), Time::ZERO);
    }

    #[test]
    fn en_blocking_dominates_every_path() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let en = intra_task_blocking_en(&ctx, TaskId::new(0));
        for sig in dpcp_model::enumerate_signatures(ts.task(TaskId::new(0)), 64).signatures {
            assert!(en >= intra_task_blocking(&ctx, TaskId::new(0), &sig));
        }
        // EN value: local (2−1)·2u = 2u; global: τ_i uses ℓ1 on ℘1 → 1·3u.
        assert_eq!(en, fig1::unit() * 5);
    }
}
