//! Per-request bounds: `β_{i,q}`, `γ_{i,q}(L)` and the request response
//! time `W_{i,q}` of Lemma 2 (Eqs. 2–3), plus the per-task
//! [`RequestBoundCache`] that memoizes `β + γ(W)` across the EP path
//! enumeration.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use dpcp_model::path::FxHasher;
use dpcp_model::{ResourceId, TaskId, Time};

use super::context::AnalysisContext;

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Why a monotone fixed-point iteration found no fixed point at or below
/// its horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unsolved {
    /// An iterate exceeded the horizon: no fixed point lies at or below it.
    Exceeded,
    /// The iteration budget ran out first, which says nothing about the
    /// horizon.
    Exhausted,
}

/// Runs a monotone fixed-point iteration `x_{n+1} = f(x_n)` from `start`
/// and reports how it ended: the fixed point reached at or below
/// `horizon`, or why there is none (see [`fixed_point`]).
pub(crate) fn orbit(
    start: Time,
    horizon: Time,
    max_iters: usize,
    mut f: impl FnMut(Time) -> Time,
) -> Result<Time, Unsolved> {
    let mut x = start;
    if x > horizon {
        return Err(Unsolved::Exceeded);
    }
    for _ in 0..max_iters {
        let next = f(x);
        if next == x {
            return Ok(x);
        }
        debug_assert!(next > x, "response-time recurrence must be inflationary");
        if next > horizon {
            return Err(Unsolved::Exceeded);
        }
        x = next;
    }
    Err(Unsolved::Exhausted)
}

/// Runs a monotone fixed-point iteration `x_{n+1} = f(x_n)` from `start`.
///
/// Returns the least fixed point reached, or `None` when the iterate
/// exceeds `horizon` (divergence: no solution below the deadline) or when
/// `max_iters` is exhausted (treated as divergence — sound, since the
/// caller then declares the task unschedulable).
///
/// # Panics
///
/// Debug builds assert that `f` is inflationary (`f(x) ≥ x` along the
/// iteration), which every response-time recurrence in this crate is.
pub fn fixed_point(
    start: Time,
    horizon: Time,
    max_iters: usize,
    f: impl FnMut(Time) -> Time,
) -> Option<Time> {
    orbit(start, horizon, max_iters, f).ok()
}

/// `β_{i,q}` — the longest critical section of a *lower*-priority task on
/// any global resource co-located with `ℓ_q` whose ceiling is at least
/// `π^H + π_i` (the single lower-priority blocking permitted by Lemma 1).
pub fn beta(ctx: &AnalysisContext<'_>, i: TaskId, q: ResourceId) -> Time {
    let pi_i = ctx.task(i).priority();
    let mut worst = Time::ZERO;
    for &u in ctx.co_located(q) {
        // Ceiling test: Π_u ≥ π^H + π_i ⇔ max user base priority ≥ π_i.
        match ctx.ceiling_base(u) {
            Some(c) if c >= pi_i => {}
            _ => continue,
        }
        for &j in ctx.tasks.users_of(u) {
            if ctx.task(j).priority() < pi_i {
                if let Some(len) = ctx.task(j).cs_length(u) {
                    worst = worst.max(len);
                }
            }
        }
    }
    worst
}

/// `γ_{i,q}(L)` (Eq. 2) — the cumulative length of higher-priority requests
/// to global resources co-located with `ℓ_q` within a window of length `L`:
/// `Σ_{π_h > π_i} η_h(L) · Σ_{u ∈ Φ^℘(ℓ_q)} N_{h,u} · L_{h,u}`.
pub fn gamma(ctx: &AnalysisContext<'_>, i: TaskId, q: ResourceId, window: Time) -> Time {
    let Some(home) = ctx.home_of(q) else {
        return Time::ZERO;
    };
    gamma_on(ctx, i, home, window)
}

/// The per-processor form of [`gamma`]: `ℓ_q` enters Eq. 2 only through its
/// home processor, so the demand tables key this sum by processor.
pub fn gamma_on(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    home: dpcp_model::ProcessorId,
    window: Time,
) -> Time {
    let pi_i = ctx.task(i).priority();
    let mut total = Time::ZERO;
    for h in ctx.tasks.iter() {
        if h.id() == i || h.priority() <= pi_i {
            continue;
        }
        let demand = ctx.cs_demand_on(h.id(), home);
        if !demand.is_zero() {
            total = total.saturating_add(demand.saturating_mul(ctx.eta(h.id(), window)));
        }
    }
    total
}

/// The response-time bound `W_{i,q}` of one request from the analysed path
/// to global resource `ℓ_q` (Lemma 2):
///
/// `W = L_{i,q} + Σ_{u ∈ Φ^℘(ℓ_q)} (N_{i,u} − N^λ_{i,u}) · L_{i,u}
///      + β_{i,q} + γ_{i,q}(W)`.
///
/// `path_requests(u)` supplies `N^λ_{i,u}`; the EN variant passes the
/// term-wise worst case instead of a concrete path's counts. Returns the
/// fixed point at or below `horizon`, or why the orbit found none.
///
/// # Errors
///
/// [`Unsolved::Exceeded`] when an iterate exceeds `horizon`,
/// [`Unsolved::Exhausted`] when `max_iters` runs out first.
pub fn request_response_bound(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    q: ResourceId,
    path_requests: &dyn Fn(ResourceId) -> u32,
    horizon: Time,
    max_iters: usize,
) -> Result<Time, Unsolved> {
    let base = request_bound_base(ctx, i, q, path_requests);
    orbit(base, horizon, max_iters, |w| {
        base.saturating_add(gamma(ctx, i, q, w))
    })
}

/// The window-independent part of Lemma 2's recurrence:
/// `L_{i,q} + Σ_{u ∈ Φ^℘(ℓ_q)} (N_{i,u} − N^λ_{i,u}) · L_{i,u} + β_{i,q}`.
fn request_bound_base(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    q: ResourceId,
    path_requests: &dyn Fn(ResourceId) -> u32,
) -> Time {
    let task = ctx.task(i);
    let own = task.cs_length(q).unwrap_or(Time::ZERO);
    // Intra-task requests from vertices not on the path, to any co-located
    // global resource.
    let mut intra = Time::ZERO;
    for &u in ctx.co_located(q) {
        let n = task.total_requests(u);
        if n == 0 {
            continue;
        }
        let off_path = n.saturating_sub(path_requests(u));
        if off_path > 0 {
            let len = task.cs_length(u).unwrap_or(Time::ZERO);
            intra = intra.saturating_add(len.saturating_mul(u64::from(off_path)));
        }
    }
    own.saturating_add(intra).saturating_add(beta(ctx, i, q))
}

/// The per-request blocking bound `β_{i,q} + γ_{i,q}(W_{i,q})` that Eq. 4
/// charges for every path request to `ℓ_q`.
///
/// # Errors
///
/// Why `W_{i,q}` has no fixed point at or below `horizon`
/// (see [`request_response_bound`]).
pub fn request_blocking_bound(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    q: ResourceId,
    path_requests: &dyn Fn(ResourceId) -> u32,
    horizon: Time,
    max_iters: usize,
) -> Result<Time, Unsolved> {
    let w = request_response_bound(ctx, i, q, path_requests, horizon, max_iters)?;
    Ok(beta(ctx, i, q).saturating_add(gamma(ctx, i, q, w)))
}

/// [`request_response_bound`] with `γ` read from the per-task demand tables
/// (bit-identical: the tables memoize [`gamma_on`] at every η breakpoint,
/// and the `W_{i,q}` recurrence walks the exact same iterate orbit with the
/// same iteration budget). Used by the EP kernel through
/// [`RequestBoundCache::blocking_bound_tabled`] and directly by the tabled
/// light-task analysis, which needs `W_{i,q}` itself.
pub fn request_response_bound_tabled(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    q: ResourceId,
    path_requests: &dyn Fn(ResourceId) -> u32,
    horizon: Time,
    max_iters: usize,
    tables: &super::demand::DemandTables,
) -> Option<Time> {
    let home = ctx.home_of(q);
    let gamma_at = |w: Time| match home {
        Some(k) => tables.gamma_at(ctx, i, k, w),
        None => Time::ZERO,
    };
    let base = request_bound_base(ctx, i, q, path_requests);
    fixed_point(base, horizon, max_iters, |w| {
        base.saturating_add(gamma_at(w))
    })
}

/// [`request_blocking_bound`] with `γ` read from the per-task demand tables
/// (see [`request_response_bound_tabled`]).
pub fn request_blocking_bound_tabled(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    q: ResourceId,
    path_requests: &dyn Fn(ResourceId) -> u32,
    horizon: Time,
    max_iters: usize,
    tables: &super::demand::DemandTables,
) -> Option<Time> {
    let w = request_response_bound_tabled(ctx, i, q, path_requests, horizon, max_iters, tables)?;
    let gamma_w = match ctx.home_of(q) {
        Some(k) => tables.gamma_at(ctx, i, k, w),
        None => Time::ZERO,
    };
    Some(beta(ctx, i, q).saturating_add(gamma_w))
}

/// Memo table for [`request_blocking_bound_tabled`] over one task's path
/// enumeration.
///
/// `W_{i,q}` depends on the analysed path only through the request counts
/// `N^λ_{i,u}` of the resources co-located with `ℓ_q` (Lemma 2's
/// intra-task term subtracts them from the fixed totals `N_{i,u}`), so
/// signatures agreeing on that profile share one fixed-point computation.
/// The cache key is exactly `(ℓ_q, on-path profile)` — equivalent to
/// keying by the off-path profile, since the totals are constant per task,
/// but buildable from the signature alone. Lookups are bit-identical to
/// the direct computation, they just skip re-running the `γ` fixed point
/// for every one of the (often thousands of) enumerated signatures.
///
/// The table is valid for one `(context, task)` pair: the response-time
/// bounds `R_j` inside `η_j` evolve between tasks, so callers must
/// [`reset`](RequestBoundCache::reset) it (or build a fresh one) before
/// analysing the next task. Misses that diverge are cached as `None` so
/// repeated divergent profiles short-circuit too.
#[derive(Debug, Default)]
pub struct RequestBoundCache {
    /// Memo per resource index, keyed by the on-path request profile.
    entries: Vec<FxHashMap<Vec<u32>, Option<Time>>>,
    /// Scratch for key construction; cloned into the map only on miss.
    key_scratch: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl RequestBoundCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the memo (keeps allocations) for reuse on the next task.
    pub fn reset(&mut self) {
        for m in &mut self.entries {
            m.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// `(hits, misses)` counters since the last reset (diagnostic).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The memoized `β_{i,q} + γ_{i,q}(W_{i,q})`; computes the bound
    /// through the per-task demand tables (which must be
    /// [`ensure`](super::demand::DemandTables::ensure)d for task `i`) and
    /// stores it on first sight of this `(ℓ_q, off-path profile)` pair.
    #[allow(clippy::too_many_arguments)]
    pub fn blocking_bound_tabled(
        &mut self,
        ctx: &AnalysisContext<'_>,
        i: TaskId,
        q: ResourceId,
        path_requests: &dyn Fn(ResourceId) -> u32,
        horizon: Time,
        max_iters: usize,
        tables: &super::demand::DemandTables,
    ) -> Option<Time> {
        self.key_scratch.clear();
        self.key_scratch
            .extend(ctx.co_located(q).iter().map(|&u| path_requests(u)));
        if self.entries.len() <= q.index() {
            self.entries.resize_with(q.index() + 1, FxHashMap::default);
        }
        let inner = &mut self.entries[q.index()];
        if let Some(&cached) = inner.get(self.key_scratch.as_slice()) {
            self.hits += 1;
            return cached;
        }
        let bound =
            request_blocking_bound_tabled(ctx, i, q, path_requests, horizon, max_iters, tables);
        inner.insert(self.key_scratch.clone(), bound);
        self.misses += 1;
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::DemandTables;
    use dpcp_model::fig1;

    fn fig1_ctx() -> (
        dpcp_model::Platform,
        dpcp_model::Partition,
        dpcp_model::TaskSet,
    ) {
        let (p, part, ts) = fig1::platform_and_partition().unwrap();
        (p, part, ts)
    }

    #[test]
    fn fixed_point_converges() {
        // x = 10 + (x / 20) * 5 on integers: converges quickly.
        let r = fixed_point(Time::from_ns(10), Time::from_ns(1000), 64, |x| {
            Time::from_ns(10 + (x.as_ns() / 20) * 5)
        });
        assert_eq!(r, Some(Time::from_ns(10)));
    }

    #[test]
    fn fixed_point_detects_divergence() {
        let r = fixed_point(Time::from_ns(1), Time::from_ns(100), 64, |x| {
            x + Time::from_ns(10)
        });
        assert_eq!(r, None);
        // Start already beyond the horizon.
        let r = fixed_point(Time::from_ns(200), Time::from_ns(100), 64, |x| x);
        assert_eq!(r, None);
    }

    #[test]
    fn fixed_point_exhausts_iterations() {
        let r = fixed_point(Time::ZERO, Time::MAX, 3, |x| x + Time::from_ns(1));
        assert_eq!(r, None);
    }

    #[test]
    fn beta_sees_only_lower_priority_users() {
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        // Priorities are unique; call the higher-priority task H, lower L.
        let (hi, lo) = if ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority() {
            (TaskId::new(0), TaskId::new(1))
        } else {
            (TaskId::new(1), TaskId::new(0))
        };
        // For the high-priority task, the lower one can block once: β = 3u.
        assert_eq!(beta(&ctx, hi, fig1::GLOBAL_RESOURCE), fig1::unit() * 3);
        // For the low-priority task there is no lower-priority user: β = 0.
        assert_eq!(beta(&ctx, lo, fig1::GLOBAL_RESOURCE), Time::ZERO);
    }

    #[test]
    fn gamma_counts_higher_priority_demand() {
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        let (hi, lo) = if ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority() {
            (TaskId::new(0), TaskId::new(1))
        } else {
            (TaskId::new(1), TaskId::new(0))
        };
        // Highest-priority task sees no higher-priority interference.
        assert_eq!(
            gamma(&ctx, hi, fig1::GLOBAL_RESOURCE, fig1::unit() * 20),
            Time::ZERO
        );
        // Lower-priority task sees η_hi(L) · 3u. With L = 10u, R_hi = D = 30u,
        // T = 30u: η = ⌈40/30⌉ = 2 → 6u.
        assert_eq!(
            gamma(&ctx, lo, fig1::GLOBAL_RESOURCE, fig1::unit() * 10),
            fig1::unit() * 6
        );
    }

    #[test]
    fn gamma_of_homeless_resource_is_zero() {
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        assert_eq!(
            gamma(
                &ctx,
                TaskId::new(0),
                fig1::LOCAL_RESOURCE,
                fig1::unit() * 50
            ),
            Time::ZERO
        );
    }

    #[test]
    fn request_bound_for_fig1_low_priority_task() {
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        let lo = if ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority() {
            TaskId::new(1)
        } else {
            TaskId::new(0)
        };
        // Path containing the single request: no intra off-path requests to
        // co-located globals, no lower-priority blocker, only η_hi jobs of
        // the other task: W = 3 + η(W)·3. Start 3 → 3+2·3=9 → η(9)=⌈39/30⌉=2
        // → 9. Fixed point: 9u.
        let w = request_response_bound(
            &ctx,
            lo,
            fig1::GLOBAL_RESOURCE,
            &|q| if q == fig1::GLOBAL_RESOURCE { 1 } else { 0 },
            ts.task(lo).deadline(),
            64,
        );
        assert_eq!(w, Ok(fig1::unit() * 9));
    }

    /// Builds the two-task system of `wcrt::tests::diverging_task_returns_none`:
    /// an absurdly heavy shared load whose request recurrence diverges.
    fn diverging_system() -> (dpcp_model::Partition, dpcp_model::TaskSet) {
        use dpcp_model::{DagTask, Partition, Platform, RequestSpec, VertexSpec};
        let mk = |id: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(1))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(900),
                    [RequestSpec::new(ResourceId::new(0), 20)],
                ))
                .critical_section(ResourceId::new(0), Time::from_us(40))
                .build()
                .unwrap()
        };
        let ts = dpcp_model::TaskSet::new(vec![mk(0), mk(1)], 1).unwrap();
        let platform = Platform::new(2).unwrap();
        let part = Partition::new(
            &ts,
            &platform,
            vec![
                vec![dpcp_model::ProcessorId::new(0)],
                vec![dpcp_model::ProcessorId::new(1)],
            ],
            [(ResourceId::new(0), dpcp_model::ProcessorId::new(0))]
                .into_iter()
                .collect(),
        )
        .unwrap();
        (part, ts)
    }

    /// Demand tables prepared for task `i` under `ctx`.
    fn tables_for(ctx: &AnalysisContext<'_>, i: TaskId) -> DemandTables {
        let mut tables = DemandTables::default();
        tables.ensure(ctx, i);
        tables
    }

    #[test]
    fn cached_bounds_equal_uncached_computation() {
        // Fig. 1 shares ℓ1 globally between both tasks: exercise every
        // (task, on-path count) combination against the direct computation.
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        let mut cache = RequestBoundCache::new();
        for idx in 0..2 {
            let i = TaskId::new(idx);
            cache.reset();
            let tables = tables_for(&ctx, i);
            let horizon = ts.task(i).deadline();
            for on_path in 0u32..=1 {
                let counts = |q: ResourceId| {
                    if q == fig1::GLOBAL_RESOURCE {
                        on_path
                    } else {
                        0
                    }
                };
                let direct =
                    request_blocking_bound(&ctx, i, fig1::GLOBAL_RESOURCE, &counts, horizon, 64)
                        .ok();
                // First query misses, second hits; both must equal the
                // direct computation.
                for _ in 0..2 {
                    let cached = cache.blocking_bound_tabled(
                        &ctx,
                        i,
                        fig1::GLOBAL_RESOURCE,
                        &counts,
                        horizon,
                        64,
                        &tables,
                    );
                    assert_eq!(cached, direct, "task {idx}, on-path {on_path}");
                }
            }
            let (hits, misses) = cache.stats();
            assert_eq!((hits, misses), (2, 2), "task {idx}");
        }
    }

    #[test]
    fn cache_handles_divergent_none_case() {
        // No fixed point below the deadline: the cache must return `None`,
        // remember it, and serve the repeat from the memo.
        let (part, ts) = diverging_system();
        let ctx = AnalysisContext::new(&ts, &part);
        let lo = if ts.task(TaskId::new(0)).priority() < ts.task(TaskId::new(1)).priority() {
            TaskId::new(0)
        } else {
            TaskId::new(1)
        };
        let horizon = ts.task(lo).deadline();
        let counts = |q: ResourceId| u32::from(q == ResourceId::new(0));
        let direct = request_blocking_bound(&ctx, lo, ResourceId::new(0), &counts, horizon, 64);
        assert_eq!(
            direct,
            Err(Unsolved::Exceeded),
            "the heavy system must diverge"
        );
        let mut cache = RequestBoundCache::new();
        let tables = tables_for(&ctx, lo);
        for _ in 0..2 {
            assert_eq!(
                cache.blocking_bound_tabled(
                    &ctx,
                    lo,
                    ResourceId::new(0),
                    &counts,
                    horizon,
                    64,
                    &tables
                ),
                None
            );
        }
        assert_eq!(cache.stats(), (1, 1), "divergence must be memoized too");
    }

    #[test]
    fn cache_distinguishes_off_path_profiles() {
        // Different on-path counts of a co-located resource change W; the
        // cache must key on the off-path profile, not on ℓ_q alone.
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        let lo = if ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority() {
            TaskId::new(1)
        } else {
            TaskId::new(0)
        };
        let horizon = ts.task(lo).deadline();
        let mut cache = RequestBoundCache::new();
        let tables = tables_for(&ctx, lo);
        let on_path = |q: ResourceId| u32::from(q == fig1::GLOBAL_RESOURCE);
        let off_path = |_: ResourceId| 0;
        let mut bound = |counts: &dyn Fn(ResourceId) -> u32| {
            cache.blocking_bound_tabled(
                &ctx,
                lo,
                fig1::GLOBAL_RESOURCE,
                counts,
                horizon,
                64,
                &tables,
            )
        };
        let with_request = bound(&on_path);
        let without_request = bound(&off_path);
        // Off-path request adds intra-task delay to W, so the profiles
        // must be distinct cache entries (two misses, no false sharing) …
        assert_eq!(cache.stats(), (0, 2));
        // … and the underlying request bounds differ (9u vs 12u on Fig. 1
        // even though β + γ(W) happens to coincide inside one η window).
        let w_on = request_response_bound(&ctx, lo, fig1::GLOBAL_RESOURCE, &on_path, horizon, 64);
        let w_off = request_response_bound(&ctx, lo, fig1::GLOBAL_RESOURCE, &off_path, horizon, 64);
        assert_ne!(w_on, w_off);
        assert_eq!(
            with_request,
            request_blocking_bound(&ctx, lo, fig1::GLOBAL_RESOURCE, &on_path, horizon, 64).ok()
        );
        assert_eq!(
            without_request,
            request_blocking_bound(&ctx, lo, fig1::GLOBAL_RESOURCE, &off_path, horizon, 64).ok()
        );
    }

    #[test]
    fn request_bound_for_high_priority_task_is_cs_plus_beta() {
        let (_, part, ts) = fig1_ctx();
        let ctx = AnalysisContext::new(&ts, &part);
        let hi = if ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority() {
            TaskId::new(0)
        } else {
            TaskId::new(1)
        };
        // W = own CS (3) + β (3) = 6, no higher-priority interference.
        let w = request_response_bound(
            &ctx,
            hi,
            fig1::GLOBAL_RESOURCE,
            &|q| if q == fig1::GLOBAL_RESOURCE { 1 } else { 0 },
            ts.task(hi).deadline(),
            64,
        );
        assert_eq!(w, Ok(fig1::unit() * 6));
    }
}
