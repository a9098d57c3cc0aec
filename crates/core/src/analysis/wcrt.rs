//! The per-path response-time bound of Theorem 1 and the task-level WCRT
//! `R_i = max_λ r_i(λ)` (Eq. 1), in both analysis variants:
//!
//! - **EP** (enumerate paths): evaluates Theorem 1 on every distinct path
//!   signature of the task (Sec. VI's more precise analysis, the paper's
//!   `DPCP-p-EP`);
//! - **EN** (enumerate request counts): evaluates a single virtual path of
//!   length `L*_i` whose per-term request counts take their worst value in
//!   `[0, N_{i,q}]` (the paper's `DPCP-p-EN`). Each term takes its own
//!   worst count, and no path's count exceeds it in any term, so the EN
//!   bound is never below the EP bound.
//!
//! EP has one fast path and one reference:
//!
//! - [`wcrt_over_signatures_batched`], the kernel every analysis runs
//!   (below);
//! - the per-iterate scans [`wcrt_for_signature_direct`],
//!   [`wcrt_over_signatures_direct`] and
//!   [`wcrt_over_signatures_sweep_direct`], which rescan the task set on
//!   every fixed-point iterate and map term by term onto the paper's
//!   lemmas. The seeded sweeps in `tests/incremental_solver.rs` and
//!   `crates/core/tests/batched_kernel.rs` assert the kernel bit-identical
//!   to them, breakdowns and divergent `None`s included.
//!
//! EN solves one recurrence per task, which demand tables cannot amortize,
//! so it has a single implementation: the per-iterate scan [`wcrt_en`].
//!
//! # The batched kernel
//!
//! Theorem 1 gives every path signature its own least fixed point, and
//! Eq. 1 takes the maximum, so [`wcrt_over_signatures_batched`] solves a
//! task's signatures one at a time in three steps:
//!
//! 1. **Materialize.** A signature's window-independent terms — `L(λ)`,
//!    `b_i`, `I^intra_i` and the own-agent interference — and its ε row
//!    are built from the memoized [`RequestBoundCache`] and the per-task
//!    [`DemandTables`], with a dense per-resource count row replacing
//!    the per-entry binary searches into the signature's request vector.
//! 2. **Solve.** The signature's orbit runs on the spot through
//!    `request::orbit`, the loop every other recurrence uses, with each
//!    window-dependent term read from the demand tables. A diverging
//!    request bound or orbit fails the whole task at once, as the
//!    reference sweep's `?` does.
//! 3. **Keep the earliest maximum.** The first signature with the
//!    largest bound binds (the reference sweep's tie-break); only its ε
//!    row is kept, and its [`PathBound`] breakdown is built once at the
//!    end.

use dpcp_model::{PathSignature, ResourceId, TaskId, Time};

use super::blocking::{
    inter_task_blocking, inter_task_blocking_tabled, intra_task_blocking,
    intra_task_blocking_counts, intra_task_blocking_en, EpsilonTable,
};
use super::context::AnalysisContext;
use super::demand::DemandTables;
use super::interference::{
    agent_interference_others, agent_interference_own, agent_interference_own_counts,
    agent_interference_own_en, intra_task_interference, intra_task_interference_counts,
    intra_task_interference_en,
};
use super::request::{fixed_point, orbit, request_blocking_bound, RequestBoundCache, Unsolved};
use super::{AnalysisConfig, DelayBreakdown};

/// The outcome of one per-path (or per-virtual-path) Theorem 1 evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathBound {
    /// The converged response-time bound `r_i(λ)`.
    pub wcrt: Time,
    /// The delay decomposition at the fixed point.
    pub breakdown: DelayBreakdown,
}

/// Reusable per-task evaluation state for the EP path enumeration: the
/// request-bound memo table, the per-task demand prefix tables and the
/// scratch buffers that used to be allocated once per signature.
///
/// One instance serves a whole task-set analysis (and, held by an
/// `AnalysisSession`, many runs across partitioning rounds and methods);
/// the memo and tables are reset between tasks, while the buffers keep
/// their allocations.
///
/// [`reset_for_task`](Self::reset_for_task) **must** be called before
/// analysing a different task *or* the same task under a different context
/// (new partition, updated `R_j` bounds): the memo and the demand tables
/// are keyed by `(context, task)` and silently serve stale values
/// otherwise. Every analysis entry point in this crate resets on entry.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Memoized `β + γ(W)` per (resource, off-path profile).
    pub cache: RequestBoundCache,
    /// `(ℓ_q, β + γ(W))` pairs of the signature under evaluation.
    per_request: Vec<(ResourceId, Time)>,
    /// The ε accumulator of Eq. 4, rebuilt in place per signature.
    eps: EpsilonTable,
    /// The ε row of the binding signature so far (swapped with `eps`
    /// whenever a signature takes the lead).
    best_eps: EpsilonTable,
    /// Per-processor demand prefix tables keyed by η, built once per task
    /// (shared with the light-task analysis, hence crate-visible).
    pub(crate) tables: DemandTables,
    /// Dense per-resource request counts (`counts[q] = N^λ_{i,q}`) of the
    /// signature being materialized — scattered from and un-scattered by
    /// its sparse request vector, so the blocking and interference sums
    /// index instead of binary-searching.
    counts: Vec<u32>,
}

impl EvalScratch {
    /// Fresh scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the per-task memo and demand tables (buffer allocations
    /// survive).
    pub fn reset_for_task(&mut self) {
        self.cache.reset();
        self.tables.invalidate();
    }
}

/// The window-independent terms of one signature's Theorem 1 recurrence
/// `r = L(λ) + B_i(r) + b_i + ⌈(I^intra_i + I^A_i(r)) / m_i⌉`; with the
/// signature's ε row they define the recurrence completely.
#[derive(Debug, Clone, Copy)]
struct PathTerms {
    /// `L(λ)` (also the orbit's start iterate).
    len: Time,
    /// Intra-task blocking `b_i` (Lemma 4).
    b_i: Time,
    /// Intra-task interference `I^intra_i` (Lemma 5).
    intra_i: Time,
    /// Own-agent interference (the path-dependent Lemma 6 term).
    agent_own: Time,
}

/// One evaluation of the recurrence's right-hand side over the demand
/// tables — bit-identical to the direct scan by the tables' contract.
fn theorem1_rhs(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    tables: &DemandTables,
    eps: &EpsilonTable,
    t: &PathTerms,
    m_i: u64,
    r: Time,
) -> Time {
    let b_inter = inter_task_blocking_tabled(ctx, i, eps, tables, r);
    let agents = t.agent_own.saturating_add(tables.agent_at(ctx, i, r));
    t.len
        .saturating_add(b_inter)
        .saturating_add(t.b_i)
        .saturating_add(t.intra_i.saturating_add(agents).div_ceil(m_i))
}

/// The delay decomposition of Theorem 1 at the converged `r`, read from
/// the demand tables.
fn path_bound_at(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    tables: &DemandTables,
    eps: &EpsilonTable,
    t: &PathTerms,
    r: Time,
) -> PathBound {
    let b_inter = inter_task_blocking_tabled(ctx, i, eps, tables, r);
    let agents = t.agent_own.saturating_add(tables.agent_at(ctx, i, r));
    PathBound {
        wcrt: r,
        breakdown: DelayBreakdown {
            path_len: t.len,
            inter_task_blocking: b_inter,
            intra_task_blocking: t.b_i,
            intra_task_interference: t.intra_i,
            agent_interference: agents,
        },
    }
}

/// Evaluates Theorem 1 for one concrete path signature,
/// `r = L(λ) + B_i(r) + b_i + ⌈(I^intra_i + I^A_i(r)) / m_i⌉`, rescanning
/// every window-dependent term on every fixed-point iterate — no demand
/// tables, no request-bound memo. The reference the batched kernel is
/// asserted bit-identical to (divergent `None` included) and measured
/// against by the `fixed_point/*` component benches.
///
/// # Errors
///
/// How the first orbit without a fixed point at or below `D_i` ended: a
/// request bound `W_{i,q}` (in request order), else the response-time
/// recurrence. Only [`Unsolved::Exceeded`] proves that the path misses its
/// deadline; [`Unsolved::Exhausted`] means the budget ran out first.
pub fn wcrt_for_signature_direct(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    sig: &PathSignature,
    cfg: &AnalysisConfig,
) -> Result<PathBound, Unsolved> {
    let task = ctx.task(i);
    let horizon = task.deadline();
    let m_i = ctx.cluster_size(i);

    let path_counts = |q: ResourceId| sig.request_count(q);
    let mut per_request: Vec<(ResourceId, Time)> = Vec::new();
    for &(q, n) in sig.requests() {
        if n == 0 || !ctx.tasks.is_global(q) {
            continue;
        }
        let blocking = request_blocking_bound(
            ctx,
            i,
            q,
            &path_counts,
            horizon,
            cfg.max_fixpoint_iterations,
        )?;
        per_request.push((q, blocking));
    }
    let eps = EpsilonTable::new(ctx, sig.requests().iter().copied(), |q| {
        per_request
            .iter()
            .find(|&&(u, _)| u == q)
            .map(|&(_, b)| b)
            .unwrap_or(Time::ZERO)
    });

    let b_i = intra_task_blocking(ctx, i, sig);
    let intra_i = intra_task_interference(ctx, i, sig);
    let agent_own = agent_interference_own(ctx, i, sig);
    let len = sig.len();

    let r = orbit(len, horizon, cfg.max_fixpoint_iterations, |r| {
        let b_inter = inter_task_blocking(ctx, i, &eps, r);
        let agents = agent_own.saturating_add(agent_interference_others(ctx, i, r));
        len.saturating_add(b_inter)
            .saturating_add(b_i)
            .saturating_add(intra_i.saturating_add(agents).div_ceil(m_i))
    })?;

    let b_inter = inter_task_blocking(ctx, i, &eps, r);
    let agents = agent_own.saturating_add(agent_interference_others(ctx, i, r));
    Ok(PathBound {
        wcrt: r,
        breakdown: DelayBreakdown {
            path_len: len,
            inter_task_blocking: b_inter,
            intra_task_blocking: b_i,
            intra_task_interference: intra_i,
            agent_interference: agents,
        },
    })
}

/// Evaluates the EN variant's single virtual path: length `L*_i`, every
/// request-count-dependent term at its maximum over `N^λ_{i,q} ∈
/// [0, N_{i,q}]`, with per-iterate scans (see
/// [`wcrt_for_signature_direct`]).
pub fn wcrt_en(ctx: &AnalysisContext<'_>, i: TaskId, cfg: &AnalysisConfig) -> Option<PathBound> {
    let task = ctx.task(i);
    let horizon = task.deadline();
    let m_i = ctx.cluster_size(i);
    let len = task.longest_path_len();

    // W^EN_{i,q}: intra term maximised at N^λ_q = 1 for ℓ_q itself (a path
    // must request ℓ_q for W_{i,q} to matter) and N^λ_u = 0 for the rest.
    let mut per_request: Vec<(ResourceId, u32, Time)> = Vec::new();
    for q in task.resources() {
        if !ctx.tasks.is_global(q) {
            continue;
        }
        let n = task.total_requests(q);
        if n == 0 {
            continue;
        }
        let counts = move |u: ResourceId| u32::from(u == q);
        let blocking =
            request_blocking_bound(ctx, i, q, &counts, horizon, cfg.max_fixpoint_iterations)
                .ok()?;
        per_request.push((q, n, blocking));
    }
    // ε maximised at N^λ_q = N_{i,q}.
    let eps = EpsilonTable::new(ctx, per_request.iter().map(|&(q, n, _)| (q, n)), |q| {
        per_request
            .iter()
            .find(|&&(u, _, _)| u == q)
            .map(|&(_, _, b)| b)
            .unwrap_or(Time::ZERO)
    });

    let b_i = intra_task_blocking_en(ctx, i);
    let intra_i = intra_task_interference_en(ctx, i);
    let agent_own = agent_interference_own_en(ctx, i);

    let r = fixed_point(len, horizon, cfg.max_fixpoint_iterations, |r| {
        let b_inter = inter_task_blocking(ctx, i, &eps, r);
        let agents = agent_own.saturating_add(agent_interference_others(ctx, i, r));
        len.saturating_add(b_inter)
            .saturating_add(b_i)
            .saturating_add(intra_i.saturating_add(agents).div_ceil(m_i))
    })?;

    let b_inter = inter_task_blocking(ctx, i, &eps, r);
    let agents = agent_own.saturating_add(agent_interference_others(ctx, i, r));
    Some(PathBound {
        wcrt: r,
        breakdown: DelayBreakdown {
            path_len: len,
            inter_task_blocking: b_inter,
            intra_task_blocking: b_i,
            intra_task_interference: intra_i,
            agent_interference: agents,
        },
    })
}

/// The per-iterate scan reference for [`wcrt_over_signatures_batched`]:
/// the same skip/max structure (truncated tasks report the EN bound
/// directly) over [`wcrt_for_signature_direct`].
pub fn wcrt_over_signatures_direct(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    sigs: &dpcp_model::PathSignatures,
    cfg: &AnalysisConfig,
) -> Option<PathBound> {
    if sigs.truncated {
        wcrt_en(ctx, i, cfg)
    } else {
        // Without truncation the sweep has no EN mix-in: one shared loop.
        wcrt_over_signatures_sweep_direct(ctx, i, sigs, cfg)
    }
}

/// The pre-skip *sweeping* reference for truncated tasks: every capped
/// signature is evaluated and the (dominating) EN fallback is mixed in,
/// exactly as the enumeration behaved before the truncated-task skip.
/// Kept so the equivalence tests can assert that skipping the sweep
/// changes neither the reported WCRT nor the schedulability verdict —
/// the EN bound term-wise dominates every per-signature bound (see
/// `en_dominates_every_single_signature`), so it binds the max whenever
/// it converges, and a signature that diverges past `D_i` forces the EN
/// recurrence (whose iterates dominate the signature's pointwise) past
/// `D_i` too.
pub fn wcrt_over_signatures_sweep_direct(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    sigs: &dpcp_model::PathSignatures,
    cfg: &AnalysisConfig,
) -> Option<PathBound> {
    let mut best: Option<PathBound> = None;
    for sig in &sigs.signatures {
        let bound = wcrt_for_signature_direct(ctx, i, sig, cfg).ok()?;
        if best.as_ref().is_none_or(|b| bound.wcrt > b.wcrt) {
            best = Some(bound);
        }
    }
    if sigs.truncated {
        let en = wcrt_en(ctx, i, cfg)?;
        if best.as_ref().is_none_or(|b| en.wcrt > b.wcrt) {
            best = Some(en);
        }
    }
    best
}

/// The task-level bound `R_i = max_λ r_i(λ)` over a set of enumerated
/// signatures, solved by the batched kernel (see the module docs): each
/// signature's terms are materialized from the memoized request bounds
/// and the per-task demand tables, its orbit is solved on the spot, and
/// only the binding signature's breakdown is built. Bit-identical to
/// [`wcrt_over_signatures_direct`].
///
/// When the enumeration was truncated the (dominating) EN bound is
/// reported directly — it provably binds the max, so the capped signature
/// subset is never swept (see [`wcrt_over_signatures_sweep_direct`] for
/// the retained sweeping reference). The enumerated list is
/// dominance-pruned: a subset that provably still contains the binding
/// signature, with every dominator sorted before the signatures it
/// dominates, so the earliest-maximum tie-break reports the same binding
/// [`PathBound`] as a sweep over the unpruned list.
///
/// Returns `None` when any contributing bound diverges beyond `D_i`.
/// Resets `scratch` for this task on entry.
pub fn wcrt_over_signatures_batched(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    sigs: &dpcp_model::PathSignatures,
    cfg: &AnalysisConfig,
    scratch: &mut EvalScratch,
) -> Option<PathBound> {
    scratch.reset_for_task();
    if sigs.truncated {
        // Truncated enumeration: the EN fallback term-wise dominates every
        // per-signature bound, so it decides the max regardless of which
        // capped subset survived (the reported `TaskBound` carries the
        // `truncated` tag).
        return wcrt_en(ctx, i, cfg);
    }
    let horizon = ctx.task(i).deadline();
    let m_i = ctx.cluster_size(i);
    let max_iters = cfg.max_fixpoint_iterations;
    let EvalScratch {
        cache,
        per_request,
        eps,
        best_eps,
        tables,
        counts,
    } = scratch;
    tables.ensure(ctx, i);
    // Zeroed on entry, so an early return may leave a row scattered.
    counts.clear();
    counts.resize(ctx.tasks.resource_count(), 0);

    let mut best: Option<(Time, PathTerms)> = None;
    for sig in &sigs.signatures {
        // Materialize: memoized request bounds over the scattered count
        // row, the in-place ε rebuild and the window-independent terms.
        for &(q, n) in sig.requests() {
            counts[q.index()] = n;
        }
        let path_counts = |q: ResourceId| counts[q.index()];
        per_request.clear();
        for &(q, n) in sig.requests() {
            if n == 0 || !ctx.tasks.is_global(q) {
                continue;
            }
            let blocking =
                cache.blocking_bound_tabled(ctx, i, q, &path_counts, horizon, max_iters, tables)?;
            per_request.push((q, blocking));
        }
        let per_request = &*per_request;
        eps.rebuild(ctx, sig.requests().iter().copied(), |q| {
            per_request
                .iter()
                .find(|&&(u, _)| u == q)
                .map(|&(_, b)| b)
                .unwrap_or(Time::ZERO)
        });
        let terms = PathTerms {
            len: sig.len(),
            b_i: intra_task_blocking_counts(tables, counts),
            intra_i: intra_task_interference_counts(tables, sig.noncritical_len(), counts),
            agent_own: agent_interference_own_counts(tables, counts),
        };
        for &(q, _) in sig.requests() {
            counts[q.index()] = 0;
        }

        // Solve, and keep the earliest maximum with its ε row.
        let r = orbit(terms.len, horizon, max_iters, |r| {
            theorem1_rhs(ctx, i, tables, eps, &terms, m_i, r)
        })
        .ok()?;
        if best.is_none_or(|(b, _)| r > b) {
            best = Some((r, terms));
            std::mem::swap(eps, best_eps);
        }
    }
    let (r, terms) = best?;
    Some(path_bound_at(ctx, i, tables, best_eps, &terms, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{enumerate_signatures, fig1, PathSignatures, TaskId};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    fn fig1_setup() -> (dpcp_model::Partition, dpcp_model::TaskSet) {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        (part, ts)
    }

    fn batched(ctx: &AnalysisContext<'_>, i: TaskId, sigs: &PathSignatures) -> Option<PathBound> {
        wcrt_over_signatures_batched(ctx, i, sigs, &cfg(), &mut EvalScratch::new())
    }

    #[test]
    fn fig1_longest_path_bound_is_reasonable() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let i = TaskId::new(0);
        let ti = ts.task(i);
        let sig = dpcp_model::PathSignature::from_path(ti, ti.longest_path());
        let bound = wcrt_for_signature_direct(&ctx, i, &sig, &cfg()).unwrap();
        // The path itself takes 10u; everything on top is bounded delay.
        assert!(bound.wcrt >= fig1::unit() * 10);
        assert!(bound.wcrt <= ti.deadline());
        assert_eq!(bound.breakdown.path_len, fig1::unit() * 10);
        // This path requests nothing ⇒ no inter-task blocking.
        assert_eq!(bound.breakdown.inter_task_blocking, Time::ZERO);
    }

    #[test]
    fn fig1_global_path_sees_inter_task_blocking() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let i = TaskId::new(0);
        let ti = ts.task(i);
        let v = dpcp_model::VertexId::new;
        let sig = dpcp_model::PathSignature::from_path(ti, &[v(0), v(1), v(5), v(7)]);
        let bound = wcrt_for_signature_direct(&ctx, i, &sig, &cfg()).unwrap();
        assert!(bound.breakdown.inter_task_blocking > Time::ZERO);
        assert!(bound.wcrt <= ti.deadline());
    }

    #[test]
    fn en_dominates_ep_on_fig1() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        for idx in 0..2 {
            let i = TaskId::new(idx);
            let sigs = enumerate_signatures(ts.task(i), 64);
            assert!(!sigs.truncated);
            let ep = batched(&ctx, i, &sigs).unwrap();
            let en = wcrt_en(&ctx, i, &cfg()).unwrap();
            assert!(
                en.wcrt >= ep.wcrt,
                "EN ({}) must dominate EP ({}) for task {idx}",
                en.wcrt,
                ep.wcrt
            );
        }
    }

    #[test]
    fn en_dominates_every_single_signature() {
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let i = TaskId::new(1);
        let en = wcrt_en(&ctx, i, &cfg()).unwrap();
        for sig in enumerate_signatures(ts.task(i), 64).signatures {
            let ep = wcrt_for_signature_direct(&ctx, i, &sig, &cfg()).unwrap();
            assert!(en.wcrt >= ep.wcrt);
        }
    }

    #[test]
    fn isolated_task_bound_is_graham_like() {
        // A single task with no resources: r = L* + ⌈(C − L*)/m⌉ because
        // I^intra = C' − C'(λ*) and nothing else contributes.
        use dpcp_model::{Dag, DagTask, Partition, Platform, TaskSet, VertexSpec};
        let dag = Dag::new(3, [(0, 1)]).unwrap(); // v2 parallel to chain
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_ms(2)))
            .vertex(VertexSpec::new(Time::from_ms(3)))
            .vertex(VertexSpec::new(Time::from_ms(4)))
            .build()
            .unwrap();
        let ts = TaskSet::new(vec![t], 0).unwrap();
        let platform = Platform::new(2).unwrap();
        let part = Partition::new(
            &ts,
            &platform,
            vec![vec![
                dpcp_model::ProcessorId::new(0),
                dpcp_model::ProcessorId::new(1),
            ]],
            Default::default(),
        )
        .unwrap();
        let ctx = AnalysisContext::new(&ts, &part);
        let sigs = enumerate_signatures(ts.task(TaskId::new(0)), 16);
        let bound = batched(&ctx, TaskId::new(0), &sigs).unwrap();
        // Path (v0,v1): 5 + ⌈4/2⌉ = 7ms; path (v2): 4 + ⌈5/2⌉ = 6.5ms.
        // The maximum over paths binds: 7ms.
        assert_eq!(bound.wcrt, Time::from_ms(7));
    }

    #[test]
    fn diverging_task_returns_none() {
        // One processor per task and an absurdly heavy load: the recurrence
        // must blow past the deadline.
        use dpcp_model::{DagTask, Partition, Platform, RequestSpec, TaskSet, VertexSpec};
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
        let ts = TaskSet::new(vec![mk(0), mk(1)], 1).unwrap();
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
        let ctx = AnalysisContext::new(&ts, &part);
        let i = TaskId::new(1); // lower priority by tie-break
        let lower = if ts.task(TaskId::new(0)).priority() < ts.task(i).priority() {
            TaskId::new(0)
        } else {
            i
        };
        let sigs = enumerate_signatures(ts.task(lower), 16);
        assert!(batched(&ctx, lower, &sigs).is_none());
        // The per-iterate scan agrees on the divergent outcome.
        assert!(wcrt_over_signatures_direct(&ctx, lower, &sigs, &cfg()).is_none());
    }

    #[test]
    fn batched_equals_direct_on_fig1() {
        // Per-task bounds — breakdowns included — must be bit-identical
        // between the batched kernel and the per-iterate scans.
        let (part, ts) = fig1_setup();
        let ctx = AnalysisContext::new(&ts, &part);
        let mut scratch = EvalScratch::new();
        for idx in 0..2 {
            let i = TaskId::new(idx);
            let sigs = enumerate_signatures(ts.task(i), 64);
            let fast = wcrt_over_signatures_batched(&ctx, i, &sigs, &cfg(), &mut scratch);
            let dir = wcrt_over_signatures_direct(&ctx, i, &sigs, &cfg());
            assert_eq!(fast, dir, "task {idx} EP");
        }
    }
}
