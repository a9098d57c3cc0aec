//! Worst-case response-time analysis for DPCP-p (Sec. IV).
//!
//! The entry point is [`AnalysisSession::analyze`](crate::session::AnalysisSession::analyze):
//! given a task set and a partition it bounds every task's WCRT via the
//! per-path analysis of Theorem 1 and reports schedulability. Tasks are
//! processed in decreasing priority order; each computed bound feeds the
//! job-count function `η_j` of the remaining tasks (lower-priority tasks
//! use the sound fallback `R_j ≤ D_j`, DESIGN.md note 3).
//!
//! Two variants mirror the paper's evaluation:
//! [`AnalysisVariant::EnumeratePaths`] (`DPCP-p-EP`) and
//! [`AnalysisVariant::EnumerateRequestCounts`] (`DPCP-p-EN`).

use std::cell::OnceCell;

use dpcp_model::{
    enumerate_signatures_capped, enumerate_signatures_dp_capped, DagTask, Partition, PathSignature,
    PathSignatures, TaskId, TaskSet, Time,
};
use serde::{Deserialize, Serialize};

pub mod blocking;
pub mod context;
pub mod demand;
pub mod interference;
pub mod light;
pub mod request;
pub mod screen;
pub mod wcrt;

pub use context::AnalysisContext;
pub use demand::{DemandStepTable, DemandTables};
pub use request::RequestBoundCache;
pub use screen::infeasible_under_every_placement;
pub use wcrt::EvalScratch;

use request::Unsolved;

/// Which analysis the paper's evaluation calls `DPCP-p-EP` / `DPCP-p-EN`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnalysisVariant {
    /// Enumerate the distinct path signatures of each task (more precise;
    /// requires per-vertex request placement, Sec. VI).
    #[default]
    EnumeratePaths,
    /// Evaluate one virtual path with term-wise maximal request counts
    /// `N^λ_{i,q} ∈ [0, N_{i,q}]`, as in prior work \[6], \[11].
    EnumerateRequestCounts,
}

impl core::fmt::Display for AnalysisVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisVariant::EnumeratePaths => f.write_str("DPCP-p-EP"),
            AnalysisVariant::EnumerateRequestCounts => f.write_str("DPCP-p-EN"),
        }
    }
}

/// Tuning knobs for the analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Which variant to run.
    pub variant: AnalysisVariant,
    /// Maximum number of distinct path signatures enumerated per task
    /// before falling back to the EN bound (DESIGN.md note 5).
    pub path_signature_cap: usize,
    /// Maximum number of complete paths walked per task (dense-DAG guard).
    pub path_visit_cap: u64,
    /// Iteration budget for every fixed-point recurrence; exhaustion is
    /// treated as divergence (sound).
    pub max_fixpoint_iterations: usize,
    /// Drop dominated path signatures during enumeration (see
    /// [`prune_dominated_signatures`](dpcp_model::prune_dominated_signatures)
    /// and the monotonicity note in `dpcp_model::path`): signatures that
    /// cannot be the binding EP path are removed before Theorem 1 ever
    /// evaluates them. On by default — the binding `PathBound` is proven
    /// (and asserted, `tests/signature_dp.rs`) unchanged, enumeration is
    /// ~5× faster, and at the default caps pruning can only *improve*
    /// precision (complete enumeration where the unpruned set would
    /// truncate to the EN fallback). Set to `false` for the unpruned
    /// reference set the equivalence tests compare against. A wire body
    /// without this member deserializes to `false`, the behaviour before
    /// pruning existed.
    #[serde(default)]
    pub prune_dominated: bool,
    /// Step budget for the search-wrapper protocols
    /// ([`SearchVariant`](crate::registry::SearchVariant)): how many local
    /// moves the placement search may propose per task set (at most one
    /// analysis probe each). `None` leaves the wrapper's built-in default
    /// in force; non-search protocols ignore the knob entirely. Folded
    /// into the structural request key only when set, so every existing
    /// key (and cached verdict) is untouched.
    #[serde(default)]
    pub search_probe_budget: Option<usize>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            variant: AnalysisVariant::EnumeratePaths,
            path_signature_cap: 1024,
            path_visit_cap: 50_000,
            max_fixpoint_iterations: 512,
            prune_dominated: true,
            search_probe_budget: None,
        }
    }
}

impl AnalysisConfig {
    /// The `DPCP-p-EP` configuration with default caps.
    pub fn ep() -> Self {
        AnalysisConfig::default()
    }

    /// The `DPCP-p-EN` configuration.
    pub fn en() -> Self {
        AnalysisConfig {
            variant: AnalysisVariant::EnumerateRequestCounts,
            ..AnalysisConfig::default()
        }
    }
}

/// The delay decomposition of Theorem 1 at the fixed point (reported for
/// the binding path of each task).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayBreakdown {
    /// `L(λ)` — the path's own execution demand.
    pub path_len: Time,
    /// `B_i` — inter-task blocking (Lemma 3).
    pub inter_task_blocking: Time,
    /// `b_i` — intra-task blocking (Lemma 4).
    pub intra_task_blocking: Time,
    /// `I^intra_i` — intra-task interference (Lemma 5), *before* division
    /// by `m_i`.
    pub intra_task_interference: Time,
    /// `I^A_i` — agent interference (Lemma 6), *before* division by `m_i`.
    pub agent_interference: Time,
}

/// Per-task analysis outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskBound {
    /// The analysed task.
    pub task: TaskId,
    /// The WCRT bound, `None` when the recurrence diverges beyond `D_i`.
    pub wcrt: Option<Time>,
    /// `wcrt ≤ D_i`.
    pub schedulable: bool,
    /// Delay decomposition of the binding path (when the bound converged).
    pub breakdown: Option<DelayBreakdown>,
    /// Number of distinct path signatures evaluated (EP; 1 for EN).
    pub signatures_evaluated: usize,
    /// Whether path enumeration hit a cap and the EN fallback was mixed in.
    pub truncated: bool,
}

/// Whole-task-set analysis outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulabilityReport {
    /// Per-task bounds, in task-identifier order.
    pub task_bounds: Vec<TaskBound>,
    /// `true` when every task is schedulable.
    pub schedulable: bool,
    /// `true` when any task's path enumeration hit a cap
    /// ([`TaskBound::truncated`]): those bounds mix in the EN fallback and
    /// are coarser than a complete enumeration would give. Still sound —
    /// surfaced so callers can tell a complete analysis from a capped one.
    #[serde(default)]
    pub truncated: bool,
}

impl SchedulabilityReport {
    /// The bound of one task.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range.
    pub fn bound(&self, task: TaskId) -> &TaskBound {
        &self.task_bounds[task.index()]
    }
}

/// Path signatures per task, shareable across partitioning rounds
/// (signatures depend only on the task, never on the partition).
///
/// [`new`](Self::new) enumerates every task up front. The session's own
/// cache is lazy instead: it enumerates a task the first time an analysis
/// needs that task's signatures, so a task that Algorithm 1 decides
/// without them is never enumerated.
#[derive(Debug, Clone)]
pub struct SignatureCache {
    per_task: Vec<OnceCell<PathSignatures>>,
}

impl SignatureCache {
    /// Enumerates signatures for every task under the config's caps, via
    /// the signature-domain dynamic program (dedup at every merge point;
    /// dominance pruning when `cfg.prune_dominated` is set).
    pub fn new(tasks: &TaskSet, cfg: &AnalysisConfig) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| OnceCell::from(enumerate(t, cfg)))
            .collect();
        SignatureCache { per_task }
    }

    /// A cache that enumerates each task on first use, under the caps of
    /// the configuration the first analysis passes in.
    pub(crate) fn lazy(task_count: usize) -> Self {
        SignatureCache {
            per_task: (0..task_count).map(|_| OnceCell::new()).collect(),
        }
    }

    /// [`new`](Self::new) through the depth-first reference enumerator
    /// (never prunes). Kept for the DFS-vs-DP equivalence tests and the
    /// enumeration benches; analysis results are bit-identical whenever
    /// neither enumerator truncates.
    pub fn new_dfs(tasks: &TaskSet, cfg: &AnalysisConfig) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| {
                OnceCell::from(enumerate_signatures_capped(
                    t,
                    cfg.path_signature_cap,
                    cfg.path_visit_cap,
                ))
            })
            .collect();
        SignatureCache { per_task }
    }

    /// The signatures of one task.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range, or if a lazy cache has not
    /// enumerated it yet.
    pub fn signatures(&self, task: TaskId) -> &PathSignatures {
        self.per_task[task.index()]
            .get()
            .expect("a lazy signature cache reads only enumerated tasks")
    }

    /// The signatures of `task`, enumerated under `cfg` now if this is a
    /// lazy cache's first use of the task.
    fn signatures_of(&self, task: &DagTask, cfg: &AnalysisConfig) -> &PathSignatures {
        self.per_task[task.id().index()].get_or_init(|| enumerate(task, cfg))
    }

    /// Whether the task's signatures are already in the cache.
    fn is_enumerated(&self, task: TaskId) -> bool {
        self.per_task[task.index()].get().is_some()
    }
}

/// One task's signatures under the config's caps and pruning.
fn enumerate(task: &DagTask, cfg: &AnalysisConfig) -> PathSignatures {
    enumerate_signatures_dp_capped(
        task,
        cfg.path_signature_cap,
        cfg.path_visit_cap,
        cfg.prune_dominated,
    )
}

/// The whole-task-set analysis behind `AnalysisSession::analyze` (and,
/// with `mixed` set, `analyze_mixed`): tasks in decreasing priority
/// order, each converged bound feeding the remaining tasks' `η_j`, one
/// scratch across all of them.
pub(crate) fn analyze_impl(
    tasks: &TaskSet,
    partition: &Partition,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
    mixed: bool,
) -> SchedulabilityReport {
    analyze_tasks(tasks, partition, cfg, cache, scratch, mixed, false)
        .expect("a full analysis runs every task")
}

/// Algorithm 1's decision over one partition: [`analyze_impl`]'s report
/// when every task passes, else the first failing task in decreasing
/// priority order.
///
/// Every task before the first failure passed with its bound computed in
/// full, so each later task sees the same `R_j` as in the full analysis
/// and the outcome is exactly the full report's. Under EP a task whose
/// longest path already misses its deadline ([`longest_path_exceeds`])
/// fails before its signatures are enumerated.
pub(crate) fn first_failure_impl(
    tasks: &TaskSet,
    partition: &Partition,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
    mixed: bool,
) -> Result<SchedulabilityReport, TaskId> {
    analyze_tasks(tasks, partition, cfg, cache, scratch, mixed, true)
}

/// The priority-ordered loop behind [`analyze_impl`] and
/// [`first_failure_impl`]; `decide` stops it at the first failing task.
fn analyze_tasks(
    tasks: &TaskSet,
    partition: &Partition,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
    mixed: bool,
    decide: bool,
) -> Result<SchedulabilityReport, TaskId> {
    let mut ctx = AnalysisContext::new(tasks, partition);
    let mut bounds: Vec<Option<TaskBound>> = vec![None; tasks.len()];
    let mut all_ok = true;
    let mut any_truncated = false;
    for i in tasks.by_decreasing_priority() {
        let light = mixed && !ctx.task(i).is_heavy();
        // The longest-path proof saves the enumeration it avoids, so only
        // a task not yet enumerated tries it.
        if decide
            && !light
            && cfg.variant == AnalysisVariant::EnumeratePaths
            && !cache.is_enumerated(i)
            && longest_path_exceeds(&ctx, i, cfg)
        {
            return Err(i);
        }
        let bound = analyze_task_impl(&ctx, i, cfg, cache, scratch, light);
        if decide && !bound.schedulable {
            return Err(i);
        }
        if let Some(w) = bound.wcrt {
            ctx.set_response_bound(i, w);
        }
        all_ok &= bound.schedulable;
        any_truncated |= bound.truncated;
        bounds[i.index()] = Some(bound);
    }
    Ok(SchedulabilityReport {
        task_bounds: bounds.into_iter().map(Option::unwrap).collect(),
        schedulable: all_ok,
        truncated: any_truncated,
    })
}

/// Whether Theorem 1 on `τ_i`'s longest path `λ*` exceeds `D_i`, which
/// proves the EP bound unschedulable without enumerating a path.
///
/// The EP bound dominates the bound of the single path `λ*`: without
/// truncation the (pruned) signature set holds `λ*`'s signature or a
/// dominator of it (equal request vector, no shorter, no less critical
/// content), and a truncated task reports the EN bound, which dominates
/// every signature (`en_dominates_every_single_signature`). By the orbit
/// comparison in the [`screen`] module docs, a dominating recurrence has
/// no fixed point at or below `D_i` when `λ*`'s orbit exceeds it. An orbit
/// that merely exhausts `max_fixpoint_iterations` proves nothing (the
/// dominating orbit may converge in fewer steps), so it decides nothing.
fn longest_path_exceeds(ctx: &AnalysisContext<'_>, i: TaskId, cfg: &AnalysisConfig) -> bool {
    let task = ctx.task(i);
    let lambda = PathSignature::from_path(task, task.longest_path());
    wcrt::wcrt_for_signature_direct(ctx, i, &lambda, cfg) == Err(Unsolved::Exceeded)
}

/// One task's bound: the sequential tabled bound for a `light` task of a
/// mixed partition, else Theorem 1 under the configured variant (EP
/// through the batched kernel over the task's signatures; a truncated
/// task reports the dominating EN fallback, one evaluation).
fn analyze_task_impl(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
    light: bool,
) -> TaskBound {
    let task = ctx.task(i);
    let (result, evaluated, truncated) = if light {
        (light::wcrt_light_with(ctx, i, cfg, scratch), 1, false)
    } else {
        match cfg.variant {
            AnalysisVariant::EnumeratePaths => {
                let sigs = cache.signatures_of(task, cfg);
                let evaluated = if sigs.truncated {
                    1
                } else {
                    sigs.signatures.len()
                };
                let bound = wcrt::wcrt_over_signatures_batched(ctx, i, sigs, cfg, scratch);
                (bound, evaluated, sigs.truncated)
            }
            AnalysisVariant::EnumerateRequestCounts => (wcrt::wcrt_en(ctx, i, cfg), 1, false),
        }
    };
    TaskBound {
        task: i,
        wcrt: result.as_ref().map(|b| b.wcrt),
        schedulable: result.as_ref().is_some_and(|b| b.wcrt <= task.deadline()),
        breakdown: result.map(|b| b.breakdown),
        signatures_evaluated: evaluated,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use dpcp_model::fig1;

    #[test]
    fn fig1_is_schedulable_under_both_variants() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        for cfg in [AnalysisConfig::ep(), AnalysisConfig::en()] {
            let report = AnalysisSession::new(cfg.clone()).analyze(&tasks, &partition);
            assert!(report.schedulable, "variant {:?}", cfg.variant);
            for tb in &report.task_bounds {
                let w = tb.wcrt.unwrap();
                assert!(w <= tasks.task(tb.task).deadline());
                assert!(tb.breakdown.is_some());
            }
        }
    }

    #[test]
    fn ep_bounds_never_exceed_en_bounds() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let ep = AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition);
        let en = AnalysisSession::new(AnalysisConfig::en()).analyze(&tasks, &partition);
        for (e, n) in ep.task_bounds.iter().zip(&en.task_bounds) {
            assert!(e.wcrt.unwrap() <= n.wcrt.unwrap());
        }
    }

    #[test]
    fn report_indexing() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let report = AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition);
        assert_eq!(report.bound(TaskId::new(1)).task, TaskId::new(1));
    }

    #[test]
    fn higher_priority_bound_feeds_lower_priority_eta() {
        // The lower-priority task's analysis must use the *computed* bound
        // of the higher-priority one, not its deadline — verify by checking
        // the analysis is no worse than a fresh context (where R = D).
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let cfg = AnalysisConfig::ep();
        let cache = SignatureCache::new(&tasks, &cfg);
        let report = analyze_impl(
            &tasks,
            &partition,
            &cfg,
            &cache,
            &mut EvalScratch::new(),
            false,
        );

        let order = tasks.by_decreasing_priority();
        let lo = order[1];
        // Fresh context: R_hi = D (pessimistic).
        let ctx = AnalysisContext::new(&tasks, &partition);
        let pessimistic = analyze_task_impl(&ctx, lo, &cfg, &cache, &mut EvalScratch::new(), false);
        assert!(report.bound(lo).wcrt.unwrap() <= pessimistic.wcrt.unwrap());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(AnalysisVariant::EnumeratePaths.to_string(), "DPCP-p-EP");
        assert_eq!(
            AnalysisVariant::EnumerateRequestCounts.to_string(),
            "DPCP-p-EN"
        );
    }

    #[test]
    fn shared_scratch_matches_throwaway_state() {
        // The memoized pipeline (one EvalScratch across all tasks, reset
        // between them) must be observationally identical to fresh state
        // per task — same bounds, same breakdowns, same schedulability.
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        for cfg in [AnalysisConfig::ep(), AnalysisConfig::en()] {
            let cache = SignatureCache::new(&tasks, &cfg);
            let shared = analyze_impl(
                &tasks,
                &partition,
                &cfg,
                &cache,
                &mut EvalScratch::new(),
                false,
            );
            let mut ctx = AnalysisContext::new(&tasks, &partition);
            let mut bounds = Vec::new();
            for i in tasks.by_decreasing_priority() {
                let b = analyze_task_impl(&ctx, i, &cfg, &cache, &mut EvalScratch::new(), false);
                if let Some(w) = b.wcrt {
                    ctx.set_response_bound(i, w);
                }
                bounds.push((i, b));
            }
            for (i, fresh) in bounds {
                assert_eq!(shared.bound(i), &fresh, "variant {:?}", cfg.variant);
            }
        }
    }

    #[test]
    fn signature_cache_is_partition_independent() {
        let tasks = fig1::task_set().unwrap();
        // Unpruned: the distinct-signature counts below are the complete
        // enumeration's (the default config prunes dominated signatures).
        let cfg = AnalysisConfig {
            prune_dominated: false,
            ..AnalysisConfig::ep()
        };
        let cache = SignatureCache::new(&tasks, &cfg);
        assert_eq!(cache.signatures(TaskId::new(0)).signatures.len(), 3);
        // τ_j: paths through v4 and v5 share a signature → 3 distinct.
        assert_eq!(cache.signatures(TaskId::new(1)).signatures.len(), 3);
    }

    #[test]
    fn an_exhausted_longest_path_orbit_decides_nothing() {
        // A truncated task reports the EN bound, whose orbits can converge
        // in fewer iterations than λ*'s own. In this panel-A set (every
        // task truncated by a cap of one signature) at a budget of three
        // iterations, τ1's longest-path orbit runs out of budget while its
        // EN bound converges below D_1: the longest path must leave τ1 to
        // its bound, and the first failure must equal the full analysis's.
        use crate::partition::{assign_resources, layout_clusters, ResourceHeuristic};
        use dpcp_gen::scenario::{Fig2Panel, Scenario};
        use dpcp_model::{initial_processors, Platform};
        use rand::{rngs::StdRng, SeedableRng};

        let scenario = Scenario::fig2(Fig2Panel::A);
        let platform = Platform::new(scenario.m).unwrap();
        let mut rng = StdRng::seed_from_u64(0xE8A0_0000 + 113);
        let tasks = scenario.sample_task_set(4.0, &mut rng).unwrap();
        let sizes: Vec<usize> = tasks
            .iter()
            .map(initial_processors)
            .collect::<Option<_>>()
            .unwrap();
        let layout = layout_clusters(&sizes, scenario.m).unwrap();
        let homes =
            assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing).unwrap();
        let partition = Partition::new(&tasks, &platform, layout, homes).unwrap();
        let cfg = AnalysisConfig {
            path_signature_cap: 1,
            max_fixpoint_iterations: 3,
            ..AnalysisConfig::ep()
        };
        let cache = SignatureCache::new(&tasks, &cfg);
        let full = analyze_impl(
            &tasks,
            &partition,
            &cfg,
            &cache,
            &mut EvalScratch::new(),
            false,
        );

        // τ1's context in the analysis: every higher-priority task passed.
        let tau1 = TaskId::new(1);
        let mut ctx = AnalysisContext::new(&tasks, &partition);
        for i in tasks.by_decreasing_priority() {
            if i == tau1 {
                break;
            }
            let bound = full.bound(i);
            assert!(bound.schedulable, "{i} passes before τ1");
            ctx.set_response_bound(i, bound.wcrt.unwrap());
        }
        let task = tasks.task(tau1);
        let lambda = PathSignature::from_path(task, task.longest_path());
        assert!(cache.signatures(tau1).truncated);
        assert_eq!(
            wcrt::wcrt_for_signature_direct(&ctx, tau1, &lambda, &cfg),
            Err(Unsolved::Exhausted)
        );
        assert!(full.bound(tau1).schedulable);
        assert!(!longest_path_exceeds(&ctx, tau1, &cfg));

        let reference = tasks
            .by_decreasing_priority()
            .into_iter()
            .find(|&i| !full.bound(i).schedulable)
            .map_or(Ok(full), Err);
        let decided = first_failure_impl(
            &tasks,
            &partition,
            &cfg,
            &SignatureCache::lazy(tasks.len()),
            &mut EvalScratch::new(),
            false,
        );
        assert_eq!(decided, reference);
    }

    #[test]
    fn a_task_decided_by_its_longest_path_is_never_enumerated() {
        // Two tasks hammering one resource homed on τ0's only processor:
        // the lower-priority task's longest path alone blows past its
        // deadline, so the first failure names it without enumeration,
        // and nothing below it is reached.
        use dpcp_model::{DagTask, Platform, ProcessorId, RequestSpec, ResourceId, VertexSpec};
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
        let tasks = TaskSet::new(vec![mk(0), mk(1)], 1).unwrap();
        let p = ProcessorId::new;
        let partition = Partition::new(
            &tasks,
            &Platform::new(2).unwrap(),
            vec![vec![p(0)], vec![p(1)]],
            [(ResourceId::new(0), p(0))].into_iter().collect(),
        )
        .unwrap();
        let cfg = AnalysisConfig::ep();
        let cache = SignatureCache::lazy(tasks.len());
        let decided = first_failure_impl(
            &tasks,
            &partition,
            &cfg,
            &cache,
            &mut EvalScratch::new(),
            false,
        );
        let full = analyze_impl(
            &tasks,
            &partition,
            &cfg,
            &SignatureCache::new(&tasks, &cfg),
            &mut EvalScratch::new(),
            false,
        );
        let failing = tasks
            .by_decreasing_priority()
            .into_iter()
            .find(|&i| !full.bound(i).schedulable)
            .expect("the contended set fails");
        assert_eq!(decided, Err(failing));
        assert!(!cache.is_enumerated(failing));
        let order = tasks.by_decreasing_priority();
        let at = order.iter().position(|&i| i == failing).unwrap();
        assert!(order[at..].iter().all(|&i| !cache.is_enumerated(i)));
    }
}
