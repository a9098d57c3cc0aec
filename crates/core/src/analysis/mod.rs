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

use dpcp_model::{
    enumerate_signatures_capped, enumerate_signatures_dp_capped, Partition, PathSignatures, TaskId,
    TaskSet, Time,
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

/// Pre-enumerated path signatures, shareable across partitioning rounds
/// (signatures depend only on the task, never on the partition).
#[derive(Debug, Clone)]
pub struct SignatureCache {
    per_task: Vec<PathSignatures>,
}

impl SignatureCache {
    /// Enumerates signatures for every task under the config's caps, via
    /// the signature-domain dynamic program (dedup at every merge point;
    /// dominance pruning when `cfg.prune_dominated` is set).
    pub fn new(tasks: &TaskSet, cfg: &AnalysisConfig) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| {
                enumerate_signatures_dp_capped(
                    t,
                    cfg.path_signature_cap,
                    cfg.path_visit_cap,
                    cfg.prune_dominated,
                )
            })
            .collect();
        SignatureCache { per_task }
    }

    /// [`new`](Self::new) through the depth-first reference enumerator
    /// (never prunes). Kept for the DFS-vs-DP equivalence tests and the
    /// enumeration benches; analysis results are bit-identical whenever
    /// neither enumerator truncates.
    pub fn new_dfs(tasks: &TaskSet, cfg: &AnalysisConfig) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| enumerate_signatures_capped(t, cfg.path_signature_cap, cfg.path_visit_cap))
            .collect();
        SignatureCache { per_task }
    }

    /// A cache with no signatures, for analyses that never consult paths
    /// (the EN variant).
    pub fn empty(task_count: usize) -> Self {
        SignatureCache {
            per_task: (0..task_count)
                .map(|_| PathSignatures {
                    signatures: Vec::new(),
                    truncated: false,
                    paths_visited: 0,
                })
                .collect(),
        }
    }

    /// The signatures of one task.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range.
    pub fn signatures(&self, task: TaskId) -> &PathSignatures {
        &self.per_task[task.index()]
    }
}

/// The whole-task-set analysis behind `AnalysisSession::analyze`: tasks in decreasing priority order,
/// each converged bound feeding the remaining tasks' `η_j`, one scratch
/// across all of them.
pub(crate) fn analyze_impl(
    tasks: &TaskSet,
    partition: &Partition,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
) -> SchedulabilityReport {
    let mut ctx = AnalysisContext::new(tasks, partition);
    let mut bounds: Vec<Option<TaskBound>> = vec![None; tasks.len()];
    let mut all_ok = true;
    let mut any_truncated = false;
    for i in tasks.by_decreasing_priority() {
        let bound = analyze_task_impl(&ctx, i, cfg, cache, scratch);
        if let Some(w) = bound.wcrt {
            ctx.set_response_bound(i, w);
        }
        all_ok &= bound.schedulable;
        any_truncated |= bound.truncated;
        bounds[i.index()] = Some(bound);
    }
    SchedulabilityReport {
        task_bounds: bounds.into_iter().map(Option::unwrap).collect(),
        schedulable: all_ok,
        truncated: any_truncated,
    }
}

/// The EP arm shared by the session's EP path and the mixed analysis:
/// the batched kernel's task bound over the cached signatures plus the
/// `(evaluated, truncated)` accounting. Truncated tasks skip the
/// per-signature sweep and report the dominating EN fallback directly —
/// one evaluation.
pub(crate) fn evaluate_ep_arm(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
) -> (Option<wcrt::PathBound>, usize, bool) {
    let sigs = cache.signatures(i);
    let evaluated = if sigs.truncated {
        1
    } else {
        sigs.signatures.len()
    };
    let bound = wcrt::wcrt_over_signatures_batched(ctx, i, sigs, cfg, scratch);
    (bound, evaluated, sigs.truncated)
}

/// The single-task analysis primitive behind the session and the mixed
/// analysis.
pub(crate) fn analyze_task_impl(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    cfg: &AnalysisConfig,
    cache: &SignatureCache,
    scratch: &mut EvalScratch,
) -> TaskBound {
    let deadline = ctx.task(i).deadline();
    let (result, evaluated, truncated) = match cfg.variant {
        AnalysisVariant::EnumeratePaths => evaluate_ep_arm(ctx, i, cfg, cache, scratch),
        AnalysisVariant::EnumerateRequestCounts => (wcrt::wcrt_en(ctx, i, cfg), 1, false),
    };
    match result {
        Some(b) => TaskBound {
            task: i,
            wcrt: Some(b.wcrt),
            schedulable: b.wcrt <= deadline,
            breakdown: Some(b.breakdown),
            signatures_evaluated: evaluated,
            truncated,
        },
        None => TaskBound {
            task: i,
            wcrt: None,
            schedulable: false,
            breakdown: None,
            signatures_evaluated: evaluated,
            truncated,
        },
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
        let report = analyze_impl(&tasks, &partition, &cfg, &cache, &mut EvalScratch::new());

        let order = tasks.by_decreasing_priority();
        let lo = order[1];
        // Fresh context: R_hi = D (pessimistic).
        let ctx = AnalysisContext::new(&tasks, &partition);
        let pessimistic = analyze_task_impl(&ctx, lo, &cfg, &cache, &mut EvalScratch::new());
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
            let shared = analyze_impl(&tasks, &partition, &cfg, &cache, &mut EvalScratch::new());
            let mut ctx = AnalysisContext::new(&tasks, &partition);
            let mut bounds = Vec::new();
            for i in tasks.by_decreasing_priority() {
                let b = analyze_task_impl(&ctx, i, &cfg, &cache, &mut EvalScratch::new());
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
}
