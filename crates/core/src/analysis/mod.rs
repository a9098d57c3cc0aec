//! Worst-case response-time analysis for DPCP-p (Sec. IV).
//!
//! The entry point is [`AnalysisSession::analyze`](crate::session::AnalysisSession::analyze):
//! given a task set and a partition it bounds every task's WCRT via the
//! per-path analysis of Theorem 1 and reports schedulability. Tasks are
//! processed in decreasing priority order; each computed bound feeds the
//! job-count function `η_j` of the remaining tasks. A task not yet
//! analysed (every lower-priority one) enters with `R_j = D_j`. That is
//! sound because a set is accepted only when every computed bound is at
//! most its deadline, so `R_j ≤ D_j` holds for every task of an accepted
//! set.
//!
//! Two variants mirror the paper's evaluation:
//! [`AnalysisVariant::EnumeratePaths`] (`DPCP-p-EP`) and
//! [`AnalysisVariant::EnumerateRequestCounts`] (`DPCP-p-EN`).
//!
//! # The per-set task-bound memo
//!
//! Algorithm 1's rounds and the placement search's seeds and probes
//! re-analyse the same task set under many placements, and most of them
//! leave a given task's inputs unchanged. The session's lazy
//! [`SignatureCache`] therefore carries a memo of heavy tasks' EP
//! [`TaskBound`]s, keyed by everything one task's analysis reads. A hit
//! replaces both the longest-path witness and the batched kernel.
//!
//! **The read-set.** The task set and the enumeration parameters are
//! fixed for the memo's lifetime (the session replaces the cache, memo
//! included, when either changes). Beyond them, a heavy task `τ_i`'s EP
//! bound reads only:
//!
//! - `max_fixpoint_iterations` (every orbit's budget) and `i` itself;
//! - `m_i` ([`AnalysisContext::cluster_size`], the divisor of Theorem 1);
//! - the co-location classes of the global resources: which globals share
//!   a home processor. Every processor-indexed read reaches its processor
//!   only through the resources homed there: `Φ(℘_k)` in Eq. 7
//!   (`resources_on`), `Φ^℘(ℓ_q)` in β and in `W_{i,q}`'s intra term
//!   (`co_located`), and the per-processor demand sums `cs_demand_on`
//!   behind `ζ^k` (Eq. 5) and `γ` (Eq. 2), which `home_of` selects by
//!   `ℓ_q`'s home. The ε rows of Eq. 4 and the demand-table rows are
//!   keyed by processor id, but consistently within one analysis, so a
//!   relabelling of processors maps every lookup onto itself.
//!   `resource_processors` only fixes the order of saturating sums of
//!   non-negative terms, which commute;
//! - for each class, whether its home lies in `τ_i`'s cluster: this
//!   selects `Φ^℘(τ_i)` (`resources_on_cluster`, Eq. 9) and
//!   `cluster_cs_demand` (Eq. 8);
//! - `R_j` of every task (`response_bound`, through `η_j`), including
//!   the deadlines still standing in for unanalysed tasks;
//! - the ceilings (`ceiling_base`), fixed by the task set.
//!
//! Processor ids stay out of the key: the search's `MigrateProcessor`
//! re-lays every cluster, so one placement recurs under new ids. The
//! key holds the budget, `i`, `m_i`, one word per global resource in
//! ascending id order (the lowest global resource on its home, and the
//! in-cluster flag) and every `R_j`.
//!
//! **Never memoised:** light tasks of a mixed partition (their bound
//! reads the shared processor and its sharers through `ctx.partition`),
//! anything under EN, and analyses over caller-provided signatures
//! ([`SignatureCache::new`] and [`SignatureCache::new_dfs`] carry no
//! memo, which makes them the memo-free reference). The memo holds at
//! most [`TASK_BOUND_MEMO_CAP`] bounds per set and stops storing when
//! full; what it holds never changes a result, only how fast one comes.
//! Debug builds recompute every hit and assert it equal.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;

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
pub use screen::cluster_width_floors;
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

/// Tuning knobs for the analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Which variant to run.
    pub variant: AnalysisVariant,
    /// Maximum number of distinct path signatures enumerated per task
    /// before its bound falls back to the EN bound, which is never below
    /// any path's bound ([`TaskBound::truncated`] marks such a task).
    pub path_signature_cap: usize,
    /// Maximum number of complete paths walked per task (dense-DAG guard).
    pub path_visit_cap: u64,
    /// Iteration budget for every fixed-point recurrence of the DPCP-p
    /// analysis (and its placement screen); exhaustion is treated as
    /// divergence (sound). The local-execution baselines
    /// (`dpcp_baselines::Baseline`) do not read it: their recurrences
    /// always run with a budget of 512, whatever the request sets.
    pub max_fixpoint_iterations: usize,
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
/// without them is never enumerated. Only the lazy cache carries the
/// task-bound memo (see the module docs).
#[derive(Debug, Clone)]
pub struct SignatureCache {
    per_task: Vec<OnceCell<PathSignatures>>,
    memo: Option<RefCell<TaskBoundMemo>>,
}

impl SignatureCache {
    /// Enumerates signatures for every task under the config's caps, via
    /// the signature-domain dynamic program (dedup and dominance pruning
    /// at every merge point).
    pub fn new(tasks: &TaskSet, cfg: &AnalysisConfig) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| OnceCell::from(enumerate(t, cfg)))
            .collect();
        SignatureCache {
            per_task,
            memo: None,
        }
    }

    /// A cache that enumerates each task on first use, under the caps of
    /// the configuration the first analysis passes in, with an empty
    /// task-bound memo.
    pub(crate) fn lazy(task_count: usize) -> Self {
        SignatureCache {
            per_task: (0..task_count).map(|_| OnceCell::new()).collect(),
            memo: Some(RefCell::default()),
        }
    }

    /// A cache for an analysis that reads no signatures (EN): nothing to
    /// enumerate and no memo.
    pub(crate) fn unread() -> Self {
        SignatureCache {
            per_task: Vec::new(),
            memo: None,
        }
    }

    /// The task-bound memo's counters: zeros for a cache without one,
    /// which every cache built by [`new`](Self::new) and
    /// [`new_dfs`](Self::new_dfs) is.
    pub fn memo_counters(&self) -> MemoCounters {
        self.memo.as_ref().map_or_else(MemoCounters::default, |m| {
            let m = m.borrow();
            MemoCounters {
                hits: m.hits,
                misses: m.misses,
                entries: m.bounds.len(),
            }
        })
    }

    /// [`new`](Self::new) through the depth-first reference enumerator:
    /// every distinct signature, no pruning, no memo. Kept for the
    /// DFS-vs-DP equivalence tests; whenever neither enumerator truncates,
    /// every WCRT, breakdown and verdict equals the pruned cache's, and
    /// only `signatures_evaluated` may be larger.
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
        SignatureCache {
            per_task,
            memo: None,
        }
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

/// One task's signatures under the config's caps.
fn enumerate(task: &DagTask, cfg: &AnalysisConfig) -> PathSignatures {
    enumerate_signatures_dp_capped(task, cfg.path_signature_cap, cfg.path_visit_cap)
}

/// The most bounds one task set's memo holds; later misses are computed
/// as usual and not stored.
pub const TASK_BOUND_MEMO_CAP: usize = 4096;

/// Read-only counters of the task-bound memo for the session's current
/// task set (see the module docs). They depend only on the sequence of
/// analyses run, never on timing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoCounters {
    /// Heavy-task EP analyses served from the memo.
    pub hits: u64,
    /// Heavy-task EP analyses the memo could not serve.
    pub misses: u64,
    /// Bounds held, at most [`TASK_BOUND_MEMO_CAP`].
    pub entries: usize,
}

/// Heavy tasks' EP bounds for one task set, keyed by everything one
/// task's analysis reads (see the module docs). The keys derive from
/// request bodies, so the map keeps the collision-resistant default
/// hasher.
#[derive(Debug, Clone, Default)]
struct TaskBoundMemo {
    bounds: HashMap<Box<[u64]>, TaskBound>,
    /// The key of the last [`get`](Self::get), which
    /// [`insert`](Self::insert) stores under.
    key: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl TaskBoundMemo {
    /// The stored bound of `τ_i` under `ctx` at `cfg`'s budget, if any.
    fn get(
        &mut self,
        ctx: &AnalysisContext<'_>,
        i: TaskId,
        cfg: &AnalysisConfig,
    ) -> Option<TaskBound> {
        let key = &mut self.key;
        key.clear();
        key.push(cfg.max_fixpoint_iterations as u64);
        key.push(i.index() as u64);
        key.push(ctx.cluster_size(i));
        let cluster = ctx.partition.cluster(i);
        key.extend(ctx.tasks.global_resources().map(|q| match ctx.home_of(q) {
            // The co-location class is named by the lowest global resource
            // on the home, so it does not depend on the processor's id.
            Some(home) => {
                let class = ctx.resources_on(home)[0].index() as u64;
                (class << 1) | u64::from(cluster.contains(&home))
            }
            None => u64::MAX,
        }));
        key.extend(ctx.tasks.iter().map(|t| ctx.response_bound(t.id()).as_ns()));
        let hit = self.bounds.get(key.as_slice()).cloned();
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Stores `bound` under the key of the last [`get`](Self::get), unless
    /// the memo is full.
    fn insert(&mut self, bound: TaskBound) {
        if self.bounds.len() < TASK_BOUND_MEMO_CAP {
            self.bounds.insert(self.key.as_slice().into(), bound);
        }
    }
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
///
/// Under EP a heavy task first asks the cache's task-bound memo, if it
/// has one. A stored bound is the bound the analysis would compute, so
/// an unschedulable one fails the task exactly as the witness or the
/// full bound would.
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
    let ep = cfg.variant == AnalysisVariant::EnumeratePaths;
    let memo = cache.memo.as_ref().filter(|_| ep);
    for i in tasks.by_decreasing_priority() {
        let light = mixed && !ctx.task(i).is_heavy();
        let memo = memo.filter(|_| !light);
        let bound = match memo.and_then(|m| m.borrow_mut().get(&ctx, i, cfg)) {
            Some(bound) => {
                debug_assert_eq!(
                    bound,
                    analyze_task_impl(&ctx, i, cfg, cache, scratch, false),
                    "memoised bound of {i}"
                );
                bound
            }
            None => {
                // The longest-path proof saves the enumeration it avoids,
                // so only a task not yet enumerated tries it.
                if decide
                    && !light
                    && ep
                    && !cache.is_enumerated(i)
                    && longest_path_exceeds(&ctx, i, cfg)
                {
                    return Err(i);
                }
                let bound = analyze_task_impl(&ctx, i, cfg, cache, scratch, light);
                if let Some(m) = memo {
                    m.borrow_mut().insert(bound.clone());
                }
                bound
            }
        };
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
/// truncation the signature set (pruned or not) holds `λ*`'s signature or a
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
    fn the_memo_key_ignores_processor_ids_but_not_whether_a_home_is_in_the_cluster() {
        // fig1 homes ℓ1 on ℘1, inside τ_j's cluster {℘0, ℘1}. ℘0 is the
        // same placement under another id, so every task hits; ℘2 lies in
        // τ_i's cluster instead, which only the in-cluster flag tells.
        use dpcp_model::ProcessorId;
        let (platform, partition, tasks) = fig1::platform_and_partition().unwrap();
        let cfg = AnalysisConfig::ep();
        let homed_on = |p: usize| {
            let homes = [(fig1::GLOBAL_RESOURCE, ProcessorId::new(p))];
            Partition::new(
                &tasks,
                &platform,
                partition.clusters().to_vec(),
                homes.into_iter().collect(),
            )
            .unwrap()
        };
        let cache = SignatureCache::lazy(tasks.len());
        let reference = SignatureCache::new(&tasks, &cfg);
        let mut scratch = EvalScratch::new();
        let n = tasks.len() as u64;
        for (home, hits) in [(1, 0), (0, n), (2, n)] {
            let placed = homed_on(home);
            let report = analyze_impl(&tasks, &placed, &cfg, &cache, &mut scratch, false);
            let memo_free = analyze_impl(&tasks, &placed, &cfg, &reference, &mut scratch, false);
            assert_eq!(report, memo_free, "ℓ1 on ℘{home}");
            assert_eq!(cache.memo_counters().hits, hits, "ℓ1 on ℘{home}");
        }
    }

    #[test]
    fn the_memo_stops_storing_at_its_cap() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let cfg = AnalysisConfig::ep();
        let mut ctx = AnalysisContext::new(&tasks, &partition);
        let (other, analysed) = (TaskId::new(0), TaskId::new(1));
        let bound = analyze_task_impl(
            &ctx,
            analysed,
            &cfg,
            &SignatureCache::new(&tasks, &cfg),
            &mut EvalScratch::new(),
            false,
        );
        let cache = SignatureCache::lazy(tasks.len());
        let memo = cache.memo.as_ref().expect("a lazy cache has a memo");
        let past_cap = TASK_BOUND_MEMO_CAP as u64 + 100;
        // Each `R_j` of the other task is a distinct input of the analysis.
        for r in 1..=past_cap {
            ctx.set_response_bound(other, Time::from_ns(r));
            assert_eq!(memo.borrow_mut().get(&ctx, analysed, &cfg), None);
            memo.borrow_mut().insert(bound.clone());
        }
        let full = MemoCounters {
            hits: 0,
            misses: past_cap,
            entries: TASK_BOUND_MEMO_CAP,
        };
        assert_eq!(cache.memo_counters(), full);
        // The first inputs stay stored; the ones past the cap never were.
        ctx.set_response_bound(other, Time::from_ns(1));
        assert_eq!(memo.borrow_mut().get(&ctx, analysed, &cfg), Some(bound));
        ctx.set_response_bound(other, Time::from_ns(past_cap));
        assert_eq!(memo.borrow_mut().get(&ctx, analysed, &cfg), None);
        assert_eq!(cache.memo_counters().entries, TASK_BOUND_MEMO_CAP);
    }

    #[test]
    fn signature_cache_is_partition_independent() {
        let tasks = fig1::task_set().unwrap();
        let cfg = AnalysisConfig::ep();
        // The depth-first reference holds every distinct signature.
        let cache = SignatureCache::new_dfs(&tasks, &cfg);
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
