//! The unified analysis entry point: one [`AnalysisSession`] owns the
//! [`AnalysisConfig`], the per-task-set [`SignatureCache`] and the
//! [`EvalScratch`]. Every partitioning entry point runs the one
//! Algorithm 1 loop ([`partition`](crate::partition)); what differs is
//! the analyzer and the [`Placement`] it declares.
//!
//! A session is cheap to build and reusable: the signature cache is keyed
//! by the task set's structure plus the enumeration-relevant parts of the
//! configuration (the two path caps — nothing else), so
//! consecutive calls on the same task set (partition studies, top-up
//! loops, repeated analyses under different partitions) never
//! re-enumerate paths; the EN variant never reads signatures and leaves
//! the cached EP enumeration intact. The scratch's memo tables and
//! buffers stay allocated across calls, task sets and even protocols
//! (every per-task entry point resets the task-scoped state itself).
//!
//! The EP cache also carries the per-set task-bound memo
//! ([`analysis`](crate::analysis#the-per-set-task-bound-memo) states its
//! key and why the key is exact). Beside the task set and the enumeration
//! parameters, which the cache is keyed by, a heavy task's EP bound reads
//! only the fixed-point budget, its cluster size, which global resources
//! share a home and whether that home is in its cluster, and every
//! `R_j`; the memo key holds exactly these. The memo lives and dies with
//! the cache: a new task set or new enumeration parameters start an empty
//! one, a budget change keeps it (the budget is in the key), and EN never
//! reads it. [`AnalysisSession::memo_counters`] reads its counters.
//!
//! # Examples
//!
//! ```
//! use dpcp_core::{AnalysisConfig, AnalysisSession};
//! use dpcp_core::partition::ResourceHeuristic;
//! use dpcp_model::{fig1, Platform};
//!
//! let tasks = fig1::task_set()?;
//! let platform = Platform::new(4)?;
//! let mut session = AnalysisSession::new(AnalysisConfig::ep());
//! let outcome = session.partition_and_analyze(
//!     &tasks,
//!     &platform,
//!     ResourceHeuristic::WorstFitDecreasing,
//! );
//! assert!(outcome.is_schedulable());
//! # Ok::<(), dpcp_model::ModelError>(())
//! ```

use dpcp_model::{Partition, Platform, TaskId, TaskSet};

use crate::analysis::{
    analyze_impl, first_failure_impl, AnalysisConfig, AnalysisVariant, EvalScratch, MemoCounters,
    SchedulabilityReport, SignatureCache,
};
use crate::partition::{
    algorithm1_impl, PartitionOutcome, Placement, ResourceHeuristic, SchedAnalyzer,
};
use crate::registry::ProtocolAnalysis;

/// The configuration fields path enumeration actually depends on — the
/// signature-cache key deliberately excludes everything else (variant,
/// fixed-point budget), so config swaps that cannot change the
/// enumeration never invalidate the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EnumerationParams {
    path_signature_cap: usize,
    path_visit_cap: u64,
}

impl EnumerationParams {
    fn of(cfg: &AnalysisConfig) -> Self {
        EnumerationParams {
            path_signature_cap: cfg.path_signature_cap,
            path_visit_cap: cfg.path_visit_cap,
        }
    }
}

/// The EP signature cache together with the key it was built for: the
/// task set's structure and the enumeration parameters. Clones of a task
/// set compare equal and correctly share the cache (signatures depend
/// only on task structure, never on the partition). The cache is lazy: it
/// enumerates a task the first time an analysis reads its signatures, so
/// a task Algorithm 1 decides without them (or never reaches) is never
/// enumerated. The EN variant never reads signatures and never touches
/// this slot — an EP → EN → EP sequence on one session reuses the
/// enumeration. The cache owns the task-bound memo, so replacing the
/// slot empties the memo too.
#[derive(Debug)]
struct CachedSignatures {
    tasks: TaskSet,
    params: EnumerationParams,
    cache: SignatureCache,
}

/// A reusable analysis session: configuration + signature cache +
/// evaluation scratch behind one coherent API.
///
/// All DPCP-p entry points live here, one pair per job: the `_mixed`
/// variant is the Sec. VI model, which pools light tasks and bounds them
/// by the sequential analysis ([`analyze`](Self::analyze) /
/// [`analyze_mixed`](Self::analyze_mixed),
/// [`partition_and_analyze`](Self::partition_and_analyze) /
/// [`partition_and_analyze_mixed`](Self::partition_and_analyze_mixed)).
/// Algorithm 1 over any other [`SchedAnalyzer`] is
/// [`partition_with`](Self::partition_with). Protocol strategies from the
/// [`registry`](crate::registry) dispatch through [`run`](Self::run).
#[derive(Debug)]
pub struct AnalysisSession {
    cfg: AnalysisConfig,
    scratch: EvalScratch,
    cache: Option<CachedSignatures>,
}

impl AnalysisSession {
    /// A session over the given configuration.
    pub fn new(cfg: AnalysisConfig) -> Self {
        AnalysisSession {
            cfg,
            scratch: EvalScratch::new(),
            cache: None,
        }
    }

    /// The session's analysis configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Replaces the configuration, returning the previous one. The
    /// signature cache is keyed by the enumeration-relevant fields (the
    /// two path caps), so a change that affects enumeration invalidates
    /// it automatically on the next call — and one that cannot (variant,
    /// fixed-point budget) keeps it.
    pub fn set_config(&mut self, cfg: AnalysisConfig) -> AnalysisConfig {
        core::mem::replace(&mut self.cfg, cfg)
    }

    /// The canonical structural key of analysing `tasks` on `platform`
    /// with `protocol` under this session's configuration and
    /// `heuristic` — [`crate::dto::structural_key`] evaluated at the
    /// session's config. Invariant under task reordering and DAG vertex
    /// relabelling; what the serve crate's cross-request verdict cache
    /// is keyed by.
    pub fn structural_key(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
        protocol: &str,
    ) -> u64 {
        crate::dto::structural_key(tasks, platform, &self.cfg, heuristic, protocol)
    }

    /// Runs `f` under a temporarily replaced configuration (restored on
    /// return) — how registry protocols with a fixed variant (e.g. the EN
    /// baseline of a sweep) borrow a shared session.
    pub fn with_config<T>(
        &mut self,
        cfg: AnalysisConfig,
        f: impl FnOnce(&mut AnalysisSession) -> T,
    ) -> T {
        let saved = self.set_config(cfg);
        let out = f(self);
        self.cfg = saved;
        out
    }

    /// Replaces the EP signature cache (and with it the task-bound memo)
    /// with an empty lazy one when the task set or the enumeration
    /// parameters changed since the last call.
    /// Only the EP variant calls this; the identity clone it stores is paid
    /// once per `(task set, enumeration params)` and amortized across
    /// partition rounds, repeated analyses and protocol switches.
    fn ensure_ep_cache(&mut self, tasks: &TaskSet) {
        let params = EnumerationParams::of(&self.cfg);
        let stale = match &self.cache {
            Some(c) => c.params != params || c.tasks != *tasks,
            None => true,
        };
        if stale {
            self.cache = Some(CachedSignatures {
                tasks: tasks.clone(),
                params,
                cache: SignatureCache::lazy(tasks.len()),
            });
        }
    }

    /// Runs `f` with the signatures the current variant needs: the cached
    /// EP enumeration and its memo, or for EN (which never reads
    /// signatures) an empty cache without a memo — the EP slot is left
    /// untouched.
    fn with_cache<T>(
        &mut self,
        tasks: &TaskSet,
        f: impl FnOnce(&AnalysisConfig, &SignatureCache, &mut EvalScratch) -> T,
    ) -> T {
        match self.cfg.variant {
            AnalysisVariant::EnumeratePaths => {
                self.ensure_ep_cache(tasks);
                let cached = self.cache.as_ref().expect("ensure_ep_cache ran");
                f(&self.cfg, &cached.cache, &mut self.scratch)
            }
            AnalysisVariant::EnumerateRequestCounts => {
                f(&self.cfg, &SignatureCache::unread(), &mut self.scratch)
            }
        }
    }

    /// Analyses a `(task set, partition)` pair: every task's WCRT bound
    /// under Theorem 1 (EP) or the request-count bound (EN), in
    /// decreasing priority order.
    ///
    /// Every task is analysed, whatever the first failure, but under EP
    /// a heavy task whose inputs the session has already seen for this
    /// set is served from the task-bound memo. The memo-free reference is
    /// [`analyze_with_signatures`](Self::analyze_with_signatures) over an
    /// eager [`SignatureCache::new`].
    pub fn analyze(&mut self, tasks: &TaskSet, partition: &Partition) -> SchedulabilityReport {
        self.with_cache(tasks, |cfg, cache, scratch| {
            analyze_impl(tasks, partition, cfg, cache, scratch, false)
        })
    }

    /// [`analyze`](Self::analyze) over caller-provided signatures —
    /// for reference enumerators (e.g. the depth-first
    /// [`SignatureCache::new_dfs`]) and equivalence tests; the session's
    /// own cache is left untouched. Caller-built caches carry no
    /// task-bound memo, so this is the memo-free full-report reference:
    /// every task is analysed (and, under EP, solved) from scratch.
    pub fn analyze_with_signatures(
        &mut self,
        tasks: &TaskSet,
        partition: &Partition,
        cache: &SignatureCache,
    ) -> SchedulabilityReport {
        analyze_impl(tasks, partition, &self.cfg, cache, &mut self.scratch, false)
    }

    /// Analyses a mixed heavy/light partition (Sec. VI): Theorem 1 for
    /// heavy tasks, the sequential tabled bound for light ones.
    pub fn analyze_mixed(
        &mut self,
        tasks: &TaskSet,
        partition: &Partition,
    ) -> SchedulabilityReport {
        self.with_cache(tasks, |cfg, cache, scratch| {
            analyze_impl(tasks, partition, cfg, cache, scratch, true)
        })
    }

    /// [`analyze_mixed`](Self::analyze_mixed) over caller-provided
    /// signatures: the memo-free reference for the Sec. VI analysis, as
    /// [`analyze_with_signatures`](Self::analyze_with_signatures) is for
    /// [`analyze`](Self::analyze).
    pub fn analyze_mixed_with_signatures(
        &mut self,
        tasks: &TaskSet,
        partition: &Partition,
        cache: &SignatureCache,
    ) -> SchedulabilityReport {
        analyze_impl(tasks, partition, &self.cfg, cache, &mut self.scratch, true)
    }

    /// Algorithm 1 with the session's DPCP-p analysis: iterative
    /// partitioning with per-task processor top-up and
    /// resource-assignment rollback, every task on an exclusive cluster
    /// ([`Placement::DesignatedHomes`]; light tasks too, analysed by
    /// Theorem 1, as Fig. 1 models them). Each round stops at its first
    /// failing task, and under EP a task whose longest path already
    /// misses its deadline fails before it is enumerated; the outcome is
    /// exactly that of the same loop over [`analyze`](Self::analyze).
    ///
    /// A heavy task with `L*_i ≥ D_i` fits no cluster size: the set is
    /// unschedulable before any round, naming the highest-priority such
    /// task.
    pub fn partition_and_analyze(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        self.partition_dpcp(tasks, platform, heuristic, false)
    }

    /// Algorithm 1 extended to mixed heavy/light task sets (Sec. VI,
    /// [`Placement::SharedLightPool`]): heavy tasks keep exclusive
    /// federated clusters, light tasks are packed onto a shared pool and
    /// analysed by the sequential bound, and Algorithm 2 places resources
    /// over both. Rounds decide as in
    /// [`partition_and_analyze`](Self::partition_and_analyze), which this
    /// equals on a set without light tasks. The registry's DPCP-p
    /// protocols run this.
    pub fn partition_and_analyze_mixed(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        self.partition_dpcp(tasks, platform, heuristic, true)
    }

    fn partition_dpcp(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
        mixed: bool,
    ) -> PartitionOutcome {
        self.with_cache(tasks, |cfg, cache, scratch| {
            let analyzer = SessionDpcp { cfg, cache, mixed };
            algorithm1_impl(tasks, platform, heuristic, &analyzer, scratch)
        })
    }

    /// Algorithm 1's loop over any [`SchedAnalyzer`], laid out by the
    /// analyzer's [`placement`](SchedAnalyzer::placement) — how the
    /// baseline protocols (SPIN-SON, LPP, FED-FP, MPCP, DGA) run with the
    /// session's scratch. Analyses without per-task evaluation state
    /// ignore the scratch.
    pub fn partition_with(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
        analyzer: &dyn SchedAnalyzer,
    ) -> PartitionOutcome {
        algorithm1_impl(tasks, platform, heuristic, analyzer, &mut self.scratch)
    }

    /// The task-bound memo's counters for the session's current EP task
    /// set: hits, misses and stored bounds. Zeros before the first EP
    /// analysis; a new task set or new enumeration parameters reset them.
    pub fn memo_counters(&self) -> MemoCounters {
        self.cache
            .as_ref()
            .map_or_else(MemoCounters::default, |c| c.cache.memo_counters())
    }

    /// Dispatches one registry protocol over this session — sugar for
    /// [`ProtocolAnalysis::evaluate`].
    pub fn run(
        &mut self,
        protocol: &dyn ProtocolAnalysis,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        protocol.evaluate(self, tasks, platform, heuristic)
    }
}

impl Default for AnalysisSession {
    fn default() -> Self {
        AnalysisSession::new(AnalysisConfig::default())
    }
}

/// The session's DPCP-p analysis as a [`SchedAnalyzer`], borrowing the
/// session's configuration and cache; `mixed` selects the Sec. VI
/// analysis (the sequential bound for light tasks) and its shared pool.
struct SessionDpcp<'a> {
    cfg: &'a AnalysisConfig,
    cache: &'a SignatureCache,
    mixed: bool,
}

impl SchedAnalyzer for SessionDpcp<'_> {
    fn placement(&self) -> Placement {
        if self.mixed {
            Placement::SharedLightPool
        } else {
            Placement::DesignatedHomes
        }
    }

    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        scratch: &mut EvalScratch,
    ) -> SchedulabilityReport {
        analyze_impl(tasks, partition, self.cfg, self.cache, scratch, self.mixed)
    }

    fn first_failure(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        scratch: &mut EvalScratch,
    ) -> Result<SchedulabilityReport, TaskId> {
        first_failure_impl(tasks, partition, self.cfg, self.cache, scratch, self.mixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::fig1;

    #[test]
    fn cache_survives_repeat_calls_and_tracks_config() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let first = session.analyze(&tasks, &partition);
        // Same task set (a structural clone) → the cache is reused.
        let clone = tasks.clone();
        let second = session.analyze(&clone, &partition);
        assert_eq!(first, second);
        // A config change that affects enumeration rebuilds the cache and
        // still matches a fresh session.
        session.set_config(AnalysisConfig::en());
        let en = session.analyze(&tasks, &partition);
        let fresh = AnalysisSession::new(AnalysisConfig::en()).analyze(&tasks, &partition);
        assert_eq!(en, fresh);
    }

    #[test]
    fn en_calls_leave_the_ep_enumeration_intact() {
        // EP → EN → EP on one session must not re-enumerate: the EN
        // variant never reads signatures, so the EP slot survives. The
        // slot is also keyed only by enumeration-relevant config — a
        // fixed-point-budget change keeps it.
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let ep_first = session.analyze(&tasks, &partition);
        let slot_ptr = |s: &AnalysisSession| {
            s.cache
                .as_ref()
                .map(|c| c.cache.signatures(dpcp_model::TaskId::new(0)) as *const _)
        };
        let before = slot_ptr(&session).expect("EP call filled the slot");
        let en = session.with_config(AnalysisConfig::en(), |s| s.analyze(&tasks, &partition));
        assert_eq!(
            en,
            AnalysisSession::new(AnalysisConfig::en()).analyze(&tasks, &partition)
        );
        assert_eq!(slot_ptr(&session), Some(before), "EN replaced the EP slot");
        let mut budget = session.config().clone();
        budget.max_fixpoint_iterations += 1;
        session.set_config(budget);
        let ep_again = session.analyze(&tasks, &partition);
        assert_eq!(ep_first, ep_again);
        assert_eq!(
            slot_ptr(&session),
            Some(before),
            "a fixed-point budget change rebuilt the enumeration"
        );
    }

    #[test]
    fn with_config_restores_the_base_configuration() {
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let inner_variant = session.with_config(AnalysisConfig::en(), |s| s.config().variant);
        assert_eq!(inner_variant, AnalysisVariant::EnumerateRequestCounts);
        assert_eq!(session.config().variant, AnalysisVariant::EnumeratePaths);
    }
}
