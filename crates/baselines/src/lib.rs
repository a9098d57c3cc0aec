//! Baseline locking-protocol analyses for the DPCP-p evaluation
//! (Sec. VII-B): SPIN-SON, LPP and the resource-oblivious FED-FP bound —
//! plus the reader-writer-aware extensions MPCP-SA, MPCP-SO and DGA.
//!
//! All six are variants of one type, [`Baseline`], which implements
//! [`dpcp_core::SchedAnalyzer`], so they plug into the same Algorithm 1
//! partitioning loop as DPCP-p itself — mirroring the paper's setup where
//! every protocol runs under federated scheduling. It also implements
//! [`dpcp_core::ProtocolAnalysis`], and [`standard_registry`] assembles
//! the paper's five compared methods in presentation order (`DPCP-p-EP`,
//! `DPCP-p-EN`, `SPIN-SON`, `LPP`, `FED-FP`), followed by the
//! reader-writer methods (`MPCP-SA`, `MPCP-SO`, `DGA`) and the
//! search-in-the-loop placement wrapper (`DPCP-p-EP/SEARCH`) — experiment
//! harnesses resolve methods by name from that registry instead of
//! hand-wiring protocol calls.
//!
//! # Examples
//!
//! Compare all five methods on the paper's Fig. 1 system:
//!
//! ```
//! use dpcp_baselines::standard_registry;
//! use dpcp_core::{AnalysisConfig, AnalysisSession, ResourceHeuristic};
//! use dpcp_model::{fig1, Platform};
//!
//! let tasks = fig1::task_set()?;
//! let platform = Platform::new(4)?;
//! let registry = standard_registry();
//! let mut session = AnalysisSession::new(AnalysisConfig::ep());
//! for protocol in registry.iter() {
//!     let outcome = session.run(
//!         protocol,
//!         &tasks,
//!         &platform,
//!         ResourceHeuristic::WorstFitDecreasing,
//!     );
//!     assert!(outcome.is_schedulable(), "{}", protocol.name());
//! }
//! # Ok::<(), dpcp_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{
    AnalysisSession, DpcpProtocol, Placement, ProtocolAnalysis, ProtocolRegistry,
    ResourceHeuristic, SchedAnalyzer, SearchConfig, SearchVariant,
};
use dpcp_model::{Partition, Platform, TaskSet, Time};

use crate::common::{
    baseline_wcrt, direct_blocking, fifo_requests, serialized_blocking, spin_time, QueueDepth,
    ResponseBounds,
};

mod common;

/// A local-execution baseline: requests execute on whatever processor
/// the requesting vertex runs on, lock queues are FIFO, and every task
/// gets an exclusive cluster of `m_i` processors
/// ([`Placement::LocalExecution`]).
///
/// The variants differ only in how a lock wait is charged. Each task,
/// in decreasing priority order, is bounded by the least fixed point
/// below `D_i` of
///
/// `r = L* + B(r) + ⌈(C − L* + X(r)) / m_i⌉`,
///
/// where `B(r)` is the blocking on the critical path, capped by the
/// windowed request supply of the other tasks (whose response bounds
/// start at their deadlines and tighten as they are analysed), and
/// `X(r)` is the extra interference the cluster absorbs. FED-FP alone
/// has a closed form. No variant keeps per-task evaluation state, so the
/// [`EvalScratch`] of [`SchedAnalyzer::analyze`] is ignored.
///
/// # Examples
///
/// ```
/// use dpcp_baselines::Baseline;
/// use dpcp_core::{AnalysisConfig, AnalysisSession, ResourceHeuristic};
/// use dpcp_model::{fig1, Platform};
///
/// let tasks = fig1::task_set()?;
/// let platform = Platform::new(4)?;
/// let mut session = AnalysisSession::new(AnalysisConfig::ep());
/// for baseline in Baseline::ALL {
///     let outcome = session.partition_with(
///         &tasks,
///         &platform,
///         ResourceHeuristic::WorstFitDecreasing,
///         &baseline,
///     );
///     assert!(outcome.is_schedulable());
/// }
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// `SPIN-SON`: FIFO non-preemptive spin locks for federated DAG
    /// tasks, in the spirit of Dinh et al. (IEEE TPDS 2018) — the paper's
    /// first baseline.
    ///
    /// A requesting vertex busy-waits on its processor until the lock
    /// arrives. A task has at most one in-flight spin per processor of
    /// its cluster, so a fresh request waits at most `min(m_j, N_{j,q})`
    /// critical sections per competing task (`B` is FIFO per processor;
    /// good under light contention). Every wait burns processor time:
    /// `X` is the spin time `Σ_q N_{i,q} · δ_q` the job's own requests
    /// can burn (costly under heavy contention), and the report's
    /// intra-task interference includes it.
    SpinSon,
    /// `LPP`: suspension-based FIFO semaphores with boosted lock holders,
    /// in the spirit of Jiang et al. (DAC 2019) — the paper's second
    /// baseline.
    ///
    /// A vertex that cannot take the lock suspends, so its processor can
    /// run other ready vertices, and lock holders run boosted so critical
    /// sections always progress. No processor time is wasted waiting
    /// (`X = 0`), but suspended vertices free their processors, so every
    /// pending request of a competing job can sit ahead in the FIFO queue
    /// (`N_{j,q}` rather than `min(m_j, N_{j,q})`: `B` is FIFO per job),
    /// which hurts when single resources are requested many times.
    /// Write-only: reader-writer sets are refused.
    Lpp,
    /// `FED-FP`: the resource-oblivious federated scheduling bound of Li
    /// et al. (ECRTS 2014) — the paper's hypothetical upper baseline.
    ///
    /// Shared resources are ignored: a heavy task on `m_i` dedicated
    /// processors under any work-conserving scheduler meets
    /// `r_i ≤ L* + ⌈(C − L*) / m_i⌉` (Graham's bound), reported even
    /// when it exceeds `D_i`. Charging no blocking at all, it accepts a
    /// superset of the task sets any real locking protocol accepts, so
    /// its curves upper-bound every other method's, as in Fig. 2.
    /// Ignoring every request is as valid for reads as for writes, so
    /// reader-writer sets are in scope.
    FedFp,
    /// `MPCP-SA`: MPCP-style suspension-based semaphores under
    /// suspension-aware accounting, extended to reader-writer requests.
    ///
    /// Requests execute locally under FIFO queueing with boosted lock
    /// holders (the runtime the simulator implements for home-less
    /// partitions). Blocking appears once, as the additive `B` (FIFO per
    /// job) on the critical path, and `X = 0`: on write-only sets this is
    /// LPP's bound, deliberately, since both model suspension-based FIFO
    /// semaphores. The variant earns its keep on reader-writer sets,
    /// which LPP refuses. Per-mode critical-section lengths enter every
    /// queue and window term (writes at `L_{j,q}`, reads at `L^R_{j,q}`).
    /// Reader concurrency is not credited — a sound FIFO bound cannot
    /// assume adjacent reads batch — so the accounting stays serialized
    /// and upper-bounds the simulator's read-sharing runtime.
    MpcpSa,
    /// `MPCP-SO`: the same semaphores under suspension-oblivious
    /// accounting, reader-writer aware like [`Baseline::MpcpSa`].
    ///
    /// Suspension is folded into the processor demand as if the job
    /// executed while it waits: the blocking also re-enters the
    /// recurrence as interference spread over the cluster (`X = B`), so
    /// its bounds are never smaller than MPCP-SA's. The report's
    /// intra-task interference stays `C − L*`.
    MpcpSo,
    /// `DGA`: a dependency-graph-style serialization bound (Chen et al.),
    /// reader-writer aware.
    ///
    /// Each resource's critical sections form one serialized
    /// sub-schedule: a job's requests are ordered against the full
    /// critical-section supply of the resource within its window, not
    /// against a per-request FIFO queue. Per resource, `B` is the whole
    /// windowed remote demand plus the job's own queued sections — the
    /// FIFO analyses' windowed cap taken without the per-request `min` —
    /// and `X = 0`. It is never smaller than the LPP/MPCP-SA blocking
    /// (coarser, but sound wherever they are), and it prices reads and
    /// writes at their own lengths.
    Dga,
}

impl Baseline {
    /// Every baseline, in registry order.
    pub const ALL: [Baseline; 6] = [
        Baseline::SpinSon,
        Baseline::Lpp,
        Baseline::FedFp,
        Baseline::MpcpSa,
        Baseline::MpcpSo,
        Baseline::Dga,
    ];
}

impl SchedAnalyzer for Baseline {
    fn placement(&self) -> Placement {
        Placement::LocalExecution
    }

    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        _: &mut EvalScratch,
    ) -> SchedulabilityReport {
        let mut resp = ResponseBounds::new(tasks);
        let mut bounds: Vec<Option<TaskBound>> = vec![None; tasks.len()];
        let mut all_ok = true;
        for i in tasks.by_decreasing_priority() {
            let me = tasks.task(i);
            let lstar = me.longest_path_len();
            let off_path = me.wcet().saturating_sub(lstar);
            let m_i = (partition.cluster_size(i) as u64).max(1);
            let depth = match self {
                Baseline::SpinSon => Some(QueueDepth::PerProcessor),
                Baseline::Lpp | Baseline::MpcpSa | Baseline::MpcpSo => Some(QueueDepth::PerJob),
                Baseline::FedFp | Baseline::Dga => None,
            };
            let requests = depth.map_or_else(Vec::new, |d| fifo_requests(tasks, partition, i, d));
            let spin = match self {
                Baseline::SpinSon => spin_time(&requests),
                _ => Time::ZERO,
            };
            let fifo = |r| direct_blocking(tasks, &resp, i, &requests, r);
            let wcrt = match self {
                Baseline::FedFp => Some(lstar.saturating_add(off_path.div_ceil(m_i))),
                Baseline::SpinSon => baseline_wcrt(me, m_i, fifo, |_| spin),
                Baseline::Lpp | Baseline::MpcpSa => baseline_wcrt(me, m_i, fifo, |_| Time::ZERO),
                Baseline::MpcpSo => baseline_wcrt(me, m_i, fifo, |b| b),
                Baseline::Dga => baseline_wcrt(
                    me,
                    m_i,
                    |r| serialized_blocking(tasks, &resp, i, r),
                    |_| Time::ZERO,
                ),
            };
            let ok = wcrt.is_some_and(|w| w <= me.deadline());
            if let Some(w) = wcrt {
                resp.set(i, w, me.deadline());
            }
            all_ok &= ok;
            bounds[i.index()] = Some(TaskBound {
                task: i,
                wcrt,
                schedulable: ok,
                breakdown: wcrt.map(|_| DelayBreakdown {
                    path_len: lstar,
                    intra_task_interference: off_path.saturating_add(spin),
                    ..DelayBreakdown::default()
                }),
                signatures_evaluated: 1,
                truncated: false,
            });
        }
        SchedulabilityReport {
            task_bounds: bounds.into_iter().map(Option::unwrap).collect(),
            schedulable: all_ok,
            truncated: false,
        }
    }
}

/// Every baseline as a registry protocol: the generic Algorithm 1 loop
/// with the session's scratch.
impl ProtocolAnalysis for Baseline {
    fn name(&self) -> &str {
        match self {
            Baseline::SpinSon => "SPIN-SON",
            Baseline::Lpp => "LPP",
            Baseline::FedFp => "FED-FP",
            Baseline::MpcpSa => "MPCP-SA",
            Baseline::MpcpSo => "MPCP-SO",
            Baseline::Dga => "DGA",
        }
    }

    fn tag(&self) -> char {
        match self {
            Baseline::SpinSon => 'S',
            Baseline::Lpp => 'L',
            Baseline::FedFp => 'F',
            Baseline::MpcpSa => 'M',
            Baseline::MpcpSo => 'O',
            Baseline::Dga => 'G',
        }
    }

    fn description(&self) -> &str {
        match self {
            Baseline::SpinSon => "FIFO non-preemptive spin locks, local execution (Dinh et al.)",
            Baseline::Lpp => {
                "suspension-based FIFO semaphores, boosted lock holders (Jiang et al.)"
            }
            Baseline::FedFp => "resource-oblivious federated bound (hypothetical upper baseline)",
            Baseline::MpcpSa => {
                "MPCP semaphores, suspension-aware accounting (reader-writer aware)"
            }
            Baseline::MpcpSo => {
                "MPCP semaphores, suspension-oblivious accounting (reader-writer aware)"
            }
            Baseline::Dga => "dependency-graph-style serialized demand bound (reader-writer aware)",
        }
    }

    fn supports_rw(&self) -> bool {
        !matches!(self, Baseline::SpinSon | Baseline::Lpp)
    }

    fn evaluate(
        &self,
        session: &mut AnalysisSession,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        session.partition_with(tasks, platform, heuristic, self)
    }
}

/// The paper's five compared methods followed by the reader-writer
/// extensions and the placement-search wrapper, as one registry:
/// `DPCP-p-EP`, `DPCP-p-EN`, `SPIN-SON`, `LPP`, `FED-FP`, `MPCP-SA`,
/// `MPCP-SO`, `DGA`, `DPCP-p-EP/SEARCH`. Registration order is
/// the single source of truth for dispatch indices, CSV column order and
/// plot legends downstream — the paper's five stay in their original
/// slots, so every committed artifact keeps its columns.
pub fn standard_registry() -> ProtocolRegistry {
    let mut registry = dpcp_core::dpcp_protocols();
    for baseline in Baseline::ALL {
        registry
            .register(Box::new(baseline))
            .expect("distinct baseline names");
    }
    registry
        .register(Box::new(SearchVariant::new(
            DpcpProtocol::ep(),
            SearchConfig::default(),
        )))
        .expect("distinct baseline names");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_the_paper_order() {
        let registry = standard_registry();
        assert_eq!(
            registry.names(),
            [
                "DPCP-p-EP",
                "DPCP-p-EN",
                "SPIN-SON",
                "LPP",
                "FED-FP",
                "MPCP-SA",
                "MPCP-SO",
                "DGA",
                "DPCP-p-EP/SEARCH"
            ]
        );
        let tags: Vec<char> = registry.iter().map(|p| p.tag()).collect();
        assert_eq!(tags, ['E', 'N', 'S', 'L', 'F', 'M', 'O', 'G', 'X']);
        assert!(registry.iter().all(|p| !p.description().is_empty()));
        // Exactly the search wrapper advertises a probe budget.
        let budgets: Vec<bool> = registry
            .iter()
            .map(|p| p.search_budget().is_some())
            .collect();
        assert_eq!(budgets.iter().filter(|&&b| b).count(), 1);
        assert!(registry
            .resolve("DPCP-p-EP/SEARCH")
            .unwrap()
            .search_budget()
            .is_some());
    }

    #[test]
    fn rw_support_is_declared_per_protocol() {
        let registry = standard_registry();
        let rw: Vec<(String, bool)> = registry
            .iter()
            .map(|p| (p.name().to_string(), p.supports_rw()))
            .collect();
        for (name, supported) in rw {
            let expect = matches!(name.as_str(), "FED-FP" | "MPCP-SA" | "MPCP-SO" | "DGA");
            assert_eq!(supported, expect, "{name}");
        }
    }
}

// Each protocol's unit tests, in `src/<module>/tests.rs`, and its Fig. 1
// doc example, in `src/<module>.rs`: `dga`, `fed`, `lpp`, `mpcp` (both
// accountings) and `spin`. None of these modules is part of the library.
#[cfg(any(test, doctest))]
mod dga;
#[cfg(any(test, doctest))]
mod fed;
#[cfg(any(test, doctest))]
mod lpp;
#[cfg(any(test, doctest))]
mod mpcp;
#[cfg(any(test, doctest))]
mod spin;
