//! FED-FP: the resource-oblivious federated scheduling bound of Li et al.
//! (ECRTS 2014) — the paper's hypothetical upper baseline (Sec. VII-B).
//!
//! Shared resources are simply ignored: each heavy task on `m_i` dedicated
//! processors under any work-conserving scheduler meets
//! `r_i ≤ L*_i + (C_i − L*_i)/m_i` (Graham's bound). Since this analysis
//! charges no blocking at all, it accepts a superset of the task sets any
//! real locking protocol accepts — the curves it produces upper-bound every
//! other method, as in Fig. 2.

use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{AnalysisSession, Placement, ProtocolAnalysis, ResourceHeuristic, SchedAnalyzer};
use dpcp_model::{Partition, Platform, TaskSet, Time};

/// The FED-FP analyzer (implements [`SchedAnalyzer`]).
///
/// # Examples
///
/// ```
/// use dpcp_baselines::FedFp;
/// use dpcp_core::{AnalysisConfig, AnalysisSession, ResourceHeuristic};
/// use dpcp_model::{fig1, Platform};
///
/// let tasks = fig1::task_set()?;
/// let platform = Platform::new(4)?;
/// let mut session = AnalysisSession::new(AnalysisConfig::ep());
/// let outcome = session.partition_with(
///     &tasks,
///     &platform,
///     ResourceHeuristic::WorstFitDecreasing,
///     &FedFp::new(),
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct FedFp;

impl FedFp {
    /// Creates the analyzer.
    pub fn new() -> Self {
        FedFp
    }

    /// The Graham-style federated bound `L* + ⌈(C − L*)/m_i⌉` for one task.
    pub fn task_bound(wcet: Time, longest_path: Time, m_i: u64) -> Time {
        let off_path = wcet.saturating_sub(longest_path);
        longest_path.saturating_add(off_path.div_ceil(m_i.max(1)))
    }
}

impl SchedAnalyzer for FedFp {
    fn placement(&self) -> Placement {
        Placement::LocalExecution
    }

    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        _: &mut EvalScratch,
    ) -> SchedulabilityReport {
        let mut bounds = Vec::with_capacity(tasks.len());
        let mut all_ok = true;
        for t in tasks.iter() {
            let m_i = partition.cluster_size(t.id()) as u64;
            let wcrt = Self::task_bound(t.wcet(), t.longest_path_len(), m_i);
            let ok = wcrt <= t.deadline();
            all_ok &= ok;
            bounds.push(TaskBound {
                task: t.id(),
                wcrt: Some(wcrt),
                schedulable: ok,
                breakdown: Some(DelayBreakdown {
                    path_len: t.longest_path_len(),
                    intra_task_interference: t.wcet().saturating_sub(t.longest_path_len()),
                    ..DelayBreakdown::default()
                }),
                signatures_evaluated: 1,
                truncated: false,
            });
        }
        SchedulabilityReport {
            task_bounds: bounds,
            schedulable: all_ok,
            truncated: false,
        }
    }
}

/// FED-FP as a registry protocol: the generic Algorithm 1 loop with the
/// session's scratch (which this analysis ignores — it is stateless).
impl ProtocolAnalysis for FedFp {
    fn name(&self) -> &str {
        "FED-FP"
    }

    fn tag(&self) -> char {
        'F'
    }

    fn description(&self) -> &str {
        "resource-oblivious federated bound (hypothetical upper baseline)"
    }

    // Resource-oblivious: ignoring every request is as valid for reads as
    // for writes, so reader-writer task sets are trivially in scope.
    fn supports_rw(&self) -> bool {
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::fig1;

    #[test]
    fn bound_formula() {
        // C = 19, L* = 10, m = 2 → 10 + ⌈9/2⌉ = 15.
        assert_eq!(
            FedFp::task_bound(fig1::unit() * 19, fig1::unit() * 10, 2),
            Time::from_us(14_500).max(fig1::unit() * 14 + Time::from_us(500))
        );
        // Integer check: 9 units / 2 = 4.5 → 4500µs with 1ms units.
        assert_eq!(
            FedFp::task_bound(fig1::unit() * 19, fig1::unit() * 10, 2).as_us(),
            14_500
        );
        // m = 1 degenerates to C.
        assert_eq!(
            FedFp::task_bound(fig1::unit() * 19, fig1::unit() * 10, 1),
            fig1::unit() * 19
        );
    }

    #[test]
    fn fig1_schedulable_and_blocking_free() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let fed = FedFp::new();
        let report = fed.analyze(&tasks, &partition, &mut EvalScratch::new());
        assert!(report.schedulable);
        for tb in &report.task_bounds {
            let b = tb.breakdown.unwrap();
            assert_eq!(b.inter_task_blocking, Time::ZERO);
            assert_eq!(b.agent_interference, Time::ZERO);
        }
        assert_eq!(ProtocolAnalysis::name(&fed), "FED-FP");
        assert_eq!(fed.placement(), Placement::LocalExecution);
    }

    #[test]
    fn fed_fp_dominates_dpcp_bounds() {
        // Resource-oblivious bounds can only be smaller or equal.
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let fed = FedFp::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        let dpcp =
            AnalysisSession::new(dpcp_core::AnalysisConfig::ep()).analyze(&tasks, &partition);
        for (f, d) in fed.task_bounds.iter().zip(&dpcp.task_bounds) {
            assert!(f.wcrt.unwrap() <= d.wcrt.unwrap());
        }
    }
}
