//! LPP: suspension-based FIFO semaphores with boosted lock holders, in the
//! spirit of Jiang et al. (DAC 2019) — the paper's second baseline.
//!
//! Requests execute locally; a vertex that cannot take the lock *suspends*
//! so its processor can run other ready vertices, and lock holders run
//! with boosted priority so critical sections always progress. Compared to
//! spinning:
//!
//! - no processor time is wasted waiting — the interference term is just
//!   the off-path workload `C − L*` (good under heavy contention);
//! - queue depth is unbounded by cluster width: suspended vertices free
//!   their processors, so every pending request of a competing job can sit
//!   ahead in the FIFO queue (`N_{j,q}` rather than `min(m_j, N_{j,q})`),
//!   which hurts when single resources are requested many times.
//!
//! The recurrence is `r = L* + B^sem(r) + ⌈(C − L*) / m_i⌉` with `B^sem`
//! capped by the windowed request supply, exactly like the spin analysis.

use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{AnalysisSession, Placement, ProtocolAnalysis, ResourceHeuristic, SchedAnalyzer};
use dpcp_model::{Partition, Platform, TaskSet};

use crate::common::{baseline_wcrt, QueueDepth, ResponseBounds};

/// Configuration for the LPP analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LppConfig {
    /// Iteration budget for the response-time recurrence.
    pub max_fixpoint_iterations: usize,
}

impl Default for LppConfig {
    fn default() -> Self {
        LppConfig {
            max_fixpoint_iterations: 512,
        }
    }
}

/// The LPP analyzer (implements [`SchedAnalyzer`]).
///
/// # Examples
///
/// ```
/// use dpcp_baselines::Lpp;
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
///     &Lpp::new(),
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Lpp {
    cfg: LppConfig,
}

impl Lpp {
    /// Creates the analyzer with default configuration.
    pub fn new() -> Self {
        Lpp::default()
    }

    /// Creates the analyzer with an explicit configuration.
    pub fn with_config(cfg: LppConfig) -> Self {
        Lpp { cfg }
    }
}

impl SchedAnalyzer for Lpp {
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
            let off_path = me.wcet().saturating_sub(me.longest_path_len());
            let wcrt = baseline_wcrt(
                tasks,
                partition,
                &resp,
                i,
                QueueDepth::PerJob,
                |_r| off_path,
                self.cfg.max_fixpoint_iterations,
            );
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
                    path_len: me.longest_path_len(),
                    intra_task_interference: off_path,
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

/// LPP as a registry protocol: the generic Algorithm 1 loop with the
/// session's scratch (which this analysis ignores — it keeps no per-task
/// evaluation state).
impl ProtocolAnalysis for Lpp {
    fn name(&self) -> &str {
        "LPP"
    }

    fn tag(&self) -> char {
        'L'
    }

    fn description(&self) -> &str {
        "suspension-based FIFO semaphores, boosted lock holders (Jiang et al.)"
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
    use dpcp_model::{fig1, TaskId, Time};

    #[test]
    fn fig1_is_schedulable_under_lpp() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let report = Lpp::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        assert!(report.schedulable);
    }

    #[test]
    fn lpp_interference_excludes_spin_waste() {
        // On the same system, LPP's interference term must be at most
        // SPIN-SON's (it omits the spin inflation).
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let lpp = Lpp::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        let spin = crate::SpinSon::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        for (l, s) in lpp.task_bounds.iter().zip(&spin.task_bounds) {
            let li = l.breakdown.unwrap().intra_task_interference;
            let si = s.breakdown.unwrap().intra_task_interference;
            assert!(li <= si);
        }
    }

    #[test]
    fn deep_queues_hurt_lpp_more_than_spin() {
        use dpcp_model::{DagTask, Platform, RequestSpec, ResourceId, VertexSpec};
        // One wide task hammers the resource; the analysed task requests
        // it once. Suspension admits 20 requests ahead; spin at most m = 4.
        let rid = ResourceId::new(0);
        let narrow = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(2),
                [RequestSpec::new(rid, 1)],
            ))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let dag = dpcp_model::Dag::new(4, []).unwrap();
        let wide = DagTask::builder(TaskId::new(1), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::with_requests(
                Time::from_ms(3),
                [RequestSpec::new(rid, 10)],
            ))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(3),
                [RequestSpec::new(rid, 10)],
            ))
            .vertex(VertexSpec::new(Time::from_ms(3)))
            .vertex(VertexSpec::new(Time::from_ms(3)))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![narrow, wide], 1).unwrap();
        let platform = Platform::new(5).unwrap();
        let p = |i: usize| dpcp_model::ProcessorId::new(i);
        let partition = Partition::local_execution(
            &tasks,
            &platform,
            vec![vec![p(0)], vec![p(1), p(2), p(3), p(4)]],
        )
        .unwrap();
        let lpp = Lpp::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        let spin = crate::SpinSon::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        // For the narrow task, direct blocking dominates: suspension sees
        // min(20·0.1, cap) vs spin's min(4·0.1, cap) per request.
        let l0 = lpp.task_bounds[0].wcrt.unwrap();
        let s0 = spin.task_bounds[0].wcrt.unwrap();
        assert!(l0 >= s0, "LPP {l0} should not beat SPIN {s0} here");
    }

    #[test]
    fn name_and_homes() {
        let l = Lpp::new();
        assert_eq!(ProtocolAnalysis::name(&l), "LPP");
        assert_eq!(l.placement(), Placement::LocalExecution);
    }
}
