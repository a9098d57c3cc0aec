//! SPIN-SON: FIFO non-preemptive spin locks for federated DAG tasks, in
//! the spirit of Dinh et al. (IEEE TPDS 2018) — the paper's first baseline.
//!
//! Requests execute locally; a requesting vertex *busy-waits* on its
//! processor until the lock arrives. Two consequences shape the analysis:
//!
//! - queue depth is bounded: a task can have at most one in-flight spin
//!   per processor of its cluster, so a fresh request waits at most
//!   `min(m_j, N_{j,q})` critical sections per competing task (good under
//!   light contention);
//! - every wait burns processor time: the spinning of off-path vertices
//!   inflates the intra-cluster interference term (costly under heavy
//!   contention).
//!
//! The response-time recurrence mirrors Theorem 1's shape:
//! `r = L* + B^spin(r) + ⌈(C − L* + S^spin) / m_i⌉`, with the direct
//! blocking `B^spin` capped by the windowed request supply of the other
//! tasks, and `S^spin` the spin time off-path requests can burn.

use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{AnalysisSession, Placement, ProtocolAnalysis, ResourceHeuristic, SchedAnalyzer};
use dpcp_model::{Partition, Platform, TaskId, TaskSet, Time};

use crate::common::{baseline_wcrt, per_request_delay, QueueDepth, ResponseBounds};

/// Configuration for the SPIN-SON analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinConfig {
    /// Iteration budget for the response-time recurrence.
    pub max_fixpoint_iterations: usize,
}

impl Default for SpinConfig {
    fn default() -> Self {
        SpinConfig {
            max_fixpoint_iterations: 512,
        }
    }
}

/// The SPIN-SON analyzer (implements [`SchedAnalyzer`]).
///
/// # Examples
///
/// ```
/// use dpcp_baselines::SpinSon;
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
///     &SpinSon::new(),
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct SpinSon {
    cfg: SpinConfig,
}

impl SpinSon {
    /// Creates the analyzer with default configuration.
    pub fn new() -> Self {
        SpinSon::default()
    }

    /// Creates the analyzer with an explicit configuration.
    pub fn with_config(cfg: SpinConfig) -> Self {
        SpinSon { cfg }
    }

    /// The total spin time the job's own requests can burn
    /// (`Σ_q N_{i,q} · δ_q`) — charged as intra-cluster interference.
    fn spin_inflation(tasks: &TaskSet, partition: &Partition, i: TaskId) -> Time {
        let me = tasks.task(i);
        let mut total = Time::ZERO;
        for q in me.resources() {
            let n = u64::from(me.total_requests(q));
            let delta = per_request_delay(tasks, partition, i, q, QueueDepth::PerProcessor);
            total = total.saturating_add(delta.saturating_mul(n));
        }
        total
    }
}

impl SchedAnalyzer for SpinSon {
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
            let spin = Self::spin_inflation(tasks, partition, i);
            let off_path = me.wcet().saturating_sub(me.longest_path_len());
            let wcrt = baseline_wcrt(
                tasks,
                partition,
                &resp,
                i,
                QueueDepth::PerProcessor,
                |_r| off_path.saturating_add(spin),
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

/// SPIN-SON as a registry protocol: the generic Algorithm 1 loop with
/// the session's scratch (which this analysis ignores — it keeps no
/// per-task evaluation state).
impl ProtocolAnalysis for SpinSon {
    fn name(&self) -> &str {
        "SPIN-SON"
    }

    fn tag(&self) -> char {
        'S'
    }

    fn description(&self) -> &str {
        "FIFO non-preemptive spin locks, local execution (Dinh et al.)"
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
    fn fig1_is_schedulable_under_spin() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let report = SpinSon::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        assert!(report.schedulable);
        for tb in &report.task_bounds {
            assert!(tb.wcrt.unwrap() <= tasks.task(tb.task).deadline());
        }
    }

    #[test]
    fn spin_inflation_counts_all_own_requests() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        // τ_i: ℓ1 once (δ = 3u), ℓ2 twice (δ = 2u) → 3 + 2·2 = 7u.
        assert_eq!(
            SpinSon::spin_inflation(&tasks, &partition, TaskId::new(0)),
            fig1::unit() * 7
        );
        // τ_j: ℓ1 once (remote τ_i: min(2,1)·3u = 3u).
        assert_eq!(
            SpinSon::spin_inflation(&tasks, &partition, TaskId::new(1)),
            fig1::unit() * 3
        );
    }

    #[test]
    fn name_and_homes() {
        let s = SpinSon::new();
        assert_eq!(ProtocolAnalysis::name(&s), "SPIN-SON");
        assert_eq!(s.placement(), Placement::LocalExecution);
    }

    #[test]
    fn heavier_contention_inflates_spin_bounds() {
        use dpcp_model::{DagTask, Platform, RequestSpec, ResourceId, VertexSpec};
        let rid = ResourceId::new(0);
        let mk = |id: usize, n: u32| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(3),
                    [RequestSpec::new(rid, n)],
                ))
                .critical_section(rid, Time::from_us(100))
                .build()
                .unwrap()
        };
        let platform = Platform::new(2).unwrap();
        let light = TaskSet::new(vec![mk(0, 1), mk(1, 1)], 1).unwrap();
        let heavy = TaskSet::new(vec![mk(0, 20), mk(1, 20)], 1).unwrap();
        let clusters = |ts: &TaskSet| {
            Partition::local_execution(
                ts,
                &platform,
                vec![
                    vec![dpcp_model::ProcessorId::new(0)],
                    vec![dpcp_model::ProcessorId::new(1)],
                ],
            )
            .unwrap()
        };
        let r_light = SpinSon::new().analyze(&light, &clusters(&light), &mut EvalScratch::new());
        let r_heavy = SpinSon::new().analyze(&heavy, &clusters(&heavy), &mut EvalScratch::new());
        assert!(r_heavy.task_bounds[0].wcrt.unwrap() > r_light.task_bounds[0].wcrt.unwrap());
    }
}
