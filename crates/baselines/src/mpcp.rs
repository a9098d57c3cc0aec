//! MPCP-style suspension-based semaphores in the two classic accounting
//! variants — suspension-aware (`MPCP-SA`) and suspension-oblivious
//! (`MPCP-SO`) — extended to reader-writer requests.
//!
//! Requests execute locally under FIFO queueing with boosted lock holders
//! (the same runtime the simulator implements for home-less partitions);
//! what distinguishes the pair is how the time a job spends *suspended* on
//! a lock queue is charged:
//!
//! - **MPCP-SA** (suspension-aware): blocking appears once, as an additive
//!   term on the critical path. On write-only task sets this coincides
//!   with the LPP bound — deliberately, since both model suspension-based
//!   FIFO semaphores; the variants earn their keep on reader-writer sets,
//!   which LPP refuses.
//! - **MPCP-SO** (suspension-oblivious): suspension is folded into the
//!   processor demand as if the job were executing while it waits, i.e.
//!   the blocking also inflates the interference term. `MPCP-SO` bounds
//!   therefore dominate (are never smaller than) `MPCP-SA` bounds.
//!
//! Both variants are reader-writer aware: per-mode critical-section
//! lengths enter every queue and window term (writes at `L_{j,q}`, reads
//! at `L^R_{j,q}`). Reader concurrency is *not* credited — a sound FIFO
//! bound cannot assume adjacent reads batch — so the accounting stays
//! serialized and upper-bounds the simulator's read-sharing runtime.

use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{AnalysisSession, Placement, ProtocolAnalysis, ResourceHeuristic, SchedAnalyzer};
#[cfg(test)]
use dpcp_model::Time;
use dpcp_model::{Partition, Platform, TaskSet};

use crate::common::{baseline_wcrt, direct_blocking, QueueDepth, ResponseBounds};

/// Configuration for the MPCP analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpcpConfig {
    /// Iteration budget for the response-time recurrence.
    pub max_fixpoint_iterations: usize,
}

impl Default for MpcpConfig {
    fn default() -> Self {
        MpcpConfig {
            max_fixpoint_iterations: 512,
        }
    }
}

/// Which suspension-accounting variant an [`Mpcp`] instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpcpVariant {
    /// Suspension-aware: blocking is charged once, on the critical path.
    SuspensionAware,
    /// Suspension-oblivious: blocking additionally inflates the
    /// interference demand (suspension counted as execution).
    SuspensionOblivious,
}

/// The MPCP analyzer (implements [`SchedAnalyzer`]); construct via
/// [`Mpcp::suspension_aware`] or [`Mpcp::suspension_oblivious`].
///
/// # Examples
///
/// ```
/// use dpcp_baselines::Mpcp;
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
///     &Mpcp::suspension_aware(),
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Mpcp {
    cfg: MpcpConfig,
    variant: MpcpVariant,
}

impl Mpcp {
    /// The suspension-aware variant (`MPCP-SA`).
    pub fn suspension_aware() -> Self {
        Mpcp {
            cfg: MpcpConfig::default(),
            variant: MpcpVariant::SuspensionAware,
        }
    }

    /// The suspension-oblivious variant (`MPCP-SO`).
    pub fn suspension_oblivious() -> Self {
        Mpcp {
            cfg: MpcpConfig::default(),
            variant: MpcpVariant::SuspensionOblivious,
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, cfg: MpcpConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The variant this instance runs.
    pub fn variant(&self) -> MpcpVariant {
        self.variant
    }
}

impl SchedAnalyzer for Mpcp {
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
            let variant = self.variant;
            let wcrt =
                baseline_wcrt(
                    tasks,
                    partition,
                    &resp,
                    i,
                    QueueDepth::PerJob,
                    |r| match variant {
                        MpcpVariant::SuspensionAware => off_path,
                        // s-oblivious: the blocking re-enters the recurrence as
                        // processor demand spread over the cluster.
                        MpcpVariant::SuspensionOblivious => off_path.saturating_add(
                            direct_blocking(tasks, partition, &resp, i, QueueDepth::PerJob, r),
                        ),
                    },
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

/// MPCP as a registry protocol: the generic Algorithm 1 loop with the
/// session's scratch (which this analysis ignores — it keeps no per-task
/// evaluation state).
impl ProtocolAnalysis for Mpcp {
    fn name(&self) -> &str {
        match self.variant {
            MpcpVariant::SuspensionAware => "MPCP-SA",
            MpcpVariant::SuspensionOblivious => "MPCP-SO",
        }
    }

    fn tag(&self) -> char {
        match self.variant {
            MpcpVariant::SuspensionAware => 'M',
            MpcpVariant::SuspensionOblivious => 'O',
        }
    }

    fn description(&self) -> &str {
        match self.variant {
            MpcpVariant::SuspensionAware => {
                "MPCP semaphores, suspension-aware accounting (reader-writer aware)"
            }
            MpcpVariant::SuspensionOblivious => {
                "MPCP semaphores, suspension-oblivious accounting (reader-writer aware)"
            }
        }
    }

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

/// Builds the two-task reader-writer fixture used by the hand-computed
/// tests below (and by the DGA tests): a high-priority writer and a
/// low-priority mixed reader-writer sharing one resource, each on its own
/// processor.
#[cfg(test)]
pub(crate) fn rw_fixture() -> (Partition, TaskSet) {
    use dpcp_model::{DagTask, ProcessorId, RequestSpec, ResourceId, TaskId, VertexSpec};
    let rid = ResourceId::new(0);
    // τ0: T = D = 10 ms, one vertex, C = L* = 2 ms, one write (L_w = 100 µs).
    let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(10))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(2),
            [RequestSpec::write(rid, 1)],
        ))
        .critical_section(rid, Time::from_us(100))
        .build()
        .unwrap();
    // τ1: T = D = 100 ms, one vertex, C = L* = 10 ms, two writes
    // (L_w = 100 µs) and four reads (L_r = 20 µs).
    let t1 = DagTask::builder(TaskId::new(1), Time::from_ms(100))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(10),
            [RequestSpec::write(rid, 2), RequestSpec::read(rid, 4)],
        ))
        .critical_section(rid, Time::from_us(100))
        .read_critical_section(rid, Time::from_us(20))
        .build()
        .unwrap();
    let tasks = TaskSet::new(vec![t0, t1], 1).unwrap();
    let platform = Platform::new(2).unwrap();
    let partition = Partition::local_execution(
        &tasks,
        &platform,
        vec![vec![ProcessorId::new(0)], vec![ProcessorId::new(1)]],
    )
    .unwrap();
    (partition, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::fig1;

    #[test]
    fn hand_computed_rw_bounds() {
        // τ1's per-job serialized demand on ℓ0 is 2·100 + 4·20 = 280 µs.
        // τ0 (C = L* = 2 ms, one request): δ = 280 µs, windowed cap with
        // η_1 = ⌈(r + 100 ms)/100 ms⌉ = 2 gives 560 µs, so B = 280 µs.
        //   SA: r = 2 ms + 280 µs = 2.28 ms.
        //   SO: r = 2 ms + 280 µs + ⌈280 µs / 1⌉ = 2.56 ms.
        let (partition, tasks) = rw_fixture();
        let sa = Mpcp::suspension_aware().analyze(&tasks, &partition, &mut EvalScratch::new());
        let so = Mpcp::suspension_oblivious().analyze(&tasks, &partition, &mut EvalScratch::new());
        assert_eq!(sa.task_bounds[0].wcrt, Some(Time::from_us(2_280)));
        assert_eq!(so.task_bounds[0].wcrt, Some(Time::from_us(2_560)));
        assert!(sa.schedulable && so.schedulable);
    }

    #[test]
    fn read_lengths_enter_the_bound() {
        // The same fixture with the reads priced at the write length
        // (drop the explicit read length): demand becomes 6·100 = 600 µs,
        // so τ0's SA bound grows from 2.28 ms to 2.6 ms.
        use dpcp_model::{
            DagTask, Platform, ProcessorId, RequestSpec, ResourceId, TaskId, VertexSpec,
        };
        let rid = ResourceId::new(0);
        let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(2),
                [RequestSpec::write(rid, 1)],
            ))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let t1 = DagTask::builder(TaskId::new(1), Time::from_ms(100))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(10),
                [RequestSpec::write(rid, 2), RequestSpec::read(rid, 4)],
            ))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![t0, t1], 1).unwrap();
        let platform = Platform::new(2).unwrap();
        let partition = Partition::local_execution(
            &tasks,
            &platform,
            vec![vec![ProcessorId::new(0)], vec![ProcessorId::new(1)]],
        )
        .unwrap();
        let sa = Mpcp::suspension_aware().analyze(&tasks, &partition, &mut EvalScratch::new());
        assert_eq!(sa.task_bounds[0].wcrt, Some(Time::from_us(2_600)));
    }

    #[test]
    fn oblivious_dominates_aware() {
        let (partition, tasks) = rw_fixture();
        let sa = Mpcp::suspension_aware().analyze(&tasks, &partition, &mut EvalScratch::new());
        let so = Mpcp::suspension_oblivious().analyze(&tasks, &partition, &mut EvalScratch::new());
        for (a, o) in sa.task_bounds.iter().zip(&so.task_bounds) {
            assert!(a.wcrt.unwrap() <= o.wcrt.unwrap());
        }
    }

    #[test]
    fn aware_coincides_with_lpp_on_write_only_sets() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let sa = Mpcp::suspension_aware().analyze(&tasks, &partition, &mut EvalScratch::new());
        let lpp = crate::Lpp::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        for (m, l) in sa.task_bounds.iter().zip(&lpp.task_bounds) {
            assert_eq!(m.wcrt, l.wcrt);
        }
    }

    #[test]
    fn names_tags_and_rw_support() {
        let sa = Mpcp::suspension_aware();
        let so = Mpcp::suspension_oblivious();
        assert_eq!(ProtocolAnalysis::name(&sa), "MPCP-SA");
        assert_eq!(ProtocolAnalysis::name(&so), "MPCP-SO");
        assert_eq!(ProtocolAnalysis::tag(&sa), 'M');
        assert_eq!(ProtocolAnalysis::tag(&so), 'O');
        assert!(ProtocolAnalysis::supports_rw(&sa));
        assert!(ProtocolAnalysis::supports_rw(&so));
        assert_eq!(sa.placement(), Placement::LocalExecution);
        assert_eq!(sa.variant(), MpcpVariant::SuspensionAware);
    }
}
