//! Task and resource partitioning (Sec. V, Algorithm 1, and its Sec. VI
//! extension to light tasks).
//!
//! [`AnalysisSession::partition_with`](crate::AnalysisSession::partition_with)
//! runs the paper's iterative loop for any [`SchedAnalyzer`]: every task
//! starts with `m_i = ⌈(C_i − L*_i)/(D_i − L*_i)⌉` dedicated processors
//! (1 for a light task); global resources are placed by Worst-Fit
//! Decreasing ([`wfd`], Algorithm 2); tasks are analysed in decreasing
//! priority order; the first failing task receives one more processor (if
//! any remains unassigned), the resource assignment is rolled back, and
//! the round restarts. A heavy task with `L*_i ≥ D_i` fits no cluster
//! size, so such a set is rejected before any round, naming the
//! highest-priority such task.
//!
//! The loop needs one fact from a protocol: the [`Placement`] its analysis
//! assumes. Local-execution protocols (spin locks, local semaphores) home
//! no resource. DPCP-p homes every global resource on a designated
//! processor, and under Sec. VI it packs light tasks onto a shared pool
//! ([`mixed`]) that Algorithm 2 also places resources on; a failing light
//! task then grows the pool by one processor. One loop thus drives DPCP-p
//! and every baseline protocol — exactly the setup of the paper's
//! evaluation, where all protocols run under federated scheduling with
//! the same initial assignment.
//!
//! A round acts only on its first failing task, so the loop asks the
//! analyzer for [`SchedAnalyzer::first_failure`], not for a full report.
//! The trait's default analyses every task and scans the report. The
//! session's DPCP-p analyzer stops at the first failure instead. Under EP
//! it first evaluates Theorem 1 on the task's longest path: when that
//! orbit exceeds `D_i` the task fails without its paths ever being
//! enumerated, since the EP bound dominates every single path's. Both
//! return exactly what the full analysis would: the tasks before the first
//! failure are computed in full, so a round in which every task passes
//! yields the complete report.

use dpcp_model::{initial_processors, Partition, Platform, ProcessorId, TaskId, TaskSet};
use serde::{Deserialize, Serialize};

use crate::analysis::{EvalScratch, SchedulabilityReport};

pub mod mixed;
pub mod search;
pub mod wfd;

pub use search::{PlacementSearch, SearchConfig, SearchMove, SearchOutcome};
pub use wfd::{
    assign_resources, assign_resources_to_bins, layout_clusters, CapacityBin, ResourceHeuristic,
};

/// Where a protocol's analysis assumes tasks and global resources are
/// placed: the one fact Algorithm 1's loop needs from a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every task gets an exclusive cluster and no resource is homed:
    /// requests execute where the requesting vertex runs
    /// ([`Partition::local_execution`]). Spin locks and local semaphores.
    LocalExecution,
    /// Every task, light ones included, gets an exclusive cluster, and
    /// Algorithm 2 homes every global resource on a designated processor.
    /// DPCP-p as Sec. V and Fig. 1 model it.
    DesignatedHomes,
    /// Sec. VI: heavy tasks get exclusive clusters and light tasks, which
    /// are sequential, share a pool of processors; Algorithm 2 homes every
    /// global resource over both. DPCP-p on mixed heavy/light sets.
    SharedLightPool,
}

/// A schedulability analysis pluggable into Algorithm 1's loop
/// ([`AnalysisSession::partition_with`](crate::AnalysisSession::partition_with)).
pub trait SchedAnalyzer {
    /// The placement this analysis assumes, which decides how the loop
    /// lays out clusters and whether it homes resources.
    fn placement(&self) -> Placement;

    /// Analyses every task and reports per-task schedulability.
    ///
    /// Analyses that keep per-task evaluation state ([`EvalScratch`]:
    /// request-bound memo, demand prefix tables, batched-kernel arenas)
    /// reuse the caller's allocation across partitioning rounds and across
    /// methods; protocols without such state ignore the scratch.
    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        scratch: &mut EvalScratch,
    ) -> SchedulabilityReport;

    /// Algorithm 1's decision over one partition: the full report when
    /// every task passes, else the first failing task in decreasing
    /// priority order.
    ///
    /// The default runs [`analyze`](Self::analyze) and scans its report.
    /// An override may stop at the first failure, but must return exactly
    /// what the default would.
    fn first_failure(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        scratch: &mut EvalScratch,
    ) -> Result<SchedulabilityReport, TaskId> {
        let report = self.analyze(tasks, partition, scratch);
        match tasks
            .by_decreasing_priority()
            .into_iter()
            .find(|&i| !report.bound(i).schedulable)
        {
            Some(task) => Err(task),
            None => Ok(report),
        }
    }
}

/// Algorithm 1 line 3's federated cluster size of every task, or the
/// highest-priority task with `L*_i ≥ D_i`, which no number of processors
/// can schedule.
pub(crate) fn initial_sizes(tasks: &TaskSet) -> Result<Vec<usize>, TaskId> {
    tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| {
            tasks
                .by_decreasing_priority()
                .into_iter()
                .find(|&i| initial_processors(tasks.task(i)).is_none())
                .expect("some task has no initial size")
        })
}

/// Why Algorithm 1 declared a task set unschedulable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnschedulableReason {
    /// The initial federated assignment needs more processors than exist
    /// (Algorithm 1 line 5).
    InsufficientProcessors {
        /// `Σ_i m_i` demanded by the initial assignment.
        demanded: usize,
        /// The platform size `m`.
        available: usize,
    },
    /// Algorithm 2 could not fit the global resources into any cluster
    /// (Algorithm 1 line 8).
    ResourceAllocationInfeasible,
    /// A task failed its response-time test with no processor left to add
    /// (Algorithm 1 line 16).
    TaskUnschedulable {
        /// The failing task.
        task: TaskId,
    },
}

impl core::fmt::Display for UnschedulableReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnschedulableReason::InsufficientProcessors {
                demanded,
                available,
            } => write!(
                f,
                "initial federated assignment needs {demanded} processors, platform has {available}"
            ),
            UnschedulableReason::ResourceAllocationInfeasible => {
                f.write_str("global resources do not fit into any cluster")
            }
            UnschedulableReason::TaskUnschedulable { task } => {
                write!(f, "{task} misses its deadline with all processors assigned")
            }
        }
    }
}

/// The result of Algorithm 1's partitioning loop.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionOutcome {
    /// A feasible placement was found and every task passed analysis.
    Schedulable {
        /// The accepted placement.
        partition: Partition,
        /// Per-task bounds under that placement.
        report: SchedulabilityReport,
        /// Number of partition-analyse rounds performed.
        rounds: usize,
    },
    /// No feasible placement exists under this heuristic and analysis.
    Unschedulable {
        /// Why the loop gave up.
        reason: UnschedulableReason,
        /// Number of partition-analyse rounds performed.
        rounds: usize,
    },
}

impl PartitionOutcome {
    /// `true` for the schedulable outcome.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, PartitionOutcome::Schedulable { .. })
    }

    /// The accepted partition, if schedulable.
    pub fn partition(&self) -> Option<&Partition> {
        match self {
            PartitionOutcome::Schedulable { partition, .. } => Some(partition),
            PartitionOutcome::Unschedulable { .. } => None,
        }
    }

    /// The final analysis report, if schedulable.
    pub fn report(&self) -> Option<&SchedulabilityReport> {
        match self {
            PartitionOutcome::Schedulable { report, .. } => Some(report),
            PartitionOutcome::Unschedulable { .. } => None,
        }
    }
}

/// The Algorithm 1 loop behind every session entry point: the analysis
/// memo tables and buffers in `scratch` are reused across every
/// partition-analyse round (and across methods when the caller shares one
/// scratch). Each round asks the analyzer only for its
/// [`first_failure`](SchedAnalyzer::first_failure).
///
/// Only a light task under [`Placement::SharedLightPool`] is pooled; every
/// other task keeps an exclusive cluster of Algorithm 1 line 3's size,
/// grown by one processor each time it fails. The pool starts at
/// `⌈Σ U_light⌉` processors (at least 1, at most one per light task), is
/// dealt after the exclusive clusters, and grows when its lights do not
/// fit or one of them fails.
pub(crate) fn algorithm1_impl(
    tasks: &TaskSet,
    platform: &Platform,
    heuristic: ResourceHeuristic,
    analyzer: &dyn SchedAnalyzer,
    scratch: &mut EvalScratch,
) -> PartitionOutcome {
    let m = platform.processor_count();
    let placement = analyzer.placement();
    let pooled = |t: TaskId| placement == Placement::SharedLightPool && !tasks.task(t).is_heavy();
    let mut sizes = match initial_sizes(tasks) {
        Ok(sizes) => sizes,
        Err(task) => {
            return PartitionOutcome::Unschedulable {
                reason: UnschedulableReason::TaskUnschedulable { task },
                rounds: 0,
            }
        }
    };
    let lights: Vec<TaskId> = (0..tasks.len())
        .map(TaskId::new)
        .filter(|&t| pooled(t))
        .collect();
    for &t in &lights {
        sizes[t.index()] = 0;
    }
    let light_util: f64 = lights.iter().map(|&t| tasks.task(t).utilization()).sum();
    let mut light_pool: usize = if lights.is_empty() {
        0
    } else {
        (light_util.ceil() as usize).clamp(1, lights.len())
    };

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let assigned = sizes.iter().sum::<usize>() + light_pool;
        if assigned > m {
            return PartitionOutcome::Unschedulable {
                reason: UnschedulableReason::InsufficientProcessors {
                    demanded: assigned,
                    available: m,
                },
                rounds: rounds - 1,
            };
        }

        // Deal processors: exclusive clusters in task order, then the pool.
        let mut clusters = layout_clusters(&sizes, m).expect("sizes fit the platform");
        let pool: Vec<ProcessorId> = (assigned - light_pool..assigned)
            .map(ProcessorId::new)
            .collect();
        let Some((packed, pool_util)) = mixed::pack_lights(tasks, &lights, &pool) else {
            if assigned < m {
                light_pool += 1;
                continue;
            }
            return PartitionOutcome::Unschedulable {
                reason: UnschedulableReason::InsufficientProcessors {
                    demanded: assigned + 1,
                    available: m,
                },
                rounds,
            };
        };
        for &(t, p) in &packed {
            clusters[t.index()] = vec![p];
        }

        let partition = if placement == Placement::LocalExecution {
            Partition::local_execution(tasks, platform, clusters)
                .expect("layout is valid by construction")
        } else {
            // Algorithm 2 over the exclusive clusters and the pool's
            // processors.
            let mut bins: Vec<CapacityBin> = tasks
                .iter()
                .filter(|t| !pooled(t.id()))
                .map(|t| CapacityBin {
                    processors: clusters[t.id().index()].clone(),
                    utilization: t.utilization(),
                })
                .collect();
            bins.extend(
                pool.iter()
                    .zip(pool_util)
                    .map(|(&p, utilization)| CapacityBin {
                        processors: vec![p],
                        utilization,
                    }),
            );
            let Some(homes) = assign_resources_to_bins(tasks, &bins, heuristic) else {
                return PartitionOutcome::Unschedulable {
                    reason: UnschedulableReason::ResourceAllocationInfeasible,
                    rounds,
                };
            };
            Partition::mixed(tasks, platform, clusters, homes)
                .expect("layout and homes are valid by construction")
        };

        match analyzer.first_failure(tasks, &partition, scratch) {
            Ok(report) => {
                return PartitionOutcome::Schedulable {
                    partition,
                    report,
                    rounds,
                }
            }
            // Top up the failing task (or the pool); the resource
            // assignment is rolled back by recomputing it next round.
            Err(task) if assigned < m && pooled(task) => light_pool += 1,
            Err(task) if assigned < m => sizes[task.index()] += 1,
            Err(task) => {
                return PartitionOutcome::Unschedulable {
                    reason: UnschedulableReason::TaskUnschedulable { task },
                    rounds,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::session::AnalysisSession;
    use dpcp_model::{fig1, DagTask, RequestSpec, ResourceId, Time, VertexSpec};

    fn session_partition(
        tasks: &TaskSet,
        platform: &Platform,
        cfg: AnalysisConfig,
    ) -> PartitionOutcome {
        AnalysisSession::new(cfg).partition_and_analyze(
            tasks,
            platform,
            ResourceHeuristic::WorstFitDecreasing,
        )
    }

    #[test]
    fn fig1_partitions_and_schedules() {
        let tasks = fig1::task_set().unwrap();
        let platform = Platform::new(4).unwrap();
        let outcome = session_partition(&tasks, &platform, AnalysisConfig::ep());
        assert!(outcome.is_schedulable());
        let partition = outcome.partition().unwrap();
        // ℓ1 must have a home; ℓ2 is local.
        assert!(partition.home_of(fig1::GLOBAL_RESOURCE).is_some());
        assert!(partition.home_of(fig1::LOCAL_RESOURCE).is_none());
        assert!(outcome.report().unwrap().schedulable);
    }

    #[test]
    fn insufficient_processors_detected_before_any_round() {
        // Two heavy tasks: C = 16ms, L* = 8ms, D = 10ms ⇒ m_i = ⌈8/2⌉ = 4
        // each, so the initial assignment demands 8 processors on a 2-core
        // platform.
        let mk = |id: usize| {
            let dag = dpcp_model::Dag::new(2, []).unwrap();
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .dag(dag)
                .vertex(VertexSpec::new(Time::from_ms(8)))
                .vertex(VertexSpec::new(Time::from_ms(8)))
                .build()
                .unwrap()
        };
        let tasks = TaskSet::new(vec![mk(0), mk(1)], 0).unwrap();
        let platform = Platform::new(2).unwrap();
        let outcome = session_partition(&tasks, &platform, AnalysisConfig::ep());
        match outcome {
            PartitionOutcome::Unschedulable { reason, rounds } => {
                assert_eq!(rounds, 0);
                assert!(matches!(
                    reason,
                    UnschedulableReason::InsufficientProcessors {
                        demanded: 8,
                        available: 2
                    }
                ));
            }
            PartitionOutcome::Schedulable { .. } => panic!("must be unschedulable"),
        }
    }

    #[test]
    fn top_up_rounds_help_tight_tasks() {
        // τ0: three parallel 4ms vertices (C = 12, L* = 4, D = T = 10ms),
        // one light request to ℓ0. Initial m_0 = ⌈8/6⌉ = 2.
        // τ1: a single 5ms vertex that is ten 0.5ms critical sections on ℓ0.
        // WFD homes ℓ0 on τ0's (slackest) cluster, so τ0 eats 10ms of agent
        // interference per window: with m_0 = 2 or 3 it misses its deadline,
        // with m_0 = 4 it fits. The 5-processor platform leaves exactly the
        // two spare processors Algorithm 1 needs to discover that.
        let rid = ResourceId::new(0);
        let dag3 = dpcp_model::Dag::new(3, []).unwrap();
        let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag3)
            .vertex(VertexSpec::with_requests(
                Time::from_ms(4),
                [RequestSpec::new(rid, 1)],
            ))
            .vertex(VertexSpec::new(Time::from_ms(4)))
            .vertex(VertexSpec::new(Time::from_ms(4)))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let t1 = DagTask::builder(TaskId::new(1), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(5),
                [RequestSpec::new(rid, 10)],
            ))
            .critical_section(rid, Time::from_us(500))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![t0, t1], 1).unwrap();
        let platform = Platform::new(5).unwrap();
        let outcome = session_partition(&tasks, &platform, AnalysisConfig::ep());
        match outcome {
            PartitionOutcome::Schedulable {
                partition, rounds, ..
            } => {
                assert!(rounds >= 2, "expected at least one top-up, got {rounds}");
                assert!(partition.cluster_size(TaskId::new(0)) >= 3);
            }
            PartitionOutcome::Unschedulable { reason, .. } => {
                panic!("expected schedulable after top-ups, got: {reason}")
            }
        }
    }

    #[test]
    fn reason_display() {
        let r = UnschedulableReason::InsufficientProcessors {
            demanded: 9,
            available: 8,
        };
        assert!(r.to_string().contains("9 processors"));
        assert!(UnschedulableReason::ResourceAllocationInfeasible
            .to_string()
            .contains("do not fit"));
        let r = UnschedulableReason::TaskUnschedulable {
            task: TaskId::new(3),
        };
        assert!(r.to_string().contains("tau3"));
    }

    use dpcp_model::TaskSet;
}
