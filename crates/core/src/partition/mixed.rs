//! Light-task packing for the Sec. VI extension
//! ([`Placement::SharedLightPool`](crate::partition::Placement::SharedLightPool)).
//!
//! Heavy tasks (`C_i > D_i`) receive exclusive federated clusters exactly
//! as in Algorithm 1; light tasks are sequential and are packed onto a
//! pool of shared processors (Worst-Fit Decreasing by utilization, one
//! bin per shared processor). Algorithm 1's loop
//! ([`partition`](crate::partition)) then places global resources by the
//! generalised Algorithm 2 over all bins — heavy clusters *and* light
//! processors — and the analysis combines Theorem 1 for heavy tasks with
//! the sequential bound of [`wcrt_light`](crate::analysis::light) for
//! light ones. A failing heavy task gets one more processor; a failing
//! light task grows the shared pool by one processor (both roll back the
//! resource assignment).

use dpcp_model::{ProcessorId, TaskId, TaskSet};

/// Each packed light task's processor, and each pool processor's packed
/// utilization.
pub(crate) type Packing = (Vec<(TaskId, ProcessorId)>, Vec<f64>);

/// Packs light tasks onto `pool` processors, Worst-Fit Decreasing by
/// utilization, or `None` when some processor would exceed utilization 1.
///
/// When the set leaves the write-only model ([`TaskSet::has_reads`]),
/// bins that already host a reader of one of the incoming task's read
/// resources are preferred: co-located readers share their processor's
/// agent, so read requests to the same resource serialize locally
/// instead of crossing processors. The worst-fit criterion then breaks
/// ties among equally-attractive bins, so write-only sets (the paper's
/// model) take the exact historical path.
pub(crate) fn pack_lights(
    tasks: &TaskSet,
    lights: &[TaskId],
    pool: &[ProcessorId],
) -> Option<Packing> {
    if lights.is_empty() {
        return Some((Vec::new(), vec![0.0; pool.len()]));
    }
    if pool.is_empty() {
        return None;
    }
    let mut order: Vec<TaskId> = lights.to_vec();
    order.sort_by(|&a, &b| {
        tasks
            .task(b)
            .utilization()
            .partial_cmp(&tasks.task(a).utilization())
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let rw = tasks.has_reads();
    let mut bin_util = vec![0.0f64; pool.len()];
    let mut bin_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); pool.len()];
    let mut placement = Vec::with_capacity(lights.len());
    for t in order {
        let task = tasks.task(t);
        let u = task.utilization();
        let best = if rw {
            // Reader-affinity tie-break: among bins with capacity,
            // maximize the number of already-placed tasks sharing a
            // read resource with `t`, then fall back to worst fit.
            let read_qs: Vec<_> = task
                .resources()
                .filter(|&q| task.total_reads(q) > 0)
                .collect();
            let affinity = |bin: usize| {
                bin_tasks[bin]
                    .iter()
                    .filter(|&&other| {
                        read_qs
                            .iter()
                            .any(|&q| tasks.task(other).total_reads(q) > 0)
                    })
                    .count()
            };
            (0..pool.len())
                .filter(|&b| bin_util[b] + u <= 1.0 + f64::EPSILON)
                .min_by(|&a, &b| {
                    affinity(b)
                        .cmp(&affinity(a))
                        .then(
                            bin_util[a]
                                .partial_cmp(&bin_util[b])
                                .unwrap_or(core::cmp::Ordering::Equal),
                        )
                        .then(a.cmp(&b))
                })?
        } else {
            (0..pool.len())
                .min_by(|&a, &b| {
                    bin_util[a]
                        .partial_cmp(&bin_util[b])
                        .unwrap_or(core::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("pool is non-empty")
        };
        if bin_util[best] + u > 1.0 + f64::EPSILON {
            return None;
        }
        bin_util[best] += u;
        bin_tasks[best].push(t);
        placement.push((t, pool[best]));
    }
    Some((placement, bin_util))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::partition::{PartitionOutcome, ResourceHeuristic};
    use crate::session::AnalysisSession;
    use dpcp_model::{
        Dag, DagTask, Partition, Platform, RequestSpec, ResourceId, Time, VertexSpec,
    };

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    fn session_mixed(
        tasks: &TaskSet,
        platform: &Platform,
        cfg: AnalysisConfig,
    ) -> PartitionOutcome {
        AnalysisSession::new(cfg).partition_and_analyze_mixed(
            tasks,
            platform,
            ResourceHeuristic::WorstFitDecreasing,
        )
    }

    /// One heavy DAG task plus two light sequential tasks, all sharing ℓ0.
    fn mixed_set() -> TaskSet {
        let dag = Dag::new(3, []).unwrap();
        let heavy = DagTask::builder(TaskId::new(0), Time::from_ms(20))
            .dag(dag)
            .vertex(VertexSpec::with_requests(
                Time::from_ms(10),
                [RequestSpec::new(rid(0), 2)],
            ))
            .vertex(VertexSpec::new(Time::from_ms(10)))
            .vertex(VertexSpec::new(Time::from_ms(10)))
            .critical_section(rid(0), Time::from_us(100))
            .build()
            .unwrap();
        let light = |id: usize, period_ms: u64, wcet_ms: u64| {
            DagTask::builder(TaskId::new(id), Time::from_ms(period_ms))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(wcet_ms),
                    [RequestSpec::new(rid(0), 1)],
                ))
                .critical_section(rid(0), Time::from_us(50))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![heavy, light(1, 10, 3), light(2, 40, 8)], 1).unwrap()
    }

    #[test]
    fn mixed_system_partitions_and_schedules() {
        let tasks = mixed_set();
        let platform = Platform::new(6).unwrap();
        let outcome = session_mixed(&tasks, &platform, AnalysisConfig::ep());
        let PartitionOutcome::Schedulable {
            partition, report, ..
        } = outcome
        else {
            panic!("mixed set must be schedulable on 6 processors");
        };
        // Heavy task keeps an exclusive multi-processor cluster.
        assert!(partition.cluster_size(TaskId::new(0)) >= 2);
        // Lights are sequential: one processor each (possibly shared).
        assert_eq!(partition.cluster_size(TaskId::new(1)), 1);
        assert_eq!(partition.cluster_size(TaskId::new(2)), 1);
        assert!(report.schedulable);
        // No heavy-cluster processor is shared.
        for &p in partition.cluster(TaskId::new(0)) {
            assert!(!partition.is_shared(p));
        }
    }

    #[test]
    fn lights_share_when_processors_are_scarce() {
        let tasks = mixed_set();
        // Heavy needs 2; on 3 processors both lights must share the third.
        let platform = Platform::new(3).unwrap();
        let outcome = session_mixed(&tasks, &platform, AnalysisConfig::ep());
        if let PartitionOutcome::Schedulable { partition, .. } = &outcome {
            let p1 = partition.cluster(TaskId::new(1))[0];
            let p2 = partition.cluster(TaskId::new(2))[0];
            assert_eq!(p1, p2, "lights must share the single remaining processor");
            assert!(partition.is_shared(p1));
        }
        // Whether it is schedulable depends on the analysis; it must at
        // least not panic and must report a definite outcome.
        match outcome {
            PartitionOutcome::Schedulable { report, .. } => assert!(report.schedulable),
            PartitionOutcome::Unschedulable { reason, .. } => {
                let _ = reason.to_string();
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_state_across_partitions() {
        // One session (one scratch + one signature cache) carried across
        // two different mixed partitions (and therefore across context
        // changes) must reproduce throwaway-state reports bit-identically
        // — heavy and light tasks alike.
        use dpcp_model::{Platform, ProcessorId};
        use std::collections::BTreeMap;
        let tasks = mixed_set();
        let platform = Platform::new(3).unwrap();
        let pid = ProcessorId::new;
        let cfg = AnalysisConfig::ep();
        let mut shared = AnalysisSession::new(cfg.clone());
        for home in [pid(0), pid(2)] {
            let partition = Partition::mixed(
                &tasks,
                &platform,
                vec![vec![pid(0), pid(1)], vec![pid(2)], vec![pid(2)]],
                BTreeMap::from([(rid(0), home)]),
            )
            .unwrap();
            let reused = shared.analyze_mixed(&tasks, &partition);
            let fresh = AnalysisSession::new(cfg.clone()).analyze_mixed(&tasks, &partition);
            assert_eq!(reused, fresh, "home {home}");
        }
    }

    #[test]
    fn pack_lights_respects_capacity() {
        let tasks = mixed_set();
        let lights = [TaskId::new(1), TaskId::new(2)];
        let pool = [ProcessorId::new(4)];
        // U = 0.3 + 0.2 = 0.5 fits on one processor.
        let (placement, util) = pack_lights(&tasks, &lights, &pool).unwrap();
        assert_eq!(placement.len(), 2);
        assert!(placement.iter().all(|&(_, p)| p == ProcessorId::new(4)));
        assert_eq!(util, [0.5]);
        // Empty pool with lights → None.
        assert!(pack_lights(&tasks, &lights, &[]).is_none());
        // No lights → empty placement.
        assert_eq!(pack_lights(&tasks, &[], &[]).unwrap().0.len(), 0);
    }

    #[test]
    fn pack_lights_co_locates_readers_of_a_shared_resource() {
        // Three lights on two processors: τ0 (U=0.4) reads ℓ0,
        // τ1 (U=0.3) reads ℓ1, τ2 (U=0.2) reads ℓ0. Plain worst-fit
        // sends τ2 to τ1's emptier bin; the reader-affinity tie-break
        // must put it next to its co-reader τ0 instead.
        let reader = |id: usize, wcet_ms: u64, q: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(wcet_ms),
                    [RequestSpec::read(rid(q), 1)],
                ))
                .critical_section(rid(q), Time::from_us(50))
                .read_critical_section(rid(q), Time::from_us(50))
                .build()
                .unwrap()
        };
        let tasks =
            TaskSet::new(vec![reader(0, 4, 0), reader(1, 3, 1), reader(2, 2, 0)], 2).unwrap();
        let lights = [TaskId::new(0), TaskId::new(1), TaskId::new(2)];
        let pool = [ProcessorId::new(0), ProcessorId::new(1)];
        let (placement, _) = pack_lights(&tasks, &lights, &pool).unwrap();
        let home = |id: usize| {
            placement
                .iter()
                .find(|&&(t, _)| t == TaskId::new(id))
                .map(|&(_, p)| p)
                .unwrap()
        };
        assert_eq!(home(0), home(2), "co-readers of ℓ0 must share a bin");
        assert_ne!(home(0), home(1));

        // Same shape with write requests stays on the historical
        // worst-fit path: τ2 lands in the emptier bin, next to τ1.
        let writer = |id: usize, wcet_ms: u64, q: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(wcet_ms),
                    [RequestSpec::write(rid(q), 1)],
                ))
                .critical_section(rid(q), Time::from_us(50))
                .build()
                .unwrap()
        };
        let tasks =
            TaskSet::new(vec![writer(0, 4, 0), writer(1, 3, 1), writer(2, 2, 0)], 2).unwrap();
        let (placement, _) = pack_lights(&tasks, &lights, &pool).unwrap();
        let home = |id: usize| {
            placement
                .iter()
                .find(|&&(t, _)| t == TaskId::new(id))
                .map(|&(_, p)| p)
                .unwrap()
        };
        assert_eq!(home(1), home(2), "write-only sets keep plain worst-fit");
        assert_ne!(home(0), home(2));
    }

    #[test]
    fn purely_heavy_sets_match_algorithm1() {
        let tasks = dpcp_model::fig1::task_set().unwrap();
        let platform = Platform::new(4).unwrap();
        let mixed = session_mixed(&tasks, &platform, AnalysisConfig::ep());
        let exclusive = AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
            &tasks,
            &platform,
            ResourceHeuristic::WorstFitDecreasing,
        );
        // Fig. 1 tasks are light (C ≤ D) with our chosen periods, so the
        // shared pool routes them through the sequential analysis; both
        // placements must accept the system.
        assert_eq!(mixed.is_schedulable(), exclusive.is_schedulable());
    }

    #[test]
    fn overloaded_lights_are_rejected() {
        // Three lights of U ≈ 0.9 on a 2-processor platform cannot fit.
        let light = |id: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::new(Time::from_ms(9)))
                .build()
                .unwrap()
        };
        let tasks = TaskSet::new(vec![light(0), light(1), light(2)], 0).unwrap();
        let platform = Platform::new(2).unwrap();
        let outcome = session_mixed(&tasks, &platform, AnalysisConfig::ep());
        assert!(!outcome.is_schedulable());
    }
}
