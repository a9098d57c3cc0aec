//! Multiprocessor platforms, federated clusters and partitions.
//!
//! A [`Platform`] is `m ≥ 2` identical processors. A [`Partition`] fixes
//! the two placement decisions DPCP-p needs before any analysis can run
//! (Sec. V): which processors form each task's dedicated *cluster*, and on
//! which processor each *global* resource (and hence its agent) lives.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{ProcessorId, ResourceId, TaskId};
use crate::taskset::TaskSet;

/// A platform of `m` identical unispeed processors.
///
/// # Examples
///
/// ```
/// use dpcp_model::Platform;
///
/// let p = Platform::new(16)?;
/// assert_eq!(p.processor_count(), 16);
/// assert_eq!(p.processors().count(), 16);
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Platform {
    processors: usize,
}

/// The largest platform a deserialized request may declare. Partitions
/// and the analysis allocate per processor (`AnalysisContext` keeps
/// `n × m` demand tables), so an unchecked count read from input could
/// demand terabytes from a body of a few bytes — an allocation failure
/// aborts the process. The paper's platforms stop at 32 processors.
const MAX_WIRE_PROCESSORS: usize = 1024;

// Built through `Platform::new`, so input declaring fewer than 2
// processors is refused like code doing the same.
impl Deserialize for Platform {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut processors = None;
        r.object(|r, key| match key {
            "processors" => r.member(&mut processors),
            _ => r.skip(),
        })?;
        let processors: usize = serde::or_null(processors)?;
        if processors > MAX_WIRE_PROCESSORS {
            return Err(serde::Error::custom(format!(
                "a platform may declare at most {MAX_WIRE_PROCESSORS} processors, \
                 got {processors}"
            )));
        }
        Ok(Platform::new(processors)?)
    }
}

impl Platform {
    /// Creates a platform with `processors` processors.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TooFewProcessors`] when `processors < 2`
    /// (the model requires `m ≥ 2`).
    pub fn new(processors: usize) -> Result<Self, ModelError> {
        if processors < 2 {
            return Err(ModelError::TooFewProcessors { processors });
        }
        Ok(Platform { processors })
    }

    /// The processor count `m`.
    #[inline]
    pub fn processor_count(&self) -> usize {
        self.processors
    }

    /// Iterates over all processor identifiers.
    pub fn processors(&self) -> impl Iterator<Item = ProcessorId> {
        (0..self.processors).map(ProcessorId::new)
    }

    /// Returns `true` if `p` belongs to the platform.
    pub fn contains(&self, p: ProcessorId) -> bool {
        p.index() < self.processors
    }
}

/// A complete placement decision: per-task clusters plus the assignment of
/// every global resource to a processor.
///
/// Constructed by the partitioning heuristics of `dpcp-core`, or manually
/// for examples and tests via [`Partition::new`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `clusters[i]` = processors dedicated to task `τ_i` (`℘(τ_i)`),
    /// sorted.
    clusters: Vec<Vec<ProcessorId>>,
    /// Processor hosting each global resource's agent.
    resource_homes: BTreeMap<ResourceId, ProcessorId>,
    /// Reverse map: owner task of each processor (dense, by processor).
    owner: Vec<Option<TaskId>>,
}

impl Partition {
    /// Builds and validates a partition for `tasks` on `platform`.
    ///
    /// `clusters[i]` lists the processors of task `τ_i`;
    /// `resource_homes` must assign every *global* resource of the task set
    /// (assignments for local resources are accepted and ignored by the
    /// protocol, matching the paper where only global resources have
    /// designated processors).
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when clusters are empty, overlap, reference
    /// processors outside the platform, do not cover every task, or when a
    /// global resource is left without a home processor.
    pub fn new(
        tasks: &TaskSet,
        platform: &Platform,
        clusters: Vec<Vec<ProcessorId>>,
        resource_homes: BTreeMap<ResourceId, ProcessorId>,
    ) -> Result<Self, ModelError> {
        let mut partition = Self::local_execution(tasks, platform, clusters)?;
        for q in tasks.global_resources() {
            match resource_homes.get(&q) {
                None => return Err(ModelError::UnassignedGlobalResource { resource: q }),
                Some(&p) if !platform.contains(p) => {
                    return Err(ModelError::ProcessorOutOfRange {
                        processor: p,
                        count: platform.processor_count(),
                    })
                }
                Some(_) => {}
            }
        }
        partition.resource_homes = resource_homes;
        Ok(partition)
    }

    /// Builds a partition for a *local-execution* protocol (spin locks or
    /// local semaphores): clusters only, no resource homes. Requests execute
    /// on the processor where the requesting vertex runs, so no global
    /// resource is pinned anywhere.
    ///
    /// # Errors
    ///
    /// Same cluster validation as [`Partition::new`]; the global-resource
    /// coverage check is skipped.
    pub fn local_execution(
        tasks: &TaskSet,
        platform: &Platform,
        clusters: Vec<Vec<ProcessorId>>,
    ) -> Result<Self, ModelError> {
        if clusters.len() != tasks.len() {
            return Err(ModelError::PartitionTaskMismatch {
                clusters: clusters.len(),
                tasks: tasks.len(),
            });
        }
        let mut owner: Vec<Option<TaskId>> = vec![None; platform.processor_count()];
        let mut clusters = clusters;
        for (i, cluster) in clusters.iter_mut().enumerate() {
            let task = TaskId::new(i);
            if cluster.is_empty() {
                return Err(ModelError::EmptyCluster { task });
            }
            cluster.sort_unstable();
            cluster.dedup();
            for &p in cluster.iter() {
                if !platform.contains(p) {
                    return Err(ModelError::ProcessorOutOfRange {
                        processor: p,
                        count: platform.processor_count(),
                    });
                }
                if owner[p.index()].replace(task).is_some() {
                    return Err(ModelError::OverlappingClusters { processor: p });
                }
            }
        }
        Ok(Partition {
            clusters,
            resource_homes: BTreeMap::new(),
            owner,
        })
    }

    /// Builds a *mixed* partition (the Sec. VI extension): heavy tasks keep
    /// exclusive clusters, light tasks (`C_i ≤ D_i`) are sequential and may
    /// share a processor with other light tasks.
    ///
    /// # Errors
    ///
    /// Same validation as [`Partition::new`], except that a processor may
    /// be claimed by several *light* tasks; claiming a processor by a heavy
    /// task and any other task still fails with
    /// [`ModelError::OverlappingClusters`].
    pub fn mixed(
        tasks: &TaskSet,
        platform: &Platform,
        clusters: Vec<Vec<ProcessorId>>,
        resource_homes: BTreeMap<ResourceId, ProcessorId>,
    ) -> Result<Self, ModelError> {
        if clusters.len() != tasks.len() {
            return Err(ModelError::PartitionTaskMismatch {
                clusters: clusters.len(),
                tasks: tasks.len(),
            });
        }
        // `owner` keeps the unique owner where one exists; processors
        // shared among light tasks get `None`.
        let mut owner: Vec<Option<TaskId>> = vec![None; platform.processor_count()];
        let mut exclusive: Vec<bool> = vec![true; platform.processor_count()];
        let mut clusters = clusters;
        for (i, cluster) in clusters.iter_mut().enumerate() {
            let task = TaskId::new(i);
            let heavy = tasks.task(task).is_heavy();
            if cluster.is_empty() {
                return Err(ModelError::EmptyCluster { task });
            }
            cluster.sort_unstable();
            cluster.dedup();
            for &p in cluster.iter() {
                if !platform.contains(p) {
                    return Err(ModelError::ProcessorOutOfRange {
                        processor: p,
                        count: platform.processor_count(),
                    });
                }
                match owner[p.index()] {
                    None if exclusive[p.index()] => {
                        owner[p.index()] = Some(task);
                        if !heavy {
                            // Mark shareable-by-lights; stays owned until a
                            // second light claims it.
                            exclusive[p.index()] = false;
                        }
                    }
                    Some(prev) => {
                        let prev_heavy = tasks.task(prev).is_heavy();
                        if heavy || prev_heavy {
                            return Err(ModelError::OverlappingClusters { processor: p });
                        }
                        owner[p.index()] = None; // shared among lights
                    }
                    None => {
                        if heavy {
                            return Err(ModelError::OverlappingClusters { processor: p });
                        }
                    }
                }
            }
        }
        for q in tasks.global_resources() {
            match resource_homes.get(&q) {
                None => return Err(ModelError::UnassignedGlobalResource { resource: q }),
                Some(&p) if !platform.contains(p) => {
                    return Err(ModelError::ProcessorOutOfRange {
                        processor: p,
                        count: platform.processor_count(),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(Partition {
            clusters,
            resource_homes,
            owner,
        })
    }

    /// The cluster `℘(τ_i)` dedicated to a task, sorted.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range.
    #[inline]
    pub fn cluster(&self, task: TaskId) -> &[ProcessorId] {
        &self.clusters[task.index()]
    }

    /// All tasks whose cluster contains processor `p` (more than one only
    /// for processors shared among light tasks in a mixed partition).
    pub fn tasks_on(&self, p: ProcessorId) -> Vec<TaskId> {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.binary_search(&p).is_ok())
            .map(|(i, _)| TaskId::new(i))
            .collect()
    }

    /// `true` when processor `p` is shared by several (light) tasks.
    pub fn is_shared(&self, p: ProcessorId) -> bool {
        self.tasks_on(p).len() > 1
    }

    /// The cluster size `m_i`.
    #[inline]
    pub fn cluster_size(&self, task: TaskId) -> usize {
        self.clusters[task.index()].len()
    }

    /// All clusters, indexed by task.
    #[inline]
    pub fn clusters(&self) -> &[Vec<ProcessorId>] {
        &self.clusters
    }

    /// The task whose cluster contains processor `p`, if any.
    pub fn owner_of(&self, p: ProcessorId) -> Option<TaskId> {
        self.owner.get(p.index()).copied().flatten()
    }

    /// The processor hosting a global resource's agent, if assigned.
    pub fn home_of(&self, resource: ResourceId) -> Option<ProcessorId> {
        self.resource_homes.get(&resource).copied()
    }

    /// All `(resource, processor)` assignments, ascending by resource.
    pub fn resource_homes(&self) -> impl Iterator<Item = (ResourceId, ProcessorId)> + '_ {
        self.resource_homes.iter().map(|(&q, &p)| (q, p))
    }

    /// The global resources hosted on processor `p` — the paper's
    /// `Φ(℘_k)` — restricted to resources that are global in `tasks`.
    pub fn resources_on<'a>(
        &'a self,
        tasks: &'a TaskSet,
        p: ProcessorId,
    ) -> impl Iterator<Item = ResourceId> + 'a {
        self.resource_homes
            .iter()
            .filter(move |&(&q, &home)| home == p && tasks.is_global(q))
            .map(|(&q, _)| q)
    }

    /// The global resources co-located with `ℓ_q` — the paper's
    /// `Φ^℘(ℓ_q)`, *including* `ℓ_q` itself: a critical section on `ℓ_q`
    /// delays a request to `ℓ_q` as one on any co-located resource does.
    pub fn co_located<'a>(
        &'a self,
        tasks: &'a TaskSet,
        resource: ResourceId,
    ) -> Box<dyn Iterator<Item = ResourceId> + 'a> {
        match self.home_of(resource) {
            Some(p) => Box::new(self.resources_on(tasks, p)),
            None => Box::new(core::iter::empty()),
        }
    }

    /// The global resources hosted on any processor of a task's cluster —
    /// the paper's `Φ^℘(τ_i)`.
    pub fn resources_on_cluster<'a>(
        &'a self,
        tasks: &'a TaskSet,
        task: TaskId,
    ) -> impl Iterator<Item = ResourceId> + 'a {
        self.resource_homes
            .iter()
            .filter(move |&(&q, &home)| {
                tasks.is_global(q) && self.clusters[task.index()].binary_search(&home).is_ok()
            })
            .map(|(&q, _)| q)
    }

    /// Total number of processors claimed by clusters.
    pub fn assigned_processors(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// The platform size this partition was validated against.
    pub fn processor_count(&self) -> usize {
        self.owner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;
    use crate::task::{DagTask, RequestSpec, VertexSpec};
    use crate::time::Time;

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }
    fn pid(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }
    fn tid(i: usize) -> TaskId {
        TaskId::new(i)
    }

    fn shared_set() -> TaskSet {
        let mk = |id: usize, q: usize| {
            DagTask::builder(tid(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(1),
                    [RequestSpec::new(rid(q), 1)],
                ))
                .critical_section(rid(q), Time::from_us(10))
                .build()
                .unwrap()
        };
        // ℓ0 global (τ0, τ1); ℓ1 local (τ2 only).
        let t2 = DagTask::builder(tid(2), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(1),
                [RequestSpec::new(rid(1), 1)],
            ))
            .critical_section(rid(1), Time::from_us(10))
            .build()
            .unwrap();
        TaskSet::new(vec![mk(0, 0), mk(1, 0), t2], 2).unwrap()
    }

    fn valid_partition(ts: &TaskSet, platform: &Platform) -> Partition {
        Partition::new(
            ts,
            platform,
            vec![vec![pid(0), pid(1)], vec![pid(2)], vec![pid(3)]],
            BTreeMap::from([(rid(0), pid(2))]),
        )
        .unwrap()
    }

    #[test]
    fn platform_validates_size() {
        assert!(Platform::new(1).is_err());
        assert!(Platform::new(2).is_ok());
        let p = Platform::new(4).unwrap();
        assert!(p.contains(pid(3)));
        assert!(!p.contains(pid(4)));
    }

    #[test]
    fn partition_queries() {
        let ts = shared_set();
        let platform = Platform::new(4).unwrap();
        let part = valid_partition(&ts, &platform);
        assert_eq!(part.cluster(tid(0)), &[pid(0), pid(1)]);
        assert_eq!(part.cluster_size(tid(0)), 2);
        assert_eq!(part.owner_of(pid(2)), Some(tid(1)));
        assert_eq!(part.owner_of(pid(0)), Some(tid(0)));
        assert_eq!(part.home_of(rid(0)), Some(pid(2)));
        assert_eq!(part.home_of(rid(1)), None);
        assert_eq!(part.assigned_processors(), 4);
        assert_eq!(
            part.resources_on(&ts, pid(2)).collect::<Vec<_>>(),
            vec![rid(0)]
        );
        assert!(part.resources_on(&ts, pid(0)).next().is_none());
        assert_eq!(
            part.co_located(&ts, rid(0)).collect::<Vec<_>>(),
            vec![rid(0)]
        );
        // ℓ0 lives on τ1's cluster.
        assert_eq!(
            part.resources_on_cluster(&ts, tid(1)).collect::<Vec<_>>(),
            vec![rid(0)]
        );
        assert!(part.resources_on_cluster(&ts, tid(0)).next().is_none());
    }

    #[test]
    fn partition_rejects_overlap_and_gaps() {
        let ts = shared_set();
        let platform = Platform::new(4).unwrap();
        let homes = BTreeMap::from([(rid(0), pid(0))]);

        let e = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(0)], vec![pid(0)], vec![pid(1)]],
            homes.clone(),
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::OverlappingClusters { .. }));

        let e = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(0)], vec![], vec![pid(1)]],
            homes.clone(),
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::EmptyCluster { .. }));

        let e = Partition::new(&ts, &platform, vec![vec![pid(0)]], homes.clone()).unwrap_err();
        assert!(matches!(e, ModelError::PartitionTaskMismatch { .. }));

        let e = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(0)], vec![pid(9)], vec![pid(1)]],
            homes,
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::ProcessorOutOfRange { .. }));
    }

    #[test]
    fn partition_requires_homes_for_globals_only() {
        let ts = shared_set();
        let platform = Platform::new(4).unwrap();
        let e = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(0)], vec![pid(1)], vec![pid(2)]],
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(
            e,
            ModelError::UnassignedGlobalResource { resource } if resource == rid(0)
        ));
        // Local resource ℓ1 needs no home.
        let ok = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(0)], vec![pid(1)], vec![pid(2)]],
            BTreeMap::from([(rid(0), pid(3))]),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn cluster_lists_are_sorted_and_deduped() {
        let ts = shared_set();
        let platform = Platform::new(4).unwrap();
        let part = Partition::new(
            &ts,
            &platform,
            vec![vec![pid(1), pid(0), pid(1)], vec![pid(2)], vec![pid(3)]],
            BTreeMap::from([(rid(0), pid(2))]),
        )
        .unwrap();
        assert_eq!(part.cluster(tid(0)), &[pid(0), pid(1)]);
    }

    // Silence an unused-import warning in this test module.
    #[allow(dead_code)]
    fn _use_vertex_id(v: VertexId) -> usize {
        v.index()
    }

    fn platform_with(processors: u64) -> Result<Platform, serde::Error> {
        Platform::deserialize(&serde::Value::Object(vec![(
            "processors".into(),
            serde::Value::U64(processors),
        )]))
    }

    #[test]
    fn deserialize_accepts_the_processor_cap() {
        let platform = platform_with(MAX_WIRE_PROCESSORS as u64).unwrap();
        assert_eq!(platform.processor_count(), MAX_WIRE_PROCESSORS);
    }

    #[test]
    fn deserialize_refuses_a_platform_beyond_the_cap() {
        for processors in [MAX_WIRE_PROCESSORS as u64 + 1, 100_000_000_000] {
            let err = platform_with(processors).unwrap_err().to_string();
            assert!(err.contains("at most 1024 processors"), "{err}");
            assert!(err.contains(&format!("got {processors}")), "{err}");
        }
    }
}
