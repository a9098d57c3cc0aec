//! Global-resource partitioning heuristics (Algorithm 2 and ablation
//! variants).
//!
//! Algorithm 2 assigns global resources in non-increasing utilization
//! order: each resource goes to the *cluster* with the maximum utilization
//! slack (`Worst-Fit`), and within that cluster to the processor with the
//! minimum resource utilization. The allocation is infeasible when the
//! chosen cluster would exceed its capacity (its processor count).
//!
//! The `FirstFitDecreasing` / `BestFitDecreasing` variants replace the
//! cluster-selection rule and exist for the ablation study (they are not
//! in the paper).

use std::collections::BTreeMap;

use dpcp_model::{ProcessorId, ResourceId, TaskId, TaskSet};
use serde::{Deserialize, Serialize};

/// Cluster-selection rule used when placing a global resource.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceHeuristic {
    /// Algorithm 2: the cluster with maximum slack (`Worst-Fit
    /// Decreasing`).
    #[default]
    WorstFitDecreasing,
    /// First cluster (in task order) whose slack fits the resource.
    FirstFitDecreasing,
    /// The cluster with minimum remaining slack that still fits.
    BestFitDecreasing,
}

impl core::fmt::Display for ResourceHeuristic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResourceHeuristic::WorstFitDecreasing => f.write_str("WFD"),
            ResourceHeuristic::FirstFitDecreasing => f.write_str("FFD"),
            ResourceHeuristic::BestFitDecreasing => f.write_str("BFD"),
        }
    }
}

/// A cluster layout: the processors dedicated to each task, in task order.
pub(crate) type ClusterLayout = Vec<Vec<ProcessorId>>;

/// One placement bin for Algorithm 2: a set of processors with a starting
/// utilization (a heavy task's cluster, or a shared light-task processor
/// in the mixed extension).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityBin {
    /// The bin's processors.
    pub processors: Vec<ProcessorId>,
    /// Utilization already placed in the bin (task workload).
    pub utilization: f64,
}

impl CapacityBin {
    /// The bin's capacity (its processor count).
    pub fn capacity(&self) -> f64 {
        self.processors.len() as f64
    }
}

/// Assigns every global resource to a processor per the chosen heuristic
/// (Algorithm 2).
///
/// `clusters[i]` are the processors of task `τ_i`; cluster capacity is its
/// processor count, its starting utilization is the task's `U_i` (the
/// reading of Algorithm 2's line 3 this implementation uses).
///
/// Returns `None` when the allocation is infeasible (Algorithm 2 line 7).
pub fn assign_resources(
    tasks: &TaskSet,
    clusters: &ClusterLayout,
    heuristic: ResourceHeuristic,
) -> Option<BTreeMap<ResourceId, ProcessorId>> {
    let bins: Vec<CapacityBin> = clusters
        .iter()
        .zip(tasks.iter())
        .map(|(c, t)| CapacityBin {
            processors: c.clone(),
            utilization: t.utilization(),
        })
        .collect();
    assign_resources_to_bins(tasks, &bins, heuristic)
}

/// The generalised Algorithm 2 over arbitrary bins (used directly by the
/// mixed heavy/light partitioner).
///
/// Returns `None` when the allocation is infeasible.
pub fn assign_resources_to_bins(
    tasks: &TaskSet,
    bins: &[CapacityBin],
    heuristic: ResourceHeuristic,
) -> Option<BTreeMap<ResourceId, ProcessorId>> {
    // Sort global resources by non-increasing utilization (line 1); ties
    // broken by id for determinism.
    let mut globals: Vec<(ResourceId, f64)> = tasks
        .global_resources()
        .map(|q| (q, tasks.resource_utilization(q)))
        .collect();
    globals.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    if globals.is_empty() {
        return Some(BTreeMap::new());
    }
    if bins.is_empty() {
        return None;
    }

    let capacity: Vec<f64> = bins.iter().map(CapacityBin::capacity).collect();
    let mut util: Vec<f64> = bins.iter().map(|b| b.utilization).collect();
    let mut proc_util: BTreeMap<ProcessorId, f64> = BTreeMap::new();
    for b in bins {
        for &p in &b.processors {
            proc_util.insert(p, 0.0);
        }
    }

    let mut homes = BTreeMap::new();
    for (q, u_q) in globals {
        let fits = |x: usize| util[x] + u_q <= capacity[x] + f64::EPSILON;
        let chosen = match heuristic {
            ResourceHeuristic::WorstFitDecreasing => {
                // Maximum slack cluster (line 5); infeasible if even that
                // one overflows (line 6–7).
                let x = (0..bins.len()).max_by(|&a, &b| {
                    let sa = capacity[a] - util[a];
                    let sb = capacity[b] - util[b];
                    sa.partial_cmp(&sb)
                        .unwrap_or(core::cmp::Ordering::Equal)
                        .then(b.cmp(&a)) // prefer lower bin index on ties
                })?;
                fits(x).then_some(x)
            }
            ResourceHeuristic::FirstFitDecreasing => (0..bins.len()).find(|&x| fits(x)),
            ResourceHeuristic::BestFitDecreasing => {
                (0..bins.len()).filter(|&x| fits(x)).min_by(|&a, &b| {
                    let sa = capacity[a] - util[a];
                    let sb = capacity[b] - util[b];
                    sa.partial_cmp(&sb)
                        .unwrap_or(core::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
            }
        }?;

        // Within the bin: processor with minimum resource utilization
        // (line 9).
        let &p = bins[chosen]
            .processors
            .iter()
            .min_by(|&&a, &&b| {
                proc_util[&a]
                    .partial_cmp(&proc_util[&b])
                    .unwrap_or(core::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .expect("bins are non-empty by construction");
        homes.insert(q, p);
        util[chosen] += u_q;
        *proc_util.get_mut(&p).expect("processor seeded above") += u_q;
    }
    Some(homes)
}

/// Builds the canonical cluster layout for given per-task sizes: processors
/// `0..` are dealt out in task order. Returns `None` when the sizes exceed
/// `m`.
pub fn layout_clusters(sizes: &[usize], m: usize) -> Option<ClusterLayout> {
    let total: usize = sizes.iter().sum();
    if total > m {
        return None;
    }
    let mut next = 0usize;
    Some(
        sizes
            .iter()
            .map(|&s| {
                let c = (next..next + s).map(ProcessorId::new).collect();
                next += s;
                c
            })
            .collect(),
    )
}

/// The utilization slack `Σ_x (m_x − U^cluster_x)` left after an
/// assignment (diagnostic for the ablation study).
pub fn total_slack(
    tasks: &TaskSet,
    clusters: &ClusterLayout,
    homes: &BTreeMap<ResourceId, ProcessorId>,
) -> f64 {
    let mut util: Vec<f64> = tasks.iter().map(|t| t.utilization()).collect();
    let owner_of =
        |p: ProcessorId| -> Option<usize> { clusters.iter().position(|c| c.contains(&p)) };
    for (&q, &p) in homes {
        if let Some(x) = owner_of(p) {
            util[x] += tasks.resource_utilization(q);
        }
    }
    clusters
        .iter()
        .enumerate()
        .map(|(x, c)| c.len() as f64 - util[x])
        .sum()
}

/// Convenience: owner task of a processor inside a layout.
pub fn layout_owner(clusters: &ClusterLayout, p: ProcessorId) -> Option<TaskId> {
    clusters
        .iter()
        .position(|c| c.contains(&p))
        .map(TaskId::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{DagTask, RequestSpec, Time, VertexSpec};

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    /// Two tasks sharing two resources with distinct utilizations.
    fn tasks_two_globals(cs_us: [u64; 2]) -> TaskSet {
        let mk = |id: usize, wcet_ms: u64| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(wcet_ms),
                    [RequestSpec::new(rid(0), 1), RequestSpec::new(rid(1), 1)],
                ))
                .critical_section(rid(0), Time::from_us(cs_us[0]))
                .critical_section(rid(1), Time::from_us(cs_us[1]))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![mk(0, 4), mk(1, 2)], 2).unwrap()
    }

    #[test]
    fn layout_deals_processors_in_order() {
        let layout = layout_clusters(&[2, 1], 4).unwrap();
        assert_eq!(layout[0], vec![ProcessorId::new(0), ProcessorId::new(1)]);
        assert_eq!(layout[1], vec![ProcessorId::new(2)]);
        assert!(layout_clusters(&[3, 2], 4).is_none());
        assert_eq!(
            layout_owner(&layout, ProcessorId::new(2)),
            Some(TaskId::new(1))
        );
        assert_eq!(layout_owner(&layout, ProcessorId::new(3)), None);
    }

    #[test]
    fn wfd_places_heaviest_resource_on_slackest_cluster() {
        let ts = tasks_two_globals([100, 10]);
        // τ0: U = 0.4, τ1: U = 0.2. Clusters of 1 each: slack 0.6 vs 0.8.
        let layout = layout_clusters(&[1, 1], 2).unwrap();
        let homes = assign_resources(&ts, &layout, ResourceHeuristic::WorstFitDecreasing).unwrap();
        // ℓ0 (heavier) goes to τ1's cluster (more slack) = ℘1.
        assert_eq!(homes[&rid(0)], ProcessorId::new(1));
        // After that τ1's slack shrinks barely (u ≈ 2e-5); still slackest.
        assert_eq!(homes[&rid(1)], ProcessorId::new(1));
    }

    #[test]
    fn within_cluster_least_loaded_processor_wins() {
        let ts = tasks_two_globals([100, 100]);
        // One cluster with 2 processors for τ0, one processor for τ1, but
        // make τ0's cluster the slackest.
        let layout = layout_clusters(&[2, 1], 3).unwrap();
        let homes = assign_resources(&ts, &layout, ResourceHeuristic::WorstFitDecreasing).unwrap();
        // Both resources land in τ0's cluster; the second must take the
        // other processor (min proc-utilization rule).
        let p0 = homes[&rid(0)];
        let p1 = homes[&rid(1)];
        assert_ne!(p0, p1);
        assert!(layout[0].contains(&p0) && layout[0].contains(&p1));
    }

    #[test]
    fn infeasible_when_no_cluster_fits() {
        // A resource with a utilization larger than any cluster slack.
        let mk = |id: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(1))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(990),
                    [RequestSpec::new(rid(0), 20)],
                ))
                .critical_section(rid(0), Time::from_us(45))
                .build()
                .unwrap()
        };
        // Each task: U = 0.99, resource utilization = 2 · 20·45µs/1ms = 1.8.
        let ts = TaskSet::new(vec![mk(0), mk(1)], 1).unwrap();
        let layout = layout_clusters(&[1, 1], 2).unwrap();
        for h in [
            ResourceHeuristic::WorstFitDecreasing,
            ResourceHeuristic::FirstFitDecreasing,
            ResourceHeuristic::BestFitDecreasing,
        ] {
            assert!(assign_resources(&ts, &layout, h).is_none(), "{h}");
        }
    }

    #[test]
    fn ffd_and_bfd_differ_from_wfd() {
        let ts = tasks_two_globals([100, 10]);
        let layout = layout_clusters(&[1, 1], 2).unwrap();
        let ffd = assign_resources(&ts, &layout, ResourceHeuristic::FirstFitDecreasing).unwrap();
        // FFD puts ℓ0 on the first cluster that fits = τ0's ℘0.
        assert_eq!(ffd[&rid(0)], ProcessorId::new(0));
        let bfd = assign_resources(&ts, &layout, ResourceHeuristic::BestFitDecreasing).unwrap();
        // BFD picks the tightest fit = τ0's cluster (slack 0.6 < 0.8).
        assert_eq!(bfd[&rid(0)], ProcessorId::new(0));
    }

    #[test]
    fn local_resources_are_never_assigned() {
        // Single user ⇒ local ⇒ no home.
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(1),
                [RequestSpec::new(rid(0), 1)],
            ))
            .critical_section(rid(0), Time::from_us(10))
            .build()
            .unwrap();
        let ts = TaskSet::new(vec![t], 1).unwrap();
        let layout = layout_clusters(&[1], 2).unwrap();
        let homes = assign_resources(&ts, &layout, ResourceHeuristic::WorstFitDecreasing).unwrap();
        assert!(homes.is_empty());
    }

    #[test]
    fn slack_accounting() {
        let ts = tasks_two_globals([100, 10]);
        let layout = layout_clusters(&[1, 1], 2).unwrap();
        let homes = assign_resources(&ts, &layout, ResourceHeuristic::WorstFitDecreasing).unwrap();
        let slack = total_slack(&ts, &layout, &homes);
        let expected = 2.0
            - ts.total_utilization()
            - ts.resource_utilization(rid(0))
            - ts.resource_utilization(rid(1));
        assert!((slack - expected).abs() < 1e-9);
    }
}
