//! The two-task example of Fig. 1 of the paper.
//!
//! Reconstructs the DAG tasks `G_i` and `G_j` of Fig. 1(a) — including the
//! global resource `ℓ_1` (red) shared by both tasks and the local resource
//! `ℓ_2` (blue) used twice inside `τ_i` — plus the four-processor platform
//! and the partition of Fig. 1(b) (`τ_i` on `{℘_3, ℘_4}`, `τ_j` on
//! `{℘_1, ℘_2}`, `ℓ_1` assigned to `℘_2`).
//!
//! The example is used throughout the test suites as a ground-truth vector:
//! its longest path is `(v_{i,1}, v_{i,5}, v_{i,7}, v_{i,8})` with
//! `L*_i = 10` time units, exactly as stated in Sec. II.

use std::collections::BTreeMap;

use crate::error::ModelError;
use crate::graph::Dag;
use crate::ids::{ProcessorId, ResourceId, TaskId};
use crate::platform::{Partition, Platform};
use crate::task::{DagTask, RequestSpec, VertexSpec};
use crate::taskset::TaskSet;
use crate::time::Time;

/// One Fig. 1 time unit. The figure is unitless; we map one unit to 1 ms so
/// critical sections and WCETs stay in realistic ranges.
pub const fn unit() -> Time {
    Time::from_ms(1)
}

/// The global resource `ℓ_1` (red in the figure).
pub const GLOBAL_RESOURCE: ResourceId = ResourceId::new(0);
/// The local resource `ℓ_2` (blue in the figure).
pub const LOCAL_RESOURCE: ResourceId = ResourceId::new(1);

/// Builds the two tasks `(τ_i, τ_j)` of Fig. 1(a).
///
/// Vertex indices are zero-based: `v_{i,1}` of the paper is `VertexId(0)`.
/// Periods/deadlines are not given in the figure; both tasks get
/// `D = T = 30` units, which leaves enough headroom for both analysis
/// variants (the coarser EN bound reaches 26 units for this system) while
/// the two-processor clusters of Fig. 1(b) stay feasible.
///
/// # Errors
///
/// Propagates [`ModelError`] from construction (cannot happen for this
/// fixed input; the signature allows `?`-style use in examples).
pub fn tasks() -> Result<(DagTask, DagTask), ModelError> {
    let u = |n: u64| unit() * n;

    // G_i: 8 vertices. Complete paths named in the paper:
    //   (v1, v5, v7, v8) — the longest, L* = 2+4+2+2 = 10,
    //   (v1, v2, v6, v8), (v1, v4, v7, v8); plus (v1, v3, v6, v8).
    let gi = Dag::new(
        8,
        [
            (0, 1), // v1 → v2
            (0, 2), // v1 → v3
            (0, 3), // v1 → v4
            (0, 4), // v1 → v5
            (1, 5), // v2 → v6
            (2, 5), // v3 → v6
            (3, 6), // v4 → v7
            (4, 6), // v5 → v7
            (5, 7), // v6 → v8
            (6, 7), // v7 → v8
        ],
    )?;
    let ti = DagTask::builder(TaskId::new(0), u(30))
        .dag(gi)
        .vertex(VertexSpec::new(u(2))) // v_{i,1}
        .vertex(VertexSpec::with_requests(
            u(3),
            [RequestSpec::write(GLOBAL_RESOURCE, 1)],
        )) // v_{i,2}: entirely one critical section on ℓ1
        .vertex(VertexSpec::with_requests(
            u(2),
            [RequestSpec::write(LOCAL_RESOURCE, 1)],
        )) // v_{i,3}: holds ℓ2
        .vertex(VertexSpec::with_requests(
            u(2),
            [RequestSpec::write(LOCAL_RESOURCE, 1)],
        )) // v_{i,4}: waits for ℓ2 behind v_{i,3}
        .vertex(VertexSpec::new(u(4))) // v_{i,5}
        .vertex(VertexSpec::new(u(2))) // v_{i,6}
        .vertex(VertexSpec::new(u(2))) // v_{i,7}
        .vertex(VertexSpec::new(u(2))) // v_{i,8}
        .critical_section(GLOBAL_RESOURCE, u(3))
        .critical_section(LOCAL_RESOURCE, u(2))
        .build()?;

    // G_j: 6 vertices. Paths named in the paper: (v1, v4, v6), (v1, v5, v6).
    let gj = Dag::new(
        6,
        [
            (0, 1), // v1 → v2
            (0, 2), // v1 → v3
            (0, 3), // v1 → v4
            (0, 4), // v1 → v5
            (1, 5), // v2 → v6
            (2, 5), // v3 → v6
            (3, 5), // v4 → v6
            (4, 5), // v5 → v6
        ],
    )?;
    let tj = DagTask::builder(TaskId::new(1), u(30))
        .dag(gj)
        .vertex(VertexSpec::new(u(1))) // v_{j,1}
        .vertex(VertexSpec::new(u(3))) // v_{j,2}
        .vertex(VertexSpec::with_requests(
            u(3),
            [RequestSpec::write(GLOBAL_RESOURCE, 1)],
        )) // v_{j,3}: entirely one critical section on ℓ1
        .vertex(VertexSpec::new(u(4))) // v_{j,4}
        .vertex(VertexSpec::new(u(4))) // v_{j,5}
        .vertex(VertexSpec::new(u(1))) // v_{j,6}
        .critical_section(GLOBAL_RESOURCE, u(3))
        .build()?;

    Ok((ti, tj))
}

/// The Fig. 1 task set (`τ_i = τ_0`, `τ_j = τ_1`) over the two resources.
///
/// # Errors
///
/// Propagates [`ModelError`] from construction (cannot happen for this
/// fixed input).
pub fn task_set() -> Result<TaskSet, ModelError> {
    let (ti, tj) = tasks()?;
    TaskSet::new(vec![ti, tj], 2)
}

/// The four-processor platform and the partition of Fig. 1(b):
/// `τ_i` on `{℘_3, ℘_4}` (zero-based `{2, 3}`), `τ_j` on `{℘_1, ℘_2}`
/// (zero-based `{0, 1}`), `ℓ_1` assigned to `℘_2` (zero-based `1`).
///
/// # Errors
///
/// Propagates [`ModelError`] from construction (cannot happen for this
/// fixed input).
pub fn platform_and_partition() -> Result<(Platform, Partition, TaskSet), ModelError> {
    let ts = task_set()?;
    let platform = Platform::new(4)?;
    let partition = Partition::new(
        &ts,
        &platform,
        vec![
            vec![ProcessorId::new(2), ProcessorId::new(3)], // τ_i = τ_0
            vec![ProcessorId::new(0), ProcessorId::new(1)], // τ_j = τ_1
        ],
        BTreeMap::from([(GLOBAL_RESOURCE, ProcessorId::new(1))]),
    )?;
    Ok((platform, partition, ts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn longest_path_matches_paper() {
        let (ti, tj) = tasks().unwrap();
        assert_eq!(ti.longest_path_len(), unit() * 10);
        // The witness is (v1, v5, v7, v8) = indices (0, 4, 6, 7).
        assert_eq!(
            ti.longest_path(),
            &[
                VertexId::new(0),
                VertexId::new(4),
                VertexId::new(6),
                VertexId::new(7)
            ]
        );
        assert_eq!(tj.longest_path_len(), unit() * 6);
    }

    #[test]
    fn wcets_match_figure() {
        let (ti, tj) = tasks().unwrap();
        assert_eq!(ti.wcet(), unit() * 19); // 2+3+2+2+4+2+2+2
        assert_eq!(tj.wcet(), unit() * 16); // 1+3+3+4+4+1
    }

    #[test]
    fn resource_classification_matches_figure() {
        let ts = task_set().unwrap();
        assert!(ts.is_global(GLOBAL_RESOURCE));
        assert!(!ts.is_global(LOCAL_RESOURCE));
        assert_eq!(ts.users_of(GLOBAL_RESOURCE).len(), 2);
        assert_eq!(ts.users_of(LOCAL_RESOURCE), &[TaskId::new(0)]);
    }

    #[test]
    fn request_totals() {
        let (ti, tj) = tasks().unwrap();
        assert_eq!(ti.total_requests(GLOBAL_RESOURCE), 1);
        assert_eq!(ti.total_requests(LOCAL_RESOURCE), 2);
        assert_eq!(tj.total_requests(GLOBAL_RESOURCE), 1);
    }

    #[test]
    fn paths_named_in_paper_exist() {
        let (ti, tj) = tasks().unwrap();
        let v = VertexId::new;
        assert!(ti.dag().is_complete_path(&[v(0), v(4), v(6), v(7)]));
        assert!(ti.dag().is_complete_path(&[v(0), v(1), v(5), v(7)]));
        assert!(ti.dag().is_complete_path(&[v(0), v(3), v(6), v(7)]));
        assert!(tj.dag().is_complete_path(&[v(0), v(3), v(5)]));
        assert!(tj.dag().is_complete_path(&[v(0), v(4), v(5)]));
    }

    #[test]
    fn partition_matches_figure() {
        let (platform, part, ts) = platform_and_partition().unwrap();
        assert_eq!(platform.processor_count(), 4);
        assert_eq!(part.cluster_size(TaskId::new(0)), 2);
        assert_eq!(part.home_of(GLOBAL_RESOURCE), Some(ProcessorId::new(1)));
        // ℓ1's agent lives on τ_j's cluster.
        assert_eq!(part.owner_of(ProcessorId::new(1)), Some(TaskId::new(1)));
        assert_eq!(
            part.resources_on_cluster(&ts, TaskId::new(1))
                .collect::<Vec<_>>(),
            vec![GLOBAL_RESOURCE]
        );
    }

    #[test]
    fn both_tasks_are_heavyish_with_two_processors() {
        // With D = T = 30 both tasks fit comfortably on 2 processors:
        // m_i = ⌈(19−10)/(20−10)⌉ = 1 — the figure grants 2, so the
        // partition is feasible a fortiori.
        let (ti, tj) = tasks().unwrap();
        assert!(crate::taskset::initial_processors(&ti).is_some_and(|m| m <= 2));
        assert!(crate::taskset::initial_processors(&tj).is_some_and(|m| m <= 2));
    }
}
