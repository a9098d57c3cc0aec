//! Error types for model construction and validation.

use core::fmt;

use crate::ids::{ProcessorId, ResourceId, TaskId, VertexId};
use crate::time::Time;

/// Errors raised while constructing or validating model entities.
///
/// Every constructor in this crate validates its arguments (a malformed task
/// set would silently corrupt downstream analysis results), and reports
/// failures through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A DAG must contain at least one vertex.
    EmptyDag,
    /// An edge endpoint referenced a vertex index `vertex ≥ count`.
    VertexOutOfRange {
        /// The offending index.
        vertex: usize,
        /// The number of vertices in the DAG.
        count: usize,
    },
    /// An edge connected a vertex to itself.
    SelfLoop {
        /// The offending vertex index.
        vertex: usize,
    },
    /// The same directed edge was given twice.
    DuplicateEdge {
        /// Source vertex index.
        from: usize,
        /// Destination vertex index.
        to: usize,
    },
    /// The edge set contains a cycle, so no topological order exists.
    CyclicGraph,
    /// A task period must be positive.
    NonPositivePeriod {
        /// The offending task.
        task: TaskId,
    },
    /// A relative deadline must be positive and at most the period
    /// (constrained deadlines, Sec. II).
    InvalidDeadline {
        /// The offending task.
        task: TaskId,
        /// The rejected deadline.
        deadline: Time,
        /// The task period.
        period: Time,
    },
    /// The number of per-vertex WCETs must match the DAG vertex count.
    VertexSpecCountMismatch {
        /// The offending task.
        task: TaskId,
        /// Number of vertex specifications supplied.
        specs: usize,
        /// Number of vertices in the DAG.
        vertices: usize,
    },
    /// A vertex requests a resource for which the task declares no maximum
    /// critical-section length `L_{i,q}`.
    MissingCriticalSectionLength {
        /// The offending task.
        task: TaskId,
        /// The vertex making the request.
        vertex: VertexId,
        /// The resource without a declared length.
        resource: ResourceId,
    },
    /// A declared critical-section length must be positive.
    NonPositiveCriticalSection {
        /// The offending task.
        task: TaskId,
        /// The resource with the zero length.
        resource: ResourceId,
    },
    /// A vertex WCET is too small to contain its critical sections
    /// (the model requires `C_{i,x} ≥ Σ_q N_{i,x,q} · L_{i,q}`).
    VertexWcetBelowCriticalSections {
        /// The offending task.
        task: TaskId,
        /// The offending vertex.
        vertex: VertexId,
        /// The vertex WCET.
        wcet: Time,
        /// The total critical-section demand of the vertex.
        critical: Time,
    },
    /// A task's requests to one resource sum past `u32::MAX`, within one
    /// vertex or across its vertices.
    RequestCountOverflow {
        /// The offending task.
        task: TaskId,
        /// The resource whose request count overflows.
        resource: ResourceId,
    },
    /// A task references a resource outside the task set's declared universe.
    ResourceOutOfRange {
        /// The offending task.
        task: TaskId,
        /// The out-of-range resource.
        resource: ResourceId,
        /// Number of resources in the task set.
        count: usize,
    },
    /// Task identifiers inside a task set must be dense (`τ_0 … τ_{n-1}`).
    NonDenseTaskIds {
        /// The expected identifier at this position.
        expected: TaskId,
        /// The identifier actually found.
        found: TaskId,
    },
    /// A platform must have at least two processors (`m ≥ 2`, Sec. II).
    TooFewProcessors {
        /// The rejected processor count.
        processors: usize,
    },
    /// A partition referenced a processor outside the platform.
    ProcessorOutOfRange {
        /// The offending processor.
        processor: ProcessorId,
        /// The platform size.
        count: usize,
    },
    /// Two clusters claimed the same processor.
    OverlappingClusters {
        /// The doubly-assigned processor.
        processor: ProcessorId,
    },
    /// A task was assigned an empty cluster.
    EmptyCluster {
        /// The offending task.
        task: TaskId,
    },
    /// A partition must cover every task of the task set exactly once.
    PartitionTaskMismatch {
        /// Number of per-task clusters supplied.
        clusters: usize,
        /// Number of tasks in the task set.
        tasks: usize,
    },
    /// A global resource was left unassigned by a partition.
    UnassignedGlobalResource {
        /// The unassigned resource.
        resource: ResourceId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyDag => f.write_str("a DAG must contain at least one vertex"),
            ModelError::VertexOutOfRange { vertex, count } => write!(
                f,
                "edge endpoint {vertex} out of range for a DAG with {count} vertices"
            ),
            ModelError::SelfLoop { vertex } => {
                write!(f, "vertex {vertex} has a self-loop edge")
            }
            ModelError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge ({from}, {to})")
            }
            ModelError::CyclicGraph => f.write_str("edge set contains a cycle"),
            ModelError::NonPositivePeriod { task } => {
                write!(f, "{task} has a non-positive period")
            }
            ModelError::InvalidDeadline {
                task,
                deadline,
                period,
            } => write!(
                f,
                "{task} deadline {deadline} must be positive and at most the period {period}"
            ),
            ModelError::VertexSpecCountMismatch {
                task,
                specs,
                vertices,
            } => write!(
                f,
                "{task} supplies {specs} vertex specs for a DAG with {vertices} vertices"
            ),
            ModelError::MissingCriticalSectionLength {
                task,
                vertex,
                resource,
            } => write!(
                f,
                "{task} {vertex} requests {resource} but the task declares no L value for it"
            ),
            ModelError::NonPositiveCriticalSection { task, resource } => write!(
                f,
                "{task} declares a zero critical-section length for {resource}"
            ),
            ModelError::VertexWcetBelowCriticalSections {
                task,
                vertex,
                wcet,
                critical,
            } => write!(
                f,
                "{task} {vertex} WCET {wcet} is below its critical-section demand {critical}"
            ),
            ModelError::RequestCountOverflow { task, resource } => write!(
                f,
                "{task} issues more than {} requests to {resource}",
                u32::MAX
            ),
            ModelError::ResourceOutOfRange {
                task,
                resource,
                count,
            } => write!(
                f,
                "{task} references {resource} outside the {count}-resource universe"
            ),
            ModelError::NonDenseTaskIds { expected, found } => write!(
                f,
                "task identifiers must be dense: expected {expected}, found {found}"
            ),
            ModelError::TooFewProcessors { processors } => write!(
                f,
                "a platform needs at least 2 processors, got {processors}"
            ),
            ModelError::ProcessorOutOfRange { processor, count } => write!(
                f,
                "{processor} out of range for a platform with {count} processors"
            ),
            ModelError::OverlappingClusters { processor } => {
                write!(f, "{processor} is claimed by more than one cluster")
            }
            ModelError::EmptyCluster { task } => {
                write!(f, "{task} was assigned an empty cluster")
            }
            ModelError::PartitionTaskMismatch { clusters, tasks } => write!(
                f,
                "partition supplies {clusters} clusters for {tasks} tasks"
            ),
            ModelError::UnassignedGlobalResource { resource } => {
                write!(
                    f,
                    "global resource {resource} is not assigned to a processor"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Deserialization rebuilds model types through their constructors, so a
/// broken invariant in the input is a deserialization error naming it.
impl From<ModelError> for serde::Error {
    fn from(e: ModelError) -> Self {
        serde::Error::custom(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let e = ModelError::DuplicateEdge { from: 1, to: 2 };
        assert_eq!(e.to_string(), "duplicate edge (1, 2)");
        let e = ModelError::TooFewProcessors { processors: 1 };
        assert!(e.to_string().contains("at least 2"));
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ModelError>();
    }

    #[test]
    fn display_covers_every_variant() {
        // Smoke-format each variant; a panic or empty string here would make
        // downstream error reports useless.
        let samples: Vec<ModelError> = vec![
            ModelError::EmptyDag,
            ModelError::VertexOutOfRange {
                vertex: 9,
                count: 3,
            },
            ModelError::SelfLoop { vertex: 0 },
            ModelError::DuplicateEdge { from: 0, to: 1 },
            ModelError::CyclicGraph,
            ModelError::NonPositivePeriod {
                task: TaskId::new(0),
            },
            ModelError::InvalidDeadline {
                task: TaskId::new(0),
                deadline: Time::ZERO,
                period: Time::from_ms(1),
            },
            ModelError::VertexSpecCountMismatch {
                task: TaskId::new(0),
                specs: 1,
                vertices: 2,
            },
            ModelError::MissingCriticalSectionLength {
                task: TaskId::new(0),
                vertex: VertexId::new(1),
                resource: ResourceId::new(2),
            },
            ModelError::NonPositiveCriticalSection {
                task: TaskId::new(0),
                resource: ResourceId::new(1),
            },
            ModelError::VertexWcetBelowCriticalSections {
                task: TaskId::new(0),
                vertex: VertexId::new(0),
                wcet: Time::from_us(1),
                critical: Time::from_us(2),
            },
            ModelError::RequestCountOverflow {
                task: TaskId::new(0),
                resource: ResourceId::new(1),
            },
            ModelError::ResourceOutOfRange {
                task: TaskId::new(0),
                resource: ResourceId::new(5),
                count: 2,
            },
            ModelError::NonDenseTaskIds {
                expected: TaskId::new(0),
                found: TaskId::new(3),
            },
            ModelError::TooFewProcessors { processors: 0 },
            ModelError::ProcessorOutOfRange {
                processor: ProcessorId::new(9),
                count: 4,
            },
            ModelError::OverlappingClusters {
                processor: ProcessorId::new(1),
            },
            ModelError::EmptyCluster {
                task: TaskId::new(2),
            },
            ModelError::PartitionTaskMismatch {
                clusters: 1,
                tasks: 2,
            },
            ModelError::UnassignedGlobalResource {
                resource: ResourceId::new(0),
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }
}
