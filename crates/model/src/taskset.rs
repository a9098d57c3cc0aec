//! Task sets `τ = {τ_1, …, τ_n}` and their shared-resource universe.
//!
//! A [`TaskSet`] owns the tasks and the resource universe
//! `Φ = {ℓ_1, …, ℓ_{n_r}}`, classifies each resource as *local* (used by at
//! most one task) or *global* (shared by several), and assigns unique base
//! priorities (Rate-Monotonic by default, as in the paper's evaluation).

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{ResourceId, TaskId};
use crate::priority::{Priority, PriorityAssignment};
use crate::task::DagTask;
use crate::time::Time;

/// Whether a resource is shared within one task or across tasks
/// (Sec. III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceScope {
    /// Used by the vertices of at most one task; requests execute locally.
    Local,
    /// Used by two or more tasks; requests execute on a designated
    /// processor via an agent.
    Global,
}

/// An immutable set of parallel tasks plus its resource universe.
///
/// # Examples
///
/// ```
/// use dpcp_model::{DagTask, ResourceId, TaskId, TaskSet, Time, VertexSpec};
///
/// let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(10))
///     .vertex(VertexSpec::new(Time::from_ms(2)))
///     .build()?;
/// let t1 = DagTask::builder(TaskId::new(1), Time::from_ms(20))
///     .vertex(VertexSpec::new(Time::from_ms(5)))
///     .build()?;
/// let ts = TaskSet::new(vec![t0, t1], 0)?;
/// assert_eq!(ts.len(), 2);
/// // RM: the shorter-period task τ0 got the higher priority.
/// assert!(ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskSet {
    /// Shared immutable payload: a task set never changes after
    /// construction, so `Clone` is an `Arc` bump and clones compare equal
    /// by pointer before any deep walk — what makes the session-level
    /// signature-cache key (a stored clone) essentially free.
    inner: std::sync::Arc<TaskSetInner>,
}

impl PartialEq for TaskSet {
    fn eq(&self, other: &Self) -> bool {
        // Clones share the payload: pointer equality settles the common
        // case before any structural walk.
        std::sync::Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

#[derive(Debug, PartialEq, Serialize)]
struct TaskSetInner {
    tasks: Vec<DagTask>,
    resource_count: usize,
    /// `users[q]` = tasks using `ℓ_q` (the paper's `τ(ℓ_q)`), sorted.
    users: Vec<Vec<TaskId>>,
}

// The wire format is exactly the pre-`Arc` struct layout (`tasks` /
// `resource_count` / `users`), so every serialized artifact — DTOs,
// campaign checkpoints, fuzz repro bundles, golden files — is unchanged.
impl Serialize for TaskSet {
    fn serialize(&self) -> serde::Value {
        self.inner.serialize()
    }
}

/// The largest resource universe a deserialized task set may declare.
/// The set and the analysis allocate per declared resource, so an
/// unchecked count read from input could demand gigabytes from a body of
/// a few bytes; no generator or fixture comes near this.
const MAX_WIRE_RESOURCES: usize = 1 << 16;

// Input is checked like `TaskSet::new` checks it (dense ids, resources
// inside the universe) and `users` is rebuilt, never read; the priorities
// are kept as sent, since the sender's assignment policy made them. The
// resource cap applies before `assemble` allocates per resource, in
// whichever order the members arrive.
impl Deserialize for TaskSet {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut tasks, mut resource_count) = (None, None);
        r.object(|r, key| match key {
            "tasks" => r.member(&mut tasks),
            "resource_count" => r.member(&mut resource_count),
            _ => r.skip(),
        })?;
        let resource_count: usize = serde::or_null(resource_count)?;
        if resource_count > MAX_WIRE_RESOURCES {
            return Err(serde::Error::custom(format!(
                "a task set may declare at most {MAX_WIRE_RESOURCES} resources, \
                 got {resource_count}"
            )));
        }
        let tasks: Vec<DagTask> = serde::or_null(tasks)?;
        Ok(TaskSet::assemble(tasks, resource_count)?)
    }
}

impl TaskSet {
    /// Builds a task set over `resource_count` resources, assigning
    /// Rate-Monotonic priorities.
    ///
    /// Task identifiers must be dense (`τ_0 … τ_{n-1}` in order); every
    /// resource referenced by a task must lie inside the universe.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonDenseTaskIds`] or
    /// [`ModelError::ResourceOutOfRange`] on malformed input.
    pub fn new(tasks: Vec<DagTask>, resource_count: usize) -> Result<Self, ModelError> {
        Self::with_priorities(tasks, resource_count, PriorityAssignment::RateMonotonic)
    }

    /// Builds a task set with an explicit priority-assignment policy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskSet::new`].
    pub fn with_priorities(
        mut tasks: Vec<DagTask>,
        resource_count: usize,
        assignment: PriorityAssignment,
    ) -> Result<Self, ModelError> {
        assign_priorities(&mut tasks, assignment);
        Self::assemble(tasks, resource_count)
    }

    /// Validates tasks whose priorities are already assigned and builds
    /// the set (the shared tail of [`TaskSet::with_priorities`] and
    /// deserialization).
    fn assemble(tasks: Vec<DagTask>, resource_count: usize) -> Result<Self, ModelError> {
        for (i, t) in tasks.iter().enumerate() {
            if t.id() != TaskId::new(i) {
                return Err(ModelError::NonDenseTaskIds {
                    expected: TaskId::new(i),
                    found: t.id(),
                });
            }
            for q in t.resources() {
                if q.index() >= resource_count {
                    return Err(ModelError::ResourceOutOfRange {
                        task: t.id(),
                        resource: q,
                        count: resource_count,
                    });
                }
            }
        }
        let mut users = vec![Vec::new(); resource_count];
        for t in &tasks {
            for q in t.resources() {
                users[q.index()].push(t.id());
            }
        }
        Ok(TaskSet {
            inner: std::sync::Arc::new(TaskSetInner {
                tasks,
                resource_count,
                users,
            }),
        })
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.tasks.len()
    }

    /// `true` when the set contains no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.tasks.is_empty()
    }

    /// Size of the resource universe `n_r`.
    #[inline]
    pub fn resource_count(&self) -> usize {
        self.inner.resource_count
    }

    /// All tasks in identifier order.
    #[inline]
    pub fn tasks(&self) -> &[DagTask] {
        &self.inner.tasks
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> impl Iterator<Item = &DagTask> {
        self.inner.tasks.iter()
    }

    /// One task by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    #[inline]
    pub fn task(&self, id: TaskId) -> &DagTask {
        &self.inner.tasks[id.index()]
    }

    /// All resource identifiers in the universe, ascending.
    pub fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        (0..self.inner.resource_count).map(ResourceId::new)
    }

    /// The tasks using `ℓ_q` (the paper's `τ(ℓ_q)`), ascending.
    ///
    /// # Panics
    ///
    /// Panics if the resource is out of range.
    #[inline]
    pub fn users_of(&self, resource: ResourceId) -> &[TaskId] {
        &self.inner.users[resource.index()]
    }

    /// Classifies a resource as local or global (Sec. III-A); unused
    /// resources count as local (they constrain nothing).
    pub fn resource_scope(&self, resource: ResourceId) -> ResourceScope {
        if self.users_of(resource).len() >= 2 {
            ResourceScope::Global
        } else {
            ResourceScope::Local
        }
    }

    /// Returns `true` if `ℓ_q` is shared by two or more tasks.
    pub fn is_global(&self, resource: ResourceId) -> bool {
        self.resource_scope(resource) == ResourceScope::Global
    }

    /// The global resources `Φ^G`, ascending.
    pub fn global_resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.resources().filter(|&q| self.is_global(q))
    }

    /// The local resources `Φ^L` that are actually used, ascending.
    pub fn local_resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.resources()
            .filter(|&q| !self.is_global(q) && !self.users_of(q).is_empty())
    }

    /// The resource utilization
    /// `u^Φ_q = Σ_{τ_j ∈ τ} N_{j,q} · L_{j,q} / T_j` (Sec. V).
    pub fn resource_utilization(&self, resource: ResourceId) -> f64 {
        self.inner
            .tasks
            .iter()
            .map(|t| t.resource_utilization(resource))
            .sum()
    }

    /// Total task utilization `Σ_i U_i`.
    pub fn total_utilization(&self) -> f64 {
        self.inner.tasks.iter().map(DagTask::utilization).sum()
    }

    /// Returns `true` if any task issues read requests — i.e. the set
    /// leaves the paper's write-only model and needs an RW-capable
    /// protocol analysis.
    pub fn has_reads(&self) -> bool {
        self.inner.tasks.iter().any(DagTask::has_reads)
    }

    /// The priority ceiling of a *global* resource as a base-priority level:
    /// `max_{τ_j ∈ τ(ℓ_q)} π_j` (the `Π_q − π^H` part of Sec. III-C).
    ///
    /// Returns `None` for resources no task uses.
    pub fn ceiling(&self, resource: ResourceId) -> Option<Priority> {
        self.users_of(resource)
            .iter()
            .map(|&j| self.task(j).priority())
            .max()
    }

    /// The tasks in decreasing priority order (the analysis order of
    /// Algorithm 1 line 9).
    pub fn by_decreasing_priority(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.inner.tasks.iter().map(DagTask::id).collect();
        ids.sort_by_key(|&i| core::cmp::Reverse(self.task(i).priority()));
        ids
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a DagTask;
    type IntoIter = core::slice::Iter<'a, DagTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.tasks.iter()
    }
}

/// The initial federated processor assignment of Algorithm 1 line 3:
/// `m_i = ⌈(C_i − L*_i) / (D_i − L*_i)⌉`, clamped to at least 1 (light
/// tasks get 1).
///
/// `None` for a heavy task with `L*_i ≥ D_i`: its longest path alone
/// misses the deadline, so no number of processors can schedule it (the
/// paper's generator enforces `L*_i < D_i / 2`).
pub fn initial_processors(task: &DagTask) -> Option<usize> {
    if !task.is_heavy() {
        return Some(1);
    }
    let num = task.wcet().saturating_sub(task.longest_path_len()).as_ns();
    let den = task
        .deadline()
        .checked_sub(task.longest_path_len())
        .filter(|slack| !slack.is_zero())?
        .as_ns();
    Some(
        usize::try_from(num.div_ceil(den))
            .unwrap_or(usize::MAX)
            .max(1),
    )
}

fn assign_priorities(tasks: &mut [DagTask], assignment: PriorityAssignment) {
    let n = tasks.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Sort descending by the priority key so position 0 gets the highest
    // priority; ties broken by task id for determinism and uniqueness.
    match assignment {
        PriorityAssignment::RateMonotonic => {
            order.sort_by_key(|&i| (tasks[i].period(), tasks[i].id()));
        }
        PriorityAssignment::DeadlineMonotonic => {
            order.sort_by_key(|&i| (tasks[i].deadline(), tasks[i].id()));
        }
    }
    for (rank, &i) in order.iter().enumerate() {
        // rank 0 = shortest period = highest priority level (n − rank).
        tasks[i].set_priority(Priority::new((n - rank) as u32));
    }
}

/// Convenience: total WCET of a set of tasks.
pub fn total_wcet<'a>(tasks: impl IntoIterator<Item = &'a DagTask>) -> Time {
    tasks.into_iter().map(DagTask::wcet).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{RequestSpec, VertexSpec};

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    fn task_using(id: usize, period_ms: u64, resource: Option<(usize, u32)>) -> DagTask {
        let mut b = DagTask::builder(TaskId::new(id), Time::from_ms(period_ms));
        let v = match resource {
            Some((q, n)) => {
                VertexSpec::with_requests(Time::from_ms(2), [RequestSpec::new(rid(q), n)])
            }
            None => VertexSpec::new(Time::from_ms(2)),
        };
        b = b.vertex(v);
        if let Some((q, _)) = resource {
            b = b.critical_section(rid(q), Time::from_us(20));
        }
        b.build().unwrap()
    }

    fn three_task_set() -> TaskSet {
        TaskSet::new(
            vec![
                task_using(0, 30, Some((0, 2))),
                task_using(1, 10, Some((0, 1))),
                task_using(2, 20, Some((1, 3))),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn rm_priorities_are_unique_and_period_ordered() {
        let ts = three_task_set();
        let p = |i: usize| ts.task(TaskId::new(i)).priority();
        assert!(p(1) > p(2) && p(2) > p(0)); // periods 10 < 20 < 30
        let mut levels: Vec<u32> = ts.iter().map(|t| t.priority().level()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), 3);
    }

    #[test]
    fn dm_priorities_follow_deadlines() {
        let t1 = task_using(1, 30, None);
        // Same period as t1 but a shorter deadline.
        let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(30))
            .deadline(Time::from_ms(5))
            .vertex(VertexSpec::new(Time::from_ms(2)))
            .build()
            .unwrap();
        let ts = TaskSet::with_priorities(vec![t0, t1], 0, PriorityAssignment::DeadlineMonotonic)
            .unwrap();
        assert!(ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority());
    }

    #[test]
    fn resource_classification() {
        let ts = three_task_set();
        assert!(ts.is_global(rid(0))); // τ0 and τ1 share it
        assert!(!ts.is_global(rid(1))); // only τ2
        assert_eq!(ts.global_resources().collect::<Vec<_>>(), vec![rid(0)]);
        assert_eq!(ts.local_resources().collect::<Vec<_>>(), vec![rid(1)]);
        assert_eq!(ts.users_of(rid(0)), &[TaskId::new(0), TaskId::new(1)]);
        assert_eq!(ts.resource_scope(rid(1)), ResourceScope::Local);
    }

    #[test]
    fn resource_utilization_sums_task_demands() {
        let ts = three_task_set();
        // τ0: 2·20µs / 30ms, τ1: 1·20µs / 10ms.
        let expected = 40e-6 / 30e-3 + 20e-6 / 10e-3;
        assert!((ts.resource_utilization(rid(0)) - expected).abs() < 1e-12);
    }

    #[test]
    fn ceiling_is_highest_user_priority() {
        let ts = three_task_set();
        // ℓ0 is used by τ0 (lowest) and τ1 (highest): ceiling = π(τ1).
        assert_eq!(ts.ceiling(rid(0)), Some(ts.task(TaskId::new(1)).priority()));
        assert_eq!(ts.ceiling(rid(1)), Some(ts.task(TaskId::new(2)).priority()));
    }

    #[test]
    fn decreasing_priority_order() {
        let ts = three_task_set();
        assert_eq!(
            ts.by_decreasing_priority(),
            vec![TaskId::new(1), TaskId::new(2), TaskId::new(0)]
        );
    }

    #[test]
    fn rejects_non_dense_ids() {
        let e = TaskSet::new(vec![task_using(1, 10, None)], 0).unwrap_err();
        assert!(matches!(e, ModelError::NonDenseTaskIds { .. }));
    }

    #[test]
    fn rejects_out_of_range_resources() {
        let e = TaskSet::new(vec![task_using(0, 10, Some((5, 1)))], 2).unwrap_err();
        assert!(matches!(e, ModelError::ResourceOutOfRange { .. }));
    }

    #[test]
    fn initial_processors_formula() {
        // C = 100, L* = 40, D = 70 ⇒ ⌈60/30⌉ = 2.
        let dag = Dag::chain(2).unwrap();
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(100))
            .deadline(Time::from_ms(70))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_ms(40)))
            .vertex(VertexSpec::new(Time::from_ms(60)))
            .build()
            .unwrap();
        // Chain means L* = C here; rebuild as parallel pair instead.
        let dag = Dag::new(2, []).unwrap();
        let t2 = DagTask::builder(TaskId::new(0), Time::from_ms(100))
            .deadline(Time::from_ms(70))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_ms(40)))
            .vertex(VertexSpec::new(Time::from_ms(60)))
            .build()
            .unwrap();
        assert_eq!(t2.longest_path_len(), Time::from_ms(60));
        assert_eq!(initial_processors(&t2), Some(4)); // ⌈(100−60)/(70−60)⌉
                                                      // The chain is heavy with L* = 100 > D = 70: no size fits it.
        assert!(t.is_heavy());
        assert_eq!(initial_processors(&t), None);
        // Light task gets one processor.
        let light = task_using(0, 100, None);
        assert_eq!(initial_processors(&light), Some(1));
    }

    #[test]
    fn totals() {
        let ts = three_task_set();
        assert_eq!(total_wcet(ts.iter()), Time::from_ms(6));
        let expected = 2.0 / 30.0 + 2.0 / 10.0 + 2.0 / 20.0;
        assert!((ts.total_utilization() - expected).abs() < 1e-12);
    }

    use crate::graph::Dag;
    use crate::platform::Platform;
    use serde::Value;

    /// `value` with the member at `path` (member names and array indices)
    /// replaced by `new`.
    fn with_member(value: &Value, path: &[&str], new: Value) -> Value {
        let Some((head, rest)) = path.split_first() else {
            return new;
        };
        match value {
            Value::Object(members) => Value::Object(
                members
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == head {
                            with_member(v, rest, new.clone())
                        } else {
                            v.clone()
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            Value::Array(items) => {
                let at: usize = head.parse().expect("array index");
                Value::Array(
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            if i == at {
                                with_member(v, rest, new.clone())
                            } else {
                                v.clone()
                            }
                        })
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }

    fn ids(list: &[usize]) -> Value {
        Value::Array(list.iter().map(|&x| Value::U64(x as u64)).collect())
    }

    /// Task 0 is a three-vertex chain issuing one request to resource 0
    /// from vertex 1; task 1 uses resource 1. Deadline-monotonic
    /// priorities, so the wire priorities are not the RM ones.
    fn wire_set() -> TaskSet {
        let chain = DagTask::builder(TaskId::new(0), Time::from_ms(40))
            .deadline(Time::from_ms(10))
            .dag(Dag::new(3, [(0, 1), (1, 2)]).unwrap())
            .vertex(VertexSpec::new(Time::from_ms(1)))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(2),
                [RequestSpec::new(rid(0), 2)],
            ))
            .vertex(VertexSpec::new(Time::from_ms(3)))
            .critical_section(rid(0), Time::from_us(50))
            .build()
            .unwrap();
        let tasks = vec![chain, task_using(1, 20, Some((1, 1)))];
        TaskSet::with_priorities(tasks, 2, PriorityAssignment::DeadlineMonotonic).unwrap()
    }

    fn refused(value: &Value) -> String {
        TaskSet::deserialize(value)
            .expect_err("input breaking an invariant must be refused")
            .to_string()
    }

    #[test]
    fn deserialization_keeps_wire_priorities_and_bytes() {
        let ts = wire_set();
        assert!(ts.task(TaskId::new(0)).priority() > ts.task(TaskId::new(1)).priority());
        let wire = ts.serialize();
        let back = TaskSet::deserialize(&wire).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.serialize(), wire);
    }

    #[test]
    fn derived_members_are_recomputed_not_trusted() {
        let ts = wire_set();
        let mut wire = ts.serialize();
        for (path, junk) in [
            (&["users"][..], Value::Array(vec![])),
            (&["tasks", "0", "wcet"], Value::U64(1)),
            (&["tasks", "0", "longest_path"], ids(&[2])),
            (&["tasks", "0", "total_requests"], Value::Array(vec![])),
            (&["tasks", "0", "dag", "preds"], Value::Array(vec![])),
            (&["tasks", "0", "dag", "topo"], ids(&[2, 1, 0])),
            (&["tasks", "0", "dag", "heads"], ids(&[7])),
            // Vertex 1's two requests to resource 0, split in two entries:
            // merged back into the canonical one.
            (
                &["tasks", "0", "vertices", "1", "requests"],
                Value::Array(vec![RequestSpec::new(rid(0), 1).serialize(); 2]),
            ),
        ] {
            wire = with_member(&wire, path, junk);
        }
        assert_ne!(wire, ts.serialize());
        assert_eq!(TaskSet::deserialize(&wire).unwrap(), ts);
    }

    #[test]
    fn broken_invariants_are_deserialization_errors() {
        let wire = wire_set().serialize();
        let tamper = |path: &[&str], new: Value| refused(&with_member(&wire, path, new));
        let succs = |lists: &[&[usize]]| Value::Array(lists.iter().map(|l| ids(l)).collect());

        let cycle = tamper(&["tasks", "0", "dag", "succs"], succs(&[&[1], &[2], &[0]]));
        assert!(cycle.contains("cycle"), "{cycle}");
        let far = tamper(&["tasks", "0", "dag", "succs", "0"], ids(&[100_000]));
        assert!(far.contains("100000 out of range"), "{far}");
        let count = tamper(&["tasks", "0", "dag", "vertex_count"], Value::U64(4));
        assert!(
            count.contains("4 vertices lists successors of 3"),
            "{count}"
        );
        let specs = tamper(
            &["tasks", "0", "vertices"],
            Value::Array(vec![VertexSpec::new(Time::from_ms(1)).serialize()]),
        );
        assert!(specs.contains("1 vertex specs"), "{specs}");
        // A request on a resource the task declares no length for, and on
        // one outside the set's universe.
        let undeclared = tamper(
            &["tasks", "0", "vertices", "1", "requests", "0", "resource"],
            Value::U64(1),
        );
        assert!(undeclared.contains("declares no L value"), "{undeclared}");
        let outside = tamper(&["resource_count"], Value::U64(1));
        assert!(
            outside.contains("outside the 1-resource universe"),
            "{outside}"
        );
        let vast = tamper(&["resource_count"], Value::U64(1 << 40));
        assert!(vast.contains("at most 65536 resources"), "{vast}");
        let sparse = tamper(&["tasks", "1", "id"], Value::U64(0));
        assert!(sparse.contains("dense"), "{sparse}");
        let late = tamper(&["tasks", "0", "deadline"], Value::U64(u64::MAX));
        assert!(late.contains("at most the period"), "{late}");

        let no_processors = Value::Object(vec![("processors".into(), Value::U64(0))]);
        let err = Platform::deserialize(&no_processors)
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least 2 processors"), "{err}");
        let platform = Platform::new(4).unwrap();
        assert_eq!(Platform::deserialize(&platform.serialize()), Ok(platform));
    }
}
