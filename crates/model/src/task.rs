//! Parallel (DAG) task specifications.
//!
//! A [`DagTask`] bundles the paper's per-task parameters: the sporadic timing
//! triple `(C_i, D_i, T_i)`, the precedence DAG `G_i`, per-vertex WCETs
//! `C_{i,x}`, per-vertex maximum request counts `N_{i,x,q}` and per-resource
//! maximum critical-section lengths `L_{i,q}`. Construction validates the
//! model assumptions of Sec. II (constrained deadlines, critical sections
//! contained in vertex WCETs, non-nested requests).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::graph::Dag;
use crate::ids::{ResourceId, TaskId, VertexId};
use crate::priority::Priority;
use crate::time::Time;

/// How a request accesses its resource.
///
/// The paper's model is write-only: every request takes the resource
/// exclusively. Reader-writer protocols (phase-fair RW locks, MPCP/DGA
/// variants from the wider literature) additionally allow *read* requests,
/// which may overlap with other reads of the same resource. `Write` is the
/// serde default so every pre-RW artifact deserializes unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessMode {
    /// Exclusive access — the only mode in the source paper.
    #[default]
    Write,
    /// Shared access; concurrent reads of one resource may overlap.
    Read,
}

impl AccessMode {
    /// Returns `true` for [`AccessMode::Read`].
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, AccessMode::Read)
    }
}

impl Serialize for AccessMode {
    fn serialize(&self) -> serde::Value {
        match self {
            AccessMode::Write => serde::Value::String("Write".to_owned()),
            AccessMode::Read => serde::Value::String("Read".to_owned()),
        }
    }
}

// Hand-written so a *missing* field (the vendored serde reads an absent
// member as `null`) defaults to `Write`: all committed JSON predates
// access modes and must keep deserializing bit-for-bit.
impl Deserialize for AccessMode {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        if r.null()? {
            return Ok(AccessMode::Write);
        }
        if r.peek()? == b'"' {
            match &*r.str()? {
                "Write" => return Ok(AccessMode::Write),
                "Read" => return Ok(AccessMode::Read),
                _ => {}
            }
        }
        Err(serde::Error::custom("expected \"Write\" or \"Read\""))
    }
}

/// The maximum number of requests `N_{i,x,q}` a vertex issues to one
/// resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestSpec {
    /// The requested resource `ℓ_q`.
    pub resource: ResourceId,
    /// The maximum number of requests the vertex issues to it.
    pub count: u32,
    /// Whether the requests read or write the resource (write by default).
    pub mode: AccessMode,
}

impl RequestSpec {
    /// Creates a write-mode request specification (alias of
    /// [`RequestSpec::write`], kept for the paper's write-only model).
    pub const fn new(resource: ResourceId, count: u32) -> Self {
        Self::write(resource, count)
    }

    /// Creates an exclusive (write) request specification.
    pub const fn write(resource: ResourceId, count: u32) -> Self {
        RequestSpec {
            resource,
            count,
            mode: AccessMode::Write,
        }
    }

    /// Creates a shared (read) request specification.
    pub const fn read(resource: ResourceId, count: u32) -> Self {
        RequestSpec {
            resource,
            count,
            mode: AccessMode::Read,
        }
    }
}

/// One vertex `v_{i,x}`: its WCET and the requests it may issue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VertexSpec {
    wcet: Time,
    /// Sorted by `(resource, mode)` with `Write < Read`, at most one entry
    /// per resource and mode, zero counts removed. Write-only vertices thus
    /// keep the exact pre-RW layout (sorted by resource, one entry each).
    requests: Vec<RequestSpec>,
}

/// A vertex as sent: [`DagTask`]'s reader merges it through
/// [`VertexSpec::merged`] once the task's id is known, so an overflowing
/// merge is refused by name.
#[derive(Deserialize)]
struct WireVertex {
    wcet: Time,
    requests: Vec<RequestSpec>,
}

impl VertexSpec {
    /// Creates a vertex with the given WCET and no requests.
    pub fn new(wcet: Time) -> Self {
        VertexSpec {
            wcet,
            requests: Vec::new(),
        }
    }

    /// Creates a vertex with the given WCET and request list (merged and
    /// sorted; zero counts dropped).
    ///
    /// # Panics
    ///
    /// Panics when the counts merged into one `(resource, mode)` entry
    /// exceed `u32::MAX`.
    pub fn with_requests(wcet: Time, requests: impl IntoIterator<Item = RequestSpec>) -> Self {
        Self::merged(wcet, requests).unwrap_or_else(|resource| {
            panic!("the requests of one vertex to {resource} overflow a u32 count")
        })
    }

    /// [`VertexSpec::with_requests`], or the resource whose merged count
    /// overflows `u32`.
    fn merged(
        wcet: Time,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> Result<Self, ResourceId> {
        let mut requests: Vec<RequestSpec> = requests.into_iter().filter(|r| r.count > 0).collect();
        requests.sort_unstable_by_key(|r| (r.resource, r.mode));
        let mut overflow = None;
        requests.dedup_by(|r, kept| {
            if (r.resource, r.mode) != (kept.resource, kept.mode) {
                return false;
            }
            match kept.count.checked_add(r.count) {
                Some(count) => kept.count = count,
                None => overflow = Some(r.resource),
            }
            true
        });
        match overflow {
            Some(resource) => Err(resource),
            None => Ok(VertexSpec { wcet, requests }),
        }
    }

    /// The vertex WCET `C_{i,x}` (critical sections included).
    #[inline]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// The vertex's request specifications, sorted by `(resource, mode)`.
    #[inline]
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// The number of requests this vertex issues to `resource` across both
    /// access modes (`N_{i,x,q}`).
    pub fn request_count(&self, resource: ResourceId) -> u32 {
        // At most two entries per resource (one per mode); the partition
        // point found by resource alone anchors a short scan either way.
        let anchor = self.requests.partition_point(|r| r.resource < resource);
        self.requests[anchor..]
            .iter()
            .take_while(|r| r.resource == resource)
            .map(|r| r.count)
            .sum()
    }

    /// The number of requests this vertex issues to `resource` in one
    /// access mode.
    pub fn request_count_mode(&self, resource: ResourceId, mode: AccessMode) -> u32 {
        self.requests
            .binary_search_by_key(&(resource, mode), |r| (r.resource, r.mode))
            .map(|i| self.requests[i].count)
            .unwrap_or(0)
    }

    /// Returns `true` if any request of this vertex is a read.
    pub fn has_reads(&self) -> bool {
        self.requests.iter().any(|r| r.mode.is_read())
    }
}

/// A sporadic parallel real-time task `τ_i`.
///
/// # Examples
///
/// ```
/// use dpcp_model::{Dag, DagTask, RequestSpec, ResourceId, TaskId, Time, VertexSpec};
///
/// let dag = Dag::new(2, [(0, 1)])?;
/// let task = DagTask::builder(TaskId::new(0), Time::from_ms(10))
///     .dag(dag)
///     .vertex(VertexSpec::new(Time::from_ms(4)))
///     .vertex(VertexSpec::with_requests(
///         Time::from_ms(8),
///         [RequestSpec::write(ResourceId::new(0), 2)],
///     ))
///     .critical_section(ResourceId::new(0), Time::from_us(50))
///     .build()?;
/// assert_eq!(task.wcet(), Time::from_ms(12));
/// assert!(task.is_heavy()); // C/D = 1.2 > 1
/// assert_eq!(task.total_requests(ResourceId::new(0)), 2);
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DagTask {
    id: TaskId,
    period: Time,
    deadline: Time,
    priority: Priority,
    dag: Dag,
    vertices: Vec<VertexSpec>,
    /// Maximum *write* critical-section length `L_{i,q}` per used resource.
    cs_lengths: BTreeMap<ResourceId, Time>,
    /// Maximum *read* critical-section length `L^R_{i,q}`, kept only for
    /// resources the task actually reads (empty for the paper's write-only
    /// model). Defaults to the write length when never declared.
    read_cs_lengths: BTreeMap<ResourceId, Time>,
    // ---- derived, cached at construction ----
    wcet: Time,
    longest_path_len: Time,
    longest_path: Vec<VertexId>,
    total_requests: BTreeMap<ResourceId, u32>,
    /// Read-mode share of `total_requests`, per resource (empty when
    /// write-only).
    total_reads: BTreeMap<ResourceId, u32>,
}

// Built through `DagTask::builder`, keeping the priority as sent: the
// derived members (`wcet`, `longest_path*`, `total_*`) are serialized but
// skipped unread on input, and every constructor check applies. The two
// RW maps are absent from every pre-RW artifact (read as `null`) and
// default to empty.
impl Deserialize for DagTask {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut id, mut period, mut deadline, mut priority) = (None, None, None, None);
        let (mut dag, mut vertices, mut cs_lengths, mut read_cs_lengths) = (None, None, None, None);
        r.object(|r, key| match key {
            "id" => r.member(&mut id),
            "period" => r.member(&mut period),
            "deadline" => r.member(&mut deadline),
            "priority" => r.member(&mut priority),
            "dag" => r.member(&mut dag),
            "vertices" => r.member(&mut vertices),
            "cs_lengths" => r.member(&mut cs_lengths),
            "read_cs_lengths" => r.member(&mut read_cs_lengths),
            _ => r.skip(),
        })?;
        let id: TaskId = serde::or_null(id)?;
        let vertices: Vec<WireVertex> = serde::or_null(vertices)?;
        let vertices = vertices
            .into_iter()
            .map(|v| {
                VertexSpec::merged(v.wcet, v.requests)
                    .map_err(|resource| ModelError::RequestCountOverflow { task: id, resource })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cs_lengths: BTreeMap<ResourceId, Time> = serde::or_null(cs_lengths)?;
        let read_cs_lengths: Option<BTreeMap<ResourceId, Time>> = serde::or_null(read_cs_lengths)?;
        let mut builder = DagTask::builder(id, serde::or_null(period)?)
            .deadline(serde::or_null(deadline)?)
            .priority(serde::or_null(priority)?)
            .dag(serde::or_null(dag)?)
            .vertex_specs(vertices);
        for (q, len) in cs_lengths {
            builder = builder.critical_section(q, len);
        }
        for (q, len) in read_cs_lengths.unwrap_or_default() {
            builder = builder.read_critical_section(q, len);
        }
        Ok(builder.build()?)
    }
}

impl DagTask {
    /// Starts building a task with implicit deadline `D_i = T_i`.
    pub fn builder(id: TaskId, period: Time) -> DagTaskBuilder {
        DagTaskBuilder {
            id,
            period,
            deadline: period,
            priority: Priority::MIN,
            dag: None,
            vertices: Vec::new(),
            cs_lengths: BTreeMap::new(),
            read_cs_lengths: BTreeMap::new(),
        }
    }

    /// The task identifier.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The minimum inter-arrival time `T_i`.
    #[inline]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The relative deadline `D_i ≤ T_i`.
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// The base priority `π_i` (greater is higher).
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Reassigns the base priority (driven by the task set's priority
    /// assignment policy — see [`TaskSet::with_priorities`](crate::TaskSet::with_priorities)).
    #[inline]
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// The precedence DAG `G_i`.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The vertex specifications, indexed by [`VertexId`].
    #[inline]
    pub fn vertices(&self) -> &[VertexSpec] {
        &self.vertices
    }

    /// The specification of one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn vertex(&self, v: VertexId) -> &VertexSpec {
        &self.vertices[v.index()]
    }

    /// The total WCET `C_i = Σ_x C_{i,x}`.
    #[inline]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// The longest-path length `L*_i`.
    #[inline]
    pub fn longest_path_len(&self) -> Time {
        self.longest_path_len
    }

    /// One witness longest path.
    #[inline]
    pub fn longest_path(&self) -> &[VertexId] {
        &self.longest_path
    }

    /// The utilization `U_i = C_i / T_i`.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_ns() as f64 / self.period.as_ns() as f64
    }

    /// The density `C_i / D_i`; a task is *heavy* when this exceeds 1.
    pub fn density(&self) -> f64 {
        self.wcet.as_ns() as f64 / self.deadline.as_ns() as f64
    }

    /// Returns `true` for heavy tasks (`C_i / D_i > 1`), which receive
    /// dedicated processors under federated scheduling.
    pub fn is_heavy(&self) -> bool {
        self.wcet > self.deadline
    }

    /// The resources this task uses (`Φ_i`), ascending.
    pub fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.total_requests.keys().copied()
    }

    /// Returns `true` if the task issues any request to `resource`.
    pub fn uses_resource(&self, resource: ResourceId) -> bool {
        self.total_requests.contains_key(&resource)
    }

    /// The job-level maximum request count `N_{i,q} = Σ_x N_{i,x,q}`,
    /// summed over both access modes.
    pub fn total_requests(&self, resource: ResourceId) -> u32 {
        self.total_requests.get(&resource).copied().unwrap_or(0)
    }

    /// The job-level maximum *read* request count `N^R_{i,q}`.
    pub fn total_reads(&self, resource: ResourceId) -> u32 {
        self.total_reads.get(&resource).copied().unwrap_or(0)
    }

    /// The job-level maximum *write* request count `N^W_{i,q}`.
    pub fn total_writes(&self, resource: ResourceId) -> u32 {
        self.total_requests(resource) - self.total_reads(resource)
    }

    /// Returns `true` if any vertex of this task issues a read request
    /// (i.e. the task leaves the paper's write-only model).
    pub fn has_reads(&self) -> bool {
        !self.total_reads.is_empty()
    }

    /// The maximum *write* critical-section length `L_{i,q}`, or `None` if
    /// the task never uses the resource.
    pub fn cs_length(&self, resource: ResourceId) -> Option<Time> {
        self.cs_lengths.get(&resource).copied()
    }

    /// The maximum *read* critical-section length `L^R_{i,q}` (declared via
    /// [`DagTaskBuilder::read_critical_section`], defaulting to the write
    /// length), or `None` if the task never reads the resource.
    pub fn read_cs_length(&self, resource: ResourceId) -> Option<Time> {
        self.read_cs_lengths.get(&resource).copied()
    }

    /// The maximum critical-section length for one access mode; reads fall
    /// back to the write length when the task issues none.
    pub fn cs_length_mode(&self, resource: ResourceId, mode: AccessMode) -> Option<Time> {
        match mode {
            AccessMode::Write => self.cs_length(resource),
            AccessMode::Read => self.read_cs_length(resource).or(self.cs_length(resource)),
        }
    }

    /// Total worst-case time the task spends inside critical sections of
    /// `resource`: `N^W_{i,q} · L_{i,q} + N^R_{i,q} · L^R_{i,q}` (the
    /// paper's `N_{i,q} · L_{i,q}` when write-only).
    pub fn cs_demand(&self, resource: ResourceId) -> Time {
        let writes = match self.cs_lengths.get(&resource) {
            Some(&len) => len.saturating_mul(u64::from(self.total_writes(resource))),
            None => Time::ZERO,
        };
        let reads = match self.read_cs_lengths.get(&resource) {
            Some(&len) => len.saturating_mul(u64::from(self.total_reads(resource))),
            None => Time::ZERO,
        };
        writes.saturating_add(reads)
    }

    /// The non-critical WCET `C'_i = C_i − Σ_q N_{i,q} · L_{i,q}`.
    pub fn noncritical_wcet(&self) -> Time {
        let critical: Time = self.total_requests.keys().map(|&q| self.cs_demand(q)).sum();
        self.wcet.saturating_sub(critical)
    }

    /// The non-critical WCET of one vertex:
    /// `C'_{i,x} = C_{i,x} − Σ_q N_{i,x,q} · L_{i,q}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vertex_noncritical_wcet(&self, v: VertexId) -> Time {
        let spec = &self.vertices[v.index()];
        let critical: Time = spec
            .requests()
            .iter()
            .map(|r| {
                self.cs_length_mode(r.resource, r.mode)
                    .expect("built task has a CS length for every request")
                    .saturating_mul(u64::from(r.count))
            })
            .sum();
        spec.wcet().saturating_sub(critical)
    }

    /// The per-vertex WCETs as a dense weight vector (for DAG algorithms).
    pub fn vertex_weights(&self) -> Vec<Time> {
        self.vertices.iter().map(VertexSpec::wcet).collect()
    }

    /// The resource utilization contribution
    /// `N_{i,q} · L_{i,q} / T_i` of this task to resource `q`.
    pub fn resource_utilization(&self, resource: ResourceId) -> f64 {
        self.cs_demand(resource).as_ns() as f64 / self.period.as_ns() as f64
    }
}

/// Builder for [`DagTask`] (see [`DagTask::builder`]).
#[derive(Debug, Clone)]
pub struct DagTaskBuilder {
    id: TaskId,
    period: Time,
    deadline: Time,
    priority: Priority,
    dag: Option<Dag>,
    vertices: Vec<VertexSpec>,
    cs_lengths: BTreeMap<ResourceId, Time>,
    read_cs_lengths: BTreeMap<ResourceId, Time>,
}

impl DagTaskBuilder {
    /// Sets the relative deadline (defaults to the period).
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the base priority (defaults to [`Priority::MIN`]; usually
    /// assigned later via the task set).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the precedence DAG.
    pub fn dag(mut self, dag: Dag) -> Self {
        self.dag = Some(dag);
        self
    }

    /// Appends the specification of the next vertex (in [`VertexId`] order).
    pub fn vertex(mut self, spec: VertexSpec) -> Self {
        self.vertices.push(spec);
        self
    }

    /// Appends several vertex specifications at once.
    pub fn vertex_specs(mut self, specs: impl IntoIterator<Item = VertexSpec>) -> Self {
        self.vertices.extend(specs);
        self
    }

    /// Declares the maximum *write* critical-section length `L_{i,q}` for a
    /// resource the task uses. Required for every requested resource, in
    /// either access mode.
    pub fn critical_section(mut self, resource: ResourceId, len: Time) -> Self {
        self.cs_lengths.insert(resource, len);
        self
    }

    /// Declares the maximum *read* critical-section length `L^R_{i,q}`.
    /// Optional: read requests fall back to the write length declared via
    /// [`DagTaskBuilder::critical_section`] — which is what keeps read
    /// generation RNG-free at the default axis settings.
    pub fn read_critical_section(mut self, resource: ResourceId, len: Time) -> Self {
        self.read_cs_lengths.insert(resource, len);
        self
    }

    /// Validates and builds the task.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when the timing parameters, DAG/vertex
    /// arity, or critical-section containment constraints are violated,
    /// or when the task's requests to one resource sum past `u32::MAX`
    /// (see the variants for details). A default single-vertex chain DAG is
    /// used when [`DagTaskBuilder::dag`] was never called and exactly one
    /// vertex was supplied.
    pub fn build(self) -> Result<DagTask, ModelError> {
        let id = self.id;
        if self.period.is_zero() {
            return Err(ModelError::NonPositivePeriod { task: id });
        }
        if self.deadline.is_zero() || self.deadline > self.period {
            return Err(ModelError::InvalidDeadline {
                task: id,
                deadline: self.deadline,
                period: self.period,
            });
        }
        let dag = match self.dag {
            Some(d) => d,
            None => Dag::chain(self.vertices.len().max(1))?,
        };
        if self.vertices.len() != dag.vertex_count() {
            return Err(ModelError::VertexSpecCountMismatch {
                task: id,
                specs: self.vertices.len(),
                vertices: dag.vertex_count(),
            });
        }
        for (&q, &len) in self.cs_lengths.iter().chain(&self.read_cs_lengths) {
            if len.is_zero() {
                return Err(ModelError::NonPositiveCriticalSection {
                    task: id,
                    resource: q,
                });
            }
        }
        // Critical-section containment, per access mode:
        // C_{i,x} ≥ Σ_q (N^W_{i,x,q} · L_{i,q} + N^R_{i,x,q} · L^R_{i,q}).
        // Read lengths fall back to the (mandatory) write declaration.
        for (x, spec) in self.vertices.iter().enumerate() {
            let mut critical = Time::ZERO;
            for r in spec.requests() {
                let write_len = self.cs_lengths.get(&r.resource).copied().ok_or(
                    ModelError::MissingCriticalSectionLength {
                        task: id,
                        vertex: VertexId::new(x),
                        resource: r.resource,
                    },
                )?;
                let len = match r.mode {
                    AccessMode::Write => write_len,
                    AccessMode::Read => self
                        .read_cs_lengths
                        .get(&r.resource)
                        .copied()
                        .unwrap_or(write_len),
                };
                critical = critical.saturating_add(len.saturating_mul(u64::from(r.count)));
            }
            if spec.wcet() < critical {
                return Err(ModelError::VertexWcetBelowCriticalSections {
                    task: id,
                    vertex: VertexId::new(x),
                    wcet: spec.wcet(),
                    critical,
                });
            }
        }

        let wcet: Time = self.vertices.iter().map(VertexSpec::wcet).sum();
        let weights: Vec<Time> = self.vertices.iter().map(VertexSpec::wcet).collect();
        let (longest_path_len, longest_path) = dag.longest_path(&weights);

        let mut total_requests: BTreeMap<ResourceId, u32> = BTreeMap::new();
        let mut total_reads: BTreeMap<ResourceId, u32> = BTreeMap::new();
        for spec in &self.vertices {
            for r in spec.requests() {
                let total = total_requests.entry(r.resource).or_insert(0);
                *total = total
                    .checked_add(r.count)
                    .ok_or(ModelError::RequestCountOverflow {
                        task: id,
                        resource: r.resource,
                    })?;
                if r.mode.is_read() {
                    // A share of the total, which did not overflow.
                    *total_reads.entry(r.resource).or_insert(0) += r.count;
                }
            }
        }
        // Drop declared critical sections for resources never requested so
        // `resources()` reflects actual usage; materialize the read length
        // (declared or defaulted to the write length) exactly for the
        // resources that carry reads.
        let cs_lengths: BTreeMap<ResourceId, Time> = self
            .cs_lengths
            .into_iter()
            .filter(|(q, _)| total_requests.contains_key(q))
            .collect();
        let declared_reads = self.read_cs_lengths;
        let read_cs_lengths: BTreeMap<ResourceId, Time> = total_reads
            .keys()
            .map(|&q| {
                let len = declared_reads.get(&q).copied().unwrap_or(cs_lengths[&q]);
                (q, len)
            })
            .collect();

        Ok(DagTask {
            id,
            period: self.period,
            deadline: self.deadline,
            priority: self.priority,
            dag,
            vertices: self.vertices,
            cs_lengths,
            read_cs_lengths,
            wcet,
            longest_path_len,
            longest_path,
            total_requests,
            total_reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    fn simple_task() -> DagTask {
        // Diamond with one global-ish resource on the off-critical branch.
        let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        DagTask::builder(TaskId::new(0), Time::from_ms(100))
            .deadline(Time::from_ms(80))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_ms(10)))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(30),
                [RequestSpec::new(rid(0), 3)],
            ))
            .vertex(VertexSpec::new(Time::from_ms(50)))
            .vertex(VertexSpec::new(Time::from_ms(10)))
            .critical_section(rid(0), Time::from_us(100))
            .build()
            .unwrap()
    }

    #[test]
    fn derived_quantities() {
        let t = simple_task();
        assert_eq!(t.wcet(), Time::from_ms(100));
        assert_eq!(t.longest_path_len(), Time::from_ms(70)); // 10+50+10
        assert_eq!(t.total_requests(rid(0)), 3);
        assert_eq!(t.cs_length(rid(0)), Some(Time::from_us(100)));
        assert_eq!(t.cs_demand(rid(0)), Time::from_us(300));
        assert_eq!(
            t.noncritical_wcet(),
            Time::from_ms(100) - Time::from_us(300)
        );
        assert!((t.utilization() - 1.0).abs() < 1e-12);
        assert!(t.is_heavy()); // C=100ms > D=80ms
        assert!(t.uses_resource(rid(0)));
        assert!(!t.uses_resource(rid(1)));
        assert_eq!(t.resources().collect::<Vec<_>>(), vec![rid(0)]);
    }

    #[test]
    fn vertex_noncritical_wcet_subtracts_requests() {
        let t = simple_task();
        assert_eq!(
            t.vertex_noncritical_wcet(VertexId::new(1)),
            Time::from_ms(30) - Time::from_us(300)
        );
        assert_eq!(
            t.vertex_noncritical_wcet(VertexId::new(0)),
            Time::from_ms(10)
        );
    }

    #[test]
    fn builder_rejects_bad_timing() {
        let e = DagTask::builder(TaskId::new(1), Time::ZERO)
            .vertex(VertexSpec::new(Time::from_ms(1)))
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::NonPositivePeriod { .. }));

        let e = DagTask::builder(TaskId::new(1), Time::from_ms(10))
            .deadline(Time::from_ms(20))
            .vertex(VertexSpec::new(Time::from_ms(1)))
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::InvalidDeadline { .. }));
    }

    #[test]
    fn builder_rejects_arity_mismatch() {
        let dag = Dag::new(2, [(0, 1)]).unwrap();
        let e = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_ms(1)))
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::VertexSpecCountMismatch { .. }));
    }

    #[test]
    fn builder_rejects_missing_or_zero_cs_length() {
        let e = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(1),
                [RequestSpec::new(rid(7), 1)],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::MissingCriticalSectionLength { .. }));

        let e = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(1),
                [RequestSpec::new(rid(0), 1)],
            ))
            .critical_section(rid(0), Time::ZERO)
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::NonPositiveCriticalSection { .. }));
    }

    #[test]
    fn builder_rejects_vertex_smaller_than_its_critical_sections() {
        let e = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_us(50),
                [RequestSpec::new(rid(0), 2)],
            ))
            .critical_section(rid(0), Time::from_us(40))
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            ModelError::VertexWcetBelowCriticalSections { .. }
        ));
    }

    #[test]
    fn default_dag_is_single_vertex() {
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::new(Time::from_ms(2)))
            .build()
            .unwrap();
        assert_eq!(t.dag().vertex_count(), 1);
        assert_eq!(t.longest_path_len(), Time::from_ms(2));
        assert!(!t.is_heavy());
    }

    #[test]
    fn unused_cs_declarations_are_dropped() {
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::new(Time::from_ms(2)))
            .critical_section(rid(3), Time::from_us(10))
            .build()
            .unwrap();
        assert_eq!(t.cs_length(rid(3)), None);
        assert_eq!(t.resources().count(), 0);
    }

    #[test]
    fn with_requests_merges_duplicates_and_drops_zero() {
        let v = VertexSpec::with_requests(
            Time::from_ms(1),
            [
                RequestSpec::new(rid(1), 2),
                RequestSpec::new(rid(1), 3),
                RequestSpec::new(rid(0), 0),
            ],
        );
        assert_eq!(v.requests().len(), 1);
        assert_eq!(v.request_count(rid(1)), 5);
        assert_eq!(v.request_count(rid(0)), 0);
    }

    #[test]
    fn with_requests_merges_per_mode() {
        let v = VertexSpec::with_requests(
            Time::from_ms(1),
            [
                RequestSpec::read(rid(0), 2),
                RequestSpec::write(rid(0), 1),
                RequestSpec::read(rid(0), 1),
            ],
        );
        // Write sorts before Read for the same resource.
        assert_eq!(v.requests().len(), 2);
        assert_eq!(v.requests()[0].mode, AccessMode::Write);
        assert_eq!(v.requests()[1].mode, AccessMode::Read);
        assert_eq!(v.request_count(rid(0)), 4);
        assert_eq!(v.request_count_mode(rid(0), AccessMode::Write), 1);
        assert_eq!(v.request_count_mode(rid(0), AccessMode::Read), 3);
        assert!(v.has_reads());
    }

    fn rw_task(read_len: Option<Time>) -> DagTask {
        let mut b = DagTask::builder(TaskId::new(0), Time::from_ms(100))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(10),
                [RequestSpec::write(rid(0), 2), RequestSpec::read(rid(0), 3)],
            ))
            .critical_section(rid(0), Time::from_us(100));
        if let Some(len) = read_len {
            b = b.read_critical_section(rid(0), len);
        }
        b.build().unwrap()
    }

    #[test]
    fn rw_counts_and_lengths() {
        let t = rw_task(Some(Time::from_us(40)));
        assert!(t.has_reads());
        assert_eq!(t.total_requests(rid(0)), 5);
        assert_eq!(t.total_writes(rid(0)), 2);
        assert_eq!(t.total_reads(rid(0)), 3);
        assert_eq!(t.cs_length(rid(0)), Some(Time::from_us(100)));
        assert_eq!(t.read_cs_length(rid(0)), Some(Time::from_us(40)));
        // 2·100µs writes + 3·40µs reads.
        assert_eq!(t.cs_demand(rid(0)), Time::from_us(320));
        assert_eq!(
            t.vertex_noncritical_wcet(VertexId::new(0)),
            Time::from_ms(10) - Time::from_us(320)
        );
    }

    #[test]
    fn read_length_defaults_to_write_length() {
        let t = rw_task(None);
        assert_eq!(t.read_cs_length(rid(0)), Some(Time::from_us(100)));
        assert_eq!(
            t.cs_length_mode(rid(0), AccessMode::Read),
            Some(Time::from_us(100))
        );
        assert_eq!(t.cs_demand(rid(0)), Time::from_us(500));
    }

    #[test]
    fn write_only_task_has_no_rw_state() {
        let t = simple_task();
        assert!(!t.has_reads());
        assert_eq!(t.total_writes(rid(0)), 3);
        assert_eq!(t.total_reads(rid(0)), 0);
        assert_eq!(t.read_cs_length(rid(0)), None);
        // Reads fall back to the write length even when the task has none.
        assert_eq!(
            t.cs_length_mode(rid(0), AccessMode::Read),
            Some(Time::from_us(100))
        );
    }

    /// Strips every RW-era member from a serialized value tree, producing
    /// exactly what a pre-RW build would have written.
    fn strip_rw_fields(v: &serde::Value) -> serde::Value {
        match v {
            serde::Value::Object(entries) => serde::Value::Object(
                entries
                    .iter()
                    .filter(|(k, _)| k != "mode" && k != "read_cs_lengths" && k != "total_reads")
                    .map(|(k, val)| (k.clone(), strip_rw_fields(val)))
                    .collect(),
            ),
            serde::Value::Array(items) => {
                serde::Value::Array(items.iter().map(strip_rw_fields).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn pre_rw_json_deserializes_unchanged() {
        use serde::{Deserialize, Serialize};
        let t = simple_task();
        let old_format = strip_rw_fields(&t.serialize());
        assert_ne!(old_format, t.serialize(), "stripper must remove something");
        let parsed = DagTask::deserialize(&old_format).unwrap();
        assert_eq!(parsed, t);
        // And a task that *does* read round-trips through the new format.
        let rw = rw_task(Some(Time::from_us(40)));
        assert_eq!(DagTask::deserialize(&rw.serialize()).unwrap(), rw);
    }

    #[test]
    fn access_mode_serde_defaults_to_write() {
        use serde::Deserialize;
        assert_eq!(
            AccessMode::deserialize(&serde::Value::Null).unwrap(),
            AccessMode::Write
        );
        assert_eq!(
            AccessMode::deserialize(&serde::Value::String("Read".into())).unwrap(),
            AccessMode::Read
        );
        assert!(AccessMode::deserialize(&serde::Value::U64(1)).is_err());
    }

    /// Two vertices of `2^31` requests each to one resource (each vertex
    /// contains its critical sections), on task `id`.
    fn overflowing_builder(id: usize) -> DagTaskBuilder {
        let half = RequestSpec::new(rid(0), 1 << 31);
        DagTask::builder(TaskId::new(id), Time::from_ns(1 << 40))
            .dag(Dag::new(2, [(0, 1)]).unwrap())
            .vertex(VertexSpec::with_requests(Time::from_ns(1 << 32), [half]))
            .vertex(VertexSpec::with_requests(Time::from_ns(1 << 32), [half]))
            .critical_section(rid(0), Time::from_ns(1))
    }

    #[test]
    fn request_counts_past_u32_are_refused_not_wrapped() {
        use serde::Serialize;
        let overflow = ModelError::RequestCountOverflow {
            task: TaskId::new(3),
            resource: rid(0),
        };
        // Across vertices, in code.
        assert_eq!(overflowing_builder(3).build(), Err(overflow.clone()));
        // Within one vertex, on the wire: two entries of one resource and
        // mode that would merge past `u32::MAX`.
        let one = DagTask::builder(TaskId::new(3), Time::from_ns(1 << 40))
            .vertex(VertexSpec::with_requests(
                Time::from_ns(1 << 33),
                [RequestSpec::new(rid(0), 1 << 31)],
            ))
            .critical_section(rid(0), Time::from_ns(1))
            .build()
            .unwrap();
        let text = one.serialize().to_json(false);
        let entry = r#"{"resource":0,"count":2147483648,"mode":"Write"}"#;
        let doubled = text.replacen(entry, &format!("{entry},{entry}"), 1);
        assert_ne!(doubled, text);
        let err = serde::from_json::<DagTask>(&doubled).unwrap_err();
        assert_eq!(err.to_string(), overflow.to_string());
        assert!(
            err.to_string().contains("tau3") && err.to_string().contains("l0"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "overflow a u32 count")]
    fn merging_past_u32_in_code_panics() {
        let half = RequestSpec::new(rid(0), 1 << 31);
        VertexSpec::with_requests(Time::from_ns(1 << 33), [half, half]);
    }
}
