//! Shared pre-computed state for the WCRT analysis.
//!
//! The per-path bounds of Sec. IV repeatedly need the same derived maps —
//! which global resources live on which processor, resource ceilings,
//! per-task-per-processor critical-section demands, and the current
//! response-time bounds `R_j` feeding `η_j(L)`. [`AnalysisContext`] computes
//! them once per `(task set, partition)` pair.

use dpcp_model::{
    eta_jobs, DagTask, Partition, Priority, ProcessorId, ResourceId, TaskId, TaskSet, Time,
};

/// Pre-computed lookup tables for one `(task set, partition)` pair, plus
/// the evolving response-time bounds used by the job-count function
/// `η_j(L) = ⌈(L + R_j)/T_j⌉`.
///
/// Tasks are analysed in decreasing priority order (Algorithm 1 line 9);
/// `R_j` starts at the fallback `D_j` and is replaced by the computed bound
/// once a task has been analysed. The fallback is sound: a set is accepted
/// only when every computed bound is at most its deadline.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    /// The task set under analysis.
    pub tasks: &'a TaskSet,
    /// The placement decision under analysis.
    pub partition: &'a Partition,
    /// Current response-time bound per task (starts at `D_j`).
    resp: Vec<Time>,
    /// Global resources hosted on each processor (`Φ(℘_k)`), dense by
    /// processor index.
    proc_resources: Vec<Vec<ResourceId>>,
    /// Processors hosting at least one global resource.
    resource_processors: Vec<ProcessorId>,
    /// Ceiling of each resource as a base priority
    /// (`Π_q − π^H = max_{τ_j ∈ τ(ℓ_q)} π_j`); `None` for unused resources.
    ceiling_base: Vec<Option<Priority>>,
    /// Dense mirror of the partition's resource-home map (the `BTreeMap`
    /// lookup is too slow for the per-signature hot path).
    home: Vec<Option<ProcessorId>>,
    /// `cs_demand_on[j][k] = Σ_{q ∈ Φ(℘_k)} N_{j,q} · L_{j,q}` — task `j`'s
    /// total global critical-section demand on processor `k`.
    cs_demand_on: Vec<Vec<Time>>,
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context; `O(n · n_r + n · m)` time.
    pub fn new(tasks: &'a TaskSet, partition: &'a Partition) -> Self {
        let m = partition.processor_count();
        let mut proc_resources: Vec<Vec<ResourceId>> = vec![Vec::new(); m];
        for (q, p) in partition.resource_homes() {
            if tasks.is_global(q) {
                proc_resources[p.index()].push(q);
            }
        }
        let resource_processors = (0..m)
            .filter(|&k| !proc_resources[k].is_empty())
            .map(ProcessorId::new)
            .collect();
        let ceiling_base: Vec<Option<Priority>> =
            tasks.resources().map(|q| tasks.ceiling(q)).collect();
        let mut home: Vec<Option<ProcessorId>> = vec![None; ceiling_base.len()];
        for (q, p) in partition.resource_homes() {
            if q.index() < home.len() {
                home[q.index()] = Some(p);
            }
        }
        let cs_demand_on = tasks
            .iter()
            .map(|t| {
                (0..m)
                    .map(|k| proc_resources[k].iter().map(|&q| t.cs_demand(q)).sum())
                    .collect()
            })
            .collect();
        let resp = tasks.iter().map(DagTask::deadline).collect();
        AnalysisContext {
            tasks,
            partition,
            resp,
            proc_resources,
            resource_processors,
            ceiling_base,
            home,
            cs_demand_on,
        }
    }

    /// The home processor of `ℓ_q` — a dense-array mirror of
    /// [`Partition::home_of`], for the analysis hot paths.
    #[inline]
    pub fn home_of(&self, q: ResourceId) -> Option<ProcessorId> {
        self.home.get(q.index()).copied().flatten()
    }

    /// The task being described by `id`.
    #[inline]
    pub fn task(&self, id: TaskId) -> &DagTask {
        self.tasks.task(id)
    }

    /// Global resources hosted on `℘_k` (`Φ(℘_k)`).
    #[inline]
    pub fn resources_on(&self, k: ProcessorId) -> &[ResourceId] {
        &self.proc_resources[k.index()]
    }

    /// The processors that host at least one global resource (all other
    /// processors contribute nothing to blocking sums).
    #[inline]
    pub fn resource_processors(&self) -> &[ProcessorId] {
        &self.resource_processors
    }

    /// Global resources co-located with `ℓ_q` (`Φ^℘(ℓ_q)`, including `ℓ_q`
    /// itself), or an empty slice when `ℓ_q` has no home.
    pub fn co_located(&self, q: ResourceId) -> &[ResourceId] {
        match self.home_of(q) {
            Some(p) => self.resources_on(p),
            None => &[],
        }
    }

    /// Ceiling of `ℓ_q` expressed as a base priority, `None` if unused.
    #[inline]
    pub fn ceiling_base(&self, q: ResourceId) -> Option<Priority> {
        self.ceiling_base[q.index()]
    }

    /// `Σ_{q ∈ Φ(℘_k)} N_{j,q} · L_{j,q}` — task `j`'s global
    /// critical-section demand on `℘_k`.
    #[inline]
    pub fn cs_demand_on(&self, j: TaskId, k: ProcessorId) -> Time {
        self.cs_demand_on[j.index()][k.index()]
    }

    /// `Σ_{k ∈ ℘(τ_i)} Σ_{q ∈ Φ(℘_k)} N_{j,q} · L_{j,q}` — task `j`'s total
    /// global critical-section demand across `τ_i`'s whole cluster (the
    /// per-job agent workload `τ_j` places on `τ_i`'s processors, Eq. 8).
    #[inline]
    pub fn cluster_cs_demand(&self, j: TaskId, i: TaskId) -> Time {
        let mut demand = Time::ZERO;
        for &k in self.partition.cluster(i) {
            demand = demand.saturating_add(self.cs_demand_on(j, k));
        }
        demand
    }

    /// The current response-time bound `R_j` used inside `η_j`.
    #[inline]
    pub fn response_bound(&self, j: TaskId) -> Time {
        self.resp[j.index()]
    }

    /// Replaces `R_j` after task `j` has been analysed. Values above `D_j`
    /// are clamped to `D_j`: if the bound exceeds the deadline the system is
    /// unschedulable anyway, and `D_j` keeps the remaining analysis
    /// self-consistent.
    pub fn set_response_bound(&mut self, j: TaskId, bound: Time) {
        let d = self.tasks.task(j).deadline();
        self.resp[j.index()] = bound.min(d);
    }

    /// `η_j(window) = ⌈(window + R_j)/T_j⌉` — the job-count bound of
    /// Sec. IV-B.
    #[inline]
    pub fn eta(&self, j: TaskId, window: Time) -> u64 {
        eta_jobs(window, self.resp[j.index()], self.tasks.task(j).period())
    }

    /// The cluster size `m_i` of a task.
    #[inline]
    pub fn cluster_size(&self, i: TaskId) -> u64 {
        self.partition.cluster_size(i) as u64
    }

    /// Global resources hosted on any processor of task `i`'s cluster
    /// (`Φ^℘(τ_i)`).
    pub fn resources_on_cluster(&self, i: TaskId) -> impl Iterator<Item = ResourceId> + '_ {
        self.partition
            .cluster(i)
            .iter()
            .flat_map(|&p| self.resources_on(p).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::fig1;

    #[test]
    fn fig1_context_maps() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let ctx = AnalysisContext::new(&tasks, &partition);
        let p1 = ProcessorId::new(1);
        assert_eq!(ctx.resources_on(p1), &[fig1::GLOBAL_RESOURCE]);
        assert_eq!(ctx.resource_processors(), &[p1]);
        assert_eq!(
            ctx.co_located(fig1::GLOBAL_RESOURCE),
            &[fig1::GLOBAL_RESOURCE]
        );
        // Local resource has no home.
        assert!(ctx.co_located(fig1::LOCAL_RESOURCE).is_empty());
        // Each task spends one 3-unit critical section on ℓ1 → demand on ℘1.
        let u3 = fig1::unit() * 3;
        assert_eq!(ctx.cs_demand_on(TaskId::new(0), p1), u3);
        assert_eq!(ctx.cs_demand_on(TaskId::new(1), p1), u3);
        assert_eq!(
            ctx.cs_demand_on(TaskId::new(0), ProcessorId::new(0)),
            Time::ZERO
        );
        // ℓ1 lives on τ_j's cluster only.
        assert_eq!(
            ctx.resources_on_cluster(TaskId::new(1)).collect::<Vec<_>>(),
            vec![fig1::GLOBAL_RESOURCE]
        );
        assert_eq!(ctx.resources_on_cluster(TaskId::new(0)).count(), 0);
    }

    #[test]
    fn response_bounds_start_at_deadline_and_clamp() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let mut ctx = AnalysisContext::new(&tasks, &partition);
        let t0 = TaskId::new(0);
        let d = tasks.task(t0).deadline();
        assert_eq!(ctx.response_bound(t0), d);
        ctx.set_response_bound(t0, fig1::unit() * 12);
        assert_eq!(ctx.response_bound(t0), fig1::unit() * 12);
        ctx.set_response_bound(t0, d + fig1::unit());
        assert_eq!(ctx.response_bound(t0), d);
    }

    #[test]
    fn eta_uses_current_bound() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let mut ctx = AnalysisContext::new(&tasks, &partition);
        let t0 = TaskId::new(0);
        // R = D = 30u, T = 30u: η(30u) = ⌈60/30⌉ = 2.
        assert_eq!(ctx.eta(t0, fig1::unit() * 30), 2);
        ctx.set_response_bound(t0, fig1::unit() * 10);
        assert_eq!(ctx.eta(t0, fig1::unit() * 30), 2); // ⌈40/30⌉
        assert_eq!(ctx.eta(t0, fig1::unit() * 9), 1); // ⌈19/30⌉
    }

    #[test]
    fn ceiling_base_matches_taskset() {
        let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
        let ctx = AnalysisContext::new(&tasks, &partition);
        assert_eq!(
            ctx.ceiling_base(fig1::GLOBAL_RESOURCE),
            tasks.ceiling(fig1::GLOBAL_RESOURCE)
        );
    }
}
