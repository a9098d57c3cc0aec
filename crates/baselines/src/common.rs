//! Shared machinery for the local-execution baselines: the blocking
//! terms `B`, SPIN-SON's spin time and the one response-time recurrence
//! every [`Baseline`](crate::Baseline) but FED-FP solves.
//!
//! All of them execute requests *locally* — a vertex acquires the lock
//! on whatever processor it runs on — and serve lock queues FIFO. What
//! differs is (a) how many requests can sit ahead of a fresh request
//! (spinning bounds this by one per processor of each competing task,
//! suspension does not: [`QueueDepth`]), (b) whether waiting wastes
//! processor time (spinning does, suspension does not) and (c) whether
//! the blocking is charged once or also as processor demand.
//!
//! These analyses are re-derivations in the response-time framework of
//! Theorem 1, not the cited protocols' original analyses. They keep the
//! properties the comparison rests on, and the tests check each: FED-FP,
//! which charges no blocking, upper-bounds every other method;
//! SPIN-SON's queue depth is bounded by cluster widths while the
//! suspension-based variants' is not; only SPIN-SON wastes processor
//! time waiting; and the suspension-oblivious and serialized bounds
//! dominate the suspension-aware one.

use dpcp_core::analysis::request::fixed_point;
use dpcp_model::{eta_jobs, DagTask, Partition, ResourceId, TaskId, TaskSet, Time};

/// The iteration budget of [`baseline_wcrt`]. Exhausting it counts as
/// divergence (the task is unschedulable), which is sound.
const MAX_FIXPOINT_ITERATIONS: usize = 512;

/// How deep the FIFO queue ahead of one request can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueDepth {
    /// Non-preemptive spinning: at most one in-flight request per processor
    /// of each competing task (`min(m_j, N_{j,q})` requests ahead).
    PerProcessor,
    /// Suspension: every pending request of a competing job can be ahead
    /// (`N_{j,q}` requests).
    PerJob,
}

/// Evolving per-task response bounds for `η_j` (same convention as the
/// DPCP-p analysis: `D_j` until a task has been analysed).
#[derive(Debug)]
pub(crate) struct ResponseBounds {
    resp: Vec<Time>,
}

impl ResponseBounds {
    pub(crate) fn new(tasks: &TaskSet) -> Self {
        ResponseBounds {
            resp: tasks.iter().map(DagTask::deadline).collect(),
        }
    }

    pub(crate) fn set(&mut self, j: TaskId, bound: Time, deadline: Time) {
        self.resp[j.index()] = bound.min(deadline);
    }

    pub(crate) fn eta(&self, tasks: &TaskSet, j: TaskId, window: Time) -> u64 {
        eta_jobs(window, self.resp[j.index()], tasks.task(j).period())
    }
}

/// The worst critical-section length task `j` can occupy one FIFO slot of
/// `ℓ_q` with, across the access modes it actually uses. Write-only tasks
/// degenerate to `L_{j,q}` exactly.
pub(crate) fn max_mode_len(task: &DagTask, q: ResourceId) -> Time {
    let write = task.cs_length(q).unwrap_or(Time::ZERO);
    if task.total_reads(q) > 0 {
        write.max(task.read_cs_length(q).unwrap_or(write))
    } else {
        write
    }
}

/// The per-request FIFO wait bound `δ_q` for task `i` requesting `ℓ_q`:
/// one critical section per queue slot ahead. Mode-aware: a full per-job
/// queue contributes its exact serialized demand (writes at `L_{j,q}`,
/// reads at `L^R_{j,q}`); truncated queues charge the worst mode per slot.
pub(crate) fn per_request_delay(
    tasks: &TaskSet,
    partition: &Partition,
    i: TaskId,
    q: ResourceId,
    depth: QueueDepth,
) -> Time {
    let me = tasks.task(i);
    let mut delay = Time::ZERO;
    for &j in tasks.users_of(q) {
        if j == i {
            continue;
        }
        let other = tasks.task(j);
        let contribution = match depth {
            QueueDepth::PerProcessor => {
                let ahead =
                    (partition.cluster_size(j) as u64).min(u64::from(other.total_requests(q)));
                max_mode_len(other, q).saturating_mul(ahead)
            }
            // All N_{j,q} pending requests ahead: the serialized per-mode
            // demand, identical to N·L on write-only tasks.
            QueueDepth::PerJob => other.cs_demand(q),
        };
        delay = delay.saturating_add(contribution);
    }
    // Intra-task contenders: other vertices of the same job, bounded by the
    // cluster width minus the requesting vertex itself.
    let own_n = me.total_requests(q);
    if own_n > 1 {
        let ahead = match depth {
            QueueDepth::PerProcessor => {
                (partition.cluster_size(i) as u64 - 1).min(u64::from(own_n - 1))
            }
            QueueDepth::PerJob => u64::from(own_n - 1),
        };
        let len = max_mode_len(me, q);
        delay = delay.saturating_add(len.saturating_mul(ahead));
    }
    delay
}

/// The windowed cap on total blocking from other tasks on `ℓ_q` within a
/// window of length `r`: `Σ_{j≠i} η_j(r) · (N^W_{j,q}·L_{j,q} +
/// N^R_{j,q}·L^R_{j,q})` — the per-job serialized demand, which is
/// `N_{j,q} · L_{j,q}` exactly on write-only tasks.
pub(crate) fn windowed_remote_demand(
    tasks: &TaskSet,
    resp: &ResponseBounds,
    i: TaskId,
    q: ResourceId,
    r: Time,
) -> Time {
    let mut total = Time::ZERO;
    for &j in tasks.users_of(q) {
        if j == i {
            continue;
        }
        let other = tasks.task(j);
        let demand = other.cs_demand(q);
        total = total.saturating_add(demand.saturating_mul(resp.eta(tasks, j, r)));
    }
    total
}

/// The window-independent terms of a task's FIFO blocking, one
/// `(ℓ_q, N_{i,q} · δ_q, (N_{i,q} − 1) · L^max_{i,q})` entry per requested
/// resource in `resources()` order: what all of the job's requests can
/// wait at `depth`, and the job's own queued sections.
pub(crate) fn fifo_requests(
    tasks: &TaskSet,
    partition: &Partition,
    i: TaskId,
    depth: QueueDepth,
) -> Vec<(ResourceId, Time, Time)> {
    let me = tasks.task(i);
    let mut requests = Vec::new();
    for q in me.resources() {
        let n = u64::from(me.total_requests(q));
        if n == 0 {
            continue;
        }
        let delta = per_request_delay(tasks, partition, i, q, depth);
        let own_len = max_mode_len(me, q);
        requests.push((q, delta.saturating_mul(n), own_len.saturating_mul(n - 1)));
    }
    requests
}

/// Total direct blocking of a job across the requests of
/// [`fifo_requests`] at window `r`:
/// `Σ_q min(N_{i,q} · δ_q, windowed_remote_q(r) + (N_{i,q}−1) · L^max_{i,q})`.
pub(crate) fn direct_blocking(
    tasks: &TaskSet,
    resp: &ResponseBounds,
    i: TaskId,
    requests: &[(ResourceId, Time, Time)],
    r: Time,
) -> Time {
    let mut total = Time::ZERO;
    for &(q, per_request_total, own) in requests {
        let cap = windowed_remote_demand(tasks, resp, i, q, r).saturating_add(own);
        total = total.saturating_add(per_request_total.min(cap));
    }
    total
}

/// SPIN-SON's spin time: the total time the job's own requests can burn
/// busy-waiting (`Σ_q N_{i,q} · δ_q` over [`fifo_requests`] at
/// per-processor depth), charged as intra-cluster interference.
pub(crate) fn spin_time(requests: &[(ResourceId, Time, Time)]) -> Time {
    requests.iter().fold(Time::ZERO, |total, &(_, waits, _)| {
        total.saturating_add(waits)
    })
}

/// DGA's serialized per-resource blocking at window `r`:
/// `Σ_q windowed_remote_q(r) + (N_{i,q} − 1) · L^max_{i,q}`.
pub(crate) fn serialized_blocking(
    tasks: &TaskSet,
    resp: &ResponseBounds,
    i: TaskId,
    r: Time,
) -> Time {
    let me = tasks.task(i);
    let mut total = Time::ZERO;
    for q in me.resources() {
        let n = u64::from(me.total_requests(q));
        if n == 0 {
            continue;
        }
        let remote = windowed_remote_demand(tasks, resp, i, q, r);
        let own = max_mode_len(me, q).saturating_mul(n - 1);
        total = total.saturating_add(remote).saturating_add(own);
    }
    total
}

/// Runs the baseline response-time recurrence
/// `r = L* + B(r) + ⌈(C − L* + X) / m_i⌉` to its least fixed point below
/// `D_i`, where `B = blocking(r)` and `X = extra(B)`; `m_i ≥ 1`.
pub(crate) fn baseline_wcrt(
    me: &DagTask,
    m_i: u64,
    blocking: impl Fn(Time) -> Time,
    extra: impl Fn(Time) -> Time,
) -> Option<Time> {
    let lstar = me.longest_path_len();
    let off_path = me.wcet().saturating_sub(lstar);
    fixed_point(lstar, me.deadline(), MAX_FIXPOINT_ITERATIONS, |r| {
        let b = blocking(r);
        lstar
            .saturating_add(b)
            .saturating_add(off_path.saturating_add(extra(b)).div_ceil(m_i))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Baseline;
    use dpcp_core::analysis::{EvalScratch, SchedulabilityReport};
    use dpcp_core::SchedAnalyzer;
    use dpcp_model::fig1;

    /// Fig. 1's canonical partition and task set.
    pub(crate) fn setup() -> (Partition, TaskSet) {
        let (_, part, ts) = fig1::platform_and_partition().unwrap();
        (part, ts)
    }

    /// `baseline`'s report on one partition, with a fresh scratch.
    pub(crate) fn report(
        baseline: Baseline,
        tasks: &TaskSet,
        partition: &Partition,
    ) -> SchedulabilityReport {
        baseline.analyze(tasks, partition, &mut EvalScratch::new())
    }

    /// The two-task reader-writer fixture of the hand-computed MPCP and
    /// DGA tests: a high-priority writer and a low-priority mixed
    /// reader-writer sharing one resource, each on its own processor.
    pub(crate) fn rw_fixture() -> (Partition, TaskSet) {
        use dpcp_model::{Platform, ProcessorId, RequestSpec, VertexSpec};
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

    #[test]
    fn per_request_delay_counts_remote_and_intra() {
        let (part, ts) = setup();
        let i = TaskId::new(0);
        // ℓ1: one remote user (τ_j, 1 request, cluster 2 → min(2,1)=1 slot
        // of 3u); own N = 1 so no intra term.
        assert_eq!(
            per_request_delay(
                &ts,
                &part,
                i,
                fig1::GLOBAL_RESOURCE,
                QueueDepth::PerProcessor
            ),
            fig1::unit() * 3
        );
        // ℓ2 (local, 2 own requests): intra only: min(m−1, 1)·2u = 2u.
        assert_eq!(
            per_request_delay(
                &ts,
                &part,
                i,
                fig1::LOCAL_RESOURCE,
                QueueDepth::PerProcessor
            ),
            fig1::unit() * 2
        );
        // Per-job depth matches here because N ≤ m everywhere.
        assert_eq!(
            per_request_delay(&ts, &part, i, fig1::GLOBAL_RESOURCE, QueueDepth::PerJob),
            fig1::unit() * 3
        );
    }

    #[test]
    fn per_job_depth_exceeds_per_processor_when_requests_pile_up() {
        use dpcp_model::{DagTask, Platform, RequestSpec, VertexSpec};
        let rid = ResourceId::new(0);
        let mk = |id: usize, n: u32| {
            DagTask::builder(TaskId::new(id), Time::from_ms(10))
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(2),
                    [RequestSpec::new(rid, n)],
                ))
                .critical_section(rid, Time::from_us(100))
                .build()
                .unwrap()
        };
        let ts = TaskSet::new(vec![mk(0, 1), mk(1, 8)], 1).unwrap();
        let platform = Platform::new(2).unwrap();
        let part = Partition::local_execution(
            &ts,
            &platform,
            vec![
                vec![dpcp_model::ProcessorId::new(0)],
                vec![dpcp_model::ProcessorId::new(1)],
            ],
        )
        .unwrap();
        let spin = per_request_delay(&ts, &part, TaskId::new(0), rid, QueueDepth::PerProcessor);
        let susp = per_request_delay(&ts, &part, TaskId::new(0), rid, QueueDepth::PerJob);
        // Spin: min(m_1 = 1, 8) = 1 slot; suspension: all 8 pending.
        assert_eq!(spin, Time::from_us(100));
        assert_eq!(susp, Time::from_us(800));
    }

    #[test]
    fn windowed_cap_limits_blocking() {
        let (part, ts) = setup();
        let resp = ResponseBounds::new(&ts);
        let i = TaskId::new(0);
        // Window 10u: τ_j has η = ⌈40/30⌉ = 2 jobs × 1 request × 3u = 6u.
        assert_eq!(
            windowed_remote_demand(&ts, &resp, i, fig1::GLOBAL_RESOURCE, fig1::unit() * 10),
            fig1::unit() * 6
        );
        let requests = fifo_requests(&ts, &part, i, QueueDepth::PerProcessor);
        let b = direct_blocking(&ts, &resp, i, &requests, fig1::unit() * 10);
        // ℓ1: min(1·3u, 6u + 0) = 3u; ℓ2: min(2·2u, 0 + 1·2u) = 2u.
        assert_eq!(b, fig1::unit() * 5);
    }

    #[test]
    fn baseline_recurrence_converges_on_fig1() {
        let (part, ts) = setup();
        let resp = ResponseBounds::new(&ts);
        let i = TaskId::new(0);
        let me = ts.task(i);
        let m_i = part.cluster_size(i) as u64;
        let requests = fifo_requests(&ts, &part, i, QueueDepth::PerProcessor);
        let r = baseline_wcrt(
            me,
            m_i,
            |r| direct_blocking(&ts, &resp, i, &requests, r),
            |_| Time::ZERO,
        )
        .unwrap();
        assert!(r >= me.longest_path_len());
        assert!(r <= me.deadline());
    }
}
