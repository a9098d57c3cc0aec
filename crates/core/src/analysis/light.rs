//! Light-task analysis — the Sec. VI extension.
//!
//! Light tasks (`C_i ≤ D_i`) are treated as *sequential* tasks under
//! federated scheduling; several of them may share one processor under
//! partitioned fixed-priority scheduling, synchronising through the
//! original DPCP. The paper sketches (Sec. VI) that the heavy/light
//! delays are already captured by inter-task blocking and agent
//! interference, and that Lemmas 3 and 6 do not distinguish heavy from
//! light tasks; this module supplies the per-light-task response-time
//! bound:
//!
//! `r = C'_i + Σ_q N_{i,q} · Ŵ_{i,q} + Σ_{π_h > π_i, same ℘} η_h(r) · C_h
//!    + Σ_{τ_j ≠ τ_i} η_j(r) · Σ_{q ∈ Φ(℘)} N_{j,q} · L_{j,q}`
//!
//! where `Ŵ_{i,q}` is the Lemma 2 request bound for globals (with no
//! intra-task off-path term — a sequential job issues one request at a
//! time) and `L_{i,q}` for locals. Each request's full wait is charged as
//! if it executed on the task's own processor (suspension-oblivious —
//! sound, standard for DPCP-style sequential analyses), higher-priority
//! *light* tasks on the same processor preempt, and agents homed on the
//! processor preempt everything.

use dpcp_model::{ResourceId, TaskId, Time};

use super::context::AnalysisContext;
use super::demand::DemandStepTable;
use super::interference::agent_interference_others;
use super::request::{fixed_point, request_response_bound, request_response_bound_tabled};
use super::wcrt::{EvalScratch, PathBound};
use super::{AnalysisConfig, DelayBreakdown};

/// [`wcrt_light`] with shared evaluation state: the `γ` sums inside every
/// request recurrence `Ŵ_{i,q}` and the Eq. 8 agent interference are read
/// from the per-task [`DemandTables`](super::demand::DemandTables), and the
/// higher-priority preemption sum `Σ η_h(r) · C_h` gets its own η-keyed
/// prefix table built once per call — so no fixed-point iterate rescans the
/// task set. Bit-identical to the direct scan [`wcrt_light`] by the tables'
/// contract (asserted by the equivalence tests).
///
/// Resets the scratch's task-scoped state itself (the tables are keyed by
/// `(context, task)` and the mixed analysis advances `R_j` between tasks).
///
/// # Panics
///
/// Panics if the task's cluster is not a single processor (see
/// [`wcrt_light`]).
pub fn wcrt_light_with(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    cfg: &AnalysisConfig,
    scratch: &mut EvalScratch,
) -> Option<PathBound> {
    scratch.reset_for_task();
    let task = ctx.task(i);
    let horizon = task.deadline();
    assert_eq!(
        ctx.partition.cluster(i).len(),
        1,
        "light tasks are sequential: exactly one processor expected"
    );
    let my_proc = ctx.partition.cluster(i)[0];
    scratch.tables.ensure(ctx, i);
    let tables = &scratch.tables;

    // Suspension-oblivious demand, as in the direct scan — the window
    // -independent part is computed once either way; only the γ inside each
    // `Ŵ_{i,q}` recurrence now comes from the prefix tables.
    let all_on_path = |q: ResourceId| task.total_requests(q);
    let mut demand = task.noncritical_wcet();
    let mut blocking = Time::ZERO;
    for q in task.resources() {
        let n = u64::from(task.total_requests(q));
        if n == 0 {
            continue;
        }
        if ctx.tasks.is_global(q) {
            let w = request_response_bound_tabled(
                ctx,
                i,
                q,
                &all_on_path,
                horizon,
                cfg.max_fixpoint_iterations,
                tables,
            )?;
            demand = demand.saturating_add(w.saturating_mul(n));
            let own = task.cs_length(q).unwrap_or(Time::ZERO);
            blocking = blocking.saturating_add(w.saturating_sub(own).saturating_mul(n));
        } else {
            demand = demand.saturating_add(task.cs_demand(q));
        }
    }

    let my_prio = task.priority();
    let local_hp: Vec<TaskId> = ctx
        .partition
        .tasks_on(my_proc)
        .into_iter()
        .filter(|&j| j != i && ctx.task(j).priority() > my_prio)
        .collect();
    // `Σ_{π_h > π_i, same ℘} η_h(r) · C_h` is `Σ η_j(r) · d_j` like every
    // other windowed sum: memoize the scan at its η breakpoints.
    let hp_scan = |r: Time| {
        let mut total = Time::ZERO;
        for &h in &local_hp {
            total = total.saturating_add(ctx.task(h).wcet().saturating_mul(ctx.eta(h, r)));
        }
        total
    };
    let hp_table = DemandStepTable::build(
        local_hp
            .iter()
            .map(|&h| (ctx.response_bound(h), ctx.task(h).period())),
        horizon,
        hp_scan,
    );
    let hp_at = |r: Time| match &hp_table {
        Some(t) => t.value_at(r),
        None => hp_scan(r),
    };

    let r = fixed_point(demand, horizon, cfg.max_fixpoint_iterations, |r| {
        demand
            .saturating_add(hp_at(r))
            .saturating_add(tables.agent_at(ctx, i, r))
    })?;
    Some(PathBound {
        wcrt: r,
        breakdown: DelayBreakdown {
            path_len: task.wcet(),
            inter_task_blocking: blocking,
            intra_task_blocking: Time::ZERO,
            intra_task_interference: hp_at(r),
            agent_interference: tables.agent_at(ctx, i, r),
        },
    })
}

/// Response-time bound for a light task on a (possibly shared) processor.
///
/// Returns `None` when a request bound or the recurrence diverges beyond
/// the deadline.
///
/// This is the direct per-iterate scan, kept as the asserted-equal
/// reference for [`wcrt_light_with`] (which reads the same sums from
/// η-keyed prefix tables).
///
/// # Panics
///
/// Panics if the task's cluster is not a single processor — light tasks
/// are sequential by definition and the mixed partitioner always assigns
/// them exactly one.
pub fn wcrt_light(ctx: &AnalysisContext<'_>, i: TaskId, cfg: &AnalysisConfig) -> Option<PathBound> {
    let task = ctx.task(i);
    let horizon = task.deadline();
    assert_eq!(
        ctx.partition.cluster(i).len(),
        1,
        "light tasks are sequential: exactly one processor expected"
    );
    let my_proc = ctx.partition.cluster(i)[0];

    // Suspension-oblivious demand: non-critical work plus every request's
    // full response time. A sequential job is a single path, so *all* its
    // requests are on-path and Lemma 2's off-path intra term vanishes.
    let all_on_path = |q: ResourceId| task.total_requests(q);
    let mut demand = task.noncritical_wcet();
    let mut blocking = Time::ZERO;
    for q in task.resources() {
        let n = u64::from(task.total_requests(q));
        if n == 0 {
            continue;
        }
        if ctx.tasks.is_global(q) {
            let w = request_response_bound(
                ctx,
                i,
                q,
                &all_on_path,
                horizon,
                cfg.max_fixpoint_iterations,
            )
            .ok()?;
            demand = demand.saturating_add(w.saturating_mul(n));
            let own = task.cs_length(q).unwrap_or(Time::ZERO);
            blocking = blocking.saturating_add(w.saturating_sub(own).saturating_mul(n));
        } else {
            // A local resource of a light task has no other users at all:
            // the critical section just executes.
            demand = demand.saturating_add(task.cs_demand(q));
        }
    }

    // Higher-priority tasks sharing this processor (only light tasks can).
    let my_prio = task.priority();
    let local_hp: Vec<TaskId> = ctx
        .partition
        .tasks_on(my_proc)
        .into_iter()
        .filter(|&j| j != i && ctx.task(j).priority() > my_prio)
        .collect();

    let r = fixed_point(demand, horizon, cfg.max_fixpoint_iterations, |r| {
        let mut total = demand;
        for &h in &local_hp {
            total = total.saturating_add(ctx.task(h).wcet().saturating_mul(ctx.eta(h, r)));
        }
        total.saturating_add(agent_interference_others(ctx, i, r))
    })?;

    let mut hp_interference = Time::ZERO;
    for &h in &local_hp {
        hp_interference =
            hp_interference.saturating_add(ctx.task(h).wcet().saturating_mul(ctx.eta(h, r)));
    }
    Some(PathBound {
        wcrt: r,
        breakdown: DelayBreakdown {
            path_len: task.wcet(),
            inter_task_blocking: blocking,
            intra_task_blocking: Time::ZERO,
            intra_task_interference: hp_interference,
            agent_interference: agent_interference_others(ctx, i, r),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{DagTask, Partition, Platform, ProcessorId, RequestSpec, TaskSet, VertexSpec};
    use std::collections::BTreeMap;

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }
    fn pid(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    /// Two light tasks sharing ℘0 and a global resource homed on ℘1.
    fn mixed_system() -> (TaskSet, Partition) {
        let short = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(2),
                [RequestSpec::new(rid(0), 1)],
            ))
            .critical_section(rid(0), Time::from_us(100))
            .build()
            .unwrap();
        let long = DagTask::builder(TaskId::new(1), Time::from_ms(40))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(8),
                [RequestSpec::new(rid(0), 2)],
            ))
            .critical_section(rid(0), Time::from_us(200))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![short, long], 1).unwrap();
        let platform = Platform::new(2).unwrap();
        let partition = Partition::mixed(
            &tasks,
            &platform,
            vec![vec![pid(0)], vec![pid(0)]],
            BTreeMap::from([(rid(0), pid(1))]),
        )
        .unwrap();
        (tasks, partition)
    }

    #[test]
    fn high_priority_light_task_bound() {
        let (tasks, partition) = mixed_system();
        let ctx = AnalysisContext::new(&tasks, &partition);
        // τ0 (T = 10ms) outranks τ1 under RM.
        let bound = wcrt_light(&ctx, TaskId::new(0), &AnalysisConfig::ep()).unwrap();
        // Demand: C' (1.9ms) + W (own 0.1 + β 0.2 = 0.3ms) = 2.2ms; no HP
        // tasks; no agents on ℘0.
        assert_eq!(bound.wcrt, Time::from_us(2_200));
        assert_eq!(bound.breakdown.inter_task_blocking, Time::from_us(200));
    }

    #[test]
    fn low_priority_light_task_sees_preemption() {
        let (tasks, partition) = mixed_system();
        let ctx = AnalysisContext::new(&tasks, &partition);
        let bound = wcrt_light(&ctx, TaskId::new(1), &AnalysisConfig::ep()).unwrap();
        // τ1 pays for its own demand plus η_0(r)·C_0 preemptions.
        assert!(bound.wcrt > tasks.task(TaskId::new(1)).wcet());
        assert!(bound.breakdown.intra_task_interference >= Time::from_ms(2));
        assert!(bound.wcrt <= tasks.task(TaskId::new(1)).deadline());
    }

    #[test]
    fn agents_on_the_shared_processor_charge_interference() {
        // Home the resource on the lights' own processor instead.
        let (tasks, _) = mixed_system();
        let platform = Platform::new(2).unwrap();
        let partition = Partition::mixed(
            &tasks,
            &platform,
            vec![vec![pid(0)], vec![pid(0)]],
            BTreeMap::from([(rid(0), pid(0))]),
        )
        .unwrap();
        let ctx = AnalysisContext::new(&tasks, &partition);
        let bound = wcrt_light(&ctx, TaskId::new(0), &AnalysisConfig::ep()).unwrap();
        assert!(bound.breakdown.agent_interference > Time::ZERO);
    }

    #[test]
    fn tabled_light_bound_equals_direct_scan() {
        // Both resource-home placements of the fixture; response bounds
        // threaded in priority order exactly like the mixed analysis does,
        // one shared scratch across tasks. WCRTs *and* breakdowns must be
        // bit-identical to the per-iterate scan.
        let (tasks, _) = mixed_system();
        let platform = Platform::new(2).unwrap();
        for home in [pid(0), pid(1)] {
            let partition = Partition::mixed(
                &tasks,
                &platform,
                vec![vec![pid(0)], vec![pid(0)]],
                BTreeMap::from([(rid(0), home)]),
            )
            .unwrap();
            let mut ctx = AnalysisContext::new(&tasks, &partition);
            let mut scratch = EvalScratch::new();
            for i in tasks.by_decreasing_priority() {
                let tabled = wcrt_light_with(&ctx, i, &AnalysisConfig::ep(), &mut scratch);
                let direct = wcrt_light(&ctx, i, &AnalysisConfig::ep());
                assert_eq!(tabled, direct, "light task {i}, home {home}");
                if let Some(b) = &tabled {
                    ctx.set_response_bound(i, b.wcrt);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one processor")]
    fn rejects_multi_processor_light_clusters() {
        let (tasks, _) = mixed_system();
        let platform = Platform::new(3).unwrap();
        let partition = Partition::mixed(
            &tasks,
            &platform,
            vec![vec![pid(0), pid(1)], vec![pid(2)]],
            BTreeMap::from([(rid(0), pid(2))]),
        )
        .unwrap();
        let ctx = AnalysisContext::new(&tasks, &partition);
        let _ = wcrt_light(&ctx, TaskId::new(0), &AnalysisConfig::ep());
    }
}
