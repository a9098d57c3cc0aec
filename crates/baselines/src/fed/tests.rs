use crate::common::tests::{report, setup};
use crate::Baseline;
use dpcp_core::{AnalysisConfig, AnalysisSession, Placement, ProtocolAnalysis, SchedAnalyzer};
use dpcp_model::{
    fig1, DagTask, Partition, Platform, ProcessorId, TaskId, TaskSet, Time, VertexSpec,
};

/// FED-FP's bound and verdict for a task of two independent vertices,
/// one of `L*` and one of `C − L*`, with `D = 14 ms`, on `m` processors.
fn fed_bound(wcet: Time, longest_path: Time, m: usize) -> (Option<Time>, bool) {
    let off_path = wcet.saturating_sub(longest_path);
    let task = DagTask::builder(TaskId::new(0), Time::from_ms(14))
        .dag(dpcp_model::Dag::new(2, []).unwrap())
        .vertex(VertexSpec::new(longest_path))
        .vertex(VertexSpec::new(off_path))
        .build()
        .unwrap();
    let tasks = TaskSet::new(vec![task], 0).unwrap();
    let platform = Platform::new(m.max(2)).unwrap();
    let partition = Partition::local_execution(
        &tasks,
        &platform,
        vec![(0..m).map(ProcessorId::new).collect()],
    )
    .unwrap();
    let bound = &report(Baseline::FedFp, &tasks, &partition).task_bounds[0];
    (bound.wcrt, bound.schedulable)
}

#[test]
fn bound_formula() {
    // C = 19, L* = 10, m = 2 → 10 + ⌈9/2⌉ = 14.5 units (4500 µs with
    // 1 ms units), reported although it exceeds D = 14 ms.
    let (wcrt, schedulable) = fed_bound(fig1::unit() * 19, fig1::unit() * 10, 2);
    assert_eq!(wcrt, Some(fig1::unit() * 14 + Time::from_us(500)));
    assert_eq!(wcrt.unwrap().as_us(), 14_500);
    assert!(!schedulable);
    // m = 1 degenerates to C.
    assert_eq!(
        fed_bound(fig1::unit() * 19, fig1::unit() * 10, 1).0,
        Some(fig1::unit() * 19)
    );
}

#[test]
fn fig1_schedulable_and_blocking_free() {
    let (partition, tasks) = setup();
    let fed = Baseline::FedFp;
    let report = report(fed, &tasks, &partition);
    assert!(report.schedulable);
    for tb in &report.task_bounds {
        let b = tb.breakdown.unwrap();
        assert_eq!(b.inter_task_blocking, Time::ZERO);
        assert_eq!(b.agent_interference, Time::ZERO);
    }
    assert_eq!(ProtocolAnalysis::name(&fed), "FED-FP");
    assert_eq!(ProtocolAnalysis::tag(&fed), 'F');
    assert!(ProtocolAnalysis::supports_rw(&fed));
    assert_eq!(fed.placement(), Placement::LocalExecution);
}

#[test]
fn fed_fp_dominates_dpcp_bounds() {
    // Resource-oblivious bounds can only be smaller or equal.
    let (partition, tasks) = setup();
    let fed = report(Baseline::FedFp, &tasks, &partition);
    let dpcp = AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition);
    for (f, d) in fed.task_bounds.iter().zip(&dpcp.task_bounds) {
        assert!(f.wcrt.unwrap() <= d.wcrt.unwrap());
    }
}
