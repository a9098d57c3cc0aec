use crate::common::tests::{report, setup};
use crate::Baseline;
use dpcp_core::{Placement, ProtocolAnalysis, SchedAnalyzer};
use dpcp_model::{Partition, TaskId, TaskSet, Time};

#[test]
fn fig1_is_schedulable_under_lpp() {
    let (partition, tasks) = setup();
    assert!(report(Baseline::Lpp, &tasks, &partition).schedulable);
}

#[test]
fn lpp_interference_excludes_spin_waste() {
    // On the same system, LPP's interference term must be at most
    // SPIN-SON's (it omits the spin inflation).
    let (partition, tasks) = setup();
    let lpp = report(Baseline::Lpp, &tasks, &partition);
    let spin = report(Baseline::SpinSon, &tasks, &partition);
    for (l, s) in lpp.task_bounds.iter().zip(&spin.task_bounds) {
        let li = l.breakdown.unwrap().intra_task_interference;
        let si = s.breakdown.unwrap().intra_task_interference;
        assert!(li <= si);
    }
}

#[test]
fn deep_queues_hurt_lpp_more_than_spin() {
    use dpcp_model::{Dag, DagTask, Platform, ProcessorId, RequestSpec, ResourceId, VertexSpec};
    // One wide task hammers the resource; the analysed task requests
    // it once. Suspension admits 20 requests ahead; spin at most m = 4.
    let rid = ResourceId::new(0);
    let narrow = DagTask::builder(TaskId::new(0), Time::from_ms(10))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(2),
            [RequestSpec::new(rid, 1)],
        ))
        .critical_section(rid, Time::from_us(100))
        .build()
        .unwrap();
    let wide = DagTask::builder(TaskId::new(1), Time::from_ms(10))
        .dag(Dag::new(4, []).unwrap())
        .vertex(VertexSpec::with_requests(
            Time::from_ms(3),
            [RequestSpec::new(rid, 10)],
        ))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(3),
            [RequestSpec::new(rid, 10)],
        ))
        .vertex(VertexSpec::new(Time::from_ms(3)))
        .vertex(VertexSpec::new(Time::from_ms(3)))
        .critical_section(rid, Time::from_us(100))
        .build()
        .unwrap();
    let tasks = TaskSet::new(vec![narrow, wide], 1).unwrap();
    let platform = Platform::new(5).unwrap();
    let p = ProcessorId::new;
    let partition = Partition::local_execution(
        &tasks,
        &platform,
        vec![vec![p(0)], vec![p(1), p(2), p(3), p(4)]],
    )
    .unwrap();
    let lpp = report(Baseline::Lpp, &tasks, &partition);
    let spin = report(Baseline::SpinSon, &tasks, &partition);
    // For the narrow task, direct blocking dominates: suspension sees
    // min(20·0.1, cap) vs spin's min(4·0.1, cap) per request.
    let l0 = lpp.task_bounds[0].wcrt.unwrap();
    let s0 = spin.task_bounds[0].wcrt.unwrap();
    assert!(l0 >= s0, "LPP {l0} should not beat SPIN {s0} here");
}

#[test]
fn name_and_homes() {
    let l = Baseline::Lpp;
    assert_eq!(ProtocolAnalysis::name(&l), "LPP");
    assert_eq!(ProtocolAnalysis::tag(&l), 'L');
    assert!(!ProtocolAnalysis::supports_rw(&l));
    assert_eq!(l.placement(), Placement::LocalExecution);
}
