use crate::common::tests::{report, rw_fixture, setup};
use crate::Baseline;
use dpcp_core::{Placement, ProtocolAnalysis, SchedAnalyzer};
use dpcp_model::{
    DagTask, Partition, Platform, ProcessorId, RequestSpec, ResourceId, TaskId, TaskSet, Time,
    VertexSpec,
};

#[test]
fn hand_computed_rw_bounds() {
    // τ1's per-job serialized demand on ℓ0 is 2·100 + 4·20 = 280 µs.
    // τ0 (C = L* = 2 ms, one request): δ = 280 µs, windowed cap with
    // η_1 = ⌈(r + 100 ms)/100 ms⌉ = 2 gives 560 µs, so B = 280 µs.
    //   SA: r = 2 ms + 280 µs = 2.28 ms.
    //   SO: r = 2 ms + 280 µs + ⌈280 µs / 1⌉ = 2.56 ms.
    let (partition, tasks) = rw_fixture();
    let sa = report(Baseline::MpcpSa, &tasks, &partition);
    let so = report(Baseline::MpcpSo, &tasks, &partition);
    assert_eq!(sa.task_bounds[0].wcrt, Some(Time::from_us(2_280)));
    assert_eq!(so.task_bounds[0].wcrt, Some(Time::from_us(2_560)));
    assert!(sa.schedulable && so.schedulable);
}

#[test]
fn read_lengths_enter_the_bound() {
    // The same fixture with the reads priced at the write length
    // (drop the explicit read length): demand becomes 6·100 = 600 µs,
    // so τ0's SA bound grows from 2.28 ms to 2.6 ms.
    let rid = ResourceId::new(0);
    let t0 = DagTask::builder(TaskId::new(0), Time::from_ms(10))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(2),
            [RequestSpec::write(rid, 1)],
        ))
        .critical_section(rid, Time::from_us(100))
        .build()
        .unwrap();
    let t1 = DagTask::builder(TaskId::new(1), Time::from_ms(100))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(10),
            [RequestSpec::write(rid, 2), RequestSpec::read(rid, 4)],
        ))
        .critical_section(rid, Time::from_us(100))
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
    let sa = report(Baseline::MpcpSa, &tasks, &partition);
    assert_eq!(sa.task_bounds[0].wcrt, Some(Time::from_us(2_600)));
}

#[test]
fn oblivious_dominates_aware() {
    let (partition, tasks) = rw_fixture();
    let sa = report(Baseline::MpcpSa, &tasks, &partition);
    let so = report(Baseline::MpcpSo, &tasks, &partition);
    for (a, o) in sa.task_bounds.iter().zip(&so.task_bounds) {
        assert!(a.wcrt.unwrap() <= o.wcrt.unwrap());
    }
}

#[test]
fn aware_coincides_with_lpp_on_write_only_sets() {
    let (partition, tasks) = setup();
    let sa = report(Baseline::MpcpSa, &tasks, &partition);
    let lpp = report(Baseline::Lpp, &tasks, &partition);
    for (m, l) in sa.task_bounds.iter().zip(&lpp.task_bounds) {
        assert_eq!(m.wcrt, l.wcrt);
    }
}

#[test]
fn names_tags_and_rw_support() {
    let sa = Baseline::MpcpSa;
    let so = Baseline::MpcpSo;
    assert_eq!(ProtocolAnalysis::name(&sa), "MPCP-SA");
    assert_eq!(ProtocolAnalysis::name(&so), "MPCP-SO");
    assert_eq!(ProtocolAnalysis::tag(&sa), 'M');
    assert_eq!(ProtocolAnalysis::tag(&so), 'O');
    assert!(ProtocolAnalysis::supports_rw(&sa));
    assert!(ProtocolAnalysis::supports_rw(&so));
    assert_eq!(sa.placement(), Placement::LocalExecution);
    assert_eq!(so.placement(), Placement::LocalExecution);
}
