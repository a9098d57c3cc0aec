use crate::common::spin_inflation;
use crate::common::tests::{report, setup};
use crate::Baseline;
use dpcp_core::{Placement, ProtocolAnalysis, SchedAnalyzer};
use dpcp_model::{fig1, Partition, TaskId, TaskSet, Time};

#[test]
fn fig1_is_schedulable_under_spin() {
    let (partition, tasks) = setup();
    let report = report(Baseline::SpinSon, &tasks, &partition);
    assert!(report.schedulable);
    for tb in &report.task_bounds {
        assert!(tb.wcrt.unwrap() <= tasks.task(tb.task).deadline());
    }
}

#[test]
fn spin_inflation_counts_all_own_requests() {
    let (partition, tasks) = setup();
    // τ_i: ℓ1 once (δ = 3u), ℓ2 twice (δ = 2u) → 3 + 2·2 = 7u.
    assert_eq!(
        spin_inflation(&tasks, &partition, TaskId::new(0)),
        fig1::unit() * 7
    );
    // τ_j: ℓ1 once (remote τ_i: min(2,1)·3u = 3u).
    assert_eq!(
        spin_inflation(&tasks, &partition, TaskId::new(1)),
        fig1::unit() * 3
    );
}

#[test]
fn name_and_homes() {
    let s = Baseline::SpinSon;
    assert_eq!(ProtocolAnalysis::name(&s), "SPIN-SON");
    assert_eq!(ProtocolAnalysis::tag(&s), 'S');
    assert!(!ProtocolAnalysis::supports_rw(&s));
    assert_eq!(s.placement(), Placement::LocalExecution);
}

#[test]
fn heavier_contention_inflates_spin_bounds() {
    use dpcp_model::{DagTask, Platform, ProcessorId, RequestSpec, ResourceId, VertexSpec};
    let rid = ResourceId::new(0);
    let mk = |id: usize, n: u32| {
        DagTask::builder(TaskId::new(id), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(3),
                [RequestSpec::new(rid, n)],
            ))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap()
    };
    let platform = Platform::new(2).unwrap();
    let light = TaskSet::new(vec![mk(0, 1), mk(1, 1)], 1).unwrap();
    let heavy = TaskSet::new(vec![mk(0, 20), mk(1, 20)], 1).unwrap();
    let clusters = |ts: &TaskSet| {
        Partition::local_execution(
            ts,
            &platform,
            vec![vec![ProcessorId::new(0)], vec![ProcessorId::new(1)]],
        )
        .unwrap()
    };
    let r_light = report(Baseline::SpinSon, &light, &clusters(&light));
    let r_heavy = report(Baseline::SpinSon, &heavy, &clusters(&heavy));
    assert!(r_heavy.task_bounds[0].wcrt.unwrap() > r_light.task_bounds[0].wcrt.unwrap());
}
