use crate::common::tests::{report, rw_fixture, setup};
use crate::Baseline;
use dpcp_core::{Placement, ProtocolAnalysis, SchedAnalyzer};
use dpcp_model::Time;

#[test]
fn hand_computed_rw_bound() {
    // τ0 in the shared fixture: serialized blocking is the full
    // windowed supply η_1 · 280 µs with η_1 = 2, i.e. 560 µs — the
    // FIFO cap without the per-request min — so r = 2 ms + 560 µs.
    let (partition, tasks) = rw_fixture();
    let report = report(Baseline::Dga, &tasks, &partition);
    assert_eq!(report.task_bounds[0].wcrt, Some(Time::from_us(2_560)));
}

#[test]
fn dominates_suspension_aware_mpcp() {
    for (partition, tasks) in [rw_fixture(), setup()] {
        let dga = report(Baseline::Dga, &tasks, &partition);
        let sa = report(Baseline::MpcpSa, &tasks, &partition);
        for (d, m) in dga.task_bounds.iter().zip(&sa.task_bounds) {
            assert!(d.wcrt.unwrap() >= m.wcrt.unwrap());
        }
    }
}

#[test]
fn name_tag_and_rw_support() {
    let d = Baseline::Dga;
    assert_eq!(ProtocolAnalysis::name(&d), "DGA");
    assert_eq!(ProtocolAnalysis::tag(&d), 'G');
    assert!(ProtocolAnalysis::supports_rw(&d));
    assert_eq!(d.placement(), Placement::LocalExecution);
}
