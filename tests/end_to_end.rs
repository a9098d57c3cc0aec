//! End-to-end integration: generate → partition → analyse → simulate.
//!
//! These tests exercise the full pipeline the paper's evaluation relies
//! on, and check the semantic contracts between the crates:
//!
//! - a task set the analysis accepts never misses a deadline in the
//!   simulator, and observed response times respect the analysed bounds;
//! - Lemma 1 holds at runtime for every generated system;
//! - the EP bound is never worse than the EN bound on the same partition;
//! - FED-FP (no blocking charged) accepts a superset of every method.

use dpcp_p::baselines::Baseline;
use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisConfig, AnalysisSession};
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::model::{Platform, TaskSet, Time};
use dpcp_p::sim::{simulate, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ep_partition(tasks: &TaskSet, platform: &Platform) -> PartitionOutcome {
    AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(tasks, platform, WFD)
}

fn small_scenario() -> Scenario {
    Scenario {
        m: 8,
        nr_range: (2, 4),
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: 25,
        cs_range_us: (15, 50),
        graph_shape: dpcp_p::gen::GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    }
}

fn generate(seed: u64, utilization: f64) -> Option<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    small_scenario().sample_task_set(utilization, &mut rng).ok()
}

const WFD: ResourceHeuristic = ResourceHeuristic::WorstFitDecreasing;

#[test]
fn accepted_systems_hold_up_in_simulation() {
    let platform = Platform::new(8).unwrap();
    let mut validated = 0;
    for seed in 0..20u64 {
        let Some(tasks) = generate(seed, 4.0) else {
            continue;
        };
        let outcome = ep_partition(&tasks, &platform);
        let PartitionOutcome::Schedulable {
            partition, report, ..
        } = outcome
        else {
            continue;
        };
        let result = simulate(
            &tasks,
            &partition,
            &SimConfig {
                duration: Time::from_s(2),
                seed,
                ..SimConfig::default()
            },
        );
        assert_eq!(result.lemma1_violations, 0, "seed {seed}");
        assert_eq!(result.work_conservation_violations, 0, "seed {seed}");
        assert_eq!(result.deadline_misses(), 0, "seed {seed}");
        for (tb, st) in report.task_bounds.iter().zip(&result.per_task) {
            let bound = tb.wcrt.expect("schedulable task has a bound");
            assert!(
                st.max_response <= bound,
                "seed {seed}: task {} observed {} > bound {}",
                tb.task,
                st.max_response,
                bound
            );
        }
        validated += 1;
    }
    assert!(
        validated >= 5,
        "only {validated} schedulable draws; test too weak"
    );
}

#[test]
fn ep_bound_never_exceeds_en_bound_on_same_partition() {
    let platform = Platform::new(8).unwrap();
    let mut compared = 0;
    for seed in 100..115u64 {
        let Some(tasks) = generate(seed, 4.5) else {
            continue;
        };
        // Fix the partition with EN (coarser), then compare both analyses
        // on that same placement.
        let en_outcome = AnalysisSession::new(AnalysisConfig::en())
            .partition_and_analyze(&tasks, &platform, WFD);
        let PartitionOutcome::Schedulable {
            partition,
            report: en_report,
            ..
        } = en_outcome
        else {
            continue;
        };
        let ep_report = AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition);
        for (ep, en) in ep_report.task_bounds.iter().zip(&en_report.task_bounds) {
            let (Some(ep_w), Some(en_w)) = (ep.wcrt, en.wcrt) else {
                panic!("seed {seed}: converged EN must imply converged EP");
            };
            assert!(
                ep_w <= en_w,
                "seed {seed}: EP {ep_w} worse than EN {en_w} for {}",
                ep.task
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "too few comparisons ({compared})");
}

#[test]
fn acceptance_ordering_fed_ep_en() {
    // Per task set: EN accepted ⇒ EP accepted ⇒ FED-FP accepted.
    // Moderate utilization so the pessimistic EN bound accepts some draws.
    let platform = Platform::new(8).unwrap();
    let mut seen_en = 0;
    for seed in 200..230u64 {
        let Some(tasks) = generate(seed, 3.0) else {
            continue;
        };
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let ep_ok = session
            .partition_and_analyze(&tasks, &platform, WFD)
            .is_schedulable();
        let en_ok = session
            .with_config(AnalysisConfig::en(), |s| {
                s.partition_and_analyze(&tasks, &platform, WFD)
            })
            .is_schedulable();
        let fed_ok = session
            .partition_with(&tasks, &platform, WFD, &Baseline::FedFp)
            .is_schedulable();
        if en_ok {
            assert!(ep_ok, "seed {seed}: EN accepted but EP rejected");
            seen_en += 1;
        }
        if ep_ok {
            assert!(fed_ok, "seed {seed}: EP accepted but FED-FP rejected");
        }
    }
    assert!(
        seen_en >= 3,
        "EN accepted too few sets ({seen_en}) for coverage"
    );
}

#[test]
fn fed_fp_upper_bounds_local_execution_baselines_too() {
    let platform = Platform::new(8).unwrap();
    for seed in 300..320u64 {
        let Some(tasks) = generate(seed, 5.0) else {
            continue;
        };
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let fed_ok = session
            .partition_with(&tasks, &platform, WFD, &Baseline::FedFp)
            .is_schedulable();
        for (name, analyzer) in [("SPIN-SON", Baseline::SpinSon), ("LPP", Baseline::Lpp)] {
            if session
                .partition_with(&tasks, &platform, WFD, &analyzer)
                .is_schedulable()
            {
                assert!(fed_ok, "seed {seed}: {name} accepted but FED-FP rejected");
            }
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let platform = Platform::new(8).unwrap();
    let tasks_a = generate(7, 4.0).expect("seed 7 generates");
    let tasks_b = generate(7, 4.0).expect("seed 7 generates");
    assert_eq!(tasks_a, tasks_b);
    let oa = ep_partition(&tasks_a, &platform);
    let ob = ep_partition(&tasks_b, &platform);
    assert_eq!(oa.is_schedulable(), ob.is_schedulable());
    if let (Some(pa), Some(pb)) = (oa.partition(), ob.partition()) {
        assert_eq!(pa, pb);
        let ra = simulate(&tasks_a, pa, &SimConfig::default());
        let rb = simulate(&tasks_b, pb, &SimConfig::default());
        assert_eq!(ra, rb);
    }
}

#[test]
fn sporadic_releases_also_respect_bounds() {
    // Sporadic arrivals only increase inter-arrival gaps, so the bounds
    // (derived for minimum inter-arrival times) must still hold.
    let platform = Platform::new(8).unwrap();
    for seed in 400..410u64 {
        let Some(tasks) = generate(seed, 3.5) else {
            continue;
        };
        let outcome = ep_partition(&tasks, &platform);
        let PartitionOutcome::Schedulable {
            partition, report, ..
        } = outcome
        else {
            continue;
        };
        let result = simulate(
            &tasks,
            &partition,
            &SimConfig {
                duration: Time::from_s(1),
                seed,
                release: dpcp_p::sim::ReleaseModel::Sporadic { jitter: 0.3 },
                ..SimConfig::default()
            },
        );
        assert_eq!(result.lemma1_violations, 0);
        for (tb, st) in report.task_bounds.iter().zip(&result.per_task) {
            assert!(st.max_response <= tb.wcrt.unwrap(), "seed {seed}");
        }
    }
}
