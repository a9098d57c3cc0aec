//! Degenerate-DAG robustness: the simulator and the signature DP must
//! survive the fuzz generators' hostile graph shapes — single vertices,
//! ~1000-vertex deep chains, and wide fork-joins — without stack
//! overflow, with work conservation intact, and with the signature caps
//! honored.

use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisConfig, AnalysisSession};
use dpcp_p::gen::{chain_dag, fork_join_dag};
use dpcp_p::model::path::{enumerate_signatures_dp, enumerate_signatures_dp_capped};
use dpcp_p::model::{DagTask, Platform, TaskId, TaskSet, Time, VertexSpec};
use dpcp_p::sim::{simulate, ReleaseModel, SimConfig};

/// A resource-free task over `dag` with `wcet_us` per vertex and a
/// generous deadline, so schedulability depends only on shape handling.
fn shaped_task(dag: dpcp_p::model::Dag, wcet_us: u64, period_ms: u64) -> DagTask {
    let n = dag.vertex_count();
    DagTask::builder(TaskId::new(0), Time::from_ms(period_ms))
        .deadline(Time::from_ms(period_ms))
        .dag(dag)
        .vertex_specs((0..n).map(|_| VertexSpec::new(Time::from_us(wcet_us))))
        .build()
        .expect("degenerate shapes are valid tasks")
}

/// Analyze + simulate one single-task set and assert the simulator's
/// online invariants hold and jobs actually complete.
fn simulate_clean(task: DagTask, m: usize) {
    let tasks = TaskSet::new(vec![task], 0).expect("single task is dense");
    let platform = Platform::new(m).expect("platform");
    let outcome = AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
        &tasks,
        &platform,
        ResourceHeuristic::WorstFitDecreasing,
    );
    let PartitionOutcome::Schedulable { partition, .. } = outcome else {
        panic!("a light resource-free task must be schedulable");
    };
    for release in [
        ReleaseModel::Periodic,
        ReleaseModel::Bursty {
            burst: 3,
            pause: 1.0,
        },
    ] {
        let result = simulate(
            &tasks,
            &partition,
            &SimConfig {
                duration: Time::from_ms(60),
                seed: 7,
                release,
                trace: false,
                check_invariants: true,
                max_events: 50_000_000,
            },
        );
        assert_eq!(result.work_conservation_violations, 0, "work conservation");
        assert_eq!(result.lemma1_violations, 0, "Lemma 1");
        assert_eq!(result.deadline_misses(), 0, "deadline misses");
        assert!(result.jobs_completed() > 0, "jobs must complete");
    }
}

#[test]
fn single_vertex_task_simulates_cleanly() {
    simulate_clean(shaped_task(chain_dag(1), 100, 10), 2);
}

#[test]
fn thousand_vertex_deep_chain_survives_simulation() {
    // 1000 × 5 µs = 5 ms critical path in a 20 ms period: feasible but
    // structurally extreme. A recursive traversal would blow the stack
    // here; the engine and the DP must both stay iterative.
    simulate_clean(shaped_task(chain_dag(1000), 5, 20), 4);
}

#[test]
fn thousand_vertex_fork_join_survives_simulation() {
    // ~998 parallel vertices between fork and join.
    simulate_clean(shaped_task(fork_join_dag(1000), 5, 20), 8);
}

#[test]
fn degenerate_shapes_round_trip_the_signature_dp_caps() {
    // A resource-free chain has exactly one path signature, regardless
    // of depth.
    let chain = shaped_task(chain_dag(1000), 5, 20);
    let sigs = enumerate_signatures_dp(&chain, 16);
    assert_eq!(sigs.signatures.len(), 1, "a chain has one signature");
    assert!(!sigs.truncated);

    // A single vertex likewise.
    let single = shaped_task(chain_dag(1), 100, 10);
    let sigs = enumerate_signatures_dp(&single, 16);
    assert_eq!(sigs.signatures.len(), 1);

    // A wide fork-join has one *signature* per distinct request profile;
    // resource-free it collapses too, but with a tiny cap the enumerator
    // must stay within the cap rather than exploding.
    let wide = shaped_task(fork_join_dag(1000), 5, 20);
    let sigs = enumerate_signatures_dp_capped(&wide, 4, u64::MAX);
    assert!(sigs.signatures.len() <= 4, "cap must be honored");
}
