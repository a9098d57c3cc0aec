//! Direct checks of claims the paper states, on the paper's own example
//! and on generated workloads.

use dpcp_p::baselines::standard_registry;
use dpcp_p::core::partition::ResourceHeuristic;
use dpcp_p::core::{AnalysisConfig, AnalysisSession};
use dpcp_p::model::{fig1, Platform, Time, VertexId};
use dpcp_p::sim::{simulate, ReleaseModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sec. II: "the longest path of G_i is (v_{i,1}, v_{i,5}, v_{i,7},
/// v_{i,8}), and L*_i = 10".
#[test]
fn fig1_longest_path_is_the_papers() {
    let (ti, _) = fig1::tasks().unwrap();
    assert_eq!(ti.longest_path_len(), fig1::unit() * 10);
    let expected: Vec<VertexId> = [0usize, 4, 6, 7].map(VertexId::new).to_vec();
    assert_eq!(ti.longest_path(), expected.as_slice());
}

/// Sec. III-A: "ℓ1 is a global resource and ℓ2 is a local resource".
#[test]
fn fig1_resource_scopes_match() {
    let ts = fig1::task_set().unwrap();
    assert!(ts.is_global(fig1::GLOBAL_RESOURCE));
    assert!(!ts.is_global(fig1::LOCAL_RESOURCE));
}

/// Lemma 1: "a request can be blocked by lower-priority requests at most
/// once" — checked online by the simulator over many seeds and release
/// patterns.
#[test]
fn lemma1_holds_at_runtime() {
    let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
    for seed in 0..15u64 {
        for release in [
            ReleaseModel::Periodic,
            ReleaseModel::Sporadic { jitter: 0.4 },
        ] {
            let result = simulate(
                &tasks,
                &partition,
                &SimConfig {
                    duration: fig1::unit() * 900,
                    seed,
                    release,
                    ..SimConfig::default()
                },
            );
            assert_eq!(
                result.lemma1_violations, 0,
                "seed {seed}, release {release:?}"
            );
        }
    }
}

/// Lemma 1 on generated contended workloads (not just the toy example).
#[test]
fn lemma1_holds_on_generated_contention() {
    use dpcp_p::core::partition::PartitionOutcome;
    let scenario = dpcp_p::gen::scenario::Scenario {
        m: 8,
        nr_range: (2, 3),
        u_avg: 2.0,
        access_prob: 1.0,
        max_requests: 25,
        cs_range_us: (50, 100),
        graph_shape: dpcp_p::gen::GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    };
    let platform = Platform::new(8).unwrap();
    let mut simulated = 0;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(tasks) = scenario.sample_task_set(4.0, &mut rng) else {
            continue;
        };
        let outcome = AnalysisSession::new(AnalysisConfig::en()).partition_and_analyze(
            &tasks,
            &platform,
            ResourceHeuristic::WorstFitDecreasing,
        );
        let PartitionOutcome::Schedulable { partition, .. } = outcome else {
            continue;
        };
        let result = simulate(
            &tasks,
            &partition,
            &SimConfig {
                duration: Time::from_s(1),
                seed,
                ..SimConfig::default()
            },
        );
        assert_eq!(result.lemma1_violations, 0, "seed {seed}");
        simulated += 1;
        if simulated >= 8 {
            break;
        }
    }
    assert!(
        simulated >= 3,
        "not enough schedulable contended systems simulated"
    );
}

/// Sec. VII / Table 2 first row: DPCP-p-EP never loses to DPCP-p-EN.
#[test]
fn ep_accepts_whenever_en_accepts() {
    let scenario = dpcp_p::gen::scenario::Scenario {
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
    };
    let platform = Platform::new(8).unwrap();
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(tasks) = scenario.sample_task_set(4.5, &mut rng) else {
            continue;
        };
        let wfd = ResourceHeuristic::WorstFitDecreasing;
        let en_ok = AnalysisSession::new(AnalysisConfig::en())
            .partition_and_analyze(&tasks, &platform, wfd)
            .is_schedulable();
        let ep_ok = AnalysisSession::new(AnalysisConfig::ep())
            .partition_and_analyze(&tasks, &platform, wfd)
            .is_schedulable();
        assert!(!en_ok || ep_ok, "seed {seed}: EN accepted, EP rejected");
    }
}

/// The hypothetical FED-FP baseline ignores resources, so with all
/// resource usage stripped every method collapses onto it.
#[test]
fn without_resources_all_methods_agree_with_fed_fp() {
    use dpcp_p::model::{DagTask, TaskId, TaskSet, VertexSpec};
    // Strip Fig. 1's requests: plain DAG tasks.
    let (ti, tj) = fig1::tasks().unwrap();
    let strip = |t: &DagTask, id: usize| {
        let mut b = DagTask::builder(TaskId::new(id), t.period()).dag(t.dag().clone());
        for v in t.dag().vertices() {
            b = b.vertex(VertexSpec::new(t.vertex(v).wcet()));
        }
        b.build().unwrap()
    };
    let tasks = TaskSet::new(vec![strip(&ti, 0), strip(&tj, 1)], 0).unwrap();
    let platform = Platform::new(4).unwrap();
    let wfd = ResourceHeuristic::WorstFitDecreasing;
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    let verdicts: Vec<bool> = standard_registry()
        .iter()
        .map(|protocol| {
            session
                .run(protocol, &tasks, &platform, wfd)
                .is_schedulable()
        })
        .collect();
    assert!(
        verdicts.iter().all(|&v| v),
        "resource-free Fig. 1 must be schedulable everywhere: {verdicts:?}"
    );
}

/// The qualitative Fig. 2 trend: under heavy contention DPCP-p-EP accepts
/// at least as many task sets as the local-execution baselines.
#[test]
fn dpcp_ep_is_at_least_as_good_under_heavy_contention() {
    let scenario = dpcp_p::gen::scenario::Scenario {
        m: 8,
        nr_range: (4, 8),
        u_avg: 1.5,
        access_prob: 1.0,
        max_requests: 50,
        cs_range_us: (50, 100),
        graph_shape: dpcp_p::gen::GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    };
    let platform = Platform::new(8).unwrap();
    let wfd = ResourceHeuristic::WorstFitDecreasing;
    let mut counts = [0usize; 3]; // EP, SPIN, LPP
    let mut valid = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let Ok(tasks) = scenario.sample_task_set(3.5, &mut rng) else {
            continue;
        };
        valid += 1;
        let registry = standard_registry();
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        for (slot, name) in [(0usize, "DPCP-p-EP"), (1, "SPIN-SON"), (2, "LPP")] {
            let protocol = registry.resolve(name).expect("registered");
            if session
                .run(protocol, &tasks, &platform, wfd)
                .is_schedulable()
            {
                counts[slot] += 1;
            }
        }
    }
    assert!(valid >= 20, "generator failed too often ({valid} valid)");
    // Spinning wastes cycles under heavy contention: EP must clearly beat
    // SPIN-SON (the paper's headline trend). LPP here is a re-derivation
    // in Theorem 1's response-time framework (`dpcp_baselines::Baseline`),
    // not the original analysis, so EP is only required to stay within a
    // 10% band of it rather than strictly above.
    assert!(
        counts[0] > counts[1],
        "EP={} must beat SPIN={} under heavy contention",
        counts[0],
        counts[1]
    );
    assert!(
        counts[0] * 10 + valid >= counts[2] * 10,
        "EP={} fell more than 10% behind LPP={} over {valid} sets",
        counts[0],
        counts[2]
    );
}
