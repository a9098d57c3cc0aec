//! Direct-session suite for the `AnalysisSession` / protocol-registry
//! API: registry dispatch through one shared session must reproduce a
//! hand-wired per-method pipeline on fresh sessions bit-identically —
//! `PartitionOutcome`s (partitions, reports, rounds) and acceptance
//! counts alike — for all five methods, on purely heavy sets and on
//! heavy/light sets (where DPCP-p pools the light tasks and the
//! baselines give them exclusive clusters). The suite also pins the wire
//! layer: `ProtocolRegistry::respond` agrees with direct dispatch for
//! every method.

use dpcp_p::baselines::{standard_registry, Baseline};
use dpcp_p::core::analysis::AnalysisConfig;
use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisRequest, AnalysisSession, SchedAnalyzer};
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const METHODS: [&str; 5] = ["DPCP-p-EP", "DPCP-p-EN", "SPIN-SON", "LPP", "FED-FP"];

fn scenario(light_fraction: f64) -> Scenario {
    Scenario {
        m: 8,
        nr_range: (2, 4),
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: 25,
        cs_range_us: (15, 50),
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    }
}

/// The reference dispatch: a fresh session per call, hand-wired per
/// method. For task sets with light tasks the DPCP methods pool them
/// (`partition_and_analyze_mixed`); baselines run `partition_with`, whose
/// loop their local-execution placement lays out.
fn reference_outcome(
    method: &str,
    tasks: &TaskSet,
    platform: &Platform,
    heuristic: ResourceHeuristic,
) -> PartitionOutcome {
    let has_lights = tasks.iter().any(|t| !t.is_heavy());
    match method {
        "DPCP-p-EP" | "DPCP-p-EN" => {
            let cfg = if method == "DPCP-p-EP" {
                AnalysisConfig::ep()
            } else {
                AnalysisConfig::en()
            };
            let mut session = AnalysisSession::new(cfg);
            if has_lights {
                session.partition_and_analyze_mixed(tasks, platform, heuristic)
            } else {
                session.partition_and_analyze(tasks, platform, heuristic)
            }
        }
        "SPIN-SON" => AnalysisSession::new(AnalysisConfig::ep()).partition_with(
            tasks,
            platform,
            heuristic,
            &Baseline::SpinSon,
        ),
        "LPP" => AnalysisSession::new(AnalysisConfig::ep()).partition_with(
            tasks,
            platform,
            heuristic,
            &Baseline::Lpp,
        ),
        "FED-FP" => AnalysisSession::new(AnalysisConfig::ep()).partition_with(
            tasks,
            platform,
            heuristic,
            &Baseline::FedFp,
        ),
        other => panic!("unknown method {other}"),
    }
}

/// Seeded sweep: every generated task set, every method, registry
/// dispatch through one shared session vs fresh-session reference
/// pipelines — outcomes must be equal (partition, per-task report and
/// round count included).
fn assert_dispatch_equivalence(light_fraction: f64, heuristic: ResourceHeuristic) {
    let scenario = scenario(light_fraction);
    let platform = Platform::new(scenario.m).unwrap();
    let registry = standard_registry();
    let mut generated = 0usize;
    for seed in 0..12u64 {
        for utilization in [2.5, 4.0, 5.5] {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000) + utilization as u64);
            let Ok(tasks) = scenario.sample_task_set(utilization, &mut rng) else {
                continue;
            };
            generated += 1;
            if light_fraction > 0.0 {
                assert!(
                    tasks.iter().any(|t| !t.is_heavy()),
                    "seed {seed}: light_fraction > 0 must produce light tasks"
                );
            }
            // One session shared across all five methods, exactly like
            // the harness uses it.
            let mut session = AnalysisSession::new(AnalysisConfig::ep());
            for method in METHODS {
                let protocol = registry.resolve(method).expect("registered");
                let via_registry = session.run(protocol, &tasks, &platform, heuristic);
                let via_reference = reference_outcome(method, &tasks, &platform, heuristic);
                assert_eq!(
                    via_registry, via_reference,
                    "seed {seed}, U {utilization}, {method}: registry dispatch diverged"
                );
            }
        }
    }
    assert!(generated >= 15, "only {generated} task sets generated");
}

#[test]
fn registry_dispatch_matches_fresh_sessions_heavy_sets() {
    assert_dispatch_equivalence(0.0, ResourceHeuristic::WorstFitDecreasing);
}

#[test]
fn registry_dispatch_matches_fresh_sessions_mixed_sets() {
    assert_dispatch_equivalence(0.4, ResourceHeuristic::WorstFitDecreasing);
}

#[test]
fn registry_dispatch_matches_fresh_sessions_under_ffd_placement() {
    assert_dispatch_equivalence(0.0, ResourceHeuristic::FirstFitDecreasing);
}

/// Acceptance counts over a small utilization sweep: the per-method
/// accept totals of the shared-session registry path equal the
/// fresh-session path's, point for point (the curve-level equivalence
/// the fig2/tables goldens also pin at full scale).
#[test]
fn acceptance_counts_match_point_for_point() {
    for light_fraction in [0.0, 0.3] {
        let scenario = scenario(light_fraction);
        let platform = Platform::new(scenario.m).unwrap();
        let registry = standard_registry();
        let heuristic = ResourceHeuristic::WorstFitDecreasing;
        for (point, utilization) in [2.0, 4.0, 6.0].into_iter().enumerate() {
            let mut accepted_shared = [0usize; 5];
            let mut accepted_fresh = [0usize; 5];
            for sample in 0..6u64 {
                let seed = (point as u64) << 32 | sample;
                let mut rng = StdRng::seed_from_u64(seed);
                let Ok(tasks) = scenario.sample_task_set(utilization, &mut rng) else {
                    continue;
                };
                let mut session = AnalysisSession::new(AnalysisConfig::ep());
                for (slot, method) in METHODS.iter().enumerate() {
                    let protocol = registry.resolve(method).expect("registered");
                    if session
                        .run(protocol, &tasks, &platform, heuristic)
                        .is_schedulable()
                    {
                        accepted_shared[slot] += 1;
                    }
                    if reference_outcome(method, &tasks, &platform, heuristic).is_schedulable() {
                        accepted_fresh[slot] += 1;
                    }
                }
            }
            assert_eq!(
                accepted_shared, accepted_fresh,
                "lf {light_fraction}, point {point}: acceptance counts diverged"
            );
        }
    }
}

/// The wire layer agrees with direct dispatch: for every method,
/// `ProtocolRegistry::respond` on an `AnalysisRequest` reports the same
/// admission decision, bounds and rounds as `AnalysisSession::run`, and
/// stamps the request's structural key; `respond_keyed` given that key
/// answers byte for byte as `respond` does.
#[test]
fn respond_matches_direct_dispatch() {
    let scenario = scenario(0.3);
    let platform = Platform::new(scenario.m).unwrap();
    let registry = standard_registry();
    let heuristic = ResourceHeuristic::WorstFitDecreasing;
    let mut rng = StdRng::seed_from_u64(11);
    let tasks = scenario
        .sample_task_set(3.0, &mut rng)
        .expect("seed 11 generates");
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    for method in METHODS {
        let protocol = registry.resolve(method).expect("registered");
        let outcome = session.run(protocol, &tasks, &platform, heuristic);
        let request = AnalysisRequest {
            schema: None,
            protocol: method.to_string(),
            tasks: tasks.clone(),
            platform,
            config: AnalysisConfig::ep(),
            heuristic,
        };
        let verdict = registry
            .respond(&mut session, &request)
            .expect("known protocol");
        assert_eq!(verdict.protocol, method);
        assert_eq!(verdict.schedulable, outcome.is_schedulable(), "{method}");
        match &outcome {
            PartitionOutcome::Schedulable { report, rounds, .. } => {
                assert_eq!(verdict.task_bounds, report.task_bounds, "{method}");
                assert_eq!(verdict.truncated, report.truncated, "{method}");
                assert_eq!(verdict.rounds, *rounds, "{method}");
                assert_eq!(verdict.reason, None, "{method}");
            }
            PartitionOutcome::Unschedulable { reason, rounds } => {
                assert!(verdict.task_bounds.is_empty(), "{method}");
                assert_eq!(verdict.rounds, *rounds, "{method}");
                assert_eq!(verdict.reason.as_ref(), Some(reason), "{method}");
            }
        }
        assert_eq!(
            verdict.cache_key,
            format!("{:016x}", request.structural_key()),
            "{method}"
        );
    }
    // A caller holding the key gets the same bytes from `respond_keyed`,
    // for every registered protocol.
    for name in registry.names() {
        let request = AnalysisRequest {
            schema: None,
            protocol: name.to_string(),
            tasks: tasks.clone(),
            platform,
            config: AnalysisConfig::ep(),
            heuristic,
        };
        let plain = registry.respond(&mut session, &request).expect(name);
        let keyed = registry
            .respond_keyed(&mut session, &request, request.structural_key())
            .expect(name);
        assert_eq!(
            serde_json::to_string(&keyed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "{name}"
        );
    }
    assert_eq!(registry.len(), 9);
    let unknown = AnalysisRequest {
        schema: None,
        protocol: "NO-SUCH-PROTOCOL".to_string(),
        tasks,
        platform,
        config: AnalysisConfig::ep(),
        heuristic,
    };
    assert!(registry.respond(&mut session, &unknown).is_err());
}

/// `SchedAnalyzer` stays the low-level hook: a shared-session baseline
/// loop equals fresh-session loops for every baseline analyzer.
#[test]
fn partition_with_matches_fresh_session_loop() {
    let scenario = scenario(0.0);
    let platform = Platform::new(scenario.m).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let tasks = scenario
        .sample_task_set(4.0, &mut rng)
        .expect("seed 5 generates");
    let wfd = ResourceHeuristic::WorstFitDecreasing;
    let analyzers: [(&str, &dyn SchedAnalyzer); 3] = [
        ("SPIN-SON", &Baseline::SpinSon),
        ("LPP", &Baseline::Lpp),
        ("FED-FP", &Baseline::FedFp),
    ];
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    for (name, analyzer) in analyzers {
        let via_shared = session.partition_with(&tasks, &platform, wfd, analyzer);
        let via_fresh = AnalysisSession::new(AnalysisConfig::ep())
            .partition_with(&tasks, &platform, wfd, analyzer);
        assert_eq!(via_shared, via_fresh, "{name}");
    }
}
