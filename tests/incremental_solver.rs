//! Incremental-vs-direct equivalence for the Theorem 1 solver.
//!
//! The table-driven batched kernel (`wcrt_over_signatures_batched`: demand
//! prefix tables, memoized request bounds, one orbit per signature) must be
//! bit-identical to the per-iterate scan reference
//! (`wcrt_over_signatures_direct`) — WCRT values *and* the full
//! `DelayBreakdown`, including the divergent `None` outcome. The sweep
//! covers the task sets the five compared methods evaluate: every method
//! analyses the same generated sets, under both partition shapes
//! Algorithm 1 produces (WFD resource homes for DPCP-p-EP/EN, local
//! execution for SPIN-SON/LPP/FED-FP).

use dpcp_p::core::analysis::wcrt::{
    wcrt_en, wcrt_over_signatures_batched, wcrt_over_signatures_direct,
    wcrt_over_signatures_sweep_direct,
};
use dpcp_p::core::analysis::{AnalysisContext, EvalScratch, SignatureCache};
use dpcp_p::core::partition::{assign_resources, layout_clusters, ResourceHeuristic};
use dpcp_p::core::AnalysisConfig;
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::model::{initial_processors, Partition, Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sweep_scenario() -> Scenario {
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

/// The partitions the five methods analyse for one task set: the
/// WFD-resource-home placement (DPCP-p-EP / DPCP-p-EN) and the
/// local-execution placement (SPIN-SON / LPP / FED-FP).
fn method_partitions(tasks: &TaskSet, platform: &Platform) -> Vec<Partition> {
    let m = platform.processor_count();
    let Some(sizes) = tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<Vec<_>>>()
    else {
        return Vec::new();
    };
    if sizes.iter().sum::<usize>() > m {
        return Vec::new();
    }
    let layout = layout_clusters(&sizes, m).expect("sizes fit the platform");
    let mut parts = Vec::new();
    if let Some(homes) = assign_resources(tasks, &layout, ResourceHeuristic::WorstFitDecreasing) {
        parts.push(
            Partition::new(tasks, platform, layout.clone(), homes).expect("valid WFD partition"),
        );
    }
    parts.push(Partition::local_execution(tasks, platform, layout).expect("valid local partition"));
    parts
}

/// Compares the batched kernel against the direct scan for every task of
/// one `(task set, partition)` pair, feeding the analysis order's evolving
/// `R_j` bounds exactly like `AnalysisSession::analyze`. Returns how many
/// divergent (`None`) task bounds were encountered.
fn assert_equivalent(tasks: &TaskSet, partition: &Partition, label: &str) -> usize {
    let cfg = AnalysisConfig::ep();
    let cache = SignatureCache::new(tasks, &cfg);
    let mut ctx = AnalysisContext::new(tasks, partition);
    let mut scratch = EvalScratch::new();
    let mut divergent = 0usize;
    for i in tasks.by_decreasing_priority() {
        let sigs = cache.signatures(i);
        let batched = wcrt_over_signatures_batched(&ctx, i, sigs, &cfg, &mut scratch);
        let direct = wcrt_over_signatures_direct(&ctx, i, sigs, &cfg);
        assert_eq!(batched, direct, "{label}: EP bound of {i}");

        divergent += usize::from(batched.is_none());
        if let Some(b) = &batched {
            ctx.set_response_bound(i, b.wcrt);
        }
    }
    divergent
}

#[test]
fn seeded_sweep_incremental_equals_direct() {
    let scenario = sweep_scenario();
    let platform = Platform::new(scenario.m).unwrap();
    let mut compared = 0usize;
    let mut divergent = 0usize;
    // Low, contested and overloaded utilizations: the overloaded points
    // produce genuinely divergent recurrences, so the `None` path of the
    // batched kernel is exercised by generated workloads too.
    for (pi, utilization) in [2.0, 5.0, 7.5].into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x51EE_D000 + seed * 131 + pi as u64);
            let Ok(tasks) = scenario.sample_task_set(utilization, &mut rng) else {
                continue;
            };
            for (idx, partition) in method_partitions(&tasks, &platform).iter().enumerate() {
                let label = format!("u={utilization} seed={seed} partition#{idx}");
                divergent += assert_equivalent(&tasks, partition, &label);
                compared += 1;
            }
        }
    }
    assert!(
        compared >= 10,
        "sweep generated too few comparable systems ({compared})"
    );
    assert!(
        divergent >= 1,
        "sweep never exercised the divergent None case"
    );
}

#[test]
fn divergent_system_matches_direct_none() {
    // The guaranteed-divergent fixture: one processor per task, a shared
    // resource loaded far beyond its deadline. Batched and direct must
    // both return `None` for the lower-priority task.
    use dpcp_p::model::{DagTask, ProcessorId, RequestSpec, ResourceId, TaskId, Time, VertexSpec};
    let mk = |id: usize| {
        DagTask::builder(TaskId::new(id), Time::from_ms(1))
            .vertex(VertexSpec::with_requests(
                Time::from_us(900),
                [RequestSpec::new(ResourceId::new(0), 20)],
            ))
            .critical_section(ResourceId::new(0), Time::from_us(40))
            .build()
            .unwrap()
    };
    let tasks = TaskSet::new(vec![mk(0), mk(1)], 1).unwrap();
    let platform = Platform::new(2).unwrap();
    let partition = Partition::new(
        &tasks,
        &platform,
        vec![vec![ProcessorId::new(0)], vec![ProcessorId::new(1)]],
        [(ResourceId::new(0), ProcessorId::new(0))]
            .into_iter()
            .collect(),
    )
    .unwrap();
    let divergent = assert_equivalent(&tasks, &partition, "divergent fixture");
    assert!(divergent >= 1, "the heavy fixture must diverge");
}

#[test]
fn truncated_tasks_report_the_en_bound_with_sweep_equal_verdicts() {
    // The truncated-task skip: when path enumeration hits a cap, the
    // analysis reports the EN fallback directly instead of sweeping the
    // capped signature subset (the EN bound term-wise dominates every
    // per-signature bound, so it decides the max). This sweep pins the
    // skip against the retained sweeping reference
    // (`wcrt_over_signatures_sweep_direct`): identical WCRTs and
    // identical schedulability verdicts, with the `truncated` tag
    // carried on the reported bound.
    use dpcp_p::core::analysis::SignatureCache;
    use dpcp_p::core::AnalysisSession;
    let scenario = sweep_scenario();
    let platform = Platform::new(scenario.m).unwrap();
    // Tight caps force truncation on generated workloads; the unpruned
    // depth-first reference keeps its first `cap` signatures, so the
    // capped subsets are the densest (the hardest case for the skip).
    let cfg = AnalysisConfig {
        path_signature_cap: 8,
        path_visit_cap: 200,
        ..AnalysisConfig::ep()
    };
    let mut truncated_checked = 0usize;
    for (pi, utilization) in [2.0, 5.0, 7.5].into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x7A5C_0000 + seed * 257 + pi as u64);
            let Ok(tasks) = scenario.sample_task_set(utilization, &mut rng) else {
                continue;
            };
            let cache = SignatureCache::new_dfs(&tasks, &cfg);
            for (idx, partition) in method_partitions(&tasks, &platform).iter().enumerate() {
                let label = format!("u={utilization} seed={seed} partition#{idx}");
                // Thread response bounds exactly like the session so the
                // per-task comparison sees the same contexts.
                let report = AnalysisSession::new(cfg.clone())
                    .analyze_with_signatures(&tasks, partition, &cache);
                let mut ctx = dpcp_p::core::analysis::AnalysisContext::new(&tasks, partition);
                for i in tasks.by_decreasing_priority() {
                    let sigs = cache.signatures(i);
                    let sweep = wcrt_over_signatures_sweep_direct(&ctx, i, sigs, &cfg);
                    let bound = report.bound(i);
                    if sigs.truncated {
                        truncated_checked += 1;
                        assert!(bound.truncated, "{label}: missing truncated tag on {i}");
                        assert_eq!(
                            bound.wcrt,
                            sweep.as_ref().map(|b| b.wcrt),
                            "{label}: skip changed the WCRT of {i}"
                        );
                        assert_eq!(
                            bound.schedulable,
                            sweep
                                .as_ref()
                                .is_some_and(|b| b.wcrt <= tasks.task(i).deadline()),
                            "{label}: skip changed the verdict of {i}"
                        );
                        // The reported bound IS the EN fallback's.
                        let en = wcrt_en(&ctx, i, &cfg);
                        assert_eq!(bound.wcrt, en.map(|b| b.wcrt), "{label}: {i} not EN");
                        assert_eq!(bound.signatures_evaluated, 1, "{label}: {i}");
                    } else {
                        // Complete enumerations are untouched by the skip.
                        assert_eq!(bound.wcrt, sweep.map(|b| b.wcrt), "{label}: {i}");
                    }
                    if let Some(w) = bound.wcrt {
                        ctx.set_response_bound(i, w);
                    }
                }
            }
        }
    }
    assert!(
        truncated_checked >= 5,
        "the sweep exercised too few truncated tasks ({truncated_checked})"
    );
}
