//! The signature DP against its depth-first reference.
//!
//! Three claims, each over seeded generated workloads:
//!
//! 1. **Set and bound identity** (caps lifted so nothing truncates) — per
//!    task, the DP's signature list is the depth-first reference's after
//!    `prune_dominated_signatures`, in the enumerators' output order; and
//!    analysing over the unpruned reference (`SignatureCache::new_dfs`)
//!    and over the DP (`SignatureCache::new`) gives reports equal in every
//!    field but `signatures_evaluated`, under both partition shapes
//!    Algorithm 1 produces.
//! 2. **Pruning soundness** (same regime) — every signature the DP drops
//!    from the full set is dominated by one it keeps (same request vector,
//!    no shorter, no less critical content), the sweep drops some, and
//!    each task's binding bound (WCRT and breakdown) and verdict are
//!    unchanged while the evaluation count only shrinks.
//! 3. **Truncated regime** (default caps and one tight cap) — the DP
//!    counts the pruned set against its cap, so it truncates less than
//!    the reference; the two cannot be compared through the analysis
//!    (a higher-priority task truncated on one side only changes the
//!    `R_j` every lower task sees). What holds instead is that a task the
//!    DP leaves untruncated holds exactly the pruned full set.

use dpcp_p::core::analysis::{AnalysisConfig, SchedulabilityReport, SignatureCache};
use dpcp_p::core::partition::{assign_resources, layout_clusters, ResourceHeuristic};
use dpcp_p::core::AnalysisSession;
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::model::{
    enumerate_signatures_capped, initial_processors, prune_dominated_signatures, Partition,
    PathSignature, Platform, TaskSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

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

/// Caps high enough that no sweep workload truncates (the densest observed
/// task has ~39k complete paths): the strict-equivalence regime.
fn lifted_cfg() -> AnalysisConfig {
    AnalysisConfig {
        path_signature_cap: 1 << 17,
        path_visit_cap: u64::MAX,
        ..AnalysisConfig::ep()
    }
}

/// `full` after dominance pruning, in the enumerators' output order:
/// length descending, then request vector, then non-critical length.
fn pruned(full: &[PathSignature]) -> Vec<PathSignature> {
    let mut kept = full.to_vec();
    prune_dominated_signatures(&mut kept);
    kept.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.requests().cmp(b.requests()))
            .then_with(|| a.noncritical_len().cmp(&b.noncritical_len()))
    });
    kept
}

/// The WFD-resource-home and local-execution placements for one task set.
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

fn sweep_task_sets() -> Vec<(String, TaskSet)> {
    let scenario = sweep_scenario();
    let mut out = Vec::new();
    for (pi, utilization) in [2.0, 5.0, 7.5].into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x00D9_0000 + seed * 997 + pi as u64);
            if let Ok(tasks) = scenario.sample_task_set(utilization, &mut rng) {
                out.push((format!("u={utilization} seed={seed}"), tasks));
            }
        }
    }
    out
}

/// `report` with every task's `signatures_evaluated` zeroed: the one
/// field dominance pruning may change.
fn without_evaluation_counts(mut report: SchedulabilityReport) -> SchedulabilityReport {
    for bound in &mut report.task_bounds {
        bound.signatures_evaluated = 0;
    }
    report
}

/// Whether `a` dominates `b` in the sense `prune_dominated_signatures`
/// removes: same request vector, no shorter, no less critical content.
fn dominates(a: &PathSignature, b: &PathSignature) -> bool {
    let critical = |s: &PathSignature| s.len().saturating_sub(s.noncritical_len());
    a.requests() == b.requests() && a.len() >= b.len() && critical(a) >= critical(b)
}

#[test]
fn seeded_sweep_dfs_and_dp_sets_and_bounds_are_identical() {
    let platform = Platform::new(sweep_scenario().m).unwrap();
    let cfg = lifted_cfg();
    let task_sets = sweep_task_sets();
    let mut partitions_compared = 0usize;
    for (label, tasks) in &task_sets {
        let dfs_cache = SignatureCache::new_dfs(tasks, &cfg);
        let dp_cache = SignatureCache::new(tasks, &cfg);
        for t in tasks.iter() {
            let full = dfs_cache.signatures(t.id());
            let dp = dp_cache.signatures(t.id());
            assert!(
                !full.truncated && !dp.truncated,
                "{label}: lifted caps must not truncate (task {})",
                t.id()
            );
            assert_eq!(
                dp.signatures,
                pruned(&full.signatures),
                "{label}: task {}",
                t.id()
            );
        }
        // Whole-analysis identity (PathBounds, breakdowns, Nones, the
        // aggregate flags) under both partition shapes.
        for (idx, partition) in method_partitions(tasks, &platform).iter().enumerate() {
            let mut session = AnalysisSession::new(cfg.clone());
            let via_dfs = session.analyze_with_signatures(tasks, partition, &dfs_cache);
            let via_dp = session.analyze_with_signatures(tasks, partition, &dp_cache);
            assert_eq!(
                without_evaluation_counts(via_dfs),
                without_evaluation_counts(via_dp),
                "{label} partition#{idx}"
            );
            partitions_compared += 1;
        }
    }
    assert!(
        task_sets.len() >= 10 && partitions_compared >= 12,
        "sweep too small: {} task sets, {partitions_compared} partitions",
        task_sets.len()
    );
}

#[test]
fn seeded_sweep_pruning_preserves_binding_bounds_and_verdicts() {
    let platform = Platform::new(sweep_scenario().m).unwrap();
    let cfg = lifted_cfg();
    let mut pruned_away = 0usize;
    for (label, tasks) in sweep_task_sets() {
        let full_cache = SignatureCache::new_dfs(&tasks, &cfg);
        let pruned_cache = SignatureCache::new(&tasks, &cfg);
        for t in tasks.iter() {
            let full = &full_cache.signatures(t.id()).signatures;
            let kept = &pruned_cache.signatures(t.id()).signatures;
            // The kept set is drawn from the full set, and everything it
            // leaves out has a dominator among the kept signatures.
            let in_full: HashSet<&PathSignature> = full.iter().collect();
            let mut kept_by_profile: HashMap<_, Vec<&PathSignature>> = HashMap::new();
            for sig in kept {
                assert!(
                    in_full.contains(sig),
                    "{label}: task {} kept {sig:?}",
                    t.id()
                );
                kept_by_profile.entry(sig.requests()).or_default().push(sig);
            }
            for sig in full {
                let dominators = kept_by_profile.get(sig.requests());
                assert!(
                    dominators.is_some_and(|ks| ks.iter().any(|k| dominates(k, sig))),
                    "{label}: task {} dropped undominated {sig:?}",
                    t.id()
                );
            }
            pruned_away += full.len() - kept.len();
        }
        for (idx, partition) in method_partitions(&tasks, &platform).iter().enumerate() {
            let mut session = AnalysisSession::new(cfg.clone());
            let plain = session.analyze_with_signatures(&tasks, partition, &full_cache);
            let pruned = session.analyze_with_signatures(&tasks, partition, &pruned_cache);
            assert_eq!(plain.schedulable, pruned.schedulable, "{label}#{idx}");
            for (a, b) in plain.task_bounds.iter().zip(&pruned.task_bounds) {
                let task = a.task;
                // The binding PathBound — WCRT and full breakdown — is
                // untouched by pruning; only the evaluation count shrinks.
                assert_eq!(a.wcrt, b.wcrt, "{label}#{idx} task {task}");
                assert_eq!(a.breakdown, b.breakdown, "{label}#{idx} task {task}");
                assert_eq!(a.schedulable, b.schedulable, "{label}#{idx} task {task}");
                assert!(
                    a.signatures_evaluated >= b.signatures_evaluated,
                    "{label}#{idx} task {task}"
                );
            }
        }
    }
    assert!(
        pruned_away > 0,
        "the sweep never exercised dominance pruning"
    );
}

#[test]
fn seeded_sweep_truncated_regime_outcomes_agree() {
    let tight_cfg = AnalysisConfig {
        path_signature_cap: 4,
        ..AnalysisConfig::ep()
    };
    // Per regime (default caps, tight cap): tasks the reference
    // truncates, tasks the DP truncates, DP sets checked complete.
    let mut counts = [[0usize; 3]; 2];
    for (label, tasks) in sweep_task_sets() {
        let regimes = [AnalysisConfig::ep(), tight_cfg.clone()]
            .map(|cfg| (SignatureCache::new(&tasks, &cfg), cfg));
        for t in tasks.iter() {
            let full = enumerate_signatures_capped(t, usize::MAX, u64::MAX);
            assert!(!full.truncated, "{label}: task {}", t.id());
            let expected = pruned(&full.signatures);
            for ((cache, cfg), count) in regimes.iter().zip(&mut counts) {
                let (cap, visits) = (cfg.path_signature_cap, cfg.path_visit_cap);
                count[0] += usize::from(enumerate_signatures_capped(t, cap, visits).truncated);
                let dp = cache.signatures(t.id());
                if dp.truncated {
                    count[1] += 1;
                } else {
                    assert_eq!(
                        dp.signatures,
                        expected,
                        "{label}: cap {cap}, task {}",
                        t.id()
                    );
                    count[2] += 1;
                }
            }
        }
    }
    let [default, tight] = counts;
    assert!(
        default[0] > 0 && tight[1] > 0 && tight[2] > 0,
        "the sweep must truncate the reference at the default caps and the DP \
         at the tight cap, and complete some tasks there: {counts:?}"
    );
}
