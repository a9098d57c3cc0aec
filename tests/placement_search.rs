//! Placement-search integration tests: the determinism, never-worse-than-seed
//! and screen-soundness contracts of `DPCP-p-EP/SEARCH`.
//!
//! Identical `(seed, budget)` must produce byte-identical campaign
//! artifacts at any rayon pool width, across shard splits and across
//! resume. On every sample the search outcome must be at least as good as
//! the best of the three bin-packing heuristic seeds (WFD/FFD/BFD). And
//! the placement-free screen that lets the search skip its probe loop must
//! never name a task, or give a task a width floor, that some placement
//! of the move space could undercut and still pass.

use std::path::PathBuf;

use dpcp_experiments::campaign::{merge_dir, merged_csv, run_shard, ShardSpec};
use dpcp_experiments::manifest::{AblationSpec, AxisSpec, CampaignManifest};
use dpcp_experiments::Method;
use dpcp_p::core::analysis::cluster_width_floors;
use dpcp_p::core::partition::{layout_clusters, PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisConfig, AnalysisSession};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{Partition, Platform, ProcessorId, TaskId, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpcp_search_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn search_scenario(graph_shape: GraphShape, light_fraction: f64) -> Scenario {
    Scenario {
        m: 8,
        nr_range: (2, 4),
        u_avg: 1.5,
        access_prob: 0.5,
        max_requests: 25,
        cs_range_us: (15, 50),
        graph_shape,
        light_fraction,
        vertex_range: Some((5, 20)),
        cs_budget_fraction: None,
        rw_share: None,
    }
}

/// A search-only campaign: one scenario × two budget ablations, so the
/// manifest exercises the search on/off × budget axis end to end.
fn search_manifest() -> CampaignManifest {
    let budget_cell = |label: &str, budget: usize| AblationSpec {
        label: label.to_string(),
        methods: None,
        heuristic: None,
        path_signature_cap: None,
        path_visit_cap: None,
        search_budget: Some(budget),
    };
    CampaignManifest {
        name: "searchtest".to_string(),
        seed: 41,
        samples_per_point: 2,
        generation_retries: None,
        methods: vec![Method::DpcpEp, Method::DpcpEpSearch],
        axes: AxisSpec::single(&search_scenario(GraphShape::ErdosRenyi, 0.0)),
        normalized_utilization: Some(vec![0.4, 0.7]),
        ablations: Some(vec![budget_cell("b16", 16), budget_cell("b64", 64)]),
        quick: None,
        extra: None,
    }
}

#[test]
fn search_campaigns_are_bit_identical_across_pool_widths_splits_and_resume() {
    let manifest = search_manifest();
    let cells = manifest.cells(false);
    assert_eq!(cells.len(), 2);

    // Pool-width sweep: the checkpoint *bytes* must not depend on the
    // rayon pool evaluating the cells.
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let dir = test_dir(&format!("pool{threads}"));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let stats = pool
            .install(|| run_shard(&manifest, &cells, ShardSpec::single(), &dir, |_, _| {}))
            .unwrap();
        assert_eq!(stats.evaluated, cells.len(), "width {threads}");
        let bytes = std::fs::read_to_string(ShardSpec::single().path(&dir)).unwrap();
        runs.push((dir, bytes));
    }
    assert_eq!(
        runs[0].1, runs[1].1,
        "pool width changed search checkpoint bytes"
    );
    let single = merge_dir(&manifest, &cells, &runs[0].0).unwrap();
    let single_csv = merged_csv(&single.results);

    // Shard split: 0/2 + 1/2 + merge ≡ the single-shot run.
    let split_dir = test_dir("split");
    for index in 0..2 {
        let shard = ShardSpec { index, of: 2 };
        run_shard(&manifest, &cells, shard, &split_dir, |_, _| {}).unwrap();
    }
    let split = merge_dir(&manifest, &cells, &split_dir).unwrap();
    assert_eq!(split, single, "shard split changed search cell results");
    assert_eq!(
        merged_csv(&split.results),
        single_csv,
        "shard split changed merged search CSV bytes"
    );

    // Resume on a complete checkpoint re-evaluates nothing and leaves
    // the bytes untouched.
    let before = std::fs::read_to_string(ShardSpec::single().path(&runs[0].0)).unwrap();
    let stats = run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &runs[0].0,
        |_, _| {},
    )
    .unwrap();
    assert_eq!((stats.resumed, stats.evaluated), (cells.len(), 0));
    let after = std::fs::read_to_string(ShardSpec::single().path(&runs[0].0)).unwrap();
    assert_eq!(before, after, "resume mutated a search checkpoint");

    for (dir, _) in runs {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&split_dir);
}

#[test]
fn search_never_loses_to_the_best_heuristic_seed() {
    // Property sweep over the four DAG shapes: wherever any of the three
    // bin-packing heuristics accepts a sample, the search wrapper must
    // accept it too (its seed loop evaluates all three before probing),
    // and when the requested heuristic already accepts, the search
    // returns that seed outcome verbatim. Chains have L* = C, so heavy
    // chain tasks (U > 1) are infeasible — that shape runs all-light.
    let shapes = [
        (GraphShape::ErdosRenyi, 0.0),
        (GraphShape::Layered { layers: 3 }, 0.0),
        (GraphShape::ForkJoin, 0.0),
        (GraphShape::Chain, 1.0),
    ];
    let heuristics = [
        ResourceHeuristic::WorstFitDecreasing,
        ResourceHeuristic::FirstFitDecreasing,
        ResourceHeuristic::BestFitDecreasing,
    ];
    let registry = dpcp_experiments::standard_registry();
    let search = registry.resolve("DPCP-p-EP/SEARCH").expect("registered");
    let ep = registry.resolve("DPCP-p-EP").expect("registered");
    let search_cfg = AnalysisConfig {
        search_probe_budget: Some(48),
        ..AnalysisConfig::ep()
    };
    let mut checked = 0usize;
    let mut heuristic_accepts = 0usize;
    for (shape_idx, &(shape, light_fraction)) in shapes.iter().enumerate() {
        let scenario = search_scenario(shape, light_fraction);
        let platform = Platform::new(scenario.m).unwrap();
        for seed in 0..6u64 {
            for &total_util in &[3.0, 5.0] {
                let mut rng =
                    StdRng::seed_from_u64(0x5EA2_C000 + seed * 31 + shape_idx as u64 * 1009);
                let Ok(tasks) = scenario.sample_task_set(total_util, &mut rng) else {
                    continue;
                };
                let tag = format!("shape {shape_idx} seed {seed} u {total_util}");
                let seeds: Vec<PartitionOutcome> = heuristics
                    .iter()
                    .map(|&h| {
                        AnalysisSession::new(AnalysisConfig::ep()).run(ep, &tasks, &platform, h)
                    })
                    .collect();
                let outcome = AnalysisSession::new(search_cfg.clone()).run(
                    search,
                    &tasks,
                    &platform,
                    ResourceHeuristic::WorstFitDecreasing,
                );
                if seeds.iter().any(PartitionOutcome::is_schedulable) {
                    heuristic_accepts += 1;
                    assert!(
                        outcome.is_schedulable(),
                        "{tag}: search lost to a heuristic seed"
                    );
                }
                if seeds[0].is_schedulable() {
                    assert_eq!(
                        outcome, seeds[0],
                        "{tag}: schedulable requested-heuristic seed not returned verbatim"
                    );
                }
                // Determinism: a fresh session reproduces the outcome
                // bit-for-bit.
                let again = AnalysisSession::new(search_cfg.clone()).run(
                    search,
                    &tasks,
                    &platform,
                    ResourceHeuristic::WorstFitDecreasing,
                );
                assert_eq!(outcome, again, "{tag}: search outcome not deterministic");
                checked += 1;
            }
        }
    }
    assert!(checked >= 24, "too few samples checked ({checked})");
    assert!(
        heuristic_accepts >= 8,
        "too few heuristic-schedulable samples ({heuristic_accepts})"
    );
}

/// The `ci/search_smoke.json` scenario (m = 8).
fn search_smoke_scenario() -> Scenario {
    Scenario {
        m: 8,
        nr_range: (3, 6),
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: 40,
        cs_range_us: (50, 100),
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    }
}

/// Heavy-only, write-only draws of `scenario` at ten points
/// `U/m ∈ {lowest, lowest + 0.05, …, lowest + 0.45}` × 15 seeds, as
/// `(point, seed, set)`.
fn screen_sweep(scenario: &Scenario, stream: u64, lowest: f64) -> Vec<(usize, u64, TaskSet)> {
    let mut sets = Vec::new();
    for point in 0..10usize {
        let total_util = scenario.m as f64 * (lowest + 0.05 * point as f64);
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(
                0x5C2E_E000_0000 + (stream << 24) + ((point as u64) << 8) + seed,
            );
            let Ok(tasks) = scenario.sample_task_set(total_util, &mut rng) else {
                continue;
            };
            if tasks.len() <= scenario.m && !tasks.has_reads() && tasks.iter().all(|t| t.is_heavy())
            {
                sets.push((point, seed, tasks));
            }
        }
    }
    sets
}

/// A random placement of the search's move space: every task keeps at
/// least one processor, a random share of the spare processors goes to
/// the tasks (half of them to `favoured`), and every global resource is
/// homed on a random cluster processor.
fn random_placement(
    tasks: &TaskSet,
    platform: &Platform,
    favoured: TaskId,
    rng: &mut StdRng,
) -> Partition {
    let n = tasks.len();
    let m = platform.processor_count();
    let mut sizes = vec![1usize; n];
    for _ in 0..rng.gen_range(0..=m - n) {
        let to = if rng.gen_bool(0.5) {
            favoured.index()
        } else {
            rng.gen_range(0..n)
        };
        sizes[to] += 1;
    }
    let layout = layout_clusters(&sizes, m).expect("sizes fit");
    let assigned: Vec<ProcessorId> = layout.iter().flatten().copied().collect();
    let homes = tasks
        .global_resources()
        .map(|q| (q, assigned[rng.gen_range(0..assigned.len())]))
        .collect();
    Partition::new(tasks, platform, layout, homes).expect("valid placement")
}

#[test]
fn tasks_below_their_width_floors_fail_under_sampled_placements() {
    // Every sampled placement of the move space must leave each task whose
    // cluster is narrower than its width floor unschedulable, and a task
    // the screen names unschedulable on any cluster, under both the EP and
    // the EN analysis. Sets the screen rejects (a named task, or floors
    // summing past m) get 40 placements each; the floor lemma holds for
    // every set, so the others get 10.
    let max_iters = AnalysisConfig::ep().max_fixpoint_iterations;
    // The fig2 panels from U/m = 0.10, where the screen starts to fire;
    // the search-smoke scenario over its own grid, from 0.35.
    let mut scenarios: Vec<(Scenario, f64)> = Fig2Panel::all()
        .into_iter()
        .map(|panel| (Scenario::fig2(panel), 0.10))
        .collect();
    scenarios.push((search_smoke_scenario(), 0.35));
    let mut sets = Vec::new();
    for (stream, (scenario, lowest)) in scenarios.iter().enumerate() {
        for (point, seed, tasks) in screen_sweep(scenario, stream as u64, *lowest) {
            let floors = cluster_width_floors(&tasks, scenario.m, max_iters);
            sets.push((stream, point, seed, scenario.m, tasks, floors));
        }
    }
    let named = sets.iter().filter(|set| set.5.is_err()).count();
    let joint = sets
        .iter()
        .filter(|(.., m, _, floors)| floors.as_ref().is_ok_and(|f| f.iter().sum::<usize>() > *m))
        .count();
    // Placements are drawn per set from a seed of its coordinates, so the
    // parallel check is deterministic.
    let tallies: Vec<(usize, usize, Vec<String>)> = sets
        .par_iter()
        .map(|(stream, point, seed, m, tasks, floors)| {
            let platform = Platform::new(*m).unwrap();
            let mut rng = StdRng::seed_from_u64(
                0x91AC_0000_0000 + ((*stream as u64) << 24) + ((*point as u64) << 8) + seed,
            );
            let n = tasks.len();
            let (named, floors) = match floors {
                Err(named) => (Some(*named), vec![1; n]),
                Ok(floors) => (None, floors.clone()),
            };
            let rejected = named.is_some() || floors.iter().sum::<usize>() > *m;
            let draws = if rejected { 40 } else { 10 };
            let mut ep = AnalysisSession::new(AnalysisConfig::ep());
            let mut en = AnalysisSession::new(AnalysisConfig::en());
            let (mut checks, mut violations) = (0, Vec::new());
            for draw in 0..draws {
                let favoured = named.unwrap_or(TaskId::new(draw % n));
                let partition = random_placement(tasks, &platform, favoured, &mut rng);
                let doomed: Vec<TaskId> = tasks
                    .iter()
                    .map(|t| t.id())
                    .filter(|&i| Some(i) == named || partition.cluster_size(i) < floors[i.index()])
                    .collect();
                for session in [&mut ep, &mut en] {
                    let report = session.analyze(tasks, &partition);
                    for &i in &doomed {
                        checks += 1;
                        if report.bound(i).schedulable {
                            violations.push(format!(
                                "scenario {stream} point {point} seed {seed} draw {draw}: \
                                 {i:?} on {} processors (floor {}, named {named:?}) \
                                 schedulable under {:?}",
                                partition.cluster_size(i),
                                floors[i.index()],
                                session.config().variant
                            ));
                        }
                    }
                }
            }
            (draws, checks, violations)
        })
        .collect();
    let placements: usize = tallies.iter().map(|t| t.0).sum();
    let checks: usize = tallies.iter().map(|t| t.1).sum();
    let violations: Vec<&String> = tallies.iter().flat_map(|t| &t.2).collect();
    eprintln!(
        "width-floor sweep: {} sets, {named} named, {joint} jointly screened, \
         {placements} placements, {checks} checks, {} violations",
        sets.len(),
        violations.len()
    );
    assert!(
        violations.is_empty(),
        "{} tasks below their width floor are schedulable; first: {:?}",
        violations.len(),
        &violations[..violations.len().min(5)]
    );
    assert!(
        sets.len() >= 500,
        "too few heavy-only sets ({})",
        sets.len()
    );
    assert!(named >= 100, "too few named sets ({named})");
    assert!(joint >= 30, "too few jointly screened sets ({joint})");
}

/// The `(point, seed)` draws of the search-smoke sweep (stream 4, from
/// `U/m = 0.35`) that the search lifts at its default budget: every
/// heuristic seed fails and a probe finds a schedulable placement.
/// Recorded from the search before the placement-free bound existed, so a
/// bound that screened a liftable set would drop an entry.
const LIFTED: &[(usize, u64)] = &[(1, 13), (3, 2), (5, 7)];

#[test]
fn the_bound_screens_no_set_the_search_lifts() {
    let heuristics = [
        ResourceHeuristic::WorstFitDecreasing,
        ResourceHeuristic::FirstFitDecreasing,
        ResourceHeuristic::BestFitDecreasing,
    ];
    let registry = dpcp_experiments::standard_registry();
    let search = registry.resolve("DPCP-p-EP/SEARCH").expect("registered");
    let ep = registry.resolve("DPCP-p-EP").expect("registered");
    let max_iters = AnalysisConfig::ep().max_fixpoint_iterations;
    let scenario = search_smoke_scenario();
    let platform = Platform::new(scenario.m).unwrap();
    let mut lifted = Vec::new();
    for (point, seed, tasks) in screen_sweep(&scenario, 4, 0.35) {
        let outcome = AnalysisSession::new(AnalysisConfig::ep()).run(
            search,
            &tasks,
            &platform,
            ResourceHeuristic::WorstFitDecreasing,
        );
        if !outcome.is_schedulable() {
            continue;
        }
        // A schedulable placement exists, so the screen must name no task,
        // and the width floors must fit on the platform together.
        let floors = cluster_width_floors(&tasks, scenario.m, max_iters);
        assert!(
            floors
                .as_ref()
                .is_ok_and(|f| f.iter().sum::<usize>() <= scenario.m),
            "point {point} seed {seed}: the screen rejects a schedulable set ({floors:?})"
        );
        let seeds_fail = heuristics.iter().all(|&h| {
            !AnalysisSession::new(AnalysisConfig::ep())
                .run(ep, &tasks, &platform, h)
                .is_schedulable()
        });
        if seeds_fail {
            lifted.push((point, seed));
        }
    }
    assert_eq!(lifted, LIFTED, "the search lifts a different set of draws");
}
