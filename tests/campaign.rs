//! Campaign-engine integration tests: shard determinism, resumability,
//! legacy-wrapper byte-identity, and a simulation-vs-analysis soundness
//! smoke.
//!
//! The determinism claims mirror the acceptance criteria of the campaign
//! subsystem: `--shard 0/2 + --shard 1/2 + merge` must produce
//! byte-identical final CSVs to a single-shot single-shard run, resuming
//! an interrupted shard must change nothing, and the legacy binaries'
//! library paths must reproduce the pre-campaign per-scenario loop
//! (`evaluate_curve`) byte-for-byte.

use std::path::PathBuf;

use dpcp_experiments::campaign::{merge_dir, merged_csv, run_cells, run_shard, ShardSpec};
use dpcp_experiments::manifest::{
    ablation_manifest, fig2_panel_manifest, tables_manifest, AblationSpec, AxisSpec,
    CampaignManifest,
};
use dpcp_experiments::{evaluate_curve, EvalConfig, Method};
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::gen::GraphShape;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpcp_campaign_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_scenario() -> Scenario {
    Scenario {
        m: 8,
        nr_range: (2, 4),
        u_avg: 1.5,
        access_prob: 0.5,
        max_requests: 25,
        cs_range_us: (15, 50),
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    }
}

/// A four-cell campaign small enough for debug-mode CI: two scenarios
/// (heavy-only and a 30% light mix) × two ablations, two utilization
/// points, two samples.
fn tiny_manifest() -> CampaignManifest {
    let mut axes = AxisSpec::single(&tiny_scenario());
    axes.light_fraction = Some(vec![0.0, 0.3]);
    CampaignManifest {
        name: "tinytest".to_string(),
        seed: 41,
        samples_per_point: 2,
        generation_retries: None,
        methods: Method::ALL.to_vec(),
        axes,
        normalized_utilization: Some(vec![0.3, 0.6]),
        ablations: Some(vec![
            AblationSpec::default_cell(),
            AblationSpec {
                label: "capped".to_string(),
                path_signature_cap: Some(16),
                ..AblationSpec::default_cell()
            },
        ]),
        quick: None,
        extra: None,
    }
}

#[test]
fn shard_split_and_resume_are_bit_identical() {
    let manifest = tiny_manifest();
    let cells = manifest.cells(false);
    assert_eq!(cells.len(), 4);

    // Reference: single-shot, single shard.
    let single_dir = test_dir("single");
    run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &single_dir,
        |_, _| {},
    )
    .unwrap();
    let single = merge_dir(&manifest, &cells, &single_dir).unwrap();
    let single_csv = merged_csv(&single.results);

    // Two shards, merged.
    let split_dir = test_dir("split");
    for index in 0..2 {
        let shard = ShardSpec { index, of: 2 };
        let stats = run_shard(&manifest, &cells, shard, &split_dir, |_, _| {}).unwrap();
        assert_eq!(stats.owned, 2);
        assert_eq!(stats.evaluated, 2);
    }
    let split = merge_dir(&manifest, &cells, &split_dir).unwrap();
    assert_eq!(split, single, "shard split changed cell results");
    assert_eq!(
        merged_csv(&split.results),
        single_csv,
        "shard split changed merged CSV bytes"
    );

    // Kill-and-resume: truncate the single-shard checkpoint after its
    // header + first cell, leaving a torn tail line (the shape an
    // interrupted writer produces), then rerun the shard.
    let resume_dir = test_dir("resume");
    run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &resume_dir,
        |_, _| {},
    )
    .unwrap();
    let path = ShardSpec::single().path(&resume_dir);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut kept: Vec<&str> = text.lines().take(2).collect();
    assert_eq!(kept.len(), 2, "checkpoint shorter than header + one cell");
    let torn = r#"{"header":null,"cell":{"index":2,"scenario"#;
    kept.push(torn);
    std::fs::write(&path, kept.join("\n")).unwrap(); // no trailing newline
    let stats = run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &resume_dir,
        |_, _| {},
    )
    .unwrap();
    assert_eq!(stats.resumed, 1, "exactly the intact cell is resumed");
    assert_eq!(stats.evaluated, 3, "the torn + missing cells re-run");
    let resumed = merge_dir(&manifest, &cells, &resume_dir).unwrap();
    assert_eq!(resumed, single, "resume changed cell results");
    assert_eq!(
        merged_csv(&resumed.results),
        single_csv,
        "resume changed merged CSV bytes"
    );

    // A second resume finds everything complete and evaluates nothing.
    let stats = run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &resume_dir,
        |_, _| {},
    )
    .unwrap();
    assert_eq!((stats.resumed, stats.evaluated), (4, 0));

    // A writer killed during the very first (header) append leaves an
    // empty or torn-header file: the shard must recreate it instead of
    // failing every subsequent resume.
    let torn_header_dir = test_dir("tornheader");
    std::fs::create_dir_all(&torn_header_dir).unwrap();
    let path = ShardSpec::single().path(&torn_header_dir);
    std::fs::write(&path, r#"{"header":{"campaign":"tiny"#).unwrap();
    let stats = run_shard(
        &manifest,
        &cells,
        ShardSpec::single(),
        &torn_header_dir,
        |_, _| {},
    )
    .unwrap();
    assert_eq!((stats.resumed, stats.evaluated), (0, 4));
    let from_torn = merge_dir(&manifest, &cells, &torn_header_dir).unwrap();
    assert_eq!(from_torn, single, "torn-header recovery changed results");

    // Merging against a different campaign identity is rejected — both
    // a seed change and a subtler manifest edit that keeps name, seed,
    // grid size and sample scale but re-points the cells (the grid
    // fingerprint catches it).
    let mut other = manifest.clone();
    other.seed = 42;
    let other_cells = other.cells(false);
    assert!(merge_dir(&other, &other_cells, &single_dir).is_err());
    let mut edited = manifest.clone();
    edited.normalized_utilization = Some(vec![0.2, 0.7]);
    let edited_cells = edited.cells(false);
    assert_eq!(edited_cells.len(), cells.len(), "edit keeps the grid size");
    assert!(
        merge_dir(&edited, &edited_cells, &single_dir).is_err(),
        "stale checkpoints must not merge into an edited campaign"
    );
    let resume_on_edited = run_shard(
        &edited,
        &edited_cells,
        ShardSpec::single(),
        &single_dir,
        |_, _| {},
    );
    assert!(
        resume_on_edited.is_err(),
        "an edited manifest must not resume a stale checkpoint"
    );

    for dir in [single_dir, split_dir, resume_dir, torn_header_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn poisoned_cells_record_failures_instead_of_killing_the_shard() {
    // A cell whose evaluation panics (here: a degenerate m = 1 platform,
    // which trips the harness's `Platform::new` expect) must be recorded
    // as a checkpoint failure, not abort the shard; the merge surfaces it
    // and the remaining cells still produce their results.
    let manifest = tiny_manifest();
    let mut cells = manifest.cells(false);
    cells[1].scenario.m = 1;
    let dir = test_dir("poisoned");
    let stats = run_shard(&manifest, &cells, ShardSpec::single(), &dir, |_, _| {}).unwrap();
    assert_eq!(stats.owned, 4);
    assert_eq!(stats.evaluated, 3);
    assert_eq!(stats.failed, 1);
    let outcome = merge_dir(&manifest, &cells, &dir).unwrap();
    assert_eq!(outcome.results.len(), 3);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].index, 1);
    assert!(outcome.failure_summary().contains("1 errored cell"));
    // The summary CSV carries the re-pinned robustness columns: healthy
    // rows end in `,0,0`, the failed cell gets a synthetic `,0,1,0` row.
    let summary = dpcp_experiments::campaign::summary_csv(&outcome.results, &outcome.failures);
    assert!(summary
        .lines()
        .next()
        .unwrap()
        .ends_with("total_accepted,errored_cells,budget_exceeded"));
    assert!(summary
        .lines()
        .any(|l| l.starts_with("1,") && l.ends_with(",-,0,1,0")));
    // Resume treats the recorded failure as complete: nothing re-runs and
    // the checkpoint bytes stay put.
    let before = std::fs::read_to_string(ShardSpec::single().path(&dir)).unwrap();
    let stats = run_shard(&manifest, &cells, ShardSpec::single(), &dir, |_, _| {}).unwrap();
    assert_eq!((stats.resumed, stats.evaluated, stats.failed), (4, 0, 0));
    let after = std::fs::read_to_string(ShardSpec::single().path(&dir)).unwrap();
    assert_eq!(before, after, "resume mutated a checkpoint with failures");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_cells_reproduce_the_legacy_per_scenario_loop() {
    // The campaign engine subsumed the grid loops of fig2/tables: a cell
    // over the default utilization sweep must reproduce the pre-campaign
    // `evaluate_curve` output byte-for-byte (same seed discipline, same
    // CSV emitter).
    let scenario = tiny_scenario();
    let manifest = CampaignManifest {
        name: "legacycheck".to_string(),
        seed: 2020,
        samples_per_point: 2,
        generation_retries: None,
        methods: Method::ALL.to_vec(),
        axes: AxisSpec::single(&scenario),
        normalized_utilization: None, // the paper's full sweep
        ablations: None,
        quick: None,
        extra: None,
    };
    let cells = manifest.cells(false);
    assert_eq!(cells.len(), 1);
    let campaign_curve = run_cells(&cells).remove(0).curve();

    let legacy_cfg = EvalConfig {
        samples_per_point: 2,
        seed: 2020,
        ..EvalConfig::default()
    };
    let legacy_curve = evaluate_curve(&scenario, &legacy_cfg);
    assert_eq!(campaign_curve, legacy_curve);
    assert_eq!(campaign_curve.to_csv(), legacy_curve.to_csv());
}

#[test]
fn bundled_manifests_expand_to_the_legacy_grids() {
    // fig2: each panel manifest is exactly the legacy panel sweep.
    let manifest = fig2_panel_manifest(dpcp_p::gen::Fig2Panel::B, 50, 2020);
    let cells = manifest.cells(false);
    let scenario = Scenario::fig2(dpcp_p::gen::Fig2Panel::B);
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].scenario, scenario);
    assert_eq!(cells[0].utilizations, scenario.utilization_points());
    // tables: grid_216 order.
    let grid = Scenario::grid_216();
    let cells = tables_manifest(10, 2020).cells(false);
    assert_eq!(cells.len(), 216);
    assert!(cells.iter().zip(&grid).all(|(c, s)| &c.scenario == s));
    // ablation: eight single-method cells over Fig. 2(b).
    let cells = ablation_manifest(20, 2020).cells(false);
    assert_eq!(cells.len(), 8);
    assert!(cells.iter().all(|c| c.methods.len() == 1));
}

#[test]
fn analysis_schedulable_sets_survive_simulation() {
    // Soundness smoke: on seeded generated task sets the analysis
    // accepts, the discrete-event simulator must observe no deadline
    // miss and no Lemma 1 violation (simulation can never contradict a
    // proven bound).
    use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
    use dpcp_p::core::{AnalysisConfig, AnalysisSession};
    use dpcp_p::model::Platform;
    use dpcp_p::sim::{simulate, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let scenario = tiny_scenario();
    let platform = Platform::new(scenario.m).unwrap();
    let mut simulated = 0usize;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x51AB_1E00 + seed);
        let Ok(tasks) = scenario.sample_task_set(3.0, &mut rng) else {
            continue;
        };
        let outcome = AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
            &tasks,
            &platform,
            ResourceHeuristic::WorstFitDecreasing,
        );
        let PartitionOutcome::Schedulable {
            partition, report, ..
        } = outcome
        else {
            continue;
        };
        let horizon = tasks.iter().map(|t| t.period()).max().unwrap() * 3;
        let cfg = SimConfig {
            duration: horizon,
            seed,
            ..SimConfig::default()
        };
        let result = simulate(&tasks, &partition, &cfg);
        assert_eq!(result.lemma1_violations, 0, "seed {seed}: Lemma 1 violated");
        assert_eq!(
            result.deadline_misses(),
            0,
            "seed {seed}: simulated deadline miss on an analysis-schedulable set"
        );
        // Observed responses stay below the proven bounds.
        for (bound, stats) in report.task_bounds.iter().zip(&result.per_task) {
            assert!(
                stats.max_response <= bound.wcrt.unwrap(),
                "seed {seed}: observed response exceeds the proven bound"
            );
        }
        simulated += 1;
    }
    assert!(
        simulated >= 3,
        "too few analysis-schedulable sets simulated ({simulated})"
    );
}

#[test]
fn parallel_cell_fan_is_bit_identical() {
    // run_shard evaluates pending cells in waves over the ambient rayon
    // pool; the index-ordered fold must make the checkpoint *bytes* (and
    // therefore every merged output) identical for any pool width.
    let manifest = tiny_manifest();
    let cells = manifest.cells(false);
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let dir = test_dir(&format!("parallel{threads}"));
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
        "pool width changed the checkpoint bytes"
    );
    let merged_1 = merge_dir(&manifest, &cells, &runs[0].0).unwrap();
    let merged_4 = merge_dir(&manifest, &cells, &runs[1].0).unwrap();
    assert_eq!(merged_csv(&merged_1.results), merged_csv(&merged_4.results));
    for (dir, _) in runs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mixed_light_pool_sets_survive_simulation() {
    // The registry routes DPCP methods through the mixed Algorithm 1
    // (shared light pools) whenever the scenario mixes in light tasks —
    // the path every `light_fraction > 0` campaign cell now exercises.
    // Soundness smoke: analysis-accepted mixed sets must survive the
    // discrete-event simulator (no deadline miss, no Lemma 1 violation,
    // observed responses within the proven bounds).
    use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
    use dpcp_p::core::{AnalysisConfig, AnalysisSession};
    use dpcp_p::model::Platform;
    use dpcp_p::sim::{simulate, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut scenario = tiny_scenario();
    scenario.light_fraction = 0.3;
    let platform = Platform::new(scenario.m).unwrap();
    let registry = dpcp_experiments::standard_registry();
    let ep = registry.resolve("DPCP-p-EP").expect("registered");
    let mut simulated = 0usize;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x11A7_7000 + seed);
        let Ok(tasks) = scenario.sample_task_set(3.0, &mut rng) else {
            continue;
        };
        assert!(
            tasks.iter().any(|t| !t.is_heavy()),
            "seed {seed}: light_fraction 0.3 must generate light tasks"
        );
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let outcome = session.run(ep, &tasks, &platform, ResourceHeuristic::WorstFitDecreasing);
        let PartitionOutcome::Schedulable {
            partition, report, ..
        } = outcome
        else {
            continue;
        };
        // The registry really took the light-pool path: light tasks sit
        // on single (possibly shared) processors.
        for t in tasks.iter().filter(|t| !t.is_heavy()) {
            assert_eq!(partition.cluster_size(t.id()), 1, "seed {seed}");
        }
        let horizon = tasks.iter().map(|t| t.period()).max().unwrap() * 3;
        let cfg = SimConfig {
            duration: horizon,
            seed,
            ..SimConfig::default()
        };
        let result = simulate(&tasks, &partition, &cfg);
        assert_eq!(result.lemma1_violations, 0, "seed {seed}: Lemma 1 violated");
        assert_eq!(
            result.deadline_misses(),
            0,
            "seed {seed}: deadline miss on an analysis-schedulable mixed set"
        );
        for (bound, stats) in report.task_bounds.iter().zip(&result.per_task) {
            assert!(
                stats.max_response <= bound.wcrt.unwrap(),
                "seed {seed}: observed response exceeds the proven bound"
            );
        }
        simulated += 1;
    }
    assert!(
        simulated >= 3,
        "too few schedulable mixed sets simulated ({simulated})"
    );
}
