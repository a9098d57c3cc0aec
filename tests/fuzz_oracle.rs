//! Differential-fuzzing integration tests: the oracle's determinism
//! contract (merged CSV bytes invariant under shard split, pool width,
//! and resume), the injected-bug canary (a deliberately weakened bound
//! must be caught, minimized, and replayable), repro-bundle
//! round-tripping, and the shard-engine paths only fuzz takes (canary
//! checkpoint identity, cells whose evaluation returns an error).

use std::path::PathBuf;

use dpcp_experiments::fuzz::{
    fuzz_merged_csv, fuzz_summary_csv, write_fuzz_outputs, ViolationKind,
};
use dpcp_experiments::manifest::AxisSpec;
use dpcp_experiments::{
    merge_dir, replay_bundle, run_shard, FuzzManifest, FuzzRun, ShardSpec, Verdict,
};
use dpcp_p::gen::scenario::Scenario;
use dpcp_p::gen::GraphShape;
use dpcp_p::sim::ReleaseModel;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpcp_fuzz_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A two-cell hostile manifest small enough for debug-mode CI: one
/// fork-join scenario under two release models, one utilization point
/// in the contention band, two samples.
fn tiny_fuzz_manifest() -> FuzzManifest {
    let scenario = Scenario {
        m: 4,
        nr_range: (2, 2),
        u_avg: 0.75,
        access_prob: 0.5,
        max_requests: 5,
        cs_range_us: (1, 50),
        graph_shape: GraphShape::ForkJoin,
        light_fraction: 0.0,
        vertex_range: Some((8, 16)),
        cs_budget_fraction: None,
        rw_share: None,
    };
    FuzzManifest {
        name: "tinyfuzz".to_string(),
        seed: 2020,
        samples_per_point: 2,
        generation_retries: None,
        method: None,
        axes: AxisSpec::single(&scenario),
        normalized_utilization: vec![0.55],
        release: Some(vec![
            ReleaseModel::Periodic,
            ReleaseModel::Bursty {
                burst: 3,
                pause: 1.0,
            },
        ]),
        sim_ms: Some(30),
        max_sim_events: Some(2_000_000),
        quick: None,
    }
}

#[test]
fn merged_fuzz_csv_is_invariant_under_shards_threads_and_resume() {
    let manifest = tiny_fuzz_manifest();
    manifest.validate().expect("tiny manifest is valid");
    let cells = manifest.cells(false);
    assert_eq!(cells.len(), 2);
    let sweep = FuzzRun {
        manifest: &manifest,
        canary: None,
    };

    // Reference: single shard on a single-worker pool.
    let single_dir = test_dir("single");
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let stats = pool1
        .install(|| run_shard(&sweep, &cells, ShardSpec::single(), &single_dir, |_, _| {}))
        .unwrap();
    assert_eq!(stats.evaluated, cells.len());
    assert_eq!(stats.failed, 0);
    let reference = merge_dir(&sweep, &cells, &single_dir).unwrap();
    assert_eq!(reference.total_violations(), 0, "current stack is sound");
    // The canary test below needs at least one sound sample to weaken.
    let sound: usize = reference
        .results
        .iter()
        .flat_map(|c| c.points.iter())
        .map(|p| p.sound)
        .sum();
    assert!(sound > 0, "the tiny grid must exercise the simulator");
    let reference_csv = fuzz_merged_csv(&reference.results);

    // Two shards on a contended pool must merge to the same bytes.
    let split_dir = test_dir("split");
    let pool4 = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for shard in 0..2 {
        let spec = ShardSpec::parse(&format!("{shard}/2")).unwrap();
        pool4
            .install(|| run_shard(&sweep, &cells, spec, &split_dir, |_, _| {}))
            .unwrap();
    }
    let split = merge_dir(&sweep, &cells, &split_dir).unwrap();
    assert_eq!(reference_csv, fuzz_merged_csv(&split.results));

    // Resume on a complete shard is a no-op and changes nothing.
    let spec = ShardSpec::parse("0/2").unwrap();
    let resumed = run_shard(&sweep, &cells, spec, &split_dir, |_, _| {}).unwrap();
    assert_eq!(resumed.evaluated, 0);
    assert_eq!(resumed.resumed, resumed.owned);
    let after = merge_dir(&sweep, &cells, &split_dir).unwrap();
    assert_eq!(reference_csv, fuzz_merged_csv(&after.results));

    for dir in [single_dir, split_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn canary_bound_bug_is_caught_minimized_and_replayable() {
    // Scale every analysis bound down to 5%: any sample the simulator
    // drives past that shrunken bound becomes a soundness violation. The
    // oracle must catch it, the shrinker must minimize it, and the
    // bundle must reproduce it standalone.
    let manifest = tiny_fuzz_manifest();
    let cells = manifest.cells(false);
    let canary = Some(0.05);
    let weakened = FuzzRun {
        manifest: &manifest,
        canary,
    };
    let dir = test_dir("canary");
    run_shard(&weakened, &cells, ShardSpec::single(), &dir, |_, _| {}).unwrap();
    let outcome = merge_dir(&weakened, &cells, &dir).unwrap();
    assert!(
        outcome.total_violations() > 0,
        "the weakened bound must be detected"
    );

    let bundles = outcome.bundles();
    let bundle = bundles[0];
    assert_eq!(bundle.canary_scale, canary);
    assert!(
        matches!(bundle.violation.kind, ViolationKind::BoundExceeded { .. }),
        "a scaled-down bound fails as BoundExceeded, got {:?}",
        bundle.violation.kind
    );
    // Minimized: never larger than the generated set, and the recorded
    // partition matches the minimized task count.
    assert!(bundle.request.tasks.len() <= bundle.original_tasks);
    assert!(!bundle.request.tasks.is_empty());

    // The bundle is self-contained: a JSON round-trip replays to the
    // same violation class.
    let text = serde_json::to_string(bundle).unwrap();
    let reread: dpcp_experiments::ReproBundle = serde_json::from_str(&text).unwrap();
    let verdict = replay_bundle(&reread).unwrap();
    assert!(
        matches!(verdict, Verdict::Violation(_)),
        "replay must reproduce the violation, got {verdict:?}"
    );

    // Without the canary the same cells are sound — the violation is the
    // injected bug, not a real soundness hole.
    let production = FuzzRun {
        manifest: &manifest,
        canary: None,
    };
    let clean_dir = test_dir("canary_clean");
    run_shard(
        &production,
        &cells,
        ShardSpec::single(),
        &clean_dir,
        |_, _| {},
    )
    .unwrap();
    let clean = merge_dir(&production, &cells, &clean_dir).unwrap();
    assert_eq!(clean.total_violations(), 0);

    for d in [dir, clean_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn canary_and_production_checkpoints_never_mix() {
    // The canary scale is part of a fuzz checkpoint's identity: a
    // directory written under a weakened bound must refuse a production
    // resume or merge and vice versa, so a canary violation can never
    // reach the production gate (nor a clean result mask a canary).
    let mut manifest = tiny_fuzz_manifest();
    manifest.samples_per_point = 1;
    manifest.release = Some(vec![ReleaseModel::Periodic]);
    let cells = manifest.cells(false);
    let production = FuzzRun {
        manifest: &manifest,
        canary: None,
    };
    let weakened = FuzzRun {
        manifest: &manifest,
        canary: Some(0.05),
    };
    let canary_dir = test_dir("mix_canary");
    let production_dir = test_dir("mix_production");
    let single = ShardSpec::single();
    run_shard(&weakened, &cells, single, &canary_dir, |_, _| {}).unwrap();
    run_shard(&production, &cells, single, &production_dir, |_, _| {}).unwrap();
    for (sweep, dir) in [(&production, &canary_dir), (&weakened, &production_dir)] {
        let before = std::fs::read_to_string(single.path(dir)).unwrap();
        let resume = run_shard(sweep, &cells, single, dir, |_, _| {}).unwrap_err();
        assert!(resume.to_string().contains("header mismatch"), "{resume}");
        let merge = merge_dir(sweep, &cells, dir).unwrap_err();
        assert!(merge.to_string().contains("header mismatch"), "{merge}");
        let after = std::fs::read_to_string(single.path(dir)).unwrap();
        assert_eq!(before, after, "a refused resume touched the checkpoint");
    }
    // Under its own scale each directory still resumes as a no-op.
    let resumed = run_shard(&weakened, &cells, single, &canary_dir, |_, _| {}).unwrap();
    assert_eq!((resumed.resumed, resumed.evaluated), (cells.len(), 0));
    merge_dir(&production, &cells, &production_dir).unwrap();

    for dir in [canary_dir, production_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn erroring_fuzz_cell_is_checkpointed_as_a_failure_and_skipped_on_resume() {
    // A cell whose evaluation returns `Err` (an m = 1 scenario: its
    // platform cannot be built) is retried, then checkpointed as a
    // `CellFailure` instead of aborting the shard; the merge reports it
    // as an errored row and a resume leaves it alone.
    let manifest = tiny_fuzz_manifest();
    let mut cells = manifest.cells(false);
    cells[0].scenario.m = 1;
    let sweep = FuzzRun {
        manifest: &manifest,
        canary: None,
    };
    let dir = test_dir("errored");
    let single = ShardSpec::single();
    let stats = run_shard(&sweep, &cells, single, &dir, |_, _| {}).unwrap();
    assert_eq!((stats.owned, stats.evaluated, stats.failed), (2, 1, 1));

    let outcome = merge_dir(&sweep, &cells, &dir).unwrap();
    assert_eq!(outcome.results.len(), 1);
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert_eq!((failure.index, failure.ablation.as_str()), (0, "per"));
    assert!(failure.error.contains("platform"), "{}", failure.error);
    assert!(outcome.failure_summary().contains("1 errored cell"));
    write_fuzz_outputs(&outcome, &dir.join("merged")).unwrap();
    let summary = std::fs::read_to_string(dir.join("merged/fuzz_summary.csv")).unwrap();
    assert_eq!(
        summary,
        fuzz_summary_csv(&outcome.results, &outcome.failures)
    );
    let rows: Vec<&str> = summary.lines().collect();
    assert!(rows[0].ends_with(",errored_cells"), "{}", rows[0]);
    assert_eq!(
        rows[1],
        format!("0,{},per,0,0,0,0,0.0000,1", cells[0].scenario.label())
    );
    assert!(
        rows[2].starts_with("1,") && rows[2].ends_with(",0"),
        "{}",
        rows[2]
    );

    let before = std::fs::read_to_string(single.path(&dir)).unwrap();
    let stats = run_shard(&sweep, &cells, single, &dir, |_, _| {}).unwrap();
    assert_eq!((stats.resumed, stats.evaluated, stats.failed), (2, 0, 0));
    let after = std::fs::read_to_string(single.path(&dir)).unwrap();
    assert_eq!(before, after, "resume mutated a checkpoint with a failure");
    let _ = std::fs::remove_dir_all(&dir);
}
