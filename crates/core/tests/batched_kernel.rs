//! Bit-identity of the batched lockstep kernel
//! ([`wcrt_over_signatures_batched`]) against the per-iterate direct
//! scans, over seeded generator sweeps.
//!
//! The batched kernel is the only EP solver every analysis runs; these
//! sweeps are the contract that it reports exactly the reference's
//! bound, verdict and binding-path breakdown — across DAG shapes,
//! heavy/light mixes, truncated (EN-fallback) tasks and divergent
//! (`None`) recurrences.

use dpcp_core::analysis::wcrt::{
    wcrt_for_signature_direct, wcrt_over_signatures_batched, wcrt_over_signatures_direct,
};
use dpcp_core::analysis::{AnalysisContext, EvalScratch, SignatureCache};
use dpcp_core::partition::{assign_resources, layout_clusters, ResourceHeuristic};
use dpcp_core::AnalysisConfig;
use dpcp_gen::taskgen::{generate_mixed_task_set, GraphShape, TaskGenParams};
use dpcp_model::{initial_processors, Partition, PathSignatures, Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One generated, partitioned analysis instance.
struct Instance {
    tasks: TaskSet,
    partition: Partition,
}

/// Generates a task set for one `(shape, seed)` cell and partitions it on
/// an `m`-core platform; `None` when generation or placement rejects the
/// draw (the sweep skips such cells — coverage is asserted globally).
fn instance(
    shape: GraphShape,
    utilization: f64,
    light_fraction: f64,
    m: usize,
    seed: u64,
) -> Option<Instance> {
    let params = TaskGenParams {
        vertex_range: (10, 40),
        graph_shape: shape,
        ..TaskGenParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = generate_mixed_task_set(&params, utilization, light_fraction, 6, &mut rng).ok()?;
    let platform = Platform::new(m).ok()?;
    let sizes: Vec<usize> = tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<_>>()?;
    let layout = layout_clusters(&sizes, m)?;
    let homes = assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing)?;
    let partition = Partition::new(&tasks, &platform, layout, homes).ok()?;
    Some(Instance { tasks, partition })
}

/// Coverage counters of one sweep: the assertions are only meaningful if
/// the generated population actually exercised each regime.
#[derive(Default)]
struct Coverage {
    tasks: usize,
    converged: usize,
    divergent: usize,
    truncated: usize,
    multi_sig: usize,
}

/// Asserts batched == direct on every task of the instance, recording
/// which regimes the tasks fell into.
fn assert_instance_identical(inst: &Instance, cfg: &AnalysisConfig, cov: &mut Coverage) {
    let ctx = AnalysisContext::new(&inst.tasks, &inst.partition);
    let cache = SignatureCache::new(&inst.tasks, cfg);
    let mut scratch = EvalScratch::new();
    for t in inst.tasks.iter() {
        let i = t.id();
        let sigs = cache.signatures(i);
        let batched = wcrt_over_signatures_batched(&ctx, i, sigs, cfg, &mut scratch);
        let direct = wcrt_over_signatures_direct(&ctx, i, sigs, cfg);
        assert_eq!(
            batched,
            direct,
            "batched vs direct diverged on task {i} ({} sigs, truncated={})",
            sigs.signatures.len(),
            sigs.truncated
        );
        cov.tasks += 1;
        match &batched {
            Some(_) => cov.converged += 1,
            None => cov.divergent += 1,
        }
        if sigs.truncated {
            cov.truncated += 1;
        }
        if sigs.signatures.len() > 1 {
            cov.multi_sig += 1;
        }
    }
}

/// Seeded sweep across the four DAG shapes: every task's batched bound is
/// bit-identical to the direct scans, including divergent (`None`)
/// recurrences at the overloaded utilization.
#[test]
fn batched_matches_direct_across_shapes() {
    let cfg = AnalysisConfig::ep();
    let mut cov = Coverage::default();
    let shapes = [
        GraphShape::ErdosRenyi,
        GraphShape::Layered { layers: 3 },
        GraphShape::ForkJoin,
        GraphShape::Chain,
    ];
    for (s, shape) in shapes.into_iter().enumerate() {
        // Chains cannot satisfy the heavy-task L* < D/2 constraint; run
        // them as pure light sets (the shape still drives enumeration of
        // the single-vertex DAGs' trivial frontiers).
        let light = if matches!(shape, GraphShape::Chain) {
            1.0
        } else {
            0.0
        };
        for (u_idx, utilization) in [4.0, 8.0].into_iter().enumerate() {
            for seed in 0..3u64 {
                let cell = seed + 10 * (u_idx as u64) + 100 * (s as u64);
                let Some(inst) = instance(shape, utilization, light, 16, cell) else {
                    continue;
                };
                assert_instance_identical(&inst, &cfg, &mut cov);
            }
        }
    }
    assert!(cov.tasks >= 40, "sweep too thin: {} tasks", cov.tasks);
    assert!(cov.converged > 0, "no converged bound in the sweep");
    assert!(
        cov.divergent > 0,
        "no divergent (None) recurrence in the sweep — raise the overload point"
    );
    assert!(
        cov.multi_sig > 0,
        "no multi-signature frontier in the sweep"
    );
}

/// Mixed heavy/light sets: light tasks take the light-task fast path and
/// heavy tasks the signature sweep, in one interleaved population.
#[test]
fn batched_matches_on_mixed_light_sets() {
    let cfg = AnalysisConfig::ep();
    let mut cov = Coverage::default();
    for seed in 0..4u64 {
        let Some(inst) = instance(GraphShape::ErdosRenyi, 6.0, 0.5, 16, 7000 + seed) else {
            continue;
        };
        assert_instance_identical(&inst, &cfg, &mut cov);
    }
    assert!(cov.tasks >= 10, "sweep too thin: {} tasks", cov.tasks);
}

/// A tight signature cap forces truncation: batched and direct must take
/// the identical EN-fallback short-circuit (and report identical bounds).
#[test]
fn batched_matches_on_truncated_en_fallback() {
    let cfg = AnalysisConfig {
        path_signature_cap: 4,
        ..AnalysisConfig::ep()
    };
    let mut cov = Coverage::default();
    for seed in 0..4u64 {
        let Some(inst) = instance(GraphShape::ErdosRenyi, 6.0, 0.0, 16, 9000 + seed) else {
            continue;
        };
        assert_instance_identical(&inst, &cfg, &mut cov);
    }
    assert!(
        cov.truncated > 0,
        "cap of 4 truncated nothing — the sweep is not exercising the EN fallback"
    );
}

/// The group-collapse property: collapsing identical lanes into one
/// group never changes any lane's result. Two observable forms:
///
/// 1. every lane solved alone (a singleton frontier — no collapse
///    possible) reports the same value the direct scan gives it, and
/// 2. duplicating every lane (maximal collapse: each group absorbs a
///    clone) leaves the task-level binding bound bit-identical.
#[test]
fn group_collapse_never_changes_a_lane_result() {
    let cfg = AnalysisConfig::ep();
    let Some(inst) = instance(GraphShape::ErdosRenyi, 8.0, 0.0, 16, 13) else {
        panic!("seed 13 must generate (fixed seed, fixed generator)");
    };
    let ctx = AnalysisContext::new(&inst.tasks, &inst.partition);
    let cache = SignatureCache::new(&inst.tasks, &cfg);
    let mut scratch = EvalScratch::new();
    let mut lanes = 0usize;
    for t in inst.tasks.iter() {
        let i = t.id();
        let sigs = cache.signatures(i);
        if sigs.truncated {
            continue;
        }
        // (1) per-lane: singleton frontiers — batched degenerates to one
        // group of one lane and must equal the direct solve of that lane.
        for sig in &sigs.signatures {
            let alone = PathSignatures {
                signatures: vec![sig.clone()],
                truncated: false,
                paths_visited: 0,
            };
            let direct = wcrt_for_signature_direct(&ctx, i, sig, &cfg).ok();
            let batched = wcrt_over_signatures_batched(&ctx, i, &alone, &cfg, &mut scratch);
            assert_eq!(batched, direct, "singleton lane diverged on task {i}");
            lanes += 1;
        }
        // (2) whole-group: duplicate every lane. Interning maps each
        // clone onto its original's group, so the frontier solves the
        // same set of recurrences; the `>` tie-break keeps the first
        // occurrence as the winner, so the reported breakdown is
        // unchanged too.
        let mut doubled = Vec::with_capacity(sigs.signatures.len() * 2);
        for sig in &sigs.signatures {
            doubled.push(sig.clone());
            doubled.push(sig.clone());
        }
        let doubled = PathSignatures {
            signatures: doubled,
            truncated: false,
            paths_visited: 0,
        };
        let original = wcrt_over_signatures_batched(&ctx, i, sigs, &cfg, &mut scratch);
        let collapsed = wcrt_over_signatures_batched(&ctx, i, &doubled, &cfg, &mut scratch);
        assert_eq!(
            collapsed, original,
            "duplicated frontier diverged on task {i}"
        );
    }
    assert!(lanes > 50, "property sweep too thin: {lanes} lanes");
}
