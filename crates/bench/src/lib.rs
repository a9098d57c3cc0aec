//! Shared fixtures and component benches for the Criterion benchmarks of
//! the DPCP-p workspace.
//!
//! The benchmark targets live in `benches/`:
//!
//! - `analysis` — WCRT analysis and partitioning throughput per
//!   table/figure workload (Fig. 2 panel sizes), plus [`components`],
//! - `simulator` — discrete-event engine throughput,
//! - `generation` — workload synthesis throughput.
//!
//! [`components`] is also what the `bench_report` binary measures for
//! `BENCH_analysis.json`.

#![warn(missing_docs)]

use criterion::{black_box, Criterion};
use dpcp_core::analysis::wcrt::{
    wcrt_for_signature_direct, wcrt_over_signatures_batched, wcrt_over_signatures_direct,
};
use dpcp_core::analysis::{cluster_width_floors, AnalysisContext, EvalScratch, SignatureCache};
use dpcp_core::partition::{assign_resources, layout_clusters, ResourceHeuristic};
use dpcp_core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, DpcpProtocol, PartitionOutcome,
    PlacementSearch, SearchConfig, UnschedulableReason,
};
use dpcp_gen::scenario::{Fig2Panel, Scenario};
use dpcp_model::{enumerate_signatures_capped, initial_processors, Partition, Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates a deterministic task set for a Fig. 2 panel at the given
/// total utilization.
///
/// # Panics
///
/// Panics when generation fails for every retry seed (does not happen for
/// the benchmark parameters).
pub fn panel_task_set(panel: Fig2Panel, utilization: f64, seed: u64) -> TaskSet {
    let scenario = Scenario::fig2(panel);
    for retry in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(retry * 7919));
        if let Ok(ts) = scenario.sample_task_set(utilization, &mut rng) {
            return ts;
        }
    }
    panic!("generation failed for panel {panel} at U={utilization}");
}

/// The fixtures of the `placement/search_*` benches: two contended
/// samples of the `ci/search_smoke.json` scenario on an 8-core platform,
/// each with initial federated sizes that fit and all three bin-packing
/// seeds failing, so `PlacementSearch::run` reaches its probe loop.
#[derive(Debug, Clone)]
struct SearchFixtures {
    /// The 8-core platform both sets are searched on.
    platform: Platform,
    /// The first such set the placement-free screen passes (it names no
    /// task and the width floors fit on 8 cores): the [`bench_search`]
    /// engine spends its whole budget on it.
    probing: TaskSet,
    /// The first such set in which the screen names a task: the search
    /// returns the seed outcome with zero probes.
    screened: TaskSet,
}

/// Selects the [`SearchFixtures`] and checks their probe counts.
///
/// # Panics
///
/// Panics when no fitting all-fail sample of either kind exists, or when
/// the [`bench_search`] engine spends less than its budget on `probing` or
/// any probe on `screened`.
fn search_fixtures() -> SearchFixtures {
    let platform = Platform::new(8).expect("8-core platform");
    let scenario = Scenario {
        m: 8,
        nr_range: (3, 6),
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: 40,
        cs_range_us: (50, 100),
        graph_shape: dpcp_gen::GraphShape::ErdosRenyi,
        light_fraction: 0.0,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    };
    let max_iters = AnalysisConfig::ep().max_fixpoint_iterations;
    let mut probing = None;
    let mut screened = None;
    'search: for total_util in [6.4, 5.6, 4.8] {
        for seed in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(0xBE7C_0000 + seed);
            let Ok(tasks) = scenario.sample_task_set(total_util, &mut rng) else {
                continue;
            };
            // The initial federated sizes must fit, or the search bails
            // out before probing (no local move repairs an over-demanded
            // set).
            let demand: Option<usize> = tasks.iter().map(initial_processors).sum();
            if demand.is_none_or(|d| d > platform.processor_count()) {
                continue;
            }
            let all_fail = [
                ResourceHeuristic::WorstFitDecreasing,
                ResourceHeuristic::FirstFitDecreasing,
                ResourceHeuristic::BestFitDecreasing,
            ]
            .iter()
            .all(|&h| {
                !AnalysisSession::new(AnalysisConfig::ep())
                    .partition_and_analyze(&tasks, &platform, h)
                    .is_schedulable()
            });
            if !all_fail {
                continue;
            }
            let slot = match cluster_width_floors(&tasks, 8, max_iters) {
                Err(_) => &mut screened,
                Ok(floors) if floors.iter().sum::<usize>() <= 8 => &mut probing,
                Ok(_) => continue,
            };
            slot.get_or_insert(tasks);
            if probing.is_some() && screened.is_some() {
                break 'search;
            }
        }
    }
    let fixtures = SearchFixtures {
        platform,
        probing: probing.expect("an all-fail sample the screen passes"),
        screened: screened.expect("an all-fail sample in which the screen names a task"),
    };
    let engine = bench_search();
    for (tasks, probes) in [
        (&fixtures.probing, engine.config().probe_budget),
        (&fixtures.screened, 0),
    ] {
        let spent = engine
            .run(
                &mut AnalysisSession::new(AnalysisConfig::ep()),
                &DpcpProtocol::ep(),
                tasks,
                &fixtures.platform,
                ResourceHeuristic::WorstFitDecreasing,
            )
            .probes;
        assert_eq!(
            spent, probes,
            "search fixture spent an unexpected probe count"
        );
    }
    fixtures
}

/// The `partition/algorithm1_rejected` fixture: a Fig. 2 panel-B set at
/// U/m 0.6 on its 32-core platform.
///
/// # Panics
///
/// Panics unless DPCP-p-EP rejects the set, naming a task, after at least
/// two rounds.
fn algorithm1_rejected_fixture() -> (TaskSet, Platform) {
    let tasks = panel_task_set(Fig2Panel::B, 0.6 * 32.0, 13);
    let platform = Platform::new(32).expect("32-core platform");
    let outcome = AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
        &tasks,
        &platform,
        ResourceHeuristic::WorstFitDecreasing,
    );
    match outcome {
        PartitionOutcome::Unschedulable {
            reason: UnschedulableReason::TaskUnschedulable { .. },
            rounds,
        } => assert!(rounds >= 2, "rejected in {rounds} round(s)"),
        other => panic!("DPCP-p-EP must reject the fixture by a task, got {other:?}"),
    }
    (tasks, platform)
}

/// The search engine the `placement/search_*` benches run: the default
/// knobs with a budget of 32 probes.
fn bench_search() -> PlacementSearch {
    PlacementSearch::new(SearchConfig {
        probe_budget: 32,
        ..SearchConfig::default()
    })
}

/// The analysis-stage components of `BENCH_analysis.json`, measured on
/// `c`: the `fixed_point/*` trio contrasting the per-iterate scan
/// reference (one signature and a whole task frontier) with the batched
/// lockstep kernel, full task-set analysis under EP/EN
/// (`analyze/task_set_*`), the signature cache, Algorithm 1 on a set it
/// rejects (`partition/algorithm1_rejected`), the `placement/*`
/// search-engine quartet, the two wire layers a cold `/analyze` crosses
/// before any analysis (`json/parse_request`, with `json/parse_request_pretty`
/// on a whitespace-heavy body, and `dto/structural_key`) and
/// `enumerate/dfs`, the depth-first reference to set beside the
/// dominance-pruned signature-domain DP the analysis runs, which
/// `signature_cache/enumerate` times.
///
/// The one definition of every component: `bench_report` reads the
/// medians back from [`Criterion::results`], and the `analysis`
/// criterion target runs the same function.
///
/// # Panics
///
/// Panics when a fixture breaks its precondition: the
/// `partition/algorithm1_rejected` set must be rejected by a task after at
/// least two rounds, the `placement/search_seeded` set must be
/// seed-schedulable, the `placement/search_*` fixtures must spend the
/// probe counts they are chosen for, and the pretty-parse fixture's
/// compact body must lie in `serve-hot`'s 26–28 KiB band.
pub fn components(c: &mut Criterion) {
    let tasks = panel_task_set(Fig2Panel::A, 8.0, 13);
    let platform = Platform::new(16).expect("16-core platform");
    let sizes: Vec<usize> = tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<_>>()
        .expect("generated tasks have L* < D");
    let layout = layout_clusters(&sizes, 16).expect("initial sizes fit");
    let homes =
        assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing).expect("fits");
    let partition = Partition::new(&tasks, &platform, layout, homes).expect("valid");
    let ctx = AnalysisContext::new(&tasks, &partition);
    let cfg = AnalysisConfig::ep();
    let cache = SignatureCache::new(&tasks, &cfg);
    let busiest = tasks
        .iter()
        .map(|t| t.id())
        .max_by_key(|&i| cache.signatures(i).signatures.len())
        .expect("non-empty task set");
    let sigs = cache.signatures(busiest);
    let longest = &sigs.signatures[0];

    // The per-iterate scan reference: one Theorem 1 fixed point with
    // every iterate rescanning the task set, alternating two distinct
    // signatures (kept so the median stays comparable across reports).
    let second = sigs.signatures.get(1).unwrap_or(longest);
    c.bench_function("fixed_point/signature_direct_scan", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let sig = if flip { longest } else { second };
            black_box(wcrt_for_signature_direct(&ctx, busiest, sig, &cfg))
        })
    });
    c.bench_function("fixed_point/task_direct_scan", |b| {
        b.iter(|| black_box(wcrt_over_signatures_direct(&ctx, busiest, sigs, &cfg)))
    });
    // The batched lockstep kernel over the same frontier, against the
    // per-iterate scan reference `fixed_point/task_direct_scan`.
    c.bench_function("fixed_point/task_batched", |b| {
        let mut scratch = EvalScratch::new();
        b.iter(|| {
            black_box(wcrt_over_signatures_batched(
                &ctx,
                busiest,
                sigs,
                &cfg,
                &mut scratch,
            ))
        })
    });
    c.bench_function("analyze/task_set_ep", |b| {
        b.iter(|| black_box(AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition)))
    });
    c.bench_function("analyze/task_set_en", |b| {
        b.iter(|| black_box(AnalysisSession::new(AnalysisConfig::en()).analyze(&tasks, &partition)))
    });
    c.bench_function("signature_cache/enumerate", |b| {
        b.iter(|| black_box(SignatureCache::new(&tasks, &cfg)))
    });
    // placement/*: the search engine's cost model. `probe_warm` is one
    // re-analysis of a perturbed candidate over signatures enumerated up
    // front — the marginal cost of a search probe the session's task-bound
    // memo cannot serve (caller-provided signatures carry no memo, so
    // alternating two placements never turns into timing hits).
    // `search_seeded` is the full wrapper run on a seed-schedulable set
    // (the common campaign-cell path: one inner evaluation, zero probes).
    // `search_probing` is the budgeted annealing loop on a contended
    // sample where every bin-packing seed fails and the placement-free
    // screen proves nothing, and `search_screened` the same wrapper run on
    // a sample in which the screen names a task (seeds, then zero probes).
    // Each search iteration gets a fresh session, as each campaign sample
    // does: a reused one would replay a deterministic trajectory from its
    // memo.
    let probe_layout = layout_clusters(&sizes, 16).expect("initial sizes fit");
    let homes_wfd = assign_resources(&tasks, &probe_layout, ResourceHeuristic::WorstFitDecreasing)
        .expect("fits");
    let homes_bfd = assign_resources(&tasks, &probe_layout, ResourceHeuristic::BestFitDecreasing)
        .expect("fits");
    let part_a = Partition::new(&tasks, &platform, probe_layout.clone(), homes_wfd).expect("valid");
    let part_b = Partition::new(&tasks, &platform, probe_layout, homes_bfd).expect("valid");
    c.bench_function("placement/probe_warm", |b| {
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let p = if flip { &part_a } else { &part_b };
            black_box(session.analyze_with_signatures(&tasks, p, &cache))
        })
    });
    let seeded_tasks = panel_task_set(Fig2Panel::A, 4.0, 13);
    assert!(
        AnalysisSession::new(AnalysisConfig::ep())
            .partition_and_analyze(
                &seeded_tasks,
                &platform,
                ResourceHeuristic::WorstFitDecreasing
            )
            .is_schedulable(),
        "placement/search_seeded fixture must be seed-schedulable"
    );
    c.bench_function("placement/search_seeded", |b| {
        let engine = PlacementSearch::new(SearchConfig::default());
        let inner = DpcpProtocol::ep();
        b.iter(|| {
            black_box(
                engine
                    .run(
                        &mut AnalysisSession::new(AnalysisConfig::ep()),
                        &inner,
                        &seeded_tasks,
                        &platform,
                        ResourceHeuristic::WorstFitDecreasing,
                    )
                    .probes,
            )
        })
    });
    // partition/algorithm1_rejected: Algorithm 1's decision path on a
    // panel-B set at U/m 0.6 that DPCP-p-EP rejects after top-up rounds,
    // with a fresh session per iteration (what a cold request pays: no
    // enumeration survives from one sample to the next).
    let (rejected, platform_b) = algorithm1_rejected_fixture();
    c.bench_function("partition/algorithm1_rejected", |b| {
        b.iter(|| {
            black_box(
                AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
                    &rejected,
                    &platform_b,
                    ResourceHeuristic::WorstFitDecreasing,
                ),
            )
        })
    });
    let search = search_fixtures();
    for (name, tasks) in [
        ("placement/search_probing", &search.probing),
        ("placement/search_screened", &search.screened),
    ] {
        c.bench_function(name, |b| {
            let engine = bench_search();
            let inner = DpcpProtocol::ep();
            b.iter(|| {
                black_box(
                    engine
                        .run(
                            &mut AnalysisSession::new(AnalysisConfig::ep()),
                            &inner,
                            tasks,
                            &search.platform,
                            ResourceHeuristic::WorstFitDecreasing,
                        )
                        .probes,
                )
            })
        });
    }
    // The wire layers of a cold request: parsing the fixture's body
    // (18 KiB) into an `AnalysisRequest`, and its structural key. Both
    // are linear in the body; the gate catches a quadratic string decode
    // or a WL refinement that runs to its round cap again. The pretty
    // body is `serve-hot`'s re-encoded shape: a set whose compact body
    // lies in that workload's 26–28 KiB band, pretty-printed, so most of
    // its 113 KiB are whitespace the parser must skip.
    let request = AnalysisRequest {
        schema: None,
        protocol: "DPCP-p-EP".to_string(),
        tasks: tasks.clone(),
        platform,
        config: AnalysisConfig::ep(),
        heuristic: ResourceHeuristic::WorstFitDecreasing,
    };
    let body = serde_json::to_string(&request).expect("requests serialize");
    c.bench_function("json/parse_request", |b| {
        b.iter(|| black_box(serde_json::from_str::<AnalysisRequest>(black_box(&body))))
    });
    let hot = AnalysisRequest {
        tasks: panel_task_set(Fig2Panel::A, 8.0, 14),
        ..request.clone()
    };
    let compact = serde_json::to_string(&hot).expect("requests serialize");
    assert!(
        (26 * 1024..=28 * 1024).contains(&compact.len()),
        "the pretty-parse fixture's compact body is {} bytes, outside 26-28 KiB",
        compact.len()
    );
    let pretty = serde_json::to_string_pretty(&hot).expect("requests serialize");
    c.bench_function("json/parse_request_pretty", |b| {
        b.iter(|| black_box(serde_json::from_str::<AnalysisRequest>(black_box(&pretty))))
    });
    c.bench_function("dto/structural_key", |b| {
        b.iter(|| black_box(black_box(&request).structural_key()))
    });
    // The depth-first reference enumerator (every distinct signature, no
    // pruning) under the cache's caps, beside `signature_cache/enumerate`.
    c.bench_function("enumerate/dfs", |b| {
        b.iter(|| {
            for t in tasks.iter() {
                black_box(enumerate_signatures_capped(
                    t,
                    cfg.path_signature_cap,
                    cfg.path_visit_cap,
                ));
            }
        })
    });
}
