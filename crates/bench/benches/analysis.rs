//! Analysis and partitioning throughput, one group per reproduced
//! table/figure workload:
//!
//! - `fig2_point` — the full five-method evaluation of one Fig. 2 sample
//!   (the unit of work behind every point of every panel),
//! - `tables_scenario_cell` — the EP/EN pair on a Table 2/3 grid cell,
//! - `components` — the individual analysis stages (path enumeration,
//!   context construction, per-variant WCRT, Algorithm 2 placement),
//! - `fixed_point` — the Theorem 1 solver: the per-iterate scan reference
//!   on one signature and on a whole task frontier, against the batched
//!   lockstep kernel (`EvalScratch`-held tables, memo and arenas),
//! - `wire` — the layers a cold `/analyze` request crosses before any
//!   analysis: the JSON parse of one fig2 panel-A body and the
//!   structural key of the parsed request,
//! - `placement` — `PlacementSearch::run` on two contended sets where
//!   every bin-packing seed fails: one the placement-free bound leaves to
//!   the probe loop, and one it screens (zero probes),
//! - `harness_point` — a full `evaluate_point` fan-out, sequential vs
//!   the ambient rayon pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpcp_baselines::{Lpp, SpinSon};
use dpcp_bench::{bench_search, panel_task_set, search_fixtures};
use dpcp_core::analysis::wcrt::{
    wcrt_for_signature_direct, wcrt_over_signatures_batched, wcrt_over_signatures_direct,
};
use dpcp_core::analysis::{AnalysisContext, EvalScratch, SignatureCache};
use dpcp_core::partition::{assign_resources, ResourceHeuristic};
use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisSession, DpcpProtocol, SchedAnalyzer};
use dpcp_experiments::{evaluate_point, standard_registry, EvalConfig};
use dpcp_gen::scenario::{Fig2Panel, Scenario};
use dpcp_model::{
    enumerate_signatures_capped, enumerate_signatures_dp_capped, initial_processors, Platform,
};
use std::hint::black_box;

fn bench_fig2_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_point");
    group.sample_size(10);
    for (panel, m) in [(Fig2Panel::A, 16usize), (Fig2Panel::B, 32)] {
        let utilization = 0.5 * m as f64;
        let tasks = panel_task_set(panel, utilization, 99);
        let platform = Platform::new(m).unwrap();
        group.bench_with_input(
            BenchmarkId::new("all_methods", format!("{panel}")),
            &tasks,
            |b, tasks| {
                let registry = standard_registry();
                b.iter(|| {
                    let wfd = ResourceHeuristic::WorstFitDecreasing;
                    let mut session = AnalysisSession::new(AnalysisConfig::ep());
                    let mut accepted = 0u32;
                    for protocol in registry.iter() {
                        accepted += u32::from(
                            session
                                .run(protocol, tasks, &platform, wfd)
                                .is_schedulable(),
                        );
                    }
                    black_box(accepted)
                })
            },
        );
    }
    group.finish();
}

fn bench_tables_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables_scenario_cell");
    group.sample_size(10);
    let tasks = panel_task_set(Fig2Panel::A, 8.0, 7);
    let platform = Platform::new(16).unwrap();
    group.bench_function("ep_vs_en", |b| {
        b.iter(|| {
            let wfd = ResourceHeuristic::WorstFitDecreasing;
            let a = AnalysisSession::new(AnalysisConfig::ep())
                .partition_and_analyze(&tasks, &platform, wfd)
                .is_schedulable();
            let b2 = AnalysisSession::new(AnalysisConfig::en())
                .partition_and_analyze(&tasks, &platform, wfd)
                .is_schedulable();
            black_box((a, b2))
        })
    });
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    let tasks = panel_task_set(Fig2Panel::A, 8.0, 13);
    let platform = Platform::new(16).unwrap();
    let sizes: Vec<usize> = tasks.iter().map(initial_processors).collect();
    let layout = dpcp_core::partition::layout_clusters(&sizes, 16).expect("fits");
    let homes =
        assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing).expect("fits");
    let partition =
        dpcp_model::Partition::new(&tasks, &platform, layout.clone(), homes).expect("valid");

    group.bench_function("path_enumeration", |b| {
        b.iter(|| black_box(SignatureCache::new(&tasks, &AnalysisConfig::ep())))
    });
    // The DFS-vs-DP enumerator pair (plus the opt-in dominance-pruned DP),
    // per task set under the default caps.
    let cfg = AnalysisConfig::ep();
    group.bench_function("enumerate_dfs", |b| {
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
    group.bench_function("enumerate_dp", |b| {
        b.iter(|| {
            for t in tasks.iter() {
                black_box(enumerate_signatures_dp_capped(
                    t,
                    cfg.path_signature_cap,
                    cfg.path_visit_cap,
                    false,
                ));
            }
        })
    });
    group.bench_function("enumerate_dp_pruned", |b| {
        b.iter(|| {
            for t in tasks.iter() {
                black_box(enumerate_signatures_dp_capped(
                    t,
                    cfg.path_signature_cap,
                    cfg.path_visit_cap,
                    true,
                ));
            }
        })
    });
    group.bench_function("wcrt_ep", |b| {
        b.iter(|| black_box(AnalysisSession::new(AnalysisConfig::ep()).analyze(&tasks, &partition)))
    });
    group.bench_function("wcrt_en", |b| {
        b.iter(|| black_box(AnalysisSession::new(AnalysisConfig::en()).analyze(&tasks, &partition)))
    });
    group.bench_function("wfd_placement", |b| {
        b.iter(|| {
            black_box(assign_resources(
                &tasks,
                &layout,
                ResourceHeuristic::WorstFitDecreasing,
            ))
        })
    });
    group.bench_function("spin_analysis", |b| {
        let spin = SpinSon::new();
        b.iter(|| black_box(spin.analyze(&tasks, &partition)))
    });
    group.bench_function("lpp_analysis", |b| {
        let lpp = Lpp::new();
        b.iter(|| black_box(lpp.analyze(&tasks, &partition)))
    });
    group.finish();
}

fn bench_fixed_point(c: &mut Criterion) {
    let tasks = panel_task_set(Fig2Panel::A, 8.0, 13);
    let platform = Platform::new(16).unwrap();
    let sizes: Vec<usize> = tasks.iter().map(initial_processors).collect();
    let layout = dpcp_core::partition::layout_clusters(&sizes, 16).expect("fits");
    let homes =
        assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing).expect("fits");
    let partition = dpcp_model::Partition::new(&tasks, &platform, layout, homes).expect("valid");
    let ctx = AnalysisContext::new(&tasks, &partition);
    let cfg = AnalysisConfig::ep();
    let cache = SignatureCache::new(&tasks, &cfg);

    // The busiest task: most enumerated signatures.
    let busiest = tasks
        .iter()
        .map(|t| t.id())
        .max_by_key(|&i| cache.signatures(i).signatures.len())
        .expect("non-empty task set");
    let sigs = cache.signatures(busiest);
    let longest = &sigs.signatures[0];

    // The per-iterate scan reference vs the batched kernel. The
    // single-signature scan alternates two signatures, as the
    // `bench_report` component of the same name does.
    let mut group = c.benchmark_group("fixed_point");
    let second = sigs.signatures.get(1).unwrap_or(longest);
    group.bench_function("signature_direct_scan", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let sig = if flip { longest } else { second };
            black_box(wcrt_for_signature_direct(&ctx, busiest, sig, &cfg))
        })
    });
    group.bench_function(
        BenchmarkId::new("task_direct_scan", sigs.signatures.len()),
        |b| b.iter(|| black_box(wcrt_over_signatures_direct(&ctx, busiest, sigs, &cfg))),
    );
    // The lockstep kernel over the same frontier — groups identical
    // recurrences and retires converged orbits in place.
    group.bench_function(
        BenchmarkId::new("task_batched", sigs.signatures.len()),
        |b| {
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
        },
    );
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let request = AnalysisRequest {
        schema: None,
        protocol: "DPCP-p-EP".to_string(),
        tasks: panel_task_set(Fig2Panel::A, 8.0, 13),
        platform: Platform::new(16).unwrap(),
        config: AnalysisConfig::ep(),
        heuristic: ResourceHeuristic::WorstFitDecreasing,
    };
    let body = serde_json::to_string(&request).expect("requests serialize");
    group.bench_function(BenchmarkId::new("parse_request", body.len()), |b| {
        b.iter(|| black_box(serde_json::from_str::<AnalysisRequest>(black_box(&body))))
    });
    group.bench_function("structural_key", |b| {
        b.iter(|| black_box(black_box(&request).structural_key()))
    });
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    // `search_fixtures` asserts the probe counts: the whole budget on the
    // probing set, none on the screened one.
    let search = search_fixtures();
    for (name, tasks) in [
        ("search_probing", &search.probing),
        ("search_screened", &search.screened),
    ] {
        group.bench_function(name, |b| {
            let engine = bench_search();
            let inner = DpcpProtocol::ep();
            let mut session = AnalysisSession::new(AnalysisConfig::ep());
            b.iter(|| {
                black_box(engine.run(
                    &mut session,
                    &inner,
                    tasks,
                    &search.platform,
                    ResourceHeuristic::WorstFitDecreasing,
                ))
            })
        });
    }
    group.finish();
}

fn bench_harness_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("harness_point");
    group.sample_size(10);
    let scenario = Scenario::fig2(Fig2Panel::A);
    let mut cfg = EvalConfig {
        samples_per_point: 16,
        seed: 2020,
        ..EvalConfig::default()
    };
    group.bench_function("sequential", |b| {
        cfg.threads = 1;
        b.iter(|| black_box(evaluate_point(&scenario, 8.0, 0, &cfg)))
    });
    group.bench_function("parallel_ambient", |b| {
        cfg.threads = 0;
        b.iter(|| black_box(evaluate_point(&scenario, 8.0, 0, &cfg)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2_point,
    bench_tables_cell,
    bench_components,
    bench_fixed_point,
    bench_wire,
    bench_placement,
    bench_harness_point
);
criterion_main!(benches);
