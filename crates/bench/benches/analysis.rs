//! Analysis and partitioning throughput, one group per reproduced
//! table/figure workload:
//!
//! - `fig2_point` — the full evaluation of one Fig. 2 sample under every
//!   registered method (the unit of work behind every point of every
//!   panel),
//! - `tables_scenario_cell` — the EP/EN pair on a Table 2/3 grid cell,
//! - the `BENCH_analysis.json` components ([`dpcp_bench::components`]:
//!   the Theorem-1 fixed point, task-set analysis, enumeration, placement
//!   search and the wire layers), under the names `bench_report` records,
//! - `components` — the stages those leave out: Algorithm 2 placement and
//!   the SPIN-SON and LPP analyses,
//! - `harness_point` — a full `evaluate_point` fan-out, sequential vs
//!   the ambient rayon pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpcp_baselines::Baseline;
use dpcp_bench::panel_task_set;
use dpcp_core::analysis::EvalScratch;
use dpcp_core::partition::{assign_resources, ResourceHeuristic};
use dpcp_core::{AnalysisConfig, AnalysisSession, SchedAnalyzer};
use dpcp_experiments::{evaluate_point, standard_registry, EvalConfig};
use dpcp_gen::scenario::{Fig2Panel, Scenario};
use dpcp_model::{initial_processors, Platform};
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
    let sizes: Vec<usize> = tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<_>>()
        .expect("generated tasks have L* < D");
    let layout = dpcp_core::partition::layout_clusters(&sizes, 16).expect("fits");
    let homes =
        assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing).expect("fits");
    let partition =
        dpcp_model::Partition::new(&tasks, &platform, layout.clone(), homes).expect("valid");

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
        let spin = Baseline::SpinSon;
        let mut scratch = EvalScratch::new();
        b.iter(|| black_box(spin.analyze(&tasks, &partition, &mut scratch)))
    });
    group.bench_function("lpp_analysis", |b| {
        let lpp = Baseline::Lpp;
        let mut scratch = EvalScratch::new();
        b.iter(|| black_box(lpp.analyze(&tasks, &partition, &mut scratch)))
    });
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
    dpcp_bench::components,
    bench_components,
    bench_harness_point
);
criterion_main!(benches);
