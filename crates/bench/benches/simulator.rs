//! Discrete-event simulator throughput: events per second on the Fig. 1
//! example and on a generated Fig. 2(a) workload.

use criterion::{criterion_group, criterion_main, Criterion};
use dpcp_bench::panel_task_set;
use dpcp_core::partition::{assign_resources, layout_clusters, ResourceHeuristic};
use dpcp_gen::scenario::Fig2Panel;
use dpcp_model::{fig1, initial_processors, Partition, Platform, Time};
use dpcp_sim::{simulate, SimConfig};
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let (_, partition, tasks) = fig1::platform_and_partition().unwrap();
    let cfg = SimConfig {
        duration: fig1::unit() * 3000,
        ..SimConfig::default()
    };
    c.bench_function("sim_fig1_100_hyperperiods", |b| {
        b.iter(|| black_box(simulate(&tasks, &partition, &cfg)))
    });
}

fn bench_generated(c: &mut Criterion) {
    // Build the placement directly (initial federated sizes + WFD); the
    // simulator's throughput does not depend on analytical schedulability.
    let tasks = panel_task_set(Fig2Panel::A, 6.0, 21);
    let platform = Platform::new(16).unwrap();
    let sizes: Vec<usize> = tasks
        .iter()
        .map(initial_processors)
        .collect::<Option<_>>()
        .expect("generated tasks have L* < D");
    let layout = layout_clusters(&sizes, 16).expect("initial sizes fit on 16 cores");
    let homes = assign_resources(&tasks, &layout, ResourceHeuristic::WorstFitDecreasing)
        .expect("panel-A resources fit");
    let partition = Partition::new(&tasks, &platform, layout, homes).expect("valid");
    let cfg = SimConfig {
        duration: Time::from_ms(500),
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("sim_generated");
    group.sample_size(10);
    group.bench_function("fig2a_500ms", |b| {
        b.iter(|| black_box(simulate(&tasks, &partition, &cfg)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig1, bench_generated);
criterion_main!(benches);
