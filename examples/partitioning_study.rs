//! Inside Algorithm 1: how the partitioning loop assigns processors and
//! global resources, and how the three placement heuristics differ.
//!
//! Run with: `cargo run --release --example partitioning_study`

use dpcp_p::core::partition::{
    assign_resources, layout_clusters, PartitionOutcome, ResourceHeuristic,
};
use dpcp_p::core::{AnalysisConfig, AnalysisSession};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::model::{initial_processors, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scenario = Scenario::fig2(Fig2Panel::A);
    let platform = Platform::new(scenario.m).expect("m ≥ 2");
    let mut rng = StdRng::seed_from_u64(20200703);
    let tasks = scenario
        .sample_task_set(6.0, &mut rng)
        .expect("generation succeeds for this seed");

    println!("== Generated task set (Fig. 2(a) parameters, U = 6) ==");
    for t in tasks.iter() {
        println!(
            "  {}: U = {:.2}, |V| = {:>3}, L*/D = {:.2}, initial m_i = {:?}",
            t.id(),
            t.utilization(),
            t.dag().vertex_count(),
            t.longest_path_len().as_ns() as f64 / t.deadline().as_ns() as f64,
            initial_processors(t),
        );
    }
    let globals: Vec<_> = tasks.global_resources().collect();
    println!(
        "  {} resources, {} global: {:?}",
        tasks.resource_count(),
        globals.len(),
        globals
    );

    println!("\n== Algorithm 2 placements under each heuristic ==");
    let sizes: Option<Vec<usize>> = tasks.iter().map(initial_processors).collect();
    if let Some(layout) = sizes.and_then(|sizes| layout_clusters(&sizes, scenario.m)) {
        for h in [
            ResourceHeuristic::WorstFitDecreasing,
            ResourceHeuristic::FirstFitDecreasing,
            ResourceHeuristic::BestFitDecreasing,
        ] {
            match assign_resources(&tasks, &layout, h) {
                Some(homes) => {
                    let placed: Vec<String> =
                        homes.iter().map(|(q, p)| format!("{q}→{p}")).collect();
                    println!("  {h}: {}", placed.join(", "));
                }
                None => println!("  {h}: infeasible"),
            }
        }
    }

    println!("\n== Algorithm 1 with the DPCP-p-EP analysis ==");
    // One session across all three heuristics: the path signatures are
    // enumerated once and reused (they depend only on the task set).
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    for h in [
        ResourceHeuristic::WorstFitDecreasing,
        ResourceHeuristic::FirstFitDecreasing,
        ResourceHeuristic::BestFitDecreasing,
    ] {
        match session.partition_and_analyze(&tasks, &platform, h) {
            PartitionOutcome::Schedulable {
                partition, rounds, ..
            } => {
                let widths: Vec<usize> = tasks
                    .iter()
                    .map(|t| partition.cluster_size(t.id()))
                    .collect();
                println!(
                    "  {h}: schedulable after {rounds} round(s), cluster sizes {widths:?} \
                     ({} of {} processors used)",
                    partition.assigned_processors(),
                    scenario.m,
                );
            }
            PartitionOutcome::Unschedulable { reason, rounds } => {
                println!("  {h}: unschedulable after {rounds} round(s) ({reason})");
            }
        }
    }
}
