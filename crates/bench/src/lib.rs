//! Shared fixtures for the Criterion benchmarks of the DPCP-p workspace.
//!
//! The benchmark targets live in `benches/`:
//!
//! - `analysis` — WCRT analysis and partitioning throughput per
//!   table/figure workload (Fig. 2 panel sizes),
//! - `simulator` — discrete-event engine throughput,
//! - `generation` — workload synthesis throughput.

#![warn(missing_docs)]

use dpcp_core::analysis::infeasible_under_every_placement;
use dpcp_core::partition::ResourceHeuristic;
use dpcp_core::{AnalysisConfig, AnalysisSession, DpcpProtocol, PlacementSearch, SearchConfig};
use dpcp_gen::scenario::{Fig2Panel, Scenario};
use dpcp_model::{initial_processors, Platform, TaskSet};
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
pub struct SearchFixtures {
    /// The 8-core platform both sets are searched on.
    pub platform: Platform,
    /// The first such set the placement-free bound does not screen: the
    /// [`bench_search`] engine spends its whole budget on it.
    pub probing: TaskSet,
    /// The first such set the bound screens: the search returns the seed
    /// outcome with zero probes.
    pub screened: TaskSet,
}

/// Selects the [`SearchFixtures`] and checks their probe counts.
///
/// # Panics
///
/// Panics when no fitting all-fail sample of either kind exists, or when
/// the [`bench_search`] engine spends less than its budget on `probing` or
/// any probe on `screened`.
pub fn search_fixtures() -> SearchFixtures {
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
            let demand: usize = tasks.iter().map(initial_processors).sum();
            if demand > platform.processor_count() {
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
            let slot = match infeasible_under_every_placement(&tasks, 8, max_iters) {
                Some(_) => &mut screened,
                None => &mut probing,
            };
            slot.get_or_insert(tasks);
            if probing.is_some() && screened.is_some() {
                break 'search;
            }
        }
    }
    let fixtures = SearchFixtures {
        platform,
        probing: probing.expect("an all-fail sample the bound does not screen"),
        screened: screened.expect("an all-fail sample the bound screens"),
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

/// The search engine the `placement/search_*` benches run: the default
/// knobs with a budget of 32 probes.
pub fn bench_search() -> PlacementSearch {
    PlacementSearch::new(SearchConfig {
        probe_budget: 32,
        ..SearchConfig::default()
    })
}
