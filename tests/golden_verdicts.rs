//! Verdict-byte golden: every registered protocol's `/analyze` verdict on
//! a fixed pool of Fig. 2 panel A and B task sets, pinned in
//! `ci/golden_verdicts.csv`.
//!
//! One row per (set, protocol): `schedulable`, `rounds`, the rejecting
//! reason and a 64-bit FNV-1a digest of the verdict JSON, so any change
//! to a bound, a breakdown, a round count or a rejecting task shows up as
//! a row diff. The pool covers U/m ∈ {0.2, 0.4, 0.6} on both panels and
//! is checked to contain an accepted set per panel, a truncated task and
//! a set on which `DPCP-p-EP/SEARCH` reaches its probe loop.
//!
//! To rewrite the file after an intended verdict change, run this test
//! with `GOLDEN_VERDICTS_BLESS=1` and state the reason in CHANGES.md.

use std::fmt::Write as _;
use std::path::PathBuf;

use dpcp_p::baselines::standard_registry;
use dpcp_p::core::analysis::{infeasible_under_every_placement, SignatureCache};
use dpcp_p::core::partition::{PlacementSearch, ResourceHeuristic, SearchConfig};
use dpcp_p::core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, DpcpProtocol, UnschedulableReason,
};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::model::{Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PANELS: [Fig2Panel; 2] = [Fig2Panel::A, Fig2Panel::B];
const LOADS: [f64; 3] = [0.2, 0.4, 0.6];
const SAMPLES: u64 = 4;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("ci/golden_verdicts.csv")
}

/// 64-bit FNV-1a, the digest the campaign engine fingerprints with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn reason_cell(reason: Option<&UnschedulableReason>) -> String {
    match reason {
        None => String::new(),
        Some(UnschedulableReason::InsufficientProcessors {
            demanded,
            available,
        }) => format!("processors {demanded}/{available}"),
        Some(UnschedulableReason::ResourceAllocationInfeasible) => "resources".to_string(),
        Some(UnschedulableReason::TaskUnschedulable { task }) => format!("task {task}"),
    }
}

/// One pool entry: `(panel, U/m, sample, tasks, platform)`.
type PoolSet = (Fig2Panel, f64, u64, TaskSet, Platform);

/// The pool: `SAMPLES` sets per (panel, U/m) point, each drawn from a
/// seed that is a pure function of its coordinates.
fn pool() -> Vec<PoolSet> {
    let mut sets = Vec::new();
    for (p, panel) in PANELS.into_iter().enumerate() {
        let scenario = Scenario::fig2(panel);
        let platform = Platform::new(scenario.m).expect("fig2 platform");
        for (l, load) in LOADS.into_iter().enumerate() {
            for sample in 0..SAMPLES {
                let base = 0x601D_0000 + (p as u64) * 10_000 + (l as u64) * 100 + sample;
                let tasks = (0..32u64)
                    .find_map(|retry| {
                        let mut rng = StdRng::seed_from_u64(base.wrapping_add(retry * 7919));
                        scenario
                            .sample_task_set(load * scenario.m as f64, &mut rng)
                            .ok()
                    })
                    .expect("generation succeeds within 32 retries");
                sets.push((panel, load, sample, tasks, platform));
            }
        }
    }
    sets
}

fn verdict_rows(sets: &[PoolSet]) -> String {
    let registry = standard_registry();
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    let mut csv = String::from("panel,u_per_m,sample,protocol,schedulable,rounds,reason,digest\n");
    for (panel, load, sample, tasks, platform) in sets {
        for protocol in registry.names() {
            let request = AnalysisRequest {
                schema: None,
                protocol: protocol.to_string(),
                tasks: tasks.clone(),
                platform: *platform,
                config: AnalysisConfig::ep(),
                heuristic: ResourceHeuristic::WorstFitDecreasing,
            };
            let verdict = registry
                .respond(&mut session, &request)
                .expect("write-only fig2 sets resolve under every protocol");
            let json = serde_json::to_string(&verdict).expect("verdicts serialize");
            writeln!(
                csv,
                "{panel},{load},{sample},{protocol},{},{},{},{:016x}",
                verdict.schedulable,
                verdict.rounds,
                reason_cell(verdict.reason.as_ref()),
                fnv1a(json.as_bytes()),
            )
            .expect("writing to a String");
        }
    }
    csv
}

/// Asserts the pool covers what the golden exists to pin: an accepted
/// set per panel, a truncated task, and a set on which the placement
/// search probes.
fn assert_coverage(sets: &[PoolSet], csv: &str) {
    for panel in PANELS {
        let tag = panel.to_string();
        assert!(
            csv.lines()
                .any(|row| row.starts_with(&format!("{tag},")) && row.contains(",true,")),
            "the pool holds no accepted set on {tag}"
        );
    }
    let cfg = AnalysisConfig::ep();
    assert!(
        sets.iter().any(|(_, _, _, tasks, _)| {
            let cache = SignatureCache::new(tasks, &cfg);
            tasks.iter().any(|t| cache.signatures(t.id()).truncated)
        }),
        "the pool holds no truncated task"
    );
    let engine = PlacementSearch::new(SearchConfig::default());
    let probed = sets.iter().any(|(_, _, _, tasks, platform)| {
        let rejected = !AnalysisSession::new(cfg.clone())
            .partition_and_analyze(tasks, platform, ResourceHeuristic::WorstFitDecreasing)
            .is_schedulable();
        rejected
            && infeasible_under_every_placement(
                tasks,
                platform.processor_count(),
                cfg.max_fixpoint_iterations,
            )
            .is_none()
            && engine
                .run(
                    &mut AnalysisSession::new(cfg.clone()),
                    &DpcpProtocol::ep(),
                    tasks,
                    platform,
                    ResourceHeuristic::WorstFitDecreasing,
                )
                .probes
                > 0
    });
    assert!(probed, "the pool holds no set on which the search probes");
}

#[test]
fn every_protocol_reproduces_the_golden_verdicts() {
    let sets = pool();
    let csv = verdict_rows(&sets);
    let path = golden_path();
    if std::env::var_os("GOLDEN_VERDICTS_BLESS").is_some() {
        std::fs::write(&path, &csv).expect("golden is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("ci/golden_verdicts.csv exists");
    let diffs: Vec<String> = golden
        .lines()
        .zip(csv.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.lines().count() == csv.lines().count(),
        "{} verdict rows differ from {} ({} golden rows, {} computed):\n{}",
        diffs.len(),
        path.display(),
        golden.lines().count(),
        csv.lines().count(),
        diffs.join("\n")
    );
    assert_coverage(&sets, &csv);
}
