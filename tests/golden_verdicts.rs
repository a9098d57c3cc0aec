//! Verdict-byte golden: every registered protocol's `/analyze` verdict,
//! and the session's own DPCP-p loop, on fixed pools of task sets, pinned
//! in `ci/golden_verdicts.csv`.
//!
//! One row per (set, heuristic, protocol): `schedulable`, `rounds`, the
//! rejecting reason, a 64-bit FNV-1a digest of the verdict JSON and, for
//! an accepted set, the digest of the accepted partition's JSON, so any
//! change to a bound, a breakdown, a round count, a rejecting task, a
//! cluster or a resource home shows up as a row diff. Verdict bytes carry
//! no partition, so the `partition` column is what pins where Algorithm 1
//! put the tasks and which resources it homed. A write-only protocol
//! asked about a reader-writer set records its refusal.
//!
//! Beside the registry, each set gets `session/EP` and `session/EN` rows
//! from `AnalysisSession::partition_and_analyze`: there every task,
//! light ones included, gets an exclusive cluster, which the registry
//! never asks for on a light set.
//!
//! The pools, each set drawn from a seed that is a pure function of its
//! coordinates:
//! - Fig. 2 panels A and B at U/m ∈ {0.2, 0.4, 0.6} (heavy-only, WFD);
//! - light pools at m = 8 with `light_fraction` 0.3 and 1.0;
//! - fork-join and layered DAGs of 50–200 vertices at m = 4, half their
//!   utilization light, critical sections up to the whole vertex;
//! - reader-writer sets with light tasks;
//! - a "hot" pool of few, long and always-accessed resources, in which
//!   Algorithm 2 runs out of room, with and without light tasks;
//! - Fig. 1 at m = 2, 3 and 4.
//!
//! All but the Fig. 2 pool run under WFD and BFD. The test checks that
//! the pools contain what they exist to pin (see [`assert_coverage`]).
//!
//! To rewrite the file after an intended verdict change, run this test
//! with `GOLDEN_VERDICTS_BLESS=1` and state the reason in CHANGES.md.

use std::fmt::Write as _;
use std::path::PathBuf;

use dpcp_p::baselines::standard_registry;
use dpcp_p::core::analysis::{cluster_width_floors, SignatureCache};
use dpcp_p::core::partition::{PlacementSearch, ResourceHeuristic, SearchConfig};
use dpcp_p::core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, AnalysisVerdict, DpcpProtocol,
    PartitionOutcome, UnschedulableReason,
};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{fig1, Partition, Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WFD: ResourceHeuristic = ResourceHeuristic::WorstFitDecreasing;
const BFD: ResourceHeuristic = ResourceHeuristic::BestFitDecreasing;
const PANELS: [Fig2Panel; 2] = [Fig2Panel::A, Fig2Panel::B];
const FIG2_LOADS: [f64; 3] = [0.2, 0.4, 0.6];
const FIG2_SAMPLES: u64 = 4;
const HEADER: [&str; 10] = [
    "pool",
    "u_per_m",
    "sample",
    "heuristic",
    "protocol",
    "schedulable",
    "rounds",
    "reason",
    "digest",
    "partition",
];

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

/// One set of a pool and the heuristics it runs under.
struct PoolSet {
    pool: String,
    load: String,
    sample: u64,
    heuristics: &'static [ResourceHeuristic],
    tasks: TaskSet,
    platform: Platform,
}

/// `samples` sets per normalized load of `scenario`; the seed of each is
/// a pure function of `(index, load, sample, retry)`.
fn draw(
    pool: &str,
    index: u64,
    scenario: &Scenario,
    loads: &[f64],
    samples: u64,
    heuristics: &'static [ResourceHeuristic],
) -> Vec<PoolSet> {
    let platform = Platform::new(scenario.m).expect("scenario platform");
    let mut sets = Vec::new();
    for (l, &load) in loads.iter().enumerate() {
        for sample in 0..samples {
            let base = 0x601D_0000 + index * 10_000 + (l as u64) * 100 + sample;
            let tasks = (0..32u64)
                .find_map(|retry| {
                    let mut rng = StdRng::seed_from_u64(base.wrapping_add(retry * 7919));
                    scenario
                        .sample_task_set(load * scenario.m as f64, &mut rng)
                        .ok()
                })
                .unwrap_or_else(|| panic!("{pool} at U/m {load} draws a set within 32 retries"));
            sets.push(PoolSet {
                pool: pool.to_string(),
                load: load.to_string(),
                sample,
                heuristics,
                tasks,
                platform,
            });
        }
    }
    sets
}

/// The write-only ER scenario the light and reader-writer pools vary.
fn light(light_fraction: f64, rw_share: Option<f64>) -> Scenario {
    Scenario {
        m: 8,
        nr_range: (2, 4),
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: 25,
        cs_range_us: (15, 50),
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share,
    }
}

/// Large light and heavy DAGs of one shape on four processors.
fn shaped(graph_shape: GraphShape) -> Scenario {
    Scenario {
        m: 4,
        nr_range: (2, 4),
        u_avg: 0.75,
        access_prob: 0.75,
        max_requests: 10,
        cs_range_us: (1, 300),
        graph_shape,
        light_fraction: 0.5,
        vertex_range: Some((50, 200)),
        cs_budget_fraction: Some(1.0),
        rw_share: None,
    }
}

/// Few resources that every task uses, with long critical sections: the
/// resource utilizations overflow Algorithm 2's bins.
fn hot(light_fraction: f64) -> Scenario {
    Scenario {
        m: 8,
        nr_range: (1, 2),
        u_avg: 1.5,
        access_prob: 1.0,
        max_requests: 50,
        cs_range_us: (1000, 3000),
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share: None,
    }
}

fn pool() -> Vec<PoolSet> {
    const BOTH: &[ResourceHeuristic] = &[WFD, BFD];
    let mut sets = Vec::new();
    for (p, panel) in PANELS.into_iter().enumerate() {
        let scenario = Scenario::fig2(panel);
        let name = panel.to_string();
        sets.extend(draw(
            &name,
            p as u64,
            &scenario,
            &FIG2_LOADS,
            FIG2_SAMPLES,
            &[WFD],
        ));
    }
    let loads = [0.2, 0.4, 0.6];
    sets.extend(draw("light0.3", 2, &light(0.3, None), &loads, 3, BOTH));
    sets.extend(draw("light1.0", 3, &light(1.0, None), &loads, 3, BOTH));
    sets.extend(draw(
        "forkjoin",
        4,
        &shaped(GraphShape::ForkJoin),
        &loads,
        2,
        BOTH,
    ));
    sets.extend(draw(
        "layered",
        5,
        &shaped(GraphShape::Layered { layers: 8 }),
        &loads,
        2,
        BOTH,
    ));
    sets.extend(draw("rw0.3", 6, &light(0.3, Some(0.5)), &loads, 2, BOTH));
    let hot_loads = [2.0 / 8.0, 3.0 / 8.0, 4.0 / 8.0];
    sets.extend(draw("hot0.0", 7, &hot(0.0), &hot_loads, 5, BOTH));
    sets.extend(draw("hot0.4", 8, &hot(0.4), &hot_loads, 5, BOTH));
    let tasks = fig1::task_set().expect("Fig. 1 builds");
    for m in [2, 3, 4] {
        sets.push(PoolSet {
            pool: format!("Fig.1/m{m}"),
            load: "-".to_string(),
            sample: 0,
            heuristics: BOTH,
            tasks: tasks.clone(),
            platform: Platform::new(m).expect("m ≥ 2"),
        });
    }
    sets
}

/// What the rows saw, for [`assert_coverage`].
#[derive(Default)]
struct Coverage {
    /// An accepted DPCP-p-EP partition shares a processor between light
    /// tasks.
    dpcp_shares_a_processor: bool,
    /// A baseline protocol accepted a set with light tasks.
    baseline_accepts_lights: bool,
    /// Fig. 1 (set, heuristic, variant) triples compared, and those on
    /// which the registry's DPCP-p verdict equals the session's once the
    /// protocol name and key are set aside.
    fig1_compared: usize,
    fig1_agreed: usize,
}

/// A verdict's JSON without its protocol name and key: what the analysis
/// decided.
fn decision(verdict: &AnalysisVerdict) -> String {
    let mut verdict = verdict.clone();
    verdict.protocol.clear();
    verdict.cache_key.clear();
    serde_json::to_string(&verdict).expect("verdicts serialize")
}

/// Appends one row; `None` records a refusal.
fn write_row(
    csv: &mut String,
    set: &PoolSet,
    heuristic: ResourceHeuristic,
    protocol: &str,
    verdict: Option<&AnalysisVerdict>,
    outcome: Option<&PartitionOutcome>,
) {
    let PoolSet {
        pool, load, sample, ..
    } = set;
    write!(csv, "{pool},{load},{sample},{heuristic},{protocol},").expect("writing to a String");
    match verdict {
        None => csv.push_str("refused,,,,"),
        Some(verdict) => {
            let json = serde_json::to_string(verdict).expect("verdicts serialize");
            let partition = outcome
                .and_then(PartitionOutcome::partition)
                .map(|p| {
                    let json = serde_json::to_string(p).expect("partitions serialize");
                    format!("{:016x}", fnv1a(json.as_bytes()))
                })
                .unwrap_or_default();
            write!(
                csv,
                "{},{},{},{:016x},{partition}",
                verdict.schedulable,
                verdict.rounds,
                reason_cell(verdict.reason.as_ref()),
                fnv1a(json.as_bytes()),
            )
            .expect("writing to a String");
        }
    }
    csv.push('\n');
}

fn shares_a_processor(partition: &Partition, platform: &Platform) -> bool {
    platform.processors().any(|p| partition.is_shared(p))
}

fn verdict_rows(sets: &[PoolSet]) -> (String, Coverage) {
    let registry = standard_registry();
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    let mut coverage = Coverage::default();
    let mut csv = HEADER.join(",") + "\n";
    for set in sets {
        let (tasks, platform) = (&set.tasks, &set.platform);
        let has_lights = tasks.iter().any(|t| !t.is_heavy());
        for &heuristic in set.heuristics {
            let mut dpcp = Vec::new();
            for protocol in registry.names() {
                let request = AnalysisRequest {
                    schema: None,
                    protocol: protocol.to_string(),
                    tasks: tasks.clone(),
                    platform: *platform,
                    config: AnalysisConfig::ep(),
                    heuristic,
                };
                let Ok(verdict) = registry.respond(&mut session, &request) else {
                    assert!(tasks.has_reads(), "{protocol} refused a write-only set");
                    write_row(&mut csv, set, heuristic, protocol, None, None);
                    continue;
                };
                // The verdict carries no partition: re-run the accepted
                // ones for it.
                let outcome = verdict.schedulable.then(|| {
                    let entry = registry.resolve(protocol).expect("registered");
                    session.run(entry, tasks, platform, heuristic)
                });
                if protocol == "DPCP-p-EP" || protocol == "DPCP-p-EN" {
                    dpcp.push(decision(&verdict));
                }
                if let Some(partition) = outcome.as_ref().and_then(PartitionOutcome::partition) {
                    coverage.dpcp_shares_a_processor |=
                        protocol == "DPCP-p-EP" && shares_a_processor(partition, platform);
                    coverage.baseline_accepts_lights |= has_lights && !protocol.starts_with("DPCP");
                }
                write_row(
                    &mut csv,
                    set,
                    heuristic,
                    protocol,
                    Some(&verdict),
                    outcome.as_ref(),
                );
            }
            for (v, (label, cfg)) in [
                ("session/EP", AnalysisConfig::ep()),
                ("session/EN", AnalysisConfig::en()),
            ]
            .into_iter()
            .enumerate()
            {
                let outcome = session
                    .with_config(cfg, |s| s.partition_and_analyze(tasks, platform, heuristic));
                let verdict = AnalysisVerdict::from_outcome(label, 0, &outcome);
                if set.pool.starts_with("Fig.1") {
                    coverage.fig1_compared += 1;
                    coverage.fig1_agreed += usize::from(dpcp[v] == decision(&verdict));
                }
                write_row(
                    &mut csv,
                    set,
                    heuristic,
                    label,
                    Some(&verdict),
                    Some(&outcome),
                );
            }
        }
    }
    (csv, coverage)
}

/// The cells of one row, by header name.
fn cell<'a>(row: &'a str, column: &str) -> &'a str {
    let index = HEADER
        .iter()
        .position(|&h| h == column)
        .expect("a known column");
    row.split(',').nth(index).expect("a full row")
}

/// Asserts the pools cover what the golden exists to pin:
/// - an accepted set per Fig. 2 panel, a truncated task, and a set on
///   which the placement search probes;
/// - an accepted DPCP-p-EP partition that shares a processor between
///   light tasks (the Sec. VI pool);
/// - a set that DPCP-p-EP rejects because Algorithm 2 cannot place its
///   resources while SPIN-SON, which homes none, does not;
/// - a baseline that accepts a set with light tasks;
/// - on Fig. 1, whose tasks are light, a `session/*` verdict (Theorem 1
///   on exclusive clusters) that differs from the registry's DPCP-p one
///   (the sequential bound on a pool) for every m, heuristic and variant.
fn assert_coverage(sets: &[PoolSet], csv: &str, coverage: &Coverage) {
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    for panel in PANELS {
        let tag = panel.to_string();
        assert!(
            rows.iter()
                .any(|row| cell(row, "pool") == tag && cell(row, "schedulable") == "true"),
            "the pool holds no accepted set on {tag}"
        );
    }
    let fig2: Vec<&PoolSet> = sets
        .iter()
        .filter(|set| set.pool.starts_with("Fig.2"))
        .collect();
    let cfg = AnalysisConfig::ep();
    assert!(
        fig2.iter().any(|set| {
            let cache = SignatureCache::new(&set.tasks, &cfg);
            set.tasks.iter().any(|t| cache.signatures(t.id()).truncated)
        }),
        "the pool holds no truncated task"
    );
    let engine = PlacementSearch::new(SearchConfig::default());
    let probed = fig2.iter().any(|set| {
        let (tasks, platform) = (&set.tasks, &set.platform);
        let rejected = !AnalysisSession::new(cfg.clone())
            .partition_and_analyze(tasks, platform, WFD)
            .is_schedulable();
        let m = platform.processor_count();
        rejected
            && cluster_width_floors(tasks, m, cfg.max_fixpoint_iterations)
                .is_ok_and(|floors| floors.iter().sum::<usize>() <= m)
            && engine
                .run(
                    &mut AnalysisSession::new(cfg.clone()),
                    &DpcpProtocol::ep(),
                    tasks,
                    platform,
                    WFD,
                )
                .probes
                > 0
    });
    assert!(probed, "the pool holds no set on which the search probes");

    assert!(
        coverage.dpcp_shares_a_processor,
        "no accepted DPCP-p-EP partition shares a processor between light tasks"
    );
    assert!(
        coverage.baseline_accepts_lights,
        "no baseline accepts a set with light tasks"
    );
    let group = |row: &str| {
        ["pool", "u_per_m", "sample", "heuristic"].map(|column| cell(row, column).to_string())
    };
    let find = |protocol: &str, of: &str| {
        rows.iter()
            .copied()
            .find(|row| group(row) == group(of) && cell(row, "protocol") == protocol)
            .expect("every protocol has a row per set")
    };
    assert!(
        rows.iter().any(|row| {
            cell(row, "protocol") == "DPCP-p-EP"
                && cell(row, "reason") == "resources"
                && cell(find("SPIN-SON", row), "reason") != "resources"
        }),
        "no set rejects DPCP-p-EP for its resource placement alone"
    );
    assert_eq!(
        (coverage.fig1_compared, coverage.fig1_agreed),
        (12, 0),
        "on Fig. 1 the session's exclusive clusters and the registry's pool \
         must decide differently under every m, heuristic and variant"
    );
}

#[test]
fn every_protocol_reproduces_the_golden_verdicts() {
    let sets = pool();
    let (csv, coverage) = verdict_rows(&sets);
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
    assert_coverage(&sets, &csv, &coverage);
}
