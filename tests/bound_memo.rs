//! The session's per-set task-bound memo: where it serves, and what must
//! never reach it.
//!
//! Tier-1 runs in debug, where the analysis recomputes every memo hit and
//! asserts it equal to the stored bound, so every hit counted here has
//! been checked. The seeded sweep covers Fig. 2 panels A–D, a
//! light-fraction set (the Sec. VI shared light pool), a reader-writer set, a
//! signature cap of one that truncates every task, and contended sets
//! whose placement search reaches its probe loop. It asserts hits inside
//! Algorithm 1's rounds, in the search's WFD seed (which repeats
//! DPCP-p-EP's evaluation on the same session) and inside the probes, and
//! that a search on a session warmed by DPCP-p-EP equals a fresh one's.
//!
//! The invalidation tests pin what must never be served from the memo: a
//! bound computed under another fixed-point budget, anything under EN,
//! analyses over caller-provided signatures, and another task set.

use dpcp_p::core::analysis::{MemoCounters, SignatureCache};
use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisConfig, AnalysisSession, DpcpProtocol, PlacementSearch, SearchConfig};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

const WFD: ResourceHeuristic = ResourceHeuristic::WorstFitDecreasing;
/// The placement search's seed order under WFD.
const SEEDS: [ResourceHeuristic; 3] = [
    WFD,
    ResourceHeuristic::FirstFitDecreasing,
    ResourceHeuristic::BestFitDecreasing,
];

/// One set under a base configuration.
struct Job {
    label: String,
    tasks: TaskSet,
    platform: Platform,
    cfg: AnalysisConfig,
}

/// Draws one set per `(load, sample)`, each from a seed that is a pure
/// function of its coordinates; draws the generator rejects are skipped.
fn draws(
    scenario: &Scenario,
    cfg: &AnalysisConfig,
    loads: &[f64],
    samples: u64,
    tag: u64,
) -> Vec<Job> {
    let platform = Platform::new(scenario.m).expect("scenario platform");
    let mut jobs = Vec::new();
    for (l, &load) in loads.iter().enumerate() {
        for sample in 0..samples {
            let seed = 0x3E30_0000 + tag * 10_000 + (l as u64) * 100 + sample;
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(tasks) = scenario.sample_task_set(load * scenario.m as f64, &mut rng) {
                jobs.push(Job {
                    label: format!("tag {tag}, U/m {load}, sample {sample}"),
                    tasks,
                    platform,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    jobs
}

/// An 8-core scenario; `contended` is the shape whose all-fail seeds
/// leave the placement search probing.
fn small(light_fraction: f64, rw_share: Option<f64>, contended: bool) -> Scenario {
    Scenario {
        m: 8,
        nr_range: if contended { (3, 6) } else { (2, 4) },
        u_avg: 1.5,
        access_prob: 0.75,
        max_requests: if contended { 40 } else { 25 },
        cs_range_us: if contended { (50, 100) } else { (15, 50) },
        graph_shape: GraphShape::ErdosRenyi,
        light_fraction,
        vertex_range: None,
        cs_budget_fraction: None,
        rw_share,
    }
}

fn fig2(panel: Fig2Panel, loads: &[f64], samples: u64) -> Vec<Job> {
    draws(
        &Scenario::fig2(panel),
        &AnalysisConfig::ep(),
        loads,
        samples,
        panel as u64,
    )
}

/// Fig. 2 sets of the light-contention panels A and C that DPCP-p-EP
/// accepts under WFD, so the memo holds the bounds of every task.
fn accepted_fig2() -> Vec<Job> {
    let mut jobs = fig2(Fig2Panel::A, &[0.1, 0.2, 0.3], 2);
    jobs.extend(fig2(Fig2Panel::C, &[0.1, 0.2, 0.3], 2));
    jobs.retain(|job| {
        AnalysisSession::new(job.cfg.clone())
            .partition_and_analyze(&job.tasks, &job.platform, WFD)
            .is_schedulable()
    });
    assert!(jobs.len() >= 4, "{} accepted sets", jobs.len());
    jobs
}

/// What one set's checks saw, for the coverage asserts.
#[derive(Default)]
struct Tally {
    round_hits: u64,
    seed_hits: u64,
    probing_sets: usize,
    probe_hits: u64,
    truncated: usize,
}

impl Tally {
    fn add(mut self, other: Tally) -> Tally {
        self.round_hits += other.round_hits;
        self.seed_hits += other.seed_hits;
        self.probing_sets += other.probing_sets;
        self.probe_hits += other.probe_hits;
        self.truncated += other.truncated;
        self
    }
}

fn check(job: &Job) -> Tally {
    let ep = DpcpProtocol::ep();
    let search = PlacementSearch::new(SearchConfig {
        probe_budget: 16,
        ..SearchConfig::default()
    });
    let (tasks, platform, label) = (&job.tasks, &job.platform, &job.label);

    // Algorithm 1 on a fresh session: every hit is a repeat inside its
    // own rounds.
    let mut warm = AnalysisSession::new(job.cfg.clone());
    let first = warm.run(&ep, tasks, platform, WFD);
    let rounds = warm.memo_counters();
    // The search's WFD seed repeats that evaluation on the same session.
    let again = warm.run(&ep, tasks, platform, WFD);
    assert_eq!(first, again, "{label}: a repeated evaluation changed");
    let seeded = warm.memo_counters();

    // A search on the warm session equals a fresh session's.
    let searched = search.run(&mut warm, &ep, tasks, platform, WFD);
    let mut fresh = AnalysisSession::new(job.cfg.clone());
    let cold = search.run(&mut fresh, &ep, tasks, platform, WFD);
    assert_eq!(searched, cold, "{label}: a warm memo changed the search");

    // The probes' hits: the fresh search's, less those of its seeds
    // alone (every seed fails when the search probes, so all three run).
    let mut probe_hits = 0;
    if cold.probes > 0 {
        let mut seeds = AnalysisSession::new(job.cfg.clone());
        for h in SEEDS {
            assert!(!seeds.run(&ep, tasks, platform, h).is_schedulable());
        }
        probe_hits = fresh.memo_counters().hits - seeds.memo_counters().hits;
    }
    let truncated = match &first {
        PartitionOutcome::Schedulable { report, .. } => report.truncated,
        PartitionOutcome::Unschedulable { .. } => false,
    };
    Tally {
        round_hits: rounds.hits,
        seed_hits: seeded.hits - rounds.hits,
        probing_sets: usize::from(cold.probes > 0),
        probe_hits,
        truncated: usize::from(truncated),
    }
}

fn sweep(jobs: &[Job]) -> Tally {
    jobs.par_iter()
        .map(check)
        .collect::<Vec<_>>()
        .into_iter()
        .fold(Tally::default(), Tally::add)
}

#[test]
fn the_memo_serves_algorithm1_rounds_search_seeds_and_probes() {
    let mut jobs = Vec::new();
    for panel in Fig2Panel::all() {
        jobs.extend(fig2(panel, &[0.1, 0.2, 0.4, 0.6], 2));
    }
    let capped = AnalysisConfig {
        path_signature_cap: 1,
        ..AnalysisConfig::ep()
    };
    let ep = AnalysisConfig::ep();
    let mixed = draws(&small(0.3, None, false), &ep, &[0.3, 0.5], 1, 10);
    assert!(
        mixed
            .iter()
            .all(|job| job.tasks.iter().any(|t| !t.is_heavy())),
        "the light-fraction scenario must produce light tasks"
    );
    let rw = draws(&small(0.0, Some(0.5), false), &ep, &[0.3, 0.5], 1, 11);
    assert!(
        rw.iter().any(|job| job.tasks.has_reads()),
        "the reader-writer scenario must produce read requests"
    );
    jobs.extend(mixed);
    jobs.extend(rw);
    jobs.extend(draws(&small(0.0, None, false), &capped, &[0.2, 0.4], 1, 12));
    jobs.extend(draws(&small(0.0, None, true), &ep, &[0.6, 0.7, 0.8], 2, 13));
    let tally = sweep(&jobs);
    assert!(tally.round_hits > 0, "no hit inside Algorithm 1's rounds");
    assert!(tally.seed_hits > 0, "no hit in a repeated WFD evaluation");
    assert!(tally.probing_sets > 0, "no search reached its probe loop");
    assert!(tally.probe_hits > 0, "no hit inside the search's probes");
    assert!(
        tally.truncated > 0,
        "no accepted report holds a truncated task"
    );
}

#[test]
fn a_budget_change_never_serves_another_budgets_bounds() {
    let mut switched = [0; 2];
    for job in accepted_fig2() {
        let mut session = AnalysisSession::new(job.cfg.clone());
        let mut outcomes = Vec::new();
        for budget in [512, 3, 2] {
            let cfg = AnalysisConfig {
                max_fixpoint_iterations: budget,
                ..job.cfg.clone()
            };
            session.set_config(cfg.clone());
            let got = session.partition_and_analyze(&job.tasks, &job.platform, WFD);
            let fresh =
                AnalysisSession::new(cfg).partition_and_analyze(&job.tasks, &job.platform, WFD);
            assert_eq!(got, fresh, "{}, budget {budget}", job.label);
            outcomes.push(got);
        }
        switched[0] += usize::from(outcomes[0] != outcomes[1]);
        switched[1] += usize::from(outcomes[1] != outcomes[2]);
    }
    assert!(
        switched.iter().all(|&n| n > 0),
        "sets whose outcome differs between budgets 512 and 3, and 3 and 2: {switched:?}"
    );
}

#[test]
fn en_never_reads_the_ep_memo() {
    let en_cfg = AnalysisConfig::en();
    let mut differ = 0;
    for job in accepted_fig2() {
        let (tasks, platform, label) = (&job.tasks, &job.platform, &job.label);
        let mut session = AnalysisSession::new(job.cfg.clone());
        let ep = session.partition_and_analyze(tasks, platform, WFD);
        let before = session.memo_counters();
        assert!(before.entries > 0, "{label}: EP stored nothing");
        let en = session.with_config(en_cfg.clone(), |s| {
            s.partition_and_analyze(tasks, platform, WFD)
        });
        assert_eq!(
            session.memo_counters(),
            before,
            "{label}: EN touched the memo"
        );
        let ep_again = session.partition_and_analyze(tasks, platform, WFD);
        let fresh_en =
            AnalysisSession::new(en_cfg.clone()).partition_and_analyze(tasks, platform, WFD);
        let fresh_ep =
            AnalysisSession::new(job.cfg.clone()).partition_and_analyze(tasks, platform, WFD);
        assert_eq!(en, fresh_en, "{label}: EN after EP");
        assert_eq!(
            (&ep, &ep_again),
            (&fresh_ep, &fresh_ep),
            "{label}: EP around EN"
        );
        differ += usize::from(ep != en);
    }
    assert!(differ > 0, "no set's EP and EN outcomes differ");
}

#[test]
fn caller_provided_signatures_never_read_or_fill_the_memo() {
    for job in accepted_fig2() {
        let (tasks, label) = (&job.tasks, &job.label);
        let mut session = AnalysisSession::new(job.cfg.clone());
        let outcome = session.partition_and_analyze(tasks, &job.platform, WFD);
        let before = session.memo_counters();
        assert!(before.entries > 0, "{label}: EP stored nothing");
        let PartitionOutcome::Schedulable { partition, .. } = &outcome else {
            panic!("{label}: the set was drawn as accepted");
        };
        let eager = SignatureCache::new(tasks, &job.cfg);
        let fresh = AnalysisSession::new(job.cfg.clone()).analyze(tasks, partition);
        for _ in 0..2 {
            let report = session.analyze_with_signatures(tasks, partition, &eager);
            assert_eq!(report, fresh, "{label}");
        }
        assert_eq!(
            session.memo_counters(),
            before,
            "{label}: the session memo moved"
        );
        assert_eq!(
            eager.memo_counters(),
            MemoCounters::default(),
            "{label}: an eager cache memoised"
        );
    }
}

#[test]
fn a_new_task_set_starts_an_empty_memo() {
    let jobs = accepted_fig2();
    for pair in jobs.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let mut session = AnalysisSession::new(a.cfg.clone());
        session.partition_and_analyze(&a.tasks, &a.platform, WFD);
        assert!(
            session.memo_counters().entries > 0,
            "{}: EP stored nothing",
            a.label
        );
        // A clone of the same set keeps the memo.
        let kept = session.memo_counters();
        session.partition_and_analyze(&a.tasks.clone(), &a.platform, WFD);
        assert!(
            session.memo_counters().hits > kept.hits,
            "{}: a clone lost the memo",
            a.label
        );

        let on_b = session.partition_and_analyze(&b.tasks, &b.platform, WFD);
        let mut fresh = AnalysisSession::new(b.cfg.clone());
        assert_eq!(
            on_b,
            fresh.partition_and_analyze(&b.tasks, &b.platform, WFD),
            "{}",
            b.label
        );
        assert_eq!(
            session.memo_counters(),
            fresh.memo_counters(),
            "{} after {}",
            b.label,
            a.label
        );
    }
}
