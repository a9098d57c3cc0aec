//! Decision equivalence of the first-failure Algorithm 1 rounds.
//!
//! The session's DPCP-p entry points (`partition_and_analyze`,
//! `partition_and_analyze_mixed`) stop every round at its first failing
//! task, and under EP prove most failures from the longest path before
//! enumerating anything. The reference here is a `SchedAnalyzer` whose
//! `analyze` runs a session's full `analyze_with_signatures` (or
//! `analyze_mixed_with_signatures`) over signatures enumerated up front,
//! which declares the entry point's placement and keeps the trait's
//! default `first_failure`: full report, then scan. Caller-provided
//! signatures carry no task-bound memo, so the reference solves every
//! task from scratch, while the session under test reuses its memo across
//! rounds, heuristics and budgets. Both drive the one Algorithm 1 loop
//! (the reference through `partition_with`), so every outcome must match
//! exactly: `schedulable`, `rounds`, the rejecting reason and task, the
//! accepted partition and every byte of each accepted report.
//!
//! The seeded sweep covers Fig. 2 panels A–D (heavy-only), a
//! light-fraction scenario (the Sec. VI shared light pool), the fuzz
//! manifests' hostile shapes (64-layer and fork-join DAGs of hundreds of
//! vertices, light and heavy), a reader-writer scenario and a signature
//! cap that truncates every task, under both DPCP-p variants, all three
//! heuristics and fixed-point budgets {2, 3, 5, 512}.

use dpcp_p::core::analysis::{EvalScratch, SchedulabilityReport, SignatureCache};
use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_p::core::{AnalysisConfig, AnalysisSession, AnalysisVerdict, Placement, SchedAnalyzer};
use dpcp_p::gen::scenario::{Fig2Panel, Scenario};
use dpcp_p::gen::GraphShape;
use dpcp_p::model::{Partition, Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

const BUDGETS: [usize; 4] = [2, 3, 5, 512];
const HEURISTICS: [ResourceHeuristic; 3] = [
    ResourceHeuristic::WorstFitDecreasing,
    ResourceHeuristic::FirstFitDecreasing,
    ResourceHeuristic::BestFitDecreasing,
];

/// The memo-free full-report reference: a session's full analysis over
/// eagerly enumerated signatures, behind the trait's default
/// `first_failure`.
struct Reference<'a> {
    cfg: AnalysisConfig,
    signatures: &'a SignatureCache,
    mixed: bool,
}

impl SchedAnalyzer for Reference<'_> {
    fn placement(&self) -> Placement {
        if self.mixed {
            Placement::SharedLightPool
        } else {
            Placement::DesignatedHomes
        }
    }

    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        _: &mut EvalScratch,
    ) -> SchedulabilityReport {
        let mut session = AnalysisSession::new(self.cfg.clone());
        if self.mixed {
            session.analyze_mixed_with_signatures(tasks, partition, self.signatures)
        } else {
            session.analyze_with_signatures(tasks, partition, self.signatures)
        }
    }
}

/// What one comparison saw, for the coverage asserts.
#[derive(Default)]
struct Tally {
    compared: usize,
    accepted: usize,
    rejected_by_task: usize,
    topped_up: usize,
    truncated_reports: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.compared += other.compared;
        self.accepted += other.accepted;
        self.rejected_by_task += other.rejected_by_task;
        self.topped_up += other.topped_up;
        self.truncated_reports += other.truncated_reports;
    }
}

fn verdict_bytes(outcome: &PartitionOutcome) -> String {
    serde_json::to_string(&AnalysisVerdict::from_outcome("decision-first", 0, outcome))
        .expect("verdicts serialize")
}

/// Compares the session's loop with the reference loop on one set under
/// every variant, budget and heuristic.
fn compare(tasks: &TaskSet, platform: &Platform, base: &AnalysisConfig, label: &str) -> Tally {
    let mixed = tasks.iter().any(|t| !t.is_heavy());
    let signatures = SignatureCache::new(tasks, base);
    let mut tally = Tally::default();
    for variant in [AnalysisConfig::ep(), AnalysisConfig::en()] {
        let mut decided = AnalysisSession::new(base.clone());
        let mut full = AnalysisSession::new(base.clone());
        for budget in BUDGETS {
            let cfg = AnalysisConfig {
                variant: variant.variant,
                max_fixpoint_iterations: budget,
                ..base.clone()
            };
            decided.set_config(cfg.clone());
            let reference = Reference {
                cfg: cfg.clone(),
                signatures: &signatures,
                mixed,
            };
            for heuristic in HEURISTICS {
                let got = if mixed {
                    decided.partition_and_analyze_mixed(tasks, platform, heuristic)
                } else {
                    decided.partition_and_analyze(tasks, platform, heuristic)
                };
                let want = full.partition_with(tasks, platform, heuristic, &reference);
                let context = format!("{label}, {:?}, budget {budget}, {heuristic:?}", cfg.variant);
                assert_eq!(got, want, "{context}");
                assert_eq!(verdict_bytes(&got), verdict_bytes(&want), "{context}");
                tally.compared += 1;
                match &got {
                    PartitionOutcome::Schedulable { report, rounds, .. } => {
                        tally.accepted += 1;
                        tally.topped_up += usize::from(*rounds > 1);
                        tally.truncated_reports += usize::from(report.truncated);
                    }
                    PartitionOutcome::Unschedulable { reason, rounds } => {
                        tally.topped_up += usize::from(*rounds > 1);
                        tally.rejected_by_task += usize::from(matches!(
                            reason,
                            dpcp_p::core::UnschedulableReason::TaskUnschedulable { .. }
                        ));
                    }
                }
            }
        }
    }
    tally
}

/// One set to compare under a base configuration.
struct Job {
    label: String,
    tasks: TaskSet,
    platform: Platform,
    cfg: AnalysisConfig,
}

/// Draws `samples` sets per normalized load, each from a seed that is a
/// pure function of its coordinates; draws the generator rejects are
/// skipped.
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
            let seed = 0xDEC1_0000 + tag * 10_000 + (l as u64) * 100 + sample;
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

/// The fuzz manifests' hostile axes (`ci/fuzz_smoke.json`) with one
/// graph shape and light fraction.
fn hostile(graph_shape: GraphShape, light_fraction: f64) -> Scenario {
    Scenario {
        m: 4,
        nr_range: (2, 4),
        u_avg: 0.75,
        access_prob: 0.75,
        max_requests: 10,
        cs_range_us: (1, 300),
        graph_shape,
        light_fraction,
        vertex_range: Some((200, 1000)),
        cs_budget_fraction: Some(1.0),
        rw_share: None,
    }
}

fn small(light_fraction: f64, rw_share: Option<f64>) -> Scenario {
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

fn sweep(jobs: &[Job]) -> Tally {
    jobs.par_iter()
        .map(|job| compare(&job.tasks, &job.platform, &job.cfg, &job.label))
        .collect::<Vec<_>>()
        .into_iter()
        .fold(Tally::default(), |mut acc, t| {
            acc.add(t);
            acc
        })
}

#[test]
fn fig2_panels_decide_exactly_like_the_full_analysis() {
    let mut jobs = Vec::new();
    for (tag, panel) in Fig2Panel::all().into_iter().enumerate() {
        let scenario = Scenario::fig2(panel);
        let ep = AnalysisConfig::ep();
        jobs.extend(draws(&scenario, &ep, &[0.1, 0.2, 0.4, 0.6], 2, tag as u64));
    }
    let tally = sweep(&jobs);
    assert!(tally.compared >= 32 * 24, "{} comparisons", tally.compared);
    assert!(tally.accepted > 0, "no accepted outcome");
    assert!(tally.rejected_by_task > 0, "no task-rejected outcome");
    assert!(tally.topped_up > 0, "no outcome took a top-up round");
}

#[test]
fn mixed_hostile_rw_and_truncated_sets_decide_exactly_like_the_full_analysis() {
    let capped = AnalysisConfig {
        path_signature_cap: 1,
        ..AnalysisConfig::ep()
    };
    let scenarios = [
        (small(0.3, None), AnalysisConfig::ep()),
        (small(0.0, Some(0.5)), AnalysisConfig::ep()),
        (small(0.0, None), capped),
        (
            hostile(GraphShape::Layered { layers: 64 }, 0.0),
            AnalysisConfig::ep(),
        ),
        (hostile(GraphShape::ForkJoin, 0.5), AnalysisConfig::ep()),
    ];
    let drawn: Vec<Vec<Job>> = scenarios
        .iter()
        .enumerate()
        .map(|(tag, (scenario, cfg))| draws(scenario, cfg, &[0.3, 0.45, 0.6], 2, 10 + tag as u64))
        .collect();
    assert!(
        drawn.iter().all(|jobs| !jobs.is_empty()),
        "every scenario generates a set"
    );
    assert!(
        drawn[0]
            .iter()
            .all(|job| job.tasks.iter().any(|t| !t.is_heavy())),
        "the light-fraction scenario must produce light tasks"
    );
    assert!(
        drawn[1].iter().any(|job| job.tasks.has_reads()),
        "the reader-writer scenario must produce read requests"
    );
    let tally = sweep(&drawn.into_iter().flatten().collect::<Vec<_>>());
    assert!(tally.accepted > 0, "no accepted outcome");
    assert!(tally.rejected_by_task > 0, "no task-rejected outcome");
    assert!(tally.topped_up > 0, "no outcome took a top-up round");
    assert!(
        tally.truncated_reports > 0,
        "no accepted report holds a truncated task"
    );
}
