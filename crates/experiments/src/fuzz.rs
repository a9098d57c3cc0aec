//! Adversarial differential fuzzing: hostile scenario sweeps checked
//! against the discrete-event simulator.
//!
//! The campaign engine asserts *determinism* — every optimization is
//! bit-identical to a reference. This module asserts *soundness*: for
//! every task set the analysis accepts, the simulator runs the system
//! under an adversarial (but sporadic-legal) release pattern and checks
//! the observed response times against the proven bounds. Any
//! `observed > bound`, deadline miss, Lemma 1 violation or
//! work-conservation violation is a **soundness violation** — a hard
//! failure that ships with a minimized, self-contained JSON repro
//! bundle (see [`ReproBundle`] and the `fuzz replay` subcommand).
//!
//! The sweep runs on the campaign's shard engine: a [`FuzzManifest`]
//! expands to an ordered cell grid, and a [`FuzzRun`] (manifest plus
//! canary) implements [`Sweep`], so shards checkpoint append-only JSONL
//! with header-pinned identity, cells run panic-isolated in waves, and
//! every byte of the merged output is a pure function of
//! `(manifest, canary)` — identical across any shard/thread/resume
//! split. This module only adds the fuzz cell, its header and its
//! outputs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use dpcp_core::partition::{PartitionOutcome, ResourceHeuristic};
use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisSession};
use dpcp_gen::scenario::Scenario;
use dpcp_model::{
    Dag, DagTask, Partition, Platform, ResourceId, TaskId, TaskSet, Time, VertexSpec,
};
use dpcp_sim::{simulate, ReleaseModel, SimConfig};

use crate::campaign::{
    rows_by_index, write_files, CampaignError, CellFailure, MergeOutcome, ShardSpec, Sweep,
};
use crate::harness::{generate_task_set, sample_seed, standard_registry};
use crate::manifest::{validate_sweep, write_only_error, AxisSpec, ManifestError, QuickOverrides};

/// Seed-domain separator between the generation stream and the
/// simulation stream: the simulator must never replay the generator's
/// draws, or schedules would correlate with task-set structure.
const SIM_SEED_SALT: u64 = 0xF022_5EED;

/// Hard cap on oracle re-evaluations inside one shrink (the shrinker is
/// deterministic, so this is a size bound, not a timeout).
const SHRINK_EVAL_CAP: usize = 500;

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// A declarative fuzz sweep: hostile scenario axes × release models at
/// near-overload utilizations, with per-cell simulation budgets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzManifest {
    /// Campaign name (output directory component, shard-header identity).
    pub name: String,
    /// Base RNG seed; generation streams derive from
    /// `(seed, point, sample, retry)`, simulation streams from the
    /// salted seed — identically for any shard split or thread count.
    pub seed: u64,
    /// Task sets generated per utilization point.
    pub samples_per_point: usize,
    /// Generation retries before a sample is skipped; omitted → 8.
    pub generation_retries: Option<usize>,
    /// Registry name of the analysis under test; omitted → `"DPCP-p-EP"`.
    pub method: Option<String>,
    /// The hostile scenario axes (shares the campaign axis schema,
    /// including `vertex_range` / `cs_budget_fraction` / `graph_shape`).
    pub axes: AxisSpec,
    /// Normalized utilization points (`U/m`), typically near-overload
    /// (e.g. `[0.9, 0.95, 1.0]`).
    pub normalized_utilization: Vec<f64>,
    /// Release models the simulator stresses each scenario with;
    /// omitted → `[Periodic]`. Every model keeps inter-arrival gaps
    /// ≥ `T`, so violations are true soundness failures, not modelling
    /// artifacts.
    pub release: Option<Vec<ReleaseModel>>,
    /// Simulated horizon per sample, in milliseconds; omitted → 200.
    pub sim_ms: Option<u64>,
    /// Per-sample simulation event budget; when the engine hits it the
    /// sample degrades to a `Budget` verdict instead of hanging;
    /// omitted → 5,000,000.
    pub max_sim_events: Option<u64>,
    /// Quick-mode overrides (`fuzz run --quick`, the CI smoke gate).
    pub quick: Option<QuickOverrides>,
}

impl FuzzManifest {
    /// Parses and validates a fuzz manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed JSON or an invalid
    /// declaration.
    pub fn from_json(text: &str) -> Result<FuzzManifest, ManifestError> {
        let manifest: FuzzManifest =
            serde_json::from_str(text).map_err(|e| ManifestError::new(e.to_string()))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// Validates the declaration.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ManifestError> {
        let err = |m: &str| Err(ManifestError::new(m));
        validate_sweep(
            &self.name,
            self.samples_per_point,
            &self.axes,
            Some(&self.normalized_utilization),
        )?;
        if let Some(models) = &self.release {
            if models.is_empty() {
                return err("release, when present, must be non-empty");
            }
            for model in models {
                match *model {
                    ReleaseModel::Periodic => {}
                    ReleaseModel::Sporadic { jitter } => {
                        if !jitter.is_finite() || jitter < 0.0 {
                            return err("sporadic jitter must be finite and non-negative");
                        }
                    }
                    ReleaseModel::Bursty { burst, pause } => {
                        if burst == 0 {
                            return err("bursty release needs at least one job per burst");
                        }
                        if !pause.is_finite() || pause < 0.0 {
                            return err("bursty pause must be finite and non-negative");
                        }
                    }
                }
            }
        }
        if self.sim_ms == Some(0) {
            return err("sim_ms must be positive");
        }
        if self.max_sim_events == Some(0) {
            return err("max_sim_events must be positive");
        }
        let method = self.method.as_deref().unwrap_or("DPCP-p-EP");
        let Some(protocol) = standard_registry().resolve(method) else {
            return Err(ManifestError::new(format!(
                "unknown method '{}' — known methods: {}",
                method,
                standard_registry().names().join(", ")
            )));
        };
        if self.axes.draws_reads() && !protocol.supports_rw() {
            return Err(write_only_error(
                method,
                "the rw_share axis",
                "fuzz an rw-aware method instead",
            ));
        }
        Ok(())
    }

    /// Expands the manifest into the ordered fuzz cell grid: scenarios
    /// (campaign axis order) × release models, dense indices.
    pub fn cells(&self, quick: bool) -> Vec<FuzzCellSpec> {
        let (samples, scenarios, quick_points) = QuickOverrides::scale(
            quick,
            self.quick.as_ref(),
            self.samples_per_point,
            &self.axes,
        );
        let normalized = quick_points.unwrap_or_else(|| self.normalized_utilization.clone());
        let releases = self
            .release
            .clone()
            .unwrap_or_else(|| vec![ReleaseModel::Periodic]);
        let method = self
            .method
            .clone()
            .unwrap_or_else(|| "DPCP-p-EP".to_string());
        let retries = self.generation_retries.unwrap_or(8);
        let sim_duration = Time::from_ms(self.sim_ms.unwrap_or(200));
        let max_events = self.max_sim_events.unwrap_or(5_000_000);
        let mut cells = Vec::with_capacity(scenarios.len() * releases.len());
        for scenario in &scenarios {
            let utilizations: Vec<f64> = normalized.iter().map(|p| p * scenario.m as f64).collect();
            for &release in &releases {
                cells.push(FuzzCellSpec {
                    index: cells.len(),
                    scenario: scenario.clone(),
                    release,
                    method: method.clone(),
                    utilizations: utilizations.clone(),
                    samples_per_point: samples,
                    generation_retries: retries,
                    seed: self.seed,
                    sim_duration,
                    max_events,
                });
            }
        }
        cells
    }
}

/// One unit of fuzz work: a scenario × release-model pair with its
/// resolved budgets and utilization points.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCellSpec {
    /// Position in the expanded grid (stable across shards/resumes).
    pub index: usize,
    /// The hostile scenario generating the workloads.
    pub scenario: Scenario,
    /// The release pattern the simulator stresses the cell with.
    pub release: ReleaseModel,
    /// Registry name of the analysis under test.
    pub method: String,
    /// Total-utilization points, ascending.
    pub utilizations: Vec<f64>,
    /// Task sets generated per point.
    pub samples_per_point: usize,
    /// Generation retries before a sample is skipped.
    pub generation_retries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Simulated horizon per sample.
    pub sim_duration: Time,
    /// Per-sample simulation event budget.
    pub max_events: u64,
}

/// A compact, filesystem-safe label for a release model (CSV cells,
/// bundle identities).
pub fn release_label(release: ReleaseModel) -> String {
    match release {
        ReleaseModel::Periodic => "per".to_string(),
        ReleaseModel::Sporadic { jitter } => format!("spo{jitter}"),
        ReleaseModel::Bursty { burst, pause } => format!("bur{burst}x{pause}"),
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Everything the differential oracle needs to re-run one sample end to
/// end (also the replay configuration embedded in a [`ReproBundle`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOracleConfig {
    /// Registry name of the analysis under test.
    pub method: String,
    /// Release pattern for the simulation phase.
    pub release: ReleaseModel,
    /// Simulation seed (salted, disjoint from the generation stream).
    pub sim_seed: u64,
    /// Simulated horizon.
    pub sim_duration: Time,
    /// Simulation event budget.
    pub max_events: u64,
    /// Test-only bound weakening: bounds are multiplied by this factor
    /// *at the comparison* (the analysis itself is untouched). `None`
    /// in production sweeps; the canary self-test sets it `< 1` to
    /// prove the oracle trips.
    pub canary_scale: Option<f64>,
    /// Analysis configuration (the paper's EP defaults).
    pub ep_config: AnalysisConfig,
}

/// How one fuzz sample ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The analysis rejected the set — nothing to check.
    Rejected,
    /// Analysis accepted and simulation stayed within every bound; the
    /// per-task `observed / bound` pessimism gaps are recorded.
    Sound {
        /// `observed / bound` per task that completed at least one job.
        gaps: Vec<f64>,
    },
    /// The simulation hit its event budget before the horizon with no
    /// violation observed — graceful degradation, tracked per cell.
    Budget,
    /// A soundness violation: the simulator contradicted the analysis.
    Violation(ViolationReport),
}

/// The first violated property of one simulated sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A task's observed response exceeded its (possibly canary-scaled)
    /// analysis bound.
    BoundExceeded {
        /// Task index.
        task: usize,
        /// The compared bound, in nanoseconds.
        bound_ns: u64,
        /// The observed maximum response, in nanoseconds.
        observed_ns: u64,
    },
    /// A task missed at least one deadline.
    DeadlineMiss {
        /// Task index.
        task: usize,
        /// Number of observed misses.
        misses: u64,
    },
    /// The simulator's online Lemma 1 check fired.
    Lemma1 {
        /// Number of violations.
        count: u64,
    },
    /// A cluster idled a processor while it had ready vertices.
    WorkConservation {
        /// Number of violations.
        count: u64,
    },
}

/// A soundness violation plus the full bound/observation vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// The first violated property.
    pub kind: ViolationKind,
    /// Per-task analysis bounds in nanoseconds (after canary scaling),
    /// `None` where the recurrence diverged.
    pub bounds_ns: Vec<Option<u64>>,
    /// Per-task observed maximum responses in nanoseconds.
    pub observed_ns: Vec<u64>,
}

/// The oracle's full outcome: the verdict plus the accepted partition
/// (needed by repro bundles).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutcome {
    /// How the sample ended.
    pub verdict: Verdict,
    /// The partition the analysis accepted (`None` when rejected).
    pub partition: Option<Partition>,
}

/// Runs the differential oracle on one task set: analyze, and if
/// accepted, simulate under the hostile release model and classify.
///
/// Violations are checked **before** the budget: a violation observed
/// inside a budget-capped run still counts.
///
/// # Errors
///
/// Returns [`CampaignError`] when the configured method is not in the
/// registry.
pub fn run_oracle(
    tasks: &TaskSet,
    platform: &Platform,
    cfg: &FuzzOracleConfig,
) -> Result<OracleOutcome, CampaignError> {
    let registry = standard_registry();
    let protocol = registry.resolve(&cfg.method).ok_or_else(|| {
        CampaignError::from_message(format!("unknown oracle method '{}'", cfg.method))
    })?;
    let mut session = AnalysisSession::new(cfg.ep_config.clone());
    let outcome = session.run(
        protocol,
        tasks,
        platform,
        ResourceHeuristic::WorstFitDecreasing,
    );
    let PartitionOutcome::Schedulable {
        partition, report, ..
    } = outcome
    else {
        return Ok(OracleOutcome {
            verdict: Verdict::Rejected,
            partition: None,
        });
    };
    let sim_cfg = SimConfig {
        duration: cfg.sim_duration,
        seed: cfg.sim_seed,
        release: cfg.release,
        trace: false,
        check_invariants: true,
        max_events: cfg.max_events,
    };
    let result = simulate(tasks, &partition, &sim_cfg);
    let scale = cfg.canary_scale.unwrap_or(1.0);
    let bounds_ns: Vec<Option<u64>> = report
        .task_bounds
        .iter()
        .map(|tb| tb.wcrt.map(|w| (w.as_ns() as f64 * scale).round() as u64))
        .collect();
    let observed_ns: Vec<u64> = result
        .per_task
        .iter()
        .map(|st| st.max_response.as_ns())
        .collect();
    let violation = |kind: ViolationKind| {
        Verdict::Violation(ViolationReport {
            kind,
            bounds_ns: bounds_ns.clone(),
            observed_ns: observed_ns.clone(),
        })
    };
    let mut verdict = None;
    for (task, (bound, &observed)) in bounds_ns.iter().zip(&observed_ns).enumerate() {
        if let Some(bound) = *bound {
            if observed > bound {
                verdict = Some(violation(ViolationKind::BoundExceeded {
                    task,
                    bound_ns: bound,
                    observed_ns: observed,
                }));
                break;
            }
        }
    }
    if verdict.is_none() {
        for (task, st) in result.per_task.iter().enumerate() {
            if st.deadline_misses > 0 {
                verdict = Some(violation(ViolationKind::DeadlineMiss {
                    task,
                    misses: st.deadline_misses,
                }));
                break;
            }
        }
    }
    if verdict.is_none() && result.lemma1_violations > 0 {
        verdict = Some(violation(ViolationKind::Lemma1 {
            count: result.lemma1_violations,
        }));
    }
    if verdict.is_none() && result.work_conservation_violations > 0 {
        verdict = Some(violation(ViolationKind::WorkConservation {
            count: result.work_conservation_violations,
        }));
    }
    let verdict = verdict.unwrap_or_else(|| {
        if result.events_processed >= cfg.max_events {
            Verdict::Budget
        } else {
            let gaps: Vec<f64> = bounds_ns
                .iter()
                .zip(&result.per_task)
                .filter(|(bound, st)| st.jobs_completed > 0 && matches!(bound, Some(b) if *b > 0))
                .map(|(bound, st)| st.max_response.as_ns() as f64 / bound.unwrap_or(1) as f64)
                .collect();
            Verdict::Sound { gaps }
        }
    });
    Ok(OracleOutcome {
        verdict,
        partition: Some(partition),
    })
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// Rebuilds a task set from a task subset, renumbering IDs densely (the
/// model requires dense IDs; `TaskSet::new` reassigns RM priorities
/// deterministically).
fn rebuild_set(tasks: &[&DagTask], resource_count: usize) -> Option<TaskSet> {
    let rebuilt: Option<Vec<DagTask>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| clone_task(t, i, None))
        .collect();
    TaskSet::new(rebuilt?, resource_count).ok()
}

/// Clones a task under a new ID, optionally replacing its DAG and
/// vertices. Critical sections are re-declared only for resources the
/// (possibly reduced) vertex set still requests.
fn clone_task(
    task: &DagTask,
    id: usize,
    replace: Option<(Dag, Vec<VertexSpec>)>,
) -> Option<DagTask> {
    let (dag, vertices) = match replace {
        Some((dag, vertices)) => (dag, vertices),
        None => (task.dag().clone(), task.vertices().to_vec()),
    };
    let used: BTreeSet<ResourceId> = vertices
        .iter()
        .flat_map(|v| v.requests().iter().map(|r| r.resource))
        .collect();
    let mut builder = DagTask::builder(TaskId::new(id), task.period())
        .deadline(task.deadline())
        .dag(dag)
        .vertex_specs(vertices);
    for q in used {
        builder = builder.critical_section(q, task.cs_length(q)?);
    }
    builder.build().ok()
}

/// The victim vertex removed, predecessors bridged to successors, and
/// indices above the victim shifted down.
fn drop_vertex(task: &DagTask, victim: usize) -> Option<(Dag, Vec<VertexSpec>)> {
    let dag = task.dag();
    let n = dag.vertex_count();
    if n <= 1 {
        return None;
    }
    let remap = |v: usize| if v > victim { v - 1 } else { v };
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for v in dag.vertices() {
        if v.index() == victim {
            continue;
        }
        for &s in dag.successors(v) {
            if s.index() == victim {
                continue;
            }
            edges.insert((remap(v.index()), remap(s.index())));
        }
    }
    let victim_id = dpcp_model::VertexId::new(victim);
    for &p in dag.predecessors(victim_id) {
        for &s in dag.successors(victim_id) {
            edges.insert((remap(p.index()), remap(s.index())));
        }
    }
    let dag = Dag::new(n - 1, edges).ok()?;
    let vertices: Vec<VertexSpec> = task
        .vertices()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, v)| v.clone())
        .collect();
    Some((dag, vertices))
}

/// Every vertex WCET and every critical-section length halved (floors at
/// 1 ns). The model builder re-validates containment; an infeasible
/// halving is simply skipped by the caller.
fn halve_task(task: &DagTask, id: usize) -> Option<DagTask> {
    let vertices: Vec<VertexSpec> = task
        .vertices()
        .iter()
        .map(|v| {
            let w = Time::from_ns((v.wcet().as_ns() / 2).max(1));
            VertexSpec::with_requests(w, v.requests().iter().copied())
        })
        .collect();
    let used: BTreeSet<ResourceId> = vertices
        .iter()
        .flat_map(|v| v.requests().iter().map(|r| r.resource))
        .collect();
    let mut builder = DagTask::builder(TaskId::new(id), task.period())
        .deadline(task.deadline())
        .dag(task.dag().clone())
        .vertex_specs(vertices);
    for q in used {
        let halved = Time::from_ns((task.cs_length(q)?.as_ns() / 2).max(1));
        builder = builder.critical_section(q, halved);
    }
    builder.build().ok()
}

/// Deterministic delta-debugging shrinker: repeats three fixed-order
/// passes — drop whole tasks, drop single vertices (bridging their
/// edges), halve WCETs and critical sections — keeping each mutation iff
/// the oracle still reports *a* violation (the kind may change), until a
/// fixpoint or the evaluation cap. Returns the minimized set and the
/// number of accepted mutations.
pub fn shrink_violation(
    tasks: &TaskSet,
    platform: &Platform,
    cfg: &FuzzOracleConfig,
) -> (TaskSet, usize) {
    let mut current = tasks.clone();
    let mut steps = 0usize;
    let mut evals = 0usize;
    let still_violates = |candidate: &TaskSet, evals: &mut usize| -> bool {
        if *evals >= SHRINK_EVAL_CAP {
            return false;
        }
        *evals += 1;
        matches!(
            run_oracle(candidate, platform, cfg),
            Ok(OracleOutcome {
                verdict: Verdict::Violation(_),
                ..
            })
        )
    };
    loop {
        let mut changed = false;
        // Pass 1: drop whole tasks, ascending.
        let mut i = 0;
        while i < current.len() {
            if current.len() > 1 {
                let remaining: Vec<&DagTask> = current
                    .tasks()
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != i)
                    .map(|(_, t)| t)
                    .collect();
                if let Some(candidate) = rebuild_set(&remaining, current.resource_count()) {
                    if still_violates(&candidate, &mut evals) {
                        current = candidate;
                        steps += 1;
                        changed = true;
                        continue; // same index now names the next task
                    }
                }
            }
            i += 1;
        }
        // Pass 2: drop single vertices, task-major, ascending.
        for ti in 0..current.len() {
            let mut v = 0;
            loop {
                let task = &current.tasks()[ti];
                if v >= task.dag().vertex_count() {
                    break;
                }
                let candidate = drop_vertex(task, v).and_then(|replacement| {
                    let rebuilt: Option<Vec<DagTask>> = current
                        .tasks()
                        .iter()
                        .enumerate()
                        .map(|(k, t)| {
                            if k == ti {
                                clone_task(t, k, Some(replacement.clone()))
                            } else {
                                clone_task(t, k, None)
                            }
                        })
                        .collect();
                    TaskSet::new(rebuilt?, current.resource_count()).ok()
                });
                match candidate {
                    Some(candidate) if still_violates(&candidate, &mut evals) => {
                        current = candidate;
                        steps += 1;
                        changed = true;
                        // same v now names the next vertex
                    }
                    _ => v += 1,
                }
            }
        }
        // Pass 3: halve WCETs / critical sections, one task at a time.
        for ti in 0..current.len() {
            let candidate = halve_task(&current.tasks()[ti], ti).and_then(|halved| {
                let rebuilt: Option<Vec<DagTask>> = current
                    .tasks()
                    .iter()
                    .enumerate()
                    .map(|(k, t)| {
                        if k == ti {
                            Some(halved.clone())
                        } else {
                            clone_task(t, k, None)
                        }
                    })
                    .collect();
                TaskSet::new(rebuilt?, current.resource_count()).ok()
            });
            if let Some(candidate) = candidate {
                if still_violates(&candidate, &mut evals) {
                    current = candidate;
                    steps += 1;
                    changed = true;
                }
            }
        }
        if !changed || evals >= SHRINK_EVAL_CAP {
            break;
        }
    }
    (current, steps)
}

// ---------------------------------------------------------------------------
// Repro bundles
// ---------------------------------------------------------------------------

/// A self-contained soundness-violation reproduction: everything needed
/// to re-run the failing sample end to end (`fuzz replay <bundle>`),
/// with the task set already minimized by [`shrink_violation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproBundle {
    /// Fuzz campaign name.
    pub campaign: String,
    /// Manifest seed.
    pub seed: u64,
    /// Grid index of the failing cell.
    pub cell: usize,
    /// Utilization-point index within the cell.
    pub point: usize,
    /// Sample index within the point.
    pub sample: usize,
    /// The generating scenario.
    pub scenario: Scenario,
    /// The hostile release model.
    pub release: ReleaseModel,
    /// Total utilization of the generated set.
    pub total_utilization: f64,
    /// Simulation seed (salted stream).
    pub sim_seed: u64,
    /// Simulated horizon in nanoseconds.
    pub sim_duration_ns: u64,
    /// Simulation event budget.
    pub max_sim_events: u64,
    /// Canary bound-scale in effect (`None` in production sweeps).
    pub canary_scale: Option<f64>,
    /// Task count before shrinking.
    pub original_tasks: usize,
    /// Accepted shrink mutations.
    pub shrink_steps: usize,
    /// The minimized violating analysis problem as a wire-stable
    /// [`AnalysisRequest`]: protocol under test, minimized task set,
    /// platform, analysis config and heuristic — replayable through the
    /// same `ProtocolRegistry::respond` path the server uses.
    pub request: AnalysisRequest,
    /// The partition the analysis accepted for the minimized set.
    pub partition: Partition,
    /// The violation observed on the minimized set.
    pub violation: ViolationReport,
}

impl ReproBundle {
    /// The oracle configuration this bundle replays under.
    pub fn oracle_config(&self) -> FuzzOracleConfig {
        FuzzOracleConfig {
            method: self.request.protocol.clone(),
            release: self.release,
            sim_seed: self.sim_seed,
            sim_duration: Time::from_ns(self.sim_duration_ns),
            max_events: self.max_sim_events,
            canary_scale: self.canary_scale,
            ep_config: self.request.config.clone(),
        }
    }

    /// The bundle's output file name.
    pub fn file_name(&self) -> String {
        format!(
            "bundle_c{:04}_p{:02}_s{:02}.json",
            self.cell, self.point, self.sample
        )
    }
}

/// Re-runs a repro bundle end to end: analysis, simulation, verdict.
/// The analysis inputs come straight from the bundle's embedded
/// [`AnalysisRequest`] — nothing is reconstructed.
///
/// # Errors
///
/// Returns [`CampaignError`] when the bundle's method is not in the
/// registry.
pub fn replay_bundle(bundle: &ReproBundle) -> Result<Verdict, CampaignError> {
    run_oracle(
        &bundle.request.tasks,
        &bundle.request.platform,
        &bundle.oracle_config(),
    )
    .map(|o| o.verdict)
}

// ---------------------------------------------------------------------------
// Point / cell evaluation
// ---------------------------------------------------------------------------

/// A soundness violation recorded inside a cell, bundle embedded (the
/// checkpoint is the bundle's durable home — merge just writes it out).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzViolation {
    /// Sample index within the point.
    pub sample: usize,
    /// The minimized reproduction.
    pub bundle: ReproBundle,
}

/// One utilization point of one fuzz cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzPointResult {
    /// Total utilization.
    pub utilization: f64,
    /// `utilization / m`.
    pub normalized: f64,
    /// Samples attempted.
    pub samples: usize,
    /// Samples whose generation failed past the retry budget.
    pub generation_failures: usize,
    /// Samples the analysis rejected (nothing to check).
    pub rejected: usize,
    /// Samples that simulated clean within every bound.
    pub sound: usize,
    /// Samples that hit the simulation event budget without a violation.
    pub budget_exceeded: usize,
    /// Soundness violations (hard failures), bundles embedded.
    pub violations: Vec<FuzzViolation>,
    /// `observed / bound` pessimism gaps pooled over sound samples, in
    /// deterministic (sample-major, task-index) order.
    pub gaps: Vec<f64>,
}

/// Evaluates one utilization point of a fuzz cell: generate → analyze →
/// simulate → classify, sequentially over samples (determinism is the
/// contract; parallelism lives at the cell level).
fn evaluate_fuzz_point(
    cell: &FuzzCellSpec,
    point: usize,
    utilization: f64,
    canary: Option<f64>,
) -> Result<FuzzPointResult, CampaignError> {
    let platform = Platform::new(cell.scenario.m)
        .map_err(|e| CampaignError::from_message(format!("cell {} platform: {e}", cell.index)))?;
    let mut out = FuzzPointResult {
        utilization,
        normalized: utilization / cell.scenario.m as f64,
        samples: cell.samples_per_point,
        generation_failures: 0,
        rejected: 0,
        sound: 0,
        budget_exceeded: 0,
        violations: Vec::new(),
        gaps: Vec::new(),
    };
    for sample in 0..cell.samples_per_point {
        let Some(tasks) = generate_task_set(
            &cell.scenario,
            utilization,
            cell.seed,
            point,
            sample,
            cell.generation_retries,
        ) else {
            out.generation_failures += 1;
            continue;
        };
        let cfg = FuzzOracleConfig {
            method: cell.method.clone(),
            release: cell.release,
            sim_seed: sample_seed(cell.seed ^ SIM_SEED_SALT, point, sample, 0),
            sim_duration: cell.sim_duration,
            max_events: cell.max_events,
            canary_scale: canary,
            ep_config: AnalysisConfig::ep(),
        };
        match run_oracle(&tasks, &platform, &cfg)?.verdict {
            Verdict::Rejected => out.rejected += 1,
            Verdict::Budget => out.budget_exceeded += 1,
            Verdict::Sound { gaps } => {
                out.sound += 1;
                out.gaps.extend(gaps);
            }
            Verdict::Violation(_) => {
                let (minimized, shrink_steps) = shrink_violation(&tasks, &platform, &cfg);
                // Re-run once on the minimized set for its partition and
                // violation report; accepted mutations preserve the
                // violation, so this cannot regress to a clean verdict —
                // but fall back to the original set if it somehow does.
                let (tasks, shrink_steps, outcome) = match run_oracle(&minimized, &platform, &cfg)?
                {
                    o @ OracleOutcome {
                        verdict: Verdict::Violation(_),
                        ..
                    } => (minimized, shrink_steps, o),
                    _ => {
                        let o = run_oracle(&tasks, &platform, &cfg)?;
                        (tasks.clone(), 0, o)
                    }
                };
                let OracleOutcome {
                    verdict: Verdict::Violation(report),
                    partition: Some(partition),
                } = outcome
                else {
                    // The oracle is a pure function of its inputs, so the
                    // re-run of the original violating set must violate
                    // again; anything else is a determinism bug worth
                    // failing the cell over.
                    return Err(CampaignError::from_message(format!(
                        "cell {} point {point} sample {sample}: violation did not reproduce \
                         on re-run — oracle nondeterminism",
                        cell.index
                    )));
                };
                out.violations.push(FuzzViolation {
                    sample,
                    bundle: ReproBundle {
                        campaign: String::new(), // filled by evaluate_fuzz_cell
                        seed: cell.seed,
                        cell: cell.index,
                        point,
                        sample,
                        scenario: cell.scenario.clone(),
                        release: cell.release,
                        total_utilization: utilization,
                        sim_seed: cfg.sim_seed,
                        sim_duration_ns: cfg.sim_duration.as_ns(),
                        max_sim_events: cfg.max_events,
                        canary_scale: canary,
                        original_tasks: out.samples, // overwritten below
                        shrink_steps,
                        request: AnalysisRequest {
                            schema: None,
                            protocol: cell.method.clone(),
                            tasks,
                            platform,
                            config: cfg.ep_config.clone(),
                            heuristic: ResourceHeuristic::WorstFitDecreasing,
                        },
                        partition,
                        violation: report,
                    },
                });
            }
        }
    }
    Ok(out)
}

/// One completed fuzz cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCellResult {
    /// Grid position (the resume/merge key).
    pub index: usize,
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// The release model.
    pub release: ReleaseModel,
    /// Registry name of the analysis under test.
    pub method: String,
    /// One entry per utilization point, ascending.
    pub points: Vec<FuzzPointResult>,
}

impl FuzzCellResult {
    /// Total soundness violations in this cell.
    pub fn violations(&self) -> usize {
        self.points.iter().map(|p| p.violations.len()).sum()
    }
}

/// Evaluates one fuzz cell (all utilization points, samples sequential).
///
/// # Errors
///
/// Returns [`CampaignError`] when the cell's platform or method cannot
/// be constructed.
pub fn evaluate_fuzz_cell(
    cell: &FuzzCellSpec,
    campaign: &str,
    canary: Option<f64>,
) -> Result<FuzzCellResult, CampaignError> {
    let mut points = Vec::with_capacity(cell.utilizations.len());
    for (pi, &u) in cell.utilizations.iter().enumerate() {
        let mut point = evaluate_fuzz_point(cell, pi, u, canary)?;
        for v in &mut point.violations {
            v.bundle.campaign = campaign.to_string();
            v.bundle.original_tasks = v.bundle.request.tasks.len().max(v.bundle.original_tasks);
        }
        points.push(point);
    }
    Ok(FuzzCellResult {
        index: cell.index,
        scenario: cell.scenario.clone(),
        release: cell.release,
        method: cell.method.clone(),
        points,
    })
}

// ---------------------------------------------------------------------------
// The sweep: shard identity + the engine's hooks
// ---------------------------------------------------------------------------

/// The identity line at the top of every fuzz shard file. The canary
/// scale is part of the identity: a canary run and a production run must
/// never mix in one directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzShardHeader {
    /// Manifest name.
    pub campaign: String,
    /// Manifest seed.
    pub seed: u64,
    /// Expanded grid size (cell count).
    pub grid: usize,
    /// Effective samples per point.
    pub samples_per_point: usize,
    /// FNV-1a hash over every expanded cell's full configuration.
    pub fingerprint: String,
    /// Canary bound-scale in effect.
    pub canary: Option<f64>,
    /// Shard coordinates.
    pub shard: ShardSpec,
}

/// A fuzz sweep as the shard engine runs it
/// ([`run_shard`](crate::campaign::run_shard),
/// [`merge_dir`](crate::campaign::merge_dir)): the manifest plus the
/// canary bound-scale (`None` in production sweeps).
#[derive(Debug, Clone, Copy)]
pub struct FuzzRun<'a> {
    /// The fuzz manifest (its name lands in every repro bundle).
    pub manifest: &'a FuzzManifest,
    /// Test-only bound weakening (see [`FuzzOracleConfig::canary_scale`]).
    pub canary: Option<f64>,
}

impl Sweep for FuzzRun<'_> {
    type Cell = FuzzCellSpec;
    type Output = FuzzCellResult;
    type Header = FuzzShardHeader;

    fn header(
        &self,
        cells: &[FuzzCellSpec],
        fingerprint: String,
        shard: ShardSpec,
    ) -> FuzzShardHeader {
        FuzzShardHeader {
            campaign: self.manifest.name.clone(),
            seed: self.manifest.seed,
            grid: cells.len(),
            samples_per_point: cells.first().map_or(0, |c| c.samples_per_point),
            fingerprint,
            canary: self.canary,
            shard,
        }
    }

    fn index(cell: &FuzzCellSpec) -> usize {
        cell.index
    }

    fn identity(cell: &FuzzCellSpec) -> Value {
        (
            (cell.index, &cell.scenario, cell.release, &cell.method),
            (
                cell.samples_per_point,
                cell.seed,
                cell.generation_retries,
                &cell.utilizations,
            ),
            (cell.sim_duration.as_ns(), cell.max_events),
        )
            .serialize()
    }

    fn evaluate(&self, cell: &FuzzCellSpec) -> Result<FuzzCellResult, CampaignError> {
        evaluate_fuzz_cell(cell, &self.manifest.name, self.canary)
    }

    fn labels(cell: &FuzzCellSpec) -> (String, String) {
        (cell.scenario.label(), release_label(cell.release))
    }

    fn output_index(output: &FuzzCellResult) -> usize {
        output.index
    }

    fn output_matches(cell: &FuzzCellSpec, output: &FuzzCellResult) -> bool {
        output.scenario == cell.scenario && output.release == cell.release
    }
}

// ---------------------------------------------------------------------------
// Merge outputs
// ---------------------------------------------------------------------------

/// A completed fuzz merge: index-ordered cell results plus recorded
/// failures.
pub type FuzzMergeOutcome = MergeOutcome<FuzzCellResult>;

impl MergeOutcome<FuzzCellResult> {
    /// Total soundness violations across the grid.
    pub fn total_violations(&self) -> usize {
        self.results.iter().map(FuzzCellResult::violations).sum()
    }

    /// Every embedded repro bundle, in deterministic
    /// (cell, point, sample) order.
    pub fn bundles(&self) -> Vec<&ReproBundle> {
        self.results
            .iter()
            .flat_map(|c| c.points.iter())
            .flat_map(|p| p.violations.iter())
            .map(|v| &v.bundle)
            .collect()
    }
}

/// Nearest-rank percentile of an unsorted slice (`q ∈ (0, 1]`); `0.0`
/// when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The merged per-point fuzz CSV, with the pessimism-gap percentiles per
/// scenario-family row. Deterministic bytes for any shard split or
/// thread count.
pub fn fuzz_merged_csv(results: &[FuzzCellResult]) -> String {
    let mut out = String::from(
        "cell,scenario,release,utilization,normalized,samples,genfail,rejected,sound,budget,\
         violations,gap_p50,gap_p90,gap_max\n",
    );
    for cell in results {
        for p in &cell.points {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{},{},{},{},{},{},{:.4},{:.4},{:.4}\n",
                cell.index,
                cell.scenario.label(),
                release_label(cell.release),
                p.utilization,
                p.normalized,
                p.samples,
                p.generation_failures,
                p.rejected,
                p.sound,
                p.budget_exceeded,
                p.violations.len(),
                percentile(&p.gaps, 0.5),
                percentile(&p.gaps, 0.9),
                percentile(&p.gaps, 1.0),
            ));
        }
    }
    out
}

/// The per-cell fuzz summary CSV with the robustness columns (errored
/// cells appear as synthetic rows, mirroring the campaign summary).
pub fn fuzz_summary_csv(results: &[FuzzCellResult], failures: &[CellFailure]) -> String {
    let mut out = String::from(
        "cell,scenario,release,sound,rejected,budget_exceeded,violations,gap_max,errored_cells\n",
    );
    for row in rows_by_index(results, |c| c.index, failures) {
        match row {
            Ok(cell) => {
                let gaps: Vec<f64> = cell
                    .points
                    .iter()
                    .flat_map(|p| p.gaps.iter().copied())
                    .collect();
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{:.4},0\n",
                    cell.index,
                    cell.scenario.label(),
                    release_label(cell.release),
                    cell.points.iter().map(|p| p.sound).sum::<usize>(),
                    cell.points.iter().map(|p| p.rejected).sum::<usize>(),
                    cell.points.iter().map(|p| p.budget_exceeded).sum::<usize>(),
                    cell.violations(),
                    percentile(&gaps, 1.0),
                ));
            }
            Err(f) => out.push_str(&format!(
                "{},{},{},0,0,0,0,0.0000,1\n",
                f.index, f.scenario, f.ablation
            )),
        }
    }
    out
}

/// Writes the merged fuzz outputs into `dir`: `fuzz_merged.csv`,
/// `fuzz_summary.csv`, and one JSON repro bundle per violation under
/// `dir/bundles/`. Returns the written paths.
///
/// # Errors
///
/// Returns [`CampaignError`] on I/O failures.
pub fn write_fuzz_outputs(
    outcome: &FuzzMergeOutcome,
    dir: &Path,
) -> Result<Vec<PathBuf>, CampaignError> {
    let mut files = vec![
        (
            "fuzz_merged.csv".to_string(),
            fuzz_merged_csv(&outcome.results),
        ),
        (
            "fuzz_summary.csv".to_string(),
            fuzz_summary_csv(&outcome.results, &outcome.failures),
        ),
    ];
    for bundle in outcome.bundles() {
        let text = serde_json::to_string(bundle)
            .map_err(|e| CampaignError::from_message(format!("cannot serialize bundle: {e}")))?;
        files.push((format!("bundles/{}", bundle.file_name()), text));
    }
    write_files(dir, files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_gen::GraphShape;

    fn tiny_fuzz_manifest() -> FuzzManifest {
        FuzzManifest {
            name: "fuzzunit".to_string(),
            seed: 9,
            samples_per_point: 2,
            generation_retries: None,
            method: None,
            axes: AxisSpec {
                m: vec![4],
                nr_range: vec![(2, 2)],
                u_avg: vec![1.5],
                access_prob: vec![0.5],
                max_requests: vec![4],
                cs_range_us: vec![(15, 50)],
                graph_shape: None,
                light_fraction: None,
                vertex_range: Some(vec![(5, 10)]),
                cs_budget_fraction: None,
                rw_share: None,
            },
            normalized_utilization: vec![0.5],
            release: Some(vec![
                ReleaseModel::Periodic,
                ReleaseModel::Bursty {
                    burst: 4,
                    pause: 2.0,
                },
            ]),
            sim_ms: Some(50),
            max_sim_events: Some(200_000),
            quick: None,
        }
    }

    #[test]
    fn manifest_roundtrip_and_grid() {
        let manifest = tiny_fuzz_manifest();
        manifest.validate().unwrap();
        let text = serde_json::to_string(&manifest).unwrap();
        let back = FuzzManifest::from_json(&text).unwrap();
        assert_eq!(back, manifest);
        let cells = manifest.cells(false);
        assert_eq!(cells.len(), 2); // 1 scenario × 2 release models
        assert_eq!(cells[0].index, 0);
        assert_eq!(cells[0].release, ReleaseModel::Periodic);
        assert_eq!(
            cells[1].release,
            ReleaseModel::Bursty {
                burst: 4,
                pause: 2.0
            }
        );
        assert_eq!(cells[0].utilizations, vec![2.0]);
        assert_eq!(cells[0].sim_duration, Time::from_ms(50));
    }

    #[test]
    fn manifest_validation_rejects_bad_declarations() {
        let good = tiny_fuzz_manifest();
        let mut bad = good.clone();
        bad.normalized_utilization = vec![1.5];
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.release = Some(vec![ReleaseModel::Bursty {
            burst: 0,
            pause: 1.0,
        }]);
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.method = Some("NOPE".to_string());
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.axes.vertex_range = Some(vec![(5, 2)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.9), 4.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn release_labels_are_stable() {
        assert_eq!(release_label(ReleaseModel::Periodic), "per");
        assert_eq!(
            release_label(ReleaseModel::Sporadic { jitter: 0.5 }),
            "spo0.5"
        );
        assert_eq!(
            release_label(ReleaseModel::Bursty {
                burst: 4,
                pause: 2.0
            }),
            "bur4x2"
        );
    }

    #[test]
    fn rw_axis_rejects_write_only_methods() {
        let mut manifest = tiny_fuzz_manifest();
        manifest.axes.rw_share = Some(vec![0.5]);
        // The default method (DPCP-p-EP) is write-only.
        let err = manifest.validate().unwrap_err().to_string();
        assert!(err.contains("'DPCP-p-EP' is write-only"), "{err}");
        assert!(err.contains("MPCP-SA"), "{err}");
        manifest.method = Some("LPP".to_string());
        let err = manifest.validate().unwrap_err().to_string();
        assert!(err.contains("'LPP' is write-only"), "{err}");
        // An rw-aware method passes; rw_share = 0.0 stays write-only and
        // is accepted for any method.
        manifest.method = Some("MPCP-SO".to_string());
        manifest.validate().unwrap();
        manifest.method = Some("DPCP-p-EP".to_string());
        manifest.axes.rw_share = Some(vec![0.0]);
        manifest.validate().unwrap();
    }

    #[test]
    fn rw_hostile_sweep_is_sound() {
        // The reader-writer soundness run: generate read-heavy hostile
        // sets, let MPCP-SO accept some, and check the simulator (where
        // readers may share) never contradicts the serialized-accounting
        // bound. Any violation here means the analysis credited sharing
        // it cannot guarantee.
        let mut manifest = tiny_fuzz_manifest();
        manifest.name = "rwfuzz".to_string();
        manifest.method = Some("MPCP-SO".to_string());
        manifest.axes.rw_share = Some(vec![0.5]);
        manifest.axes.cs_budget_fraction = Some(vec![0.9]);
        manifest.normalized_utilization = vec![0.3, 0.5];
        manifest.validate().unwrap();
        let mut sound = 0;
        for cell in manifest.cells(false) {
            let result = evaluate_fuzz_cell(&cell, "rwfuzz", None).unwrap();
            assert_eq!(result.violations(), 0, "cell {} violated", cell.index);
            sound += result.points.iter().map(|p| p.sound).sum::<usize>();
        }
        assert!(sound > 0, "no accepted samples — the sweep checked nothing");
    }

    #[test]
    fn chain_shape_is_available_on_the_axis() {
        let mut manifest = tiny_fuzz_manifest();
        manifest.axes.graph_shape = Some(vec![GraphShape::Chain]);
        manifest.validate().unwrap();
        assert_eq!(
            manifest.cells(false)[0].scenario.graph_shape,
            GraphShape::Chain
        );
    }
}
