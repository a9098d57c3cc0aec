//! The `campaign` workload: the `campaign` binary sweeping seeded
//! manifests over Fig. 2 panels A and B (m = 16 and 32) with every
//! registry method, a fresh seed and output directory per sweep, and
//! every acceptance count checked against an in-process
//! `evaluate_point_subset` reference on the same seeds.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisSession, ResourceHeuristic};
use dpcp_experiments::campaign::CellResult;
use dpcp_experiments::{
    evaluate_point_subset, CampaignManifest, CellSpec, EvalConfig, PointResult,
};
use dpcp_model::{Platform, TaskSet};
use rand::{rngs::StdRng, SeedableRng};
use serde::Deserialize;

use crate::metrics::{medians_by_protocol, slug, Report};
use crate::pool::mix;
use crate::procs::run_tracked;
use crate::replay::{analysis_layers, Counters};
use crate::serve::fill_analysis_layers;
use crate::stats::{self, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;

/// Task sets per utilization point and cell.
const SAMPLES_PER_POINT: usize = 8;

/// Points across the utilization sweep (`U / m`), shared by both panels.
const NORMALIZED: [f64; 3] = [0.2, 0.4, 0.6];

/// `campaign plan` invocations timed per run; `setup_s` is their median.
const SETUP_PLANS: usize = 25;

/// Sweeps a run completes at least, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// A sweep that takes longer than this is killed and the run fails.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(150);

/// The bench manifest: panel A as the main grid, panel B appended as an
/// extra grid, all registry methods on both.
fn manifest_json(seed: u64, methods: &[String]) -> String {
    let methods = methods
        .iter()
        .map(|m| format!("\"{m}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let normalized = NORMALIZED
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"{{
  "name": "perfbench",
  "seed": {seed},
  "samples_per_point": {SAMPLES_PER_POINT},
  "methods": [{methods}],
  "axes": {{"m": [16], "nr_range": [[4, 8]], "u_avg": [1.5], "access_prob": [0.5],
           "max_requests": [50], "cs_range_us": [[50, 100]]}},
  "normalized_utilization": [{normalized}],
  "extra": [{{
    "label": "panel-b",
    "methods": [{methods}],
    "axes": {{"m": [32], "nr_range": [[8, 16]], "u_avg": [1.5], "access_prob": [1.0],
             "max_requests": [50], "cs_range_us": [[50, 100]]}}
  }}]
}}
"#
    )
}

/// The reference acceptance counts, per cell and point.
fn reference(cells: &[CellSpec], threads: usize) -> Vec<Vec<PointResult>> {
    cells
        .iter()
        .map(|cell| {
            let eval = EvalConfig {
                threads,
                ..cell.eval.clone()
            };
            cell.utilizations
                .iter()
                .enumerate()
                .map(|(pi, &u)| {
                    evaluate_point_subset(
                        &cell.scenario,
                        u,
                        pi,
                        &eval,
                        cell.heuristic,
                        &cell.methods,
                    )
                })
                .collect()
        })
        .collect()
}

/// Task-set × method evaluations the reference performs.
fn evaluations(cells: &[CellSpec], reference: &[Vec<PointResult>]) -> u64 {
    cells
        .iter()
        .map(|cell| {
            reference[cell.index]
                .iter()
                .map(|p| (p.samples * cell.methods.len()) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// The cells a sweep checkpointed, by grid index (failed cells absent).
fn read_shard(dir: &Path) -> Result<HashMap<usize, CellResult>, String> {
    let path = dpcp_experiments::ShardSpec::single().path(dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut cells = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("checkpoint line: {e}"))?;
        let cell = record.field("cell");
        if !matches!(cell, serde::Value::Null) {
            let cell =
                CellResult::deserialize(cell).map_err(|e| format!("checkpoint cell: {e}"))?;
            cells.insert(cell.index, cell);
        }
    }
    Ok(cells)
}

/// `(attempted, failed)` evaluations of one sweep: a missing or failed
/// cell fails all its evaluations; a wrong acceptance count fails the
/// samples of that point and method.
fn audit(
    got: &HashMap<usize, CellResult>,
    cells: &[CellSpec],
    reference: &[Vec<PointResult>],
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for cell in cells {
        let expected = &reference[cell.index];
        let total: u64 = expected
            .iter()
            .map(|p| (p.samples * cell.methods.len()) as u64)
            .sum();
        attempted += total;
        let Some(result) = got.get(&cell.index) else {
            failed += total;
            continue;
        };
        if result.points.len() != expected.len() {
            failed += total;
            continue;
        }
        for (e, g) in expected.iter().zip(&result.points) {
            if e.samples != g.samples {
                failed += (e.samples * cell.methods.len()) as u64;
                continue;
            }
            let wrong = e
                .accepted
                .iter()
                .zip(&g.accepted)
                .filter(|(a, b)| a != b)
                .count();
            failed += (wrong * e.samples) as u64;
        }
    }
    (attempted, failed)
}

/// The oracle must catch a corrupted reference: one acceptance count off
/// by one must add failures.
fn canary(
    got: &HashMap<usize, CellResult>,
    cells: &[CellSpec],
    reference: &[Vec<PointResult>],
) -> bool {
    let mut corrupted = reference.to_vec();
    let Some(point) = corrupted.first_mut().and_then(|c| c.first_mut()) else {
        return false;
    };
    point.accepted[0] += 1;
    audit(got, cells, &corrupted).1 > audit(got, cells, reference).1
}

/// One sweep through the binary into a fresh directory, audited.
fn sweep(
    ctx: &Ctx,
    manifest: &Path,
    k: usize,
) -> Result<(crate::procs::Tracked, HashMap<usize, CellResult>), String> {
    let out = ctx.work_dir.join(format!("campaign-{}-{k}", ctx.seed));
    if out.exists() {
        std::fs::remove_dir_all(&out).map_err(|e| format!("clear {}: {e}", out.display()))?;
    }
    let tracked = run_tracked(
        Command::new(ctx.bin_dir.join("campaign"))
            .arg("run")
            .arg("--manifest")
            .arg(manifest)
            .arg("--out")
            .arg(&out)
            .env("RAYON_NUM_THREADS", ctx.nproc.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
        SWEEP_TIMEOUT,
    )?;
    let got = if tracked.success {
        read_shard(&out)?
    } else {
        HashMap::new()
    };
    if out.exists() {
        std::fs::remove_dir_all(&out).map_err(|e| format!("clear {}: {e}", out.display()))?;
    }
    Ok((tracked, got))
}

/// One sweep's inputs: the manifest on disk, the expanded cells and the
/// in-process reference counts.
struct Prepared {
    path: PathBuf,
    cells: Vec<CellSpec>,
    reference: Vec<Vec<PointResult>>,
    evaluations: u64,
}

impl Prepared {
    /// Admitted task-set × method evaluations in the reference.
    fn admitted(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .map(|p| p.accepted.iter().sum::<usize>() as u64)
            .sum()
    }
}

/// Writes and expands the manifest of sweep `k` and computes its
/// reference. Every sweep of a run draws fresh task sets (manifest seed
/// `1000 · seed + k`), so a run averages over several draws instead of
/// timing one draw again and again.
fn prepare(ctx: &Ctx, names: &[String], k: usize) -> Result<Prepared, String> {
    let seed = ctx.seed.wrapping_mul(1000).wrapping_add(k as u64);
    let text = manifest_json(seed, names);
    let path = ctx.work_dir.join(format!("campaign-{seed}.json"));
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let cells = CampaignManifest::from_json(&text)
        .map_err(|e| e.to_string())?
        .cells(false);
    let reference = reference(&cells, ctx.nproc);
    let evaluations = evaluations(&cells, &reference);
    Ok(Prepared {
        path,
        cells,
        reference,
        evaluations,
    })
}

/// Runs the campaign workload: sweeps back to back, each into a fresh
/// directory and each audited, until `--seconds` of sweep time are
/// measured; references are computed between sweeps, outside that time.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let registry = dpcp_baselines::standard_registry();
    let names: Vec<String> = registry.names().into_iter().map(str::to_string).collect();
    let first = prepare(ctx, &names, 0)?;
    let mut report = Report::default();
    report.property("cells", serde::Value::U64(first.cells.len() as u64));
    report.property(
        "points_per_cell",
        serde::Value::U64(NORMALIZED.len() as u64),
    );
    report.property(
        "samples_per_point",
        serde::Value::U64(SAMPLES_PER_POINT as u64),
    );
    if ctx.traced {
        report.property("evaluations", serde::Value::U64(first.evaluations));
        report.property(
            "admitted_share",
            serde::Value::F64(first.admitted() as f64 / first.evaluations.max(1) as f64),
        );
        return traced(ctx, report, &first);
    }

    let mut plans = Vec::with_capacity(SETUP_PLANS);
    for _ in 0..SETUP_PLANS {
        let planned = run_tracked(
            Command::new(ctx.bin_dir.join("campaign"))
                .arg("plan")
                .arg("--manifest")
                .arg(&first.path)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
            SWEEP_TIMEOUT,
        )?;
        if !planned.success {
            return Err("campaign plan failed".to_string());
        }
        plans.push(planned.wall_s);
    }

    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut canary_ok = true;
    let (mut evaluations, mut admitted) = (0u64, 0u64);
    let mut next = Some(first);
    while walls.len() < MIN_SWEEPS || walls.iter().sum::<f64>() < ctx.seconds {
        let prepared = match next.take() {
            Some(prepared) => prepared,
            None => prepare(ctx, &names, walls.len())?,
        };
        let (tracked, got) = sweep(ctx, &prepared.path, walls.len())?;
        let (attempted, failed) = audit(&got, &prepared.cells, &prepared.reference);
        report.attempted += attempted;
        report.failed += failed;
        canary_ok &= canary(&got, &prepared.cells, &prepared.reference);
        evaluations += prepared.evaluations;
        admitted += prepared.admitted();
        walls.push(tracked.wall_s);
        peaks.push(tracked.peak_rss_mb);
    }
    report.check("oracle catches a corrupted reference", canary_ok);
    report.property("evaluations", serde::Value::U64(evaluations));
    report.property(
        "admitted_share",
        serde::Value::F64(admitted as f64 / evaluations.max(1) as f64),
    );
    report.property(
        "sweep_s",
        serde::Value::Array(walls.iter().map(|&w| serde::Value::F64(w)).collect()),
    );
    let sorted_ms = stats::sorted(&walls.iter().map(|w| w * 1e3).collect::<Vec<_>>());
    report.set("setup_s", median(&plans));
    report.set("latency_p50_ms", percentile(&sorted_ms, 50.0));
    report.set("latency_p99_ms", percentile(&sorted_ms, 99.0));
    report.set(
        "verdicts_per_s",
        evaluations as f64 / walls.iter().sum::<f64>(),
    );
    report.set("peak_rss_mb", median(&peaks));
    Ok(report)
}

/// One evaluation thread's spans and partition rounds.
type PassPart = Result<(Vec<Span>, Vec<f64>), String>;

/// One in-process task set of the traced run.
struct Drawn {
    tasks: TaskSet,
    platform: Platform,
}

/// Evaluates every method on one set, one request per method; the same
/// code runs with tracing off (the overhead baseline) and on.
fn evaluate_set(
    tracer: &mut Tracer,
    registry: &dpcp_core::ProtocolRegistry,
    session: &mut AnalysisSession,
    names: &[String],
    set: usize,
    drawn: &Drawn,
    rounds: &mut Vec<f64>,
) -> Result<(), String> {
    for (m, name) in names.iter().enumerate() {
        let id = (set * names.len() + m) as u64;
        let root = tracer.open("evaluate", None, id);
        let request = AnalysisRequest {
            schema: None,
            protocol: name.clone(),
            tasks: drawn.tasks.clone(),
            platform: drawn.platform,
            config: AnalysisConfig::ep(),
            heuristic: ResourceHeuristic::WorstFitDecreasing,
        };
        std::hint::black_box(tracer.time("key", root, id, || request.structural_key()));
        let verdict = tracer
            .time("respond", root, id, || registry.respond(session, &request))
            .map_err(|e| format!("respond: {e}"))?;
        tracer.close(root);
        rounds.push(verdict.rounds as f64);
    }
    Ok(())
}

/// The traced run: one audited sweep through the binary, then the same
/// scenarios and points evaluated in-process twice (tracing off, then
/// on) with the analysis layers timed beside `respond`.
fn traced(ctx: &Ctx, mut report: Report, prepared: &Prepared) -> Result<Report, String> {
    let (cells, reference) = (&prepared.cells, &prepared.reference);
    let epoch = Instant::now();
    let mut sweep_tracer = Tracer::new(epoch, 0, true);
    let span = sweep_tracer.open("campaign.sweep", None, 0);
    let (tracked, got) = sweep(ctx, &prepared.path, 0)?;
    sweep_tracer.close(span);
    let (attempted, failed) = audit(&got, cells, reference);
    report.attempted = attempted;
    report.failed = failed;
    report.check(
        "oracle catches a corrupted reference",
        canary(&got, cells, reference),
    );
    if !tracked.success {
        report.check("campaign sweep exits 0", false);
    }

    let registry = &dpcp_baselines::standard_registry();
    let names: Vec<String> = registry.names().into_iter().map(str::to_string).collect();
    let mut gen_tracer = Tracer::new(epoch, 1, true);
    let mut retries = Vec::new();
    let mut sets = Vec::new();
    for cell in cells {
        let platform = Platform::new(cell.scenario.m).map_err(|e| e.to_string())?;
        for (pi, &u) in cell.utilizations.iter().enumerate() {
            for sample in 0..SAMPLES_PER_POINT {
                let id = sets.len() as u64;
                let mut rng = StdRng::seed_from_u64(mix(
                    ctx.seed ^ mix((cell.index * 1000 + pi * 100 + sample) as u64)
                ));
                let mut attempt = 0u32;
                let tasks = loop {
                    let drawn = gen_tracer.time("gen", None, id, || {
                        cell.scenario.sample_task_set(u, &mut rng)
                    });
                    match drawn {
                        Ok(tasks) => break tasks,
                        Err(_) if attempt < 1000 => attempt += 1,
                        Err(e) => return Err(format!("generator: {e}")),
                    }
                };
                retries.push(f64::from(attempt));
                sets.push(Drawn { tasks, platform });
            }
        }
    }

    // Tracing off, then on, over the same sets and threads.
    let pass = |enabled: bool| -> Result<(f64, Vec<Span>, Vec<f64>), String> {
        let started = Instant::now();
        let parts: Vec<PassPart> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.nproc)
                .map(|t| {
                    let (sets, names) = (&sets, &names);
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(epoch, 10 + t, enabled);
                        let mut session = AnalysisSession::new(AnalysisConfig::ep());
                        let mut rounds = Vec::new();
                        for (i, drawn) in sets.iter().enumerate().skip(t).step_by(ctx.nproc) {
                            evaluate_set(
                                &mut tracer,
                                registry,
                                &mut session,
                                names,
                                i,
                                drawn,
                                &mut rounds,
                            )?;
                        }
                        Ok((tracer.into_spans(), rounds))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation thread panicked"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let mut spans = Vec::new();
        let mut rounds = Vec::new();
        for part in parts {
            let (s, r) = part?;
            spans.push(s);
            rounds.extend(r);
        }
        Ok((wall, trace::merge(spans), rounds))
    };
    let (plain_wall, _, _) = pass(false)?;
    let (traced_wall, eval_spans, rounds) = pass(true)?;

    let mut layer_tracer = Tracer::new(epoch, 2, true);
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    let mut counters = Counters {
        rounds,
        ..Counters::default()
    };
    for (i, drawn) in sets.iter().enumerate() {
        for (m, name) in names.iter().enumerate() {
            let request = AnalysisRequest {
                schema: None,
                protocol: name.clone(),
                tasks: drawn.tasks.clone(),
                platform: drawn.platform,
                config: AnalysisConfig::ep(),
                heuristic: ResourceHeuristic::WorstFitDecreasing,
            };
            let id = (i * names.len() + m) as u64;
            analysis_layers(
                &mut layer_tracer,
                registry,
                &mut session,
                &mut counters,
                id,
                &request,
            )?;
        }
    }
    let spans = trace::merge([
        sweep_tracer.into_spans(),
        gen_tracer.into_spans(),
        eval_spans,
        layer_tracer.into_spans(),
    ]);
    let nesting = trace::check_nesting(&spans);
    if let Err(e) = &nesting {
        eprintln!("perfbench: {e}");
    }
    report.check("every child span lies inside its parent", nesting.is_ok());

    let protocol_of: HashMap<u64, usize> = (0..sets.len() * names.len())
        .map(|id| (id as u64, id % names.len()))
        .collect();
    let respond = medians_by_protocol(&spans, "respond", &protocol_of, names.len());
    for (p, name) in names.iter().enumerate() {
        report.set(format!("respond_ms.{}", slug(name)), respond[p] / 1e3);
    }
    report.set("key.us", median(&trace::durations(&spans, "key")));
    fill_analysis_layers(&mut report, &spans, &counters);
    report.set("gen.us", median(&trace::durations(&spans, "gen")));
    report.set("gen.retries", stats::mean(&retries));
    report.set("trace.overhead_frac", traced_wall / plain_wall - 1.0);
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("requests", report.attempted as f64);
    report.spans = spans;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_experiments::Method;

    fn point(samples: usize, accepted: usize) -> PointResult {
        PointResult {
            utilization: 1.0,
            normalized: 0.1,
            samples,
            generation_failures: 0,
            accepted: [accepted; Method::COUNT],
        }
    }

    #[test]
    fn audit_counts_wrong_and_missing_cells_and_the_canary_bites() {
        let names: Vec<String> = dpcp_baselines::standard_registry()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let cells = CampaignManifest::from_json(&manifest_json(1, &names))
            .unwrap()
            .cells(false);
        assert_eq!(cells.len(), 2, "panel A grid plus the panel B extra grid");
        let reference: Vec<Vec<PointResult>> = cells
            .iter()
            .map(|c| c.utilizations.iter().map(|_| point(2, 1)).collect())
            .collect();
        let per_cell = (NORMALIZED.len() * 2 * names.len()) as u64;
        let result = |cell: &CellSpec, points: Vec<PointResult>| CellResult {
            index: cell.index,
            scenario: cell.scenario.clone(),
            ablation: cell.ablation.clone(),
            methods: cell.methods.clone(),
            points,
        };
        let mut got = HashMap::new();
        got.insert(0, result(&cells[0], reference[0].clone()));
        // Cell 1 missing: all its evaluations fail.
        assert_eq!(audit(&got, &cells, &reference), (2 * per_cell, per_cell));
        // One acceptance count off in cell 1: that point × method fails.
        let mut wrong = reference[1].clone();
        wrong[0].accepted[3] = 0;
        got.insert(1, result(&cells[1], wrong));
        assert_eq!(audit(&got, &cells, &reference), (2 * per_cell, 2));
        assert!(canary(&got, &cells, &reference));
    }
}
