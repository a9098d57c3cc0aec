//! Generates `BENCH_analysis.json`: the perf trajectory of the analysis
//! hot path and the experiment harness, tracked from PR 1 on.
//!
//! ```text
//! cargo run -p dpcp_bench --release --bin bench_report -- \
//!     [--quick] [--samples N] [--repeats R] [--out PATH] \
//!     [--check-against PATH] [--tolerance X]
//! ```
//!
//! The report has two halves:
//!
//! - `components` — median ns/op of the analysis stages defined in
//!   [`dpcp_bench::components`] (the Theorem-1 fixed point, task-set
//!   analysis, enumeration, placement search and the two wire layers),
//!   measured through the same machinery as `cargo bench`;
//! - `harness` — wall-clock of one Fig. 2 utilization point through
//!   `evaluate_point`, sequential (`threads = 1`) vs the ambient rayon
//!   pool, including the per-method acceptance ratios of both runs so the
//!   determinism claim (bit-identical results for any worker count) is
//!   recorded alongside the speedup.
//!
//! The process exits non-zero when the parallel run fails to reproduce
//! the sequential acceptance ratios, or — with `--check-against` — when
//! any component median regresses beyond the tolerance factor against a
//! committed baseline report. The admission-control service is measured
//! end to end by `serve-loadgen` (CI's `serve-smoke` job) and the
//! repository benchmark, not here.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use criterion::Criterion;
use dpcp_experiments::{evaluate_point, EvalConfig, Method, PointResult};
use dpcp_gen::scenario::{Fig2Panel, Scenario};
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct ComponentBench {
    name: String,
    median_ns: f64,
    iters_per_sample: u64,
    samples: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct HarnessComparison {
    scenario: String,
    total_utilization: f64,
    samples_per_point: usize,
    repeats: usize,
    threads_sequential: usize,
    threads_parallel: usize,
    sequential_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    /// The host's core count, recorded next to the speedup it frames: a
    /// rayon fan-out cannot beat the sequential run without cores to
    /// fan out to.
    host_cores: usize,
    /// `true` when `speedup < 1` on a single-core host — scheduling
    /// overhead with no parallelism available, not a regression. A sub-1
    /// speedup *with* cores available stays unflagged (and suspicious).
    expected_on_single_core: bool,
    methods: Vec<String>,
    acceptance_ratios_sequential: Vec<f64>,
    acceptance_ratios_parallel: Vec<f64>,
    ratios_identical: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema_version: u32,
    host_cores: usize,
    components: Vec<ComponentBench>,
    harness: HarnessComparison,
}

struct Args {
    samples: usize,
    repeats: usize,
    sample_size: usize,
    out: PathBuf,
    check_against: Option<PathBuf>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 16,
        repeats: 5,
        sample_size: 15,
        out: PathBuf::from("BENCH_analysis.json"),
        check_against: None,
        tolerance: 2.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                // CI mode: fewer harness samples/repeats and smaller
                // criterion sample counts. Medians stay comparable (the
                // regression gate uses a generous tolerance).
                args.samples = 8;
                args.repeats = 3;
                args.sample_size = 10;
            }
            "--samples" => {
                args.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples needs a positive integer");
            }
            "--repeats" => {
                args.repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats needs a positive integer");
            }
            "--out" => {
                args.out = PathBuf::from(it.next().expect("--out needs a path"));
            }
            "--check-against" => {
                args.check_against = Some(PathBuf::from(
                    it.next().expect("--check-against needs a path"),
                ));
            }
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a factor > 1.0");
            }
            other => panic!(
                "unknown flag '{other}' \
                 (try --quick/--samples/--repeats/--out/--check-against/--tolerance)"
            ),
        }
    }
    args
}

/// Measures [`dpcp_bench::components`] and collects its medians.
fn component_benches(sample_size: usize) -> Vec<ComponentBench> {
    let mut criterion = Criterion::default().sample_size(sample_size);
    dpcp_bench::components(&mut criterion);
    criterion
        .results()
        .iter()
        .map(|r| ComponentBench {
            name: r.id.clone(),
            median_ns: r.median_ns,
            iters_per_sample: r.iters_per_sample,
            samples: r.samples,
        })
        .collect()
}

/// Median wall-clock milliseconds of `repeats` runs of `f` (after one
/// warmup run), plus the result of the last run for ratio comparison.
fn median_point_ms(repeats: usize, mut f: impl FnMut() -> PointResult) -> (f64, PointResult) {
    let warmup = f();
    let mut times: Vec<f64> = Vec::with_capacity(repeats);
    let mut last = warmup;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        last = f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    (times[times.len() / 2], last)
}

fn harness_comparison(samples: usize, repeats: usize) -> HarnessComparison {
    let scenario = Scenario::fig2(Fig2Panel::A);
    let utilization = 8.0; // U/m = 0.5, the contested middle of Fig. 2(a).
    let mut cfg = EvalConfig {
        samples_per_point: samples,
        seed: 2020,
        ..EvalConfig::default()
    };

    cfg.threads = 1;
    let (sequential_ms, seq_point) =
        median_point_ms(repeats, || evaluate_point(&scenario, utilization, 0, &cfg));

    cfg.threads = 0;
    let threads_parallel = cfg.effective_threads();
    let (parallel_ms, par_point) =
        median_point_ms(repeats, || evaluate_point(&scenario, utilization, 0, &cfg));

    let ratios =
        |p: &PointResult| -> Vec<f64> { Method::ALL.iter().map(|&m| p.ratio(m)).collect() };
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let speedup = sequential_ms / parallel_ms.max(f64::MIN_POSITIVE);
    HarnessComparison {
        scenario: "fig2_panel_a".to_string(),
        total_utilization: utilization,
        samples_per_point: samples,
        repeats,
        threads_sequential: 1,
        threads_parallel,
        sequential_ms,
        parallel_ms,
        speedup,
        host_cores,
        expected_on_single_core: speedup < 1.0 && host_cores == 1,
        methods: Method::ALL.iter().map(|m| m.name().to_string()).collect(),
        acceptance_ratios_sequential: ratios(&seq_point),
        acceptance_ratios_parallel: ratios(&par_point),
        ratios_identical: seq_point == par_point,
    }
}

/// Compares fresh component medians against a committed baseline report;
/// returns `false` (after printing the offenders) when any shared
/// component regressed beyond `tolerance`×.
fn check_regressions(fresh: &Report, baseline_path: &PathBuf, tolerance: f64) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            return false;
        }
    };
    let baseline: Report = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse baseline {}: {e}", baseline_path.display());
            return false;
        }
    };
    println!("\n== regression check (tolerance {tolerance:.1}x) ==");
    let mut ok = true;
    for fresh_c in &fresh.components {
        let Some(base_c) = baseline.components.iter().find(|c| c.name == fresh_c.name) else {
            println!("{:<44} new component (no baseline)", fresh_c.name);
            continue;
        };
        let ratio = fresh_c.median_ns / base_c.median_ns.max(f64::MIN_POSITIVE);
        let verdict = if ratio > tolerance {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<44} {:>12.0} ns vs {:>12.0} ns  ({ratio:>5.2}x)  {verdict}",
            fresh_c.name, fresh_c.median_ns, base_c.median_ns
        );
    }
    for base_c in &baseline.components {
        if !fresh.components.iter().any(|c| c.name == base_c.name) {
            // A silently dropped (or renamed) bench shrinks the gate's
            // coverage — treat it as a failure until the baseline is
            // regenerated alongside the rename.
            println!("{:<44} MISSING from fresh run (baseline only)", base_c.name);
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    println!("== component benches ==");
    let components = component_benches(args.sample_size);
    println!("\n== harness point: sequential vs parallel ==");
    let harness = harness_comparison(args.samples, args.repeats);
    println!(
        "sequential: {:.1} ms | parallel ({} threads): {:.1} ms | speedup: {:.2}x \
         ({} cores{}) | identical: {}",
        harness.sequential_ms,
        harness.threads_parallel,
        harness.parallel_ms,
        harness.speedup,
        harness.host_cores,
        if harness.expected_on_single_core {
            ", sub-1x expected on a single core"
        } else {
            ""
        },
        harness.ratios_identical
    );
    let deterministic = harness.ratios_identical;

    let report = Report {
        schema_version: 1,
        host_cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        components,
        harness,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").expect("cannot write report");
    println!("wrote {}", args.out.display());

    let mut ok = true;
    if !deterministic {
        eprintln!(
            "FAIL: parallel run did not reproduce the sequential acceptance ratios \
             (seq {:?} vs par {:?})",
            report.harness.acceptance_ratios_sequential, report.harness.acceptance_ratios_parallel
        );
        ok = false;
    }
    if let Some(baseline) = &args.check_against {
        if !check_regressions(&report, baseline, args.tolerance) {
            eprintln!("FAIL: component medians regressed beyond the tolerance");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
