//! The adversarial differential-fuzzing CLI: hostile sweeps, sharded
//! and resumable like `campaign`, plus bundle replay.
//!
//! ```text
//! fuzz run    --manifest PATH [--out DIR] [--shard i/n] [--quick] [--canary SCALE]
//! fuzz merge  --manifest PATH [--out DIR] [--quick] [--canary SCALE] [--final DIR]
//! fuzz plan   --manifest PATH [--quick]
//! fuzz replay BUNDLE.json
//! ```
//!
//! `run` evaluates (or resumes) one shard of the fuzz grid; every cell
//! is panic-isolated, so a crashing cell records a failure instead of
//! killing the shard. `merge` folds the shard checkpoints into
//! `fuzz_merged.csv` / `fuzz_summary.csv`, writes one JSON repro bundle
//! per soundness violation under `--final`'s `bundles/`, and **exits
//! nonzero when any violation was found** — the CI gate. `replay`
//! re-runs a repro bundle end to end and reports the verdict.
//!
//! `--canary SCALE` multiplies every analysis bound by `SCALE` at the
//! comparison (test-only bound weakening): `--canary 0.05` must make
//! the oracle fire, proving the pipeline catches unsound bounds. The
//! scale is part of the checkpoint identity, so canary and production
//! runs never mix.

use std::path::PathBuf;
use std::process::ExitCode;

use dpcp_experiments::campaign::CampaignError;
use dpcp_experiments::cli::SweepArgs;
use dpcp_experiments::fuzz::{
    release_label, replay_bundle, write_fuzz_outputs, FuzzManifest, FuzzRun, ReproBundle, Verdict,
};

struct Args {
    command: Command,
    shared: SweepArgs,
    canary: Option<f64>,
    bundle: Option<PathBuf>,
}

#[derive(PartialEq, Clone, Copy)]
enum Command {
    Run,
    Merge,
    Plan,
    Replay,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz <run|merge> --manifest PATH [--out DIR] [--shard i/n] [--quick] \
         [--canary SCALE] [--final DIR]\n\
         \x20      fuzz plan --manifest PATH [--quick]\n\
         \x20      fuzz replay BUNDLE.json"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = match it.next().as_deref() {
        Some("run") => Command::Run,
        Some("merge") => Command::Merge,
        Some("plan") => Command::Plan,
        Some("replay") => Command::Replay,
        _ => usage(),
    };
    let mut shared = SweepArgs::new();
    let mut canary = None;
    let mut bundle = None;
    while let Some(flag) = it.next() {
        match shared.try_flag(&flag, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        match flag.as_str() {
            "--canary" => {
                let text = it.next().unwrap_or_else(|| usage());
                match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => canary = Some(s),
                    _ => {
                        eprintln!("--canary needs a positive finite scale, got '{text}'");
                        std::process::exit(2);
                    }
                }
            }
            other if command == Command::Replay && bundle.is_none() && !other.starts_with('-') => {
                bundle = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    if command == Command::Replay {
        if bundle.is_none() {
            usage()
        }
    } else if shared.manifest.is_none() {
        usage()
    }
    Args {
        command,
        shared,
        canary,
        bundle,
    }
}

fn replay(path: &PathBuf) -> Result<bool, CampaignError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CampaignError::from_message(format!("cannot read bundle {}: {e}", path.display()))
    })?;
    let bundle: ReproBundle = serde_json::from_str(&text).map_err(|e| {
        CampaignError::from_message(format!("{}: malformed bundle: {e}", path.display()))
    })?;
    println!(
        "replaying {}: campaign '{}' cell {} point {} sample {} — {} task(s), release {}, \
         method {}{}",
        path.display(),
        bundle.campaign,
        bundle.cell,
        bundle.point,
        bundle.sample,
        bundle.request.tasks.len(),
        release_label(bundle.release),
        bundle.request.protocol,
        match bundle.canary_scale {
            Some(s) => format!(", canary scale {s}"),
            None => String::new(),
        },
    );
    let verdict = replay_bundle(&bundle)?;
    match &verdict {
        Verdict::Violation(report) => {
            println!("verdict: VIOLATION reproduced — {:?}", report.kind);
            Ok(true)
        }
        other => {
            println!("verdict: {other:?} — bundle does NOT reproduce a violation");
            Ok(false)
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.command == Command::Replay {
        let path = args.bundle.expect("parse_args enforces presence");
        return match replay(&path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let manifest = match args.shared.load_manifest(FuzzManifest::from_json) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = manifest.cells(args.shared.quick);
    let out = args.shared.out_or("results/fuzz", &manifest.name);
    let sweep = FuzzRun {
        manifest: &manifest,
        canary: args.canary,
    };
    println!(
        "fuzz campaign '{}'{}{}: {} cells, {} samples/point, seed {}",
        manifest.name,
        if args.shared.quick { " [quick]" } else { "" },
        match args.canary {
            Some(s) => format!(" [canary ×{s}]"),
            None => String::new(),
        },
        cells.len(),
        cells.first().map(|c| c.samples_per_point).unwrap_or(0),
        manifest.seed,
    );

    let outcome = match args.command {
        Command::Replay => unreachable!("handled above"),
        Command::Plan => {
            for cell in &cells {
                println!(
                    "  cell {:>4}  {}  release {}  method {}  {} points × {} samples  \
                     sim {}ns / {} events",
                    cell.index,
                    cell.scenario.label(),
                    release_label(cell.release),
                    cell.method,
                    cell.utilizations.len(),
                    cell.samples_per_point,
                    cell.sim_duration.as_ns(),
                    cell.max_events,
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Run => args
            .shared
            .run_shard(&sweep, &cells, &out)
            .map(|_| ExitCode::SUCCESS),
        Command::Merge => args
            .shared
            .merge(&sweep, &cells, &out, write_fuzz_outputs)
            .map(|(outcome, final_dir)| {
                let violations = outcome.total_violations();
                println!("soundness violations: {violations}");
                if violations > 0 {
                    eprintln!(
                        "SOUNDNESS FAILURE: {violations} violation(s) — repro bundles written \
                         under {}",
                        final_dir.join("bundles").display()
                    );
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
