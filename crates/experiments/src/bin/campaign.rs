//! The unified campaign CLI: manifest-driven, sharded, resumable sweeps.
//!
//! ```text
//! campaign run   --manifest PATH [--out DIR] [--shard i/n] [--quick]
//! campaign merge --manifest PATH [--out DIR] [--quick] [--final DIR]
//! campaign plan  --manifest PATH [--quick]
//! campaign plan  --methods
//! ```
//!
//! `run` evaluates (or resumes) one shard of the manifest's cell grid,
//! appending JSONL checkpoints to `DIR`; rerunning after a crash skips
//! completed cells. `merge` folds every shard checkpoint in `DIR` into
//! the final CSVs (written to `--final`, default `DIR/merged`) and fails
//! if the grid is incomplete. `plan` prints the expanded grid without
//! evaluating anything; `plan --methods` lists the protocol registry —
//! the names a manifest's `"methods"` array may use.
//!
//! The default `--out` is `results/campaign/<manifest name>`. `--quick`
//! applies the manifest's quick overrides (CI smoke scale); run and
//! merge must agree on it.

use std::process::ExitCode;

use dpcp_experiments::campaign::write_merged_outputs;
use dpcp_experiments::cli::SweepArgs;
use dpcp_experiments::manifest::{CampaignManifest, CellSpec};

struct Args {
    command: Command,
    shared: SweepArgs,
    methods: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Command {
    Run,
    Merge,
    Plan,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign <run|merge|plan> --manifest PATH \
         [--out DIR] [--shard i/n] [--quick] [--final DIR]\n\
         \x20      campaign plan --methods   (list registry method names)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = match it.next().as_deref() {
        Some("run") => Command::Run,
        Some("merge") => Command::Merge,
        Some("plan") => Command::Plan,
        _ => usage(),
    };
    let mut shared = SweepArgs::new();
    let mut methods = false;
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
            "--methods" => methods = true,
            _ => usage(),
        }
    }
    // --methods is the manifest-free registry listing: only meaningful
    // for `plan`, and mutually exclusive with --manifest (anything else
    // would silently ignore one of the two).
    if methods && (command != Command::Plan || shared.manifest.is_some()) {
        usage()
    }
    if shared.manifest.is_none() && !methods {
        usage()
    }
    Args {
        command,
        shared,
        methods,
    }
}

/// `plan --methods`: the registry listing manifest authors draw their
/// `"methods"` names from.
fn print_methods() {
    let registry = dpcp_experiments::standard_registry();
    println!("registered methods (use these names in a manifest's \"methods\" array):");
    for protocol in registry.iter() {
        println!(
            "  {:<12} tag {}  {}{}{}",
            protocol.name(),
            protocol.tag(),
            protocol.description(),
            if protocol.supports_rw() { "  [rw]" } else { "" },
            match protocol.search_budget() {
                Some(budget) => format!("  [search b={budget}]"),
                None => String::new(),
            },
        );
    }
}

fn describe_grid(manifest: &CampaignManifest, cells: &[CellSpec], quick: bool) {
    let scenarios = cells
        .iter()
        .map(|c| c.scenario.label())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let points: usize = cells.iter().map(|c| c.utilizations.len()).sum();
    let samples: usize = cells
        .iter()
        .map(|c| c.utilizations.len() * c.eval.samples_per_point)
        .sum();
    println!(
        "campaign '{}'{}: {} cells ({} scenarios × {} ablations), {} points, {} task-set samples, seed {}",
        manifest.name,
        if quick { " [quick]" } else { "" },
        cells.len(),
        scenarios,
        manifest.ablation_list().len(),
        points,
        samples,
        manifest.seed,
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.command == Command::Plan && args.methods {
        print_methods();
        return ExitCode::SUCCESS;
    }
    let manifest = match args.shared.load_manifest(CampaignManifest::from_json) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = manifest.cells(args.shared.quick);
    let out = args.shared.out_or("results/campaign", &manifest.name);
    describe_grid(&manifest, &cells, args.shared.quick);

    let outcome = match args.command {
        Command::Plan => {
            for cell in &cells {
                println!(
                    "  cell {:>4}  {}  [{}]  methods {:?}  {} points × {} samples",
                    cell.index,
                    cell.scenario.label(),
                    cell.ablation,
                    cell.methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
                    cell.utilizations.len(),
                    cell.eval.samples_per_point,
                );
            }
            Ok(())
        }
        Command::Run => args.shared.run_shard(&manifest, &cells, &out).map(|_| ()),
        Command::Merge => args
            .shared
            .merge(&manifest, &cells, &out, |outcome, dir| {
                write_merged_outputs(&outcome.results, &outcome.failures, dir)
            })
            .map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
