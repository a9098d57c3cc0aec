//! Reproduction harness for the paper's evaluation (Sec. VII).
//!
//! The library half of this crate evaluates acceptance ratios of the
//! registry's nine methods (the paper's five compared methods plus the
//! reader-writer-aware extensions and the placement search) over
//! generated task sets. All experiment sweeps run through the unified
//! **campaign engine** ([`campaign`] + [`manifest`]): a JSON manifest
//! declares the scenario axes, methods, sample counts and analysis
//! ablations once; the runner shards the cell grid across jobs
//! (`--shard i/n`), checkpoints append-only JSONL and resumes completed
//! cells after a crash; `merge` folds shard outputs into the final
//! tables. Results are bit-identical for any thread count and any shard
//! split. The differential fuzzer ([`fuzz`]) runs on the same engine
//! through the [`Sweep`] trait.
//!
//! Binaries:
//!
//! - `cargo run -p dpcp_experiments --release --bin campaign -- run
//!   --manifest ci/smoke.json` — the generic engine (`run`/`merge`/
//!   `plan`),
//! - `cargo run -p dpcp_experiments --release --bin fuzz -- run
//!   --manifest ci/fuzz_smoke.json` — the differential soundness fuzzer
//!   (`run`/`merge`/`plan`/`replay`; `merge` exits non-zero on any
//!   violation),
//! - `cargo run -p dpcp_experiments --release --bin fig2` — the four
//!   acceptance-ratio panels of Fig. 2 (CSV + ASCII plots); a thin
//!   wrapper over a bundled manifest,
//! - `cargo run -p dpcp_experiments --release --bin tables` — the
//!   dominance and outperformance statistics of Tables 2 and 3 over the
//!   216-scenario grid (bundled manifest),
//! - `cargo run -p dpcp_experiments --release --bin ablation` — resource
//!   partitioning heuristics and path-cap sensitivity (bundled
//!   manifest).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii;
pub mod campaign;
pub mod cli;
pub mod fuzz;
pub mod harness;
pub mod manifest;
pub mod stats;

pub use campaign::{
    evaluate_cell, merge_dir, merged_csv, run_cells, run_shard, CampaignError, CellFailure,
    CellResult, MergeOutcome, ShardSpec, Sweep,
};
pub use cli::{CliError, SweepArgs};
pub use fuzz::{
    replay_bundle, shrink_violation, FuzzManifest, FuzzMergeOutcome, FuzzOracleConfig, FuzzRun,
    ReproBundle, Verdict, ViolationKind,
};
pub use harness::{
    evaluate_curve, evaluate_point, evaluate_point_subset, standard_registry, AcceptanceCurve,
    EvalConfig, Method, PointResult,
};
pub use manifest::{
    ablation_manifest, fig2_panel_manifest, tables_manifest, AblationSpec, AxisSpec,
    CampaignManifest, CellSpec, ManifestError, QuickOverrides,
};
pub use stats::{dominates, outperforms, PairwiseTable};
