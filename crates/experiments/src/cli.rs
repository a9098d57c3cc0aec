//! Shared CLI flags for the sweep binaries.
//!
//! `campaign` and `fuzz` take the same core flags — `--manifest PATH`,
//! `--out DIR`, `--final DIR`, `--shard i/n`, `--quick`. [`SweepArgs`] is
//! the single copy of their parsing: a binary's argument loop *offers*
//! every flag to [`SweepArgs::try_flag`] first and only matches
//! binary-specific flags itself, so the shared surface can never drift
//! between the two. Their `run`/`merge` subcommands share
//! [`SweepArgs::run_shard`] and [`SweepArgs::merge`] the same way. The
//! serve binaries (`dpcp-serve`, `serve-loadgen`) run no sweep, so they
//! parse their own few flags and refuse the rest.
//!
//! ```
//! use dpcp_experiments::cli::SweepArgs;
//!
//! let argv = ["--quick", "--shard", "1/4", "--verbose"].map(String::from);
//! let mut it = argv.into_iter();
//! let mut shared = SweepArgs::new();
//! let mut verbose = false;
//! while let Some(flag) = it.next() {
//!     if shared.try_flag(&flag, &mut it)? {
//!         continue;
//!     }
//!     match flag.as_str() {
//!         "--verbose" => verbose = true,
//!         _ => panic!("usage"),
//!     }
//! }
//! assert!(shared.quick && verbose);
//! assert_eq!(shared.shard.to_string(), "1/4");
//! # Ok::<(), dpcp_experiments::cli::CliError>(())
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::campaign::{
    merge_dir, run_shard, CampaignError, MergeOutcome, ShardRunStats, ShardSpec, Sweep,
};
use crate::manifest::ManifestError;

/// A malformed value for one of the shared flags (e.g. a `--shard`
/// spec that is not `i/n`). The sweep binaries print it and exit 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl CliError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        CliError(message.into())
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The flag set shared by every sweep binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--manifest PATH` — the campaign/fuzz manifest.
    pub manifest: Option<PathBuf>,
    /// `--out DIR` — checkpoint/output directory.
    pub out: Option<PathBuf>,
    /// `--final DIR` — merged-output directory.
    pub final_dir: Option<PathBuf>,
    /// `--shard i/n` — which slice of the grid this process owns.
    pub shard: ShardSpec,
    /// `--quick` — the manifest's CI smoke scale.
    pub quick: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            manifest: None,
            out: None,
            final_dir: None,
            shard: ShardSpec::single(),
            quick: false,
        }
    }
}

impl SweepArgs {
    /// The empty flag set (unsharded, full scale).
    pub fn new() -> Self {
        SweepArgs::default()
    }

    /// Offers one flag to the shared set.
    ///
    /// Returns `Ok(true)` when `flag` is a shared flag and was consumed
    /// (pulling its value from `it` when it takes one), `Ok(false)` when
    /// it is not a shared flag (the caller matches it next).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when a shared flag's value is missing or
    /// malformed.
    pub fn try_flag(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        match flag {
            "--manifest" => self.manifest = it.next().map(PathBuf::from),
            "--out" => self.out = it.next().map(PathBuf::from),
            "--final" => self.final_dir = it.next().map(PathBuf::from),
            "--shard" => {
                let spec = it
                    .next()
                    .ok_or_else(|| CliError::new("--shard needs an 'i/n' spec"))?;
                self.shard = ShardSpec::parse(&spec).map_err(|e| CliError(e.to_string()))?;
            }
            "--quick" => self.quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The output directory: `--out` when given, else `root/name` (the
    /// sweep binaries' `results/<kind>/<campaign name>` convention).
    pub fn out_or(&self, root: &str, name: &str) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| PathBuf::from(root).join(name))
    }

    /// Reads the `--manifest` file and parses it with `parse`.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] naming the file when it is missing,
    /// unreadable or invalid.
    pub fn load_manifest<T>(
        &self,
        parse: impl FnOnce(&str) -> Result<T, ManifestError>,
    ) -> Result<T, CampaignError> {
        let path = self
            .manifest
            .as_deref()
            .ok_or_else(|| CampaignError::from_message("--manifest is required"))?;
        let text = std::fs::read_to_string(path).map_err(|e| {
            CampaignError::from_message(format!("cannot read manifest {}: {e}", path.display()))
        })?;
        parse(&text).map_err(|e| CampaignError::from_message(format!("{}: {e}", path.display())))
    }

    /// The `run` subcommand: [`run_shard`] on the `--shard` slice, with a
    /// progress line per cell and a completion line that CI greps.
    ///
    /// # Errors
    ///
    /// Propagates [`run_shard`]'s errors.
    pub fn run_shard<S: Sweep>(
        &self,
        sweep: &S,
        cells: &[S::Cell],
        out: &Path,
    ) -> Result<ShardRunStats, CampaignError> {
        let started = Instant::now();
        let shard = self.shard;
        let stats = run_shard(sweep, cells, shard, out, |done, total| {
            println!(
                "  shard {shard}: {done}/{total} cells  ({:.1?})",
                started.elapsed()
            );
        })?;
        println!(
            "shard {shard} complete: {} owned, {} resumed from checkpoint, {} evaluated, \
             {} failed ({:.1?}) → {}",
            stats.owned,
            stats.resumed,
            stats.evaluated,
            stats.failed,
            started.elapsed(),
            shard.path(out).display(),
        );
        Ok(stats)
    }

    /// The `merge` subcommand: [`merge_dir`], then `write` into `--final`
    /// (default `out/merged`), printing what was written and the failure
    /// summary. Returns the outcome and the output directory.
    ///
    /// # Errors
    ///
    /// Propagates [`merge_dir`]'s and `write`'s errors.
    pub fn merge<S: Sweep>(
        &self,
        sweep: &S,
        cells: &[S::Cell],
        out: &Path,
        write: impl FnOnce(&MergeOutcome<S::Output>, &Path) -> Result<Vec<PathBuf>, CampaignError>,
    ) -> Result<(MergeOutcome<S::Output>, PathBuf), CampaignError> {
        let outcome = merge_dir(sweep, cells, out)?;
        let final_dir = self.final_dir.clone().unwrap_or_else(|| out.join("merged"));
        let written = write(&outcome, &final_dir)?;
        println!("merged {} cells:", outcome.results.len());
        for path in written {
            println!("  wrote {}", path.display());
        }
        println!("{}", outcome.failure_summary());
        Ok((outcome, final_dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(SweepArgs, Vec<String>), CliError> {
        let mut it = argv.iter().map(|s| s.to_string());
        let mut shared = SweepArgs::new();
        let mut rest = Vec::new();
        while let Some(flag) = it.next() {
            if !shared.try_flag(&flag, &mut it)? {
                rest.push(flag);
            }
        }
        Ok((shared, rest))
    }

    #[test]
    fn consumes_shared_flags_and_passes_the_rest_through() {
        let (shared, rest) = parse(&[
            "--manifest",
            "ci/smoke.json",
            "--quick",
            "--canary",
            "0.05",
            "--shard",
            "1/2",
            "--out",
            "results/x",
            "--final",
            "merged",
        ])
        .expect("well-formed");
        assert_eq!(shared.manifest.as_deref(), Some("ci/smoke.json".as_ref()));
        assert_eq!(shared.out.as_deref(), Some("results/x".as_ref()));
        assert_eq!(shared.final_dir.as_deref(), Some("merged".as_ref()));
        assert_eq!((shared.shard.index, shared.shard.of), (1, 2));
        assert!(shared.quick);
        // Binary-specific flags fall through untouched, values included.
        assert_eq!(rest, ["--canary", "0.05"]);
    }

    #[test]
    fn rejects_malformed_shard_specs() {
        assert!(parse(&["--shard"]).is_err());
        assert!(parse(&["--shard", "nope"]).is_err());
        assert!(parse(&["--shard", "2/2"]).is_err());
    }

    #[test]
    fn out_or_falls_back_to_the_convention() {
        let (shared, _) = parse(&["--quick"]).expect("well-formed");
        assert_eq!(
            shared.out_or("results/campaign", "smoke"),
            PathBuf::from("results/campaign/smoke")
        );
        let (shared, _) = parse(&["--out", "elsewhere"]).expect("well-formed");
        assert_eq!(
            shared.out_or("results/campaign", "smoke"),
            PathBuf::from("elsewhere")
        );
    }
}
