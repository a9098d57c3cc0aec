//! The campaign engine: sharded, resumable, manifest-driven sweeps.
//!
//! A campaign expands its [`CampaignManifest`] into an ordered cell grid
//! (see [`CampaignManifest::cells`]); the runner evaluates the cells of
//! one shard (`index % of == shard.index`) in waves over the ambient
//! rayon pool — cell-level parallelism on top of the per-sample fan-out
//! inside each utilization point, with the harness's per-sample seed
//! discipline — so results are bit-identical for any thread count *and
//! any shard split*, because every sample's RNG stream is a pure
//! function of `(seed, point, sample, retry)` and wave results fold back
//! in index order.
//!
//! Progress is checkpointed as **append-only JSONL**: one header line
//! identifying the campaign, then one line per completed cell, in index
//! order. On restart the runner replays the shard file, skips completed
//! cells and appends the rest — a crashed multi-hour sweep loses at most
//! one wave of cells. `merge` folds any number of shard files back into
//! the final tables and asserts the grid is complete.
//!
//! The engine is generic over [`Sweep`]; the differential fuzzer
//! ([`crate::fuzz::FuzzRun`]) runs on it too.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rayon::prelude::*;
use serde::{Deserialize, Serialize, Value};

use crate::harness::{AcceptanceCurve, Method, PointResult};
use crate::manifest::{CampaignManifest, CellSpec};

/// One shard of a campaign: `index ∈ [0, of)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl ShardSpec {
    /// The unsharded singleton.
    pub fn single() -> ShardSpec {
        ShardSpec { index: 0, of: 1 }
    }

    /// Parses `"i/n"` (e.g. `--shard 0/2`).
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] on malformed input or `i ≥ n`.
    pub fn parse(text: &str) -> Result<ShardSpec, CampaignError> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| CampaignError::new(format!("shard spec '{text}' is not 'i/n'")))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| CampaignError::new(format!("bad shard index in '{text}'")))?;
        let of: usize = n
            .trim()
            .parse()
            .map_err(|_| CampaignError::new(format!("bad shard count in '{text}'")))?;
        if of == 0 || index >= of {
            return Err(CampaignError::new(format!(
                "shard index {index} out of range for {of} shards"
            )));
        }
        Ok(ShardSpec { index, of })
    }

    /// Does this shard own the cell?
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.of == self.index
    }

    /// The shard's checkpoint file inside the campaign directory.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("shard_{}_of_{}.jsonl", self.index, self.of))
    }
}

impl core::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// Campaign-engine failure (I/O, corrupt checkpoints, incomplete grids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError(String);

impl CampaignError {
    fn new(message: impl Into<String>) -> CampaignError {
        CampaignError(message.into())
    }

    /// Wraps a caller-side failure message (CLI I/O, manifest loading).
    pub fn from_message(message: impl Into<String>) -> CampaignError {
        CampaignError::new(message)
    }
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "campaign error: {}", self.0)
    }
}

impl std::error::Error for CampaignError {}

/// A sweep the shard engine runs, resumes and merges: the campaign
/// ([`CampaignManifest`]) or the fuzzer ([`crate::fuzz::FuzzRun`]). The
/// checkpoint format, recovery, panic isolation, waves and merge are the
/// engine's, so a fix to any of them lands once for both.
pub trait Sweep: Sync {
    /// One unit of work in the expanded grid.
    type Cell: Sync;
    /// A completed cell, as checkpointed.
    type Output: Serialize + Deserialize + Send;
    /// The identity line at the top of every shard file.
    type Header: Serialize + Deserialize;

    /// The header of a shard of `cells` with the given grid fingerprint.
    fn header(&self, cells: &[Self::Cell], fingerprint: String, shard: ShardSpec) -> Self::Header;

    /// A cell's grid position (the resume/merge key).
    fn index(cell: &Self::Cell) -> usize;

    /// Everything that defines what a cell means, hashed into the grid
    /// fingerprint (see [`grid_fingerprint`]).
    fn identity(cell: &Self::Cell) -> Value;

    /// Evaluates one cell. An `Err` is retried like a panic and then
    /// checkpointed as a [`CellFailure`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] when the cell cannot be evaluated.
    fn evaluate(&self, cell: &Self::Cell) -> Result<Self::Output, CampaignError>;

    /// The `(scenario, ablation)` labels of this cell's [`CellFailure`].
    fn labels(cell: &Self::Cell) -> (String, String);

    /// A checkpointed output's grid position.
    fn output_index(output: &Self::Output) -> usize;

    /// Does a checkpointed output describe `cell`? Merge checks this on
    /// top of the fingerprint.
    fn output_matches(cell: &Self::Cell, output: &Self::Output) -> bool;
}

/// The identity line at the top of every campaign shard file; a resume
/// or merge against a different campaign/grid/scale is rejected instead
/// of silently mixing results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHeader {
    /// Manifest name.
    pub campaign: String,
    /// Manifest seed.
    pub seed: u64,
    /// Expanded grid size (cell count).
    pub grid: usize,
    /// Effective samples per point (quick mode changes it).
    pub samples_per_point: usize,
    /// FNV-1a hash over every expanded cell's full configuration
    /// (scenario, ablation, methods, heuristic, analysis config,
    /// utilization points, sample scale) — see [`grid_fingerprint`]. Any
    /// manifest edit that changes what a cell *means* changes this, even
    /// when name/seed/grid-size stay equal.
    pub fingerprint: String,
    /// Shard coordinates.
    pub shard: ShardSpec,
}

impl Sweep for CampaignManifest {
    type Cell = CellSpec;
    type Output = CellResult;
    type Header = ShardHeader;

    fn header(&self, cells: &[CellSpec], fingerprint: String, shard: ShardSpec) -> ShardHeader {
        ShardHeader {
            campaign: self.name.clone(),
            seed: self.seed,
            grid: cells.len(),
            samples_per_point: cells.first().map_or(0, |c| c.eval.samples_per_point),
            fingerprint,
            shard,
        }
    }

    fn index(cell: &CellSpec) -> usize {
        cell.index
    }

    fn identity(cell: &CellSpec) -> Value {
        // Nested ≤4-tuples: the vendored serde implements tuples only up
        // to arity four.
        (
            (cell.index, &cell.scenario, &cell.ablation),
            (&cell.methods, cell.heuristic, &cell.eval.ep_config),
            (
                cell.eval.samples_per_point,
                cell.eval.seed,
                cell.eval.generation_retries,
                &cell.utilizations,
            ),
        )
            .serialize()
    }

    fn evaluate(&self, cell: &CellSpec) -> Result<CellResult, CampaignError> {
        Ok(evaluate_cell(cell))
    }

    fn labels(cell: &CellSpec) -> (String, String) {
        (cell.scenario.label(), cell.ablation.clone())
    }

    fn output_index(output: &CellResult) -> usize {
        output.index
    }

    fn output_matches(cell: &CellSpec, output: &CellResult) -> bool {
        output.scenario == cell.scenario && output.ablation == cell.ablation
    }
}

/// FNV-1a fingerprint of the fully expanded grid, over every cell's
/// [`Sweep::identity`]: a resume or merge after a manifest edit that
/// re-points any cell (different utilization points, ablation config,
/// methods, heuristic or sample scale) is rejected up front instead of
/// silently mixing results evaluated under the old meaning. FNV-1a is
/// implemented inline so the hash is stable across builds and toolchains
/// (std's hasher is not).
///
/// # Errors
///
/// Returns [`CampaignError`] when a cell identity fails to serialize
/// (propagated instead of panicking — a malformed cell must not abort a
/// shard).
pub fn grid_fingerprint<S: Sweep>(cells: &[S::Cell]) -> Result<String, CampaignError> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        let identity = serde_json::to_string(&S::identity(cell)).map_err(|e| {
            CampaignError::new(format!(
                "cell {} identity fails to serialize: {e}",
                S::index(cell)
            ))
        })?;
        for &b in identity.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(format!("{hash:016x}"))
}

/// One completed cell: the scenario×ablation identity plus its full
/// acceptance sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Grid position (the resume/merge key).
    pub index: usize,
    /// The evaluated scenario.
    pub scenario: dpcp_gen::Scenario,
    /// The ablation label.
    pub ablation: String,
    /// Methods this cell evaluated.
    pub methods: Vec<Method>,
    /// One entry per utilization point, ascending.
    pub points: Vec<PointResult>,
}

impl CellResult {
    /// The cell folded into a legacy [`AcceptanceCurve`].
    pub fn curve(&self) -> AcceptanceCurve {
        AcceptanceCurve {
            scenario: self.scenario.clone(),
            points: self.points.clone(),
        }
    }
}

/// A recorded per-cell failure: the cell panicked (or its evaluation
/// returned an error) after the bounded deterministic retry, and the
/// shard kept going instead of aborting. Failures are checkpointed like
/// results — a resume skips them, keeping checkpoint bytes stable — and
/// surfaced in the merge summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Grid position (the resume/merge key).
    pub index: usize,
    /// The failed cell's scenario label (kept so the merge summary can
    /// name the cell without re-expanding the grid).
    pub scenario: String,
    /// The failed cell's ablation label (a fuzz cell's release label).
    pub ablation: String,
    /// The captured panic/error message.
    pub error: String,
    /// Retries attempted before recording the failure.
    pub retries: usize,
}

/// One JSONL line: exactly one of the members is non-null. `failed` is
/// absent in pre-existing checkpoints and deserializes to `None`.
struct LineRecord<H, R> {
    header: Option<H>,
    cell: Option<R>,
    failed: Option<CellFailure>,
}

/// A checkpoint line of sweep `S`.
type Record<S> = LineRecord<<S as Sweep>::Header, <S as Sweep>::Output>;

// The vendored derive does not take generic types; these two impls are
// what it would generate for the three members.
impl<H: Serialize, R: Serialize> Serialize for LineRecord<H, R> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("header".to_string(), self.header.serialize()),
            ("cell".to_string(), self.cell.serialize()),
            ("failed".to_string(), self.failed.serialize()),
        ])
    }
}

impl<H: Deserialize, R: Deserialize> Deserialize for LineRecord<H, R> {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut header, mut cell, mut failed) = (None, None, None);
        r.object(|r, key| match key {
            "header" => r.member(&mut header),
            "cell" => r.member(&mut cell),
            "failed" => r.member(&mut failed),
            _ => r.skip(),
        })?;
        Ok(LineRecord {
            header: serde::or_null(header)?,
            cell: serde::or_null(cell)?,
            failed: serde::or_null(failed)?,
        })
    }
}

/// Evaluates one cell (all utilization points, samples rayon-fanned).
pub fn evaluate_cell(cell: &CellSpec) -> CellResult {
    let points = cell
        .utilizations
        .iter()
        .enumerate()
        .map(|(pi, &u)| {
            crate::harness::evaluate_point_subset(
                &cell.scenario,
                u,
                pi,
                &cell.eval,
                cell.heuristic,
                &cell.methods,
            )
        })
        .collect();
    CellResult {
        index: cell.index,
        scenario: cell.scenario.clone(),
        ablation: cell.ablation.clone(),
        methods: cell.methods.clone(),
        points,
    }
}

/// Evaluates a full cell list in memory (no checkpoint files) — the path
/// the legacy wrapper binaries take. Cells fan out over the ambient
/// rayon pool (on top of the per-sample parallelism inside each point);
/// the result order is the input order regardless of pool width.
pub fn run_cells(cells: &[CellSpec]) -> Vec<CellResult> {
    cells.par_iter().map(evaluate_cell).collect()
}

/// A replayed checkpoint: each completed cell's output or recorded
/// failure, by grid index.
type Completed<R> = BTreeMap<usize, Result<R, CellFailure>>;

/// Does `found` describe the same sweep as `expect`? Every member but the
/// shard coordinates (merge reads every shard of a split) must match —
/// the grid fingerprint and a fuzz run's canary scale included.
fn same_sweep<H: Serialize>(found: &H, expect: &H) -> bool {
    let members = |header: &H| match header.serialize() {
        Value::Object(members) => members.into_iter().filter(|(k, _)| k != "shard").collect(),
        _ => Vec::new(),
    };
    members(found) == members(expect)
}

/// The header on a checkpoint's first line; `None` for an empty file or
/// a torn header line (a writer killed during the very first append).
fn read_header<S: Sweep>(text: &str) -> Option<S::Header> {
    let first = text.lines().next()?;
    serde_json::from_str::<Record<S>>(first).ok()?.header
}

/// Parses a shard checkpoint: the header plus every completed cell.
/// Unparseable lines are tolerated (an interrupted writer leaves at most
/// one torn tail line; resuming re-evaluates that cell), but a missing
/// or mismatched header is an error.
fn parse_checkpoint<S: Sweep>(
    text: &str,
    path: &Path,
    expect: &S::Header,
) -> Result<Completed<S::Output>, CampaignError> {
    let header = read_header::<S>(text).ok_or_else(|| {
        CampaignError::new(format!("{}: first line is not a header", path.display()))
    })?;
    if !same_sweep(&header, expect) {
        let json = |h: &S::Header| serde_json::to_string(h).unwrap_or_default();
        return Err(CampaignError::new(format!(
            "{}: header mismatch — the checkpoint was written by a different sweep or an \
             edited manifest (file: {}; expected: {})",
            path.display(),
            json(&header),
            json(expect),
        )));
    }
    let mut completed = Completed::new();
    for line in text.lines().skip(1) {
        let Ok(record) = serde_json::from_str::<Record<S>>(line) else {
            continue; // torn tail line from an interrupted run
        };
        if let Some(output) = record.cell {
            completed.insert(S::output_index(&output), Ok(output));
        }
        if let Some(failed) = record.failed {
            completed.insert(failed.index, Err(failed));
        }
    }
    Ok(completed)
}

/// An interrupted writer can leave a torn final line with no trailing
/// newline; appending straight after it would glue the next record onto
/// the fragment and corrupt *that* record too. Terminate the fragment
/// before any append (the fragment itself is then skipped as one
/// unparseable line and its cell is re-evaluated).
fn heal_torn_tail(path: &Path, text: &str) -> Result<(), CampaignError> {
    if !text.is_empty() && !text.ends_with('\n') {
        append(path, "\n")?;
    }
    Ok(())
}

fn append_line(path: &Path, record: &impl Serialize) -> Result<(), CampaignError> {
    let line = serde_json::to_string(record)
        .map_err(|e| CampaignError::new(format!("cannot serialize record: {e}")))?;
    append(path, &(line + "\n"))
}

fn append(path: &Path, text: &str) -> Result<(), CampaignError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| CampaignError::new(format!("cannot open {}: {e}", path.display())))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| CampaignError::new(format!("cannot append to {}: {e}", path.display())))
}

/// Outcome of one [`run_shard`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Cells this shard owns.
    pub owned: usize,
    /// Cells found complete in the checkpoint (skipped) — recorded
    /// failures count too, so a resume never retries a poisoned cell
    /// (which keeps checkpoint bytes stable across resumes).
    pub resumed: usize,
    /// Cells evaluated by this invocation.
    pub evaluated: usize,
    /// Cells that panicked or errored past the retry budget and were
    /// recorded as [`CellFailure`]s by this invocation.
    pub failed: usize,
}

/// Captures the panic payload as a human-readable message (also used by
/// `dpcp-serve`'s per-request panic isolation).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Bounded deterministic retry budget for a failing cell (the inputs
/// are pure functions of the seed, so a second attempt only guards
/// against environmental flukes like allocation failure).
const CELL_RETRIES: usize = 1;

/// Evaluates one cell panic-isolated: a panic anywhere in generation,
/// analysis or the rayon fan-out — or an `Err` from
/// [`Sweep::evaluate`] — is caught, retried once, and then reported as a
/// [`CellFailure`] instead of unwinding the shard.
fn evaluate_isolated<S: Sweep>(sweep: &S, cell: &S::Cell) -> Result<S::Output, CellFailure> {
    let mut last = String::new();
    for _ in 0..=CELL_RETRIES {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.evaluate(cell))) {
            Ok(Ok(output)) => return Ok(output),
            Ok(Err(e)) => last = e.to_string(),
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    let (scenario, ablation) = S::labels(cell);
    Err(CellFailure {
        index: S::index(cell),
        scenario,
        ablation,
        error: last,
        retries: CELL_RETRIES,
    })
}

/// Runs (or resumes) one shard of a sweep, checkpointing each completed
/// cell to `dir/shard_<i>_of_<n>.jsonl`. `progress` is called after
/// every cell with `(cells done, cells owned)` — resumed cells first,
/// then evaluated cells in index order.
///
/// Pending cells are evaluated in *waves* over the ambient rayon pool
/// (wave width = pool width), a cell-level work layer on top of any
/// parallelism inside a cell. Each wave's results are appended in index
/// order, so the checkpoint bytes are identical to a sequential run for
/// any pool width (asserted in `tests/campaign.rs`) and a crash loses at
/// most one wave.
///
/// # Errors
///
/// Returns [`CampaignError`] on I/O failures or when the directory holds
/// a checkpoint of a *different* sweep (name, seed, grid, sample scale,
/// fingerprint or canary mismatch).
pub fn run_shard<S: Sweep>(
    sweep: &S,
    cells: &[S::Cell],
    shard: ShardSpec,
    dir: &Path,
    mut progress: impl FnMut(usize, usize),
) -> Result<ShardRunStats, CampaignError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CampaignError::new(format!("cannot create {}: {e}", dir.display())))?;
    let header = sweep.header(cells, grid_fingerprint::<S>(cells)?, shard);
    let path = shard.path(dir);
    // One read serves the header check, the torn-tail heal and the
    // completed-cell replay.
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            return Err(CampaignError::new(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    // A checkpoint whose *header* append was itself interrupted (empty
    // file / torn first line) holds nothing recoverable and is recreated
    // rather than bricking the shard; a parseable header is never
    // second-guessed here, so mismatch protection stays intact.
    let completed = if let Some(text) = existing.filter(|t| read_header::<S>(t).is_some()) {
        heal_torn_tail(&path, &text)?;
        parse_checkpoint::<S>(&text, &path, &header)?
    } else {
        std::fs::write(&path, "")
            .map_err(|e| CampaignError::new(format!("cannot create {}: {e}", path.display())))?;
        let record: Record<S> = LineRecord {
            header: Some(header),
            cell: None,
            failed: None,
        };
        append_line(&path, &record)?;
        Completed::new()
    };
    let owned: Vec<&S::Cell> = cells.iter().filter(|c| shard.owns(S::index(c))).collect();
    let mut stats = ShardRunStats {
        owned: owned.len(),
        ..ShardRunStats::default()
    };
    let mut done = 0usize;
    let mut pending: Vec<&S::Cell> = Vec::with_capacity(owned.len());
    for cell in owned {
        if completed.contains_key(&S::index(cell)) {
            stats.resumed += 1;
            done += 1;
            progress(done, stats.owned);
        } else {
            pending.push(cell);
        }
    }
    let width = rayon::current_num_threads().max(1);
    for wave in pending.chunks(width) {
        // The wave fans out over the ambient pool; the index-ordered fold
        // below keeps the JSONL append order (and therefore the
        // checkpoint bytes) deterministic for any pool width. Each cell
        // is panic-isolated: a poisoned input records a failure line
        // instead of killing the shard.
        let results: Vec<Result<S::Output, CellFailure>> = wave
            .par_iter()
            .map(|cell| evaluate_isolated(sweep, cell))
            .collect();
        for result in results {
            let (cell, failed) = match result {
                Ok(output) => {
                    stats.evaluated += 1;
                    (Some(output), None)
                }
                Err(failure) => {
                    stats.failed += 1;
                    (None, Some(failure))
                }
            };
            let record: Record<S> = LineRecord {
                header: None,
                cell,
                failed,
            };
            append_line(&path, &record)?;
            done += 1;
            progress(done, stats.owned);
        }
    }
    Ok(stats)
}

/// A completed merge: the index-ordered results plus every recorded
/// per-cell failure (a cell is either a result or a failure; failures
/// count as *covered* for the completeness check but are excluded from
/// the result tables and surfaced in the summary instead).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome<R = CellResult> {
    /// Successfully evaluated cells, in index order.
    pub results: Vec<R>,
    /// Recorded failures, in index order.
    pub failures: Vec<CellFailure>,
}

impl<R> MergeOutcome<R> {
    /// A short human-readable error/retry summary (printed by `campaign
    /// merge` and `fuzz merge`).
    pub fn failure_summary(&self) -> String {
        if self.failures.is_empty() {
            return "0 errored cells".to_string();
        }
        let retries: usize = self.failures.iter().map(|f| f.retries).sum();
        let mut out = format!(
            "{} errored cell(s) after {} retr{}:",
            self.failures.len(),
            retries,
            if retries == 1 { "y" } else { "ies" }
        );
        for f in &self.failures {
            out.push_str(&format!(
                "\n  cell {} ({}, {}): {}",
                f.index, f.scenario, f.ablation, f.error
            ));
        }
        out
    }
}

/// Collects every shard checkpoint in `dir` and folds them into the
/// complete, index-ordered cell list plus the recorded failures.
///
/// # Errors
///
/// Returns [`CampaignError`] when no checkpoint exists, a header
/// mismatches the manifest, or the grid is incomplete (lists the missing
/// cell indices — the shards still to run).
pub fn merge_dir<S: Sweep>(
    sweep: &S,
    cells: &[S::Cell],
    dir: &Path,
) -> Result<MergeOutcome<S::Output>, CampaignError> {
    let expect = sweep.header(cells, grid_fingerprint::<S>(cells)?, ShardSpec::single());
    let mut shard_files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CampaignError::new(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard_") && n.ends_with(".jsonl"))
        })
        .collect();
    shard_files.sort();
    if shard_files.is_empty() {
        return Err(CampaignError::new(format!(
            "no shard checkpoints in {}",
            dir.display()
        )));
    }
    let mut merged = Completed::new();
    for path in &shard_files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::new(format!("cannot read {}: {e}", path.display())))?;
        merged.extend(parse_checkpoint::<S>(&text, path, &expect)?);
    }
    // Belt-and-braces on top of the fingerprint: every merged cell must
    // agree with the expanded spec at its index on what it evaluated.
    for cell in cells {
        if let Some(Ok(output)) = merged.get(&S::index(cell)) {
            if !S::output_matches(cell, output) {
                let (scenario, ablation) = S::labels(cell);
                return Err(CampaignError::new(format!(
                    "cell {} identity mismatch: the checkpoint holds a different cell than the \
                     manifest expands to ({scenario}, {ablation})",
                    S::index(cell),
                )));
            }
        }
    }
    let missing: Vec<usize> = cells
        .iter()
        .map(S::index)
        .filter(|i| !merged.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(CampaignError::new(format!(
            "grid incomplete: {} of {} cells missing (indices {:?}{})",
            missing.len(),
            cells.len(),
            &missing[..missing.len().min(16)],
            if missing.len() > 16 { ", …" } else { "" }
        )));
    }
    let (results, failures): (Vec<_>, Vec<_>) = merged.into_values().partition(Result::is_ok);
    Ok(MergeOutcome {
        results: results.into_iter().flatten().collect(),
        failures: failures.into_iter().filter_map(Result::err).collect(),
    })
}

/// Results and failures — disjoint and each index-ordered — merged into
/// one index-ordered row sequence, as the summary CSVs list them.
pub(crate) fn rows_by_index<'a, R>(
    results: &'a [R],
    index: impl Fn(&R) -> usize,
    failures: &'a [CellFailure],
) -> Vec<Result<&'a R, &'a CellFailure>> {
    let mut rows = Vec::with_capacity(results.len() + failures.len());
    let mut pending = failures.iter().peekable();
    for result in results {
        while let Some(f) = pending.next_if(|f| f.index < index(result)) {
            rows.push(Err(f));
        }
        rows.push(Ok(result));
    }
    rows.extend(pending.map(Err));
    rows
}

/// The merged long-format CSV: one row per `(cell, method, point)`.
/// Deterministic bytes for any shard split or thread count — the CI
/// smoke gate diffs this against a committed golden file.
pub fn merged_csv(results: &[CellResult]) -> String {
    let mut out =
        String::from("cell,scenario,ablation,method,utilization,normalized,samples,ratio\n");
    for cell in results {
        for &method in &cell.methods {
            for p in &cell.points {
                out.push_str(&format!(
                    "{},{},{},{},{:.3},{:.3},{},{:.4}\n",
                    cell.index,
                    cell.scenario.label(),
                    cell.ablation,
                    method.name(),
                    p.utilization,
                    p.normalized,
                    p.samples,
                    p.ratio(method),
                ));
            }
        }
    }
    out
}

/// The per-cell totals CSV (`total_accepted` per method — the paper's
/// outperformance metric) plus the robustness columns: `errored_cells`
/// (1 on the synthetic row emitted for each recorded [`CellFailure`],
/// 0 everywhere else) and `budget_exceeded` (always 0 for analysis-only
/// campaigns; the fuzz pipeline tracks sim budgets separately). Existing
/// goldens stay byte-stable modulo the header re-pin because healthy
/// campaigns append `,0,0` to every row.
pub fn summary_csv(results: &[CellResult], failures: &[CellFailure]) -> String {
    let mut out = String::from(
        "cell,scenario,ablation,method,total_accepted,errored_cells,budget_exceeded\n",
    );
    // Results and failures are disjoint and index-ordered; interleave by
    // grid index while preserving the registry method order within each
    // cell (exactly the legacy row order, with `,0,0` appended).
    for row in rows_by_index(results, |c| c.index, failures) {
        match row {
            Ok(cell) => {
                let curve = cell.curve();
                for &method in &cell.methods {
                    out.push_str(&format!(
                        "{},{},{},{},{},0,0\n",
                        cell.index,
                        cell.scenario.label(),
                        cell.ablation,
                        method.name(),
                        curve.total_accepted(method),
                    ));
                }
            }
            Err(f) => out.push_str(&format!(
                "{},{},{},-,0,1,0\n",
                f.index, f.scenario, f.ablation
            )),
        }
    }
    out
}

/// A column-per-ablation matrix CSV for campaigns whose ablations each
/// evaluate a single method on a shared scenario (the legacy `ablation`
/// binary's layout): `utilization,normalized,samples,<label…>`.
///
/// # Errors
///
/// Returns [`CampaignError`] when the cells disagree on scenario or
/// utilization points, or an ablation evaluates more than one method.
pub fn ablation_matrix_csv(results: &[CellResult]) -> Result<String, CampaignError> {
    let Some(first) = results.first() else {
        return Err(CampaignError::new("no cells to tabulate"));
    };
    for cell in results {
        if cell.scenario != first.scenario {
            return Err(CampaignError::new(
                "ablation matrix needs a single shared scenario",
            ));
        }
        if cell.points.len() != first.points.len() {
            return Err(CampaignError::new("cells disagree on utilization points"));
        }
        if cell.methods.len() != 1 {
            return Err(CampaignError::new(
                "ablation matrix needs single-method cells",
            ));
        }
    }
    let mut out = String::from("utilization,normalized,samples");
    for cell in results {
        out.push(',');
        out.push_str(&cell.ablation);
    }
    out.push('\n');
    for pi in 0..first.points.len() {
        let p = &first.points[pi];
        out.push_str(&format!(
            "{:.3},{:.3},{}",
            p.utilization, p.normalized, p.samples
        ));
        for cell in results {
            let ratio = cell.points[pi].ratio(cell.methods[0]);
            out.push_str(&format!(",{ratio:.4}"));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Diffs freshly emitted output bytes against a committed golden file
/// (`golden_dir/name`), printing the verdict; returns `false` on a
/// mismatch or an unreadable golden. The wrapper binaries
/// (`fig2`/`tables`/`ablation --assert-golden`) and CI's
/// `campaign-smoke` job share this one comparison.
pub fn assert_golden(golden_dir: &Path, name: &str, contents: &str) -> bool {
    let golden_path = golden_dir.join(name);
    match std::fs::read_to_string(&golden_path) {
        Ok(golden) if golden == contents => {
            println!("golden match: {}", golden_path.display());
            true
        }
        Ok(_) => {
            eprintln!("GOLDEN MISMATCH: {}", golden_path.display());
            false
        }
        Err(e) => {
            eprintln!("cannot read golden {}: {e}", golden_path.display());
            false
        }
    }
}

/// Writes the standard merged outputs (`merged.csv`, `summary.csv`, one
/// `curve_*.csv` per cell) into `dir`; returns the written paths.
///
/// The `merged.csv` bytes are a pure function of the manifest (cell
/// order, method order and float formatting are all pinned), which is
/// what lets CI diff them against a committed golden file.
///
/// # Errors
///
/// Returns [`CampaignError`] on I/O failures.
pub fn write_merged_outputs(
    results: &[CellResult],
    failures: &[CellFailure],
    dir: &Path,
) -> Result<Vec<PathBuf>, CampaignError> {
    let mut files = vec![
        ("merged.csv".to_string(), merged_csv(results)),
        ("summary.csv".to_string(), summary_csv(results, failures)),
    ];
    files.extend(results.iter().map(|cell| {
        let name = format!(
            "curve_{:04}_{}_{}.csv",
            cell.index,
            cell.scenario.label(),
            cell.ablation
        );
        (name, cell.curve().to_csv_for(&cell.methods))
    }));
    write_files(dir, files)
}

/// Writes each `(path under dir, contents)` pair; returns the paths.
pub(crate) fn write_files(
    dir: &Path,
    files: impl IntoIterator<Item = (String, String)>,
) -> Result<Vec<PathBuf>, CampaignError> {
    let mut written = Vec::new();
    for (name, contents) in files {
        let path = dir.join(name);
        let parent = path.parent().unwrap_or(dir);
        std::fs::create_dir_all(parent)
            .map_err(|e| CampaignError::new(format!("cannot create {}: {e}", parent.display())))?;
        std::fs::write(&path, contents)
            .map_err(|e| CampaignError::new(format!("cannot write {}: {e}", path.display())))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parsing() {
        assert_eq!(
            ShardSpec::parse("0/2").unwrap(),
            ShardSpec { index: 0, of: 2 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().to_string(), "3/4");
        assert!(ShardSpec::parse("2/2").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x/2").is_err());
        assert!(ShardSpec::parse("1").is_err());
        let s = ShardSpec { index: 1, of: 3 };
        assert!(!s.owns(0) && s.owns(1) && !s.owns(2) && !s.owns(3) && s.owns(4));
        assert_eq!(
            s.path(Path::new("/tmp/x")),
            PathBuf::from("/tmp/x/shard_1_of_3.jsonl")
        );
    }

    #[test]
    fn csv_emitters_have_stable_shape() {
        let scenario = dpcp_gen::Scenario::fig2(dpcp_gen::Fig2Panel::A);
        let mk = |index: usize, ablation: &str, method: Method, accepted: usize| CellResult {
            index,
            scenario: scenario.clone(),
            ablation: ablation.to_string(),
            methods: vec![method],
            points: vec![PointResult {
                utilization: 4.0,
                normalized: 0.25,
                samples: 4,
                generation_failures: 0,
                accepted: {
                    let mut a = [0usize; Method::COUNT];
                    a[method.index()] = accepted;
                    a
                },
            }],
        };
        let results = vec![
            mk(0, "WFD", Method::DpcpEp, 3),
            mk(1, "EN", Method::DpcpEn, 2),
        ];
        let merged = merged_csv(&results);
        let mut lines = merged.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cell,scenario,ablation,method,utilization,normalized,samples,ratio"
        );
        assert_eq!(
            lines.next().unwrap(),
            format!("0,{},WFD,DPCP-p-EP,4.000,0.250,4,0.7500", scenario.label())
        );
        let summary = summary_csv(&results, &[]);
        assert_eq!(
            summary.lines().next().unwrap(),
            "cell,scenario,ablation,method,total_accepted,errored_cells,budget_exceeded"
        );
        assert!(summary.contains(&format!("1,{},EN,DPCP-p-EN,2,0,0", scenario.label())));
        // A recorded failure interleaves by index as a synthetic row with
        // errored_cells = 1.
        let failure = CellFailure {
            index: 2,
            scenario: scenario.label(),
            ablation: "WFD".to_string(),
            error: "boom".to_string(),
            retries: 1,
        };
        let with_failure = summary_csv(&results, std::slice::from_ref(&failure));
        assert!(with_failure.ends_with(&format!("2,{},WFD,-,0,1,0\n", scenario.label())));
        let matrix = ablation_matrix_csv(&results).unwrap();
        assert_eq!(
            matrix,
            "utilization,normalized,samples,WFD,EN\n4.000,0.250,4,0.7500,0.5000\n"
        );
    }

    #[test]
    fn ablation_matrix_rejects_mixed_shapes() {
        let scenario = dpcp_gen::Scenario::fig2(dpcp_gen::Fig2Panel::A);
        let cell = CellResult {
            index: 0,
            scenario,
            ablation: "default".to_string(),
            methods: Method::ALL.to_vec(),
            points: Vec::new(),
        };
        assert!(ablation_matrix_csv(&[cell]).is_err());
        assert!(ablation_matrix_csv(&[]).is_err());
    }
}
