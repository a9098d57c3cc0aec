//! Manifest-driven campaign declarations.
//!
//! A [`CampaignManifest`] is a serde-deserialized JSON document that
//! declares an experiment sweep once: the scenario axes (the cartesian
//! product becomes the grid), the methods to compare, sample counts and
//! the analysis-config ablations. Expanding a manifest yields the ordered
//! list of [`CellSpec`]s the campaign runner evaluates — cell order is a
//! pure function of the manifest, which is what makes sharded runs
//! (`--shard i/n`) and resume-after-crash deterministic.
//!
//! The bundled manifests behind the legacy binaries live in
//! [`fig2_panel_manifest`], [`tables_manifest`] and
//! [`ablation_manifest`]; the CI smoke manifest is committed at
//! `ci/smoke.json`.

use dpcp_core::partition::ResourceHeuristic;
use dpcp_core::AnalysisConfig;
use dpcp_gen::scenario::Scenario;
use dpcp_gen::GraphShape;
use serde::{Deserialize, Serialize};

use crate::harness::{standard_registry, EvalConfig, Method};

/// The scenario axes of a campaign; the grid is the cartesian product in
/// the fixed order `m → nr_range → u_avg → access_prob → max_requests →
/// cs_range_us → graph_shape → light_fraction → vertex_range →
/// cs_budget_fraction → rw_share` (outermost first), which pins cell
/// indices across shards and resumes. The optional axes expand
/// innermost, so manifests that omit them keep their historical cell
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSpec {
    /// Processor counts `m`.
    pub m: Vec<usize>,
    /// Shared-resource count ranges `n_r` (inclusive).
    pub nr_range: Vec<(usize, usize)>,
    /// Average task utilizations `U^avg`.
    pub u_avg: Vec<f64>,
    /// Per-resource access probabilities `p_r`.
    pub access_prob: Vec<f64>,
    /// Maximum request counts `N^max`.
    pub max_requests: Vec<u32>,
    /// Critical-section length classes, in microseconds.
    pub cs_range_us: Vec<(u64, u64)>,
    /// DAG-shape axis; omitted → ordered Erdős–Rényi only.
    pub graph_shape: Option<Vec<GraphShape>>,
    /// Heavy/light-mix axis (fraction of utilization given to sequential
    /// light tasks); omitted → purely heavy sets.
    pub light_fraction: Option<Vec<f64>>,
    /// Per-task vertex-count range axis; omitted → the generator's
    /// default (`[10, 100]`). The fuzz sweeps push this to ~1000 for
    /// degenerate deep/wide structures.
    pub vertex_range: Option<Vec<(usize, usize)>>,
    /// Critical-section budget-fraction axis (share of a vertex's WCET
    /// that critical sections may occupy); omitted → the generator's
    /// default (0.5).
    pub cs_budget_fraction: Option<Vec<f64>>,
    /// Reader-share axis (probability that an individual request is a
    /// read); omitted → write-only generation. Values of `0.0` keep the
    /// paper's RNG stream byte-identical; positive values require every
    /// evaluated method to pass the registry's `supports_rw` probe.
    pub rw_share: Option<Vec<f64>>,
}

impl AxisSpec {
    /// The single-scenario axis spec (all axes pinned to one value).
    pub fn single(s: &Scenario) -> AxisSpec {
        AxisSpec {
            m: vec![s.m],
            nr_range: vec![s.nr_range],
            u_avg: vec![s.u_avg],
            access_prob: vec![s.access_prob],
            max_requests: vec![s.max_requests],
            cs_range_us: vec![s.cs_range_us],
            graph_shape: Some(vec![s.graph_shape]),
            light_fraction: Some(vec![s.light_fraction]),
            vertex_range: s.vertex_range.map(|v| vec![v]),
            cs_budget_fraction: s.cs_budget_fraction.map(|f| vec![f]),
            rw_share: s.rw_share.map(|f| vec![f]),
        }
    }

    /// Expands the axes into the ordered scenario grid.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let shapes = self
            .graph_shape
            .clone()
            .unwrap_or_else(|| vec![GraphShape::ErdosRenyi]);
        let fractions = self.light_fraction.clone().unwrap_or_else(|| vec![0.0]);
        let vertex_ranges: Vec<Option<(usize, usize)>> = match &self.vertex_range {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let cs_budgets: Vec<Option<f64>> = match &self.cs_budget_fraction {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let rw_shares: Vec<Option<f64>> = match &self.rw_share {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let mut out = Vec::new();
        for &m in &self.m {
            for &nr_range in &self.nr_range {
                for &u_avg in &self.u_avg {
                    for &access_prob in &self.access_prob {
                        for &max_requests in &self.max_requests {
                            for &cs_range_us in &self.cs_range_us {
                                for &graph_shape in &shapes {
                                    for &light_fraction in &fractions {
                                        for &vertex_range in &vertex_ranges {
                                            for &cs_budget_fraction in &cs_budgets {
                                                for &rw_share in &rw_shares {
                                                    out.push(Scenario {
                                                        m,
                                                        nr_range,
                                                        u_avg,
                                                        access_prob,
                                                        max_requests,
                                                        cs_range_us,
                                                        graph_shape,
                                                        light_fraction,
                                                        vertex_range,
                                                        cs_budget_fraction,
                                                        rw_share,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Validates the axis declaration (shared by campaign and fuzz
    /// manifests).
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ManifestError> {
        let err = |m: &str| Err(ManifestError(m.to_string()));
        if self.m.is_empty()
            || self.nr_range.is_empty()
            || self.u_avg.is_empty()
            || self.access_prob.is_empty()
            || self.max_requests.is_empty()
            || self.cs_range_us.is_empty()
        {
            return err("every axis needs at least one value");
        }
        if self.m.iter().any(|&m| m < 2) {
            return err("processor counts must be at least 2");
        }
        if self.u_avg.iter().any(|&u| !u.is_finite() || u <= 0.5) {
            // Per-task utilizations are drawn from (1, 2·U^avg]; the band
            // is empty (and RandFixedSum degenerate) for U^avg ≤ 0.5.
            return err("u_avg values must be finite and exceed 0.5");
        }
        if self.max_requests.contains(&0) {
            return err("max_requests values must be at least 1");
        }
        if self.nr_range.iter().any(|&(lo, hi)| lo == 0 || hi < lo) {
            return err("nr_range entries must be non-empty inclusive ranges");
        }
        if self.cs_range_us.iter().any(|&(lo, hi)| lo == 0 || hi < lo) {
            return err("cs_range_us entries must be non-empty inclusive ranges");
        }
        if self.access_prob.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return err("access probabilities must lie in [0, 1]");
        }
        if let Some(fractions) = &self.light_fraction {
            if fractions.is_empty() {
                return err("light_fraction, when present, must be non-empty");
            }
            if fractions.iter().any(|&f| !(0.0..=1.0).contains(&f)) {
                return err("light fractions must lie in [0, 1]");
            }
        }
        if let Some(shapes) = &self.graph_shape {
            if shapes.is_empty() {
                return err("graph_shape, when present, must be non-empty");
            }
            if shapes
                .iter()
                .any(|s| matches!(s, GraphShape::Layered { layers: 0 }))
            {
                return err("a layered graph shape needs at least one layer");
            }
        }
        if let Some(ranges) = &self.vertex_range {
            if ranges.is_empty() {
                return err("vertex_range, when present, must be non-empty");
            }
            if ranges.iter().any(|&(lo, hi)| lo == 0 || hi < lo) {
                return err("vertex_range entries must be non-empty inclusive ranges");
            }
        }
        if let Some(budgets) = &self.cs_budget_fraction {
            if budgets.is_empty() {
                return err("cs_budget_fraction, when present, must be non-empty");
            }
            if budgets.iter().any(|&f| !(0.0..=1.0).contains(&f)) {
                return err("cs budget fractions must lie in [0, 1]");
            }
        }
        if let Some(shares) = &self.rw_share {
            if shares.is_empty() {
                return err("rw_share, when present, must be non-empty");
            }
            if shares.iter().any(|&f| !(0.0..=1.0).contains(&f)) {
                return err("rw shares must lie in [0, 1]");
            }
        }
        Ok(())
    }

    /// Does any axis value generate reader-writer task sets (a positive
    /// `rw_share`)? Such grids may only be paired with methods whose
    /// protocols pass the `supports_rw` capability probe.
    pub fn draws_reads(&self) -> bool {
        self.rw_share
            .as_ref()
            .is_some_and(|shares| shares.iter().any(|&s| s > 0.0))
    }
}

/// One analysis/placement ablation: a labelled override set applied on
/// top of the manifest-wide defaults. Every `(scenario, ablation)` pair
/// is one campaign cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationSpec {
    /// Column label in merged outputs (must be unique in the manifest).
    pub label: String,
    /// Methods this ablation evaluates; omitted → the manifest's methods.
    pub methods: Option<Vec<Method>>,
    /// Resource-placement heuristic; omitted → Worst-Fit Decreasing.
    pub heuristic: Option<ResourceHeuristic>,
    /// Override for [`AnalysisConfig::prune_dominated`].
    pub prune_dominated: Option<bool>,
    /// Override for [`AnalysisConfig::path_signature_cap`].
    pub path_signature_cap: Option<usize>,
    /// Override for [`AnalysisConfig::path_visit_cap`].
    pub path_visit_cap: Option<u64>,
    /// Override for [`AnalysisConfig::search_probe_budget`] — the probe
    /// budget of search-wrapper methods (`DPCP-p-EP/SEARCH`). Together
    /// with per-ablation method lists this is the search on/off × budget
    /// ablation axis; non-search methods ignore it.
    #[serde(default)]
    pub search_budget: Option<usize>,
}

impl AblationSpec {
    /// The no-override ablation (the paper's default configuration).
    pub fn default_cell() -> AblationSpec {
        AblationSpec {
            label: "default".to_string(),
            methods: None,
            heuristic: None,
            prune_dominated: None,
            path_signature_cap: None,
            path_visit_cap: None,
            search_budget: None,
        }
    }

    /// The EP analysis configuration this ablation induces.
    pub fn ep_config(&self) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::ep();
        if let Some(p) = self.prune_dominated {
            cfg.prune_dominated = p;
        }
        if let Some(cap) = self.path_signature_cap {
            cfg.path_signature_cap = cap;
        }
        if let Some(cap) = self.path_visit_cap {
            cfg.path_visit_cap = cap;
        }
        if let Some(budget) = self.search_budget {
            cfg.search_probe_budget = Some(budget);
        }
        cfg
    }
}

/// An appended sub-grid with its own axes and method list. Extra-grid
/// cells always index *after* the main grid (and after earlier extra
/// grids), so adding one never renumbers existing cells — the property
/// that lets CI re-baseline only the appended rows of a committed
/// golden CSV. The canonical use is a reader-writer cell (`rw_share`
/// axis + rw-aware methods) riding along a write-only smoke grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtraGrid {
    /// Ablation-column label of these cells; omitted → `"default"`.
    pub label: Option<String>,
    /// Methods evaluated in these cells (registry names; an `rw_share`
    /// grid must name rw-aware ones).
    pub methods: Vec<Method>,
    /// The appended scenario axes.
    pub axes: AxisSpec,
}

/// Reduced-scale overrides applied by `campaign run --quick` (the CI
/// smoke gate and local sanity runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuickOverrides {
    /// Samples per utilization point in quick mode.
    pub samples_per_point: Option<usize>,
    /// Normalized utilization points (`U/m`) in quick mode.
    pub normalized_utilization: Option<Vec<f64>>,
    /// Evaluate only the first `K` scenarios of the grid.
    pub limit_scenarios: Option<usize>,
}

impl QuickOverrides {
    /// The grid scale a manifest expands at: `(samples per point,
    /// scenarios, quick-mode utilization points)`. Without `--quick` this
    /// is the declared scale; with it, the manifest's `declared`
    /// overrides apply (a 2-sample cap when it declares none). Shared by
    /// the campaign and fuzz manifests.
    pub(crate) fn scale(
        quick: bool,
        declared: Option<&QuickOverrides>,
        samples_per_point: usize,
        axes: &AxisSpec,
    ) -> (usize, Vec<Scenario>, Option<Vec<f64>>) {
        let mut scenarios = axes.scenarios();
        if !quick {
            return (samples_per_point, scenarios, None);
        }
        let overrides = declared.cloned().unwrap_or(QuickOverrides {
            samples_per_point: Some(2),
            normalized_utilization: None,
            limit_scenarios: None,
        });
        if let Some(limit) = overrides.limit_scenarios {
            scenarios.truncate(limit.max(1));
        }
        let samples = overrides
            .samples_per_point
            .map_or(samples_per_point, |s| s.max(1));
        (samples, scenarios, overrides.normalized_utilization)
    }
}

/// Is `name` non-empty and made of `[A-Za-z0-9_-]` only? Manifest names
/// and labels become CSV cells and output-path components.
pub(crate) fn is_filesystem_safe(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Rejects a write-only `method` on a grid whose `axis` draws reads (a
/// write-only analysis would silently price reads as writes), naming the
/// registry's rw-aware methods and the `remedy`.
pub(crate) fn write_only_error(method: &str, axis: &str, remedy: &str) -> ManifestError {
    let rw_aware: Vec<&str> = standard_registry()
        .iter()
        .filter(|p| p.supports_rw())
        .map(|p| p.name())
        .collect();
    ManifestError(format!(
        "method '{method}' is write-only but {axis} generates reader-writer task sets; \
         {remedy} ({})",
        rw_aware.join(", ")
    ))
}

/// The checks every sweep manifest shares: a filesystem-safe name, a
/// positive sample count, valid axes and, when given, normalized
/// utilization points in `(0, 1]`.
pub(crate) fn validate_sweep(
    name: &str,
    samples_per_point: usize,
    axes: &AxisSpec,
    normalized: Option<&[f64]>,
) -> Result<(), ManifestError> {
    let err = |m: &str| Err(ManifestError(m.to_string()));
    if !is_filesystem_safe(name) {
        return err("name must be non-empty and filesystem-safe ([A-Za-z0-9_-])");
    }
    if samples_per_point == 0 {
        return err("samples_per_point must be positive");
    }
    axes.validate()?;
    if normalized
        .is_some_and(|points| points.is_empty() || !points.iter().all(|&p| p > 0.0 && p <= 1.0))
    {
        return err("normalized utilizations must lie in (0, 1]");
    }
    Ok(())
}

/// A declarative experiment sweep: scenario axes × ablations × methods,
/// with the sample count and seed discipline pinned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Campaign name (output directory component, shard-header identity).
    pub name: String,
    /// Base RNG seed; every `(point, sample, retry)` triple derives its
    /// own stream, identically for any shard split or thread count.
    pub seed: u64,
    /// Task sets generated per utilization point.
    pub samples_per_point: usize,
    /// Generation retries before a sample is skipped; omitted → 8.
    pub generation_retries: Option<usize>,
    /// Methods compared in every cell (unless an ablation overrides),
    /// as registry names (e.g. `"DPCP-p-EP"`; see `campaign plan
    /// --methods` for the full listing). Unknown names are a schema
    /// error.
    pub methods: Vec<Method>,
    /// The scenario axes.
    pub axes: AxisSpec,
    /// Normalized utilization points (`U/m`) shared by every scenario;
    /// omitted → the paper's full sweep (1 to `m` in steps of `0.05·m`).
    pub normalized_utilization: Option<Vec<f64>>,
    /// Analysis/placement ablations; omitted → one default cell per
    /// scenario.
    pub ablations: Option<Vec<AblationSpec>>,
    /// Quick-mode overrides.
    pub quick: Option<QuickOverrides>,
    /// Appended sub-grids ([`ExtraGrid`]): their cells index after the
    /// main grid, so declaring one never renumbers existing cells.
    pub extra: Option<Vec<ExtraGrid>>,
}

/// One unit of campaign work: a scenario × ablation pair with its fully
/// resolved evaluation configuration and utilization points.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Position in the expanded grid (stable across shards/resumes).
    pub index: usize,
    /// The generated workload's scenario.
    pub scenario: Scenario,
    /// The ablation label this cell evaluates under.
    pub ablation: String,
    /// Methods evaluated in this cell.
    pub methods: Vec<Method>,
    /// Resource-placement heuristic.
    pub heuristic: ResourceHeuristic,
    /// Fully resolved evaluation config (seed, samples, EP analysis).
    pub eval: EvalConfig,
    /// Total-utilization points, ascending.
    pub utilizations: Vec<f64>,
}

/// Manifest validation/parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError(String);

impl ManifestError {
    /// Wraps a validation message (shared with the fuzz manifest).
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ManifestError(msg.into())
    }
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid campaign manifest: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

impl CampaignManifest {
    /// Parses and validates a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed JSON or an invalid
    /// declaration (empty axes, duplicate ablation labels, out-of-range
    /// values).
    pub fn from_json(text: &str) -> Result<CampaignManifest, ManifestError> {
        let manifest: CampaignManifest =
            serde_json::from_str(text).map_err(|e| ManifestError(e.to_string()))?;
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
        let err = |m: &str| Err(ManifestError(m.to_string()));
        validate_sweep(
            &self.name,
            self.samples_per_point,
            &self.axes,
            self.normalized_utilization.as_deref(),
        )?;
        if self.methods.is_empty() {
            return err("methods must be non-empty");
        }
        if let Some(ablations) = &self.ablations {
            if ablations.is_empty() {
                return err("ablations, when present, must be non-empty");
            }
            // Labels become CSV cells and output-file path components, so
            // they get the same charset discipline as the campaign name.
            if ablations.iter().any(|a| !is_filesystem_safe(&a.label)) {
                return err(
                    "ablation labels must be non-empty and filesystem-safe ([A-Za-z0-9_-])",
                );
            }
            let mut labels: Vec<&str> = ablations.iter().map(|a| a.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            if labels.len() != ablations.len() {
                return err("ablation labels must be unique");
            }
            if ablations
                .iter()
                .any(|a| a.methods.as_ref().is_some_and(Vec::is_empty))
            {
                return err("an ablation's methods override must be non-empty");
            }
        }
        // Reader-writer grids may only dispatch to RW-aware protocols:
        // a write-only analysis would silently price reads as writes.
        if self.axes.draws_reads() {
            for ablation in self.ablation_list() {
                let methods = ablation.methods.as_ref().unwrap_or(&self.methods);
                if let Some(m) = methods.iter().find(|m| !m.supports_rw()) {
                    return Err(write_only_error(
                        m.name(),
                        "the rw_share axis",
                        "restrict the manifest to rw-aware methods",
                    ));
                }
            }
        }
        if let Some(grids) = &self.extra {
            for grid in grids {
                if grid
                    .label
                    .as_deref()
                    .is_some_and(|l| !is_filesystem_safe(l))
                {
                    return err(
                        "extra-grid labels must be non-empty and filesystem-safe ([A-Za-z0-9_-])",
                    );
                }
                if grid.methods.is_empty() {
                    return err("an extra grid's methods must be non-empty");
                }
                grid.axes.validate()?;
                if grid.axes.draws_reads() {
                    if let Some(m) = grid.methods.iter().find(|m| !m.supports_rw()) {
                        return Err(write_only_error(
                            m.name(),
                            "an extra grid's rw_share axis",
                            "restrict that grid to rw-aware methods",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The effective ablation list (the implicit default cell when the
    /// manifest declares none).
    pub fn ablation_list(&self) -> Vec<AblationSpec> {
        self.ablations
            .clone()
            .unwrap_or_else(|| vec![AblationSpec::default_cell()])
    }

    /// Expands the manifest into the ordered cell grid. Cells iterate
    /// scenario-major (`scenario × ablation`), so legacy per-scenario
    /// outputs fold back naturally. `quick` applies the manifest's
    /// [`QuickOverrides`] (or a 2-sample cap when none are declared).
    pub fn cells(&self, quick: bool) -> Vec<CellSpec> {
        let (samples, scenarios, quick_points) = QuickOverrides::scale(
            quick,
            self.quick.as_ref(),
            self.samples_per_point,
            &self.axes,
        );
        let normalized = quick_points.or_else(|| self.normalized_utilization.clone());
        let retries = self.generation_retries.unwrap_or(8);
        let ablations = self.ablation_list();
        let utilizations = |scenario: &Scenario| match &normalized {
            Some(points) => points.iter().map(|p| p * scenario.m as f64).collect(),
            None => scenario.utilization_points(),
        };
        let eval = |ep_config| EvalConfig {
            samples_per_point: samples,
            seed: self.seed,
            threads: 0,
            generation_retries: retries,
            ep_config,
        };
        let mut cells = Vec::with_capacity(scenarios.len() * ablations.len());
        for scenario in &scenarios {
            for ablation in &ablations {
                cells.push(CellSpec {
                    index: cells.len(),
                    scenario: scenario.clone(),
                    ablation: ablation.label.clone(),
                    methods: ablation
                        .methods
                        .clone()
                        .unwrap_or_else(|| self.methods.clone()),
                    heuristic: ablation
                        .heuristic
                        .unwrap_or(ResourceHeuristic::WorstFitDecreasing),
                    eval: eval(ablation.ep_config()),
                    utilizations: utilizations(scenario),
                });
            }
        }
        // Extra grids append after the full main grid (and after earlier
        // extra grids); they run under the default analysis configuration
        // with their own methods. Quick-mode scenario limits apply to the
        // main grid only — an appended grid is already a deliberate,
        // small addition.
        for grid in self.extra.as_deref().unwrap_or_default() {
            let label = grid.label.clone().unwrap_or_else(|| "default".to_string());
            for scenario in grid.axes.scenarios() {
                cells.push(CellSpec {
                    index: cells.len(),
                    utilizations: utilizations(&scenario),
                    scenario,
                    ablation: label.clone(),
                    methods: grid.methods.clone(),
                    heuristic: ResourceHeuristic::WorstFitDecreasing,
                    eval: eval(AnalysisConfig::ep()),
                });
            }
        }
        cells
    }
}

/// The single-panel fig2 manifest (`fig2` runs one per selected panel;
/// panels couple `m` with `n_r`/`p_r`, so they are not one product grid).
pub fn fig2_panel_manifest(
    panel: dpcp_gen::Fig2Panel,
    samples: usize,
    seed: u64,
    prune_dominated: bool,
) -> CampaignManifest {
    let scenario = Scenario::fig2(panel);
    let tag = match panel {
        dpcp_gen::Fig2Panel::A => 'a',
        dpcp_gen::Fig2Panel::B => 'b',
        dpcp_gen::Fig2Panel::C => 'c',
        dpcp_gen::Fig2Panel::D => 'd',
    };
    CampaignManifest {
        name: format!("fig2_{tag}"),
        seed,
        samples_per_point: samples,
        generation_retries: None,
        methods: Method::PAPER.to_vec(),
        axes: AxisSpec::single(&scenario),
        normalized_utilization: None,
        ablations: Some(vec![AblationSpec {
            prune_dominated: Some(prune_dominated),
            ..AblationSpec::default_cell()
        }]),
        quick: None,
        extra: None,
    }
}

/// The bundled manifest behind the legacy `tables` binary: the paper's
/// full 216-scenario grid (the wrapper's `--limit` truncates the cell
/// list it evaluates).
pub fn tables_manifest(samples: usize, seed: u64) -> CampaignManifest {
    CampaignManifest {
        name: "tables".to_string(),
        seed,
        samples_per_point: samples,
        generation_retries: None,
        methods: Method::PAPER.to_vec(),
        axes: AxisSpec {
            m: vec![8, 16, 32],
            nr_range: vec![(2, 4), (4, 8), (8, 16)],
            u_avg: vec![1.5, 2.0],
            access_prob: vec![0.5, 0.75, 1.0],
            max_requests: vec![25, 50],
            cs_range_us: vec![(15, 50), (50, 100)],
            graph_shape: None,
            light_fraction: None,
            vertex_range: None,
            cs_budget_fraction: None,
            rw_share: None,
        },
        normalized_utilization: None,
        ablations: None,
        quick: Some(QuickOverrides {
            samples_per_point: Some(2),
            normalized_utilization: None,
            limit_scenarios: Some(4),
        }),
        extra: None,
    }
}

/// The bundled manifest behind the legacy `ablation` binary: the heavy
/// -contention Fig. 2(b) scenario under three placement heuristics, four
/// signature caps and the EN variant.
pub fn ablation_manifest(samples: usize, seed: u64) -> CampaignManifest {
    let scenario = Scenario::fig2(dpcp_gen::Fig2Panel::B);
    let ep_only = Some(vec![Method::DpcpEp]);
    let mut ablations = vec![
        AblationSpec {
            label: "WFD".to_string(),
            methods: ep_only.clone(),
            heuristic: Some(ResourceHeuristic::WorstFitDecreasing),
            ..AblationSpec::default_cell()
        },
        AblationSpec {
            label: "FFD".to_string(),
            methods: ep_only.clone(),
            heuristic: Some(ResourceHeuristic::FirstFitDecreasing),
            ..AblationSpec::default_cell()
        },
        AblationSpec {
            label: "BFD".to_string(),
            methods: ep_only.clone(),
            heuristic: Some(ResourceHeuristic::BestFitDecreasing),
            ..AblationSpec::default_cell()
        },
    ];
    for cap in [1usize, 16, 128, 1024] {
        ablations.push(AblationSpec {
            label: format!("cap{cap}"),
            methods: ep_only.clone(),
            path_signature_cap: Some(cap),
            ..AblationSpec::default_cell()
        });
    }
    ablations.push(AblationSpec {
        label: "EN".to_string(),
        methods: Some(vec![Method::DpcpEn]),
        ..AblationSpec::default_cell()
    });
    CampaignManifest {
        name: "ablation".to_string(),
        seed,
        samples_per_point: samples,
        generation_retries: None,
        methods: Method::PAPER.to_vec(),
        axes: AxisSpec::single(&scenario),
        normalized_utilization: None,
        ablations: Some(ablations),
        quick: None,
        extra: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_gen::Fig2Panel;

    fn tiny_manifest_json() -> &'static str {
        r#"{
            "name": "unit",
            "seed": 7,
            "samples_per_point": 4,
            "methods": ["DPCP-p-EP", "DPCP-p-EN"],
            "axes": {
                "m": [8],
                "nr_range": [[2, 4]],
                "u_avg": [1.5, 2.0],
                "access_prob": [0.5],
                "max_requests": [25],
                "cs_range_us": [[15, 50], [50, 100]],
                "graph_shape": ["ErdosRenyi", "ForkJoin", {"Layered": {"layers": 3}}],
                "light_fraction": [0.0, 0.25]
            },
            "normalized_utilization": [0.25, 0.5],
            "ablations": [
                {"label": "pruned", "prune_dominated": true},
                {"label": "unpruned", "prune_dominated": false}
            ],
            "quick": {"samples_per_point": 1, "limit_scenarios": 2}
        }"#
    }

    #[test]
    fn json_roundtrip_and_grid_expansion() {
        let manifest = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        // 1·1·2·1·1·2·3·2 = 24 scenarios × 2 ablations.
        let cells = manifest.cells(false);
        assert_eq!(cells.len(), 48);
        // Indices are dense and ordered; utilizations are normalized × m.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.utilizations, vec![2.0, 4.0]);
            assert_eq!(cell.eval.seed, 7);
            assert_eq!(cell.eval.samples_per_point, 4);
        }
        // Scenario-major order: consecutive cells share the scenario.
        assert_eq!(cells[0].scenario, cells[1].scenario);
        assert_eq!(cells[0].ablation, "pruned");
        assert_eq!(cells[1].ablation, "unpruned");
        assert!(cells[0].eval.ep_config.prune_dominated);
        assert!(!cells[1].eval.ep_config.prune_dominated);
        // Round-trip through JSON is lossless.
        let text = serde_json::to_string(&manifest).unwrap();
        let back = CampaignManifest::from_json(&text).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn quick_mode_applies_overrides() {
        let manifest = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        let cells = manifest.cells(true);
        // limit_scenarios: 2 → 2 scenarios × 2 ablations.
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.eval.samples_per_point == 1));
    }

    #[test]
    fn validation_rejects_bad_manifests() {
        let good = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        let mut bad = good.clone();
        bad.name = "has space".to_string();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.samples_per_point = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.axes.m = vec![1];
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.ablations.as_mut().unwrap()[1].label = "pruned".to_string();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.normalized_utilization = Some(vec![1.5]);
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.axes.light_fraction = Some(vec![2.0]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rw_grids_require_rw_aware_methods() {
        let good = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        // A positive rw_share axis with write-only methods (DPCP-p-EP/EN)
        // is rejected, naming the offending method and the alternatives.
        let mut rw = good.clone();
        rw.axes.rw_share = Some(vec![0.0, 0.3]);
        let err = rw.validate().unwrap_err().to_string();
        assert!(err.contains("'DPCP-p-EP' is write-only"), "{err}");
        assert!(err.contains("MPCP-SA, MPCP-SO, DGA"), "{err}");
        // Restricting to rw-aware methods fixes it...
        rw.methods = vec![Method::MpcpSa, Method::MpcpSo, Method::Dga];
        rw.validate().unwrap();
        // ...unless an ablation sneaks a write-only method back in.
        rw.ablations.as_mut().unwrap()[0].methods = Some(vec![Method::Lpp]);
        let err = rw.validate().unwrap_err().to_string();
        assert!(err.contains("'LPP' is write-only"), "{err}");
        // An all-zero rw_share axis stays write-only: any method goes.
        let mut zero = good;
        zero.axes.rw_share = Some(vec![0.0]);
        zero.validate().unwrap();
        // The axis expands innermost; the share lands on the scenario.
        let mut with_rw = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        with_rw.axes.rw_share = Some(vec![0.0, 0.3]);
        with_rw.methods = vec![Method::FedFp];
        let cells = with_rw.cells(false);
        assert_eq!(cells.len(), 96); // 24 scenarios × 2 shares × 2 ablations
        assert_eq!(cells[0].scenario.rw_share, Some(0.0));
        assert_eq!(cells[2].scenario.rw_share, Some(0.3));
    }

    #[test]
    fn extra_grids_append_without_renumbering_the_main_grid() {
        let base = CampaignManifest::from_json(tiny_manifest_json()).unwrap();
        let mut with_extra = base.clone();
        with_extra.extra = Some(vec![ExtraGrid {
            label: Some("rw".to_string()),
            methods: vec![Method::MpcpSa, Method::Dga],
            axes: AxisSpec {
                m: vec![8],
                nr_range: vec![(2, 4)],
                u_avg: vec![1.5],
                access_prob: vec![0.5],
                max_requests: vec![25],
                cs_range_us: vec![(15, 50)],
                graph_shape: None,
                light_fraction: None,
                vertex_range: None,
                cs_budget_fraction: None,
                rw_share: Some(vec![0.3]),
            },
        }]);
        with_extra.validate().unwrap();
        // Main-grid cells are untouched — same indices, scenarios,
        // labels — so committed golden rows never move.
        let before = base.cells(false);
        let after = with_extra.cells(false);
        assert_eq!(&after[..before.len()], &before[..]);
        // The appended cell rides the manifest-wide evaluation settings
        // with its own methods, the default ablation config, and a
        // reader-writer scenario.
        assert_eq!(after.len(), before.len() + 1);
        let cell = after.last().unwrap();
        assert_eq!(cell.index, before.len());
        assert_eq!(cell.ablation, "rw");
        assert_eq!(cell.methods, vec![Method::MpcpSa, Method::Dga]);
        assert_eq!(cell.scenario.rw_share, Some(0.3));
        assert_eq!(cell.eval.seed, 7);
        assert_eq!(cell.utilizations, vec![2.0, 4.0]);
        // Quick mode limits main-grid scenarios only; the extra cell
        // still runs (it is the reason the smoke gate exists).
        let quick = with_extra.cells(true);
        assert_eq!(quick.len(), base.cells(true).len() + 1);
        assert_eq!(quick.last().unwrap().ablation, "rw");
        assert_eq!(quick.last().unwrap().eval.samples_per_point, 1);
        // Declaration round-trips losslessly, and existing JSON without
        // the field parses with no extra grids.
        let text = serde_json::to_string(&with_extra).unwrap();
        assert_eq!(CampaignManifest::from_json(&text).unwrap(), with_extra);
        assert_eq!(base.extra, None);
        // A write-only method inside an rw extra grid is rejected.
        let mut bad = with_extra.clone();
        bad.extra.as_mut().unwrap()[0].methods = vec![Method::SpinSon];
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("'SPIN-SON' is write-only"), "{err}");
        // Extra-grid labels share the filesystem-safe charset rule.
        let mut bad = with_extra;
        bad.extra.as_mut().unwrap()[0].label = Some("has space".to_string());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn unknown_method_names_are_a_schema_error() {
        // Methods are registry names in the JSON schema; anything the
        // registry cannot resolve is rejected at parse time with the
        // known names listed.
        let bad = tiny_manifest_json().replace("DPCP-p-EN", "DPCP-q-XX");
        let err = CampaignManifest::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown method 'DPCP-q-XX'"), "{msg}");
        assert!(msg.contains("DPCP-p-EP"), "{msg}");
        // The legacy enum-variant spelling is likewise rejected.
        let legacy = tiny_manifest_json().replace("DPCP-p-EP", "DpcpEp");
        assert!(CampaignManifest::from_json(&legacy).is_err());
    }

    #[test]
    fn bundled_fig2_manifest_matches_legacy_sweep() {
        let manifest = fig2_panel_manifest(Fig2Panel::C, 50, 2020, true);
        let cells = manifest.cells(false);
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        let scenario = Scenario::fig2(Fig2Panel::C);
        assert_eq!(cell.scenario, scenario);
        // The default (no normalized list) reproduces the paper's
        // absolute sweep: 1 to m in steps of 0.05·m.
        assert_eq!(cell.utilizations, scenario.utilization_points());
        assert_eq!(cell.methods, Method::PAPER.to_vec());
        assert!(cell.eval.ep_config.prune_dominated);
    }

    #[test]
    fn bundled_tables_manifest_matches_grid_216() {
        let manifest = tables_manifest(10, 2020);
        let cells = manifest.cells(false);
        let grid = Scenario::grid_216();
        assert_eq!(cells.len(), grid.len());
        for (cell, scenario) in cells.iter().zip(&grid) {
            assert_eq!(&cell.scenario, scenario);
        }
    }

    #[test]
    fn bundled_ablation_manifest_shapes_the_matrix() {
        let manifest = ablation_manifest(20, 2020);
        let cells = manifest.cells(false);
        let labels: Vec<&str> = cells.iter().map(|c| c.ablation.as_str()).collect();
        assert_eq!(
            labels,
            ["WFD", "FFD", "BFD", "cap1", "cap16", "cap128", "cap1024", "EN"]
        );
        assert!(cells.iter().all(|c| c.methods.len() == 1));
        assert_eq!(cells[1].heuristic, ResourceHeuristic::FirstFitDecreasing);
        assert_eq!(cells[4].eval.ep_config.path_signature_cap, 16);
        assert_eq!(cells[7].methods, vec![Method::DpcpEn]);
    }
}
