//! Acceptance-ratio evaluation: generate task sets, dispatch every
//! requested method through the protocol registry, count acceptances.
//!
//! The per-point evaluation fans the independent `(task set, methods)`
//! units out over a rayon pool and aggregates acceptance counts with an
//! associative reduce — no shared mutable state. Every sample derives its
//! own `StdRng` from the `(seed, point, sample, retry)` tuple, so the
//! result is bit-identical for any worker count (see
//! `deterministic_across_thread_counts`).

use std::sync::OnceLock;

use dpcp_core::partition::ResourceHeuristic;
use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisSession, ProtocolRegistry};
use dpcp_gen::scenario::Scenario;
use dpcp_model::{Platform, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The standard protocol registry the harness dispatches through: the
/// paper's five compared methods followed by the reader-writer-aware
/// extensions (MPCP variants, DGA) and the placement-search wrapper
/// (`DPCP-p-EP/SEARCH`), in presentation order (assembled by
/// [`dpcp_baselines::standard_registry`]). [`Method`]'s `index`/`name`/
/// `tag` and every CSV header derive from this one ordered list, so
/// column order can never diverge from dispatch order.
pub fn standard_registry() -> &'static ProtocolRegistry {
    static REGISTRY: OnceLock<ProtocolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry = dpcp_baselines::standard_registry();
        assert_eq!(
            registry.len(),
            Method::COUNT,
            "Method::COUNT must match the standard registry size"
        );
        registry
    })
}

/// The registered methods, in presentation (= registry) order: the
/// paper's five compared protocols first, then the reader-writer-aware
/// extensions, then the placement-search wrapper.
///
/// `Method` is a dense dispatch handle into [`standard_registry`]:
/// [`index`](Method::index) is the registry position, and
/// [`name`](Method::name)/[`tag`](Method::tag) read the registered
/// protocol rather than hand-maintained tables. In JSON (campaign
/// manifests, checkpoints) a method is its registry *name* (e.g.
/// `"DPCP-p-EP"`); unknown names are a schema error listing the known
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// DPCP-p with the path-enumerating analysis.
    DpcpEp,
    /// DPCP-p with the request-count-enumerating analysis.
    DpcpEn,
    /// FIFO non-preemptive spin locks (local execution).
    SpinSon,
    /// Suspension-based FIFO semaphores (local execution).
    Lpp,
    /// Resource-oblivious federated bound (hypothetical upper baseline).
    FedFp,
    /// MPCP semaphores, suspension-aware accounting (reader-writer
    /// aware).
    MpcpSa,
    /// MPCP semaphores, suspension-oblivious accounting (reader-writer
    /// aware).
    MpcpSo,
    /// Dependency-graph-style serialized demand bound (reader-writer
    /// aware).
    Dga,
    /// DPCP-p-EP behind the budgeted placement search (never worse than
    /// the best of WFD/FFD/BFD; opt-in extra probes).
    DpcpEpSearch,
}

impl Method {
    /// Number of methods (the width of every `accepted` slot array).
    pub const COUNT: usize = 9;

    /// All methods in presentation (= registry) order.
    pub const ALL: [Method; Method::COUNT] = [
        Method::DpcpEp,
        Method::DpcpEn,
        Method::SpinSon,
        Method::Lpp,
        Method::FedFp,
        Method::MpcpSa,
        Method::MpcpSo,
        Method::Dga,
        Method::DpcpEpSearch,
    ];

    /// The paper's five compared methods — the column set of every
    /// legacy artifact (Fig. 2 CSVs, Tables 2/3, the ablation matrix),
    /// which must stay byte-identical as the registry grows.
    pub const PAPER: [Method; 5] = [
        Method::DpcpEp,
        Method::DpcpEn,
        Method::SpinSon,
        Method::Lpp,
        Method::FedFp,
    ];

    /// The method's registry position (also the index of the `accepted`
    /// slot it owns in a [`PointResult`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The registry protocol this method dispatches to.
    pub fn protocol(self) -> &'static dyn dpcp_core::ProtocolAnalysis {
        standard_registry().entry(self.index())
    }

    /// The registry name (the paper's display name).
    pub fn name(self) -> &'static str {
        self.protocol().name()
    }

    /// One-letter tag for ASCII plots (from the registry).
    pub fn tag(self) -> char {
        self.protocol().tag()
    }

    /// Whether the registered protocol prices read requests separately
    /// (the registry's capability probe; write-only protocols reject
    /// reader-writer task sets).
    pub fn supports_rw(self) -> bool {
        self.protocol().supports_rw()
    }

    /// Resolves a registry name back to its dispatch handle.
    pub fn from_name(name: &str) -> Option<Method> {
        standard_registry()
            .position(name)
            .and_then(|i| Method::ALL.get(i).copied())
    }
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for Method {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl Deserialize for Method {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        if r.peek()? != b'"' {
            return Err(serde::Error::custom("expected a method name string"));
        }
        let name = r.str()?;
        Method::from_name(&name).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown method '{name}' (known methods: {})",
                standard_registry().names().join(", ")
            ))
        })
    }
}

/// Evaluation configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Task sets generated per utilization point.
    pub samples_per_point: usize,
    /// Base RNG seed; every (point, sample) pair derives its own stream.
    pub seed: u64,
    /// Rayon worker threads; `0` (the default) defers to the ambient pool
    /// (the `RAYON_NUM_THREADS` environment variable, else all cores).
    pub threads: usize,
    /// Retries when the generator rejects a draw before the sample is
    /// skipped.
    pub generation_retries: usize,
    /// Analysis configuration for DPCP-p-EP (path caps etc.).
    pub ep_config: AnalysisConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            samples_per_point: 50,
            seed: 2020,
            threads: 0,
            generation_retries: 8,
            ep_config: AnalysisConfig::ep(),
        }
    }
}

impl EvalConfig {
    /// The worker count evaluation will actually use (resolves `0` to the
    /// ambient rayon default).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }
}

/// Acceptance counts of one utilization point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// Total task-set utilization of this point.
    pub utilization: f64,
    /// Normalized utilization (`U / m`).
    pub normalized: f64,
    /// Task sets successfully generated (the acceptance denominator).
    pub samples: usize,
    /// Samples skipped because generation kept failing.
    pub generation_failures: usize,
    /// Accepted counts, indexed like [`Method::ALL`] (= registry order).
    pub accepted: [usize; Method::COUNT],
}

impl PointResult {
    /// The acceptance ratio of one method at this point.
    pub fn ratio(&self, method: Method) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.accepted[method.index()] as f64 / self.samples as f64
    }
}

/// A full acceptance curve for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceCurve {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// One entry per utilization point, ascending.
    pub points: Vec<PointResult>,
}

impl AcceptanceCurve {
    /// Total accepted task sets of a method across the sweep (the
    /// outperformance metric of the paper's footnote).
    pub fn total_accepted(&self, method: Method) -> usize {
        self.points.iter().map(|p| p.accepted[method.index()]).sum()
    }

    /// Writes the curve as CSV (`utilization,normalized,samples,<methods>`)
    /// with the paper's five method columns — the legacy wide format the
    /// Fig. 2 goldens pin byte-for-byte.
    pub fn to_csv(&self) -> String {
        self.to_csv_for(&Method::PAPER)
    }

    /// [`to_csv`](Self::to_csv) with an explicit column set (campaign
    /// cells write exactly the methods they evaluated).
    pub fn to_csv_for(&self, methods: &[Method]) -> String {
        let mut out = String::from("utilization,normalized,samples");
        for &m in methods {
            out.push(',');
            out.push_str(m.name());
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!(
                "{:.3},{:.3},{}",
                p.utilization, p.normalized, p.samples
            ));
            for &m in methods {
                out.push_str(&format!(",{:.4}", p.ratio(m)));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the requested methods on one generated task set; slots of
/// methods outside `methods` stay `false` (and are never analysed — a
/// campaign ablation cell that only compares DPCP-p variants skips the
/// baseline protocols entirely).
///
/// Dispatch goes through the wire API: one [`AnalysisRequest`] per
/// requested method (task set cloned once, protocol name swapped per
/// method), answered by [`ProtocolRegistry::respond`] — the same path
/// `dpcp-serve` serves over HTTP, so harness rows and server verdicts
/// can never disagree. The session supplies the shared evaluation state
/// (one cache + scratch serves all requested methods and every
/// partitioning round inside each; the baseline protocols simply ignore
/// it). DPCP-p methods route task sets containing light tasks
/// (`light_fraction > 0` scenarios) through the mixed Algorithm 1 with
/// shared light pools — Sec. VI end to end.
fn evaluate_task_set(
    tasks: &TaskSet,
    platform: &Platform,
    heuristic: ResourceHeuristic,
    methods: &[Method],
    session: &mut AnalysisSession,
) -> [bool; Method::COUNT] {
    let registry = standard_registry();
    let mut request = AnalysisRequest {
        schema: None,
        protocol: String::new(),
        tasks: tasks.clone(),
        platform: *platform,
        config: session.config().clone(),
        heuristic,
    };
    let mut out = [false; Method::COUNT];
    for &method in methods {
        registry
            .entry(method.index())
            .name()
            .clone_into(&mut request.protocol);
        // `respond` refuses reader-writer task sets on write-only
        // protocols; manifest validation rejects such pairings up front,
        // so a refusal here is a harness bug worth naming loudly.
        let verdict = registry
            .respond(session, &request)
            .unwrap_or_else(|e| panic!("registry refused method '{}': {e}", method.name()));
        out[method.index()] = verdict.schedulable;
    }
    out
}

pub(crate) fn sample_seed(base: u64, point: usize, sample: usize, retry: usize) -> u64 {
    let mut x = base
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((point as u64) << 32)
        .wrapping_add((sample as u64) << 8)
        .wrapping_add(retry as u64);
    // splitmix64 finaliser for well-spread streams.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Draws the task set of one sample: the generator gets up to
/// `retries + 1` attempts, each on its own `(seed, point, sample, retry)`
/// stream; `None` when every attempt is rejected. The campaign harness
/// and the fuzz oracle share this, so both sweeps see the same sets.
pub(crate) fn generate_task_set(
    scenario: &Scenario,
    utilization: f64,
    seed: u64,
    point: usize,
    sample: usize,
    retries: usize,
) -> Option<TaskSet> {
    (0..=retries).find_map(|retry| {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, point, sample, retry));
        scenario.sample_task_set(utilization, &mut rng).ok()
    })
}

/// The associatively merged outcome of a batch of samples; the identity
/// element of the parallel reduce is `PointAccum::default()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PointAccum {
    accepted: [usize; Method::COUNT],
    samples: usize,
    generation_failures: usize,
}

impl PointAccum {
    fn merge(a: PointAccum, b: PointAccum) -> PointAccum {
        let mut accepted = a.accepted;
        for (acc, extra) in accepted.iter_mut().zip(b.accepted) {
            *acc += extra;
        }
        PointAccum {
            accepted,
            samples: a.samples + b.samples,
            generation_failures: a.generation_failures + b.generation_failures,
        }
    }
}

/// Generates and evaluates one sample; the whole unit depends only on the
/// deterministic `(seed, point, sample, retry)` stream, never on which
/// worker runs it.
#[allow(clippy::too_many_arguments)]
fn evaluate_sample(
    scenario: &Scenario,
    platform: &Platform,
    utilization: f64,
    point_index: usize,
    sample: usize,
    cfg: &EvalConfig,
    heuristic: ResourceHeuristic,
    methods: &[Method],
) -> PointAccum {
    match generate_task_set(
        scenario,
        utilization,
        cfg.seed,
        point_index,
        sample,
        cfg.generation_retries,
    ) {
        Some(ts) => {
            let mut session = AnalysisSession::new(cfg.ep_config.clone());
            let accepted = evaluate_task_set(&ts, platform, heuristic, methods, &mut session);
            PointAccum {
                accepted: accepted.map(usize::from),
                samples: 1,
                generation_failures: 0,
            }
        }
        None => PointAccum {
            accepted: [0; Method::COUNT],
            samples: 0,
            generation_failures: 1,
        },
    }
}

/// Evaluates one utilization point of a scenario: the samples fan out
/// over the rayon pool selected by `cfg.threads` and fold back through an
/// associative `PointAccum` reduce.
///
/// # Panics
///
/// Panics if the scenario's processor count is below 2 (cannot build a
/// platform).
pub fn evaluate_point(
    scenario: &Scenario,
    utilization: f64,
    point_index: usize,
    cfg: &EvalConfig,
) -> PointResult {
    evaluate_point_subset(
        scenario,
        utilization,
        point_index,
        cfg,
        ResourceHeuristic::WorstFitDecreasing,
        &Method::ALL,
    )
}

/// [`evaluate_point`] restricted to a method subset and a configurable
/// resource-placement heuristic — the campaign engine's per-cell entry
/// point. Task-set generation depends only on the deterministic
/// `(seed, point, sample, retry)` stream, so the counts of the evaluated
/// methods are bit-identical to a full [`Method::ALL`] run; slots of
/// unevaluated methods stay zero.
///
/// # Panics
///
/// Panics if the scenario's processor count is below 2.
pub fn evaluate_point_subset(
    scenario: &Scenario,
    utilization: f64,
    point_index: usize,
    cfg: &EvalConfig,
    heuristic: ResourceHeuristic,
    methods: &[Method],
) -> PointResult {
    let platform = Platform::new(scenario.m).expect("scenario platforms have m ≥ 2");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .expect("rayon pool construction cannot fail");
    let acc = pool.install(|| {
        (0..cfg.samples_per_point)
            .into_par_iter()
            .map(|sample| {
                evaluate_sample(
                    scenario,
                    &platform,
                    utilization,
                    point_index,
                    sample,
                    cfg,
                    heuristic,
                    methods,
                )
            })
            .reduce(PointAccum::default, PointAccum::merge)
    });
    PointResult {
        utilization,
        normalized: utilization / scenario.m as f64,
        samples: acc.samples,
        generation_failures: acc.generation_failures,
        accepted: acc.accepted,
    }
}

/// Evaluates the full utilization sweep of a scenario (each point fans
/// its samples out in parallel; points stay ordered).
pub fn evaluate_curve(scenario: &Scenario, cfg: &EvalConfig) -> AcceptanceCurve {
    let points = scenario
        .utilization_points()
        .into_iter()
        .enumerate()
        .map(|(i, u)| evaluate_point(scenario, u, i, cfg))
        .collect();
    AcceptanceCurve {
        scenario: scenario.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            m: 8,
            nr_range: (2, 4),
            u_avg: 1.5,
            access_prob: 0.5,
            max_requests: 25,
            cs_range_us: (15, 50),
            graph_shape: dpcp_gen::GraphShape::ErdosRenyi,
            light_fraction: 0.0,
            vertex_range: None,
            cs_budget_fraction: None,
            rw_share: None,
        }
    }

    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            samples_per_point: 6,
            seed: 7,
            threads: 2,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn low_utilization_points_accept_everything() {
        let s = tiny_scenario();
        let p = evaluate_point(&s, 2.0, 0, &tiny_cfg());
        assert_eq!(p.samples, 6);
        for m in Method::ALL {
            assert!(
                p.ratio(m) > 0.9,
                "{m} rejected easy task sets: {}",
                p.ratio(m)
            );
        }
    }

    #[test]
    fn overloaded_points_reject_everything() {
        let s = tiny_scenario();
        // Total utilization equal to m cannot leave room for blocking.
        let p = evaluate_point(&s, 8.0, 19, &tiny_cfg());
        for m in Method::ALL {
            assert!(
                p.ratio(m) < 0.5,
                "{m} accepted overloaded sets: {}",
                p.ratio(m)
            );
        }
    }

    #[test]
    fn fed_fp_upper_bounds_every_method_pointwise() {
        let s = tiny_scenario();
        for (i, u) in [3.0, 5.0].into_iter().enumerate() {
            let p = evaluate_point(&s, u, i, &tiny_cfg());
            for m in Method::ALL {
                assert!(p.ratio(Method::FedFp) >= p.ratio(m), "{m} beat FED-FP");
            }
            // EP dominates EN by construction.
            assert!(p.ratio(Method::DpcpEp) >= p.ratio(Method::DpcpEn));
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Regression guard for the rayon fan-out: the same EvalConfig
        // point evaluated with 1 worker and with N workers must produce
        // identical per-method acceptance ratios (bit-identical counts,
        // not just statistically similar ones).
        let s = tiny_scenario();
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let sequential = evaluate_point(&s, 4.0, 2, &cfg);
        for threads in [2, 4, 8] {
            cfg.threads = threads;
            let parallel = evaluate_point(&s, 4.0, 2, &cfg);
            assert_eq!(
                sequential, parallel,
                "{threads} workers changed the point result"
            );
            for m in Method::ALL {
                assert_eq!(
                    sequential.ratio(m),
                    parallel.ratio(m),
                    "{m} ratio drifted at {threads} workers"
                );
            }
        }
    }

    #[test]
    fn ambient_pool_matches_explicit_single_thread() {
        // threads = 0 defers to the ambient rayon pool; whatever its
        // width, the acceptance counts must match the 1-thread run.
        let s = tiny_scenario();
        let mut cfg = tiny_cfg();
        cfg.threads = 0;
        let ambient = evaluate_point(&s, 3.0, 1, &cfg);
        cfg.threads = 1;
        let sequential = evaluate_point(&s, 3.0, 1, &cfg);
        assert_eq!(ambient, sequential);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let s = tiny_scenario();
        let curve = AcceptanceCurve {
            scenario: s,
            points: vec![PointResult {
                utilization: 2.0,
                normalized: 0.25,
                samples: 4,
                generation_failures: 0,
                accepted: [4, 3, 2, 1, 4, 0, 0, 2, 3],
            }],
        };
        // The legacy wide format keeps exactly the paper's five columns
        // even though the registry has grown.
        let csv = curve.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "utilization,normalized,samples,DPCP-p-EP,DPCP-p-EN,SPIN-SON,LPP,FED-FP"
        );
        assert!(lines
            .next()
            .unwrap()
            .starts_with("2.000,0.250,4,1.0000,0.7500"));
        assert_eq!(curve.total_accepted(Method::DpcpEp), 4);
        // An explicit column set widens to exactly those methods.
        let rw = curve.to_csv_for(&[Method::MpcpSa, Method::Dga]);
        let mut lines = rw.lines();
        assert_eq!(
            lines.next().unwrap(),
            "utilization,normalized,samples,MPCP-SA,DGA"
        );
        assert_eq!(lines.next().unwrap(), "2.000,0.250,4,0.0000,0.5000");
    }

    #[test]
    fn subset_evaluation_matches_full_run() {
        // A subset run reproduces exactly the full run's counts for the
        // requested methods (shared generation stream) and leaves the
        // rest at zero — the invariant campaign ablation cells rely on.
        let s = tiny_scenario();
        let cfg = tiny_cfg();
        let full = evaluate_point(&s, 4.0, 2, &cfg);
        let subset = [Method::DpcpEp, Method::Lpp];
        let part = evaluate_point_subset(
            &s,
            4.0,
            2,
            &cfg,
            dpcp_core::partition::ResourceHeuristic::WorstFitDecreasing,
            &subset,
        );
        assert_eq!(part.samples, full.samples);
        for m in Method::ALL {
            if subset.contains(&m) {
                assert_eq!(part.accepted[m.index()], full.accepted[m.index()], "{m}");
            } else {
                assert_eq!(part.accepted[m.index()], 0, "{m} leaked into subset run");
            }
        }
    }

    #[test]
    fn method_tags_are_distinct() {
        let tags: std::collections::HashSet<char> = Method::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), Method::COUNT);
    }

    #[test]
    fn rw_support_follows_the_registry() {
        let rw: Vec<Method> = Method::ALL
            .into_iter()
            .filter(|m| m.supports_rw())
            .collect();
        assert_eq!(
            rw,
            [Method::FedFp, Method::MpcpSa, Method::MpcpSo, Method::Dga]
        );
        assert_eq!(Method::from_name("MPCP-SA"), Some(Method::MpcpSa));
        assert_eq!(Method::from_name("MPCP-SO"), Some(Method::MpcpSo));
        assert_eq!(Method::from_name("DGA"), Some(Method::Dga));
    }
}
