//! The protocol registry: locking-protocol analyses as named,
//! interchangeable strategies over the shared task/platform model.
//!
//! The paper's evaluation compares five *methods* — DPCP-p under two
//! analyses plus three baseline protocols — that all follow the same
//! recipe: partition a task set onto a platform and bound every task's
//! response time. [`ProtocolAnalysis`] captures that recipe (a name for
//! reports and manifests, a display tag, and a partition-and-analyze
//! entry point over a shared [`AnalysisSession`], which supplies the
//! scratch-reuse contract), and [`ProtocolRegistry`] resolves protocols
//! by name so experiment manifests, CLIs and new comparison methods
//! never need another hand-wired enum arm.
//!
//! This crate registers the DPCP-p variants ([`dpcp_protocols`]); the
//! baseline protocols add themselves in `dpcp_baselines` (see its
//! `standard_registry`), keeping the dependency direction intact.
//!
//! # Examples
//!
//! ```
//! use dpcp_core::{dpcp_protocols, AnalysisConfig, AnalysisSession};
//! use dpcp_core::partition::ResourceHeuristic;
//! use dpcp_model::{fig1, Platform};
//!
//! let registry = dpcp_protocols();
//! let ep = registry.resolve("DPCP-p-EP").expect("registered");
//! let mut session = AnalysisSession::new(AnalysisConfig::ep());
//! let outcome = session.run(
//!     ep,
//!     &fig1::task_set()?,
//!     &Platform::new(4)?,
//!     ResourceHeuristic::WorstFitDecreasing,
//! );
//! assert!(outcome.is_schedulable());
//! # Ok::<(), dpcp_model::ModelError>(())
//! ```

use dpcp_model::{Platform, TaskSet};

use crate::analysis::{AnalysisConfig, AnalysisVariant};
use crate::dto::{AnalysisRequest, AnalysisVerdict};
use crate::partition::{PartitionOutcome, PlacementSearch, ResourceHeuristic, SearchConfig};
use crate::session::AnalysisSession;

/// A locking-protocol analysis as a pluggable strategy: partition a task
/// set onto a platform and report schedulability, reusing the session's
/// evaluation state.
pub trait ProtocolAnalysis: core::fmt::Debug + Send + Sync {
    /// The registry name (the paper's display name, e.g. `"DPCP-p-EP"`).
    /// Also the method name campaign manifests use.
    fn name(&self) -> &str;

    /// One-letter tag for ASCII plots.
    fn tag(&self) -> char;

    /// A one-line description for listings (`campaign plan --methods`).
    fn description(&self) -> &str {
        ""
    }

    /// Whether this analysis understands reader-writer task sets
    /// (`AccessMode::Read` requests). Defaults to `false`: a write-only
    /// analysis would silently treat reads as writes, so dispatch rejects
    /// RW sets routed to it instead (see [`ProtocolRegistry::respond`]).
    fn supports_rw(&self) -> bool {
        false
    }

    /// The default probe budget of a search-wrapper protocol
    /// ([`SearchVariant`]), `None` for everything else. Listings
    /// (`campaign plan --methods`) use it to tag search entries with
    /// their budget the way `[rw]` tags reader-writer support.
    fn search_budget(&self) -> Option<usize> {
        None
    }

    /// Partitions and analyses one task set. Implementations draw their
    /// cache and scratch from the session (the scratch-reuse contract:
    /// per-task state is reset by every entry point, allocations are
    /// shared across calls, protocols and task sets) and must not depend
    /// on session state surviving between calls in any other way.
    fn evaluate(
        &self,
        session: &mut AnalysisSession,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome;
}

/// Registry failure (duplicate names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError(String);

impl core::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "protocol registry error: {}", self.0)
    }
}

impl std::error::Error for RegistryError {}

/// An ordered, name-addressed collection of protocol analyses.
/// Registration order is presentation order: experiment CSV columns,
/// plot legends and dispatch indices all derive from it, so they can
/// never diverge from each other.
#[derive(Debug, Default)]
pub struct ProtocolRegistry {
    entries: Vec<Box<dyn ProtocolAnalysis>>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// Appends a protocol.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when a protocol of the same name is
    /// already registered.
    pub fn register(&mut self, protocol: Box<dyn ProtocolAnalysis>) -> Result<(), RegistryError> {
        if self.resolve(protocol.name()).is_some() {
            return Err(RegistryError(format!(
                "protocol '{}' is already registered",
                protocol.name()
            )));
        }
        self.entries.push(protocol);
        Ok(())
    }

    /// Looks a protocol up by its registry name.
    pub fn resolve(&self, name: &str) -> Option<&dyn ProtocolAnalysis> {
        self.entries
            .iter()
            .find(|p| p.name() == name)
            .map(Box::as_ref)
    }

    /// The position of a protocol in registration order.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|p| p.name() == name)
    }

    /// The protocol at a registration index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn entry(&self, index: usize) -> &dyn ProtocolAnalysis {
        self.entries[index].as_ref()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered names, in registration (presentation) order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|p| p.name()).collect()
    }

    /// Iterates the protocols in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn ProtocolAnalysis> {
        self.entries.iter().map(Box::as_ref)
    }

    /// Serves one [`AnalysisRequest`]: resolves the named protocol,
    /// evaluates it under the request's configuration (the session's own
    /// config is restored afterwards) and packages the outcome as an
    /// [`AnalysisVerdict`] stamped with the request's canonical
    /// structural key. The HTTP server's dispatch point (through
    /// [`respond_keyed`](Self::respond_keyed)); in-process sweeps call
    /// [`AnalysisSession::run`] instead, since they read only whether a
    /// set is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when no protocol of the requested name
    /// is registered, or when the task set contains read requests and the
    /// resolved protocol is write-only (analyzing reads as writes would
    /// be silent nonsense; the error names the offending method).
    pub fn respond(
        &self,
        session: &mut AnalysisSession,
        request: &AnalysisRequest,
    ) -> Result<AnalysisVerdict, RegistryError> {
        self.respond_keyed(session, request, request.structural_key())
    }

    /// [`respond`](Self::respond) for a caller that already holds the
    /// request's structural key (the server computes it for its cache
    /// probe): the verdict is stamped with `key` instead of a second
    /// computation of the same value. `key` must be
    /// `request.structural_key()`.
    ///
    /// # Errors
    ///
    /// As [`respond`](Self::respond).
    pub fn respond_keyed(
        &self,
        session: &mut AnalysisSession,
        request: &AnalysisRequest,
        key: u64,
    ) -> Result<AnalysisVerdict, RegistryError> {
        let protocol = self
            .resolve(&request.protocol)
            .ok_or_else(|| RegistryError(format!("unknown protocol '{}'", request.protocol)))?;
        if request.tasks.has_reads() && !protocol.supports_rw() {
            return Err(RegistryError(format!(
                "protocol '{}' is write-only and cannot analyze a task set \
                 with read requests",
                protocol.name()
            )));
        }
        let outcome = session.with_config(request.config.clone(), |s| {
            protocol.evaluate(s, &request.tasks, &request.platform, request.heuristic)
        });
        Ok(AnalysisVerdict::from_outcome(
            &request.protocol,
            key,
            &outcome,
        ))
    }
}

/// DPCP-p as a registry protocol, in either analysis variant.
///
/// Every set runs
/// [`partition_and_analyze_mixed`](AnalysisSession::partition_and_analyze_mixed),
/// Algorithm 1 under the Sec. VI placement: light (sequential, `C ≤ D`)
/// tasks share pooled processors instead of receiving singleton
/// federated clusters, so a generator scenario with `light_fraction > 0`
/// exercises the shared light pools end to end. On a purely heavy set the
/// pool is empty and the loop is Sec. V's Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct DpcpProtocol {
    variant: AnalysisVariant,
}

impl DpcpProtocol {
    /// The path-enumerating variant (`DPCP-p-EP`). Its analysis
    /// configuration is the session's (the path caps and the fixed-point
    /// budget apply), with the variant forced to EP.
    pub fn ep() -> Self {
        DpcpProtocol {
            variant: AnalysisVariant::EnumeratePaths,
        }
    }

    /// The request-count variant (`DPCP-p-EN`). Runs under
    /// [`AnalysisConfig::en`] regardless of the session's base
    /// configuration, mirroring the paper's evaluation (EN has no
    /// enumeration knobs to ablate).
    pub fn en() -> Self {
        DpcpProtocol {
            variant: AnalysisVariant::EnumerateRequestCounts,
        }
    }

    /// The variant this protocol runs.
    pub fn variant(&self) -> AnalysisVariant {
        self.variant
    }
}

impl ProtocolAnalysis for DpcpProtocol {
    fn name(&self) -> &str {
        match self.variant {
            AnalysisVariant::EnumeratePaths => "DPCP-p-EP",
            AnalysisVariant::EnumerateRequestCounts => "DPCP-p-EN",
        }
    }

    fn tag(&self) -> char {
        match self.variant {
            AnalysisVariant::EnumeratePaths => 'E',
            AnalysisVariant::EnumerateRequestCounts => 'N',
        }
    }

    fn description(&self) -> &str {
        match self.variant {
            AnalysisVariant::EnumeratePaths => {
                "DPCP-p, path-signature enumeration (Theorem 1 per path)"
            }
            AnalysisVariant::EnumerateRequestCounts => {
                "DPCP-p, term-wise maximal request counts (one virtual path)"
            }
        }
    }

    fn evaluate(
        &self,
        session: &mut AnalysisSession,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        let cfg = match self.variant {
            AnalysisVariant::EnumeratePaths => {
                let mut cfg = session.config().clone();
                cfg.variant = AnalysisVariant::EnumeratePaths;
                cfg
            }
            AnalysisVariant::EnumerateRequestCounts => AnalysisConfig::en(),
        };
        session.with_config(cfg, |s| {
            s.partition_and_analyze_mixed(tasks, platform, heuristic)
        })
    }
}

/// A search-in-the-loop variant of another protocol: the wrapped
/// analysis is evaluated under every placement heuristic (WFD/FFD/BFD),
/// and only when all of those seeds fail does the budgeted
/// [`PlacementSearch`] explore the joint resource-home × partition space
/// for a placement the heuristics missed — so the wrapper's verdict is
/// never worse than the best heuristic seed, and strictly better exactly
/// when search finds a schedulable placement. Registers as
/// `"<inner>/SEARCH"` (e.g. `"DPCP-p-EP/SEARCH"`).
///
/// The probe budget is the wrapper's [`SearchConfig`] default unless the
/// session's [`AnalysisConfig::search_probe_budget`] overrides it (the
/// campaign ablation axis and DTO requests plumb budgets through that
/// knob).
#[derive(Debug)]
pub struct SearchVariant<P> {
    inner: P,
    search: PlacementSearch,
    name: String,
}

impl<P: ProtocolAnalysis> SearchVariant<P> {
    /// Wraps `inner` with a placement search of the given knobs.
    pub fn new(inner: P, cfg: SearchConfig) -> Self {
        let name = format!("{}/SEARCH", inner.name());
        SearchVariant {
            inner,
            search: PlacementSearch::new(cfg),
            name,
        }
    }

    /// The wrapper's default search knobs.
    pub fn config(&self) -> &SearchConfig {
        self.search.config()
    }
}

impl<P: ProtocolAnalysis> ProtocolAnalysis for SearchVariant<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tag(&self) -> char {
        'X'
    }

    fn description(&self) -> &str {
        "budgeted local search over resource homes and task partitions"
    }

    fn search_budget(&self) -> Option<usize> {
        Some(self.search.config().probe_budget)
    }

    fn evaluate(
        &self,
        session: &mut AnalysisSession,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        let engine = match session.config().search_probe_budget {
            Some(probe_budget) => PlacementSearch::new(SearchConfig {
                probe_budget,
                ..*self.search.config()
            }),
            None => self.search.clone(),
        };
        engine
            .run(session, &self.inner, tasks, platform, heuristic)
            .outcome
    }
}

/// The registry of this crate's own protocols: `DPCP-p-EP` then
/// `DPCP-p-EN`, in the paper's presentation order. Baseline protocols
/// register on top of this (see `dpcp_baselines::standard_registry`).
pub fn dpcp_protocols() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    registry
        .register(Box::new(DpcpProtocol::ep()))
        .expect("fresh registry");
    registry
        .register(Box::new(DpcpProtocol::en()))
        .expect("distinct names");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_model::{DagTask, RequestSpec, ResourceId, TaskId, TaskSet, Time, VertexSpec};

    /// Two purely heavy (C > D) DAG tasks sharing one global resource —
    /// a set on which the Sec. VI pool is empty.
    fn heavy_set() -> TaskSet {
        let rid = ResourceId::new(0);
        let mk = |id: usize, cs_us: u64| {
            let dag = dpcp_model::Dag::new(3, []).unwrap();
            DagTask::builder(TaskId::new(id), Time::from_ms(20))
                .dag(dag)
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(10),
                    [RequestSpec::new(rid, 2)],
                ))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .critical_section(rid, Time::from_us(cs_us))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![mk(0, 100), mk(1, 60)], 1).unwrap()
    }

    #[test]
    fn registry_resolves_by_name_and_order() {
        let registry = dpcp_protocols();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), ["DPCP-p-EP", "DPCP-p-EN"]);
        assert_eq!(registry.position("DPCP-p-EN"), Some(1));
        assert!(registry.resolve("SPIN-SON").is_none());
        assert_eq!(registry.entry(0).tag(), 'E');
        assert!(!registry.entry(1).description().is_empty());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut registry = dpcp_protocols();
        let err = registry.register(Box::new(DpcpProtocol::ep())).unwrap_err();
        assert!(err.to_string().contains("DPCP-p-EP"));
    }

    #[test]
    fn dispatch_matches_direct_session_calls() {
        // On purely heavy sets the registry's pooled loop is Sec. V's
        // Algorithm 1, bit-identical to the direct session call.
        let tasks = heavy_set();
        let platform = Platform::new(6).unwrap();
        let wfd = ResourceHeuristic::WorstFitDecreasing;
        let registry = dpcp_protocols();
        for (name, cfg) in [
            ("DPCP-p-EP", AnalysisConfig::ep()),
            ("DPCP-p-EN", AnalysisConfig::en()),
        ] {
            let protocol = registry.resolve(name).unwrap();
            let mut session = AnalysisSession::new(AnalysisConfig::ep());
            let via_registry = session.run(protocol, &tasks, &platform, wfd);
            let direct = AnalysisSession::new(cfg).partition_and_analyze(&tasks, &platform, wfd);
            assert_eq!(via_registry, direct, "{name}");
        }
    }

    #[test]
    fn respond_rejects_rw_sets_on_write_only_protocols() {
        use crate::dto::AnalysisRequest;
        let rid = ResourceId::new(0);
        let reader = DagTask::builder(TaskId::new(0), Time::from_ms(20))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(5),
                [RequestSpec::read(rid, 1)],
            ))
            .critical_section(rid, Time::from_us(100))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![reader], 1).unwrap();
        assert!(tasks.has_reads());
        let request = AnalysisRequest {
            schema: Some(2),
            protocol: "DPCP-p-EP".to_string(),
            tasks,
            platform: Platform::new(4).unwrap(),
            config: AnalysisConfig::ep(),
            heuristic: ResourceHeuristic::WorstFitDecreasing,
        };
        let registry = dpcp_protocols();
        assert!(!registry.entry(0).supports_rw());
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let err = registry.respond(&mut session, &request).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("DPCP-p-EP"), "must name the method: {msg}");
        assert!(msg.contains("write-only"), "{msg}");
    }

    #[test]
    fn search_variant_returns_heuristic_seeds_verbatim() {
        // On a set some heuristic already schedules, the search wrapper
        // must return that seed's outcome bit-identically (zero probes):
        // search is opt-in extra work, never a behavioral change on
        // already-schedulable inputs.
        let wrapper = SearchVariant::new(DpcpProtocol::ep(), SearchConfig::default());
        assert_eq!(wrapper.name(), "DPCP-p-EP/SEARCH");
        assert_eq!(wrapper.tag(), 'X');
        assert_eq!(wrapper.search_budget(), Some(wrapper.config().probe_budget));
        assert!(!wrapper.description().is_empty());
        let tasks = heavy_set();
        let platform = Platform::new(6).unwrap();
        let wfd = ResourceHeuristic::WorstFitDecreasing;
        let mut session = AnalysisSession::new(AnalysisConfig::ep());
        let searched = session.run(&wrapper, &tasks, &platform, wfd);
        let direct = AnalysisSession::new(AnalysisConfig::ep())
            .partition_and_analyze(&tasks, &platform, wfd);
        assert!(direct.is_schedulable(), "fixture must be schedulable");
        assert_eq!(searched, direct);
    }

    #[test]
    fn search_variant_honors_the_session_budget_override() {
        // `search_probe_budget: Some(0)` disables the neighborhood loop:
        // the wrapper must fall back to the best heuristic seed even on
        // sets where a budgeted search would keep probing. Also checks
        // the override engine is rebuilt per call (the wrapper default is
        // untouched).
        let wrapper = SearchVariant::new(DpcpProtocol::ep(), SearchConfig::default());
        let tasks = heavy_set();
        let platform = Platform::new(6).unwrap();
        let wfd = ResourceHeuristic::WorstFitDecreasing;
        let mut cfg = AnalysisConfig::ep();
        cfg.search_probe_budget = Some(0);
        let mut session = AnalysisSession::new(cfg);
        let zero_budget = session.run(&wrapper, &tasks, &platform, wfd);
        let seed = AnalysisSession::new(AnalysisConfig::ep())
            .partition_and_analyze(&tasks, &platform, wfd);
        assert_eq!(zero_budget, seed);
        assert_eq!(
            wrapper.config().probe_budget,
            SearchConfig::default().probe_budget
        );
    }

    #[test]
    fn light_sets_route_through_the_mixed_loop() {
        // A set with light tasks dispatched through the registry must
        // match the session's mixed entry point, which pools the lights.
        use dpcp_model::{DagTask, RequestSpec, ResourceId, TaskId, TaskSet, Time, VertexSpec};
        let rid = ResourceId::new(0);
        let heavy = {
            let dag = dpcp_model::Dag::new(3, []).unwrap();
            DagTask::builder(TaskId::new(0), Time::from_ms(20))
                .dag(dag)
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(10),
                    [RequestSpec::new(rid, 2)],
                ))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .critical_section(rid, Time::from_us(100))
                .build()
                .unwrap()
        };
        let light = DagTask::builder(TaskId::new(1), Time::from_ms(10))
            .vertex(VertexSpec::with_requests(
                Time::from_ms(3),
                [RequestSpec::new(rid, 1)],
            ))
            .critical_section(rid, Time::from_us(50))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![heavy, light], 1).unwrap();
        let platform = Platform::new(6).unwrap();
        let wfd = ResourceHeuristic::WorstFitDecreasing;
        let registry = dpcp_protocols();
        for (name, cfg) in [
            ("DPCP-p-EP", AnalysisConfig::ep()),
            ("DPCP-p-EN", AnalysisConfig::en()),
        ] {
            let mut session = AnalysisSession::new(AnalysisConfig::ep());
            let routed = session.run(registry.resolve(name).unwrap(), &tasks, &platform, wfd);
            let mixed =
                AnalysisSession::new(cfg).partition_and_analyze_mixed(&tasks, &platform, wfd);
            assert_eq!(routed, mixed, "{name}");
        }
    }
}
