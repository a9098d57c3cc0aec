//! In-process replay of the layers a request crosses, with a span around
//! each public call: cache probe, parse, structural key, `respond`,
//! verdict serialization — plus enumeration, the Theorem-1 solve and the
//! placement search timed as separate calls on the same inputs, beside
//! the `respond` span rather than inside it.

use std::sync::Arc;

use dpcp_core::analysis::SignatureCache;
use dpcp_core::{
    AnalysisRequest, AnalysisSession, AnalysisVariant, DpcpProtocol, PlacementSearch,
    ProtocolRegistry, SearchConfig,
};
use dpcp_serve::cache::{raw_key, VerdictCache};

use crate::trace::{SpanId, Tracer};

/// Plain-integer outcomes counted where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Bytes handed to the JSON parser.
    pub parse_bytes: f64,
    /// Partition rounds per fresh verdict.
    pub rounds: Vec<f64>,
    /// Signatures per enumerated task.
    pub signatures: Vec<f64>,
    pub enumerated_tasks: usize,
    pub truncated_tasks: usize,
    /// Probes per placement search.
    pub search_probes: Vec<f64>,
    pub searches: usize,
    pub improved: usize,
}

impl Counters {
    pub fn absorb(&mut self, other: Counters) {
        self.parse_bytes += other.parse_bytes;
        self.rounds.extend(other.rounds);
        self.signatures.extend(other.signatures);
        self.enumerated_tasks += other.enumerated_tasks;
        self.truncated_tasks += other.truncated_tasks;
        self.search_probes.extend(other.search_probes);
        self.searches += other.searches;
        self.improved += other.improved;
    }
}

/// The serve path of one request body, replayed against `cache`;
/// returns the parsed request when the cache missed.
pub fn serve_request(
    tracer: &mut Tracer,
    registry: &ProtocolRegistry,
    session: &mut AnalysisSession,
    cache: &VerdictCache,
    counters: &mut Counters,
    request: u64,
    body: &[u8],
) -> Result<Option<AnalysisRequest>, String> {
    let root = tracer.open("replay", None, request);
    let missed = serve_inner(
        tracer, root, registry, session, cache, counters, request, body,
    );
    tracer.close(root);
    missed
}

#[allow(clippy::too_many_arguments)]
fn serve_inner(
    tracer: &mut Tracer,
    root: SpanId,
    registry: &ProtocolRegistry,
    session: &mut AnalysisSession,
    cache: &VerdictCache,
    counters: &mut Counters,
    request: u64,
    body: &[u8],
) -> Result<Option<AnalysisRequest>, String> {
    let (raw, hit) = tracer.time("cache.probe", root, request, || {
        let raw = raw_key(body);
        (raw, cache.get_raw(raw))
    });
    if hit.is_some() {
        return Ok(None);
    }
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    counters.parse_bytes += body.len() as f64;
    let parsed: AnalysisRequest = tracer
        .time("parse", root, request, || serde_json::from_str(text))
        .map_err(|e| format!("parse: {e}"))?;
    let key = tracer.time("key", root, request, || parsed.structural_key());
    if tracer
        .time("cache.probe", root, request, || cache.get(key, raw))
        .is_some()
    {
        return Ok(None);
    }
    let verdict = tracer
        .time("respond", root, request, || {
            registry.respond(session, &parsed)
        })
        .map_err(|e| format!("respond: {e}"))?;
    let serialized = tracer.time("serialize", root, request, || {
        serde_json::to_string(&verdict).expect("verdicts serialize")
    });
    counters.rounds.push(verdict.rounds as f64);
    cache.insert(key, raw, Arc::from(serialized.as_str()));
    Ok(Some(parsed))
}

/// Times the analysis layers under `respond` as separate calls on the
/// same request: enumeration (EP protocols), the solve on the chosen
/// partition with the signature cache warm (`DPCP-p-EP`), and the
/// placement search (`DPCP-p-EP/SEARCH`).
pub fn analysis_layers(
    tracer: &mut Tracer,
    registry: &ProtocolRegistry,
    session: &mut AnalysisSession,
    counters: &mut Counters,
    request: u64,
    req: &AnalysisRequest,
) -> Result<(), String> {
    let searching = req.protocol == "DPCP-p-EP/SEARCH";
    if req.protocol != "DPCP-p-EP" && !searching {
        return Ok(());
    }
    let mut cfg = req.config.clone();
    cfg.variant = AnalysisVariant::EnumeratePaths;
    let signatures = tracer.time("enumerate", None, request, || {
        SignatureCache::new(&req.tasks, &cfg)
    });
    for task in req.tasks.iter() {
        let sigs = signatures.signatures(task.id());
        counters.signatures.push(sigs.signatures.len() as f64);
        counters.enumerated_tasks += 1;
        counters.truncated_tasks += usize::from(sigs.truncated);
    }
    if searching {
        let engine = PlacementSearch::new(SearchConfig {
            probe_budget: req
                .config
                .search_probe_budget
                .unwrap_or(SearchConfig::default().probe_budget),
            ..SearchConfig::default()
        });
        let outcome = session.with_config(cfg, |s| {
            tracer.time("search", None, request, || {
                engine.run(
                    s,
                    &DpcpProtocol::ep(),
                    &req.tasks,
                    &req.platform,
                    req.heuristic,
                )
            })
        });
        counters.searches += 1;
        counters.improved += usize::from(outcome.improved);
        counters.search_probes.push(outcome.probes as f64);
        return Ok(());
    }
    let protocol = registry
        .resolve(&req.protocol)
        .ok_or_else(|| format!("unknown protocol {}", req.protocol))?;
    let outcome = session.with_config(cfg.clone(), |s| {
        protocol.evaluate(s, &req.tasks, &req.platform, req.heuristic)
    });
    if let Some(partition) = outcome.partition() {
        session.with_config(cfg, |s| {
            // The first call fills the session's signature cache.
            std::hint::black_box(s.analyze(&req.tasks, partition));
            tracer.time("solve", None, request, || {
                std::hint::black_box(s.analyze(&req.tasks, partition))
            });
        });
    }
    Ok(())
}
