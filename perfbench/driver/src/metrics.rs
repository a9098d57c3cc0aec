//! The metric catalog (names and units, as `BENCHMARK.json` lists them)
//! and the per-run report every workload fills in.

use std::collections::{BTreeMap, HashMap};

use crate::trace::Span;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on the protocol list.
const LAYERS: [(&str, &str); 23] = [
    ("http.rtt_us", "us"),
    ("cache.raw_hits", "count"),
    ("cache.struct_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.probe_us", "us"),
    ("parse.us", "us"),
    ("parse.mb_per_s", "MB/s"),
    ("key.us", "us"),
    ("enumerate.us", "us"),
    ("enumerate.signatures", "count"),
    ("enumerate.truncated_ratio", "ratio"),
    ("solve.us", "us"),
    ("partition.rounds", "count"),
    ("search.probes", "count"),
    ("search.us", "us"),
    ("search.improved_ratio", "ratio"),
    ("gen.us", "us"),
    ("gen.retries", "count"),
    ("serialize.us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("error_rate", "ratio"),
    ("requests", "count"),
];

/// A registry name as a metric-name suffix: `DPCP-p-EP/SEARCH` →
/// `dpcp-p-ep-search`.
pub fn slug(name: &str) -> String {
    name.to_ascii_lowercase().replace('/', "-")
}

/// Every per-layer metric, in print order.
pub fn per_layer_catalog(protocols: &[String]) -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    out.extend(
        protocols
            .iter()
            .map(|p| (format!("respond_ms.{}", slug(p)), "ms")),
    );
    out.extend(
        protocols
            .iter()
            .map(|p| (format!("cold.unattributed_frac.{}", slug(p)), "ratio")),
    );
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks of the benchmark itself (oracle canary, span nesting).
    pub checks: Vec<(String, bool)>,
    pub values: BTreeMap<String, f64>,
    /// Workload properties, for later claims to cite their base.
    pub properties: Vec<(String, serde::Value)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn property(&mut self, name: &str, value: serde::Value) {
        self.properties.push((name.to_string(), value));
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

/// Per request, the summed duration (µs) of every span with this name
/// (a miss probes the cache twice; both probes are one stage).
pub fn sums_by_request(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut out: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_default() += s.us();
    }
    out
}

/// Median per-request stage time (µs) for each protocol, over requests
/// that map to one.
pub fn medians_by_protocol(
    spans: &[Span],
    name: &str,
    protocol_of: &HashMap<u64, usize>,
    protocols: usize,
) -> Vec<f64> {
    let mut groups = vec![Vec::new(); protocols];
    for (request, us) in sums_by_request(spans, name) {
        if let Some(&p) = protocol_of.get(&request) {
            groups[p].push(us);
        }
    }
    groups.iter().map(|g| crate::stats::median(g)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(value: &serde::Value, key: &str) -> Vec<(String, String)> {
        match value.field(key) {
            serde::Value::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        m.field("name").as_str().unwrap().to_string(),
                        m.field("unit").as_str().unwrap().to_string(),
                    )
                })
                .collect(),
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: serde::Value = serde_json::from_str(&text).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let names: Vec<String> = dpcp_baselines::standard_registry()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let layers: Vec<(String, String)> = per_layer_catalog(&names)
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn slugs_are_metric_safe() {
        assert_eq!(slug("DPCP-p-EP/SEARCH"), "dpcp-p-ep-search");
        assert_eq!(slug("MPCP-SA"), "mpcp-sa");
    }
}
