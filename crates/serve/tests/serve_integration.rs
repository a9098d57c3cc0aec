//! End-to-end tests against a real socket: spawn the server, speak the
//! wire protocol with the minimal HTTP client, and check the verdict,
//! the cache provenance header, byte-identity and the error paths.

use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisVerdict, ResourceHeuristic};
use dpcp_model::{fig1, Platform};
use dpcp_serve::http::{roundtrip, KeepAliveClient};
use dpcp_serve::{ServeConfig, Server};

fn spawn_server() -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("ephemeral bind")
}

fn fig1_request(protocol: &str) -> AnalysisRequest {
    AnalysisRequest {
        schema: None,
        protocol: protocol.to_string(),
        tasks: fig1::task_set().expect("fig1 fixture"),
        platform: Platform::new(4).expect("m >= 2"),
        config: AnalysisConfig::ep(),
        heuristic: ResourceHeuristic::WorstFitDecreasing,
    }
}

fn cache_header(headers: &[(String, String)]) -> Option<&str> {
    headers
        .iter()
        .find(|(name, _)| name == "x-verdict-cache")
        .map(|(_, value)| value.as_str())
}

fn post_analyze(addr: &str, request: &AnalysisRequest) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let body = serde_json::to_string(request).expect("requests serialize");
    roundtrip(addr, "POST", "/analyze", body.as_bytes()).expect("roundtrip")
}

#[test]
fn analyze_returns_a_verdict_and_repeat_hits_the_cache() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let request = fig1_request("DPCP-p-EP");

    let (status, headers, cold) = post_analyze(&addr, &request);
    assert_eq!(status, 200);
    assert_eq!(cache_header(&headers), Some("MISS"));
    let verdict: AnalysisVerdict =
        serde_json::from_str(std::str::from_utf8(&cold).expect("utf-8")).expect("verdict JSON");
    assert_eq!(verdict.protocol, "DPCP-p-EP");
    assert!(verdict.schedulable, "Fig. 1 is schedulable under DPCP-p-EP");
    assert_eq!(
        verdict.cache_key,
        format!("{:016x}", request.structural_key())
    );

    let (status, headers, warm) = post_analyze(&addr, &request);
    assert_eq!(status, 200);
    assert_eq!(cache_header(&headers), Some("HIT"));
    assert_eq!(warm, cold, "cache hits must be byte-identical");

    server.shutdown();
}

#[test]
fn reencoded_submission_hits_the_structural_tier() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let request = fig1_request("DPCP-p-EP");
    // The same submission in two encodings: compact and pretty-printed.
    // The raw byte tier cannot match across them, so the second request
    // must come back via the structural key computed after parse.
    let compact = serde_json::to_string(&request).expect("serialize");
    let pretty = serde_json::to_string_pretty(&request).expect("serialize");
    assert_ne!(compact, pretty, "distinct wire bytes");

    let (status, headers, cold) =
        roundtrip(&addr, "POST", "/analyze", compact.as_bytes()).expect("roundtrip");
    assert_eq!(status, 200);
    assert_eq!(cache_header(&headers), Some("MISS"));
    let (status, headers, warm) =
        roundtrip(&addr, "POST", "/analyze", pretty.as_bytes()).expect("roundtrip");
    assert_eq!(status, 200);
    assert_eq!(
        cache_header(&headers),
        Some("HIT"),
        "a re-encoded duplicate short-circuits after parse"
    );
    assert_eq!(warm, cold, "structural hits serve the resident bytes");

    server.shutdown();
}

#[test]
fn retired_solver_switch_is_accepted_ignored_and_never_emitted() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let config = serde_json::to_string(&AnalysisConfig::ep()).expect("serialize");
    assert!(!config.contains("batched_fixpoint"), "{config}");

    // A client built against an older schema still sends the switch; the
    // server parses past it. Its bytes differ from the current encoding,
    // so the second request can only hit through the structural tier.
    let current = serde_json::to_string(&fig1_request("DPCP-p-EP")).expect("serialize");
    let legacy = current.replacen(
        "\"search_probe_budget\"",
        "\"batched_fixpoint\":false,\"search_probe_budget\"",
        1,
    );
    assert_ne!(legacy, current, "the legacy body carries the member");
    let (status, headers, cold) =
        roundtrip(&addr, "POST", "/analyze", legacy.as_bytes()).expect("roundtrip");
    assert_eq!(status, 200);
    assert_eq!(cache_header(&headers), Some("MISS"));
    let (status, headers, warm) =
        roundtrip(&addr, "POST", "/analyze", current.as_bytes()).expect("roundtrip");
    assert_eq!(status, 200);
    assert_eq!(
        cache_header(&headers),
        Some("HIT"),
        "the switch is not part of the structural key"
    );
    assert_eq!(warm, cold, "structural hits serve the resident bytes");

    server.shutdown();
}

#[test]
fn distinct_protocols_miss_separately() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();

    let (_, headers_ep, body_ep) = post_analyze(&addr, &fig1_request("DPCP-p-EP"));
    let (_, headers_en, body_en) = post_analyze(&addr, &fig1_request("DPCP-p-EN"));
    assert_eq!(cache_header(&headers_ep), Some("MISS"));
    assert_eq!(
        cache_header(&headers_en),
        Some("MISS"),
        "protocol name is part of the structural key"
    );
    assert_ne!(body_ep, body_en, "verdicts carry their protocol");

    server.shutdown();
}

#[test]
fn malformed_json_is_a_400() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let (status, _, body) = roundtrip(&addr, "POST", "/analyze", b"{not json").expect("roundtrip");
    assert_eq!(status, 400);
    assert!(
        std::str::from_utf8(&body).expect("utf-8").contains("error"),
        "error body names the failure"
    );
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    // Without the parser's depth limit, 20,000 nested arrays overflow a
    // worker's stack, and a stack overflow aborts the whole process.
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let hostile = "[".repeat(20_000);
    let (status, _, body) =
        roundtrip(&addr, "POST", "/analyze", hostile.as_bytes()).expect("roundtrip");
    assert_eq!(status, 400);
    assert!(
        std::str::from_utf8(&body)
            .expect("utf-8")
            .contains("nested deeper"),
        "error body names the depth limit"
    );
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("server alive");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn unknown_protocol_is_a_422() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let (status, _, body) = post_analyze(&addr, &fig1_request("NO-SUCH-PROTOCOL"));
    assert_eq!(status, 422);
    assert!(std::str::from_utf8(&body)
        .expect("utf-8")
        .contains("NO-SUCH-PROTOCOL"));
    server.shutdown();
}

#[test]
fn unsupported_schema_version_is_a_422_listing_supported_ones() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    // Declared supported versions pass (v2 here); an unknown one is
    // refused before any structural hashing, naming what is supported.
    let mut request = fig1_request("DPCP-p-EP");
    request.schema = Some(2);
    let (status, _, _) = post_analyze(&addr, &request);
    assert_eq!(status, 200);
    request.schema = Some(99);
    let (status, _, body) = post_analyze(&addr, &request);
    assert_eq!(status, 422);
    let body = std::str::from_utf8(&body).expect("utf-8");
    assert!(body.contains("unsupported schema version 99"), "{body}");
    assert!(body.contains("supported versions: 1, 2"), "{body}");
    server.shutdown();
}

#[test]
fn rw_task_set_on_write_only_protocol_is_a_422_naming_it() {
    use dpcp_model::{DagTask, RequestSpec, ResourceId, TaskId, TaskSet, Time, VertexSpec};

    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let rid = ResourceId::new(0);
    let task = DagTask::builder(TaskId::new(0), Time::from_ms(10))
        .vertex(VertexSpec::with_requests(
            Time::from_ms(1),
            [RequestSpec::read(rid, 1)],
        ))
        .critical_section(rid, Time::from_us(50))
        .read_critical_section(rid, Time::from_us(20))
        .build()
        .expect("valid task");
    let tasks = TaskSet::new(vec![task], 1).expect("valid set");
    let mut request = fig1_request("LPP");
    request.tasks = tasks;
    let (status, _, body) = post_analyze(&addr, &request);
    assert_eq!(status, 422);
    let body = std::str::from_utf8(&body).expect("utf-8");
    assert!(body.contains("LPP"), "{body}");
    assert!(body.contains("write-only"), "{body}");
    // The same set routed to an rw-aware protocol is analyzed normally.
    request.protocol = "MPCP-SA".to_string();
    let (status, _, _) = post_analyze(&addr, &request);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection_across_requests() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let request = fig1_request("DPCP-p-EP");
    let body = serde_json::to_string(&request).expect("requests serialize");

    let mut client = KeepAliveClient::new(&addr);
    let mut first = None;
    for _ in 0..5 {
        let (status, headers, bytes) = client
            .send("POST", "/analyze", body.as_bytes())
            .expect("keep-alive send");
        assert_eq!(status, 200);
        assert!(
            headers
                .iter()
                .any(|(name, value)| name == "connection" && value == "keep-alive"),
            "server honors the keep-alive ask"
        );
        match &first {
            Some(cold) => assert_eq!(&bytes, cold, "reused connection serves identical bytes"),
            None => first = Some(bytes),
        }
    }
    assert_eq!(
        client.connects(),
        1,
        "five requests rode one TCP connection"
    );

    server.shutdown();
}

#[test]
fn keep_alive_connection_cap_closes_and_client_reconnects() {
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_capacity: 16,
        keep_alive_max_requests: 2,
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.local_addr().to_string();
    let request = fig1_request("DPCP-p-EP");
    let body = serde_json::to_string(&request).expect("requests serialize");

    let mut client = KeepAliveClient::new(&addr);
    for i in 0..6 {
        let (status, headers, _) = client
            .send("POST", "/analyze", body.as_bytes())
            .expect("keep-alive send");
        assert_eq!(status, 200);
        // The capped request of each connection is announced with
        // `connection: close`, so the client reconnects cleanly.
        let expected = if i % 2 == 0 { "keep-alive" } else { "close" };
        assert!(
            headers
                .iter()
                .any(|(name, value)| name == "connection" && value == expected),
            "request {i} expected connection: {expected}"
        );
    }
    assert_eq!(
        client.connects(),
        3,
        "a cap of 2 splits six requests over three connections"
    );

    server.shutdown();
}

#[test]
fn metrics_and_healthz_respond() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();

    let (status, _, body) = roundtrip(&addr, "GET", "/healthz", b"").expect("roundtrip");
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);

    post_analyze(&addr, &fig1_request("DPCP-p-EP"));
    post_analyze(&addr, &fig1_request("DPCP-p-EP"));

    let (status, _, body) = roundtrip(&addr, "GET", "/metrics", b"").expect("roundtrip");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).expect("utf-8");
    let snapshot: serde::Value = serde_json::from_str(text).expect("metrics JSON");
    let serde::Value::Object(fields) = &snapshot else {
        panic!("metrics body is an object");
    };
    for key in ["uptime_secs", "verdicts_per_sec", "cache", "analyze"] {
        assert!(
            fields.iter().any(|(name, _)| name == key),
            "metrics carries {key}: {text}"
        );
    }

    let (status, _, _) = roundtrip(&addr, "GET", "/nope", b"").expect("roundtrip");
    assert_eq!(status, 404);

    server.shutdown();
}
