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
    assert!(!config.contains("prune_dominated"), "{config}");

    // A client built against an older schema still sends the switches
    // (pruning off, which older builds analysed unpruned); the server
    // parses past them. Its bytes differ from the current encoding, so
    // the second request can only hit through the structural tier.
    let current = serde_json::to_string(&fig1_request("DPCP-p-EP")).expect("serialize");
    let legacy = current.replacen(
        "\"search_probe_budget\"",
        "\"batched_fixpoint\":false,\"prune_dominated\":false,\"search_probe_budget\"",
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
        "the switches are not part of the structural key"
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

fn one_worker_server() -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("ephemeral bind")
}

/// The object member `name` of `value`.
fn member<'a>(value: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    match value {
        serde::Value::Object(members) => {
            &mut members
                .iter_mut()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("no member {name}"))
                .1
        }
        _ => panic!("{name}: not an object"),
    }
}

/// Element `index` of the array `value`.
fn element(value: &mut serde::Value, index: usize) -> &mut serde::Value {
    match value {
        serde::Value::Array(items) => &mut items[index],
        _ => panic!("[{index}]: not an array"),
    }
}

#[test]
fn model_breaking_an_invariant_is_a_400_and_the_worker_survives() {
    use dpcp_gen::scenario::{Fig2Panel, Scenario};
    use rand::SeedableRng;
    use serde::Serialize;

    // A fig2 panel-A submission whose first DAG names a successor far
    // outside its vertex range. Trusting the member used to index out of
    // bounds while keying the request, killing the only worker.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2020);
    let tasks = Scenario::fig2(Fig2Panel::A)
        .sample_task_set(8.0, &mut rng)
        .expect("seed generates");
    let request = AnalysisRequest {
        platform: Platform::new(16).expect("m >= 2"),
        tasks,
        ..fig1_request("DPCP-p-EP")
    };
    let mut wire = request.serialize();
    let dags = member(member(&mut wire, "tasks"), "tasks");
    let first_dag = member(element(dags, 0), "dag");
    *element(member(first_dag, "succs"), 0) = serde::Value::Array(vec![serde::Value::U64(100_000)]);
    let tampered = serde_json::to_string(&wire).expect("serialize");

    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    let (status, _, body) =
        roundtrip(&addr, "POST", "/analyze", tampered.as_bytes()).expect("roundtrip");
    let body = String::from_utf8(body).expect("utf-8");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("edge endpoint 100000 out of range"), "{body}");
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("worker alive");
    assert_eq!(status, 200);
    let (status, _, _) = post_analyze(&addr, &request);
    assert_eq!(status, 200, "the untampered submission is analyzed");
    server.shutdown();
}

#[test]
fn request_counts_past_u32_are_a_400_naming_the_task_and_resource() {
    use dpcp_model::{Dag, DagTask, RequestSpec, ResourceId, TaskId, TaskSet, Time, VertexSpec};
    use serde::Serialize;

    // One request to l0 from each of two vertices, whose WCETs contain
    // 2^31 such critical sections. The bodies below raise the counts to
    // 2^31 apiece, merged within one vertex or summed across both: 2^32
    // used to wrap to 0 in release builds, pricing the task as issuing
    // no request, and to panic in debug builds.
    let l0 = ResourceId::new(0);
    let vertex = || VertexSpec::with_requests(Time::from_ns(1 << 40), [RequestSpec::new(l0, 1)]);
    let task = DagTask::builder(TaskId::new(0), Time::from_ns(1 << 41))
        .dag(Dag::new(2, [(0, 1)]).expect("a chain"))
        .vertex(vertex())
        .vertex(vertex())
        .critical_section(l0, Time::from_ns(1))
        .build()
        .expect("a valid task");
    let request = AnalysisRequest {
        tasks: TaskSet::new(vec![task], 1).expect("a valid set"),
        ..fig1_request("DPCP-p-EP")
    };
    let half = serde::Value::U64(1 << 31);

    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    for within_one_vertex in [true, false] {
        let mut wire = request.serialize();
        let tasks = member(member(&mut wire, "tasks"), "tasks");
        let vertices = member(element(tasks, 0), "vertices");
        if within_one_vertex {
            let requests = member(element(vertices, 0), "requests");
            *member(element(requests, 0), "count") = half.clone();
            let entry = element(requests, 0).clone();
            *requests = serde::Value::Array(vec![entry.clone(), entry]);
        } else {
            for x in 0..2 {
                let requests = member(element(vertices, x), "requests");
                *member(element(requests, 0), "count") = half.clone();
            }
        }
        let hostile = serde_json::to_string(&wire).expect("serialize");
        let (status, _, body) =
            roundtrip(&addr, "POST", "/analyze", hostile.as_bytes()).expect("roundtrip");
        let body = String::from_utf8(body).expect("utf-8");
        assert_eq!(status, 400, "{body}");
        assert!(
            body.contains("tau0 issues more than 4294967295 requests to l0"),
            "{body}"
        );
    }
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("worker alive");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn huge_processor_count_is_a_400_and_the_process_survives() {
    use serde::Serialize;

    // A 1.7 KB fig1 body declaring 10^11 processors. Partitioning used to
    // allocate per processor, and the failed 1.6 TB allocation aborted
    // the whole process, which no worker-level guard can catch.
    let request = fig1_request("DPCP-p-EP");
    let mut wire = request.serialize();
    *member(member(&mut wire, "platform"), "processors") = serde::Value::U64(100_000_000_000);
    let hostile = serde_json::to_string(&wire).expect("serialize");

    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    let (status, _, body) =
        roundtrip(&addr, "POST", "/analyze", hostile.as_bytes()).expect("roundtrip");
    let body = String::from_utf8(body).expect("utf-8");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("at most 1024 processors"), "{body}");
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("server alive");
    assert_eq!(status, 200);
    let (status, _, _) = post_analyze(&addr, &request);
    assert_eq!(status, 200, "the untampered submission is analyzed");
    server.shutdown();
}

#[test]
fn hopeless_heavy_task_is_an_unschedulable_verdict_and_the_worker_survives() {
    use dpcp_core::UnschedulableReason;
    use dpcp_model::{Dag, DagTask, TaskId, TaskSet, Time, VertexSpec};

    // A well-formed heavy task (C = 20 ms > D = 15 ms) whose longest path
    // alone exceeds its deadline: no cluster size can fit it, so every
    // protocol rejects the set before any partitioning round, naming it.
    let hopeless = DagTask::builder(TaskId::new(0), Time::from_ms(20))
        .deadline(Time::from_ms(15))
        .dag(Dag::chain(2).expect("chain"))
        .vertex(VertexSpec::new(Time::from_ms(10)))
        .vertex(VertexSpec::new(Time::from_ms(10)))
        .build()
        .expect("valid task");
    let tasks = TaskSet::new(vec![hopeless], 0).expect("valid set");

    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    for protocol in dpcp_baselines::standard_registry().names() {
        let request = AnalysisRequest {
            tasks: tasks.clone(),
            ..fig1_request(protocol)
        };
        let (status, _, body) = post_analyze(&addr, &request);
        let body = String::from_utf8(body).expect("utf-8");
        assert_eq!(status, 200, "{protocol}: {body}");
        let verdict: AnalysisVerdict = serde_json::from_str(&body).expect("verdict JSON");
        assert!(!verdict.schedulable, "{protocol}");
        assert_eq!(verdict.rounds, 0, "{protocol}");
        assert_eq!(
            verdict.reason,
            Some(UnschedulableReason::TaskUnschedulable {
                task: TaskId::new(0)
            }),
            "{protocol}"
        );
    }
    // The worker answers on, and nothing panicked.
    let (status, _, _) = post_analyze(&addr, &fig1_request("DPCP-p-EP"));
    assert_eq!(status, 200);
    let (status, _, body) = roundtrip(&addr, "GET", "/metrics", b"").expect("roundtrip");
    assert_eq!(status, 200);
    let metrics: serde::Value =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf-8")).expect("metrics JSON");
    assert_eq!(metrics.field("panics"), &serde::Value::U64(0));
    assert_eq!(
        metrics.field("analyze").field("errors"),
        &serde::Value::U64(0)
    );
    assert_eq!(server.metrics.snapshot(server.cache.stats()).panics, 0);
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
fn a_knob_above_its_ceiling_is_a_prompt_422_and_the_worker_survives() {
    // A SEARCH body with a probe budget of 10^9 would pin the only worker
    // for days; it is refused before any analysis, naming the knob.
    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    let mut request = fig1_request("DPCP-p-EP/SEARCH");
    request.config.search_probe_budget = Some(1_000_000_000);
    let sent = std::time::Instant::now();
    let (status, _, body) = post_analyze(&addr, &request);
    let body = String::from_utf8(body).expect("utf-8");
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("search_probe_budget") && body.contains("ceiling of 1024"),
        "{body}"
    );
    assert!(
        sent.elapsed() < std::time::Duration::from_secs(5),
        "the refusal took {:?}",
        sent.elapsed()
    );
    // The same worker analyses a body with every knob at its ceiling.
    request.config = AnalysisConfig {
        search_probe_budget: Some(1_024),
        max_fixpoint_iterations: 4_096,
        path_signature_cap: 65_536,
        path_visit_cap: 20_000_000,
        ..AnalysisConfig::ep()
    };
    let (status, _, body) = post_analyze(&addr, &request);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
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
fn an_oversized_request_head_is_refused_and_the_worker_survives() {
    // Without the head limit a 1 MiB header line is buffered whole and
    // answered 200, and an endless one grows the process until an
    // allocation aborts it.
    use std::io::{Read, Write};
    let server = one_worker_server();
    let addr = server.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let head = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "x".repeat(1 << 20)
    );
    // The server stops reading at its limit and closes with input unread,
    // so the write or the read may end in a reset instead of the 400.
    let _ = stream.write_all(head.as_bytes());
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.is_empty() || (reply.starts_with("HTTP/1.1 400") && reply.contains("65536-byte")),
        "{reply:.200}"
    );
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("the worker survives");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn a_trickled_request_is_cut_off_and_the_worker_serves_others() {
    // One client sends a request line and then trickles an endless
    // header, one byte every 50 ms, so no single read outlasts the 300 ms
    // idle bound; without a per-request deadline it holds the only worker
    // for as long as it keeps sending.
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_capacity: 16,
        keep_alive_idle: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.local_addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let trickler = std::thread::spawn(move || {
        let started = Instant::now();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n")
            .expect("request line");
        let mut reply = Vec::new();
        for &byte in b"x-pad: ".iter().chain(std::iter::repeat(&b'x')) {
            if started.elapsed() > Duration::from_secs(6) || stream.write_all(&[byte]).is_err() {
                break;
            }
            // The read's timeout is the pause between bytes.
            let mut buf = [0u8; 512];
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&buf[..n]),
                Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock) => {}
                Err(e) if matches!(e.kind(), std::io::ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        (
            started.elapsed(),
            String::from_utf8_lossy(&reply).into_owned(),
        )
    });
    // Connections are served in accept order, so the worker holds the
    // trickler's before this one arrives.
    let asked = Instant::now();
    let (status, _, _) = roundtrip(&addr, "GET", "/healthz", b"").expect("roundtrip");
    let waited = asked.elapsed();
    let (closed_after, reply) = trickler.join().expect("trickler");
    assert_eq!(status, 200);
    assert!(
        waited < Duration::from_secs(2),
        "/healthz waited {waited:?}"
    );
    assert!(
        closed_after < Duration::from_secs(2),
        "the trickled connection stayed open for {closed_after:?}"
    );
    // The close may reset the connection before the 400 is read.
    assert!(
        reply.is_empty() || (reply.starts_with("HTTP/1.1 400") && reply.contains("300ms")),
        "{reply}"
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

/// The exit code of `child` if it exits within `limit`; otherwise the
/// child is killed and reaped, and the answer is `None`.
fn exit_code_within(mut child: std::process::Child, limit: std::time::Duration) -> Option<i32> {
    let deadline = std::time::Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("child status") {
            return status.code();
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn serve_binaries_refuse_undocumented_flags_with_exit_code_2() {
    use std::process::{Command, Stdio};
    let limit = std::time::Duration::from_secs(5);
    // A sweep flag on the server: a usage error, not a server that ignores it.
    let serve = Command::new(env!("CARGO_BIN_EXE_dpcp-serve"))
        .args(["--addr", "127.0.0.1:0", "--shard", "0/2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dpcp-serve");
    assert_eq!(
        exit_code_within(serve, limit),
        Some(2),
        "dpcp-serve --shard"
    );
    // The load generator keeps `--quick` and `--out` but refuses `--final`.
    let out = std::env::temp_dir().join(format!("loadgen-flags-{}.json", std::process::id()));
    let loadgen = Command::new(env!("CARGO_BIN_EXE_serve-loadgen"))
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .args(["--final", "d"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve-loadgen");
    assert_eq!(
        exit_code_within(loadgen, limit),
        Some(2),
        "serve-loadgen --final"
    );
    let _ = std::fs::remove_file(out);
}
