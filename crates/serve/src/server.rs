//! The admission-control server: a listener thread feeding a
//! `crossbeam` channel of accepted connections, drained by a pool of
//! workers that each own one [`AnalysisSession`] (the scratch-reuse
//! contract, per worker) and share the protocol registry, the
//! [`VerdictCache`] and the [`Metrics`] registry.
//!
//! # Endpoints
//!
//! - `POST /analyze` — body is an [`AnalysisRequest`] in JSON; the
//!   response is the [`AnalysisVerdict`](dpcp_core::AnalysisVerdict)
//!   in JSON with an
//!   `x-verdict-cache: HIT|MISS` header. Malformed JSON, and a model
//!   that breaks a constructor invariant (a cyclic DAG, a successor out
//!   of range, a request on an undeclared resource, fewer than 2
//!   processors), is `400` naming the problem; an unknown protocol name,
//!   an unsupported `schema` version (the response lists the supported
//!   ones), an analysis knob above its ceiling
//!   ([`KNOB_CEILINGS`](dpcp_core::KNOB_CEILINGS); the response names the
//!   knob and the ceiling) or a reader-writer task set routed to a
//!   write-only protocol is `422`. A dispatch that panics is `500` naming
//!   the panic; the worker replaces its session and keeps serving.
//! - `GET /metrics` — cache counters, per-endpoint p50/p99 latency,
//!   verdicts/sec and the count of panicked dispatches as JSON.
//! - `GET /healthz` — liveness.
//!
//! Clients sending `Connection: keep-alive` get their connection reused
//! for further requests, bounded by
//! [`ServeConfig::keep_alive_max_requests`] per connection and the
//! [`ServeConfig::keep_alive_idle`] silence window; everyone else keeps
//! the one-request-per-connection behavior. The same window bounds how
//! long any one request may take to arrive, so a slow client cannot
//! hold a worker.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver};
use dpcp_core::{AnalysisConfig, AnalysisRequest, AnalysisSession, ProtocolRegistry};
use dpcp_experiments::campaign::panic_message;
use parking_lot::Mutex;

use crate::cache::VerdictCache;
use crate::http::{read_request, write_response, RequestDeadline};
use crate::metrics::Metrics;

/// Server tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (= resident `AnalysisSession`s), minimum 1.
    pub workers: usize,
    /// Verdict-cache capacity in entries.
    pub cache_capacity: usize,
    /// Requests served per kept-alive connection before the server
    /// closes it (fairness cap: one chatty client cannot pin a worker
    /// forever). Clients that never send `Connection: keep-alive` are
    /// unaffected — their connections close after one response.
    pub keep_alive_max_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it, and how long one request may take to
    /// arrive, counted from its first byte. A request line cut off at that
    /// bound closes the connection like an idle timeout; a cut-off head
    /// or body is a `400` naming the bound. The bound is checked on every
    /// socket read and each read blocks at most this long, so a request is
    /// cut off at most one idle period past it.
    pub keep_alive_idle: std::time::Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7115".to_string(),
            workers: 4,
            cache_capacity: 4096,
            keep_alive_max_requests: 64,
            keep_alive_idle: std::time::Duration::from_secs(5),
        }
    }
}

/// A running server; dropping the handle leaves it running, call
/// [`Server::shutdown`] for an orderly stop.
#[derive(Debug)]
pub struct Server {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Shared cache, exposed for in-process consumers (the bench
    /// harness reads final counters without an HTTP round trip).
    pub cache: Arc<VerdictCache>,
    /// Shared metrics registry.
    pub metrics: Arc<Metrics>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn spawn(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cache = Arc::new(VerdictCache::new(config.cache_capacity));
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(dpcp_baselines::standard_registry());

        let limits = KeepAliveLimits {
            max_requests: config.keep_alive_max_requests.max(1),
            idle: config.keep_alive_idle,
        };
        let (tx, rx) = unbounded::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || worker_loop(&rx, &registry, &cache, &metrics, limits))
            })
            .collect();

        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // Dropping `tx` disconnects the channel; workers drain the
            // backlog and exit.
        });

        Ok(Server {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
            cache,
            metrics,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains in-flight connections and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        if let Ok(mut stream) = TcpStream::connect(self.local_addr) {
            let _ = stream.write_all(b"");
        }
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The per-connection keep-alive bounds, copied out of [`ServeConfig`]
/// for the worker threads.
#[derive(Debug, Clone, Copy)]
struct KeepAliveLimits {
    max_requests: usize,
    idle: std::time::Duration,
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    registry: &ProtocolRegistry,
    cache: &VerdictCache,
    metrics: &Metrics,
    limits: KeepAliveLimits,
) {
    // One session per worker: config, signature cache and scratch are
    // reused across every request this worker serves.
    let mut session = AnalysisSession::new(AnalysisConfig::ep());
    loop {
        // Take the next connection; holding the lock only for the
        // dequeue, never for request handling.
        let next = { rx.lock().recv() };
        let Ok(mut stream) = next else { break };
        serve_connection(&mut stream, registry, cache, metrics, &mut session, limits);
    }
}

fn json_error(message: &str) -> String {
    let value = serde::Value::Object(vec![(
        "error".to_string(),
        serde::Value::String(message.to_string()),
    )]);
    serde_json::to_string(&value).expect("error bodies always serialize")
}

/// Serves every request of one connection. Without `Connection:
/// keep-alive` from the client that is exactly one request (the
/// historical behavior); with it, up to `limits.max_requests` requests
/// are served off one stream, closing after `limits.idle` of silence.
fn serve_connection(
    stream: &mut TcpStream,
    registry: &ProtocolRegistry,
    cache: &VerdictCache,
    metrics: &Metrics,
    session: &mut AnalysisSession,
    limits: KeepAliveLimits,
) {
    // Small request/response exchanges on a persistent connection are
    // exactly the Nagle + delayed-ACK pathology; disable Nagle
    // (best-effort — responses are single writes regardless).
    let _ = stream.set_nodelay(true);
    // The idle timeout bounds each blocking read, and the request
    // deadline the whole request; a connection that cannot be configured
    // is served once and closed.
    let timed = stream.set_read_timeout(Some(limits.idle)).is_ok();
    let Ok(cloned) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(RequestDeadline::new(cloned, limits.idle));
    let max_requests = if timed { limits.max_requests } else { 1 };
    for served in 0..max_requests {
        let pipelined = !reader.buffer().is_empty();
        reader.get_mut().next_request(pipelined);
        let read_started = Instant::now();
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            // Closed before a request line (e.g. the shutdown poke) or
            // an idle keep-alive connection timing out.
            Ok(None) => return,
            Err(e) => {
                let body = json_error(&e.to_string());
                let _ = write_response(stream, 400, "Bad Request", &[], body.as_bytes(), false);
                metrics
                    .analyze
                    .record(read_started.elapsed().as_micros() as u64, true);
                return;
            }
        };
        // Honor the client's keep-alive ask up to the per-connection cap;
        // the response's `connection:` header tells the client which way
        // it went, so a capped connection ends cleanly on both sides.
        let keep_alive = request.keep_alive && served + 1 < max_requests;
        let started = Instant::now();
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/analyze") => {
                let reply = isolated(session, metrics, |session| {
                    analyze(&request.body, registry, cache, session)
                });
                if reply.status == 200 {
                    metrics.count_verdict();
                }
                let cache_header = reply.cache.map(|tag| ("x-verdict-cache", tag));
                let _ = write_response(
                    stream,
                    reply.status,
                    reply.reason,
                    cache_header.as_slice(),
                    reply.body.as_bytes(),
                    keep_alive,
                );
                metrics
                    .analyze
                    .record(started.elapsed().as_micros() as u64, reply.status != 200);
            }
            ("GET", "/metrics") => {
                let body = serde_json::to_string_pretty(&metrics.snapshot(cache.stats()))
                    .expect("metrics snapshots always serialize");
                let _ = write_response(stream, 200, "OK", &[], body.as_bytes(), keep_alive);
                metrics
                    .metrics
                    .record(started.elapsed().as_micros() as u64, false);
            }
            ("GET", "/healthz") => {
                let _ = write_response(stream, 200, "OK", &[], br#"{"status":"ok"}"#, keep_alive);
                metrics
                    .healthz
                    .record(started.elapsed().as_micros() as u64, false);
            }
            (_, path) => {
                let body = json_error(&format!("no such endpoint: {path}"));
                let _ = write_response(stream, 404, "Not Found", &[], body.as_bytes(), keep_alive);
                metrics
                    .analyze
                    .record(started.elapsed().as_micros() as u64, true);
            }
        }
        if !keep_alive {
            return;
        }
    }
}

/// One `/analyze` answer. It is computed in full before anything is
/// written, so a dispatch that panics midway still gets a response.
struct Reply {
    status: u16,
    reason: &'static str,
    /// The `x-verdict-cache` header (`HIT`/`MISS`), on verdicts only.
    cache: Option<&'static str>,
    body: Arc<str>,
}

impl Reply {
    fn verdict(cache: &'static str, body: Arc<str>) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            cache: Some(cache),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Reply {
        Reply {
            status,
            reason,
            cache: None,
            body: Arc::from(json_error(message).as_str()),
        }
    }
}

/// Runs one `/analyze` dispatch with panics isolated. A panic anywhere in
/// parse, key or analysis answers `500` with the panic's message, counts
/// in `/metrics` and replaces the worker's session (a panic may have left
/// its scratch half-updated), so the worker keeps serving.
fn isolated(
    session: &mut AnalysisSession,
    metrics: &Metrics,
    dispatch: impl FnOnce(&mut AnalysisSession) -> Reply,
) -> Reply {
    match std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(session))) {
        Ok(reply) => reply,
        Err(payload) => {
            metrics.count_panic();
            *session = AnalysisSession::new(AnalysisConfig::ep());
            Reply::error(
                500,
                "Internal Server Error",
                &format!("analysis panicked: {}", panic_message(&*payload)),
            )
        }
    }
}

/// Answers one `/analyze` body.
fn analyze(
    body: &[u8],
    registry: &ProtocolRegistry,
    cache: &VerdictCache,
    session: &mut AnalysisSession,
) -> Reply {
    // Parse-free fast path: a byte-identical duplicate of a resident
    // submission is served before any JSON work.
    let raw = crate::cache::raw_key(body);
    if let Some(body) = cache.get_raw(raw) {
        return Reply::verdict("HIT", body);
    }

    let Ok(text) = std::str::from_utf8(body) else {
        return Reply::error(400, "Bad Request", "request body is not UTF-8");
    };
    // Model members are rebuilt through their constructors, so a body
    // that breaks an invariant (a cyclic DAG, a successor out of range,
    // a request on an undeclared resource) is refused here, by name.
    let analysis: AnalysisRequest = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => {
            let message = format!("malformed AnalysisRequest: {e}");
            return Reply::error(400, "Bad Request", &message);
        }
    };

    // Schema and knob gates before any structural work: an unknown wire
    // version or a knob above its ceiling must never be hashed into the
    // cache or dispatched.
    if let Err(e) = analysis
        .check_schema()
        .and_then(|_| analysis.check_limits())
    {
        return Reply::error(422, "Unprocessable Entity", &e);
    }

    // The one structural key of this request: the cache probe and the
    // verdict's provenance stamp share it.
    let key = analysis.structural_key();
    if let Some(body) = cache.get(key, raw) {
        return Reply::verdict("HIT", body);
    }

    match registry.respond_keyed(session, &analysis, key) {
        Ok(verdict) => {
            let body: Arc<str> = Arc::from(
                serde_json::to_string(&verdict)
                    .expect("verdicts always serialize")
                    .as_str(),
            );
            // Under a key race the first writer wins, so concurrent
            // callers still serve identical bytes.
            Reply::verdict("MISS", cache.insert(key, raw, body))
        }
        Err(e) => Reply::error(422, "Unprocessable Entity", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panics(metrics: &Metrics) -> u64 {
        metrics.snapshot(VerdictCache::new(1).stats()).panics
    }

    #[test]
    fn isolated_answers_a_panic_with_a_500_and_a_fresh_session() {
        let metrics = Metrics::default();
        let mut session = AnalysisSession::new(AnalysisConfig::en());
        let reply = isolated(&mut session, &metrics, |_| panic!("boom"));
        assert_eq!((reply.status, reply.cache), (500, None));
        assert!(
            reply.body.contains("analysis panicked: boom"),
            "{}",
            reply.body
        );
        assert_eq!(panics(&metrics), 1);
        assert_eq!(session.config(), &AnalysisConfig::ep(), "session replaced");

        // Formatted payloads are reported too.
        let reply = isolated(&mut session, &metrics, |_| {
            panic!("index {} out of range", 7)
        });
        assert!(
            reply.body.contains("index 7 out of range"),
            "{}",
            reply.body
        );
        assert_eq!(panics(&metrics), 2);

        // A dispatch that returns passes through, counting nothing.
        let reply = isolated(&mut session, &metrics, |_| {
            Reply::verdict("HIT", Arc::from("{}"))
        });
        assert_eq!((reply.status, reply.cache), (200, Some("HIT")));
        assert_eq!(panics(&metrics), 2);
    }
}
