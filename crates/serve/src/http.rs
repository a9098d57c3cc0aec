//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`:
//! just enough of RFC 9112 for the admission-control wire protocol
//! (request line, headers, `Content-Length` bodies, optional
//! `Connection: keep-alive` reuse). Hand-rolled because the evaluation
//! container has no crates.io access — and the protocol surface is
//! three endpoints.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum accepted body size (16 MiB) — a submission larger than this
/// is rejected before allocation, not trusted.
pub const MAX_BODY_BYTES: u64 = 16 * 1024 * 1024;

/// Maximum size of a request head (64 KiB): the request line and every
/// header together. Reading stops at the limit, so a client cannot grow
/// the process by streaming one endless header line.
pub const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// One parsed request: method, path and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// `true` when the client sent `Connection: keep-alive` — the server
    /// may then serve further requests on the same connection. Absent or
    /// `close` keeps the historical one-request-per-connection behavior.
    pub keep_alive: bool,
}

/// A parse failure, reported to the client as `400 Bad Request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError(pub String);

impl core::fmt::Display for HttpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for HttpError {}

/// A connection's socket reader that gives each request `budget` to
/// arrive, counted from its first byte: once the budget is spent, every
/// further read fails with [`std::io::ErrorKind::TimedOut`]. It sits under
/// the connection's `BufReader`, so the deadline costs one clock reading
/// per socket read, and the socket's own read timeout bounds how long one
/// read may block past it.
#[derive(Debug)]
pub(crate) struct RequestDeadline<R> {
    inner: R,
    budget: Duration,
    deadline: Option<Instant>,
}

impl<R> RequestDeadline<R> {
    /// Wraps `inner`; the first request's budget starts at its first byte.
    pub(crate) fn new(inner: R, budget: Duration) -> Self {
        RequestDeadline {
            inner,
            budget,
            deadline: None,
        }
    }

    /// Starts the next request's budget: now when `pipelined` (its first
    /// bytes already sit in the buffer above), else at its first byte.
    pub(crate) fn next_request(&mut self, pipelined: bool) {
        self.deadline = if pipelined {
            Instant::now().checked_add(self.budget)
        } else {
            None
        };
    }
}

impl<R: Read> Read for RequestDeadline<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("request did not arrive within {:?}", self.budget),
            ));
        }
        let read = self.inner.read(buf)?;
        if read > 0 && self.deadline.is_none() {
            self.deadline = Instant::now().checked_add(self.budget);
        }
        Ok(read)
    }
}

/// Reads one request from a connection's buffered reader. Returns
/// `Ok(None)` when the client closed the connection (or an idle
/// keep-alive connection timed out, or the request's time to arrive ran
/// out) before sending a whole request line.
///
/// The reader must be shared across every request of a connection —
/// a fresh `BufReader` per request would drop bytes a pipelining
/// client already sent.
///
/// # Errors
///
/// Returns [`HttpError`] for malformed request lines, a head longer than
/// [`MAX_HEAD_BYTES`], unparseable or oversized `Content-Length`s, a body
/// shorter than promised, or a head or body cut off by a read error (the
/// request's time to arrive running out among them).
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    match read_head_line(reader, &mut line, &mut budget) {
        Ok(()) => {}
        // An idle timeout while waiting for the *next* request of a
        // kept-alive connection is a clean end, not a protocol error.
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(None)
        }
        Err(e) => return Err(HttpError(format!("read request line: {e}"))),
    }
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), p.to_string()),
        _ => return Err(HttpError(format!("malformed request line: {line:?}"))),
    };

    let mut content_length: u64 = 0;
    let mut keep_alive = false;
    loop {
        let mut header = String::new();
        read_head_line(reader, &mut header, &mut budget)
            .map_err(|e| HttpError(format!("read header: {e}")))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError(format!("bad content-length: {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = vec![0u8; content_length as usize];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError(format!("read body: {e}")))?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads one line of a request head into `line`, charging its bytes to
/// `budget`. A line that reaches the end of the budget without its
/// newline is an error naming [`MAX_HEAD_BYTES`].
fn read_head_line<R: Read>(
    reader: &mut BufReader<R>,
    line: &mut String,
    budget: &mut u64,
) -> std::io::Result<()> {
    let read = reader.by_ref().take(*budget).read_line(line)? as u64;
    if read == *budget && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
        ));
    }
    *budget -= read;
    Ok(())
}

/// Writes one response and flushes. `extra_headers` are `(name, value)`
/// pairs appended verbatim (e.g. the verdict-cache provenance header).
/// `keep_alive` selects the `connection:` header the client will honor:
/// `keep-alive` keeps the stream open for the next request, `close`
/// announces the historical one-request behavior.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: on a keep-alive connection a split
    // write interacts with Nagle + delayed ACK (the body sits unsent
    // until the peer acknowledges the head — tens of milliseconds per
    // response). Coalescing sidesteps it even without TCP_NODELAY.
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A client-side response: status code, lowercased `(name, value)`
/// headers, body bytes.
pub type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// A minimal blocking client for tests and the load generator: sends
/// one request on a fresh connection, returns `(status, headers, body)`.
///
/// # Errors
///
/// Returns [`HttpError`] on connection failure or a malformed response.
pub fn roundtrip(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Response, HttpError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| HttpError(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| HttpError(format!("send: {e}")))?;

    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Reads one response from a buffered reader: status line, headers, a
/// `Content-Length` body (to end of stream without one).
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, HttpError> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| HttpError(format!("read status: {e}")))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError(format!("malformed status line: {status_line:?}")))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| HttpError(format!("read header: {e}")))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| HttpError(format!("read body: {e}")))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| HttpError(format!("read body: {e}")))?;
        }
    }
    Ok((status, headers, body))
}

/// A blocking client that reuses one connection across requests via
/// `Connection: keep-alive`, reconnecting transparently whenever the
/// server closes it (idle timeout, per-connection request cap, or a
/// plain `connection: close` response). [`connects`](Self::connects)
/// counts the TCP connections actually opened, so a caller sending `n`
/// requests observes `n - connects()` reuses.
#[derive(Debug)]
pub struct KeepAliveClient {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl KeepAliveClient {
    /// A client for `addr`; no connection is opened until the first send.
    pub fn new(addr: &str) -> Self {
        KeepAliveClient {
            addr: addr.to_string(),
            reader: None,
            connects: 0,
        }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Sends one request, reusing the live connection when possible.
    ///
    /// A send or read failure on a *reused* connection is retried once
    /// on a fresh one — the server may have closed the idle stream
    /// between our requests (the classic keep-alive race).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] on connection failure or a malformed
    /// response.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, HttpError> {
        let reused = self.reader.is_some();
        match self.try_send(method, path, body) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.reader = None;
                if reused {
                    self.try_send(method, path, body)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn try_send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, HttpError> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| HttpError(format!("connect {}: {e}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            self.connects += 1;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        // Single write per request: a head/body split on a reused
        // connection stalls on Nagle + delayed ACK (see
        // [`write_response`]).
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head.as_bytes());
        message.extend_from_slice(body);
        let result = {
            let stream = reader.get_mut();
            stream.write_all(&message).and_then(|()| stream.flush())
        };
        result.map_err(|e| {
            self.reader = None;
            HttpError(format!("send: {e}"))
        })?;
        let reader = self.reader.as_mut().expect("still connected");
        let response = match read_response(reader) {
            Ok(response) => response,
            Err(e) => {
                self.reader = None;
                return Err(e);
            }
        };
        // Drop the stream when the server announced it will close it —
        // the next send reconnects instead of failing.
        let closing = response
            .1
            .iter()
            .any(|(name, value)| name == "connection" && value.eq_ignore_ascii_case("close"));
        if closing {
            self.reader = None;
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// `read_request` over a loopback connection that carries `raw`.
    fn read_raw(raw: String) -> Result<Option<Request>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // The reader may stop at its limit and close: a failed write
            // is expected then.
            let _ = stream.write_all(raw.as_bytes());
        });
        let (stream, _) = listener.accept().expect("accept");
        let result = read_request(&mut BufReader::new(stream));
        writer.join().expect("writer thread");
        result
    }

    /// A `GET` whose head, blank line included, is `len` bytes long.
    fn head_of(len: usize) -> String {
        let frame = "GET /healthz HTTP/1.1\r\nx-pad: \r\n\r\n".len();
        format!(
            "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "x".repeat(len - frame)
        )
    }

    /// Yields one chunk per read, each 20 ms after the previous read.
    struct Trickle<'a>(std::slice::Iter<'a, &'a [u8]>);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(Duration::from_millis(20));
            let Some(chunk) = self.0.next() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn a_request_slower_than_its_deadline_is_cut_off() {
        let read = |chunks: &[&[u8]]| {
            let budget = Duration::from_millis(50);
            read_request(&mut BufReader::new(RequestDeadline::new(
                Trickle(chunks.iter()),
                budget,
            )))
        };
        let line = b"GET /healthz HTTP/1.1\r\n";
        let whole = read(&[b"GET /healthz HTTP/1.1\r\n\r\n"]).expect("a prompt request parses");
        assert_eq!(whole.map(|r| r.path), Some("/healthz".to_string()));
        // A request line cut off ends the connection like an idle timeout.
        let bytes: Vec<&[u8]> = line.chunks(1).collect();
        assert_eq!(read(&bytes), Ok(None));
        // A cut-off head is an error naming the bound.
        let mut head: Vec<&[u8]> = vec![line];
        head.extend(b"x-pad: xxxxxxxxxxxxxxxxxxxxxxxx\r\n\r\n".chunks(1));
        let err = read(&head).expect_err("the head arrives too slowly");
        assert!(err.0.contains("within 50ms"), "{err}");
    }

    #[test]
    fn a_head_past_the_limit_is_an_error_naming_it() {
        let err = read_raw(head_of(1 << 20)).expect_err("a 1 MiB header line is refused");
        assert!(err.0.contains("65536-byte limit"), "{err}");
        let limit = MAX_HEAD_BYTES as usize;
        let at_limit = read_raw(head_of(limit)).expect("a head at the limit parses");
        assert_eq!(at_limit.map(|r| r.path), Some("/healthz".to_string()));
        let err = read_raw(head_of(limit + 1)).expect_err("one byte past the limit");
        assert!(err.0.contains("65536-byte limit"), "{err}");
    }
}
