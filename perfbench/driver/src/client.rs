//! A minimal blocking HTTP/1.1 keep-alive client.
//!
//! The benchmark carries its own client rather than the server crate's,
//! so a change to the code under test never changes the instrument.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The server's `x-verdict-cache` provenance header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    Hit,
    Miss,
    Absent,
}

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub cache: CacheTag,
    pub body: Vec<u8>,
}

/// One reusable connection, reopened whenever the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// Sends one request. A failure on a reused connection is retried
    /// once on a fresh one (the server may have closed it between
    /// requests).
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        let reused = self.conn.is_some();
        match self.try_send(method, path, body) {
            Ok(reply) => Ok(reply),
            Err(_) if reused => {
                self.conn = None;
                self.try_send(method, path, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn try_send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set_nodelay: {e}"))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        conn.get_mut()
            .write_all(&message)
            .map_err(|e| format!("send: {e}"))?;
        let (reply, closing) = read_reply(conn)?;
        if closing {
            self.conn = None;
        }
        Ok(reply)
    }
}

/// Reads one response; the flag says the server announced `connection:
/// close`.
fn read_reply(conn: &mut BufReader<TcpStream>) -> Result<(Reply, bool), String> {
    let mut line = String::new();
    conn.read_line(&mut line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut length = None;
    let mut cache = CacheTag::Absent;
    let mut closing = false;
    loop {
        line.clear();
        conn.read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<usize>().ok(),
            "connection" => closing = value.eq_ignore_ascii_case("close"),
            "x-verdict-cache" => {
                cache = match value {
                    "HIT" => CacheTag::Hit,
                    "MISS" => CacheTag::Miss,
                    _ => CacheTag::Absent,
                }
            }
            _ => {}
        }
    }
    let length = length.ok_or("response without content-length")?;
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok((
        Reply {
            status,
            cache,
            body,
        },
        closing,
    ))
}
