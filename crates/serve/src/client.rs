//! A tiny blocking HTTP client for the daemon — used by `turl client`,
//! the CI smoke script, and the in-process integration tests. The
//! [`Client`] struct keeps one connection alive across requests and
//! tracks its reuse rate; the one-shot [`post`]/[`get`] helpers are a
//! fresh `Client` per request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::MAX_BODY_BYTES;

/// POST a JSON body on a fresh connection.
pub fn post(addr: &str, path: &str, json: &str) -> Result<(u16, String), String> {
    Client::new(addr).post(path, json)
}

/// GET a path on a fresh connection.
pub fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    Client::new(addr).get(path)
}

/// A keep-alive HTTP client: holds one connection to the daemon open
/// across requests, reconnecting transparently when the server (or an
/// idle timeout) closed it. Tracks how many requests actually reused a
/// live connection so `turl client` can report the reuse rate.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    requests: u64,
    connects: u64,
}

impl Client {
    /// Client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: &str) -> Self {
        Client { addr: addr.to_string(), stream: None, requests: 0, connects: 0 }
    }

    /// Requests sent so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Fraction of requests that reused an existing connection
    /// (`0.0` when nothing was sent yet).
    pub fn reuse_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.requests - self.connects.min(self.requests)) as f64 / self.requests as f64
        }
    }

    /// POST a JSON body, reusing the live connection when possible.
    pub fn post(&mut self, path: &str, json: &str) -> Result<(u16, String), String> {
        self.request("POST", path, Some(json))
    }

    /// GET a path, reusing the live connection when possible.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, None)
    }

    /// Send one request. A stale kept-alive connection (closed by the
    /// server since the last request) is retried once on a fresh one.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        self.requests += 1;
        if self.stream.is_some() {
            match self.try_request(method, path, body) {
                Ok(resp) => return Ok(resp),
                Err(_) => self.stream = None, // stale; reconnect below
            }
        }
        self.try_request(method, path, body)
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let addr = self.addr.clone();
        if self.stream.is_none() {
            let stream =
                TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
            self.connects += 1;
            self.stream = Some(stream);
        }
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => return Err(format!("no connection to {addr}")),
        };
        let payload = body.unwrap_or("");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        let result = write_and_read(stream, &req, &addr);
        match result {
            Ok((status, server_close, body)) => {
                if server_close {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Write a request and read one `Content-Length`-framed response off a
/// kept-alive stream. Returns `(status, server_wants_close, body)`.
fn write_and_read(
    stream: &mut TcpStream,
    req: &str,
    addr: &str,
) -> Result<(u16, bool, String), String> {
    stream.write_all(req.as_bytes()).map_err(|e| format!("write to {addr} failed: {e}"))?;

    // Read headers.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read from {addr} failed: {e}"))?;
        if n == 0 {
            return Err(format!("connection to {addr} closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}: `{status_line}`"))?;
    let mut content_length = 0usize;
    let mut server_close = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length from {addr}: `{value}`"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                server_close = true;
            }
        }
    }

    // Read the body up to Content-Length into a buffer sized once (up to
    // a cap: the length is the server's word), so a kept body is exactly
    // its length, and hand the buffer on as the string.
    let early = &buf[header_end + 4..];
    let mut body = Vec::with_capacity(content_length.min(MAX_BODY_BYTES));
    body.extend_from_slice(&early[..early.len().min(content_length)]);
    let rest = (content_length - body.len()) as u64;
    (stream.take(rest).read_to_end(&mut body))
        .map_err(|e| format!("read from {addr} failed: {e}"))?;
    if body.len() < content_length {
        return Err(format!("connection to {addr} closed mid-body"));
    }
    let body = String::from_utf8(body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok((status, server_close, body))
}
