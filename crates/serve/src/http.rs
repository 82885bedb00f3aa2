//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough
//! to speak JSON over curl: request-line + headers + `Content-Length`
//! body in, fixed-header response out. HTTP/1.1 connections are
//! keep-alive by default (`Connection: close` — or HTTP/1.0 without
//! `keep-alive` — opts out); no chunked encoding, no TLS. The parser
//! also captures `x-request-id` so a caller-supplied trace id flows
//! through the serving telemetry.

use crate::protocol::{ServeError, MAX_BODY_BYTES};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    /// HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not interpreted).
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless the client sent `Connection: close`).
    pub keep_alive: bool,
    /// Caller-supplied `x-request-id` header, if any.
    pub request_id: Option<String>,
}

/// How long a connection may sit idle mid-request before it is dropped.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a kept-alive connection may idle between requests before
/// the server closes it. Short on purpose: an idle keep-alive
/// connection parks an acceptor thread, and shutdown waits at most
/// this long for parked acceptors to notice the stop flag.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(2);

/// Read and parse one request from the stream. `pending` holds the
/// connection's bytes read past the previous request (a pipelining
/// client's next request); parsing starts from them, and on return they
/// are whatever followed this request. `Ok(None)` means the peer closed
/// (or idled past `idle`) before sending any bytes — the clean end of a
/// keep-alive connection, not an error. Every malformed input is a typed
/// [`ServeError::BadRequest`] the caller turns into a 400.
pub fn read_request(
    stream: &mut TcpStream,
    idle: Duration,
    pending: &mut Vec<u8>,
) -> Result<Option<Request>, ServeError> {
    // Buffered bytes are a request that has started: hold it to the full
    // I/O timeout, as below.
    let _ = stream.set_read_timeout(Some(if pending.is_empty() { idle } else { IO_TIMEOUT }));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));

    // Read until the blank line ending the header block.
    let mut buf = std::mem::take(pending);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(i) = find_header_end(&buf) {
            break i;
        }
        if buf.len() > 64 * 1024 {
            return Err(ServeError::BadRequest("header block exceeds 64 KiB".into()));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // Idle timeout before the first byte: a quiet keep-alive
            // peer, not a protocol error.
            Err(e)
                if buf.is_empty()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Ok(None);
            }
            Err(e) => return Err(ServeError::BadRequest(format!("read failed: {e}"))),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None); // clean close between requests
            }
            return Err(ServeError::BadRequest("connection closed mid-header".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
        // Once a request has started, hold it to the full I/O timeout.
        if buf.len() == n {
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line =
        lines.next().ok_or_else(|| ServeError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method =
        parts.next().ok_or_else(|| ServeError::BadRequest("missing method".into()))?.to_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("missing request path".into()))?
        .to_string();
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (or anything else) to
    // close. The Connection header overrides either way.
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = version.eq_ignore_ascii_case("HTTP/1.1");

    let mut content_length = 0usize;
    let mut request_id = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| ServeError::BadRequest("bad Content-Length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("x-request-id") && !value.is_empty() {
                // Bound and sanitize: the id is echoed into responses
                // and trace JSONL.
                let id: String = value
                    .chars()
                    .take(64)
                    .filter(|c| c.is_ascii_graphic() && *c != '"' && *c != '\\')
                    .collect();
                if !id.is_empty() {
                    request_id = Some(id);
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::BadRequest(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    // The body buffer is sized once, from the checked Content-Length, and
    // the rest read straight into it; keep-alive framing: anything read
    // past Content-Length with the headers belongs to the next request.
    let (early, next) =
        buf[header_end + 4..].split_at(content_length.min(buf.len() - header_end - 4));
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(early);
    *pending = next.to_vec();
    let rest = (content_length - body.len()) as u64;
    stream
        .take(rest)
        .read_to_end(&mut body)
        .map_err(|e| ServeError::BadRequest(format!("read failed: {e}")))?;
    if body.len() < content_length {
        return Err(ServeError::BadRequest("connection closed mid-body".into()));
    }
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body is not valid UTF-8".into()))?;
    Ok(Some(Request { method, path, body, keep_alive, request_id }))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Response metadata accompanying [`write_response`].
#[derive(Debug)]
pub struct ResponseMeta<'a> {
    /// `Content-Type` header value.
    pub content_type: &'a str,
    /// Whether to close the connection after this response.
    pub close: bool,
    /// Trace id echoed back as `x-request-id`.
    pub request_id: Option<&'a str>,
}

impl Default for ResponseMeta<'_> {
    fn default() -> Self {
        ResponseMeta { content_type: "application/json", close: true, request_id: None }
    }
}

/// Write a response; the connection header follows `meta.close`.
pub fn write_response(stream: &mut TcpStream, status: u16, meta: &ResponseMeta<'_>, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if meta.close { "close" } else { "keep-alive" };
    let rid = match meta.request_id {
        Some(id) => format!("x-request-id: {id}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{rid}Connection: {connection}\r\n\r\n",
        meta.content_type,
        body.len()
    );
    // A peer that hung up early is not an error worth propagating.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }
}
