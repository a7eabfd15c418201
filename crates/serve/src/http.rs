//! Minimal std-only HTTP/1.1: request parsing, response writing, and a
//! tiny blocking client for tests and the load generator.
//!
//! The server speaks exactly the subset the serving API needs: `GET` with
//! a path and query string, keep-alive and `Connection: close` semantics,
//! JSON bodies. Headers beyond the request line and `Connection` are read
//! (up to a hard cap) and ignored.
//!
//! Keep-alive support lives in two places here: [`Conn`] wraps a server
//! stream with a carry buffer (bytes read past one request head are
//! replayed into the next parse, so pipelined clients cannot lose
//! requests) and records the client's `Connection` preference per
//! request; [`HttpClient`] is the connection-reusing counterpart for
//! tests and the load generator, framing responses by `Content-Length`
//! instead of reading to EOF.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Hard cap on request head size; anything longer is malformed.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long the server waits for a slow client to finish sending its
/// request head before dropping the connection.
pub(crate) const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Granularity of the idle-wait loop: the server blocks in short reads of
/// at most this long so a shutdown request never waits out a whole idle
/// deadline before the worker notices the stop flag.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(100);

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method (only `GET` is routed).
    pub method: String,
    /// Path portion of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The client's keep-alive preference: HTTP/1.1 defaults to `true`
    /// unless `Connection: close`; HTTP/1.0 defaults to `false` unless
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Outcome of reading one request head from a kept-alive connection.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete, well-formed request head.
    Request(Request),
    /// The peer closed (EOF with no buffered bytes) — a clean end of the
    /// connection, not an error.
    Closed,
    /// No complete head arrived within the allowed wait.
    TimedOut,
    /// The head was malformed or oversized; the caller drops the stream.
    Malformed,
}

/// Server-side connection state: the stream plus the carry buffer holding
/// bytes read past the previous request head.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed by a parse.
    carry: Vec<u8>,
    /// The read timeout currently programmed on the socket; almost every
    /// poll step uses the same [`IDLE_POLL`] value, so caching it turns a
    /// per-request `setsockopt` into a no-op comparison.
    read_timeout: Option<Duration>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Self {
        Conn { stream, carry: Vec::new(), read_timeout: None }
    }

    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Reads and parses one request head, waiting up to `wait` for it to
    /// complete. The wait is implemented as a sequence of short
    /// ([`IDLE_POLL`]) timeout reads punctuated by `keep_waiting` checks,
    /// so a shutting-down server abandons an idle connection promptly.
    pub fn read_request(
        &mut self,
        wait: Duration,
        mut keep_waiting: impl FnMut() -> bool,
    ) -> io::Result<ReadOutcome> {
        let deadline = Instant::now() + wait;
        let mut buf = [0u8; 512];
        loop {
            if let Some(split) = head_end(&self.carry) {
                if split > MAX_HEAD_BYTES {
                    return Ok(ReadOutcome::Malformed);
                }
                // Parse straight from the carry buffer; only the parsed
                // fields are copied out, not the whole head.
                let parsed = std::str::from_utf8(&self.carry[..split]).ok().and_then(parse_head);
                self.carry.drain(..split);
                let Some(req) = parsed else {
                    return Ok(ReadOutcome::Malformed);
                };
                return Ok(ReadOutcome::Request(req));
            }
            if self.carry.len() > MAX_HEAD_BYTES {
                return Ok(ReadOutcome::Malformed);
            }
            let now = Instant::now();
            if now >= deadline || !keep_waiting() {
                return Ok(ReadOutcome::TimedOut);
            }
            let step = IDLE_POLL.min(deadline - now).max(Duration::from_millis(1));
            if self.read_timeout != Some(step) {
                self.stream.set_read_timeout(Some(step))?;
                self.read_timeout = Some(step);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Ok(if self.carry.is_empty() {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Malformed
                    })
                }
                Ok(n) => self.carry.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Byte offset one past the `\r\n\r\n` head terminator, if present.
fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses a full request head: the request line plus a scan of the header
/// block for the `Connection` preference.
fn parse_head(head: &str) -> Option<Request> {
    let mut lines = head.lines();
    let line = lines.next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let http11 = version != "HTTP/1.0";
    let mut keep_alive = http11;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else { continue };
        if name.trim().eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect();
    Some(Request { method, path: path.to_owned(), query, keep_alive })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes, emitting the `Connection`
/// header for the negotiated per-response decision: `keep-alive` when the
/// server will read another request from this stream, `close` when the
/// caller drops it afterwards. `scratch` is a reused head buffer so the
/// per-request loop allocates nothing in steady state.
pub(crate) fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    scratch: &mut String,
) -> io::Result<()> {
    use std::fmt::Write as _;
    scratch.clear();
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        scratch,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        reason(status),
        body.len()
    );
    // One write for head + body: two small writes on a kept-alive socket
    // would interact with Nagle and the peer's delayed ACK, parking every
    // response for tens of milliseconds.
    scratch.push_str(body);
    stream.write_all(scratch.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot GET against a local server: sends the request with
/// `Connection: close`, reads to EOF, returns `(status, body)`. This is
/// the simplest client used by the integration tests; keep-alive callers
/// use [`HttpClient`].
///
/// # Errors
///
/// Propagates connection and read errors; a response without a valid
/// status line or body separator is `InvalidData`.
pub fn http_get(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request =
        format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    let body = text.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_owned();
    Ok((status, body))
}

/// A connection-reusing HTTP client: issues `GET`s over one kept-alive
/// TCP connection, framing responses by `Content-Length` (never read to
/// EOF), and transparently reconnects when the server closed the
/// connection (idle deadline, per-connection request cap, explicit
/// `Connection: close`, or mid-stream shed).
///
/// The number of reconnects is observable via
/// [`HttpClient::reconnects`], which the keep-alive tests and the load
/// generator use to prove connection reuse actually happened.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response, replayed into the next.
    carry: Vec<u8>,
    /// Connections opened beyond the first.
    reconnects: u64,
    /// Connections opened in total (first included).
    connects: u64,
}

impl HttpClient {
    /// A client for one server address. No connection is opened until the
    /// first [`HttpClient::get`].
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient { addr, stream: None, carry: Vec::new(), reconnects: 0, connects: 0 }
    }

    /// Connections opened beyond the first (0 while a single connection
    /// has served every request so far).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Issues one GET, reusing the live connection when possible.
    ///
    /// A send or read failure on a *reused* connection is retried once on
    /// a fresh connection: the server may have legitimately closed the
    /// idle stream between requests.
    ///
    /// # Errors
    ///
    /// Propagates connection errors and malformed responses
    /// (`InvalidData`).
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_get(target) {
            Ok(resp) => Ok(resp),
            Err(_) if reused => {
                // The kept-alive stream died (server-side close raced our
                // send). One retry on a fresh connection.
                self.stream = None;
                self.carry.clear();
                self.try_get(target)
            }
            Err(e) => Err(e),
        }
    }

    fn try_get(&mut self, target: &str) -> io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            if self.connects > 0 {
                self.reconnects += 1;
            }
            self.connects += 1;
            self.carry.clear();
            self.stream = Some(stream);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no stream"));
        };
        let request = format!("GET {target} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        let sent = stream.write_all(request.as_bytes()).and_then(|()| stream.flush());
        if let Err(e) = sent {
            self.stream = None;
            return Err(e);
        }
        match read_response(stream, &mut self.carry) {
            Ok((status, body, keep)) => {
                if !keep {
                    self.stream = None;
                    self.carry.clear();
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

/// Reads one `Content-Length`-framed response from a kept-alive stream.
/// Returns `(status, body, server_keeps_alive)`; bytes beyond the framed
/// body stay in `carry` for the next response.
fn read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> io::Result<(u16, String, bool)> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(split) = head_end(carry) {
            break split;
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(bad());
        }
        match stream.read(&mut buf)? {
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response")),
            n => carry.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8_lossy(&carry[..split]).into_owned();
    carry.drain(..split);
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    let mut content_length: Option<usize> = None;
    let mut keep = true;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else { continue };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok();
        } else if name.eq_ignore_ascii_case("connection")
            && value.trim().eq_ignore_ascii_case("close")
        {
            keep = false;
        }
    }
    let len = content_length.ok_or_else(bad)?;
    while carry.len() < len {
        match stream.read(&mut buf)? {
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body")),
            n => carry.extend_from_slice(&buf[..n]),
        }
    }
    let body = String::from_utf8_lossy(&carry[..len]).into_owned();
    carry.drain(..len);
    Ok((status, body, keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_path_and_query() {
        let req = parse_head("GET /recommend/vbpr/3?n=10&x=&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/recommend/vbpr/3");
        assert_eq!(req.param("n"), Some("10"));
        assert_eq!(req.param("x"), Some(""));
        assert_eq!(req.param("flag"), Some(""));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn rejects_garbage_request_lines() {
        assert!(parse_head("\r\n\r\n").is_none());
        assert!(parse_head("GET /x\r\n\r\n").is_none());
        assert!(parse_head("GET /x SMTP/1.0\r\n\r\n").is_none());
    }

    #[test]
    fn connection_header_negotiation_follows_http_version_defaults() {
        let v11 = parse_head("GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(v11.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let v11_close = parse_head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!v11_close.keep_alive);
        let v10 = parse_head("GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert!(!v10.keep_alive, "HTTP/1.0 defaults to close");
        let v10_keep = parse_head("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(v10_keep.keep_alive, "header names and values are case-insensitive");
    }

    #[test]
    fn head_end_finds_the_terminator() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nleftover"), Some(18));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
