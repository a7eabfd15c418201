//! The HTTP front door: acceptor, bounded queue, worker pool.
//!
//! One acceptor thread pulls connections off the listener and `try_push`es
//! them onto a bounded queue — the load-shed point: a full queue answers
//! `429` inline and drops the connection, so overload degrades into fast
//! typed rejections instead of unbounded memory growth. A fixed pool of
//! worker threads drains the queue, parses requests, and calls into the
//! supervisor with the configured per-request deadline.
//!
//! Workers speak HTTP/1.1 keep-alive: each connection runs a request loop
//! with reused parse/response buffers until the client asks for `close`,
//! the idle deadline passes with no new request, the per-connection
//! request cap is reached, or the server starts shutting down. Requests
//! after a connection's first bypass the acceptor's admission queue, so
//! the worker re-applies load shedding per request: when the queue is full
//! the follow-on request is answered `429` with `Connection: close`
//! (overload policy holds per request, not just per connection).
//!
//! Routes:
//!
//! | Route | Response |
//! |---|---|
//! | `GET /recommend/<slot>/<user>?n=K` | [`TopNResponse`] JSON |
//! | `GET /sweep/<slot>?n=K&shard=S` | [`SweepResponse`](crate::SweepResponse) JSON |
//! | `GET /stats` | [`LedgerSnapshot`](crate::LedgerSnapshot) JSON |
//! | `GET /healthz` | `{"ok":true}` |
//!
//! The sweep route is the shard-streamed full-catalog evaluation (top-`n`
//! for every user); `shard` bounds the actor's peak score memory and
//! defaults to the recsys [`ShardPlan`](taamr_recsys::ShardPlan) height.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Serialize;

use crate::error::ServeError;
use crate::http::{respond_with, Conn, ReadOutcome, Request, CLIENT_READ_TIMEOUT};
use crate::ledger::Accountant;
use crate::queue::BoundedQueue;
use crate::supervisor::Supervisor;
use crate::ServeModel;

/// HTTP server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests read
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded request-queue capacity; connection number
    /// `workers + capacity + 1` is shed with `429`.
    pub queue_capacity: usize,
    /// Per-request deadline handed to the supervisor.
    pub deadline: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the worker closes it and returns to the pool.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server forces a
    /// close (`Connection: close` on the final response), bounding how
    /// long any single client can monopolise a worker. Minimum 1.
    pub max_requests_per_connection: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            deadline: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
        }
    }
}

/// A running HTTP server. [`Server::shutdown`] stops it explicitly;
/// dropping it without shutting down stops and joins every thread too
/// (the `Drop` impl runs the same stop sequence), so a `Server` can never
/// leak its acceptor or workers.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and starts serving
    /// `supervisor`'s slots.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the bind address is unusable.
    pub fn start<M: ServeModel>(
        config: ServerConfig,
        supervisor: Arc<Supervisor<M>>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::BadRequest {
            reason: format!("cannot bind {}: {e}", config.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| ServeError::BadRequest {
            reason: format!("cannot resolve bound address: {e}"),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let accountant = supervisor.accountant();

        let acceptor = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Responses are latency-sensitive single writes; never
                    // let Nagle hold one back on a kept-alive connection.
                    let _ = stream.set_nodelay(true);
                    if let Err(shed) = queue.try_push(stream) {
                        // The load-shed point: full queue, typed 429.
                        // Consume the request head first — closing with
                        // unread bytes in the socket would RST the client
                        // before it reads the response.
                        accountant.shed();
                        let mut shed = Conn::new(shed);
                        let _ = shed.read_request(CLIENT_READ_TIMEOUT, || true);
                        let body = error_body(&ServeError::Overloaded {
                            queue_capacity: queue.capacity(),
                        });
                        let _ = respond_with(shed.stream(), 429, &body, false, &mut String::new());
                    }
                }
            })
        };

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let supervisor = Arc::clone(&supervisor);
                let stop = Arc::clone(&stop);
                let accountant = supervisor.accountant();
                let knobs = ConnKnobs {
                    deadline: config.deadline,
                    idle_timeout: config.idle_timeout,
                    max_requests: config.max_requests_per_connection.max(1),
                };
                std::thread::spawn(move || {
                    // Parse/response buffers live for the worker's whole
                    // life and are reused across every connection it
                    // serves.
                    let mut scratch = String::new();
                    while let Some(stream) = queue.pop() {
                        let _ = handle_connection(
                            stream,
                            &supervisor,
                            &knobs,
                            &stop,
                            &queue,
                            &accountant,
                            &mut scratch,
                        );
                    }
                })
            })
            .collect();

        Ok(Server { addr, stop, queue, acceptor: Some(acceptor), workers })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Idempotent stop sequence shared by [`Server::shutdown`] and `Drop`.
    /// Workers parked on idle kept-alive connections notice the stop flag
    /// within one idle-poll interval, so the join completes promptly.
    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection so it sees `stop`.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Per-connection policy knobs threaded into the worker loop.
struct ConnKnobs {
    deadline: Duration,
    idle_timeout: Duration,
    max_requests: usize,
}

/// The JSON body of a typed error: `{"error": <kind>, "detail": <message>}`.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
    detail: String,
}

fn error_body(err: &ServeError) -> String {
    // Through the JSON encoder, which escapes control bytes: a detail can
    // echo raw request bytes (a method or slot name), and Rust's `{:?}`
    // escapes (`\u{1}`) are not JSON.
    let body = ErrorBody { error: err.kind().to_owned(), detail: err.to_string() };
    serde_json::to_string(&body).unwrap_or_default()
}

/// The keep-alive request loop for one connection. State machine:
///
/// ```text
/// READ(first: client timeout / later: idle deadline)
///   ├─ Closed / TimedOut / Malformed ──────────────► DROP
///   ├─ Request announcing a body ───────── 400+close ► DROP
///   ├─ Request, follow-on & queue full ── 429+close ► DROP (mid-stream shed)
///   └─ Request ── route ── respond(keep?) ─┬─ keep ─► READ
///                                          └─ close ► DROP
/// keep = client keep-alive ∧ served < max_requests ∧ ¬stopping
/// ```
fn handle_connection<M: ServeModel>(
    stream: TcpStream,
    supervisor: &Supervisor<M>,
    knobs: &ConnKnobs,
    stop: &AtomicBool,
    queue: &BoundedQueue<TcpStream>,
    accountant: &Accountant,
    scratch: &mut String,
) -> io::Result<()> {
    let mut conn = Conn::new(stream);
    let mut served = 0usize;
    loop {
        // The first head gets the slow-client timeout; follow-ons wait out
        // the idle deadline, punctuated so shutdown is never blocked.
        let wait = if served == 0 { CLIENT_READ_TIMEOUT } else { knobs.idle_timeout };
        let request = match conn.read_request(wait, || !stop.load(Ordering::SeqCst))? {
            ReadOutcome::Request(request) => request,
            // Closed early, idle past the deadline, or malformed head;
            // nothing (more) to answer.
            ReadOutcome::Closed | ReadOutcome::TimedOut | ReadOutcome::Malformed => return Ok(()),
        };
        if request.has_body {
            // The body is never read, so where the next head starts is
            // unknown: refuse the request and end the connection.
            let err = ServeError::BadRequest { reason: "request bodies are not accepted".into() };
            return respond_with(conn.stream(), err.status(), &error_body(&err), false, scratch);
        }
        if served > 0 && queue.is_full() {
            // Mid-stream shed: this request never crossed the acceptor's
            // admission queue, so the overload check re-runs here.
            accountant.shed();
            let body =
                error_body(&ServeError::Overloaded { queue_capacity: queue.capacity() });
            return respond_with(conn.stream(), 429, &body, false, scratch);
        }
        served += 1;
        let keep = request.keep_alive
            && served < knobs.max_requests
            && !stop.load(Ordering::SeqCst);
        let (status, body) = route(&request, supervisor, knobs.deadline);
        respond_with(conn.stream(), status, &body, keep, scratch)?;
        if !keep {
            return Ok(());
        }
    }
}

fn route<M: ServeModel>(
    request: &Request,
    supervisor: &Supervisor<M>,
    deadline: Duration,
) -> (u16, String) {
    if request.method != "GET" {
        let err = ServeError::BadRequest { reason: format!("method {} not allowed", request.method) };
        return (err.status(), error_body(&err));
    }
    match request.path.as_str() {
        "/healthz" => (200, r#"{"ok":true}"#.to_owned()),
        "/stats" => match serde_json::to_string(&supervisor.accountant().snapshot()) {
            Ok(body) => (200, body),
            Err(e) => {
                let err = ServeError::BadRequest { reason: format!("stats unserialisable: {e}") };
                (500, error_body(&err))
            }
        },
        path if path.starts_with("/sweep/") => match parse_sweep(path, request) {
            Ok((slot, n, shard)) => match supervisor.sweep_top_n(&slot, n, shard, deadline) {
                Ok(resp) => ok_body(&resp),
                Err(err) => (err.status(), error_body(&err)),
            },
            Err(err) => (err.status(), error_body(&err)),
        },
        path => match parse_recommend(path, request) {
            Ok((slot, user, n)) => match supervisor.top_n(&slot, user, n, deadline) {
                Ok(resp) => ok_body(&resp),
                Err(err) => (err.status(), error_body(&err)),
            },
            Err(err) => (err.status(), error_body(&err)),
        },
    }
}

fn ok_body<T: serde::Serialize>(resp: &T) -> (u16, String) {
    match serde_json::to_string(resp) {
        Ok(body) => (200, body),
        Err(e) => {
            let err =
                ServeError::BadRequest { reason: format!("response unserialisable: {e}") };
            (500, error_body(&err))
        }
    }
}

/// Parses `/sweep/<slot>` plus the optional `n` (default 10) and `shard`
/// query parameters.
fn parse_sweep(
    path: &str,
    request: &Request,
) -> Result<(String, usize, Option<usize>), ServeError> {
    let bad = |reason: String| ServeError::BadRequest { reason };
    let mut parts = path.trim_start_matches('/').split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("sweep"), Some(slot), None) if !slot.is_empty() => {
            let n = match request.param("n") {
                None => 10,
                Some(raw) => raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad(format!("n must be a positive integer, got `{raw}`")))?,
            };
            let shard = match request.param("shard") {
                None => None,
                Some(raw) => Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| {
                            bad(format!("shard must be a positive integer, got `{raw}`"))
                        })?,
                ),
            };
            Ok((slot.to_owned(), n, shard))
        }
        _ => Err(ServeError::SlotNotFound { slot: path.to_owned() }),
    }
}

/// Parses `/recommend/<slot>/<user>` plus the optional `n` query parameter
/// (default 10).
fn parse_recommend(path: &str, request: &Request) -> Result<(String, usize, usize), ServeError> {
    let bad = |reason: String| ServeError::BadRequest { reason };
    let mut parts = path.trim_start_matches('/').split('/');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("recommend"), Some(slot), Some(user), None) if !slot.is_empty() => {
            let user = user
                .parse::<usize>()
                .map_err(|_| bad(format!("user must be an integer, got `{user}`")))?;
            let n = match request.param("n") {
                None => 10,
                Some(raw) => raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad(format!("n must be a positive integer, got `{raw}`")))?,
            };
            Ok((slot.to_owned(), user, n))
        }
        _ => Err(ServeError::SlotNotFound { slot: path.to_owned() }),
    }
}
