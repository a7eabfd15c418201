//! End-to-end HTTP API behaviour: routes, JSON bodies, typed error
//! statuses, and the `/stats` ledger.

mod common;

use std::sync::Arc;
use std::time::Duration;

use taamr_serve::{
    http_get, HttpClient, LedgerSnapshot, Server, ServerConfig, Supervisor, SupervisorConfig,
    SweepResponse, TopNResponse,
};

fn start() -> (Server, Arc<Supervisor<taamr_recsys::BprMf>>, std::path::PathBuf) {
    let dir = common::fresh_dir("http-api");
    let sup = Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let config = ServerConfig { deadline: Duration::from_secs(5), ..ServerConfig::default() };
    let server = Server::start(config, Arc::clone(&sup)).unwrap();
    (server, sup, dir)
}

#[test]
fn the_full_surface_speaks_json() {
    let (server, sup, _dir) = start();
    let addr = server.addr();

    // Health.
    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));

    // A recommendation, parseable back into the typed response, matching
    // what the supervisor serves directly.
    let (status, body) = http_get(addr, "/recommend/bpr/3?n=7").unwrap();
    assert_eq!(status, 200);
    let resp: TopNResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.user, 3);
    assert_eq!(resp.items.len(), 7);
    let direct = sup.top_n("bpr", 3, 7, Duration::from_secs(5)).unwrap();
    assert_eq!(resp.items, direct.items);
    assert_eq!(common::score_bits(&resp), common::score_bits(&direct));

    // Default n is 10.
    let (_, body) = http_get(addr, "/recommend/bpr/0").unwrap();
    let resp: TopNResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.items.len(), 10);

    // Typed errors with stable kinds.
    let (status, body) = http_get(addr, "/recommend/ghost/0").unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"slot_not_found\""), "body: {body}");

    let (status, body) = http_get(addr, "/recommend/bpr/999").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"bad_request\""), "body: {body}");

    let (status, _) = http_get(addr, "/recommend/bpr/notanumber").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_get(addr, "/recommend/bpr/0?n=0").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // The accountant's definition of a request is "entered the
    // supervisor": the three served lists plus the unknown-slot and
    // out-of-range rejections. Requests the server rejects while parsing
    // (bad user, n=0, unknown path) never reach it.
    let (status, body) = http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let ledger: LedgerSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(ledger.ok, 3);
    assert_eq!(ledger.requests, 5, "ledger: {ledger:?}");
    assert_eq!(ledger.sheds, 0);
    assert_eq!(ledger.timeouts, 0);

    server.shutdown();
}

#[test]
fn sweep_route_runs_a_sharded_catalog_pass_for_every_user() {
    let (server, sup, _dir) = start();
    let addr = server.addr();

    // Default shard plan: one response row per user, each agreeing with
    // the point-lookup route for that user.
    let (status, body) = http_get(addr, "/sweep/bpr?n=5").unwrap();
    assert_eq!(status, 200, "body: {body}");
    let sweep: SweepResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(sweep.lists.len(), common::USERS);
    assert_eq!(sweep.num_shards, 1, "16 users fit one default shard");
    for (user, list) in sweep.lists.iter().enumerate() {
        assert_eq!(list.len(), 5);
        let point = sup.top_n("bpr", user, 5, Duration::from_secs(5)).unwrap();
        assert_eq!(list, &point.items, "user {user}");
    }

    // An explicit ragged shard height changes the streaming schedule but
    // not one element of the result.
    let (status, body) = http_get(addr, "/sweep/bpr?n=5&shard=7").unwrap();
    assert_eq!(status, 200);
    let ragged: SweepResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(ragged.num_shards, 3, "ceil(16/7)");
    assert_eq!(ragged.shard_users, 7);
    assert_eq!(ragged.lists, sweep.lists, "sharding must be invisible");

    // Typed rejections: zero n, zero shard, unknown slot.
    let (status, _) = http_get(addr, "/sweep/bpr?n=0").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_get(addr, "/sweep/bpr?shard=0").unwrap();
    assert_eq!(status, 400);
    let (status, body) = http_get(addr, "/sweep/ghost").unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"slot_not_found\""), "body: {body}");

    server.shutdown();
}

#[test]
fn an_absurd_n_on_recommend_lists_every_unseen_item() {
    let (server, sup, _dir) = start();
    let (status, body) =
        http_get(server.addr(), &format!("/recommend/bpr/0?n={}", usize::MAX)).unwrap();
    assert_eq!(status, 200, "body: {body}");
    let resp: TopNResponse = serde_json::from_str(&body).unwrap();
    let seen = &common::seen_lists()[0];
    assert_eq!(resp.items.len(), common::ITEMS - seen.len());
    assert!(resp.items.iter().all(|i| !seen.contains(i)));
    let direct = sup.top_n("bpr", 0, common::ITEMS, Duration::from_secs(5)).unwrap();
    assert_eq!(resp.items, direct.items);
    server.shutdown();
}

#[test]
fn an_absurd_n_on_sweep_lists_every_unseen_item_for_every_user() {
    let (server, _sup, _dir) = start();
    let (status, body) =
        http_get(server.addr(), &format!("/sweep/bpr?n={}", usize::MAX)).unwrap();
    assert_eq!(status, 200, "body: {body}");
    let sweep: SweepResponse = serde_json::from_str(&body).unwrap();
    let seen = common::seen_lists();
    assert_eq!(sweep.lists.len(), common::USERS);
    for (user, list) in sweep.lists.iter().enumerate() {
        assert_eq!(list.len(), common::ITEMS - seen[user].len(), "user {user}");
        assert!(list.iter().all(|i| !seen[user].contains(i)), "user {user}");
    }
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection_for_many_requests() {
    let (server, sup, _dir) = start();
    let mut client = HttpClient::new(server.addr());

    // A mixed stream of routes over one TCP connection, each bitwise
    // equal to the supervisor's direct answer.
    for round in 0..3 {
        for user in 0..4 {
            let (status, body) = client.get(&format!("/recommend/bpr/{user}?n=6")).unwrap();
            assert_eq!(status, 200, "round {round} user {user}");
            let resp: TopNResponse = serde_json::from_str(&body).unwrap();
            let direct = sup.top_n("bpr", user, 6, Duration::from_secs(5)).unwrap();
            assert_eq!(resp.items, direct.items);
            assert_eq!(common::score_bits(&resp), common::score_bits(&direct));
        }
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(client.reconnects(), 0, "every request rode the first connection");

    // Typed errors do not tear the connection down either.
    let (status, _) = client.get("/recommend/bpr/999").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(client.reconnects(), 0);

    server.shutdown();
}

#[test]
fn connection_close_semantics_follow_the_http_version() {
    use std::io::{Read, Write};

    let (server, _sup, _dir) = start();
    let addr = server.addr();

    // An HTTP/1.0 request without `Connection: keep-alive` is answered
    // and closed: the response says `Connection: close` and the stream
    // reaches EOF.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    assert!(text.contains("Connection: close"), "response: {text}");

    // The same request at HTTP/1.0 with an explicit keep-alive opt-in
    // stays open for a second request.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
    let mut buf = [0u8; 2048];
    let n = raw.read(&mut buf).unwrap();
    let first = String::from_utf8_lossy(&buf[..n]).into_owned();
    assert!(first.contains("Connection: keep-alive"), "response: {first}");
    raw.write_all(b"GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n").unwrap();
    let mut rest = String::new();
    raw.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("Connection: close"), "response: {rest}");
    assert!(rest.contains(r#"{"ok":true}"#));

    // An HTTP/1.1 `Connection: close` is honoured (this is what
    // `http_get` sends; EOF framing must keep working).
    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));

    server.shutdown();
}

/// Reads until the server ends the stream; a reset after the server's
/// final bytes also counts as the end.
fn read_until_closed(raw: &mut std::net::TcpStream) -> (String, bool) {
    use std::io::Read;
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match raw.read(&mut buf) {
            Ok(0) => return (String::from_utf8_lossy(&out).into_owned(), true),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                return (String::from_utf8_lossy(&out).into_owned(), true)
            }
            Err(_) => return (String::from_utf8_lossy(&out).into_owned(), false),
        }
    }
}

#[test]
fn a_request_body_is_refused_and_never_parsed_as_a_request() {
    use std::io::Write;

    let (server, _sup, _dir) = start();
    let addr = server.addr();

    // The body is itself a complete request head. Without body framing it
    // stays in the connection's carry buffer and is served as a second
    // request.
    let smuggled = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let request = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(request.as_bytes()).unwrap();
    let (text, closed) = read_until_closed(&mut raw);
    assert!(closed, "the server must close after the 400: {text}");
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "exactly one response: {text}");
    assert!(text.starts_with("HTTP/1.1 400 "), "response: {text}");
    assert!(text.contains("Connection: close"), "response: {text}");
    assert!(!text.contains("HTTP/1.1 200"), "the embedded request was served: {text}");

    // Any Transfer-Encoding is refused the same way.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        .unwrap();
    let (text, closed) = read_until_closed(&mut raw);
    assert!(closed && text.starts_with("HTTP/1.1 400 "), "response: {text}");
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "exactly one response: {text}");

    server.shutdown();
}

#[test]
fn an_empty_content_length_keeps_the_connection_alive() {
    use std::io::{Read, Write};

    let (server, _sup, _dir) = start();
    let addr = server.addr();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut buf = [0u8; 2048];
    let n = raw.read(&mut buf).unwrap();
    let first = String::from_utf8_lossy(&buf[..n]).into_owned();
    assert!(first.starts_with("HTTP/1.1 200 "), "response: {first}");
    assert!(first.contains("Connection: keep-alive"), "response: {first}");
    // The same connection serves a second request.
    raw.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let (rest, closed) = read_until_closed(&mut raw);
    assert!(closed && rest.starts_with("HTTP/1.1 200 "), "response: {rest}");
    assert!(rest.contains(r#"{"ok":true}"#));

    server.shutdown();
}

#[test]
fn per_connection_request_cap_forces_a_clean_reconnect() {
    let dir = common::fresh_dir("http-cap");
    let sup = Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let config = ServerConfig {
        deadline: Duration::from_secs(5),
        max_requests_per_connection: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Arc::clone(&sup)).unwrap();

    let mut client = HttpClient::new(server.addr());
    for _ in 0..6 {
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
    }
    // Six requests at two per connection: the server closed after each
    // pair and the client transparently opened two more connections.
    assert_eq!(client.reconnects(), 2);

    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_clients_recover() {
    let dir = common::fresh_dir("http-idle");
    let sup = Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let config = ServerConfig {
        deadline: Duration::from_secs(5),
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = Server::start(config, Arc::clone(&sup)).unwrap();

    let mut client = HttpClient::new(server.addr());
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    // Sit idle past the server's deadline: it reaps the connection, and
    // the next request transparently reconnects.
    std::thread::sleep(Duration::from_millis(500));
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(client.reconnects(), 1, "the idle connection was reaped server-side");

    server.shutdown();
}

#[test]
fn dropping_a_server_without_shutdown_stops_and_joins() {
    let dir = common::fresh_dir("http-drop");
    let sup = Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    {
        let config = ServerConfig { deadline: Duration::from_secs(5), ..ServerConfig::default() };
        let server = Server::start(config, Arc::clone(&sup)).unwrap();
        let mut client = HttpClient::new(server.addr());
        // Park a kept-alive connection on a worker, then drop the server
        // while it is mid-idle-wait: Drop must still stop and join.
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        // `server` drops here without shutdown().
    }
    // The drop joined the acceptor and workers, so the supervisor can be
    // fronted by a fresh server immediately.
    let config = ServerConfig { deadline: Duration::from_secs(5), ..ServerConfig::default() };
    let server = Server::start(config, Arc::clone(&sup)).unwrap();
    let (status, _) = http_get(server.addr(), "/recommend/bpr/1?n=3").unwrap();
    assert_eq!(status, 200);
    drop(server);
}

#[test]
fn shutdown_is_clean_and_reentrant_for_new_servers() {
    let (server, sup, _dir) = start();
    let addr = server.addr();
    let (status, _) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    server.shutdown();

    // The port is released: a fresh server can serve the same supervisor.
    let config = ServerConfig { deadline: Duration::from_secs(5), ..ServerConfig::default() };
    let server = Server::start(config, Arc::clone(&sup)).unwrap();
    let (status, _) = http_get(server.addr(), "/recommend/bpr/1?n=3").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn error_bodies_echoing_control_bytes_are_valid_json() {
    use std::io::Write;

    let (server, _sup, _dir) = start();
    let addr = server.addr();
    // A method and a slot name carrying a raw 0x01 byte: both come back in
    // the error's detail, which must stay parseable JSON.
    for (request, status) in [
        (&b"G\x01T /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"[..], 400),
        (&b"GET /recommend/b\x01pr/0 HTTP/1.1\r\nConnection: close\r\n\r\n"[..], 404),
    ] {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(request).unwrap();
        let (text, closed) = read_until_closed(&mut raw);
        assert!(closed, "response: {text:?}");
        assert!(text.starts_with(&format!("HTTP/1.1 {status} ")), "response: {text:?}");
        let body = &text[text.find("\r\n\r\n").expect("a response head") + 4..];
        let value = serde_json::parse_value(body)
            .unwrap_or_else(|e| panic!("error body {body:?} is not JSON: {e}"));
        let detail = value.get_field("detail").and_then(|d| d.as_str()).expect("a detail string");
        assert!(detail.contains('\u{1}'), "the detail should carry the raw byte: {detail:?}");
    }

    server.shutdown();
}
