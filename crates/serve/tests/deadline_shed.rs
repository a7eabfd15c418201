//! Deadlines and load shedding: a stalled handler becomes a typed 503
//! instead of a hang, and a full request queue sheds connections with 429
//! instead of growing without bound.

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use taamr_fault::{with_shared_plan, FaultPlan, FaultSite};
use taamr_serve::{
    http_get, ServeError, Server, ServerConfig, Supervisor, SupervisorConfig,
};

/// Shared fault plans are process-global; tests in this binary that
/// install one serialise on this gate.
static SHARED_GATE: Mutex<()> = Mutex::new(());

#[test]
fn stalled_handler_becomes_a_typed_timeout() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("deadline-stall");
    let mut config = SupervisorConfig::new(&dir);
    config.stall = Duration::from_millis(250);
    let sup = Supervisor::new(config);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let deadline = Duration::from_millis(60);
    let plan = FaultPlan::new().with(FaultSite::ServeStall, 0);
    let started = Instant::now();
    let (result, unfired) = with_shared_plan(plan, || sup.top_n("bpr", 0, 10, deadline));
    assert_eq!(unfired, 0, "the injected stall must actually fire");
    let err = result.unwrap_err();
    assert_eq!(err, ServeError::Timeout { slot: "bpr".to_owned(), deadline_ms: 60 });
    assert_eq!(err.status(), 503);
    // The caller got its answer at the deadline, not after the stall.
    assert!(started.elapsed() < Duration::from_millis(200), "timeout did not cut the stall");

    // A stall is not a crash: the same incarnation keeps serving once the
    // sleep is over, with no restart.
    let resp = sup.top_n("bpr", 0, 10, Duration::from_secs(5)).unwrap();
    assert_eq!(resp.incarnation, 1);
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.timeouts, 1);
    assert_eq!(ledger.restarts, 0);
}

#[test]
fn cached_read_is_answered_while_the_actor_stalls() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("deadline-hit-during-stall");
    let mut config = SupervisorConfig::new(&dir);
    config.stall = Duration::from_millis(600);
    let sup = std::sync::Arc::new(Supervisor::new(config));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let long = Duration::from_secs(5);
    let cold = sup.top_n("bpr", 0, 10, long).unwrap();

    // The actor's second request (a miss) stalls it; meanwhile a repeat of
    // the cached read must not queue behind the stall. The 100 ms pause
    // only gives the actor time to enter the stall: the hit must succeed
    // however the threads interleave.
    let plan = FaultPlan::new().with(FaultSite::ServeStall, 1);
    let ((stalled, hit, stall_pending), unfired) = with_shared_plan(plan, || {
        let stalling = {
            let sup = std::sync::Arc::clone(&sup);
            std::thread::spawn(move || sup.top_n("bpr", 1, 10, long))
        };
        while sup.accountant().snapshot().requests < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(100));
        let hit = sup.top_n("bpr", 0, 10, Duration::from_millis(100));
        let stall_pending = !stalling.is_finished();
        (stalling.join().unwrap(), hit, stall_pending)
    });
    assert_eq!(unfired, 0, "the injected stall must actually fire");
    assert_eq!(hit.unwrap(), cold, "the hit replays the cold answer");
    assert!(stall_pending, "the hit was answered while the actor stalled");
    assert_eq!(stalled.unwrap().incarnation, 1, "a stall is not a crash");

    // Every request counted exactly one hit or one miss.
    let ledger = sup.accountant().snapshot();
    assert_eq!((ledger.requests, ledger.ok, ledger.timeouts), (3, 3, 0));
    assert_eq!((ledger.cache_hits, ledger.cache_misses), (1, 2));
}

#[test]
fn timeout_surfaces_as_http_503() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("deadline-http");
    let mut sup_config = SupervisorConfig::new(&dir);
    sup_config.stall = Duration::from_millis(250);
    let sup = std::sync::Arc::new(Supervisor::new(sup_config));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let server_config = ServerConfig {
        deadline: Duration::from_millis(60),
        ..ServerConfig::default()
    };
    let server = Server::start(server_config, std::sync::Arc::clone(&sup)).unwrap();

    let plan = FaultPlan::new().with(FaultSite::ServeStall, 0);
    let ((status, body), unfired) =
        with_shared_plan(plan, || http_get(server.addr(), "/recommend/bpr/0?n=10").unwrap());
    assert_eq!(unfired, 0);
    assert_eq!(status, 503);
    assert!(body.contains("\"timeout\""), "body: {body}");

    server.shutdown();
}

#[test]
fn full_queue_sheds_with_429() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("shed");
    let mut sup_config = SupervisorConfig::new(&dir);
    // The stall keeps the single worker busy long enough for the flood to
    // deterministically fill the queue behind it.
    sup_config.stall = Duration::from_millis(500);
    let sup = std::sync::Arc::new(Supervisor::new(sup_config));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let server_config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::start(server_config, std::sync::Arc::clone(&sup)).unwrap();
    let addr = server.addr();

    let plan = FaultPlan::new().with(FaultSite::ServeStall, 0);
    let (statuses, unfired) = with_shared_plan(plan, || {
        // Request A occupies the only worker (its actor is stalled).
        let first = std::thread::spawn(move || http_get(addr, "/recommend/bpr/0?n=5").unwrap());
        std::thread::sleep(Duration::from_millis(150));
        // Flood: one connection fits the queue, the rest must shed.
        let flood: Vec<_> = (1..5)
            .map(|u| {
                std::thread::spawn(move || {
                    http_get(addr, &format!("/recommend/bpr/{u}?n=5")).unwrap()
                })
            })
            .collect();
        let mut statuses = vec![first.join().unwrap().0];
        statuses.extend(flood.into_iter().map(|h| h.join().unwrap().0));
        statuses
    });
    assert_eq!(unfired, 0, "the injected stall must actually fire");

    let served = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(statuses.len(), 5);
    assert_eq!(served, 2, "worker + queued connection are served: {statuses:?}");
    assert_eq!(shed, 3, "everything past the queue is shed: {statuses:?}");

    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.sheds, 3);
    // Shed connections never became supervisor requests.
    assert_eq!(ledger.requests, 2);

    server.shutdown();
}

#[test]
fn kept_alive_connection_is_shed_mid_stream_when_the_queue_fills() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("shed-midstream");
    let sup = std::sync::Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let server_config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(5),
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::start(server_config, std::sync::Arc::clone(&sup)).unwrap();
    let addr = server.addr();

    // The kept-alive client takes the only worker and parks on it.
    let mut client = taamr_serve::HttpClient::new(addr);
    let (status, _) = client.get("/recommend/bpr/0?n=5").unwrap();
    assert_eq!(status, 200);

    // A second connection lands in the queue (capacity 1, now full) and
    // waits there — the single worker is captive to the kept-alive
    // client.
    use std::io::Write;
    let mut queued = std::net::TcpStream::connect(addr).unwrap();
    queued.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // The kept-alive client's *second* request bypassed the acceptor's
    // admission queue, so the worker re-applies the shed policy: full
    // queue, typed 429, `Connection: close`.
    let (status, body) = client.get("/recommend/bpr/1?n=5").unwrap();
    assert_eq!(status, 429, "body: {body}");
    assert!(body.contains("\"overloaded\""), "body: {body}");

    // The 429 closed the connection, freeing the worker: the queued
    // connection is served, and the shed client reconnects cleanly.
    use std::io::Read;
    let mut text = String::new();
    queued.read_to_string(&mut text).unwrap();
    assert!(text.contains(r#"{"ok":true}"#), "queued connection served: {text}");
    let (status, _) = client.get("/recommend/bpr/1?n=5").unwrap();
    assert_eq!(status, 200);
    assert_eq!(client.reconnects(), 1, "the mid-stream 429 forced one reconnect");

    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.sheds, 1, "exactly the mid-stream request was shed: {ledger:?}");

    server.shutdown();
}
