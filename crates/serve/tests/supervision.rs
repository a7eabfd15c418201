//! Supervision: a crashed actor is restarted from its snapshot and the
//! request that observed the crash is retried — callers never see the
//! crash, and post-restart scores are byte-identical.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use taamr_fault::{with_shared_plan, FaultPlan, FaultSite};
use taamr_recsys::Recommender;
use taamr_serve::{
    HttpClient, ServeError, Server, ServerConfig, Supervisor, SupervisorConfig, TopNResponse,
};

/// Shared fault plans are process-global and every actor consults them, so
/// every test in this binary that runs an actor serialises on this gate —
/// otherwise another test's actor can take an injected fault.
static SHARED_GATE: Mutex<()> = Mutex::new(());

const DEADLINE: Duration = Duration::from_secs(5);

fn supervisor(dir: &std::path::Path, max_retries: u32) -> Supervisor<taamr_recsys::BprMf> {
    let mut config = SupervisorConfig::new(dir);
    config.max_retries = max_retries;
    config.backoff_base = Duration::from_millis(2);
    Supervisor::new(config)
}

#[test]
fn crash_mid_request_restarts_from_snapshot_byte_identical() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-crash");
    // No result cache: a hit is answered on the request thread and takes no
    // actor ordinal, so with the cache on, the crashing request below (a
    // repeat of user 0's list) would never reach the actor.
    let mut config = SupervisorConfig::new(&dir);
    config.max_retries = 2;
    config.backoff_base = Duration::from_millis(2);
    config.cache_capacity = 0;
    let sup: Supervisor<taamr_recsys::BprMf> = Supervisor::new(config);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    // Baseline from the first incarnation: requests 0..USERS.
    let baseline: Vec<_> = (0..common::USERS)
        .map(|u| sup.top_n("bpr", u, 10, DEADLINE).unwrap())
        .collect();
    assert!(baseline.iter().all(|r| r.incarnation == 1 && r.model_version == 1));

    // The next request (per-actor ordinal USERS) panics mid-flight.
    let plan = FaultPlan::new().with(FaultSite::ServeActorPanic, common::USERS as u64);
    let (resp, unfired) =
        with_shared_plan(plan, || sup.top_n("bpr", 0, 10, DEADLINE));
    assert_eq!(unfired, 0, "the injected panic must actually fire");

    // The caller never saw the crash: the supervisor restarted the slot
    // from its snapshot and retried.
    let resp = resp.unwrap();
    assert_eq!(resp.incarnation, 2, "request was served by the restarted actor");
    assert_eq!(resp.model_version, 1);
    assert_eq!(resp.items, baseline[0].items);
    assert_eq!(common::score_bits(&resp), common::score_bits(&baseline[0]));

    // Every user's list survives the restart byte-identically.
    for (u, before) in baseline.iter().enumerate() {
        let after = sup.top_n("bpr", u, 10, DEADLINE).unwrap();
        assert_eq!(after.items, before.items, "user {u} items");
        assert_eq!(common::score_bits(&after), common::score_bits(before), "user {u} scores");
    }

    assert_eq!(sup.slot_incarnation("bpr").unwrap(), 2);
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.restarts, 1);
    assert_eq!(ledger.retries, 1);
    assert_eq!(ledger.timeouts, 0);
    assert_eq!(ledger.snapshot_writes, 1); // the add_slot generation 0
}

#[test]
fn exhausted_retry_budget_is_a_typed_503() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-budget");
    let sup = supervisor(&dir, 0); // no retries: the first crash surfaces
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let plan = FaultPlan::new().with(FaultSite::ServeActorPanic, 0);
    let (result, unfired) = with_shared_plan(plan, || sup.top_n("bpr", 0, 10, DEADLINE));
    assert_eq!(unfired, 0);
    let err = result.unwrap_err();
    assert!(
        matches!(&err, ServeError::SlotUnavailable { slot, .. } if slot == "bpr"),
        "expected SlotUnavailable, got {err:?}"
    );
    assert_eq!(err.status(), 503);

    // The crash already healed the slot (supervision is independent of
    // the request's retry budget), so the next request just succeeds.
    let resp = sup.top_n("bpr", 0, 10, DEADLINE).unwrap();
    assert_eq!(resp.incarnation, 2);
    assert_eq!(sup.accountant().snapshot().restarts, 1);
}

#[test]
fn chaos_kill_between_requests_recovers_transparently() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-kill");
    let sup = supervisor(&dir, 2);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let before = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();

    sup.kill("bpr").unwrap();
    let after = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();
    assert_eq!(after.incarnation, 2);
    assert_eq!(after.items, before.items);
    assert_eq!(common::score_bits(&after), common::score_bits(&before));

    // Repeated kills keep working (each restart re-reads the snapshot).
    for expected_incarnation in 3..6 {
        sup.kill("bpr").unwrap();
        let resp = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();
        assert_eq!(resp.incarnation, expected_incarnation);
        assert_eq!(common::score_bits(&resp), common::score_bits(&before));
    }
    assert_eq!(sup.accountant().snapshot().restarts, 4);
}

#[test]
fn unknown_slot_and_bad_requests_are_typed() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-typed");
    let sup = supervisor(&dir, 2);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let err = sup.top_n("ghost", 0, 10, DEADLINE).unwrap_err();
    assert_eq!(err, ServeError::SlotNotFound { slot: "ghost".to_owned() });
    assert_eq!(err.status(), 404);

    let err = sup.top_n("bpr", common::USERS + 5, 10, DEADLINE).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    assert_eq!(err.status(), 400);

    let err = sup.top_n("bpr", 0, 0, DEADLINE).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");

    let err = sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
}

/// Crash storm: kept-alive HTTP clients read while a chaos thread kills
/// the slot's actor over and over. Every kill restarts the actor from its
/// snapshot and empties its result cache; the clients must never see an
/// error, and every answer must equal the serial reference list.
#[test]
fn crash_storm_under_kept_alive_load_serves_every_read_correctly() {
    const CLIENTS: usize = 2;
    const KILLS: usize = 8;
    const TOP_N: usize = 10;
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-storm");
    let mut config = SupervisorConfig::new(&dir);
    // Several kills can land inside one snapshot-restore window.
    config.max_retries = 8;
    let sup = Arc::new(Supervisor::new(config));
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let server_config =
        ServerConfig { workers: CLIENTS, deadline: DEADLINE, ..ServerConfig::default() };
    let server = Server::start(server_config, Arc::clone(&sup)).unwrap();
    let addr = server.addr();

    let model = common::model(1);
    let seen = common::seen_lists();
    let reference: Vec<Vec<usize>> =
        (0..common::USERS).map(|u| model.top_n(u, TOP_N, &seen[u])).collect();

    // The storm starts only once every client holds a live connection, and
    // the clients keep reading until the last kill, so kills always land
    // between and during kept-alive reads.
    let started = Arc::new(Barrier::new(CLIENTS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let started = Arc::clone(&started);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut answers = Vec::new();
                let mut errors = 0usize;
                let mut r = 0usize;
                while r < common::USERS || !stop.load(Ordering::Relaxed) {
                    let user = (c + r * CLIENTS) % common::USERS;
                    match client.get(&format!("/recommend/bpr/{user}?n={TOP_N}")) {
                        Ok((200, body)) => answers.push(body),
                        Ok(_) | Err(_) => errors += 1,
                    }
                    if r == 0 {
                        started.wait();
                    }
                    r += 1;
                }
                (answers, errors)
            })
        })
        .collect();

    started.wait();
    for _ in 0..KILLS {
        std::thread::sleep(Duration::from_millis(25));
        sup.kill("bpr").unwrap();
    }
    stop.store(true, Ordering::Relaxed);

    for handle in clients {
        let (answers, errors) = handle.join().expect("client thread");
        assert_eq!(errors, 0, "a client saw an error during the crash storm");
        for body in answers {
            let resp: TopNResponse = serde_json::from_str(&body).unwrap();
            assert_eq!(resp.items, reference[resp.user], "user {}", resp.user);
        }
    }
    assert!(sup.accountant().snapshot().restarts >= 1, "the storm never restarted the actor");
    server.shutdown();
}
