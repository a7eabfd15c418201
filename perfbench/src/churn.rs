//! `recommend_churn`: kept-alive `/recommend` reads beside model churn.
//!
//! One client reads `GET /recommend/vbpr/<user>?n=20` over one kept-alive
//! connection from a VBPR slot of 2 000 users × 10 000 items. A round is
//! the same 2 000 reads every time, users drawn once from a Zipf law
//! (exponent 1.4, capped at 200 distinct users) fixed by the seed. Every
//! round starts on an empty result cache, so its misses are exactly its
//! 200 distinct users and the hit share is 90% for every seed. Between
//! rounds the client alternates the two churn events of the write path: a
//! swap to the other model (clean ↔ attacked: the source category's item
//! features moved towards the target category) and a kill of the slot's
//! actor, which the next read recovers from the snapshot.
//!
//! Reads that hit measure the HTTP front door, the actor mailbox and the
//! cache; misses measure single-user `score_gather` plus selection.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taamr_recsys::{
    top_n_with, ScoreBlock, ScoringEngine, SelectionScratch, Vbpr, SCORE_BLOCK_USERS,
};
use taamr_serve::{LedgerSnapshot, SnapshotStore, TopNResponse};

use crate::calib::Calibrator;
use crate::heap;
use crate::paper::mix;
use crate::serving::{Catalog, Served, DEADLINE, SLOT};
use crate::stats::{median, quantile, sorted};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, Layers, Samples, Tally};

const USERS: usize = 2000;
const ITEMS: usize = 10_000;
const TOP_N: usize = 20;
/// Reads between two churn events.
const ROUND_READS: usize = 2000;
/// Zipf exponent of the user draw; uncapped, a round would draw about
/// 250 distinct users.
const ZIPF_S: f64 = 1.4;
/// Distinct users of a round: its cache misses.
const ROUND_USERS: usize = 200;
/// Category whose items the attacked model has moved, and its target.
const SOURCE: usize = 0;
const TARGET: usize = 1;
/// Repetitions of each per-layer probe of the write path.
const WRITE_PROBES: usize = 3;

/// The round's users: `ROUND_READS` draws from a Zipf law over users
/// whose popularity ranks are a seeded permutation. Once `ROUND_USERS`
/// distinct users are drawn, draws of new users are redrawn, so every
/// round misses exactly `ROUND_USERS` times on its empty cache.
fn round_users(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 10));
    let mut by_rank: Vec<usize> = (0..USERS).collect();
    for i in (1..USERS).rev() {
        by_rank.swap(i, rng.gen_range(0..=i));
    }
    let mut cdf = Vec::with_capacity(USERS);
    let mut total = 0.0;
    for rank in 0..USERS {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut drawn = vec![false; USERS];
    let mut distinct = 0;
    let mut users = Vec::with_capacity(ROUND_READS);
    while users.len() < ROUND_READS {
        let x = rng.gen_range(0.0..total);
        let user = by_rank[cdf.partition_point(|&c| c <= x).min(USERS - 1)];
        if !drawn[user] {
            if distinct == ROUND_USERS {
                continue;
            }
            drawn[user] = true;
            distinct += 1;
        }
        users.push(user);
    }
    users
}

/// Expected top-N (items, score bits) of every user, scored through
/// contiguous `score_block`s: a different entry point from the server's
/// single-user gather, bitwise equal by the engine's contract.
fn reference(model: &Vbpr, seen: &[Vec<usize>]) -> Vec<(Vec<usize>, Vec<u32>)> {
    let engine = ScoringEngine::for_model(model);
    let mut block = ScoreBlock::new();
    let mut scratch = SelectionScratch::new();
    let mut out = Vec::with_capacity(USERS);
    for lo in (0..USERS).step_by(SCORE_BLOCK_USERS) {
        let users = lo..(lo + SCORE_BLOCK_USERS).min(USERS);
        engine
            .score_block(model, users.clone(), &mut block)
            .expect("fresh engine");
        for u in users {
            let row = block.row(u);
            let items = top_n_with(row, TOP_N, &seen[u], &mut scratch);
            let bits = items.iter().map(|&i| row[i].to_bits()).collect();
            out.push((items, bits));
        }
    }
    out
}

/// Expected answers of one model and the engine the miss probes score with.
struct Model {
    model: Vbpr,
    expected: Vec<(Vec<usize>, Vec<u32>)>,
    engine: ScoringEngine,
}

impl Model {
    fn new(model: Vbpr, seen: &[Vec<usize>]) -> Model {
        let expected = reference(&model, seen);
        let engine = ScoringEngine::for_model(&model);
        Model {
            model,
            expected,
            engine,
        }
    }
}

/// Per-layer times (µs) of the read path, each measured right after a
/// traced read of the same kind, so a layer and the read it explains see
/// the same machine state.
#[derive(Default)]
struct Probes {
    block: ScoreBlock,
    scratch: SelectionScratch,
    http_rtt: Vec<f64>,
    actor_hit: Vec<f64>,
    encode: Vec<f64>,
    actor_miss: Vec<f64>,
    gather: Vec<f64>,
    select: Vec<f64>,
    /// Per traced hit: its layers' times over its own time.
    coverage: Vec<f64>,
}

/// Runs `f` inside a span named `name` and returns its result and its
/// time in µs.
fn time_us<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = tracer.span(name, |_| f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// The live slot and everything a read is checked against.
struct Churn {
    served: Served,
    /// `[clean, attacked]`.
    models: [Model; 2],
    seen: Vec<Vec<usize>>,
    users: Vec<usize>,
    /// Whether read `i` of a round is its user's first, hence a miss.
    first: Vec<bool>,
    /// Version the slot serves; odd versions hold the clean model, even
    /// ones the attacked model (every swap alternates).
    version: u64,
    read_ms: Samples,
    swap_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    /// Calibrated swap and recovery times (ms).
    swap_cal: Vec<f64>,
    recovery_cal: Vec<f64>,
    probes: Probes,
    reads: u64,
    kills: u64,
    /// Calibrates every round, swap and recovery.
    cal: Calibrator,
}

impl Churn {
    /// Index into `models` of the model the live version holds.
    fn live_index(&self) -> usize {
        usize::from(self.version.is_multiple_of(2))
    }

    fn live(&self) -> &Model {
        &self.models[self.live_index()]
    }

    /// Parses a read's body and checks it against the reference of the
    /// version it names.
    fn check(&self, user: usize, body: &str) -> Result<TopNResponse, String> {
        let resp: TopNResponse =
            serde_json::from_str(body).map_err(|e| format!("read body does not parse: {e}"))?;
        if resp.model_version != self.version {
            return Err(format!(
                "user {user}: served model version {}, expected {}",
                resp.model_version, self.version
            ));
        }
        let (items, bits) = &self.live().expected[user];
        let got_bits: Vec<u32> = resp.scores.iter().map(|s| s.to_bits()).collect();
        if resp.user != user || &resp.items != items || &got_bits != bits {
            return Err(format!(
                "user {user} @ v{}: list differs from the reference",
                self.version
            ));
        }
        Ok(resp)
    }

    /// Times the layers of a read that just completed. A hit is the HTTP
    /// round trip (`/healthz` on the same connection), the actor's cache
    /// hit (`Supervisor::top_n` for the same user) and encoding the
    /// response. A miss is the actor's miss (`Supervisor::top_n` with a
    /// list length the loop never asks for, so never cached), one-user
    /// `score_gather` and `top_n_with`.
    fn probe(
        &mut self,
        user: usize,
        miss: bool,
        resp: &TopNResponse,
        read_ms: f64,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let sup = std::sync::Arc::clone(&self.served.supervisor);
        if miss {
            let (r, us) = time_us(tracer, "serve.miss_actor", || {
                sup.top_n(SLOT, user, TOP_N + 1, DEADLINE)
            });
            self.probes.actor_miss.push(us);
            tally.op(r.map_err(|e| format!("top_n({user}, {}): {e}", TOP_N + 1)));
            let live = &self.models[self.live_index()];
            let p = &mut self.probes;
            let (r, us) = time_us(tracer, "recsys.gather", || {
                live.engine.score_gather(&live.model, &[user], &mut p.block)
            });
            p.gather.push(us);
            r.expect("a freshly built engine matches its model");
            let seen = &self.seen[user];
            let (items, us) = time_us(tracer, "recsys.select", || {
                top_n_with(p.block.row(0), TOP_N, seen, &mut p.scratch)
            });
            p.select.push(us);
            std::hint::black_box(items);
        } else {
            let (r, rtt) = time_us(tracer, "serve.http_rtt", || self.served.get("/healthz"));
            self.probes.http_rtt.push(rtt);
            tally.op(r);
            let (r, actor) = time_us(tracer, "serve.read_actor", || {
                sup.top_n(SLOT, user, TOP_N, DEADLINE)
            });
            self.probes.actor_hit.push(actor);
            tally.op(r.map_err(|e| format!("top_n({user}): {e}")));
            let (r, encode) = time_us(tracer, "serve.encode", || serde_json::to_string(resp));
            self.probes.encode.push(encode);
            self.probes
                .coverage
                .push((rtt + actor + encode) / (read_ms * 1e3));
            std::hint::black_box(r.ok());
        }
    }

    /// A round of reads. With `kill_at`, the round follows a kill and its
    /// first read is the recovery, timed from the kill.
    fn round(&mut self, tracer: &mut Tracer, tally: &mut Tally, kill_at: Option<Instant>) {
        let mut recovery_ms = None;
        for i in 0..self.users.len() {
            let user = self.users[i];
            let recovery = i == 0 && kill_at.is_some();
            tracer.next_op();
            let t0 = kill_at.filter(|_| recovery).unwrap_or_else(Instant::now);
            let name = if recovery {
                "serve.recovery_read"
            } else {
                "serve.read_http"
            };
            let body = heap::uncounted(|| {
                let target = format!("/recommend/{SLOT}/{user}?n={TOP_N}");
                tracer.span(name, |_| self.served.get(&target))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.reads += 1;
            let checked = heap::uncounted(|| body.and_then(|b| self.check(user, &b)));
            let Some(resp) = tally.op(checked) else {
                continue;
            };
            if recovery {
                recovery_ms = Some(ms);
            } else {
                self.read_ms.push(tracer, ms);
                if tracer.recording() {
                    self.probe(user, self.first[i], &resp, ms, tracer, tally);
                }
            }
        }
        let slowdown = self.cal.interval();
        self.read_ms.calibrate(slowdown);
        if let Some(ms) = recovery_ms {
            self.recovery_ms.push(ms);
            self.recovery_cal.push(ms / slowdown);
        }
    }

    /// Kill, a recovering round, a swap to the other model, a round.
    fn cycle(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        tracer.next_op();
        let killed = Instant::now();
        let kill = tracer.span("serve.kill", |_| self.served.supervisor.kill(SLOT));
        tally.op(kill.map_err(|e| format!("kill: {e}")));
        self.kills += 1;
        self.round(tracer, tally, Some(killed));

        let next = self.models[1 - self.live_index()].model.clone();
        tracer.next_op();
        let t0 = Instant::now();
        let swapped = tracer.span("serve.swap", |_| self.served.supervisor.swap(SLOT, next));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let slowdown = self.cal.interval();
        if let Some(v) = tally.op(swapped.map_err(|e| format!("swap: {e}"))) {
            if v != self.version + 1 {
                tally.fail(format!("swap went from version {} to {v}", self.version));
            }
            self.version = v;
            self.swap_ms.push(ms);
            self.swap_cal.push(ms / slowdown);
        }
        self.round(tracer, tally, None);
    }

    fn clear_samples(&mut self) {
        self.read_ms = Samples::default();
        self.swap_ms.clear();
        self.recovery_ms.clear();
        self.swap_cal.clear();
        self.recovery_cal.clear();
        self.probes = Probes::default();
        self.reads = 0;
        self.kills = 0;
    }
}

pub fn run(
    ctx: &Ctx,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Option<EndToEnd> {
    let dir = ctx.work_dir.join("slot");
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut fixture: Option<(Catalog, Vbpr, Served)> = None;
    for _ in 0..ctx.setups.max(1) {
        if let Some((_, _, served)) = fixture.take() {
            served.stop();
        }
        let start = Instant::now();
        // The benchmark's copies of the models are checking fixtures; the
        // clones the server gets are the program's.
        let (catalog, attacked) = heap::uncounted(|| {
            let catalog = Catalog::generate(mix(ctx.seed, 11), USERS, ITEMS);
            let attacked = catalog.attacked(SOURCE, TARGET);
            (catalog, attacked)
        });
        let served = tally.op(Served::start(
            &dir,
            catalog.model.clone(),
            catalog.seen.clone(),
        ))?;
        let s = start.elapsed().as_secs_f64();
        setup_s.push(s / cal.interval());
        fixture = Some((catalog, attacked, served));
    }
    let (catalog, attacked, served) = fixture?;
    let users = round_users(ctx.seed);
    let mut drawn = vec![false; USERS];
    let first = users
        .iter()
        .map(|&u| !std::mem::replace(&mut drawn[u], true))
        .collect();
    let mut churn = Churn {
        served,
        models: heap::uncounted(|| {
            [
                Model::new(catalog.model, &catalog.seen),
                Model::new(attacked, &catalog.seen),
            ]
        }),
        seen: catalog.seen,
        users,
        first,
        version: 1,
        read_ms: Samples::default(),
        swap_ms: Vec::new(),
        recovery_ms: Vec::new(),
        swap_cal: Vec::new(),
        recovery_cal: Vec::new(),
        probes: Probes::default(),
        reads: 0,
        kills: 0,
        cal,
    };

    // Warm-up: a plain round and one whole cycle, discarded.
    let mut plain = Tracer::new(false);
    churn.round(&mut plain, tally, None);
    churn.cycle(&mut plain, tally);
    churn.clear_samples();

    churn.cal.restart();
    let ledger_before = churn.served.supervisor.accountant().snapshot();
    let start = Instant::now();
    let mut cycles = 0;
    while !ctx.done(start, cycles) {
        churn.cycle(tracer, tally);
        cycles += 1;
    }
    tracer.record_all();
    let ledger = delta(
        &churn.served.supervisor.accountant().snapshot(),
        &ledger_before,
    );
    check_ledger(&ledger, &churn, cycles as u64, tally);

    if churn.read_ms.is_empty() || churn.swap_ms.is_empty() || churn.recovery_ms.is_empty() {
        return None;
    }
    // The probes' own actor calls are one hit or one miss each.
    let hits = ledger.cache_hits - churn.probes.actor_hit.len() as u64;
    let misses = ledger.cache_misses - churn.probes.actor_miss.len() as u64;
    let hit_share = hits as f64 / (hits + misses).max(1) as f64;
    // The tail percentile sits in the middle of the miss mode.
    let tail_q = hit_share + (1.0 - hit_share) / 2.0;
    let reads = sorted(&churn.read_ms.all());
    let beyond_tail = ((1.0 - tail_q) * reads.len() as f64).floor();
    let p50_ms = quantile(&reads, 0.5);
    let tail_ms = quantile(&reads, tail_q);
    let total_ms: f64 = reads
        .iter()
        .chain(&churn.swap_ms)
        .chain(&churn.recovery_ms)
        .sum();
    let total_cal_ms: f64 = churn
        .read_ms
        .calibrated
        .iter()
        .chain(&churn.swap_cal)
        .chain(&churn.recovery_cal)
        .sum();
    println!(
        r#"{{"info":{{"workload":"recommend_churn","cycles":{cycles},"reads":{},"hit_share":{hit_share},"tail_percentile":{},"samples_beyond_tail":{beyond_tail},"read_p50_us":{},"read_tail_us":{},"swap_ms":{},"recovery_ms":{},"churn_time_share":{},"read_p50_calibrated_us":{},"slowdown":{}}}}}"#,
        churn.reads,
        tail_q * 100.0,
        p50_ms * 1e3,
        tail_ms * 1e3,
        median(&churn.swap_ms),
        median(&churn.recovery_ms),
        churn.swap_ms.iter().chain(&churn.recovery_ms).sum::<f64>() / total_ms,
        median(&churn.read_ms.calibrated) * 1e3,
        churn.cal.median_slowdown(),
    );
    if beyond_tail < 10.0 {
        tally.fail(format!(
            "only {beyond_tail} reads beyond the tail percentile"
        ));
    }

    if tracer.enabled() && !churn.read_ms.traced.is_empty() {
        let traced = sorted(&churn.read_ms.traced);
        let p = &churn.probes;
        for (name, values) in [
            ("serve.http_rtt_us", &p.http_rtt),
            ("serve.read_actor_us", &p.actor_hit),
            ("serve.encode_us", &p.encode),
            ("serve.miss_actor_us", &p.actor_miss),
            ("recsys.gather_us", &p.gather),
            ("recsys.select_us", &p.select),
        ] {
            if !values.is_empty() {
                layers.insert(name, median(values));
            }
        }
        let read_us = quantile(&traced, 0.5) * 1e3;
        layers.insert("serve.read_http_us", read_us);
        layers.insert("serve.read_tail_us", quantile(&traced, tail_q) * 1e3);
        layers.insert("serve.swap_ms", median(&churn.swap_ms));
        layers.insert("serve.recovery_ms", median(&churn.recovery_ms));
        layers.insert("serve.cache_hit_ratio", hit_share);
        layers.insert("serve.restarts", ledger.restarts as f64);
        layers.insert("serve.swaps", ledger.swaps as f64);
        layers.insert("serve.retries", ledger.retries as f64);
        layers.insert("serve.coalesced_batches", ledger.coalesced_batches as f64);
        layers.insert("serve.reconnects", churn.served.client.reconnects() as f64);
        if !p.coverage.is_empty() {
            layers.insert("trace.churn_coverage_pct", median(&p.coverage) * 100.0);
        }
        probe_write_path(&churn.live().model, &ctx.work_dir, tracer, tally, layers);
    }
    if churn.served.client.reconnects() != 0 {
        tally.fail(format!(
            "the client reconnected {} times",
            churn.served.client.reconnects()
        ));
    }
    churn.served.stop();
    Some(EndToEnd {
        time_ms: median(&churn.read_ms.calibrated),
        ops_per_s: churn.reads as f64 / (total_cal_ms / 1e3),
        setup_s: median(&setup_s),
        overhead_pct: churn.read_ms.overhead_pct(median),
    })
}

fn delta(after: &LedgerSnapshot, before: &LedgerSnapshot) -> LedgerSnapshot {
    LedgerSnapshot {
        requests: after.requests - before.requests,
        ok: after.ok - before.ok,
        timeouts: after.timeouts - before.timeouts,
        sheds: after.sheds - before.sheds,
        retries: after.retries - before.retries,
        restarts: after.restarts - before.restarts,
        swaps: after.swaps - before.swaps,
        snapshot_writes: after.snapshot_writes - before.snapshot_writes,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        coalesced_batches: after.coalesced_batches - before.coalesced_batches,
        coalesced_requests: after.coalesced_requests - before.coalesced_requests,
    }
}

/// The serving ledger must show exactly the churn the client caused: one
/// restart and one retry per kill, one swap per cycle, and no timeout,
/// shed or coalesced batch with a single client.
fn check_ledger(ledger: &LedgerSnapshot, churn: &Churn, cycles: u64, tally: &mut Tally) {
    let expect = [
        ("restarts", ledger.restarts, churn.kills),
        ("retries", ledger.retries, churn.kills),
        ("swaps", ledger.swaps, cycles),
        ("timeouts", ledger.timeouts, 0),
        ("sheds", ledger.sheds, 0),
        ("coalesced batches", ledger.coalesced_batches, 0),
    ];
    for (what, got, want) in expect {
        if got != want {
            tally.fail(format!("ledger counted {got} {what}, expected {want}"));
        }
    }
}

/// Times the write path's layers by calling them directly: the embedding
/// rebuild of a fresh engine, and a snapshot save and restore.
fn probe_write_path(
    model: &Vbpr,
    work_dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    let mut rebuild = Vec::new();
    for _ in 0..WRITE_PROBES {
        let (_, us) = time_us(tracer, "recsys.embed_rebuild", || {
            std::hint::black_box(ScoringEngine::new().ensure(model))
        });
        rebuild.push(us / 1e3);
    }
    let (mut save, mut restore) = (Vec::new(), Vec::new());
    match SnapshotStore::open(&work_dir.join("probe-snapshots"), SLOT) {
        Ok(mut store) => {
            for version in 1..=WRITE_PROBES as u64 {
                let (r, us) = time_us(tracer, "serve.snapshot_save", || store.save(model, version));
                save.push(us / 1e3);
                tally.op(r.map_err(|e| format!("snapshot save: {e}")));
                let (r, us) = time_us(tracer, "serve.snapshot_restore", || store.restore::<Vbpr>());
                restore.push(us / 1e3);
                match r {
                    Ok(r) if r.model == *model => {}
                    Ok(_) => tally.fail("the restored snapshot differs from the model".to_owned()),
                    Err(e) => tally.fail(format!("snapshot restore: {e}")),
                }
            }
        }
        Err(e) => tally.fail(format!("snapshot store: {e}")),
    }
    layers.insert("recsys.embed_rebuild_ms", median(&rebuild));
    layers.insert("serve.snapshot_save_ms", median(&save));
    layers.insert("serve.snapshot_restore_ms", median(&restore));
}
