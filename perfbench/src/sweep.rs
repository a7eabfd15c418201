//! `catalog_sweep`: full-catalog top-100 sweeps over HTTP.
//!
//! One client sends sequential `GET /sweep/vbpr?n=100` over one kept-alive
//! connection to a VBPR slot of 2 048 users × 20 000 items. A sweep is one
//! request and never touches the result cache; its time is the
//! `ScoringEngine` block GEMMs plus top-K selection over every user row,
//! then encoding the lists.

use std::time::Instant;

use taamr_recsys::{
    top_n_with, Recommender, ScoreBlock, ScoringEngine, SelectionScratch, SCORE_BLOCK_USERS,
};
use taamr_serve::SweepResponse;

use crate::calib::Calibrator;
use crate::heap;
use crate::serving::{Catalog, Served, DEADLINE, SLOT};
use crate::stats::{median, print_unit_info};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, Layers, Samples, Tally};

const USERS: usize = 2048;
const ITEMS: usize = 20_000;
const TOP_N: usize = 100;

fn target() -> String {
    format!("/sweep/{SLOT}?n={TOP_N}")
}

/// Parses a sweep body and checks it against the reference lists.
fn check(body: &str, reference: &[Vec<usize>]) -> Result<(), String> {
    let resp: SweepResponse =
        serde_json::from_str(body).map_err(|e| format!("sweep body does not parse: {e}"))?;
    if resp.model_version != 1 {
        return Err(format!("sweep served model version {}", resp.model_version));
    }
    if resp.lists != reference {
        let user = resp.lists.iter().zip(reference).position(|(a, b)| a != b);
        return Err(format!(
            "sweep lists differ from par_top_n_all (first user {user:?})"
        ));
    }
    Ok(())
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
    let mut fixture: Option<(Catalog, Served)> = None;
    for _ in 0..ctx.setups.max(1) {
        if let Some((_, served)) = fixture.take() {
            served.stop();
        }
        let start = Instant::now();
        // The benchmark's copy of the catalog is a checking fixture; the
        // clone the server gets is the program's.
        let catalog = heap::uncounted(|| Catalog::generate(ctx.seed, USERS, ITEMS));
        let served = tally.op(Served::start(
            &dir,
            catalog.model.clone(),
            catalog.seen.clone(),
        ))?;
        let s = start.elapsed().as_secs_f64();
        setup_s.push(s / cal.interval());
        fixture = Some((catalog, served));
    }
    let (catalog, mut served) = fixture?;

    // Reference lists: the engine's own parallel top-N over the same model.
    let (engine, reference) = heap::uncounted(|| {
        let engine = ScoringEngine::for_model(&catalog.model);
        let reference = engine
            .par_top_n_all(&catalog.model, TOP_N, |u| catalog.seen[u].as_slice())
            .expect("a freshly built engine matches its model");
        (engine, reference)
    });

    // Warm-up sweep, checked and discarded.
    tally.op(heap::uncounted(|| {
        served
            .get(&target())
            .and_then(|body| check(&body, &reference))
    }))?;

    let mut sweeps = Samples::default();
    let mut probes = Probes::default();
    cal.restart();
    let start = Instant::now();
    while !ctx.done(start, sweeps.len()) {
        tracer.next_op();
        let t0 = Instant::now();
        let body = heap::uncounted(|| tracer.span("serve.sweep_http", |_| served.get(&target())));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let slowdown = cal.interval();
        // The blocking path's layers run right after the sweep they
        // explain, before anything else touches the caches; both are
        // calibrated before they are compared.
        let explained_ms = if tracer.recording() {
            probes
                .blocking_path(&served, &reference, tracer, tally)
                .map(|layers_ms| layers_ms / cal.interval())
        } else {
            None
        };
        if tally
            .op(heap::uncounted(|| body.and_then(|b| check(&b, &reference))))
            .is_some()
        {
            sweeps.push(tracer, ms);
            if let Some(explained) = explained_ms {
                probes.coverage.push(explained / (ms / slowdown));
                probes.split_actor(&catalog, &engine, tracer);
                cal.restart();
            }
        }
        sweeps.calibrate(slowdown);
    }
    tracer.record_all();
    if sweeps.is_empty() {
        served.stop();
        return None;
    }
    print_unit_info(
        "catalog_sweep",
        "sweep",
        &sweeps.all(),
        &sweeps.calibrated,
        cal.median_slowdown(),
    );
    if tracer.enabled() && !sweeps.traced.is_empty() {
        probes.report(layers);
    }
    let ledger = served.supervisor.accountant().snapshot();
    if ledger.cache_hits + ledger.cache_misses != 0 {
        tally.fail("a sweep touched the result cache".to_owned());
    }
    if served.client.reconnects() != 0 {
        tally.fail(format!(
            "the client reconnected {} times",
            served.client.reconnects()
        ));
    }
    served.stop();
    let sweep_ms = &sweeps.calibrated;
    Some(EndToEnd {
        time_ms: median(sweep_ms),
        ops_per_s: sweep_ms.len() as f64 / (sweep_ms.iter().sum::<f64>() / 1e3),
        setup_s: median(&setup_s),
        overhead_pct: sweeps.overhead_pct(median),
    })
}

/// Per-layer times (ms) of a sweep, each measured right after a traced
/// sweep, so a layer and the sweep it explains see the same machine state.
#[derive(Default)]
struct Probes {
    block: ScoreBlock,
    scratch: SelectionScratch,
    actor: Vec<f64>,
    score: Vec<f64>,
    select: Vec<f64>,
    encode: Vec<f64>,
    bytes: usize,
    /// Per traced sweep: its layers' calibrated times over its own.
    coverage: Vec<f64>,
}

impl Probes {
    /// Times the layers on a sweep's blocking path by calling them
    /// directly: the actor's sweep without HTTP (`Supervisor::sweep_top_n`)
    /// and encoding its response. Returns their summed time in ms, or
    /// `None` if the actor's sweep failed. The rest of an HTTP sweep is
    /// the transfer of the body.
    fn blocking_path(
        &mut self,
        served: &Served,
        reference: &[Vec<usize>],
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Option<f64> {
        let t0 = Instant::now();
        let resp = tracer.span("serve.sweep_actor", |_| {
            served.supervisor.sweep_top_n(SLOT, TOP_N, None, DEADLINE)
        });
        let actor_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.actor.push(actor_ms);
        let resp = tally.op(resp.map_err(|e| format!("sweep_top_n: {e}")))?;
        if resp.lists != reference {
            tally.fail("Supervisor::sweep_top_n lists differ from par_top_n_all".to_owned());
        }
        let t0 = Instant::now();
        let body = tracer.span("serve.sweep_encode", |_| serde_json::to_string(&resp));
        let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.encode.push(encode_ms);
        self.bytes = body.map_or(0, |b| b.len());
        Some(actor_ms + encode_ms)
    }

    /// Splits the actor's work into its two layers: the engine's block
    /// scoring over every 64-user block, and the selection over the same
    /// rows.
    fn split_actor(&mut self, catalog: &Catalog, engine: &ScoringEngine, tracer: &mut Tracer) {
        let model = &catalog.model;
        let (mut score_ns, mut select_ns) = (0u128, 0u128);
        for lo in (0..model.num_users()).step_by(SCORE_BLOCK_USERS) {
            let users = lo..(lo + SCORE_BLOCK_USERS).min(model.num_users());
            let t0 = Instant::now();
            tracer
                .span("recsys.score", |_| {
                    engine.score_block(model, users.clone(), &mut self.block)
                })
                .expect("a freshly built engine matches its model");
            let t1 = Instant::now();
            tracer.span("recsys.select", |_| {
                for u in users.clone() {
                    std::hint::black_box(top_n_with(
                        self.block.row(u),
                        TOP_N,
                        &catalog.seen[u],
                        &mut self.scratch,
                    ));
                }
            });
            score_ns += (t1 - t0).as_nanos();
            select_ns += t1.elapsed().as_nanos();
        }
        self.score.push(score_ns as f64 / 1e6);
        self.select.push(select_ns as f64 / 1e6);
    }

    fn report(&self, layers: &mut Layers) {
        if self.score.is_empty() {
            return;
        }
        layers.insert("serve.sweep_actor_ms", median(&self.actor));
        layers.insert("recsys.score_ms", median(&self.score));
        layers.insert("recsys.select_ms", median(&self.select));
        layers.insert("serve.sweep_encode_ms", median(&self.encode));
        layers.insert("serve.sweep_body_bytes", self.bytes as f64);
        layers.insert("trace.sweep_coverage_pct", median(&self.coverage) * 100.0);
    }
}
