//! `paper_repro`: the paper's own experiment, end to end.
//!
//! One unit operation is a full Tiny reproduction of both paper datasets:
//! [`Pipeline::build`] (dataset, CNN, catalog features, VBPR warm-up,
//! VBPR, AMR) and then [`Pipeline::run_paper_experiment`] without the
//! report cache. Most of the time goes to PGD cells (the CNN input
//! gradient through conv backward), about a fifth to the build; a change
//! to `nn`, `tensor` or `attack` shows here and nowhere else.

use std::path::Path;
use std::time::Instant;

use taamr::golden::GoldenProfile;
use taamr::{AttackOutcome, AttackSpec, ExperimentScale, ModelKind, Pipeline, PipelineConfig};
use taamr_attack::{Epsilon, SpsaAttack};
use taamr_data::SyntheticDataset;
use taamr_obs::Counter;
use taamr_replay::{diff, json_hash, read_record};

use crate::calib::Calibrator;
use crate::heap;
use crate::stats::{mean, median, print_unit_info};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, Layers, Samples, Tally};

/// `taamr-obs` program spans of the build, and the layer each belongs to.
const BUILD_STAGES: [(&str, &str); 6] = [
    ("stage:dataset", "data.stage_dataset"),
    ("stage:cnn", "nn.stage_cnn"),
    ("stage:catalog-features", "vision.stage_features"),
    ("stage:vbpr-warmup", "recsys.stage_train"),
    ("stage:vbpr-finetune", "recsys.stage_train"),
    ("stage:amr", "recsys.stage_train"),
];

/// Counters reported per unit, with their per-layer metric names.
const UNIT_COUNTERS: [(Counter, &str); 7] = [
    (Counter::GemmCalls, "tensor.gemm_calls"),
    (Counter::Im2colCalls, "tensor.im2col_calls"),
    (Counter::Col2imCalls, "tensor.col2im_calls"),
    (Counter::GemmPanelPacks, "tensor.gemm_panel_packs"),
    (Counter::AttackGradSteps, "attack.grad_steps"),
    (Counter::AttackQueries, "attack.queries"),
    (Counter::ScoringGemmCalls, "recsys.scoring_gemm_calls"),
];

/// Span of one attack cell by attacker family, and its per-layer metric.
const CELLS: [(&str, &str); 4] = [
    ("attack.fgsm_cell", "attack.fgsm_cell_ms"),
    ("attack.pgd_cell", "attack.pgd_cell_ms"),
    ("attack.spsa_cell", "attack.spsa_cell_ms"),
    ("attack.embed_cell", "attack.embed_cell_ms"),
];

/// SplitMix64: decorrelates the seeds derived from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two paper datasets at Tiny scale with the master seed drawn from
/// the workload seed. The master seed drives every random draw of the
/// reproduction (CNN initialisation, triplet sampling, PGD random starts,
/// SPSA probes). The datasets and catalogs stay the paper's, whose sizes
/// fix the amount of work, so every seed costs the same.
fn configs(seed: u64) -> Vec<PipelineConfig> {
    taamr::experiment::paper_datasets()
        .into_iter()
        .map(|dataset| {
            let mut config = PipelineConfig::for_scale_with_dataset(ExperimentScale::Tiny, dataset);
            config.seed = mix(seed, 1);
            config
        })
        .collect()
}

/// Set-up: derives the configurations and generates each dataset's
/// interactions to check that every pinned attack source category has
/// items, so no grid cell can fail for want of targets.
fn setup(seed: u64) -> Result<Vec<PipelineConfig>, String> {
    let configs = configs(seed);
    for config in &configs {
        let sizes = SyntheticDataset::generate(&config.dataset)
            .dataset
            .category_sizes();
        for &(source, _) in config.scenario_overrides.iter().flatten() {
            if sizes.get(source).copied().unwrap_or(0) == 0 {
                return Err(format!(
                    "{}: attack source category {source} is empty",
                    config.dataset.name
                ));
            }
        }
    }
    Ok(configs)
}

/// Replays every golden profile and diffs it against its checked-in
/// record.
fn golden_gate(tally: &mut Tally) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden_records");
    for profile in GoldenProfile::all() {
        let path = dir.join(profile.file_name());
        let checked = read_record(&path)
            .map_err(|e| format!("golden record {}: {e}", path.display()))
            .and_then(|golden| {
                let replayed = profile
                    .run_recorded()
                    .map_err(|e| format!("golden profile {}: {e}", profile.name))?;
                let report = diff(&golden, &replayed);
                if report.is_match() {
                    Ok(())
                } else {
                    Err(report.to_string())
                }
            });
        if let Err(e) = checked {
            tally.fail(e);
        }
    }
}

/// The experiment's attack grid in `run_paper_experiment` order: the
/// paper's FGSM/PGD cells over the ε sweep, then one SPSA and both
/// embedding-space cells per model × scenario.
fn grid(pipeline: &Pipeline) -> Vec<(ModelKind, taamr::AttackScenario, AttackSpec)> {
    let mut cells = Vec::new();
    for kind in ModelKind::ALL {
        for scenario in pipeline.experiment_scenarios(kind) {
            for eps in Epsilon::paper_sweep() {
                cells.push((
                    kind,
                    scenario,
                    AttackSpec::Fgsm {
                        epsilon_255: eps.as_255(),
                    },
                ));
                cells.push((
                    kind,
                    scenario,
                    AttackSpec::Pgd {
                        epsilon_255: eps.as_255(),
                    },
                ));
            }
        }
    }
    for kind in ModelKind::ALL {
        for scenario in pipeline.experiment_scenarios(kind) {
            cells.push((
                kind,
                scenario,
                AttackSpec::BlackBox {
                    epsilon_255: 8.0,
                    steps: 2,
                    samples: 2,
                    query_budget: SpsaAttack::required_queries(2, 2),
                },
            ));
            cells.push((
                kind,
                scenario,
                AttackSpec::EmbedSign {
                    radius: 0.5,
                    steps: 5,
                },
            ));
            cells.push((
                kind,
                scenario,
                AttackSpec::EmbedL2 {
                    radius: 0.5,
                    steps: 5,
                },
            ));
        }
    }
    cells
}

fn cell_span(spec: &AttackSpec) -> &'static str {
    match spec {
        AttackSpec::Fgsm { .. } => "attack.fgsm_cell",
        AttackSpec::Pgd { .. } => "attack.pgd_cell",
        AttackSpec::Bim { .. } => "attack.bim_cell",
        AttackSpec::BlackBox { .. } => "attack.spsa_cell",
        AttackSpec::EmbedSign { .. } | AttackSpec::EmbedL2 { .. } => "attack.embed_cell",
    }
}

/// Total wall time per `taamr-obs` span name, in nanoseconds.
fn obs_span_totals() -> Vec<(String, u64)> {
    taamr_obs::snapshot()
        .spans
        .into_iter()
        .map(|s| (s.name, s.total_ns))
        .collect()
}

/// Hashes identifying one dataset's reproduction: the whole report, and
/// its outcomes alone (what a traced pass recomputes cell by cell).
#[derive(Clone, Copy, PartialEq, Debug)]
struct Hashes {
    report: Option<u64>,
    outcomes: u64,
}

/// One dataset of a unit. Untraced it is exactly `build` plus
/// `run_paper_experiment(None)`. In a traced pass, every unit (the
/// alternation's untraced ones too, so the overhead compares the same
/// work) runs the same grid through `run_attack`; a recorded unit has one
/// span per cell and the build's program stages from `taamr-obs` as
/// children of the build span.
fn reproduce(config: &PipelineConfig, tracer: &mut Tracer) -> Result<Hashes, String> {
    let mut pipeline = tracer.span("core.build", |t| {
        let before = if t.recording() {
            obs_span_totals()
        } else {
            Vec::new()
        };
        let pipeline = Pipeline::build(config).map_err(|e| format!("build: {e}"));
        if t.recording() {
            let after = obs_span_totals();
            for (stage, layer) in BUILD_STAGES {
                let total = |spans: &[(String, u64)]| {
                    spans
                        .iter()
                        .find(|(n, _)| n == stage)
                        .map_or(0, |&(_, ns)| ns)
                };
                t.child_from_obs(layer, total(&after) - total(&before));
            }
        }
        pipeline
    })?;
    if !tracer.enabled() {
        let report = pipeline
            .run_paper_experiment(None)
            .map_err(|e| format!("experiment: {e}"))?;
        if let Some(err) = report.errors.first() {
            return Err(format!(
                "{}: {} grid cells failed, first: {err:?}",
                config.dataset.name,
                report.errors.len()
            ));
        }
        return Ok(Hashes {
            report: Some(json_hash(&report)),
            outcomes: json_hash(&report.outcomes),
        });
    }
    let mut outcomes: Vec<AttackOutcome> = Vec::new();
    for (kind, scenario, spec) in grid(&pipeline) {
        let outcome = tracer
            .span(cell_span(&spec), |_| {
                pipeline.run_attack(kind, &spec, scenario)
            })
            .map_err(|e| format!("{} cell: {e}", spec.name()))?;
        outcomes.push(outcome);
    }
    Ok(Hashes {
        report: None,
        outcomes: json_hash(&outcomes),
    })
}

/// Checks a unit's hashes against the reference unit's: the report hash
/// where both have one, the outcome hash always.
fn same_result(reference: &[Hashes], got: &[Hashes]) -> Result<(), String> {
    for (want, have) in reference.iter().zip(got) {
        let report_differs = matches!((want.report, have.report), (Some(a), Some(b)) if a != b);
        if report_differs || want.outcomes != have.outcomes {
            return Err(format!(
                "repetition changed the result: {want:?} became {have:?}"
            ));
        }
    }
    Ok(())
}

pub fn run(
    ctx: &Ctx,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Option<EndToEnd> {
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut configs = Vec::new();
    for _ in 0..ctx.setups.max(1) {
        let start = Instant::now();
        configs = tally.op(setup(ctx.seed))?;
        let s = start.elapsed().as_secs_f64();
        setup_s.push(s / cal.interval());
    }
    // A check, not the workload: its memory is left out of the peak.
    heap::uncounted(|| golden_gate(tally));

    // Warm-up unit, untraced: discarded from timing, it fixes the result
    // every later repetition must reproduce.
    let mut plain = Tracer::new(false);
    let reference = tally.op(configs
        .iter()
        .map(|c| reproduce(c, &mut plain))
        .collect::<Result<Vec<_>, _>>())?;

    let mut units = Samples::default();
    let mut counters: Vec<Vec<f64>> = vec![Vec::new(); UNIT_COUNTERS.len()];
    cal.restart();
    let start = Instant::now();
    while !ctx.done(start, units.len()) {
        tracer.next_op();
        let before: Vec<u64> = UNIT_COUNTERS
            .iter()
            .map(|&(c, _)| taamr_obs::counter_value(c))
            .collect();
        let t0 = Instant::now();
        let hashes = tracer.span("paper.unit", |t| {
            configs
                .iter()
                .map(|c| reproduce(c, t))
                .collect::<Result<Vec<_>, _>>()
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if tally
            .op(hashes.and_then(|h| same_result(&reference, &h)))
            .is_some()
        {
            units.push(tracer, ms);
        }
        units.calibrate(cal.interval());
        if tracer.recording() {
            for (i, &(c, _)) in UNIT_COUNTERS.iter().enumerate() {
                counters[i].push((taamr_obs::counter_value(c) - before[i]) as f64);
            }
        }
    }
    tracer.record_all();
    if units.is_empty() {
        return None;
    }
    print_unit_info(
        "paper_repro",
        "unit",
        &units.all(),
        &units.calibrated,
        cal.median_slowdown(),
    );

    if tracer.enabled() && !units.traced.is_empty() {
        let traced = units.traced.len() as f64;
        let self_ms = tracer.self_time_ms();
        // Cell times differ between the two datasets, so a median per
        // family would sit between two modes; the mean does not.
        for (span, metric) in CELLS {
            layers.insert(metric, mean(&tracer.durations_ms(span)));
        }
        layers.insert(
            "core.build_ms",
            tracer.durations_ms("core.build").iter().sum::<f64>() / traced,
        );
        for (span, metric) in [
            ("nn.stage_cnn", "nn.stage_cnn_ms"),
            ("vision.stage_features", "vision.stage_features_ms"),
            ("recsys.stage_train", "recsys.stage_train_ms"),
        ] {
            layers.insert(metric, self_ms.get(span).copied().unwrap_or(0.0) / traced);
        }
        for (i, &(_, name)) in UNIT_COUNTERS.iter().enumerate() {
            layers.insert(name, median(&counters[i]));
        }
        // The leaf layers: the build's program stages and the attack
        // cells. The self time of the unit and build spans is what no
        // layer explains.
        let attributed: f64 = BUILD_STAGES
            .iter()
            .map(|&(_, layer)| layer)
            .chain(CELLS.iter().map(|&(span, _)| span))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter_map(|layer| self_ms.get(layer))
            .sum();
        let unit_total: f64 = tracer.durations_ms("paper.unit").iter().sum();
        layers.insert("trace.paper_coverage_pct", attributed / unit_total * 100.0);

        // CHR@N evaluation, off the unit's blocking path.
        let pipeline = tally.op(Pipeline::build(&configs[0]).map_err(|e| format!("build: {e}")))?;
        let mut chr_ms = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            tracer.next_op();
            tracer.span("metrics.chr", |_| {
                std::hint::black_box(pipeline.chr_per_category(pipeline.model(ModelKind::Vbpr)))
            });
            chr_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        layers.insert("metrics.chr_ms", median(&chr_ms));
    }

    let unit_ms = &units.calibrated;
    Some(EndToEnd {
        time_ms: median(unit_ms),
        ops_per_s: unit_ms.len() as f64 / (unit_ms.iter().sum::<f64>() / 1e3),
        setup_s: median(&setup_s),
        overhead_pct: units.overhead_pct(median),
    })
}
