//! End-to-end and per-layer benchmark of the TAaMR reproduction.
//!
//! ```text
//! taamr-perfbench --workload <paper_repro|catalog_sweep|recommend_churn>
//!                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Untraced (`--trace 0`), a run sets its workload up several times, runs
//! the workload's correctness gates, discards a warm-up pass and then
//! repeats the workload's unit operation for `--seconds` seconds; it
//! reports the end-to-end metrics. Traced (`--trace 1`), it runs the named
//! workload with spans around the outside calls of every other operation,
//! plus a short traced pass of the other two workloads, and reports every
//! per-layer metric together with the tracing overhead and how much of each
//! workload's time its layers account for. The last line of standard output
//! is the JSON result; `perfbench/run.py` builds and drives this binary.

mod calib;
mod churn;
mod heap;
mod paper;
mod serving;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// End-to-end metrics (name, unit), reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("time_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("attack.pgd_cell_ms", "ms"),
    ("attack.fgsm_cell_ms", "ms"),
    ("attack.spsa_cell_ms", "ms"),
    ("attack.embed_cell_ms", "ms"),
    ("core.build_ms", "ms"),
    ("nn.stage_cnn_ms", "ms"),
    ("vision.stage_features_ms", "ms"),
    ("recsys.stage_train_ms", "ms"),
    ("metrics.chr_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("tensor.im2col_calls", "count"),
    ("tensor.col2im_calls", "count"),
    ("tensor.gemm_panel_packs", "count"),
    ("attack.grad_steps", "count"),
    ("attack.queries", "count"),
    ("recsys.scoring_gemm_calls", "count"),
    ("recsys.score_ms", "ms"),
    ("recsys.select_ms", "ms"),
    ("serve.sweep_actor_ms", "ms"),
    ("serve.sweep_encode_ms", "ms"),
    ("serve.sweep_body_bytes", "bytes"),
    ("serve.read_http_us", "us"),
    ("serve.read_tail_us", "us"),
    ("serve.http_rtt_us", "us"),
    ("serve.read_actor_us", "us"),
    ("serve.encode_us", "us"),
    ("recsys.gather_us", "us"),
    ("recsys.select_us", "us"),
    ("serve.miss_actor_us", "us"),
    ("serve.swap_ms", "ms"),
    ("serve.recovery_ms", "ms"),
    ("recsys.embed_rebuild_ms", "ms"),
    ("serve.snapshot_save_ms", "ms"),
    ("serve.snapshot_restore_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.restarts", "count"),
    ("serve.swaps", "count"),
    ("serve.retries", "count"),
    ("serve.coalesced_batches", "count"),
    ("serve.reconnects", "count"),
    ("trace.paper_coverage_pct", "%"),
    ("trace.sweep_coverage_pct", "%"),
    ("trace.churn_coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics giving the share of a workload's traced time that
/// the times of its blocking path's layers add up to, and the range a
/// traced run accepts. The serving workloads take the median of that share
/// over their traced operations: on a machine that switches between fast
/// and slow periods, each layer's time is a mixture of two modes, and a
/// sum of medians is not the median of the sums.
const COVERAGE: [&str; 3] = [
    "trace.paper_coverage_pct",
    "trace.sweep_coverage_pct",
    "trace.churn_coverage_pct",
];
const COVERED: std::ops::RangeInclusive<f64> = 90.0..=110.0;

/// How often an untraced run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 5;

/// What every workload pass needs: its seed, its time budget and a
/// directory it may write snapshots under.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the timed loop runs for.
    pub seconds: f64,
    /// Fewest unit operations the timed loop runs, whatever the time.
    pub min_ops: usize,
    /// Set-ups to time (at least one).
    pub setups: usize,
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Whether a timed loop that started at `start` and ran `ops` unit
    /// operations is done.
    pub fn done(&self, start: Instant, ops: usize) -> bool {
        ops >= self.min_ops && start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Operations attempted and failed, plus the reason for every failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` counts it as failed.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failure (of an operation or of a correctness check).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Unit-operation times (ms) of a timed loop: wall times split by whether
/// the tracer recorded the operation, and every time calibrated to the
/// nominal machine speed (see [`calib`]).
#[derive(Default)]
pub struct Samples {
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
    pub calibrated: Vec<f64>,
    /// Wall times not calibrated yet.
    pending: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, tracer: &Tracer, ms: f64) {
        if tracer.recording() {
            self.traced.push(ms);
        } else {
            self.plain.push(ms);
        }
        self.pending.push(ms);
    }

    /// Calibrates the times pushed since the last call, which all ran in
    /// an interval of the given slowdown.
    pub fn calibrate(&mut self, slowdown: f64) {
        self.calibrated
            .extend(self.pending.drain(..).map(|ms| ms / slowdown));
    }

    pub fn len(&self) -> usize {
        self.plain.len() + self.traced.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn all(&self) -> Vec<f64> {
        self.plain.iter().chain(&self.traced).copied().collect()
    }

    /// `stat` of the traced operations against `stat` of the untraced ones,
    /// in percent, when the loop had both.
    pub fn overhead_pct(&self, stat: impl Fn(&[f64]) -> f64) -> Option<f64> {
        (!self.plain.is_empty() && !self.traced.is_empty())
            .then(|| (stat(&self.traced) / stat(&self.plain) - 1.0) * 100.0)
    }
}

/// The end-to-end numbers of one workload pass, all calibrated.
pub struct EndToEnd {
    /// Median time of the unit operation.
    pub time_ms: f64,
    /// Unit operations per second of time spent in them.
    pub ops_per_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Tracing overhead on `time_ms`, from an alternating tracer.
    pub overhead_pct: Option<f64>,
}

/// Per-layer numbers of a traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Paper,
    Sweep,
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Paper, Workload::Sweep, Workload::Churn];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper_repro",
            Workload::Sweep => "catalog_sweep",
            Workload::Churn => "recommend_churn",
        }
    }

    fn run(
        self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        tally: &mut Tally,
        layers: &mut Layers,
    ) -> Option<EndToEnd> {
        match self {
            Workload::Paper => paper::run(ctx, tracer, tally, layers),
            Workload::Sweep => sweep::run(ctx, tracer, tally, layers),
            Workload::Churn => churn::run(ctx, tracer, tally, layers),
        }
    }

    /// Unit operations of a short traced pass when another workload is
    /// the one named on the command line.
    fn short_pass_ops(self) -> usize {
        match self {
            Workload::Paper => 2,
            Workload::Sweep => 6,
            Workload::Churn => 6,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".to_owned())
}

/// The environment stamp printed ahead of every result.
fn env_stamp(args: &Args) -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"env":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":"{}","cpus":"{}","available_parallelism":{available},"taamr_threads":{},"taamr_threads_env":"{}","git_rev":"{}","build_profile":"{}"}}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        env_or_unknown("PERFBENCH_NPROC"),
        env_or_unknown("PERFBENCH_CPUS"),
        rayon::current_num_threads(),
        env_or_unknown("TAAMR_THREADS"),
        env_or_unknown("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// Untraced run: the end-to-end metrics of the named workload.
fn untraced(args: &Args, tally: &mut Tally) -> Vec<(&'static str, f64, &'static str)> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        min_ops: 3,
        setups: SETUPS,
        work_dir: args.work_dir.join(args.workload.name()),
    };
    let mut layers = Layers::new();
    let e2e = args
        .workload
        .run(&ctx, &mut Tracer::new(false), tally, &mut layers);
    let Some(e2e) = e2e else { return Vec::new() };
    let values = [e2e.time_ms, e2e.ops_per_s, e2e.setup_s, heap::peak_mb()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Traced run: the named workload with every other operation traced (the
/// time ratio of traced to untraced operations is the tracing overhead),
/// then a short, fully traced pass of every other workload. Each pass
/// prints its per-layer self times; its spans go to `trace.json` in the
/// work directory.
fn traced(args: &Args, tally: &mut Tally) -> Vec<(&'static str, f64, &'static str)> {
    let mut layers = Layers::new();
    let mut all_spans = Vec::new();
    for workload in Workload::ALL {
        let primary = workload == args.workload;
        let ctx = Ctx {
            seed: args.seed,
            seconds: if primary { args.seconds } else { 0.0 },
            min_ops: if primary {
                6
            } else {
                workload.short_pass_ops()
            },
            setups: 1,
            work_dir: args.work_dir.join(workload.name()),
        };
        let mut tracer = if primary {
            Tracer::alternating()
        } else {
            Tracer::new(true)
        };
        taamr_obs::reset();
        taamr_obs::set_enabled(true);
        let e2e = workload.run(&ctx, &mut tracer, tally, &mut layers);
        taamr_obs::set_enabled(false);
        if let Some(overhead) = e2e.and_then(|e| e.overhead_pct).filter(|_| primary) {
            layers.insert("trace.overhead_pct", overhead);
        }
        let self_time = tracer.self_time_json();
        println!(
            r#"{{"self_time":{{"workload":"{}","spans":{self_time}}}}}"#,
            workload.name()
        );
        all_spans.push(format!(
            r#""{}":{{"self_time":{self_time},"spans":{}}}"#,
            workload.name(),
            tracer.to_json()
        ));
    }
    for name in COVERAGE {
        if let Some(&pct) = layers.get(name).filter(|pct| !COVERED.contains(*pct)) {
            tally.fail(format!(
                "{name} is {pct:.1}%: the blocking path's layers do not add up to the traced time"
            ));
        }
    }
    let trace_path = args.work_dir.join("trace.json");
    if let Err(e) = std::fs::write(&trace_path, format!("{{{}}}\n", all_spans.join(",\n"))) {
        tally.fail(format!("writing {}: {e}", trace_path.display()));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| match layers.get(name) {
            Some(&v) => (name, v, unit),
            None => {
                tally.fail(format!("per-layer metric {name} was not measured"));
                (name, f64::NAN, unit)
            }
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("taamr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "taamr-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(2);
    }
    println!("{}", env_stamp(&args));
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    for problem in &tally.problems {
        eprintln!("taamr-perfbench: FAILED: {problem}");
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) || metrics.is_empty() {
        eprintln!("taamr-perfbench: no complete result");
        std::process::exit(1);
    }
    println!("{}", result_line(&tally, &metrics));
}
