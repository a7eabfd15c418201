//! A non-default seed must run every workload cleanly, untraced and
//! traced: the last line is a correct result with no failed operation and
//! every metric of the mode.

use std::process::Command;

const SEED: &str = "987654321";

fn run(workload: &str, trace: &str) -> String {
    let work =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("seed-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_taamr-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ])
        .arg("--work-dir")
        .arg(&work)
        .env("TAAMR_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn assert_clean(result: &str, metrics: &[&str]) {
    assert!(
        result.starts_with(r#"{"correct":true,"#),
        "incorrect result: {result}"
    );
    assert!(
        result.contains(r#""failed":0,"#),
        "failed operations: {result}"
    );
    for metric in metrics {
        assert!(
            result.contains(&format!(r#""{metric}":{{"value":"#)),
            "{metric} missing: {result}"
        );
    }
}

#[test]
fn every_workload_runs_cleanly_on_a_non_default_seed() {
    for workload in ["paper_repro", "catalog_sweep", "recommend_churn"] {
        assert_clean(
            &run(workload, "0"),
            &["time_ms", "ops_per_s", "setup_s", "peak_heap_mb"],
        );
    }
}

#[test]
fn traced_run_reports_layers_of_every_workload() {
    assert_clean(
        &run("recommend_churn", "1"),
        &[
            "attack.pgd_cell_ms",
            "recsys.select_ms",
            "serve.miss_actor_us",
            "trace.overhead_pct",
        ],
    );
}
