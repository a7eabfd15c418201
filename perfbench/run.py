#!/usr/bin/env python3
"""Builds and runs the TAaMR benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds `perfbench/` (a Cargo
package of its own, release profile) into `$CARGO_TARGET_DIR`, default
`.bench_build`, runs one workload and relays the binary's output. The last
line of standard output is the JSON result; the lines before it stamp the
environment and log workload details. Snapshots go to a scratch directory
under the target directory, removed at exit; a traced run leaves its spans
in `<target>/perfbench-traces/`.

`TAAMR_THREADS` defaults to 1 (set it to override): the client is one
thread, and a second scoring worker on a small shared machine mostly adds
noise. The benchmark process is pinned to the last CPU it may use: the
client, the HTTP worker and the actor then hand requests over on one CPU,
and no read pays a cross-CPU wake-up. Both settings are part of the
environment stamp.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_repro", "catalog_sweep", "recommend_churn")
BINARY = "taamr-perfbench"
# Every run must end within this many seconds; the first run in a fresh
# checkout, which compiles the workspace, gets the longer limit.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(limit_s):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=limit_s)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return target_dir() / "release" / BINARY


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        return f"metrics {sorted(set(result['metrics']) ^ declared)} differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    binary = build(FIRST_RUN_LIMIT_S)
    if binary is None or not binary.exists():
        return 1
    built_s = time.monotonic() - started
    limit = (FIRST_RUN_LIMIT_S if built_s > 10 else RUN_LIMIT_S) - built_s

    work = target_dir() / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    allowed = sorted(os.sched_getaffinity(0))
    pinned = allowed[-1]
    env = dict(os.environ,
               TAAMR_THREADS=os.environ.get("TAAMR_THREADS", "1"),
               PERFBENCH_NPROC=str(len(allowed)),
               PERFBENCH_CPUS=str(pinned),
               PERFBENCH_GIT_REV=git_rev())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {pinned}))
    try:
        out, _ = proc.communicate(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} did not finish within {limit:.0f} s")
        return 1
    finally:
        trace_file = work / "trace.json"
        if trace_file.exists():
            traces = target_dir() / "perfbench-traces"
            traces.mkdir(parents=True, exist_ok=True)
            kept = traces / f"{args.workload}-seed{args.seed}.json"
            shutil.move(str(trace_file), kept)
            print(json.dumps({"trace_file": str(kept)}))
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return proc.returncode or 1
    problem = valid_result(lines[-1], args.trace == 1)
    if problem:
        log(f"invalid result: {problem}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
