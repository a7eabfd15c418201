#!/usr/bin/env python3
"""Spread report: runs each workload several times and summarises every metric.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b]

Run from the root of a checkout. Run i of a workload uses seed i and
BENCHMARK.json's `run_seconds`. For every metric of the result line (and every number of
the workload's `info` line) the report prints the median, the quartiles,
the min and max and the quartile spread as a share of the median, as
Python's `statistics.quantiles(values, n=4)` gives them, with the bound
from BENCHMARK.json and whether the spread stays under a third of it. Exits non-zero if any run fails or is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, {}
    info = {}
    for line in lines[:-1]:
        obj = json.loads(line)
        for key, value in obj.get("info", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                info[f"info.{key}"] = value
    return json.loads(lines[-1]), info


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.runs + 1):
            result, info = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {result}", flush=True)
                ok = False
                continue
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in info.items():
                values.setdefault(name, []).append(value)
        rows = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'spread':>7}  bound")
        for name, row in rows.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"{bound:.2f} {'ok' if row['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:32} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['min']:12.6g} {row['max']:12.6g} {row['spread']:7.2%}  {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
