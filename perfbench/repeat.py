#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace-runs 1] [--out FILE]

Runs ``run.py`` once per seed (seeds first-seed, first-seed+1, ...) for each
workload, printing every metric with its unit, then ``--trace-runs`` traced
runs at the first seed.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  For every end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound in ``BENCHMARK.json``.
``--out`` writes every run's result with the summary, as the recorded
baseline does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "bound": bounds.get(name),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = bench_run(w, seed, args.seconds, 0)
            r["seed"] = seed
            runs.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in r["metrics"].items()),
                  flush=True)
        summary = summarise(runs, bounds)
        for name, s in summary.items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- over bound/3"
            print(f"  {w} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        traced = []
        for _ in range(args.trace_runs):
            t = bench_run(w, args.first_seed, args.seconds, 1)
            t["seed"] = args.first_seed
            traced.append(t)
        record["workloads"][w] = {"runs": runs, "summary": summary, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
