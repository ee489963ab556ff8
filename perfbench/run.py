#!/usr/bin/env python3
"""Benchmark of the idsapprox CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
``src/``.  Each CLI invocation is a fresh process (users pay cold caches on
every invocation), run on a config generated from the seed.  The run
repeats the workload's command until ``--seconds`` have passed (at least
``MIN_INVOCATIONS`` times), checks every invocation's outputs, requires
byte-identical output directories across invocations, and cross-checks the
published counting function on the largest volume against exact
eigenvalue counts from LDL^T inertia.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` (output cells)
and ``metrics``.

With ``--trace 0`` the metrics are end to end (medians over the run's
invocations, times scaled to a reference machine speed measured by a
calibration kernel in every invocation); with ``--trace 1`` untraced and
traced invocations alternate and the metrics are per layer, from the
traced invocation with the median wall time.  See ``perfbench/README.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 1
MIN_INVOCATIONS = 5
SETUP_PROBES = 7
TAU = 1e-9
# energies checked by LDL^T inertia on the largest volume
LDL_ENERGIES = 3
# one BLAS thread: on a few shared cores a second pool thread measures the
# scheduler more than the program
BLAS_THREADS = 1
# calibration seconds per invocation (the kernel before and after the
# command, see child.calibrate) at the reference machine speed; each time
# is reported scaled by SPEED_REF_S / the calibration seconds around it
SPEED_REF_S = 0.25
# every child is killed past this many seconds from the start of the run
RUN_DEADLINE_S = 170


def _percolation_colouring(seed: int) -> dict:
    return {"kind": "percolation", "seed": seed, "params": {"alphabet": ["open", "closed"]}}


def _percolation_operator() -> dict:
    return {"kind": "percolation", "params": {"retained": ["open"]}}


# name -> (CLI command, config from seed, LDL^T check on the largest volume)
WORKLOADS = {
    # certificate-bound, one big connected block; trivial colouring, so
    # the seed does not change the inputs
    "h3_certificates": (
        "ids",
        lambda seed: {
            "group": "h3",
            "colouring": {"kind": "trivial"},
            "operator": {"kind": "adjacency"},
            "folner": {"kind": "tiles"},
            "folner_j": [3, 4, 5, 6],
            "tile_n": [1, 2, 3, 4],
            "frequencies": {"kind": "analytic"},
            "tolerance": TAU,
            "workers": 1,
        },
        True,
    ),
    # pattern-matching-bound: occurrence counts over a 50x50 window
    "z2_perc_frequencies": (
        "percolation",
        lambda seed: {
            "group": "zd",
            "d": 2,
            "colouring": _percolation_colouring(seed),
            "operator": _percolation_operator(),
            "folner": {"kind": "tiles"},
            "folner_j": [8, 12],
            "tile_n": [1, 2],
            "frequencies": {"kind": "analytic"},
            "seeds": [seed, seed + 1],
            "freq_window": 50,
            "freq_max_domain": 3,
            "tolerance": TAU,
            "workers": 1,
        },
        False,
    ),
    # spectra- and assembly-bound: many small percolation clusters
    "z2_perc_ids": (
        "ids",
        lambda seed: {
            "group": "zd",
            "d": 2,
            "colouring": _percolation_colouring(seed),
            "operator": _percolation_operator(),
            "folner": {"kind": "tiles"},
            "folner_j": [30, 40, 50],
            "tile_n": [1, 2],
            "frequencies": {"kind": "analytic"},
            "tolerance": TAU,
            "workers": 1,
        },
        True,
    ),
}

# per-layer self times, in span order of the package's layers
SELF_TIMES = [
    "cayley.boundary",
    "cayley.shrink",
    "cayley.admissible_positions",
    "cayley.folner_set",
    "colouring.occurring_pattern_spectrum",
    "colouring.canonicalize",
    "colouring.count_occurrences",
    "colouring.restrict",
    "colouring.frequency_deviation",
    "operators.restrict_operator",
    "spectra.eigenvalues",
    "spectra.counting_function",
    "ergodic.sup_distance",
    "ids.ids_approximant",
    "ids.ids_certificate",
]
CALLS = [
    "cayley.boundary",
    "cayley.admissible_positions",
    "colouring.canonicalize",
    "colouring.count_occurrences",
    "spectra.eigenvalues",
]
COUNTS = [
    "colouring.occurring_pattern_spectrum.positions",
    "colouring.occurring_pattern_spectrum.classes",
    "operators.rows",
    "operators.nnz",
    "spectra.dim_max",
    "spectra.n3_sum",
    "spectra.components",
    "spectra.largest_block",
]


class Run:
    """One benchmark run: a work directory, its generated config and the
    tally of output cells over every invocation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.command, make_config, self.ldl = WORKLOADS[workload]
        self.config = make_config(seed)
        reference = REFERENCE / workload
        self.geometry = json.loads((reference / "geometry.json").read_text())
        self.golden = reference / "outputs" if seed == DEFAULT_SEED else None
        self.work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_out: Path | None = None
        self.first_digest: str | None = None
        self.count = 0
        self.invocations = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--out", str(out)]

    def child(self, request: dict) -> dict | None:
        """Run child.py in a fresh process; None if it did not finish."""
        self.count += 1
        req = self.work / f"req{self.count}.json"
        res = self.work / f"res{self.count}.json"
        req.write_text(json.dumps(request))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(req), str(res)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            self.messages.append(f"{request['mode']}: timed out")
            return None
        if proc.returncode != 0 or not res.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.messages.append(f"{request['mode']}: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(res.read_text())

    def setup_s(self) -> tuple[float, float]:
        """Median set-up time over SETUP_PROBES fresh processes, after one
        untimed probe that warms the file cache and writes bytecode: as
        measured, and scaled to the reference speed."""
        probes = []
        for _ in range(SETUP_PROBES + 1):
            r = self.child({"mode": "setup", "argv": self.argv(self.work / "unused")})
            if r is None:
                raise RuntimeError("set-up probe failed: " + self.messages[-1])
            probes.append(r)
        probes = probes[1:]
        return (statistics.median(r["setup_s"] for r in probes),
                statistics.median(r["setup_s"] * SPEED_REF_S / r["calib_s"] for r in probes))

    def invoke(self, trace: bool) -> dict | None:
        """One timed CLI invocation, its output checks and determinism check;
        the child's measurements, or None if the command did not exit 0."""
        out = self.work / f"out{self.count + 1}"
        r = self.child({"mode": "command", "argv": self.argv(out), "trace": trace})
        rc = r["rc"] if r is not None else None
        self.invocations += 1
        rep = checks.check_invocation(
            self.command, self.config, self.geometry, rc, out, self.golden, TAU
        )
        if rc == 0:
            digest = checks.digest_dir(out)
            if self.first_digest is None:
                self.first_digest, self.first_out = digest, out
            elif digest != self.first_digest:
                rep.fail_all("output directory differs from the run's first invocation")
            files = [p for p in out.rglob("*") if p.is_file()]
            r["files_written"] = len(files)
            r["bytes_written"] = sum(p.stat().st_size for p in files)
            if out != self.first_out:
                shutil.rmtree(out)
        self.record(rep)
        return r if rc == 0 else None

    def record(self, rep: checks.Report) -> None:
        self.attempted += len(rep.cells)
        self.failed += len(rep.failed)
        for cell, reason in list(rep.failed.items())[:3]:
            self.messages.append(f"{cell}: {reason}")

    def ldl_check(self) -> None:
        """Exact eigenvalue counts below published breakpoints of the
        largest approximant, compared with its counting function."""
        if not self.ldl or self.first_out is None:
            return
        label = checks.labels(self.command, self.config)[0]
        j = max(self.config["folner_j"])
        cell = f"approximant/{label}/j{j}"
        N = self.geometry["N"][str(j)]
        xs, ys = checks.read_step(self.first_out / f"approximant_{label}_j{j}.csv")
        counts = checks.cumulative_counts(ys, N)
        energies, expected = [], []
        for q in range(1, LDL_ENERGIES + 1):
            # widest gap between consecutive breakpoints near the q-th quantile
            centre = q * (len(xs) - 1) // (LDL_ENERGIES + 1)
            lo, hi = max(0, centre - len(xs) // 20), min(len(xs) - 1, centre + len(xs) // 20 + 1)
            i = max(range(lo, hi), key=lambda k: xs[k + 1] - xs[k])
            energies.append((xs[i] + xs[i + 1]) / 2)
            expected.append(counts[i])
        r = self.child({"mode": "ldl", "config": str(self.config_path), "j": j, "energies": energies})
        rep = checks.Report([cell])
        if r is None:
            rep.fail(cell, "LDL^T check did not run")
        elif r["dim"] != N or r["counts"] != expected:
            rep.fail(cell, f"LDL^T counts {r['counts']} at {energies} != published {expected}")
        self.record(rep)
        print(f"# ldl: dim {N}, energies {energies}, published {expected}, inertia "
              f"{None if r is None else r['counts']}", file=sys.stderr)


def another_round(start: float, seconds: float, done: int, minimum: int) -> bool:
    """At least minimum rounds, then only rounds expected to end in time."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def end_to_end(run: Run, seconds: float) -> dict:
    setup_s, setup_ref_s = run.setup_s()
    samples = []
    start = time.perf_counter()
    while another_round(start, seconds, run.invocations, MIN_INVOCATIONS):
        r = run.invoke(trace=False)
        if r is not None:
            samples.append(r)
    if not samples:
        raise RuntimeError("no invocation succeeded: " + "; ".join(run.messages[:5]))
    run.ldl_check()
    print("# wall_s samples: " + " ".join(f"{s['wall_s']:.3f}" for s in samples), file=sys.stderr)
    print("# calib_s samples: " + " ".join(f"{s['calib_s']:.3f}" for s in samples), file=sys.stderr)
    # the shared machine's speed drifts by tens of percent within minutes;
    # the calibration kernel runs in the same process and drifts with it
    for s in samples:
        s["speed"] = SPEED_REF_S / s["calib_s"]
    speed = statistics.median(s["speed"] for s in samples)
    print(f"# measured: wall_s {statistics.median(s['wall_s'] for s in samples):.6g} s, "
          f"cpu_s {statistics.median(s['cpu_s'] for s in samples):.6g} s, "
          f"setup_s {setup_s:.6g} s; median speed factor {speed:.4f}")
    ok = 1.0 - run.failed / run.attempted
    return {
        "wall_s": (statistics.median(s["wall_s"] * s["speed"] for s in samples), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] * s["speed"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "setup_s": (setup_ref_s, "s"),
        "best_cert_total": (checks.best_cert_total(run.first_out, run.config), "1"),
        "ops_ok_frac": (ok, "1"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    plain, traced = [], []
    start = time.perf_counter()
    while another_round(start, seconds, run.invocations // 2, 1):
        for bucket, trace in ((plain, False), (traced, True)):
            r = run.invoke(trace=trace)
            if r is not None:
                bucket.append(r)
    if not (plain and traced):
        raise RuntimeError("no invocation succeeded: " + "; ".join(run.messages[:5]))
    run.ldl_check()
    traced.sort(key=lambda s: s["wall_s"])
    t = traced[len(traced) // 2]
    if t["missing"]:
        print(f"# warning: layer functions not found: {t['missing']}", file=sys.stderr)
    layers, counts = t["layers"], t["counts"]

    def span(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    positions = counts.get("colouring.occurring_pattern_spectrum.positions", 0)
    dim_max = counts.get("spectra.dim_max", 0)
    m["colouring.occurring_pattern_spectrum.class_frac"] = (
        counts.get("colouring.occurring_pattern_spectrum.classes", 0) / positions if positions else 0.0,
        "1",
    )
    m["spectra.largest_block_frac"] = (
        counts.get("spectra.largest_block", 0) / dim_max if dim_max else 0.0,
        "1",
    )
    m["ids.ids_approximant.s"] = (span("ids.ids_approximant", "s"), "s")
    m["ids.ids_certificate.s"] = (span("ids.ids_certificate", "s"), "s")
    m["cli.self_s"] = (span("cli", "self_s"), "s")
    m["cli.files_written"] = (t["files_written"], "count")
    m["cli.bytes_written"] = (t["bytes_written"], "B")
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    self_sum = sum(v["self_s"] for v in layers.values())
    m["trace.wall_s"] = (t["wall_s"], "s")
    m["trace.overhead_s"] = (t["wall_s"] - plain_wall, "s")
    m["trace.analysis_s"] = (span("trace.analysis", "self_s"), "s")
    m["trace.unaccounted_s"] = (t["wall_s"] - self_sum, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "idsapprox" / "cli.py").is_file():
        print(f"error: no idsapprox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for msg in run.messages[:20]:
        print(f"# failure: {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} blas_threads={BLAS_THREADS} "
          f"invocations={run.invocations} output_digest={run.first_digest}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
