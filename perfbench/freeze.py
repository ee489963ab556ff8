#!/usr/bin/env python3
"""Freeze the reference outputs the benchmark's checks compare against.

    python3 perfbench/freeze.py

For each workload, runs its CLI command once at the default seed into
``perfbench/reference/<workload>/`` and writes beside it the generated
config and ``geometry.json``: the seed-independent sizes the invariants
need (k |U_R| and |U_j| per volume, admissible tile positions per volume
and tile, and the frequency rows and positions per pattern domain).
Re-freeze only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

from idsapprox import cli  # noqa: E402
from idsapprox.cayley import admissible_positions, folner_set, shrink  # noqa: E402
from idsapprox.config import RunConfig  # noqa: E402


def geometry(command: str, config: dict) -> dict:
    cfg = RunConfig.from_dict(config)
    model = cfg.model()
    colouring = cfg.colouring(model)
    rule = cfg.rule(model, colouring)
    out: dict = {"N": {}, "volume": {}, "positions": {}}
    for j in config["folner_j"]:
        U = folner_set(model, j).tile
        out["N"][str(j)] = rule.k * len(shrink(U, rule.overall_range))
        out["volume"][str(j)] = len(U)
        for n in config["tile_n"]:
            tile = folner_set(model, n).tile
            out["positions"][f"{j},{n}"] = len(admissible_positions(tile, U))
    if command == "percolation":
        window = folner_set(model, config["freq_window"]).tile
        out["window"] = len(window)
        family = cli._pattern_family(model, colouring.alphabet, config["freq_max_domain"])
        out["frequency_groups"] = [
            [len(list(group)), len(admissible_positions(domain, window))]
            for domain, group in itertools.groupby(family, key=lambda P: P.domain)
        ]
    return out


def main() -> int:
    for name, (command, make_config, _) in run.WORKLOADS.items():
        config = make_config(run.DEFAULT_SEED)
        dest = run.REFERENCE / name
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        config_path = dest / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        rc = cli.main([command, "--config", str(config_path), "--out", str(dest / "outputs")])
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return 1
        (dest / "geometry.json").write_text(
            json.dumps(geometry(command, config), indent=2, sort_keys=True) + "\n"
        )
        print(f"froze {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
