"""Batch front end: config in, tables and plot-ready CSV out.

Subcommands: ids, folner-audit, percolation, continuity.  Outputs are
deterministic functions of the effective config (seeds included); exit code
0 on success, 2 on config errors, 3 on an assertion failure inside a cell.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

from .cayley import FiniteSet, folner_set
from .colouring import (
    Pattern,
    PercolationFrequencies,
    canonicalize,
    count_occurrences,
    occurring_pattern_spectrum,
    restrict,
)
from .config import ConfigError, RunConfig
from .ergodic import StepFunction, sup_distance
from .ids import (
    IdsError,
    TestFunction,
    continuity_gap,
    ids_approximant,
    ids_certificate,
    raw_counting_distribution,
)
from .operators import offset_table_rule
from .spectra import BoundViolation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3


class CellAssertionError(RuntimeError):
    """A consistency assertion failed while producing an output cell."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_step_csv(path: Path, step: StepFunction) -> None:
    lines = ["breakpoint,value"]
    for b, v in zip(step.breakpoints, step.values):
        lines.append(f"{_fmt(b)},{_fmt(v)}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _preset_text(name: str) -> str:
    try:
        return (resources.files("idsapprox") / "presets" / f"{name}.json").read_text()
    except FileNotFoundError as exc:
        raise ConfigError("$.preset", f"unknown preset {name!r}") from exc


def load_config(args: argparse.Namespace) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("$", "give either --preset or --config, not both")
    if args.preset:
        obj = json.loads(_preset_text(args.preset))
    elif args.config:
        try:
            obj = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError("$", f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
    else:
        raise ConfigError("$", "a --preset or --config is required")
    if args.folner_j:
        obj["folner_j"] = [int(p) for p in args.folner_j.split(",")]
    if args.tile_n:
        obj["tile_n"] = [int(p) for p in args.tile_n.split(",")]
    if args.workers:
        obj["workers"] = args.workers
    if args.seed is not None:
        obj.setdefault("colouring", {})["seed"] = args.seed
    return RunConfig.from_dict(obj)


# -- ids -------------------------------------------------------------------------


def cmd_ids(cfg: RunConfig, outdir: Path) -> None:
    model = cfg.model()
    colouring = cfg.colouring(model)
    rule = cfg.rule(model, colouring)
    sides = cfg.folner_sides(model)
    js = cfg.folner_indices()
    specs = cfg.tiling_specs(model)
    tau = cfg.tolerance
    emit_raw = bool(cfg.raw.get("emit_raw_counting", False))
    emit_eigs = bool(cfg.raw.get("emit_eigenvalues", False))
    if not js:
        print("warning: empty folner_j list; nothing to do", file=sys.stderr)
        _write_json(outdir / "certificates.json", {"rows": [], "errors": []})
        _write_json(outdir / "summary.json", {"per_j": []})
        return

    cert_rows: list[dict] = []
    errors: list[dict] = []
    summary: list[dict] = []

    for side in sorted(sides):
        make = sides[side]
        volumes = {j: make(j) for j in js}
        freq_spec = cfg.raw.get("frequencies", {})
        ref_j = int(freq_spec.get("reference_j", max(js)))
        reference = volumes.get(ref_j) or make(ref_j)
        freqs = cfg.frequency_provider(model, colouring, reference)

        def build(j: int):
            try:
                return j, ids_approximant(rule, colouring, volumes[j], tau=tau), None
            except IdsError as exc:
                return j, None, str(exc)

        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                built = list(pool.map(build, js))
        else:
            built = [build(j) for j in js]

        approx = {}
        for j, ap, err in sorted(built):
            if err is not None:
                errors.append({"side": side, "j": j, "error": err})
                continue
            approx[j] = ap
            _write_step_csv(outdir / f"approximant_{side}_j{j}.csv", ap.step)
            if emit_raw:
                raw_step = raw_counting_distribution(rule, colouring, volumes[j], tau)
                _write_step_csv(outdir / f"counting_{side}_j{j}.csv", raw_step)
            if emit_eigs:
                pos, h = ap.step.jumps()
                lines = ["eigenvalue,multiplicity"]
                for b, height in zip(pos, h):
                    mult = int(round(height * ap.normalization))
                    lines.append(f"{_fmt(b)},{mult}")
                _write_text(outdir / f"eigenvalues_{side}_j{j}.csv", "\n".join(lines) + "\n")

        side_certs: dict[tuple[int, int], float] = {}
        for spec in specs:
            for j in sorted(approx):
                cert = ids_certificate(rule, colouring, volumes[j], spec, freqs, j=j)
                row = cert.as_dict()
                row["side"] = side
                if cfg.raw["group"] == "zd":
                    # cube-shell weakening of the tile term; display only, the
                    # weakened Folner coefficient does not dominate in general
                    d = int(cfg.raw["d"])
                    R = rule.overall_range
                    row["weak_tile_term"] = 8.0 * ((1 + 4 * R / spec.n) ** d - 1)
                    row["weak_folner_coeff"] = 1.0 + 4.0 * (2 * R) ** d
                cert_rows.append(row)
                side_certs[(j, spec.n)] = cert.total
        # fail fast: every emitted row must satisfy triangle consistency
        for spec in specs:
            for j1, j2 in itertools.combinations(sorted(approx), 2):
                d = sup_distance(approx[j1].step, approx[j2].step)
                budget = side_certs[(j1, spec.n)] + side_certs[(j2, spec.n)]
                if d > budget + 1e-10:
                    raise CellAssertionError(
                        f"triangle consistency failed: side={side} n={spec.n} "
                        f"j={j1},{j2}: distance {d} > budget {budget}"
                    )
        for j in sorted(approx):
            totals = [(side_certs[(j, spec.n)], spec.n) for spec in specs]
            if totals:
                best_total, best_n = min(totals)
                summary.append(
                    {"side": side, "j": j, "best_n": best_n, "best_total": best_total}
                )

    cert_rows.sort(key=lambda r: (r["side"], r["j"], r["n"]))
    _write_json(outdir / "certificates.json", {"rows": cert_rows, "errors": errors})
    _write_json(outdir / "summary.json", {"per_j": summary})


# -- folner audit ------------------------------------------------------------------


def cmd_folner_audit(cfg: RunConfig, outdir: Path) -> None:
    model = cfg.model()
    rows = []
    prev_ratio: Optional[Fraction] = None
    for n in cfg.tile_indices():
        spec = folner_set(model, n)
        tile = spec.tile
        sphere = tile
        for s in model.generators:
            sphere = sphere.union(tile.right_translate(s))
        grown = len(sphere) - len(tile)
        if model.describe() == "H3":
            expected = 5 * n**3 - 2 * n**2 + n
            if grown != expected:
                raise CellAssertionError(
                    f"H3 boundary formula failed at n={n}: {grown} != {expected}"
                )
        ratio = Fraction(grown, len(tile))
        if prev_ratio is not None and not ratio < prev_ratio:
            raise CellAssertionError(f"boundary ratio not strictly decreasing at n={n}")
        prev_ratio = ratio
        rows.append(
            {
                "n": n,
                "tile_size": len(tile),
                "sphere_size": grown,
                "ratio": float(ratio),
                "diameter": tile.diameter,
                "bounding_diameter": spec.bounding_diameter,
            }
        )
    lines = ["n,tile_size,sphere_size,ratio,diameter,bounding_diameter"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['tile_size']},{r['sphere_size']},{_fmt(r['ratio'])},"
            f"{r['diameter']},{r['bounding_diameter']}"
        )
    _write_text(outdir / "folner_audit.csv", "\n".join(lines) + "\n")
    _write_json(outdir / "folner_audit.json", {"rows": rows})


# -- percolation -------------------------------------------------------------------


def _pattern_family(model, alphabet, max_domain: int) -> list[Pattern]:
    d = model.dim
    e = model.identity

    def vec(i: int) -> tuple[int, ...]:
        out = [0] * d
        out[i] = 1
        return tuple(out)

    domains = [[e]]
    if max_domain >= 2:
        domains.append([e, vec(0)])
        if d >= 2:
            domains.append([e, vec(1)])
    if max_domain >= 3:
        domains.append([e, vec(0), tuple(2 * c for c in vec(0))])
        if d >= 2:
            domains.append([e, vec(0), vec(1)])
            domains.append(
                [e, vec(0), tuple(a + b for a, b in zip(vec(0), vec(1)))]
            )
    out = []
    for dom in domains:
        fs = FiniteSet(model, dom)
        for symbols in itertools.product(alphabet.symbols, repeat=len(dom)):
            out.append(Pattern(fs, dict(zip(fs.sorted_elements, symbols))))
    return out


def cmd_percolation(cfg: RunConfig, outdir: Path) -> None:
    model = cfg.model()
    seeds = [int(s) for s in cfg.raw.get("seeds", [0])]
    window_side = int(cfg.raw.get("freq_window", 100))
    max_domain = int(cfg.raw.get("freq_max_domain", 3))
    window = folner_set(model, window_side).tile
    lines = ["seed,pattern,domain_size,count,empirical,analytic,abs_diff"]
    cert_rows = []
    errors = []
    for seed in seeds:
        colouring = cfg.colouring(model, seed_override=seed)
        analytic = PercolationFrequencies(colouring)
        family = _pattern_family(model, colouring.alphabet, max_domain)
        window_pattern = restrict(colouring, window)
        for P in family:
            cls = canonicalize(P)
            count = count_occurrences(P, window_pattern)
            emp = Fraction(count, len(window))
            ana = analytic.frequency(cls)
            lines.append(
                f"{seed},{cls.digest()},{len(P)},{count},"
                f"{_fmt(emp)},{_fmt(ana)},{_fmt(abs(emp - ana))}"
            )
        rule = cfg.rule(model, colouring)
        for j in cfg.folner_indices():
            U = folner_set(model, j).tile
            try:
                ap = ids_approximant(rule, colouring, U, tau=cfg.tolerance)
            except IdsError as exc:
                errors.append({"seed": seed, "j": j, "error": str(exc)})
                continue
            _write_step_csv(outdir / f"approximant_seed{seed}_j{j}.csv", ap.step)
            for spec in cfg.tiling_specs(model):
                cert = ids_certificate(rule, colouring, U, spec, analytic, j=j)
                row = cert.as_dict()
                row["seed"] = seed
                cert_rows.append(row)
                # occurring-class spectrum of the tile over this volume
                spectrum = occurring_pattern_spectrum(colouring, spec.tile, U)
                spec_lines = ["pattern,count,empirical,analytic"]
                for cls, entry in sorted(
                    spectrum.items(), key=lambda kv: kv[0].key
                ):
                    emp = Fraction(entry.count, len(U))
                    spec_lines.append(
                        f"{cls.digest()},{entry.count},{_fmt(emp)},"
                        f"{_fmt(analytic.frequency(cls))}"
                    )
                _write_text(
                    outdir / f"spectrum_seed{seed}_j{j}_n{spec.n}.csv",
                    "\n".join(spec_lines) + "\n",
                )
    _write_text(outdir / "frequencies.csv", "\n".join(lines) + "\n")
    cert_rows.sort(key=lambda r: (r["seed"], r["j"], r["n"]))
    _write_json(outdir / "certificates.json", {"rows": cert_rows, "errors": errors})


# -- continuity --------------------------------------------------------------------


def _seeded_symmetric_tables(model, seed: int) -> tuple[dict, dict]:
    """Base hop table on B_1 plus a unit perturbation direction, both symmetric."""
    rng = random.Random(seed)
    offsets = model.ball(1).sorted_elements
    base: dict = {}
    unit: dict = {}
    for w in offsets:
        w_inv = model.inverse(w)
        if w_inv in base and w not in base:
            base[w] = base[w_inv]
            unit[w] = unit[w_inv]
            continue
        if w in base:
            continue
        base[w] = rng.uniform(-1.0, 1.0)
        unit[w] = rng.uniform(-1.0, 1.0)
    return base, unit


def cmd_continuity(cfg: RunConfig, outdir: Path) -> None:
    model = cfg.model()
    colouring = cfg.colouring(model)
    side = int(cfg.raw.get("volume_side", 20))
    U = folner_set(model, side).tile
    seed = int(cfg.raw.get("kernel_seed", 1))
    base, unit = _seeded_symmetric_tables(model, seed)
    rule_h = offset_table_rule(model, base, name="H")
    bump = TestFunction.bump(center=0.0, halfwidth=6.0)
    epsilons = [float(e) for e in cfg.raw.get("epsilons", [1e-1, 1e-2, 1e-3])]
    lines = ["epsilon,gap,bound"]
    for eps in epsilons:
        table_g = {w: v + eps * unit[w] for w, v in base.items()}
        rule_g = offset_table_rule(model, table_g, name="G")
        res = continuity_gap(rule_h, rule_g, colouring, eps, bump, U, tau=cfg.tolerance)
        lines.append(f"{_fmt(res.epsilon)},{_fmt(res.gap)},{_fmt(res.bound)}")
    _write_text(outdir / "continuity.csv", "\n".join(lines) + "\n")


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsapprox",
        description="IDS approximants with computable error certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ids", "folner-audit", "percolation", "continuity"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--preset", help="name of a shipped preset config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=0, help="worker pool size")
        p.add_argument("--seed", type=int, default=None, help="override colouring seed")
        p.add_argument("--folner-j", default="", help="override folner_j (comma list)")
        p.add_argument("--tile-n", default="", help="override tile_n (comma list)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(json.dumps(exc.as_json(), sort_keys=True), file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    dispatch = {
        "ids": cmd_ids,
        "folner-audit": cmd_folner_audit,
        "percolation": cmd_percolation,
        "continuity": cmd_continuity,
    }
    try:
        dispatch[args.command](cfg, outdir)
    except ConfigError as exc:
        print(json.dumps(exc.as_json(), sort_keys=True), file=sys.stderr)
        return EXIT_CONFIG
    except (CellAssertionError, BoundViolation) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
