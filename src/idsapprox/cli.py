"""Batch front end: config in, tables and plot-ready CSV out.

Commands: ids, folner-audit, percolation, continuity.  Outputs are
deterministic functions of the effective config (seeds included); exit code
0 on success, 2 on config errors, 3 on an assertion failure inside a cell.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Optional

from .cayley import FiniteSet, boundary_ext, folner_set
from .colouring import (
    Pattern,
    PercolationFrequencies,
    canonicalize,
    occurring_pattern_spectrum,
)
from .config import ConfigError, RunConfig, check_set_size, tile_points
from .ergodic import StepFunction, sup_distance
from .ids import (
    IdsError,
    TestFunction,
    continuity_gap,
    counting_functions,
    ids_approximants,
    ids_certificate,
)
from .operators import offset_table_rule
from .spectra import BoundViolation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3
# largest k|U| of the continuity check, which builds both restrictions as dense
# 2500^2 matrices (100 MB) for its entrywise hypothesis check
CONTINUITY_MAX_DIM = 2500


class CellAssertionError(RuntimeError):
    """A consistency assertion failed while producing an output cell."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_step_csv(path: Path, step: StepFunction) -> None:
    pairs = step.breakpoints.repeat(2)  # one %-format over the interleaved pairs
    pairs[1::2] = step.values  # "%.17g" formats as _fmt does
    rows = "%.17g,%.17g\n" * len(step.values) % tuple(pairs.tolist())
    _write_text(path, "breakpoint,value\n" + rows)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _preset_text(name: str) -> str:
    try:
        return (Path(__file__).parent / "presets" / f"{name}.json").read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError("$.preset", f"unknown preset {name!r}") from exc


def _int_list(text: str, path: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(path, f"expected a comma list of integers, got {text!r}") from exc


def _finite(text: str) -> float:
    """JSON float hook: rejects NaN, +-Infinity and literals that overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError("$", f"non-finite number {text} in config")
    return value


def load_config(args: SimpleNamespace) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("$", "give either --preset or --config, not both")
    if args.preset:
        text = _preset_text(args.preset)
    elif args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ConfigError("$", f"config file not found: {args.config}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("$", f"cannot read config file {args.config}: {exc}") from exc
    else:
        raise ConfigError("$", "a --preset or --config is required")
    try:
        obj = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("$", "top-level config must be an object")
    if args.folner_j:
        obj["folner_j"] = _int_list(args.folner_j, "$.folner_j")
    if args.tile_n:
        obj["tile_n"] = _int_list(args.tile_n, "$.tile_n")
    if args.seed is not None:
        try:
            seed = int(args.seed)
        except ValueError as exc:
            raise ConfigError("$.colouring.seed", f"expected an integer, got {args.seed!r}") from exc
        colouring = obj.setdefault("colouring", {})
        if isinstance(colouring, dict):  # anything else fails validation at $.colouring
            colouring["seed"] = seed
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
        ref_j = freq_spec.get("reference_j", max(js))
        reference = volumes.get(ref_j) or make(ref_j)
        freqs = cfg.frequency_provider(colouring, reference)

        approx = {}
        for j, ap in zip(js, ids_approximants(rule, colouring, [volumes[j] for j in js], tau)):
            if isinstance(ap, IdsError):
                errors.append({"side": side, "j": j, "error": str(ap)})
                continue
            approx[j] = ap
            _write_step_csv(outdir / f"approximant_{side}_j{j}.csv", ap.step)
            if emit_eigs:
                pos, h = ap.step.jumps()
                lines = ["eigenvalue,multiplicity"]
                for b, height in zip(pos, h):
                    mult = int(round(height * ap.normalization))
                    lines.append(f"{_fmt(b)},{mult}")
                _write_text(outdir / f"eigenvalues_{side}_j{j}.csv", "\n".join(lines) + "\n")
        if emit_raw:  # n(H[U]) / (k |U|) of every volume, without the shrink
            raw = counting_functions(rule, colouring, [volumes[j] for j in approx], tau)
            for j, step in zip(approx, raw):
                step = step.over(float(rule.k * len(volumes[j])))
                _write_step_csv(outdir / f"counting_{side}_j{j}.csv", step)

        side_certs: dict[tuple[int, int], float] = {}
        for spec in specs:
            for j in sorted(approx):
                cert = ids_certificate(rule, colouring, volumes[j], spec, freqs, j=j)
                row = cert.as_dict()
                row["side"] = side
                if cfg.raw["group"] == "zd":
                    # cube-shell weakening of the tile term; display only, the
                    # weakened Folner coefficient does not dominate in general
                    d = cfg.raw["d"]
                    R = rule.overall_range
                    row["weak_tile_term"] = 8.0 * ((1 + 4 * R / spec.n) ** d - 1)
                    row["weak_folner_coeff"] = 1.0 + 4.0 * (2 * R) ** d
                cert_rows.append(row)
                side_certs[(j, spec.n)] = cert.total
        # fail fast: every emitted row must satisfy triangle consistency
        for j1, j2 in itertools.combinations(sorted(approx), 2):
            d = sup_distance(approx[j1].step, approx[j2].step)
            for spec in specs:
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
                summary.append({"side": side, "j": j, "best_n": best_n, "best_total": best_total})

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
        grown = len(boundary_ext(tile, 1))
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
    e = model.identity
    x, y = (tuple(int(i == k) for i in range(model.dim)) for k in (0, 1))
    xx, xy = tuple(2 * c for c in x), tuple(a + b for a, b in zip(x, y))
    # on Z^1, y is the identity and the domains holding it twice are dropped
    domains = [[e], [e, x], [e, y], [e, x, xx], [e, x, y], [e, x, xy]]
    domains = [dom for dom in domains if len(set(dom)) == len(dom) <= max_domain]
    out = []
    for dom in domains:
        fs = FiniteSet(model, dom)
        for symbols in itertools.product(alphabet.symbols, repeat=len(dom)):
            out.append(Pattern(fs, dict(zip(fs, symbols))))
    return out


def cmd_percolation(cfg: RunConfig, outdir: Path) -> None:
    if cfg.raw["colouring"]["kind"] != "percolation":
        raise ConfigError("$.colouring.kind", "percolation needs a percolation colouring")
    model = cfg.model()
    seeds = cfg.raw.get("seeds", [cfg.raw["colouring"]["seed"]])
    window_side = cfg.raw.get("freq_window", 100)
    check_set_size("$.freq_window", window_side, tile_points(cfg.raw, window_side))  # the default too
    max_domain = cfg.raw.get("freq_max_domain", 3)
    window = folner_set(model, window_side).tile
    # one set per volume and tile, so each keeps its shrinks across seeds
    volumes = {j: folner_set(model, j).tile for j in cfg.folner_indices()}
    specs = cfg.tiling_specs(model)
    # the alphabet and weights, hence the family and its frequencies, are seed-free
    analytic = PercolationFrequencies(cfg.colouring(model))
    family = []
    for P in _pattern_family(model, analytic.colouring.alphabet, max_domain):
        cls = canonicalize(P)
        family.append((P.domain, cls, f"{cls.digest()},{len(P)}", analytic.frequency(cls)))
    lines = ["seed,pattern,domain_size,count,empirical,analytic,abs_diff"]
    cert_rows = []
    errors = []
    for seed in seeds:
        colouring = cfg.colouring(model, seed_override=seed)
        spectra = {}  # per domain: the occurring spectrum over the window
        for domain, cls, name, ana in family:
            if domain not in spectra:
                spectra[domain] = occurring_pattern_spectrum(colouring, domain, window)
            entry = spectra[domain].get(cls)
            count = 0 if entry is None else entry.count
            emp = Fraction(count, len(window))
            lines.append(f"{seed},{name},{count},{_fmt(emp)},{_fmt(ana)},{_fmt(abs(emp - ana))}")
        rule = cfg.rule(model, colouring)
        approx = ids_approximants(rule, colouring, list(volumes.values()), cfg.tolerance)
        for (j, U), ap in zip(volumes.items(), approx):
            if isinstance(ap, IdsError):
                errors.append({"seed": seed, "j": j, "error": str(ap)})
                continue
            _write_step_csv(outdir / f"approximant_seed{seed}_j{j}.csv", ap.step)
            for spec in specs:
                # occurring-class spectrum of the tile over this volume
                spectrum = occurring_pattern_spectrum(colouring, spec.tile, U)
                cert = ids_certificate(rule, colouring, U, spec, analytic, j=j, spectrum=spectrum)
                row = cert.as_dict()
                row["seed"] = seed
                cert_rows.append(row)
                spec_lines = ["pattern,count,empirical,analytic"]
                # one domain for every class: their symbols order them as their keys do
                for cls, entry in sorted(
                    spectrum.items(), key=lambda kv: kv[0].canonical.symbols.tolist()
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
    base: dict = {}
    unit: dict = {}
    for w in model.ball(1):
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
    side = cfg.raw.get("volume_side", 20)
    seed = cfg.raw.get("kernel_seed", 1)
    base, unit = _seeded_symmetric_tables(model, seed)
    rule_h = offset_table_rule(model, base, name="H")
    dim = rule_h.k * tile_points(cfg.raw, side)  # checked before the volume is built
    if dim > CONTINUITY_MAX_DIM:
        raise ConfigError("$.volume_side", f"restriction dimension {dim} exceeds {CONTINUITY_MAX_DIM}")
    U = folner_set(model, side).tile
    bump = TestFunction.bump(center=0.0, halfwidth=6.0)
    epsilons = [float(e) for e in cfg.raw.get("epsilons", [1e-1, 1e-2, 1e-3])]
    lines = ["epsilon,gap,bound"]
    for eps in epsilons:
        table_g = {w: v + eps * unit[w] for w, v in base.items()}
        rule_g = offset_table_rule(model, table_g, name="G")
        res = continuity_gap(rule_h, rule_g, colouring, eps, bump, U)
        lines.append(f"{_fmt(res.epsilon)},{_fmt(res.gap)},{_fmt(res.bound)}")
    _write_text(outdir / "continuity.csv", "\n".join(lines) + "\n")


# -- entry point -------------------------------------------------------------------


COMMANDS = ("ids", "folner-audit", "percolation", "continuity")
OPTIONS = {  # each takes one value, as --name value or --name=value
    "--config": "path to a JSON run config",
    "--preset": "name of a shipped preset config",
    "--out": "output directory (required)",
    "--seed": "override colouring seed",
    "--folner-j": "override folner_j (comma list)",
    "--tile-n": "override tile_n (comma list)",
}
USAGE = """usage: idsapprox [-h] [--config CONFIG] [--preset PRESET] --out OUT
                 [--seed SEED] [--folner-j FOLNER_J] [--tile-n TILE_N]
                 {ids,folner-audit,percolation,continuity}
"""


class Parser:
    """One command and the OPTIONS, named in full, in any order.  Help and
    usage errors print and exit as argparse's do: 0 and 2."""

    def error(self, message: str) -> NoReturn:
        sys.stderr.write(f"{USAGE}idsapprox: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)

    def parse_args(self, argv: Optional[list[str]] = None) -> SimpleNamespace:
        args = dict(command=None, config=None, preset=None, out=None, seed=None, folner_j="", tile_n="")
        words = iter(sys.argv[1:] if argv is None else argv)
        for word in words:
            if word in ("-h", "--help"):
                print(f"{USAGE}\nIDS approximants with computable error certificates\n\noptions:")
                print("  -h, --help            show this help message and exit")
                for flag, text in OPTIONS.items():
                    print(f"  {flag} {flag[2:].upper().replace('-', '_')}".ljust(24) + text)
                raise SystemExit(EXIT_OK)
            if word.startswith("-"):
                name, eq, value = word.partition("=")
                if name not in OPTIONS:
                    self.error(f"unrecognized arguments: {word}")
                if not eq:
                    value = next(words, "--")
                    if value.startswith("--"):
                        self.error(f"argument {name}: expected one argument")
                args[name[2:].replace("-", "_")] = value
            elif args["command"] is not None:
                self.error(f"unrecognized arguments: {word}")
            elif word not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                self.error(f"argument command: invalid choice: {word!r} (choose from {choices})")
            else:
                args["command"] = word
        missing = [name for name, key in (("command", "command"), ("--out", "out")) if args[key] is None]
        if missing:
            self.error("the following arguments are required: " + ", ".join(missing))
        return SimpleNamespace(**args)


def build_parser() -> Parser:
    return Parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        cfg = load_config(args)
        if not args.out:  # Path("") is the working directory
            raise ConfigError("--out", "the output directory is empty")
        # fail before any work if the output directory cannot be made
        nearest = next(p for p in (outdir, *outdir.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError("--out", f"{nearest} is not a directory")
    except ConfigError as exc:
        print(json.dumps(exc.as_json(), sort_keys=True), file=sys.stderr)
        return EXIT_CONFIG
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
