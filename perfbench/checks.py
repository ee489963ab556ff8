"""Output checks for one CLI invocation.

A cell is one approximant, one certificate row or one frequency row; each
check failure marks the cell it belongs to.  Invariants hold at any seed:

- each approximant is monotone, ends at 1, and its multiplicities are
  integers summing to k |U_R|;
- each certificate total equals the sum of its four terms, and the
  summary names the smallest total per volume;
- spectrum counts sum to the number of admissible tile positions, and
  frequency counts per pattern domain to the number of domain positions.

The seed-independent sizes (k |U_R|, |U_j|, positions) come from
``geometry.json`` beside the frozen reference.  At the default seed every
cell is also compared with the frozen reference outputs: counts,
multiplicities, certificate terms and frequencies exactly, breakpoints
within tau.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional


def fmt(x) -> str:
    """The CLI's float format."""
    return format(float(x), ".17g")


def read_step(path: Path) -> tuple[list[float], list[float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "breakpoint,value":
        raise ValueError(f"{path.name}: bad header")
    xs, ys = [], []
    for line in lines[1:]:
        b, v = line.split(",")
        xs.append(float(b))
        ys.append(float(v))
    return xs, ys


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def cumulative_counts(values: list[float], N: int) -> Optional[list[int]]:
    """Integer cumulative counts behind a normalised step function, or None."""
    counts = []
    for v in values:
        c = v * N
        r = round(c)
        if abs(c - r) > 1e-6:
            return None
        counts.append(r)
    return counts


class Report:
    def __init__(self, cells: list[str]) -> None:
        self.cells = cells
        self.failed: dict[str, str] = {}

    def fail(self, cell: str, reason: str) -> None:
        self.failed.setdefault(cell, reason)

    def fail_all(self, reason: str, prefix: str = "") -> None:
        for cell in self.cells:
            if cell.startswith(prefix):
                self.fail(cell, reason)


def labels(command: str, config: dict) -> list[str]:
    """Output labels: the volume side for ``ids``, the seed for ``percolation``."""
    if command == "percolation":
        return [f"seed{s}" for s in config["seeds"]]
    return ["tiles"]


def expected_cells(command: str, config: dict, geometry: dict) -> list[str]:
    cells = []
    for label in labels(command, config):
        for j in config["folner_j"]:
            cells.append(f"approximant/{label}/j{j}")
            cells += [f"certificate/{label}/j{j}/n{n}" for n in config["tile_n"]]
        if command == "percolation":
            rows = sum(size for size, _ in geometry["frequency_groups"])
            cells += [f"frequency/{label}/{i}" for i in range(rows)]
    return cells


def _row_label(row: dict) -> str:
    return row["side"] if "side" in row else f"seed{row['seed']}"


def check_invocation(
    command: str,
    config: dict,
    geometry: dict,
    rc: Optional[int],
    outdir: Path,
    reference: Optional[Path],
    tau: float,
) -> Report:
    rep = Report(expected_cells(command, config, geometry))
    if rc != 0:
        rep.fail_all(f"exit code {rc}")
        return rep
    _check_approximants(rep, command, config, geometry, outdir, reference, tau)
    _check_certificates(rep, command, config, outdir, reference)
    if command == "percolation":
        _check_spectra(rep, config, geometry, outdir, reference)
        _check_frequencies(rep, config, geometry, outdir, reference)
    return rep


def _check_approximants(rep, command, config, geometry, outdir, reference, tau) -> None:
    for label in labels(command, config):
        for j in config["folner_j"]:
            cell = f"approximant/{label}/j{j}"
            name = f"approximant_{label}_j{j}.csv"
            N = geometry["N"][str(j)]
            try:
                xs, ys = read_step(outdir / name)
            except (OSError, ValueError) as exc:
                rep.fail(cell, f"unreadable: {exc}")
                continue
            counts = cumulative_counts(ys, N)
            if not xs or counts is None:
                rep.fail(cell, "multiplicities are not integers for k|U_R|")
                continue
            if any(b >= a for a, b in zip(xs[1:], xs)):
                rep.fail(cell, "breakpoints not increasing")
            if counts[0] <= 0 or any(b >= a for a, b in zip(counts[1:], counts)):
                rep.fail(cell, "not monotone")
            if ys[-1] != 1.0 or counts[-1] != N:
                rep.fail(cell, f"ends at {ys[-1]}, multiplicities sum to {counts[-1]} != {N}")
            if reference is None:
                continue
            rxs, rys = read_step(reference / name)
            if cumulative_counts(rys, N) != counts:
                rep.fail(cell, "counts differ from reference")
            elif max(abs(a - b) for a, b in zip(xs, rxs)) > tau:
                rep.fail(cell, "breakpoints differ from reference by more than tau")


def _certificate_rows(path: Path) -> tuple[dict, list]:
    data = json.loads(path.read_text())
    rows = {f"certificate/{_row_label(r)}/j{r['j']}/n{r['n']}": r for r in data["rows"]}
    return rows, data["errors"]


def _check_certificates(rep, command, config, outdir, reference) -> None:
    try:
        rows, errors = _certificate_rows(outdir / "certificates.json")
    except (OSError, ValueError, KeyError) as exc:
        rep.fail_all(f"certificates.json unreadable: {exc}", "certificate/")
        return
    for err in errors:
        rep.fail(f"approximant/{_row_label(err)}/j{err['j']}", f"error entry: {err['error']}")
    ref_rows = _certificate_rows(reference / "certificates.json")[0] if reference else {}
    for cell in rep.cells:
        if not cell.startswith("certificate/"):
            continue
        row = rows.get(cell)
        if row is None:
            rep.fail(cell, "missing row")
            continue
        terms = [row["tile_term"], row["folner_term"], row["freq_term"], row["renorm_term"]]
        if not all(math.isfinite(t) and t >= 0 for t in terms):
            rep.fail(cell, f"bad terms {terms}")
        if row["total"] != ((terms[0] + terms[1]) + terms[2]) + terms[3]:
            rep.fail(cell, "total is not the sum of the four terms")
        if reference is not None and row != ref_rows.get(cell):
            rep.fail(cell, "row differs from reference")
    if command != "ids":
        return
    try:
        summary = json.loads((outdir / "summary.json").read_text())["per_j"]
    except (OSError, ValueError, KeyError) as exc:
        rep.fail_all(f"summary.json unreadable: {exc}", "certificate/")
        return
    ref_summary = (
        json.loads((reference / "summary.json").read_text())["per_j"] if reference else None
    )
    if ref_summary is not None and summary != ref_summary:
        rep.fail_all("summary differs from reference", "certificate/")
    for entry in summary:
        prefix = f"certificate/{entry['side']}/j{entry['j']}/"
        totals = [(r["total"], r["n"]) for c, r in rows.items() if c.startswith(prefix)]
        if not totals or (entry["best_total"], entry["best_n"]) != min(totals):
            rep.fail_all("summary does not name the smallest total", prefix)


def _check_spectra(rep, config, geometry, outdir, reference) -> None:
    for s in config["seeds"]:
        for j in config["folner_j"]:
            volume = geometry["volume"][str(j)]
            for n in config["tile_n"]:
                cell = f"certificate/seed{s}/j{j}/n{n}"
                name = f"spectrum_seed{s}_j{j}_n{n}.csv"
                try:
                    text = (outdir / name).read_text()
                except OSError:
                    rep.fail(cell, f"missing {name}")
                    continue
                total = 0
                for line in text.splitlines()[1:]:
                    _, count, emp, _ = line.split(",")
                    total += int(count)
                    if emp != fmt(Fraction(int(count), volume)):
                        rep.fail(cell, f"{name}: empirical frequency {emp} != count/|U|")
                positions = geometry["positions"][f"{j},{n}"]
                if total != positions:
                    rep.fail(cell, f"{name}: counts sum to {total} != {positions} positions")
                if reference is not None and text != (reference / name).read_text():
                    rep.fail(cell, f"{name} differs from reference")


def _check_frequencies(rep, config, geometry, outdir, reference) -> None:
    try:
        lines = (outdir / "frequencies.csv").read_text().splitlines()[1:]
    except OSError:
        rep.fail_all("missing frequencies.csv", "frequency/")
        return
    ref_lines = (
        (reference / "frequencies.csv").read_text().splitlines()[1:] if reference else None
    )
    window = geometry["window"]
    by_seed: dict[str, list[tuple[int, str]]] = {}
    for i, line in enumerate(lines):
        by_seed.setdefault(f"seed{line.split(',')[0]}", []).append((i, line))
    for label in labels("percolation", config):
        rows = by_seed.get(label, [])
        start = 0
        for size, positions in geometry["frequency_groups"]:
            group = rows[start : start + size]
            cells = [f"frequency/{label}/{start + k}" for k in range(size)]
            start += size
            if len(group) != size:
                for cell in cells:
                    rep.fail(cell, "missing row")
                continue
            total = 0
            for cell, (i, line) in zip(cells, group):
                _, _, _, count, emp, ana, diff = line.split(",")
                total += int(count)
                if emp != fmt(Fraction(int(count), window)):
                    rep.fail(cell, "empirical frequency != count/|window|")
                if abs(float(diff) - abs(float(emp) - float(ana))) > 1e-12:
                    rep.fail(cell, "abs_diff != |empirical - analytic|")
                if ref_lines is not None and (i >= len(ref_lines) or line != ref_lines[i]):
                    rep.fail(cell, "row differs from reference")
            if total != positions:
                for cell in cells:
                    rep.fail(cell, f"counts sum to {total} != {positions} positions")
        if len(rows) != start:
            rep.fail(f"frequency/{label}/0", f"{len(rows)} rows, expected {start}")


def best_cert_total(outdir: Path, config: dict) -> float:
    """Smallest certificate total at the largest volume index."""
    rows = json.loads((outdir / "certificates.json").read_text())["rows"]
    jmax = max(config["folner_j"])
    return min(r["total"] for r in rows if r["j"] == jmax)

