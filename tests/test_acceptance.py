"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
import numpy as np
import pytest

from idsapprox.cayley import (
    FiniteSet,
    FreeAbelian,
    Heisenberg3,
    boundary_size,
    folner_set,
    interval_folner,
)
from idsapprox.cli import main as cli_main
from idsapprox.colouring import (
    Alphabet,
    BLACK,
    EmpiricalFrequencies,
    HalfLineMod3,
    HalfLineMod3Window,
    PercolationColouring,
    Pattern,
    PercolationFrequencies,
    TrivialColouring,
    empirical_frequency,
)
from idsapprox.ergodic import StepFunction, sup_distance
from idsapprox.ids import (
    TestFunction,
    class_counting,
    continuity_gap,
    counting_functions,
    eigenvalue_count_function,
    frequency_side_ids,
    ids_approximant,
    ids_certificate,
)
from idsapprox.operators import (
    adjacency_rule,
    offset_table_rule,
    percolation_rule,
    restrict_operator,
)
from idsapprox.spectra import cluster_values, default_tau, eigenvalues
from oracles import (
    QuasiModeError,
    delta_estimate,
    grid_cover,
    measured_delta,
    projection_truncation_gap,
    quasi_mode_count,
    rank_perturbation_gap,
)

N_V = StepFunction([-1.0, 0.0, 1.0], [1 / 3, 2 / 3, 1.0], base=0.0)
PURE_STEP_AT_0 = StepFunction([0.0], [1.0], base=0.0)


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {label}  ({time.time() - start:.1f}s)")


def test_criterion_1_example_exact_reproduction():
    with criterion(1, "example4_1 exact reproduction (U_j and V_j, j <= 50)"):
        z1 = FreeAbelian(1)
        C = HalfLineMod3(z1)
        rule = percolation_rule(z1, C.alphabet, [BLACK])
        third = 1 / 3
        for j in range(1, 51):
            U = interval_folner(z1, j, side="positive")
            V = interval_folner(z1, j, side="negative")
            NU, NV = counting_functions(rule, C, [U, V])
            NU, NV = NU.over(float(len(U))), NV.over(float(len(V)))
            assert list(NU.breakpoints) == [0.0]
            assert list(NU.values) == [1.0]
            assert len(NV.breakpoints) == 3
            assert np.abs(NV.breakpoints - np.array([-1.0, 0.0, 1.0])).max() <= 1e-9
            # exact plateau values, evaluated at midpoints of the known gaps
            assert NV(-2.0) == 0.0
            assert NV(-0.5) == third
            assert NV(0.5) == 2 * third
            assert NV(2.0) == 1.0


def test_criterion_2_heisenberg_combinatorics():
    with criterion(2, "Heisenberg combinatorics (volumes, spheres, diameters)"):
        h3 = Heisenberg3()
        assert len(h3.ball(1)) == 5
        for n in range(1, 13):
            tile = folner_set(h3, n).tile
            assert len(tile) == n**4
            sphere = set()
            for s in h3.generators:
                sphere |= frozenset(tile.right_translate(s))
            assert len(sphere - frozenset(tile)) == 5 * n**3 - 2 * n**2 + n
        # diameter bracket; n=1 is excluded (diam(Q_1)=0, see decisions ledger)
        assert folner_set(h3, 1).tile.diameter == 0
        for n in range(2, 9):
            d = folner_set(h3, n).tile.diameter
            assert n <= d <= 6 * n, (n, d)
        print("  note: n=1 excluded from the bracket, diam(Q_1)=0 < 1")


def test_criterion_3_tiling_exactness():
    with criterion(3, "Tiling exactness over B_10 (both groups, n <= 4)"):
        for model in (FreeAbelian(1), FreeAbelian(2), Heisenberg3()):
            region = model.ball(10)
            region_set = frozenset(region)
            for n in range(1, 5):
                spec = folner_set(model, n)
                cov = grid_cover(region, model.identity, spec)
                shifts = sorted(frozenset(cov.interior) | frozenset(cov.crossing))
                covered: set = set()
                overlap = 0
                for gamma in shifts:
                    tile = spec.tile.right_translate(gamma)
                    overlap += len(covered & frozenset(tile))
                    covered |= frozenset(tile)
                assert overlap == 0
                assert region_set <= covered
                per_tile = sum(
                    len(frozenset(spec.tile.right_translate(g)) & region_set)
                    for g in shifts
                )
                assert per_tile == len(region)


def test_criterion_4_certificate_validity_h3():
    with criterion(4, "Certificate validity on H3 (j=3..8, n=1..3)"):
        h3 = Heisenberg3()
        C = TrivialColouring(h3)
        rule = adjacency_rule(h3)
        freqs = PercolationFrequencies(C)
        F = eigenvalue_count_function(rule, C)
        assert F.bounded_const == 1.0
        assert F.boundary_const == 4.0 * len(h3.ball(1))
        js = list(range(3, 9))
        ns = [1, 2, 3]
        volumes = {j: folner_set(h3, j).tile for j in js}
        approx = {j: ids_approximant(rule, C, volumes[j]) for j in js}
        specs = {n: folner_set(h3, n) for n in ns}
        totals = {}
        for n in ns:
            for j in js:
                cert = ids_certificate(rule, C, volumes[j], specs[n], freqs, j=j)
                totals[(j, n)] = cert.total
        for n in ns:
            for j1, j2 in itertools.combinations(js, 2):
                d = sup_distance(approx[j1].step, approx[j2].step)
                assert d <= totals[(j1, n)] + totals[(j2, n)] + 1e-12, (j1, j2, n)
        value = class_counting(rule, C)
        for n in ns:
            for j in js:
                est = delta_estimate(F, C, volumes[j], specs[n], freqs)
                meas = measured_delta(F, C, volumes[j], specs[n], freqs, value)
                assert meas <= est + 1e-12, (j, n, meas, est)


def test_criterion_5_frequency_side_bound():
    with criterion(5, "Frequency-side bound at j=200 (half-line colouring, n=3)"):
        z1 = FreeAbelian(1)
        C = HalfLineMod3(z1)
        rule = percolation_rule(z1, C.alphabet, [BLACK])
        V = interval_folner(z1, 200, side="negative")
        freqs = EmpiricalFrequencies(C, V)
        spec3 = folner_set(z1, 3)
        ap = ids_approximant(rule, C, V)
        cert = ids_certificate(rule, C, V, spec3, freqs, j=200)
        side, bound = frequency_side_ids(rule, C, spec3, freqs)
        assert bound == 4.0 * boundary_size(spec3.tile, 1) / len(spec3.tile)
        assert sup_distance(side, ap.step) <= bound + cert.total + 1e-12


def test_criterion_6_appendix_bounds():
    with criterion(6, "Appendix rank/truncation/quasi-mode bounds (10^3 each)"):
        rng = random.Random(20260810)

        def sym(n):
            A = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            return A + A.T

        for _ in range(1000):
            n = rng.randint(4, 40)
            A = sym(n)
            r = rng.randint(1, 3)
            Cm = np.zeros((n, n))
            for _ in range(r):
                v = np.array([rng.uniform(-1, 1) for _ in range(n)])
                Cm += rng.uniform(-2, 2) * np.outer(v, v)
            assert rank_perturbation_gap(A, Cm) <= r  # raises on violation too
        for _ in range(1000):
            n = rng.randint(6, 40)
            drop = rng.randint(1, 5)
            A = sym(n)
            keep = sorted(rng.sample(range(n), n - drop))
            assert projection_truncation_gap(A, keep) <= 4 * drop
        # quasi-mode helper: accepts exact eigenvectors, rejects tight residuals
        A = sym(12)
        w, V = np.linalg.eigh(A)
        assert quasi_mode_count(A, w[5], 1e-8, [V[:, 5]]) >= 1
        v = np.zeros(12)
        v[0] = 1.0
        residual = float(np.linalg.norm(A @ v - 0.2 * v))
        with pytest.raises(QuasiModeError):
            quasi_mode_count(A, 0.2, residual / 3, [v])


def test_criterion_7_percolation_frequencies():
    with criterion(7, "Percolation frequencies on Z^2 (|U|=10^4, 10 seeds)"):
        z2 = FreeAbelian(2)
        alphabet = Alphabet(("a", "b"))
        window = folner_set(z2, 100).tile
        e, e1, e2 = (0, 0), (1, 0), (0, 1)
        domains = [
            [e],
            [e, e1],
            [e, e2],
            [e, e1, e2],
            [e, e1, (2, 0)],
            [e, e1, (1, 1)],
        ]
        patterns = []
        for dom in domains:
            fs = FiniteSet(z2, dom)
            for symbols in itertools.product(alphabet.symbols, repeat=len(dom)):
                patterns.append(
                    Pattern(fs, dict(zip(fs, symbols)))
                )
        seeds = list(range(1, 11))
        freq_by_seed = {}
        for seed in seeds:
            C = PercolationColouring(z2, alphabet, seed=seed)
            freq_by_seed[seed] = [
                empirical_frequency(P, C, window) for P in patterns
            ]
        for idx, P in enumerate(patterns):
            target = Fraction(1, 2 ** len(P))
            good = sum(
                1
                for seed in seeds
                if abs(freq_by_seed[seed][idx] - target) <= Fraction(5, 100)
            )
            assert good >= 9, (P.key, good)


def test_criterion_8_continuity_bound():
    with criterion(8, "Continuity bound on Z^2 (R=1, |U|=400, three epsilons)"):
        z2 = FreeAbelian(2)
        C = TrivialColouring(z2)
        rng = random.Random(99)
        base, unit = {}, {}
        for w in z2.ball(1):
            wn = z2.inverse(w)
            if wn in base:
                base[w], unit[w] = base[wn], unit[wn]
            else:
                base[w], unit[w] = rng.uniform(-1, 1), rng.uniform(-1, 1)
        H = offset_table_rule(z2, base, name="H")
        U = folner_set(z2, 20).tile
        assert len(U) == 400
        f = TestFunction.bump(center=0.0, halfwidth=6.0)
        for eps in (1e-1, 1e-2, 1e-3):
            G = offset_table_rule(
                z2, {w: v + eps * unit[w] for w, v in base.items()}, name="G"
            )
            res = continuity_gap(H, G, C, eps, f, U)
            assert res.gap <= res.bound  # continuity_gap re-raises on violation
            assert res.bound == pytest.approx(2 * f.derivative_sup * 5 * eps)


def test_criterion_9_window_colouring_diagnostic():
    with criterion(9, "Cutoff-colouring diagnostic (multiplicity 33, step at 0)"):
        z1 = FreeAbelian(1)
        C = HalfLineMod3Window(z1)
        rule = percolation_rule(z1, C.alphabet, [BLACK])
        for j in (34, 40, 50):
            V = interval_folner(z1, j, side="negative")
            M = restrict_operator(rule, C, V)
            reps, counts = cluster_values(eigenvalues(M), default_tau(M))
            mult = {round(float(r), 6): int(c) for r, c in zip(reps, counts)}
            assert mult[1.0] == 33
            assert mult[-1.0] == 33
            assert mult[0.0] == 3 * j - 66
        V50 = interval_folner(z1, 50, side="negative")
        ap = ids_approximant(rule, C, V50)
        freqs = EmpiricalFrequencies(C, V50)
        cert = ids_certificate(rule, C, V50, folner_set(z1, 3), freqs, j=50)
        assert sup_distance(ap.step, PURE_STEP_AT_0) <= 99 / 150 + cert.total


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "Byte-identical reruns of every preset"):
        runs = [
            ("ids", "example4_1", []),
            ("ids", "example4_7", []),
            ("ids", "h3_adjacency", ["--folner-j", "3,4,5", "--tile-n", "1,2,3"]),
            ("percolation", "z2_percolation", ["--folner-j", "6", "--tile-n", "1"]),
            ("continuity", "z2_continuity", []),
        ]
        for command, preset, extra in runs:
            blobs = []
            for attempt in ("first", "second"):
                out = tmp_path / f"{preset}_{attempt}"
                rc = cli_main(
                    [command, "--preset", preset, "--out", str(out)] + extra
                )
                assert rc == 0, (command, preset)
                blobs.append(
                    {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                )
            assert blobs[0].keys() == blobs[1].keys(), preset
            assert blobs[0] == blobs[1], f"{preset} rerun differs"
