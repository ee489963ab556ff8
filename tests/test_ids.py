import random
from fractions import Fraction

import numpy as np
import pytest

from idsapprox.cayley import (
    FiniteSet,
    boundary_int_size,
    boundary_size,
    folner_set,
    interval_folner,
    shrink,
)
from idsapprox.colouring import (
    Alphabet,
    BLACK,
    EmpiricalFrequencies,
    HalfLineMod3,
    PercolationColouring,
    PercolationFrequencies,
    TrivialColouring,
    frequency_deviation,
    occurring_pattern_spectrum,
)
from idsapprox.spectra import counting_from_values, default_tau, eigenvalues
from idsapprox.ergodic import (
    StepFunction,
    check_almost_additive,
    delta_estimate,
    estimate_terms,
    sup_distance,
)
from idsapprox.ids import (
    EpsilonHypothesisError,
    IdsError,
    TestFunction,
    continuity_gap,
    counting_functions,
    eigenvalue_count_function,
    frequency_side_ids,
    ids_approximant,
    ids_approximants,
    ids_certificate,
)
from idsapprox.operators import (
    adjacency_rule,
    laplacian_rule,
    offset_table_rule,
    percolation_rule,
    restrict_operator,
)
from conftest import chain_rule, interval, random_subset

N_V = StepFunction([-1.0, 0.0, 1.0], [1 / 3, 2 / 3, 1.0], base=0.0)
N_STEP0 = StepFunction([0.0], [1.0], base=0.0)


def half_line_setup(z1):
    C = HalfLineMod3(z1)
    return C, percolation_rule(z1, C.alphabet, [BLACK])


def test_approximant_is_distribution_function(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=3)
    rule = percolation_rule(z2, C.alphabet, ["a"])
    ap = ids_approximant(rule, C, folner_set(z2, 8).tile)
    vals = np.concatenate([[ap.step.base], ap.step.values])
    assert vals[0] >= 0.0
    assert np.all(np.diff(vals) > 0)
    assert ap.step.terminal_value == 1.0
    assert vals.max() <= 1.0


def test_zero_operator_step_at_zero(z1):
    rule = offset_table_rule(z1, {}, name="zero")
    C = TrivialColouring(z1)
    for j in (4, 9):
        ap = ids_approximant(rule, C, interval(z1, 0, 3 * j))
        assert ap.step(-1e-9) == 0.0
        assert ap.step(0.0) == 1.0


def test_empty_shrink_raises(z1):
    C, rule = half_line_setup(z1)
    with pytest.raises(IdsError):
        ids_approximant(rule, C, FiniteSet(z1, [(0,), (1,)]))


def approximant_cases(z1, z2, h3):
    """(rule, colouring, volume sets): nested, overlapping and disjoint sets,
    each set also holding a volume whose shrink is empty."""
    perc = PercolationColouring(z2, Alphabet(("a", "b")), seed=11)
    tiles = [folner_set(z2, j).tile for j in (5, 8, 12)]
    far = tiles[1].right_translate((40, -3))
    dot = FiniteSet(z2, [(100, 100)])
    z2_sets = [tiles, [tiles[2], tiles[1].right_translate((4, 5)), dot], [tiles[1], far, dot]]
    cubes = [folner_set(h3, j).tile for j in (2, 3, 4)]
    h3_sets = [cubes, [cubes[2], cubes[2].right_translate((1, 2, 0)), FiniteSet(h3, [(0, 0, 0)])]]
    intervals = [interval(z1, 0, n) for n in (4, 9, 15)]
    z1_sets = [intervals, [intervals[2], interval(z1, 10, 30), interval(z1, 50, 51)]]
    yield chain_rule(z1, 0.5), TrivialColouring(z1), z1_sets
    yield percolation_rule(z2, perc.alphabet, ["a"]), perc, z2_sets
    yield laplacian_rule(percolation_rule(z2, perc.alphabet, ["a"])), perc, z2_sets
    yield adjacency_rule(h3), TrivialColouring(h3), h3_sets


def test_approximants_equal_one_solve_per_volume(z1, z2, h3):
    for rule, C, volume_sets in approximant_cases(z1, z2, h3):
        R, k = rule.overall_range, rule.k
        for volumes in volume_sets:
            for tau in (None, 1e-9, 1e-3):
                got = ids_approximants(rule, C, volumes, tau)
                assert len(got) == len(volumes)
                for U, ap in zip(volumes, got):
                    inner = shrink(U, R)
                    if len(inner) == 0:
                        with pytest.raises(IdsError) as exc:
                            ids_approximant(rule, C, U, tau)
                        assert isinstance(ap, IdsError) and str(ap) == str(exc.value)
                        continue
                    M = restrict_operator(rule, C, inner)
                    want = counting_from_values(eigenvalues(M), default_tau(M) if tau is None else tau)
                    want = want.over(float(k * len(inner)))
                    assert ap.shrunk == inner and ap.volume == U
                    assert np.array_equal(ap.step.breakpoints, want.breakpoints)
                    assert np.array_equal(ap.step.values, want.values) and ap.step.base == want.base


def counting_cases(z1, z2, h3):
    """(rule, colouring, Q1, Q2) with Q2 disjoint from Q1."""
    perc = PercolationColouring(z2, Alphabet(("a", "b")), seed=11)
    tile, cube = folner_set(z2, 8).tile, folner_set(h3, 3).tile
    yield chain_rule(z1, 0.5), TrivialColouring(z1), interval(z1, 0, 9), interval(z1, 20, 26)
    yield percolation_rule(z2, perc.alphabet, ["a"]), perc, tile, tile.right_translate((30, 0))
    yield adjacency_rule(h3), TrivialColouring(h3), cube, cube.right_translate((20, 0, 0))


def test_counting_functions_assemble_once_and_match_dense_solves(monkeypatch, z1, z2, h3):
    from idsapprox import ids

    real, assembled = ids.restrict_operator, []

    def count_assembly(rule, C, Q):
        assembled.append(len(Q))
        return real(rule, C, Q)

    for rule, C, Q1, Q2 in counting_cases(z1, z2, h3):
        assert np.intersect1d(Q1.packed, Q2.packed).size == 0
        sets = [Q1, FiniteSet(rule.model, []), Q2, Q1]
        with monkeypatch.context() as m:
            m.setattr(ids, "restrict_operator", count_assembly)
            got = counting_functions(rule, C, sets)
        assert assembled == [len(Q1) + len(Q2)]
        assembled.clear()
        assert got[1].breakpoints.size == 0 and got[1].base == 0.0
        for Q, step in zip(sets, got):
            if len(Q) == 0:
                continue
            M = real(rule, C, Q)
            tau = default_tau(M)
            oracle = counting_from_values(np.linalg.eigvalsh(M.to_dense()), tau)
            assert np.array_equal(step.values, oracle.values) and step.base == oracle.base
            assert np.allclose(step.breakpoints, oracle.breakpoints, rtol=0.0, atol=tau)


def test_set_function_evaluates_through_counting_functions(z1, z2, h3):
    for rule, C, Q1, Q2 in counting_cases(z1, z2, h3):
        F = eigenvalue_count_function(rule, C)
        for Q in (Q1, Q2, FiniteSet(rule.model, [])):
            (want,) = counting_functions(rule, C, [shrink(Q, rule.overall_range)])
            got = F.evaluate(Q)
            assert np.array_equal(got.breakpoints, want.breakpoints)
            assert np.array_equal(got.values, want.values) and got.base == want.base


def test_example_tables(z1):
    # n(H[Q]) / |Q| without the shrink: all white on U_j, the 3-periodic
    # table on V_j
    C, rule = half_line_setup(z1)
    for j in (1, 7, 25):
        U = interval_folner(z1, j, side="positive")
        V = interval_folner(z1, j, side="negative")
        NU, NV = counting_functions(rule, C, [U, V])
        assert sup_distance(NU.over(float(len(U))), N_STEP0) == 0.0
        assert sup_distance(NV.over(float(len(V))), N_V) < 1e-12


def test_shrunk_approximant_exact_on_positive_side(z1):
    # along U_j the shrunk volume is still all white: the approximant equals
    # the one-sided limit table exactly
    C, rule = half_line_setup(z1)
    for j in (2, 8, 20):
        ap = ids_approximant(rule, C, interval_folner(z1, j, side="positive"))
        assert sup_distance(ap.step, N_STEP0) == 0.0


def test_ids_set_function_bounded(z2):
    rng = random.Random(40)
    C = TrivialColouring(z2)
    F = eigenvalue_count_function(adjacency_rule(z2), C)
    for _ in range(8):
        Q = random_subset(z2, rng, radius=3, size=10)
        assert F.evaluate(Q).sup_norm() <= F.bounded_const * len(Q)


def test_shrunk_approximant_boundary_defect(z1):
    C, rule = half_line_setup(z1)
    for j in (4, 12, 40):
        ap = ids_approximant(rule, C, interval_folner(z1, j, side="negative"))
        assert sup_distance(ap.step, N_V) <= 2 / (3 * j - 2) + 1e-12


def test_ids_set_function_almost_additive(z2, h3):
    rng = random.Random(30)
    for model in (z2, h3):
        C = TrivialColouring(model)
        rule = adjacency_rule(model)
        F = eigenvalue_count_function(rule, C)
        pool = list(model.ball(3))
        for _ in range(6):
            pts = rng.sample(pool, 24)
            k = rng.randint(2, 5)
            buckets = [[] for _ in range(k)]
            for p in pts:
                buckets[rng.randrange(k)].append(p)
            parts = [FiniteSet(model, b) for b in buckets if b]
            lhs, rhs = check_almost_additive(F, parts)
            assert lhs <= rhs + 1e-9


def test_boundary_term_translation_invariant(z2, h3):
    rng = random.Random(31)
    for model in (z2, h3):
        F = eigenvalue_count_function(adjacency_rule(model), TrivialColouring(model))
        pool = list(model.ball(3))
        for _ in range(12):
            Q = random_subset(model, rng, radius=3, size=9)
            x = rng.choice(pool)
            assert F.boundary_term(Q) == F.boundary_term(Q.right_translate(x))


def test_ids_set_function_constants(h3):
    rule = adjacency_rule(h3)
    F = eigenvalue_count_function(rule, TrivialColouring(h3))
    assert F.bounded_const == 1.0
    assert F.boundary_const == 4.0 * len(h3.ball(1))


def hard_coded_certificate(rule, C, U, spec, freqs, spectrum=None):
    """The certificate formula as written out before it was derived from the
    set function: the four exact terms, tile, Folner, frequency, renorm."""
    R = rule.overall_range
    tile = spec.tile
    ball_r = len(rule.model.ball(R))
    return (
        Fraction(8 * boundary_size(tile, R), len(tile)),
        Fraction((1 + 4 * ball_r) * boundary_size(U, spec.bounding_diameter), len(U)),
        frequency_deviation(C, tile, U, freqs, spectrum=spectrum),
        Fraction(boundary_int_size(U, R), len(U)),
    )


def derivation_cases(z1, z2, h3):
    """(rule, colouring, U, spec, freqs, with_spectrum): the k = 2 chain on
    Z^1, percolation on Z^2 with and without the spectrum, H3 adjacency."""
    C = PercolationColouring(z1, Alphabet(("a", "b")), seed=2)
    freqs = EmpiricalFrequencies(C, folner_set(z1, 60).tile)
    yield chain_rule(z1, 2.0), C, folner_set(z1, 9).tile, folner_set(z1, 3), freqs, False
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=5)
    rule = percolation_rule(z2, C.alphabet, ["open"])
    freqs = EmpiricalFrequencies(C, folner_set(z2, 16).tile)
    for with_spectrum in (False, True):
        yield rule, C, folner_set(z2, 8).tile, folner_set(z2, 2), freqs, with_spectrum
    C = TrivialColouring(h3)
    yield adjacency_rule(h3), C, folner_set(h3, 4).tile, folner_set(h3, 2), PercolationFrequencies(C), False


def test_certificate_is_the_derived_estimate(z1, z2, h3):
    for rule, C, U, spec, freqs, with_spectrum in derivation_cases(z1, z2, h3):
        spectrum = occurring_pattern_spectrum(C, spec.tile, U) if with_spectrum else None
        oracle = hard_coded_certificate(rule, C, U, spec, freqs, spectrum)
        cert = ids_certificate(rule, C, U, spec, freqs, spectrum=spectrum)
        terms = (cert.tile_term, cert.folner_term, cert.freq_term, cert.renorm_term)
        assert terms == tuple(float(t) for t in oracle)
        # the set function's terms are dim(H) times the certificate's, exactly
        F = eigenvalue_count_function(rule, C)
        b, fol, dev = estimate_terms(F, C, U, spec, freqs, spectrum=spectrum)
        assert (2 * b, fol, dev) == tuple(rule.k * t for t in oracle[:3])
        assert delta_estimate(F, C, U, spec, freqs) == float(b + fol + dev)
        _, bound = frequency_side_ids(rule, C, spec, freqs)
        assert bound == float(oracle[0] / 2)


def test_certificate_terms_nonnegative_and_total(z1):
    C, rule = half_line_setup(z1)
    V = interval_folner(z1, 12, side="negative")
    freqs = EmpiricalFrequencies(C, V)
    cert = ids_certificate(rule, C, V, folner_set(z1, 3), freqs, j=12)
    for term in (cert.tile_term, cert.folner_term, cert.freq_term, cert.renorm_term):
        assert term >= 0.0
    assert cert.total == pytest.approx(
        cert.tile_term + cert.folner_term + cert.freq_term + cert.renorm_term
    )


def test_h3_certificate_matches_simplified_bound(h3):
    # the worked single-colour bound: total <= 8 tile ratio + 23 diam ratio
    C = TrivialColouring(h3)
    rule = adjacency_rule(h3)
    freqs = PercolationFrequencies(C)
    for n in (2, 3):
        spec = folner_set(h3, n)
        for j in (3, 4):
            U = folner_set(h3, j).tile
            cert = ids_certificate(rule, C, U, spec, freqs, j=j)
            tile_ratio = boundary_size(spec.tile, 1) / len(spec.tile)
            diam_ratio = boundary_size(U, spec.bounding_diameter) / len(U)
            assert cert.total <= 8 * tile_ratio + 23 * diam_ratio + 1e-12


def test_zd_weakened_tile_term(z2):
    C = TrivialColouring(z2)
    rule = adjacency_rule(z2)
    freqs = PercolationFrequencies(C)
    R = rule.overall_range
    for n in (2, 5, 10):
        spec = folner_set(z2, n)
        cert = ids_certificate(rule, C, folner_set(z2, 12).tile, spec, freqs)
        assert cert.tile_term <= 8 * ((1 + 4 * R / n) ** 2 - 1) + 1e-12


def test_degenerate_zero_rule_certificate(z1):
    rule = offset_table_rule(z1, {}, name="zero")
    C = TrivialColouring(z1)
    freqs = PercolationFrequencies(C)
    cert = ids_certificate(rule, C, interval(z1, 0, 19), folner_set(z1, 2), freqs)
    assert cert.total > 0.0


def test_frequency_side_trivial_single_class(z1):
    C = TrivialColouring(z1)
    rule = adjacency_rule(z1)
    freqs = PercolationFrequencies(C)
    spec = folner_set(z1, 5)
    step, bound = frequency_side_ids(rule, C, spec, freqs)
    # one class: counting of the shrunk tile over |Q_n|
    inner = shrink(spec.tile, 1)
    assert step.terminal_value == pytest.approx(len(inner) / len(spec.tile))
    assert bound == pytest.approx(4 * boundary_size(spec.tile, 1) / len(spec.tile))


def test_frequency_side_close_to_reference(z1):
    C, rule = half_line_setup(z1)
    Vref = interval_folner(z1, 60, side="negative")
    freqs = EmpiricalFrequencies(C, Vref)
    spec = folner_set(z1, 3)
    ap = ids_approximant(rule, C, Vref)
    cert = ids_certificate(rule, C, Vref, spec, freqs, j=60)
    side, bound = frequency_side_ids(rule, C, spec, freqs)
    assert sup_distance(side, ap.step) <= bound + cert.total + 1e-12


def test_continuity_gap_examples(z2):
    C = TrivialColouring(z2)
    rng = random.Random(32)
    base, unit = {}, {}
    for w in z2.ball(1):
        wn = z2.inverse(w)
        if wn in base:
            base[w], unit[w] = base[wn], unit[wn]
        else:
            base[w], unit[w] = rng.uniform(-1, 1), rng.uniform(-1, 1)
    H = offset_table_rule(z2, base)
    U = folner_set(z2, 10).tile
    f = TestFunction.bump(halfwidth=6.0)
    same = continuity_gap(H, H, C, 1e-6, f, U)
    assert same.gap == 0.0
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        G = offset_table_rule(z2, {w: v + eps * unit[w] for w, v in base.items()})
        res = continuity_gap(H, G, C, eps, f, U)
        assert res.gap <= res.bound
        gaps.append(res)
    # the bound is linear in eps
    for a, b in zip(gaps, gaps[1:]):
        assert a.bound == pytest.approx(10 * b.bound)


def test_continuity_solves_through_the_component_split(monkeypatch, z2):
    from idsapprox import spectra

    # horizontal hops only: H[U] and G[U] split into the 12 rows of the box
    H = offset_table_rule(z2, {(0, 0): 0.3, (1, 0): 1.0, (-1, 0): 1.0})
    G = offset_table_rule(z2, {(0, 0): 0.3, (1, 0): 1.05, (-1, 0): 1.05})
    C, U, f = TrivialColouring(z2), folner_set(z2, 12).tile, TestFunction.bump(halfwidth=3.0)
    assert len(U) == 144
    assert np.unique(spectra.component_spectrum(restrict_operator(H, C, U)).label).size == 12
    real, solved = spectra._solve, []

    def count_solve(n, *args):
        solved.append(n)
        return real(n, *args)

    with monkeypatch.context() as m:
        m.setattr(spectra, "_solve", count_solve)
        res = continuity_gap(H, G, C, 0.05, f, U)
    assert solved == [144, 144]
    ev_h, ev_g = (np.linalg.eigvalsh(restrict_operator(r, C, U).to_dense()) for r in (H, G))
    oracle = abs(float(f.fn(ev_h).sum()) - float(f.fn(ev_g).sum())) / len(U)
    assert abs(res.gap - oracle) <= 1e-12


def test_continuity_hypothesis_enforced(z2):
    C = TrivialColouring(z2)
    H = offset_table_rule(z2, {(0, 0): 0.0, (1, 0): 1.0, (-1, 0): 1.0})
    G = offset_table_rule(z2, {(0, 0): 0.0, (1, 0): 1.5, (-1, 0): 1.5})
    with pytest.raises(EpsilonHypothesisError):
        continuity_gap(H, G, C, 0.1, TestFunction.bump(), folner_set(z2, 4).tile)


def test_limit_certificate_normalises_to_tile_bound(h3):
    # for the eigenvalue-count set function, the frequency-side limit bound
    # b(Q_n)/|Q_n| equals k times the tile-boundary bound of the approximant
    C = TrivialColouring(h3)
    rule = adjacency_rule(h3)
    freqs = PercolationFrequencies(C)
    F = eigenvalue_count_function(rule, C)
    spec = folner_set(h3, 2)
    b, _, _ = estimate_terms(F, C, folner_set(h3, 3).tile, spec, freqs)
    _, side_bound = frequency_side_ids(rule, C, spec, freqs)
    assert float(b) == pytest.approx(rule.k * side_bound)


def test_volume_averages_within_certificate_budget(h3):
    from idsapprox.ergodic import ergodic_average

    C = TrivialColouring(h3)
    rule = adjacency_rule(h3)
    freqs = PercolationFrequencies(C)
    F = eigenvalue_count_function(rule, C)
    spec = folner_set(h3, 2)
    budgets = {}
    for j in (3, 4):
        U = folner_set(h3, j).tile
        b, fol, dev = estimate_terms(F, C, U, spec, freqs)
        budgets[j] = float(2 * b + fol + dev)  # the limit bound against the volume average
    a3 = ergodic_average(F, folner_set(h3, 3).tile)
    a4 = ergodic_average(F, folner_set(h3, 4).tile)
    assert sup_distance(a3, a4) <= budgets[3] + budgets[4] + 1e-12


def test_path_graph_closed_form_eigenvalues(z1):
    # independent oracle: the path graph on m vertices has eigenvalues
    # 2 cos(k pi / (m+1)), k = 1..m
    C = TrivialColouring(z1)
    rule = adjacency_rule(z1)
    for m in (5, 60, 301):
        Q = FiniteSet(z1, [(i,) for i in range(m)])
        vals = eigenvalues(restrict_operator(rule, C, Q))
        expected = np.sort(2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1)))
        assert float(np.abs(vals - expected).max()) <= 1e-9


def test_one_d_ids_approaches_arcsine_law(z1):
    # the limiting distribution of the 1-d adjacency operator: the arcsine law
    # N(E) = 1 - arccos(E/2)/pi on [-2, 2]
    C = TrivialColouring(z1)
    rule = adjacency_rule(z1)
    for j in (200, 600):
        U = FiniteSet(z1, [(i,) for i in range(j)])
        ap = ids_approximant(rule, C, U)
        grid = np.linspace(-2.2, 2.2, 2000)
        closed = 1.0 - np.arccos(np.clip(grid, -2.0, 2.0) / 2.0) / np.pi
        sampled = float(np.abs(ap.step.evaluate_many(grid) - closed).max())
        assert sampled <= 2.5 / j


def test_certificates_on_coloured_heisenberg(h3):
    # periodic two-colouring of H3 with a percolation operator: the whole
    # estimate chain must hold in the non-abelian, non-trivially coloured case
    import random as _random

    from idsapprox.colouring import PeriodicFoldColouring
    from idsapprox.ergodic import delta_estimate as _delta, measured_delta as _meas

    rng = _random.Random(61)
    base = folner_set(h3, 2)
    table = {q: rng.choice(("a", "b")) for q in base.tile}
    table[next(iter(base.tile))] = "a"  # both colours present
    C = PeriodicFoldColouring(base, table)
    rule = percolation_rule(h3, C.alphabet, ["a"])

    ref = folner_set(h3, 6).tile
    freqs = EmpiricalFrequencies(C, ref)
    F = eigenvalue_count_function(rule, C)
    from idsapprox.ids import class_counting as _cc

    value = _cc(rule, C)
    approx = {}
    totals = {}
    for j in (4, 5, 6):
        U = folner_set(h3, j).tile
        approx[j] = ids_approximant(rule, C, U)
        for n in (1, 2):
            spec = folner_set(h3, n)
            est = _delta(F, C, U, spec, freqs)
            meas = _meas(F, C, U, spec, freqs, value)
            assert meas <= est + 1e-12, (j, n, meas, est)
            cert = ids_certificate(rule, C, U, spec, freqs, j=j)
            totals[(j, n)] = cert.total
    for n in (1, 2):
        for j1, j2 in ((4, 5), (4, 6), (5, 6)):
            d = sup_distance(approx[j1].step, approx[j2].step)
            assert d <= totals[(j1, n)] + totals[(j2, n)] + 1e-12


def test_certificates_on_percolated_heisenberg(h3):
    # i.i.d. colouring on H3 at small volumes: same inequalities
    C = PercolationColouring(h3, Alphabet(("a", "b")), seed=4)
    rule = percolation_rule(h3, C.alphabet, ["a"])
    ref = folner_set(h3, 5).tile
    freqs = EmpiricalFrequencies(C, ref)
    spec = folner_set(h3, 1)
    approx = {}
    totals = {}
    for j in (4, 5):
        U = folner_set(h3, j).tile
        approx[j] = ids_approximant(rule, C, U)
        totals[j] = ids_certificate(rule, C, U, spec, freqs, j=j).total
    d = sup_distance(approx[4].step, approx[5].step)
    assert d <= totals[4] + totals[5] + 1e-12
