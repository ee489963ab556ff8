import random

import numpy as np
import pytest

from idsapprox.cayley import FiniteSet, folner_set, interval_folner
from idsapprox.colouring import (
    EmpiricalFrequencies,
    HalfLineMod3,
    PercolationFrequencies,
    PeriodicFoldColouring,
    TrivialColouring,
)
from idsapprox.ergodic import (
    AlmostAdditive,
    StepFunction,
    estimate_terms,
    frequency_approximant,
    sup_distance,
    weighted_sum,
)
from conftest import interval, random_subset
from oracles import check_almost_additive, delta_estimate, ergodic_average, measured_delta


def cardinality_function() -> AlmostAdditive:
    """The exactly additive scalar F(Q) = |Q| (b identically zero)."""
    return AlmostAdditive(
        evaluate=lambda Q: StepFunction.constant(float(len(Q))),
        boundary_term=lambda Q: 0.0,
        bounded_const=1.0,
        boundary_const=0.0,
        name="cardinality",
    )


def test_step_function_evaluation():
    f = StepFunction([0.0, 1.0], [2.0, 5.0], base=-1.0)
    assert f(-0.5) == -1.0
    assert f(0.0) == 2.0  # right-continuous
    assert f(0.999) == 2.0
    assert f(1.0) == 5.0
    assert f.terminal_value == 5.0
    assert list(f.jumps()[1]) == [3.0, 3.0]


def test_step_function_from_jumps_merges_duplicates():
    f = StepFunction.from_jumps([1.0, 0.0, 1.0], [2.0, 1.0, 3.0])
    assert list(f.breakpoints) == [0.0, 1.0]
    assert list(f.values) == [1.0, 6.0]


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([1.0, 1.0], [0.0, 1.0])


def test_sup_distance_basics():
    f = StepFunction([0.0], [1.0])
    g = StepFunction([1.0], [1.0])
    assert sup_distance(f, f) == 0.0
    assert sup_distance(f, g) == 1.0
    assert sup_distance(StepFunction.constant(2.0), StepFunction.constant(-1.0)) == 3.0


def test_sup_distance_dominates_grid_oracle():
    rng = random.Random(11)
    for _ in range(20):
        bp1 = sorted(rng.sample(range(-20, 20), 5))
        bp2 = sorted(rng.sample(range(-20, 20), 4))
        f = StepFunction(bp1, [rng.uniform(-1, 1) for _ in bp1], base=rng.uniform(-1, 1))
        g = StepFunction(bp2, [rng.uniform(-1, 1) for _ in bp2], base=rng.uniform(-1, 1))
        exact = sup_distance(f, g)
        grid = np.linspace(-25, 25, 10_000)
        sampled = float(np.abs(f.evaluate_many(grid) - g.evaluate_many(grid)).max())
        assert exact >= sampled - 1e-15
        cands = np.concatenate([f.breakpoints, g.breakpoints])
        attained = float(np.abs(f.evaluate_many(cands) - g.evaluate_many(cands)).max())
        assert exact == max(attained, abs(f.base - g.base))


def test_weighted_sum_pointwise():
    f = StepFunction([0.0], [1.0])
    g = StepFunction([1.0], [2.0], base=1.0)
    h = weighted_sum([(2.0, f), (-1.0, g)])
    for x in (-3.0, 0.0, 0.5, 1.0, 4.0):
        assert h(x) == pytest.approx(2 * f(x) - g(x))


def test_cardinality_average_is_one(z2):
    F = cardinality_function()
    for n in (2, 4, 7):
        U = folner_set(z2, n).tile
        avg = ergodic_average(F, U)
        assert avg.breakpoints.size == 0
        assert avg.base == 1.0


def test_cardinality_exactly_additive(z2):
    rng = random.Random(12)
    F = cardinality_function()
    for _ in range(10):
        parts = []
        used = set()
        for _ in range(rng.randint(2, 5)):
            Q = random_subset(z2, rng, radius=3, size=6)
            Q = FiniteSet(z2, frozenset(Q) - used)
            if len(Q):
                used |= frozenset(Q)
                parts.append(Q)
        lhs, rhs = check_almost_additive(F, parts)
        assert lhs == 0.0 and rhs == 0.0


def test_check_almost_additive_rejects_overlap(z1):
    F = cardinality_function()
    with pytest.raises(ValueError):
        check_almost_additive(F, [interval(z1, 0, 3), interval(z1, 3, 5)])


def test_zero_operator_counting_average(z1):
    # F(Q) = counting function of the zero operator: jump dim at E=0
    F = AlmostAdditive(
        evaluate=lambda Q: StepFunction.from_jumps([0.0], [float(len(Q))]),
        boundary_term=lambda Q: 0.0,
        bounded_const=1.0,
        boundary_const=0.0,
    )
    U = interval(z1, 0, 9)
    avg = ergodic_average(F, U)
    assert avg(0.0) == 1.0 and avg(-0.1) == 0.0


def test_frequency_approximant_trivial(z1):
    triv = TrivialColouring(z1)
    freqs = PercolationFrequencies(triv)
    spec = folner_set(z1, 3)
    out = frequency_approximant(
        lambda cls, w: StepFunction.constant(6.0), spec, freqs
    )
    assert out.base == pytest.approx(2.0)


def test_frequency_approximant_two_classes_cancel(z1):
    # period-2 colouring, scalar values +-1 with frequency 1/2 each
    spec2 = folner_set(z1, 2)
    C = PeriodicFoldColouring(spec2, {(0,): "a", (1,): "b"})
    U = interval(z1, 0, 99)
    freqs = EmpiricalFrequencies(C, U)
    spec1 = folner_set(z1, 1)

    def value(cls, w):
        sym = next(iter(cls.canonical.values.values()))
        return StepFunction.constant(1.0 if sym == "a" else -1.0)

    out = frequency_approximant(value, spec1, freqs)
    assert out.base == pytest.approx(0.0)
    assert out.breakpoints.size == 0


def test_frequency_approximant_period_three_average(z1):
    spec3 = folner_set(z1, 3)
    C = PeriodicFoldColouring(spec3, {(0,): "a", (1,): "b", (2,): "c"})
    U = interval(z1, 0, 3 * 50 - 1)
    freqs = EmpiricalFrequencies(C, U)
    spec1 = folner_set(z1, 1)
    scores = {"a": 3.0, "b": 6.0, "c": 9.0}

    def value(cls, w):
        sym = next(iter(cls.canonical.values.values()))
        return StepFunction.constant(scores[sym])

    out = frequency_approximant(value, spec1, freqs)
    assert out.base == pytest.approx((3.0 + 6.0 + 9.0) / 3, abs=0.2)


def test_delta_estimate_additive_scalar(z1):
    # b == 0: the bound reduces to (C+D) folner ratio + C deviation
    triv = TrivialColouring(z1)
    freqs = PercolationFrequencies(triv)
    F = cardinality_function()
    spec = folner_set(z1, 3)
    for j in (6, 12):
        U = folner_set(z1, j).tile
        est = delta_estimate(F, triv, U, spec, freqs)
        from idsapprox.cayley import boundary_size
        from idsapprox.colouring import frequency_deviation

        fol = boundary_size(U, spec.bounding_diameter) / len(U)
        dev = float(frequency_deviation(triv, spec.tile, U, freqs))
        assert est == pytest.approx(1.0 * fol + 1.0 * dev)
        meas = measured_delta(
            F, triv, U, spec, freqs, lambda cls, w: StepFunction.constant(3.0)
        )
        assert meas <= est + 1e-12


def test_limit_certificates_zero_boundary(z1):
    triv = TrivialColouring(z1)
    freqs = PercolationFrequencies(triv)
    F = cardinality_function()
    spec = folner_set(z1, 2)
    # the limit bounds against the frequency approximant and the volume average
    b, fol, dev = estimate_terms(F, triv, folner_set(z1, 10).tile, spec, freqs)
    assert float(b) == 0.0
    assert float(2 * b + fol + dev) > 0.0


def test_triangle_of_averages(z1):
    # two volume averages differ by at most the sum of their bounds
    C = HalfLineMod3(z1)
    ref = interval_folner(z1, 30, side="negative")
    freqs = EmpiricalFrequencies(C, ref)
    F = AlmostAdditive(
        evaluate=lambda Q: StepFunction.constant(
            sum(1.0 for g in Q if C.colour(g) == "black")
        ),
        boundary_term=lambda Q: 0.0,
        bounded_const=1.0,
        boundary_const=0.0,
    )
    spec = folner_set(z1, 3)

    def value(cls, w):
        blacks = sum(1.0 for s in cls.canonical.values.values() if s == "black")
        return StepFunction.constant(blacks)

    deltas = {}
    for j in (5, 12):
        U = interval_folner(z1, j, side="negative")
        deltas[j] = (
            measured_delta(F, C, U, spec, freqs, value),
            delta_estimate(F, C, U, spec, freqs),
        )
        assert deltas[j][0] <= deltas[j][1] + 1e-12
    a5 = ergodic_average(F, interval_folner(z1, 5, side="negative"))
    a12 = ergodic_average(F, interval_folner(z1, 12, side="negative"))
    assert sup_distance(a5, a12) <= deltas[5][1] + deltas[12][1] + 1e-12
