"""IDS approximants and their computable error certificates.

The approximant at volume U is the eigenvalue counting function of the
operator restricted to the R-shrunk volume, normalised to a distribution
function.  Every eigenvalue count comes from ``counting_functions``: one
assembly and one eigensolve over the union of the sets.  The distance of an
approximant to the (never materialised) limiting spectral distribution is
certified by four computable terms: a tile term, a Folner term, a frequency-deviation term and a renormalisation term.  The first
three are the ergodic estimate's terms for the set function Q -> n(H[Q_R])
divided by dim(H); the set function holds its constants as exact integers,
so dim(H) cancels exactly.  The module also provides the frequency-side
approximant with its tile-boundary bound and the spectral continuity bound.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .cayley import (
    FiniteSet,
    TilingSpec,
    boundary_int_size,
    boundary_size,
    shrink,
)
from .colouring import (
    Colouring,
    FrequencyProvider,
    PatternClass,
    SpectrumEntry,
)
from .ergodic import (
    AlmostAdditive,
    ClassValue,
    StepFunction,
    estimate_terms,
    frequency_approximant,
)
from .operators import LocalRule, principal_restriction, restrict_operator
from .spectra import (
    BoundViolation,
    component_spectrum,
    counting_from_values,
    default_tau,
    eigenvalues,
)


class IdsError(ValueError):
    pass


class EpsilonHypothesisError(IdsError):
    """The entrywise closeness hypothesis of the continuity bound failed."""


class IdsApproximant(NamedTuple):
    """Normalised eigenvalue counting function over an R-shrunk volume."""

    step: StepFunction
    volume: FiniteSet
    shrunk: FiniteSet
    overall_range: int
    k: int

    @property
    def normalization(self) -> int:
        return self.k * len(self.shrunk)


class ErrorCertificate(NamedTuple):
    """The four computable terms of the uniform IDS error bound."""

    tile_term: float       # 2 b(Q_n) / (k |Q_n|)
    folner_term: float     # (C + D) |d^{diam Q_n} U_j| / (k |U_j|)
    freq_term: float       # C / k times the sum over tile patterns of |empirical - nu|
    renorm_term: float     # |d_int^R U_j| / |U_j|
    j: Optional[int] = None
    n: Optional[int] = None

    @property
    def total(self) -> float:
        return self.tile_term + self.folner_term + self.freq_term + self.renorm_term

    def as_dict(self) -> dict:
        return {
            "j": self.j,
            "n": self.n,
            "tile_term": self.tile_term,
            "folner_term": self.folner_term,
            "freq_term": self.freq_term,
            "renorm_term": self.renorm_term,
            "total": self.total,
        }


def eigenvalue_count_function(
    rule: LocalRule, C: Colouring, tau: Optional[float] = None
) -> AlmostAdditive:
    """The almost-additive set function Q -> n(H[Q_R]) of the given operator.

    Its constants are exact integers: boundary term 4 dim(H) |d^R Q|,
    boundedness constant dim(H) and boundary constant 4 |B_R| dim(H).
    """
    R = rule.overall_range
    k = rule.k
    cache: dict[FiniteSet, StepFunction] = {}

    def evaluate(Q: FiniteSet) -> StepFunction:
        if Q not in cache:
            cache[Q] = counting_functions(rule, C, [shrink(Q, R)], tau)[0]
        return cache[Q]

    return AlmostAdditive(
        evaluate=evaluate,
        boundary_term=lambda Q: 4 * k * boundary_size(Q, R),
        bounded_const=k,
        boundary_const=4 * len(rule.model.ball(R)) * k,
        name=f"n({rule.name}[.])",
    )


def counting_functions(
    rule: LocalRule,
    C: Colouring,
    sets: Sequence[FiniteSet],
    tau: Optional[float] = None,
) -> list[StepFunction]:
    """The eigenvalue counting function n(H[Q]) of every set Q, unnormalised;
    an empty set counts 0.

    H[V] is assembled and solved once, for the union V of the sets.  Each
    H[Q] is its principal restriction: the spectrum of every component of
    H[V] that lies wholly inside Q is reused, and only the rows of the
    components that Q cuts are solved.  With ``tau`` None each set clusters
    with the default tolerance of its own H[Q].
    """
    k = rule.k
    filled = [Q for Q in sets if len(Q)]
    if filled:
        whole = restrict_operator(rule, C, functools.reduce(FiniteSet.union, filled))
        spectrum = component_spectrum(whole)
    out = []
    for Q in sets:
        if len(Q) == 0:
            out.append(StepFunction.constant(0.0))
            continue
        matrix = principal_restriction(whole, Q)
        at = np.searchsorted(whole.Q.packed, Q.packed)
        values = np.sort(spectrum.principal(matrix, (k * at[:, None] + np.arange(k)).ravel()))
        out.append(counting_from_values(values, float(default_tau(matrix) if tau is None else tau)))
    return out


def ids_approximants(
    rule: LocalRule,
    C: Colouring,
    volumes: Sequence[FiniteSet],
    tau: Optional[float] = None,
) -> list[Union[IdsApproximant, IdsError]]:
    """The IDS approximant n(H[U_R]) / (dim(H) |U_R|) of every volume U, R the
    rule's range, or the IdsError of a volume whose shrink is empty.  All the
    counts come from one assembly and one eigensolve (``counting_functions``).
    """
    R, k = rule.overall_range, rule.k
    inner = [shrink(U, R) for U in volumes]
    out: list[Union[IdsApproximant, IdsError]] = []
    for U, W, step in zip(volumes, inner, counting_functions(rule, C, inner, tau)):
        if len(W) == 0:
            out.append(IdsError(f"volume of size {len(U)} is empty after shrinking by R={R}"))
        else:
            out.append(IdsApproximant(step.over(float(k * len(W))), U, W, R, k))
    return out


def ids_approximant(
    rule: LocalRule,
    C: Colouring,
    U: FiniteSet,
    tau: Optional[float] = None,
) -> IdsApproximant:
    """The IDS approximant n(H[U_R]) / (dim(H) |U_R|), R the rule's range."""
    (out,) = ids_approximants(rule, C, [U], tau)
    if isinstance(out, IdsError):
        raise out
    return out


def ids_certificate(
    rule: LocalRule,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
    j: Optional[int] = None,
    spectrum: Optional[Mapping[PatternClass, SpectrumEntry]] = None,
) -> ErrorCertificate:
    """The four-term certificate bounding the sup distance between the
    approximant over U and the limiting distribution function; ``spectrum``
    is the tile's occurring spectrum over U, if the caller has it."""
    F = eigenvalue_count_function(rule, C)
    b_ratio, fol, dev = estimate_terms(F, C, U, spec, freqs, spectrum=spectrum)
    k = rule.k
    return ErrorCertificate(
        tile_term=float(2 * b_ratio / k),
        folner_term=float(fol / k),
        freq_term=float(dev / k),
        renorm_term=float(Fraction(boundary_int_size(U, rule.overall_range), len(U))),
        j=j,
        n=spec.n,
    )


def class_counting(
    rule: LocalRule, C: Colouring, tau: Optional[float] = None
) -> ClassValue:
    """Per-class value n(H[Q_R]) where Q is the tile instance witnessing the
    class; colouring invariance makes the choice of witness immaterial."""
    F = eigenvalue_count_function(rule, C, tau)
    # the witness places the canonical domain at an actual instance
    return lambda cls, witness: F.evaluate(cls.canonical.domain.right_translate(witness))


def frequency_side_ids(
    rule: LocalRule,
    C: Colouring,
    spec: TilingSpec,
    freqs: FrequencyProvider,
    tau: Optional[float] = None,
) -> tuple[StepFunction, float]:
    """Frequency-weighted approximant sum_P nu_P n(H[Q_R]) / (|Q_n| dim H),
    with its bound b(Q_n) / (|Q_n| dim H)."""
    k = rule.k
    step = frequency_approximant(class_counting(rule, C, tau), spec, freqs).over(float(k))
    bound = eigenvalue_count_function(rule, C).boundary_term(spec.tile) / (k * len(spec.tile))
    return step, bound


class TestFunction(NamedTuple):
    """Compactly supported C^1 test function with a known derivative bound."""

    __test__ = False  # not a pytest item

    fn: Callable[[np.ndarray], np.ndarray]
    derivative_sup: float
    support: tuple[float, float]
    name: str = "test"

    @classmethod
    def bump(cls, center: float = 0.0, halfwidth: float = 1.0) -> "TestFunction":
        """(1 - t^2)^2 bump; max |f'| = 8 / (3 sqrt(3) halfwidth)."""

        def fn(E: np.ndarray) -> np.ndarray:
            t = (np.asarray(E, dtype=np.float64) - center) / halfwidth
            inside = np.abs(t) <= 1.0
            out = np.zeros_like(t)
            out[inside] = (1.0 - t[inside] ** 2) ** 2
            return out

        dsup = 8.0 / (3.0 * math.sqrt(3.0) * halfwidth)
        return cls(fn, dsup, (center - halfwidth, center + halfwidth), "bump")


class ContinuityResult(NamedTuple):
    gap: float
    bound: float
    epsilon: float


def continuity_gap(
    rule_h: LocalRule,
    rule_g: LocalRule,
    C: Colouring,
    epsilon: float,
    f: TestFunction,
    U: FiniteSet,
    tau: Optional[float] = None,
) -> ContinuityResult:
    """|Tr f(H[U]) - Tr f(G[U])| / |U| against the bound 2 ||f'|| |B_R| eps.

    The entrywise hypothesis |H(x,y) - G(x,y)| <= eps is verified on the
    dense restrictions before the eigensolves, which read only their entries.
    """
    if rule_h.k != 1 or rule_g.k != 1:
        raise IdsError("continuity bound is formulated for scalar fibres (k=1)")
    if len(U) == 0:
        raise IdsError("empty volume")
    H = restrict_operator(rule_h, C, U)
    G = restrict_operator(rule_g, C, U)
    max_entry = float(np.abs(H.to_dense() - G.to_dense()).max())
    if max_entry > epsilon + 1e-12 * max(1.0, epsilon):
        raise EpsilonHypothesisError(
            f"entrywise difference {max_entry} exceeds epsilon {epsilon}"
        )
    R = max(rule_h.overall_range, rule_g.overall_range)
    ball_r = len(rule_h.model.ball(R))
    gap = abs(float(f.fn(eigenvalues(H)).sum()) - float(f.fn(eigenvalues(G)).sum())) / len(U)
    bound = 2.0 * f.derivative_sup * ball_r * epsilon
    if gap > bound + 1e-10 * max(1.0, bound):
        raise BoundViolation(f"continuity gap {gap} exceeds bound {bound}")
    return ContinuityResult(gap, bound, float(epsilon))
