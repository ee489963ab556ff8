"""IDS approximants and their computable error certificates.

The approximant at volume U is the eigenvalue counting function of the
operator restricted to the R-shrunk volume, normalised to a distribution
function.  Its distance to the (never materialised) limiting spectral
distribution is certified by four computable terms: a tile term, a Folner
term, a frequency-deviation term and a renormalisation term.  The module
also provides the frequency-side approximant with its tile-boundary bound,
jump lower bounds from compactly supported eigenfunctions, the spectral
continuity bound, and the spectrum-versus-support diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cayley import (
    Element,
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
    canonicalize,
    frequency_deviation,
    restrict,
)
from .ergodic import (
    AlmostAdditive,
    StepFunction,
    frequency_approximant,
)
from .operators import LocalRule, restrict_operator
from .spectra import BoundViolation, counting_function, eigenvalues, numerical_rank


class IdsError(ValueError):
    pass


class EpsilonHypothesisError(IdsError):
    """The entrywise closeness hypothesis of the continuity bound failed."""


@dataclass(frozen=True)
class IdsApproximant:
    """Normalised eigenvalue counting function over an R-shrunk volume."""

    step: StepFunction
    volume: FiniteSet
    shrunk: FiniteSet
    overall_range: int
    k: int

    @property
    def normalization(self) -> int:
        return self.k * len(self.shrunk)


@dataclass(frozen=True)
class ErrorCertificate:
    """The four computable terms of the uniform IDS error bound."""

    tile_term: float       # 8 |d^R Q_n| / |Q_n|
    folner_term: float     # (1 + 4|B_R|) |d^{diam Q_n} U_j| / |U_j|
    freq_term: float       # sum over tile patterns of |empirical - nu|
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

    Boundary term 4 |d^R Q| dim(H), boundedness constant dim(H) and boundary
    constant 4 |B_R| dim(H).
    """
    R = rule.overall_range
    k = rule.k
    cache: dict[FiniteSet, StepFunction] = {}

    def evaluate(Q: FiniteSet) -> StepFunction:
        cached = cache.get(Q)
        if cached is not None:
            return cached
        inner = shrink(Q, R)
        if len(inner) == 0:
            out = StepFunction.constant(0.0)
        else:
            out = counting_function(restrict_operator(rule, C, inner), tau)
        cache[Q] = out
        return out

    return AlmostAdditive(
        evaluate=evaluate,
        boundary_term=lambda Q: 4.0 * k * boundary_size(Q, R),
        bounded_const=float(k),
        boundary_const=4.0 * len(rule.model.ball(R)) * k,
        name=f"n({rule.name}[.])",
    )


def raw_counting_distribution(
    rule: LocalRule, C: Colouring, Q: FiniteSet, tau: Optional[float] = None
) -> StepFunction:
    """Counting function of H[Q] without shrinking, normalised by k|Q|."""
    if len(Q) == 0:
        raise IdsError("empty volume")
    cf = counting_function(restrict_operator(rule, C, Q), tau)
    return cf.over(float(rule.k * len(Q)))


def ids_approximant(
    rule: LocalRule,
    C: Colouring,
    U: FiniteSet,
    tau: Optional[float] = None,
) -> IdsApproximant:
    """The IDS approximant n(H[U_R]) / (dim(H) |U_R|), R the rule's range."""
    R = rule.overall_range
    inner = shrink(U, R)
    if len(inner) == 0:
        raise IdsError(f"volume of size {len(U)} is empty after shrinking by R={R}")
    matrix = restrict_operator(rule, C, inner)
    step = counting_function(matrix, tau).over(float(rule.k * len(inner)))
    return IdsApproximant(step, U, inner, R, rule.k)


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
    R = rule.overall_range
    tile = spec.tile
    tile_term = Fraction(8 * boundary_size(tile, R), len(tile))
    ball_r = len(rule.model.ball(R))
    folner_term = Fraction(
        (1 + 4 * ball_r) * boundary_size(U, spec.bounding_diameter), len(U)
    )
    freq_term = frequency_deviation(C, tile, U, freqs, spectrum=spectrum)
    renorm_term = Fraction(boundary_int_size(U, R), len(U))
    return ErrorCertificate(
        tile_term=float(tile_term),
        folner_term=float(folner_term),
        freq_term=float(freq_term),
        renorm_term=float(renorm_term),
        j=j,
        n=spec.n,
    )


def class_counting(
    rule: LocalRule, C: Colouring, tau: Optional[float] = None
) -> Callable[[PatternClass, Element], StepFunction]:
    """Per-class value n(H[Q_R]) where Q is the tile instance witnessing the
    class; colouring invariance makes the choice of witness immaterial."""
    R = rule.overall_range

    def value(cls: PatternClass, witness: Element) -> StepFunction:
        # the witness places the canonical domain at an actual instance
        domain = cls.canonical.domain.right_translate(witness)
        inner = shrink(domain, R)
        if len(inner) == 0:
            return StepFunction.constant(0.0)
        return counting_function(restrict_operator(rule, C, inner), tau)

    return value


def frequency_side_ids(
    rule: LocalRule,
    C: Colouring,
    spec: TilingSpec,
    freqs: FrequencyProvider,
    tau: Optional[float] = None,
) -> tuple[StepFunction, float]:
    """Frequency-weighted approximant sum_P nu_P n(H[Q_R]) / (|Q_n| dim H),
    with its bound 4 |d^R Q_n| / |Q_n|."""
    value = class_counting(rule, C, tau)
    step = frequency_approximant(value, spec, freqs).over(float(rule.k))
    bound = 4.0 * boundary_size(spec.tile, rule.overall_range) / len(spec.tile)
    return step, bound


@dataclass(frozen=True)
class JumpReport:
    """Certified lower bound for a jump of the limiting distribution."""

    energy: float
    support_radius: int
    base_point: Element
    multiplicity: int
    pattern_class: PatternClass
    frequency: Fraction
    lower_bound: float


def jump_lower_bound(
    rule: LocalRule,
    C: Colouring,
    vectors: Sequence[Mapping[Element, object]],
    energy: float,
    freqs: FrequencyProvider,
    residual_tol: float = 1e-9,
) -> JumpReport:
    """Jump bound m nu_P / (|B_{3r}| dim H) from finitely supported eigenvectors.

    The vectors are verified to be eigenvectors within residual_tol on the
    grown ball (a finite check, sufficient by finite range); the pattern is
    the colouring on the enclosing ball B_r x around the joint support.
    """
    if not vectors:
        raise IdsError("need at least one vector")
    model = rule.model
    k = rule.k
    support: set[Element] = set()
    for vec in vectors:
        for g in vec:
            support.add(model.check_element(g))
    if not support:
        raise IdsError("vectors must have non-empty support")
    # smallest enclosing ball B_r x with base point in the support
    best: Optional[tuple[int, Element]] = None
    for x in sorted(support):
        x_inv = model.inverse(x)
        r = max(model.word_length(model.multiply(y, x_inv)) for y in support)
        if best is None or (r, x) < best:
            best = (r, x)
    r, base = best
    R = rule.overall_range
    window = model.ball(r + R).right_translate(base)
    matrix = restrict_operator(rule, C, window)
    order_index = {g: i for i, g in enumerate(window)}
    dense = matrix.to_dense()
    stacked = []
    for vec in vectors:
        u = np.zeros(matrix.dim)
        for g, val in vec.items():
            block = np.asarray(val, dtype=np.float64).reshape(k)
            i = order_index[model.check_element(g)]
            u[i * k : (i + 1) * k] = block
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise IdsError("zero vector supplied")
        u /= norm
        residual = float(np.linalg.norm(dense @ u - energy * u))
        if residual > residual_tol:
            raise IdsError(
                f"residual {residual} exceeds tolerance {residual_tol}: "
                "not an eigenvector at this energy"
            )
        stacked.append(u)
    m = numerical_rank(np.column_stack(stacked), 1e-12)
    pattern = restrict(C, model.ball(r).right_translate(base))
    cls = canonicalize(pattern)
    nu = Fraction(freqs.frequency(cls))
    bound = float(Fraction(m) * nu / (len(model.ball(3 * r)) * k))
    return JumpReport(float(energy), r, base, m, cls, nu, bound)


def validate_jump(
    report: JumpReport, approximant: IdsApproximant, tol: float = 1e-9
) -> tuple[float, bool]:
    """Observed jump of the approximant at the reported energy versus the bound."""
    observed = approximant.step.jump_at(report.energy, tol)
    return observed, observed >= report.lower_bound - 1e-12


@dataclass(frozen=True)
class TestFunction:
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


@dataclass(frozen=True)
class ContinuityResult:
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
    assembled restrictions before the eigensolves.
    """
    if rule_h.k != 1 or rule_g.k != 1:
        raise IdsError("continuity bound is formulated for scalar fibres (k=1)")
    if len(U) == 0:
        raise IdsError("empty volume")
    H = restrict_operator(rule_h, C, U).to_dense()
    G = restrict_operator(rule_g, C, U).to_dense()
    max_entry = float(np.abs(H - G).max()) if H.size else 0.0
    if max_entry > epsilon + 1e-12 * max(1.0, epsilon):
        raise EpsilonHypothesisError(
            f"entrywise difference {max_entry} exceeds epsilon {epsilon}"
        )
    R = max(rule_h.overall_range, rule_g.overall_range)
    ball_r = len(rule_h.model.ball(R))
    ev_h = np.linalg.eigvalsh(H)
    ev_g = np.linalg.eigvalsh(G)
    gap = abs(float(f.fn(ev_h).sum()) - float(f.fn(ev_g).sum())) / len(U)
    bound = 2.0 * f.derivative_sup * ball_r * epsilon
    if gap > bound + 1e-10 * max(1.0, bound):
        raise BoundViolation(f"continuity gap {gap} exceeds bound {bound}")
    return ContinuityResult(gap, bound, float(epsilon))


@dataclass(frozen=True)
class SupportProbe:
    j: int
    max_distance: float
    delta: float
    within: bool


@dataclass(frozen=True)
class SupportDiagnostic:
    """Desk-scale comparison of finite-volume spectra with the reference
    approximant's increase points.  Advisory, not a proof."""

    increase_points: np.ndarray
    probes: tuple[SupportProbe, ...]
    frequencies_positive: bool

    @property
    def consistent(self) -> bool:
        return all(p.within for p in self.probes)


def spectrum_support_diagnostic(
    rule: LocalRule,
    C: Colouring,
    folner: Callable[[int], FiniteSet],
    j_ref: int,
    probes: Sequence[int],
    spec: TilingSpec,
    freqs: FrequencyProvider,
    tau: Optional[float] = None,
) -> SupportDiagnostic:
    """Check whether every probe eigenvalue sits near the reference support."""
    reference = ids_approximant(rule, C, folner(j_ref), tau=tau)
    cert_ref = ids_certificate(rule, C, folner(j_ref), spec, freqs, j=j_ref)
    points = reference.step.increase_points(tol=0.0)
    positive = True
    for cls, _ in freqs.occurring(spec.tile):
        if freqs.frequency(cls) <= 0:
            positive = False
    rows = []
    for j in sorted(probes):
        U = folner(j)
        inner = shrink(U, rule.overall_range)
        if len(inner) == 0:
            continue
        vals = eigenvalues(restrict_operator(rule, C, inner), tau).values
        if points.size:
            dists = np.abs(vals[:, None] - points[None, :]).min(axis=1)
            max_dist = float(dists.max()) if dists.size else 0.0
        else:
            max_dist = float(np.abs(vals).max()) if vals.size else 0.0
        cert = ids_certificate(rule, C, U, spec, freqs, j=j)
        delta = cert.total + cert_ref.total
        rows.append(SupportProbe(j, max_dist, delta, max_dist <= delta))
    return SupportDiagnostic(points, tuple(rows), positive)
