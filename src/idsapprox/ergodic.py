"""Banach-space valued ergodic machinery over a step-function target space.

The target space is the right-continuous bounded step functions with the
supremum norm; scalars are the zero-breakpoint special case.  Almost-additive
set functions carry their boundary term and the two constants C (boundedness)
and D (boundary linearity), and the finite-volume error estimate and both
limit certificates are computed from those ingredients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .cayley import FiniteSet, TilingSpec, boundary_size
from .colouring import (
    Colouring,
    Element,
    FrequencyProvider,
    PatternClass,
    frequency_deviation,
)


class StepFunction:
    """Right-continuous step function with finitely many jumps.

    ``values[i]`` is the value on ``[breakpoints[i], breakpoints[i+1])`` and
    ``base`` the value before the first breakpoint.  Breakpoints are strictly
    increasing; evaluation is a binary search.
    """

    __slots__ = ("breakpoints", "values", "base")

    def __init__(
        self, breakpoints: Sequence[float], values: Sequence[float], base: float = 0.0
    ) -> None:
        bp = np.asarray(breakpoints, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if bp.shape != vals.shape:
            raise ValueError("breakpoints and values must have equal length")
        if bp.size and not bool((np.diff(bp) > 0).all()):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.values = vals
        self.base = float(base)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls([], [], base=value)

    @classmethod
    def from_jumps(
        cls, positions: Sequence[float], heights: Sequence[float], base: float = 0.0
    ) -> "StepFunction":
        """Cumulative function with the given jump heights at the positions."""
        pos = np.asarray(positions, dtype=np.float64)
        h = np.asarray(heights, dtype=np.float64)
        if pos.size == 0:
            return cls([], [], base=base)
        order = np.argsort(pos, kind="stable")
        pos, h = pos[order], h[order]
        uniq, start = np.unique(pos, return_index=True)
        merged = np.add.reduceat(h, start)
        keep = merged != 0.0
        uniq, merged = uniq[keep], merged[keep]
        return cls(uniq, base + np.cumsum(merged), base=base)

    def __call__(self, x: float) -> float:
        idx = int(np.searchsorted(self.breakpoints, x, side="right"))
        return self.base if idx == 0 else float(self.values[idx - 1])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        padded = np.concatenate([[self.base], self.values])
        return padded[idx]

    @property
    def terminal_value(self) -> float:
        return float(self.values[-1]) if self.values.size else self.base

    def scale(self, c: float) -> "StepFunction":
        return StepFunction(self.breakpoints, self.values * c, base=self.base * c)

    def over(self, denom: float) -> "StepFunction":
        """True division by denom (exact where values are multiples of it)."""
        return StepFunction(self.breakpoints, self.values / denom, base=self.base / denom)

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Jump positions and heights."""
        if not self.breakpoints.size:
            return self.breakpoints, self.values
        prev = np.concatenate([[self.base], self.values[:-1]])
        return self.breakpoints, self.values - prev

    def jump_at(self, x: float, tol: float = 0.0) -> float:
        """Total jump mass within tol of x."""
        pos, h = self.jumps()
        if not pos.size:
            return 0.0
        return float(h[np.abs(pos - x) <= tol].sum())

    def increase_points(self, tol: float = 0.0) -> np.ndarray:
        pos, h = self.jumps()
        return pos[h > tol]

    def sup_norm(self) -> float:
        cands = [abs(self.base)]
        if self.values.size:
            cands.append(float(np.abs(self.values).max()))
        return max(cands)

    def __repr__(self) -> str:
        return f"StepFunction(jumps={self.breakpoints.size})"


def sup_distance(f: StepFunction, g: StepFunction) -> float:
    """Exact supremum-norm distance via the merged breakpoint sweep."""
    merged = np.union1d(f.breakpoints, g.breakpoints)
    best = abs(f.base - g.base)
    if merged.size:
        diff = np.abs(f.evaluate_many(merged) - g.evaluate_many(merged))
        best = max(best, float(diff.max()))
    return best


def weighted_sum(terms: Sequence[tuple[float, StepFunction]]) -> StepFunction:
    """Linear combination sum_i w_i f_i, exact on the pooled breakpoints."""
    base = 0.0
    positions: list[np.ndarray] = []
    heights: list[np.ndarray] = []
    for w, f in terms:
        base += w * f.base
        pos, h = f.jumps()
        positions.append(pos)
        heights.append(h * w)
    if not positions:
        return StepFunction.constant(base)
    return StepFunction.from_jumps(
        np.concatenate(positions), np.concatenate(heights), base=base
    )


@dataclass(frozen=True)
class AlmostAdditive:
    """Colouring-invariant almost-additive set function with its constants.

    ``evaluate`` maps finite sets into the step-function space, ``boundary_term``
    is the translation-invariant b with b(Q) <= boundary_const * |Q| and
    ||evaluate(Q)|| <= bounded_const * |Q|.
    """

    evaluate: Callable[[FiniteSet], StepFunction]
    boundary_term: Callable[[FiniteSet], float]
    bounded_const: float
    boundary_const: float
    name: str = ""


def cardinality_function() -> AlmostAdditive:
    """The exactly additive scalar F(Q) = |Q| (b identically zero)."""
    return AlmostAdditive(
        evaluate=lambda Q: StepFunction.constant(float(len(Q))),
        boundary_term=lambda Q: 0.0,
        bounded_const=1.0,
        boundary_const=0.0,
        name="cardinality",
    )


def ergodic_average(F: AlmostAdditive, U: FiniteSet) -> StepFunction:
    """F(U) normalised by the volume of U."""
    if len(U) == 0:
        raise ValueError("ergodic average needs a non-empty volume")
    return F.evaluate(U).over(float(len(U)))


ClassValue = Callable[[PatternClass, Element], StepFunction]


def frequency_approximant(
    class_value: ClassValue, spec: TilingSpec, freqs: FrequencyProvider
) -> StepFunction:
    """Frequency-weighted tile average: sum over occurring classes of
    nu_P * Ftilde(P) / |Q_n|.  Non-occurring classes contribute zero."""
    tile = spec.tile
    scale = 1.0 / len(tile)
    terms = []
    for cls, witness in freqs.occurring(tile):
        nu = float(freqs.frequency(cls))
        if nu == 0.0:
            continue
        terms.append((nu * scale, class_value(cls, witness)))
    return weighted_sum(terms)


def _estimate_parts(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
) -> tuple[float, float, Fraction]:
    tile = spec.tile
    b_ratio = F.boundary_term(tile) / len(tile)
    fol_ratio = boundary_size(U, spec.bounding_diameter) / len(U)
    dev = frequency_deviation(C, tile, U, freqs)
    return b_ratio, fol_ratio, dev


def delta_estimate(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
) -> float:
    """Computable bound on the distance between the volume average F(U)/|U|
    and the frequency approximant over the tile:

        b(Q_n)/|Q_n| + (C+D) |boundary^{diam Q_n}(U)| / |U| + C * deviation.
    """
    b_ratio, fol_ratio, dev = _estimate_parts(F, C, U, spec, freqs)
    return (
        b_ratio
        + (F.bounded_const + F.boundary_const) * fol_ratio
        + F.bounded_const * float(dev)
    )


def measured_delta(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
    class_value: ClassValue,
) -> float:
    """Directly computed distance between the two sides of the estimate."""
    return sup_distance(
        ergodic_average(F, U), frequency_approximant(class_value, spec, freqs)
    )


def limit_certificates(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
) -> tuple[float, float]:
    """Both limit-distance bounds: against the volume average (doubled
    boundary term) and against the frequency approximant (b(Q_n)/|Q_n|)."""
    b_ratio, fol_ratio, dev = _estimate_parts(F, C, U, spec, freqs)
    vs_volume = (
        2.0 * b_ratio
        + (F.bounded_const + F.boundary_const) * fol_ratio
        + F.bounded_const * float(dev)
    )
    return vs_volume, b_ratio


def check_almost_additive(
    F: AlmostAdditive, parts: Sequence[FiniteSet]
) -> tuple[float, float]:
    """Evaluate both sides of the almost-additivity inequality on a disjoint
    decomposition; returns (measured deviation, boundary budget)."""
    if not parts:
        raise ValueError("need at least one part")
    union = parts[0]
    for p in parts[1:]:
        union = union.union(p)
    if len(union) != sum(len(p) for p in parts):
        raise ValueError("parts are not pairwise disjoint")
    lhs = sup_distance(
        F.evaluate(union), weighted_sum([(1.0, F.evaluate(p)) for p in parts])
    )
    rhs = float(sum(F.boundary_term(p) for p in parts))
    return lhs, rhs


def boundedness_gap(F: AlmostAdditive, Q: FiniteSet) -> tuple[float, float]:
    """(norm of F(Q), C * |Q|) for the boundedness property."""
    return F.evaluate(Q).sup_norm(), F.bounded_const * len(Q)
