"""Banach-space valued ergodic machinery over a step-function target space.

The target space is the right-continuous bounded step functions with the
supremum norm; scalars are the zero-breakpoint special case.  Almost-additive
set functions carry their boundary term and the two constants C (boundedness)
and D (boundary linearity).  ``estimate_terms`` derives the three exact terms
of the finite-volume error estimate from those ingredients, once: the
estimate and the IDS certificate are sums of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .cayley import FiniteSet, TilingSpec, boundary_size
from .colouring import (
    Colouring,
    Element,
    FrequencyProvider,
    PatternClass,
    SpectrumEntry,
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

    def over(self, denom: float) -> "StepFunction":
        """True division by denom (exact where values are multiples of it)."""
        return StepFunction(self.breakpoints, self.values / denom, base=self.base / denom)

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Jump positions and heights."""
        if not self.breakpoints.size:
            return self.breakpoints, self.values
        prev = np.concatenate([[self.base], self.values[:-1]])
        return self.breakpoints, self.values - prev

    def sup_norm(self) -> float:
        cands = [abs(self.base)]
        if self.values.size:
            cands.append(float(np.abs(self.values).max()))
        return max(cands)

    def __repr__(self) -> str:
        return f"StepFunction(jumps={self.breakpoints.size})"


def sup_distance(f: StepFunction, g: StepFunction) -> float:
    """Exact supremum-norm distance: the largest gap at the base or at a
    breakpoint of either function (a point of both is evaluated twice)."""
    points = np.concatenate([f.breakpoints, g.breakpoints])
    best = abs(f.base - g.base)
    if points.size:
        diff = np.abs(f.evaluate_many(points) - g.evaluate_many(points))
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


class AlmostAdditive(NamedTuple):
    """Colouring-invariant almost-additive set function with its constants.

    ``evaluate`` maps finite sets into the step-function space, ``boundary_term``
    is the translation-invariant b with b(Q) <= boundary_const * |Q| and
    ||evaluate(Q)|| <= bounded_const * |Q|.  The estimate reads b and both
    constants exactly, so integers keep its terms exact rationals.
    """

    evaluate: Callable[[FiniteSet], StepFunction]
    boundary_term: Callable[[FiniteSet], float]
    bounded_const: float
    boundary_const: float
    name: str = ""


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


def estimate_terms(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
    spectrum: Optional[Mapping[PatternClass, SpectrumEntry]] = None,
) -> tuple[Fraction, Fraction, Fraction]:
    """The three exact terms of the finite-volume estimate,

        b(Q_n)/|Q_n|,  (C+D) |boundary^{diam Q_n}(U)| / |U|,  C * deviation,

    with ``spectrum`` passed on to ``frequency_deviation``."""
    tile = spec.tile
    bounded = Fraction(F.bounded_const)
    b_ratio = Fraction(F.boundary_term(tile)) / len(tile)
    fol = (bounded + Fraction(F.boundary_const)) * Fraction(
        boundary_size(U, spec.bounding_diameter), len(U)
    )
    dev = bounded * frequency_deviation(C, tile, U, freqs, spectrum=spectrum)
    return b_ratio, fol, dev
