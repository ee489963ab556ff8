"""Library routines that only the tests use, as oracles for the package.

The acceptance criteria and unit tests check the paper's perturbation
bounds, its ergodic estimate and its tilings through these; no command of
the package calls them, so they live here rather than in ``src/``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from idsapprox.cayley import Element, FiniteSet, Heisenberg3, TilingSpec, _from_packed
from idsapprox.colouring import Colouring, FrequencyProvider
from idsapprox.ergodic import (
    AlmostAdditive,
    ClassValue,
    StepFunction,
    estimate_terms,
    frequency_approximant,
    sup_distance,
    weighted_sum,
)
from idsapprox.spectra import (
    BoundViolation,
    SpectraError,
    _joint_gap,
    _symmetric_coo,
    default_tau,
    eigenvalues,
)

# -- cayley ------------------------------------------------------------------------


def word_distance(model, g: Element, h: Element) -> int:
    """Word metric d(g, h): length of g * h^-1 (right-invariant)."""
    return model.word_length(model.multiply(g, model.inverse(h)))


def grid_contains(spec: TilingSpec, g: Sequence[int]) -> bool:
    g = spec.model.check_element(g)
    n = spec.n
    if isinstance(spec.model, Heisenberg3):
        return g[0] % n == 0 and g[1] % n == 0 and g[2] % (n * n) == 0
    return all(c % n == 0 for c in g)


def decompose(spec: TilingSpec, g: Sequence[int]) -> tuple[Element, Element]:
    """Unique (q, gamma) with q in the tile, gamma in the grid, q*gamma = g."""
    g = spec.model.check_element(g)
    q, gamma = spec.decompose_array(np.array([g], dtype=np.int64))
    return tuple(int(c) for c in q[0]), tuple(int(c) for c in gamma[0])


class GridCover(NamedTuple):
    """Grid shifts whose tile translate meets A, split by containment in A."""

    interior: FiniteSet
    crossing: FiniteSet


def grid_cover(A: FiniteSet, x: Sequence[int], spec: TilingSpec) -> GridCover:
    """Tiles of the x-shifted grid meeting A.

    Every element a of A lies in exactly one translate Q_n*gamma with gamma
    in K_n x^-1; a shift is interior when its tile is contained in A, which
    happens exactly when all |Q_n| tile points land in A.
    """
    model = A.model
    x = model.check_element(x)
    _, g0 = spec.decompose_array(model.mul_array(A.coords, x))
    gamma = model.mul_array(g0, model.inverse(x))
    keys = np.sort(model._pack(gamma))
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # each shift's first key; keys are positive
    inside = np.diff(np.append(first, len(keys))) == len(spec.tile)
    keys = keys[first]
    return GridCover(_from_packed(model, keys[inside]), _from_packed(model, keys[~inside]))


# -- ergodic -----------------------------------------------------------------------


def ergodic_average(F: AlmostAdditive, U: FiniteSet) -> StepFunction:
    """F(U) normalised by the volume of U."""
    if len(U) == 0:
        raise ValueError("ergodic average needs a non-empty volume")
    return F.evaluate(U).over(float(len(U)))


def delta_estimate(
    F: AlmostAdditive,
    C: Colouring,
    U: FiniteSet,
    spec: TilingSpec,
    freqs: FrequencyProvider,
) -> float:
    """Computable bound on the distance between the volume average F(U)/|U|
    and the frequency approximant over the tile: the sum of the three
    ``estimate_terms``."""
    return float(sum(estimate_terms(F, C, U, spec, freqs)))


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


# -- spectra -----------------------------------------------------------------------


class QuasiModeError(ValueError):
    """Quasi-mode hypotheses (orthonormality / residual size) not met."""


def _symmetric_dense(M) -> np.ndarray:
    n, rows, cols, vals = _symmetric_coo(M)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    return dense


def numerical_rank(C: np.ndarray, tau: float) -> int:
    if C.size == 0:
        return 0
    sigma = np.linalg.svd(C, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int((sigma > C.shape[0] * tau * sigma[0]).sum())


def rank_perturbation_gap(A, C, tau: Optional[float] = None) -> int:
    """Max over E of |n(A)(E) - n(A+C)(E)|; must not exceed rank(C)."""
    A = _symmetric_dense(A)
    C = _symmetric_dense(C)
    if A.shape != C.shape:
        raise SpectraError("perturbation must match the matrix dimension")
    if tau is None:
        tau = default_tau(A + C)
    gap = _joint_gap(eigenvalues(A), eigenvalues(A + C), tau)
    rank = numerical_rank(C, tau)
    if gap > rank:
        raise BoundViolation(f"counting gap {gap} exceeds rank {rank}")
    return gap


def projection_truncation_gap(A, keep: Sequence[int], tau: Optional[float] = None) -> int:
    """Max over E of |n(A)(E) - n(pAi)(E)| for a coordinate-subspace truncation;
    must not exceed 4 * (dim V - dim U)."""
    A = _symmetric_dense(A)
    keep = np.asarray(sorted(set(int(i) for i in keep)), dtype=np.int64)
    if keep.size and (keep[0] < 0 or keep[-1] >= A.shape[0]):
        raise SpectraError("kept indices out of range")
    B = A[np.ix_(keep, keep)]
    if tau is None:
        tau = default_tau(A)
    gap = _joint_gap(eigenvalues(A), eigenvalues(B), tau)
    codim = A.shape[0] - keep.size
    if gap > 4 * codim:
        raise BoundViolation(f"truncation gap {gap} exceeds 4*{codim}")
    return gap


def quasi_mode_count(
    A,
    lam: float,
    eps: float,
    vectors: Sequence[np.ndarray],
    ortho_tol: float = 1e-8,
) -> int:
    """Eigenvalue count of A strictly inside (lam-eps, lam+eps), at least the
    number of supplied quasi-modes.

    Hypotheses checked literally: the vectors are orthonormal, the images
    (A-lam)u_i are pairwise orthogonal, and every residual norm is < eps.
    """
    A = _symmetric_dense(A)
    U = np.column_stack([np.asarray(u, dtype=np.float64) for u in vectors])
    m = U.shape[1]
    gram = U.T @ U
    if float(np.abs(gram - np.eye(m)).max()) > ortho_tol:
        raise QuasiModeError("vectors are not orthonormal")
    V = A @ U - lam * U
    norms = np.linalg.norm(V, axis=0)
    if not bool((norms < eps).all()):
        raise QuasiModeError(
            f"residual norms {norms} must be strictly below eps={eps}"
        )
    cross = V.T @ V
    off = cross - np.diag(np.diag(cross))
    if float(np.abs(off).max()) > ortho_tol * max(1.0, float(norms.max()) ** 2, 1.0):
        raise QuasiModeError("images (A-lam)u_i are not pairwise orthogonal")
    vals = eigenvalues(A)
    count = int(((vals > lam - eps) & (vals < lam + eps)).sum())
    if count < m:
        raise BoundViolation(f"only {count} eigenvalues inside the window, need {m}")
    return count
