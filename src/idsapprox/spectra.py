"""Symmetric eigensolves and eigenvalue counting functions.

Every eigensolve takes one path: the matrix is read as its nonzero entries
(COO arrays), checked for symmetry, and split into the connected components
of its nonzero pattern (the counting function of a direct sum is the sum of
the counting functions).  Components are labelled on the bipartite double
cover, where an entry (u, v) joins (u, s) to (v, 1 - s).  A component is
chiral (bipartite, zero diagonal) exactly when its cover splits; it is then
[[0, B], [B^T, 0]] for a p x q block B, with spectrum +-sigma(B) and |p - q|
zeros (Jordan-Wielandt; Golub and Van Loan, Matrix Computations, 8.6).
An empty row is a component with the eigenvalue 0 and no solve.  The other
components of equal size and side size are solved together: chiral ones by
one stacked singular-value call, the others by LAPACK's symmetric solver on
one stacked array.  The solve names the component that owns each eigenvalue
and the component of each row (``ComponentSpectrum``), so the spectrum of a
principal submatrix reuses every component that lies wholly inside it and
solves only the rows of the components it cuts.  Counting functions cluster
eigenvalues closer than the tolerance tau into a single breakpoint; the
default tau of a matrix is ``default_tau``, scaled by its ``norm_bound``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ergodic import StepFunction
from .operators import RestrictedMatrix


class SpectraError(RuntimeError):
    pass


class BoundViolation(AssertionError):
    """A proven spectral bound failed numerically."""


DEFAULT_TAU_SCALE = 1e-9


def _symmetric_coo(M) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Dimension n and nonzero entries (rows, cols, vals) of M (a RestrictedMatrix
    or a dense array), which must be square with max |M - M^T| <= 1e-12 *
    max(1, max |M|)."""
    if isinstance(M, RestrictedMatrix):
        shape, rows, cols, vals = (M.dim, M.dim), M.rows, M.cols, M.vals
    else:
        A = np.asarray(M, dtype=np.float64)
        if A.ndim != 2:
            raise SpectraError("matrix must be square")
        shape, (rows, cols) = A.shape, np.nonzero(A)
        vals = A[rows, cols]
    if shape[0] != shape[1]:
        raise SpectraError("matrix must be square")
    n, nz = shape[0], vals != 0.0
    rows, cols, vals = rows[nz], cols[nz], vals[nz].astype(np.float64, copy=False)
    # each position of M - M^T collects M_ij and -M_ji
    _, pos = np.unique(np.concatenate([rows * n + cols, cols * n + rows]), return_inverse=True)
    asym = np.bincount(pos.ravel(), weights=np.concatenate([vals, -vals]))
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    if float(np.abs(asym).max(initial=0.0)) > 1e-12 * scale:
        raise SpectraError("matrix is not symmetric")
    return n, rows, cols, vals


def norm_bound(M) -> float:
    """c * r, a block-Schur bound on ||M||: c is the largest spectral norm of a
    k x k block of M and r the most nonzero blocks a row holds, ``row_blocks``
    for a RestrictedMatrix and n for a dense n x n array (read with k = 1)."""
    if isinstance(M, RestrictedMatrix):
        k, rows, cols, vals, r = M.k, M.rows, M.cols, M.vals, M.row_blocks
    else:
        r, rows, cols, vals = _symmetric_coo(M)
        k = 1
    if k == 1:  # |b| is the spectral norm of a 1 x 1 block, without one SVD per entry
        norms = np.abs(vals)
    else:
        pairs, block = np.unique(rows // k * M.dim + cols // k, return_inverse=True)
        blocks = np.zeros((len(pairs), k, k))
        blocks[block, rows % k, cols % k] = vals
        norms = np.linalg.norm(blocks, 2, axis=(1, 2))
    return float(norms.max(initial=0.0)) * r


def default_tau(M) -> float:
    """The clustering tolerance of M: DEFAULT_TAU_SCALE * max(1, norm_bound(M))."""
    return DEFAULT_TAU_SCALE * max(1.0, norm_bound(M))


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's connected component, for the graph
    on range(n) with edges (rows[i], cols[i]): hook every root to the
    smallest root it touches, then compress, until no edge joins two roots."""
    label = np.arange(n)
    while True:
        lr, lc = label[rows], label[cols]
        hooked = label.copy()
        np.minimum.at(hooked, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            up = hooked[hooked]
            if np.array_equal(up, hooked):
                break
            hooked = up
        if np.array_equal(hooked, label):
            return label
        label = hooked


class ComponentSpectrum(NamedTuple):
    """The eigenvalues of a symmetric matrix by connected component.

    ``values`` holds every eigenvalue with multiplicity, in solve order, and
    ``owner`` the component of each; ``label`` is the component of each row.
    A component is named by its smallest row.
    """

    values: np.ndarray
    owner: np.ndarray
    label: np.ndarray

    def principal(self, M, rows: np.ndarray) -> np.ndarray:
        """The eigenvalues, unsorted, of M, the principal submatrix of the solved
        matrix on the ascending ``rows`` (read as the entries of a
        RestrictedMatrix).  A component wholly inside ``rows`` is a component of
        M with the same block, so its spectrum is reused; only the rows of the
        components that ``rows`` cuts are solved."""
        size = np.bincount(self.label, minlength=len(self.label))
        whole = np.bincount(self.label[rows], minlength=len(self.label)) == size
        cut = ~whole[self.label[rows]]
        if not cut.any():
            return self.values[whole[self.owner]]
        at = np.cumsum(cut) - 1
        mine = cut[M.rows]  # an entry joins two rows of one component
        rest = _solve(int(cut.sum()), at[M.rows[mine]], at[M.cols[mine]], M.vals[mine])
        return np.concatenate([self.values[whole[self.owner]], rest.values])


def _solve(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> ComponentSpectrum:
    """The spectrum of the symmetric n x n matrix with these nonzero entries."""
    used = np.zeros(n, dtype=bool)
    used[rows] = True
    if not used.all():  # solve the rows with entries; each empty row adds a 0.0
        kept, empty = np.flatnonzero(used), np.flatnonzero(~used)
        at = np.cumsum(used) - 1
        rest = _solve(len(kept), at[rows], at[cols], vals)
        label = np.arange(n)
        label[kept] = kept[rest.label]
        values, owner = np.r_[rest.values, np.zeros(len(empty))], np.r_[kept[rest.owner], empty]
        return ComponentSpectrum(values, owner, label)
    # the double cover: (u, s) -- (v, 1 - s) for every entry (u, v)
    cover = _component_labels(2 * n, np.r_[2 * rows, 2 * rows + 1], np.r_[2 * cols + 1, 2 * cols])
    label = np.minimum(cover[0::2], cover[1::2]) // 2  # smallest vertex of the component
    side = cover[0::2] != 2 * label
    # group key size * (n + 1) + p, where p is the side-0 size of a chiral
    # component (its cover splits; p >= 1) and 0 for any other
    p = np.where(cover[0::2] != cover[1::2], np.bincount(label[~side], minlength=n), 0)
    key = (np.bincount(label, minlength=n) * (n + 1) + p)[label]
    order = np.lexsort((side, label, key))  # by group, component, side, vertex
    comp = np.flatnonzero(np.diff(label[order], prepend=-1))  # where each component starts
    group = np.flatnonzero(np.diff(key[order[comp]], prepend=-1))  # its first component
    members, count = np.diff(np.r_[group, len(comp)]), np.diff(np.r_[comp, n])
    slot, local = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    slot[order] = np.repeat(np.arange(len(comp)) - np.repeat(group, members), count)
    local[order] = np.arange(n) - np.repeat(comp, count) - side[order] * p[label[order]]
    # entries with the row on side 0, by group: a whole block, or B of [[0, B], [B^T, 0]]
    mine = np.flatnonzero(~side[rows])
    mine = mine[np.argsort(key[rows[mine]], kind="stable")]
    groups = key[order[comp[group]]]
    end = np.searchsorted(key[rows[mine]], groups, side="right")
    names = label[order[comp]]  # the components, group by group
    values, owner = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for g, first, k, lo, hi in zip(groups.tolist(), group.tolist(), members.tolist(), np.r_[0, end[:-1]], end):
        m, pg = divmod(g, n + 1)
        r, c = rows[mine[lo:hi]], cols[mine[lo:hi]]
        blocks = np.zeros((k, m, m) if pg == 0 else (k, pg, m - pg))
        blocks[slot[r], local[r], local[c]] = vals[mine[lo:hi]]
        comps = names[first : first + k]  # slot by slot
        try:
            if pg == 0:
                values.append(np.linalg.eigvalsh(blocks).ravel())
                owner.append(np.repeat(comps, m))
            else:  # +-sigma(B) and |p - q| zeros
                sigma = np.linalg.svd(blocks, compute_uv=False).ravel()
                values += [sigma, -sigma, np.zeros(k * abs(2 * pg - m))]
                pairs = np.repeat(comps, min(pg, m - pg))
                owner += [pairs, pairs, np.repeat(comps, abs(2 * pg - m))]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SpectraError(f"eigensolver did not converge: {exc}") from exc
    return ComponentSpectrum(np.concatenate(values), np.concatenate(owner), label)


def component_spectrum(M) -> ComponentSpectrum:
    """The eigenvalues of a symmetric matrix with their components.

    M is a RestrictedMatrix or a dense array; the eigensolve reads only its
    nonzero entries.
    """
    return _solve(*_symmetric_coo(M))


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, with multiplicity, sorted ascending.

    M is a RestrictedMatrix or a dense array; the eigensolve reads only its
    nonzero entries.
    """
    return np.sort(component_spectrum(M).values)


def cluster_values(values: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted values whose neighbour gap is below tau.

    Returns cluster means and multiplicities.  The mean of a one-value
    cluster is that value, so only larger clusters are averaged.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return values, np.empty(0, dtype=np.int64)
    start = np.flatnonzero(np.r_[True, np.diff(values) >= tau])
    counts = np.diff(np.r_[start, values.size])
    reps = values[start]
    # .mean(), not np.add.reduceat: the two sums can differ in the last bit
    for i in np.flatnonzero(counts > 1).tolist():
        reps[i] = values[start[i] : start[i] + counts[i]].mean()
    return reps, counts


def counting_from_values(values: np.ndarray, tau: float) -> StepFunction:
    reps, counts = cluster_values(values, tau)  # reps ascend strictly
    return StepFunction(reps, np.cumsum(counts, dtype=np.float64))


def _joint_gap(vals_a: np.ndarray, vals_b: np.ndarray, tau: float) -> int:
    """Max over energies of |n_a - n_b| with both spectra snapped to a joint
    tau-clustering (floating ties would otherwise produce spurious gaps);
    both spectra are sorted."""
    reps, _ = cluster_values(np.concatenate([vals_a, vals_b]), tau)
    if reps.size == 0:
        return 0
    edges = (reps[:-1] + reps[1:]) / 2.0 if reps.size > 1 else np.empty(0)
    cum_a = np.searchsorted(vals_a, np.concatenate([edges, [np.inf]]))
    cum_b = np.searchsorted(vals_b, np.concatenate([edges, [np.inf]]))
    return int(np.abs(cum_a - cum_b).max())
