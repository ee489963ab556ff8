"""Finite-range, colouring-invariant operators and their finite restrictions.

A local rule holds the kernel blocks of such an operator as a function of
the local colouring pattern.  The pattern is read on the ball of radius 2R
around the row point x (translated to the identity) and the column point is
addressed by the offset w = y * x^-1, so a rule is invariant under right
translations by construction.  The kernel is a map over whole batches of
patterns: assembly calls it once per offset w, on the patterns at every x
whose partner w x lies in Q.  Any window point q, an offset or not, is
coloured over all of Q in one call when a kernel first reads it, so a rule
that reads no colour (adjacency) colours nothing.  Restrictions H[Q] read
the ambient colouring; they never re-evaluate patterns against Q.  So the
restriction H[W] to a subset W of Q is a principal submatrix of H[Q], and
``principal_restriction`` reads it from H[Q] without assembling it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cayley import Element, FiniteSet, GroupModel, _search
from .colouring import Alphabet, Colouring


class OperatorError(ValueError):
    pass


class SymmetryError(OperatorError):
    """The kernel violates block symmetry; restrictions would not be selfadjoint."""


class LocalPatterns:
    """Read-only view of the colouring around m base points, each pulled back to e.

    ``code_at(q)`` is the array of the m colour codes (indices into the
    alphabet) at window point q, read from ``column(q)``: the colour codes at
    q x for every point x of the restriction, of which the batch holds the
    rows ``base``.  ``symbol_at(q)`` is the same as alphabet symbols.
    """

    __slots__ = ("_column", "_symbols", "_base")

    def __init__(self, column: Callable[[Element], np.ndarray], symbols: np.ndarray, base: np.ndarray):
        self._column, self._symbols, self._base = column, symbols, base

    def __len__(self) -> int:
        return len(self._base)

    def code_at(self, q: Element) -> np.ndarray:
        return self._column(q)[self._base]

    def symbol_at(self, q: Element) -> np.ndarray:
        return self._symbols[self.code_at(q)]


KernelFn = Callable[[LocalPatterns, Element], object]


class LocalRule:
    """Kernel of a finite-range, colouring-invariant operator.

    ``kernel(patterns, offset)`` gives the k x k blocks p_y H i_x for
    y = offset * x, one for each of the m local patterns at x in the batch
    ``patterns``: a scalar (k = 1) or one (k, k) block shared by all m, an
    (m,) array (k = 1) or an (m, k, k) array.  It is only consulted for
    offsets of word length at most the hopping range M.  Blocks must satisfy
    kernel(pattern at y, offset^-1) == kernel(pattern at x, offset)^T, which
    is validated during assembly.
    """

    def __init__(
        self,
        model: GroupModel,
        k: int,
        range_m: int,
        invariance_n: int,
        kernel: KernelFn,
        name: str = "",
    ) -> None:
        if k < 1:
            raise OperatorError("internal dimension must be positive")
        if range_m < 1:
            raise OperatorError("hopping range must be positive")
        if invariance_n < 0:
            raise OperatorError("invariance radius must be >= 0")
        self.model = model
        self.k = k
        self.range_m = range_m
        self.invariance_n = invariance_n
        self.overall_range = max(range_m, invariance_n)
        self.kernel = kernel
        self.name = name or type(self).__name__
        self._offsets = tuple(model.ball(range_m))
        at = {w: i for i, w in enumerate(self._offsets)}
        self._inverse = [at[model.inverse(w)] for w in self._offsets]  # of w^-1

    # -- pattern and block access -------------------------------------------

    def blocks(self, patterns: LocalPatterns, w: Element) -> np.ndarray:
        """The kernel's blocks for offset w over the batch, as (m, k, k)."""
        m, k = len(patterns), self.k
        raw = np.asarray(self.kernel(patterns, w), dtype=np.float64)
        if raw.shape not in [(k, k), (m, k, k)] + ([(), (m,)] if k == 1 else []):
            raise OperatorError(
                f"kernel returned shape {raw.shape} for {m} patterns with k={k}"
            )
        return np.broadcast_to(raw.reshape(-1, k, k), (m, k, k))

    def _patterns(self, C: Colouring, X: np.ndarray) -> Callable[[np.ndarray], LocalPatterns]:
        """The batch of patterns around the rows ``base`` of X, for any base; batches
        share the window columns, the colour codes at q x for every x in X, each
        coloured in one call when a kernel first reads q.  A q outside the window
        B_2R raises KeyError."""
        symbols, kept = np.array(C.alphabet.symbols), {}

        def column(q: Element) -> np.ndarray:
            if q not in kept:
                if q not in self.model.ball(2 * self.overall_range):
                    raise KeyError(q)
                kept[q] = C.colour_codes(self.model.mul_array(q, X))
            return kept[q]

        return lambda base: LocalPatterns(column, symbols, base)

    def block_at(self, C: Colouring, x: Element, y: Element) -> np.ndarray:
        """Kernel block p_y H i_x, zero beyond the hopping range."""
        model = self.model
        w = model.multiply(y, model.inverse(x))
        if model.word_length(w) > self.range_m:
            return np.zeros((self.k, self.k))
        return self.blocks(self._patterns(C, model.coord_rows([x]))(np.zeros(1, dtype=np.int64)), w)[0]


class RestrictedMatrix:
    """Finite restriction H[Q] held as its nonzero entries: vals[i] at
    (rows[i], cols[i]), each position once.  Rows follow the key order of Q:
    rows i*k..i*k+k-1 belong to the i-th element that iterating Q yields.
    ``row_blocks`` is the most nonzero blocks a row can hold."""

    def __init__(
        self, Q: FiniteSet, k: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, row_blocks: int
    ) -> None:
        self.Q, self.k, self.rows, self.cols, self.vals = Q, k, rows, cols, vals
        self.row_blocks = row_blocks

    @property
    def dim(self) -> int:
        return self.k * len(self.Q)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[self.rows, self.cols] = self.vals
        return dense

def restrict_operator(rule: LocalRule, C: Colouring, Q: FiniteSet) -> RestrictedMatrix:
    """Assemble H[Q] = p_Q H i_Q from the rule's kernel blocks.

    One offset w of B_M at a time, one search of the keys of w x in Q finds
    every x whose partner y = w x lies in Q (left multiplication keeps key
    order, so x and y both ascend), and the kernel is called once, on the
    patterns at those x; the block of (x, y) is its answer at x.  So no array
    holds the points of more than one offset, and the pair lists and blocks
    of the offsets are joined once and dropped before the entries are
    formed.  The pairs at w^-1 are those at w swapped, in the same order,
    so transpose consistency, block(y, x) == block(x, y)^T (symmetry of the
    diagonal blocks when w = e), is validated on every pair without a sort.
    A row holds at most |B_M| <= |B_R| nonzero blocks, so ``row_blocks`` is
    |B_R|.
    """
    model = rule.model
    k = rule.k
    X = Q.coords
    patterns = rule._patterns(C, X)
    xs, ys, blocks = [], [], []
    for w in rule._offsets:
        at, hit = _search(Q.packed, model._pack(model.mul_array(w, X)))
        base = hit.nonzero()[0]
        xs.append(base)
        ys.append(at[base])
        blocks.append(rule.blocks(patterns(base), w))
    del patterns, at, hit, base  # the window columns and the last offset's search
    for i, j in enumerate(rule._inverse):
        assert np.array_equal(xs[j], ys[i]) and np.array_equal(ys[j], xs[i])
    x, y = np.concatenate(xs), np.concatenate(ys)
    del xs, ys
    B = np.concatenate(blocks)
    # the block at (y, x), in the order of the pairs (x, y)
    back = np.concatenate([blocks[j] for j in rule._inverse])
    del blocks
    bad = ~(back == B.transpose(0, 2, 1)).all(axis=(1, 2))
    if bad.any():
        i = np.argmax(bad)
        raise SymmetryError(
            f"kernel blocks at ({tuple(X[x[i]].tolist())}, {tuple(X[y[i]].tolist())}) "
            "are not transpose-consistent"
        )
    vals = B.ravel()
    nz = vals.nonzero()[0]
    pair, entry = np.divmod(nz, k * k)  # entry (a, b) of a block is a k + b
    rows, cols = x[pair] * k + entry // k, y[pair] * k + entry % k
    return RestrictedMatrix(Q, k, rows, cols, vals[nz], len(model.ball(rule.overall_range)))


def principal_restriction(M: RestrictedMatrix, W: FiniteSet) -> RestrictedMatrix:
    """H[W] read from M = H[Q] for a subset W of Q, with no assembly.

    The kernel block of a pair depends on the ambient colouring only, so the
    blocks of H[W] are the blocks of H[Q] whose two points lie in W.  The
    entries keep M's order (offset by offset, x ascending: the map from Q to W
    keeps key order) and are renumbered by W's key order, so the result
    equals restrict_operator(rule, C, W) field by field.
    """
    if W == M.Q:
        return M
    at, hit = _search(W.packed, M.Q.packed)  # W's index of every point of Q
    if W.model is not M.Q.model or int(hit.sum()) != len(W):
        raise OperatorError("the principal restriction needs a subset of the restriction's set")
    k = M.k
    keep = hit[M.rows // k] & hit[M.cols // k]
    rows, cols = M.rows[keep], M.cols[keep]
    rows, cols = at[rows // k] * k + rows % k, at[cols // k] * k + cols % k
    return RestrictedMatrix(W, k, rows, cols, M.vals[keep], M.row_blocks)


# -- concrete rules ---------------------------------------------------------------


def adjacency_rule(model: GroupModel) -> LocalRule:
    """Cayley-graph adjacency: block 1 at word distance one, else 0."""

    def kernel(patterns: LocalPatterns, w: Element) -> float:
        return 0.0 if w == model.identity else 1.0

    return LocalRule(model, 1, 1, 1, kernel, name="adjacency")


def percolation_rule(
    model: GroupModel, alphabet: Alphabet, retained: Iterable[str]
) -> LocalRule:
    """Adjacency of the subgraph induced on retained-coloured vertices; the
    colouring's alphabet is ``alphabet``, whose codes index the retained mask."""
    kept = tuple(sorted(set(retained)))
    if not kept:
        raise OperatorError("retained colour set must be non-empty")
    for s in kept:
        if s not in alphabet:
            raise OperatorError(f"retained symbol {s!r} not in alphabet")
    e = model.identity
    mask = np.array([s in kept for s in alphabet.symbols])

    def kernel(patterns: LocalPatterns, w: Element) -> object:
        if w == e:
            return 0.0
        return mask[patterns.code_at(e)] & mask[patterns.code_at(w)]

    return LocalRule(model, 1, 1, 1, kernel, name=f"percolation[{','.join(kept)}]")


def offset_table_rule(
    model: GroupModel, table: Mapping[Sequence[int], float], name: str = "hop_table"
) -> LocalRule:
    """Scalar translation-invariant rule from an explicit offset table.

    The table maps offsets w = y x^-1 to the entry H(x, y); it must be
    inversion-symmetric (table[w^-1] == table[w]) for selfadjointness.
    """
    entries = {model.check_element(w): float(v) for w, v in table.items()}
    for w, v in entries.items():
        if entries.get(model.inverse(w), 0.0) != v:
            raise SymmetryError(f"offset table not symmetric at {w}")
    used = model._pack(model.coord_rows([w for w, v in entries.items() if v != 0.0]))
    hop = max(1, int(model._radii(used, np.ones(len(used), dtype=np.int64)).max(initial=0)))  # one pass

    def kernel(patterns: LocalPatterns, w: Element) -> float:
        return entries.get(w, 0.0)

    return LocalRule(model, 1, hop, 1, kernel, name=name)


def laplacian_rule(base: LocalRule) -> LocalRule:
    """Graph Laplacian of a 0/1 adjacency-type rule: degree on the diagonal,
    minus the base block off the diagonal."""
    if base.k != 1 or base.range_m != 1:
        raise OperatorError("laplacian_rule needs a k=1 adjacency-type base rule")
    model = base.model
    e = model.identity
    gens = tuple(s for s in model.ball(1) if s != e)

    def kernel(patterns: LocalPatterns, w: Element) -> np.ndarray:
        if w == e:
            return sum(base.blocks(patterns, s) for s in gens)
        return -base.blocks(patterns, w)

    return LocalRule(
        model, 1, 1, max(1, base.invariance_n), kernel, name=f"laplacian({base.name})"
    )
