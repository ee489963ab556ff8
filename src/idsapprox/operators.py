"""Finite-range, colouring-invariant operators and their finite restrictions.

A local rule holds the kernel blocks of such an operator as a function of
the local colouring pattern.  The pattern is read on the ball of radius 2R
around the row point x (translated to the identity) and the column point is
addressed by the offset w = y * x^-1, so a rule is invariant under right
translations by construction.  Restrictions H[Q] read the ambient colouring;
they never re-evaluate patterns against Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cayley import Element, FiniteSet, GroupModel
from .colouring import Alphabet, Colouring


class OperatorError(ValueError):
    pass


class SymmetryError(OperatorError):
    """The kernel violates block symmetry; restrictions would not be selfadjoint."""


class LocalPattern:
    """Read-only view of a colouring around a base point, pulled back to e."""

    __slots__ = ("window", "symbols", "_index")

    def __init__(self, window: tuple[Element, ...], symbols: tuple[str, ...]) -> None:
        self.window = window
        self.symbols = symbols
        self._index = {q: i for i, q in enumerate(window)}

    def symbol_at(self, q: Element) -> str:
        return self.symbols[self._index[q]]


KernelFn = Callable[[LocalPattern, Element], object]


class LocalRule:
    """Kernel of a finite-range, colouring-invariant operator.

    ``kernel(pattern, offset)`` must return the k x k block p_y H i_x for
    y = offset * x, given the local pattern at x; it is only consulted for
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
        self._window = model.ball(2 * self.overall_range).sorted_elements
        self._offsets = model.ball(range_m).sorted_elements
        self._block_cache: dict[tuple, np.ndarray] = {}
        self._block_norms: list[float] = []  # spectral norm of each cached block

    # -- pattern and block access -------------------------------------------

    def local_pattern(self, C: Colouring, x: Element) -> LocalPattern:
        window = self.model.ball(2 * self.overall_range).coords
        codes = C.colour_codes(self.model.rmul_array(window, self.model.check_element(x)))
        return LocalPattern(self._window, tuple(C.alphabet.symbols[c] for c in codes.tolist()))

    def _blocks_for(self, keys: Sequence[tuple[tuple[str, ...], Element]]) -> np.ndarray:
        """Kernel blocks for (pattern symbols, offset) keys, stacked (n, k, k).

        Each block enters the cache once, with its spectral norm recorded.
        """
        cache = self._block_cache
        new = [key for key in keys if key not in cache]
        if new:
            raw = np.array(
                [np.reshape(self.kernel(LocalPattern(self._window, s), w), (self.k, self.k))
                 for s, w in new],
                dtype=np.float64,
            )
            raw.setflags(write=False)
            cache.update(zip(new, raw))
            self._block_norms.extend(np.linalg.norm(raw, 2, axis=(1, 2)).tolist())
        return np.array([cache[key] for key in keys]).reshape(-1, self.k, self.k)

    def block_at(self, C: Colouring, x: Element, y: Element) -> np.ndarray:
        """Kernel block p_y H i_x, zero beyond the hopping range."""
        model = self.model
        w = model.multiply(y, model.inverse(x))
        if model.word_length(w) > self.range_m:
            return np.zeros((self.k, self.k))
        return self._blocks_for([(self.local_pattern(C, x).symbols, w)])[0]


@dataclass
class RestrictedMatrix:
    """Finite restriction H[Q] with a fixed, reproducible row order, held as
    its nonzero entries: vals[i] at (rows[i], cols[i]), each position once."""

    Q: FiniteSet
    order: tuple[Element, ...]
    k: int
    rows: np.ndarray  # rows i*k..i*k+k-1 belong to order[i]
    cols: np.ndarray
    vals: np.ndarray
    norm_hint: float = 0.0

    @property
    def dim(self) -> int:
        return self.k * len(self.order)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[self.rows, self.cols] = self.vals
        return dense

    def to_coordinate_text(self) -> str:
        """Plain-text symmetric coordinate dump (upper triangle, 1-based)."""
        upper = np.nonzero(self.rows <= self.cols)[0]
        upper = upper[np.lexsort((self.cols[upper], self.rows[upper]))]
        rows, cols, vals = (a[upper].tolist() for a in (self.rows, self.cols, self.vals))
        lines = [f"% symmetric {self.dim} {self.dim} k={self.k}"]
        lines += [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows, cols, vals)]
        return "\n".join(lines) + "\n"


def _row_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer id of every row of a 2-D array (equal rows, equal ids) and the
    index of one representative row per id, ids in lexicographic row order."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, order[first]


def restrict_operator(rule: LocalRule, C: Colouring, Q: FiniteSet) -> RestrictedMatrix:
    """Assemble H[Q] = p_Q H i_Q from the rule's kernel blocks.

    Every point of the windows around Q is coloured once; rows sharing a
    local pattern share their kernel blocks.  The block for (x, y = w x) is
    kernel(pattern at x, w), and transpose consistency
    kernel(pattern at y, w^-1) == kernel(pattern at x, w)^T (symmetry of the
    diagonal blocks when w = e) is validated once per distinct
    (pattern at x, pattern at y, w).
    """
    model = rule.model
    k = rule.k
    window = rule._window
    offsets = rule._offsets
    X = Q.coords
    n = len(X)
    # Q, then the points q x, window position major
    points = np.concatenate([X] + [model.lmul_array(q, X) for q in window])
    point_id, first = _row_ids(points)
    symbols = np.array(C.alphabet.symbols)
    codes = C.colour_codes(points[first])
    row_of = np.full(len(first), -1)
    row_of[point_id[:n]] = np.arange(n)
    window_ids = point_id[n:].reshape(len(window), n)
    pattern_id, reps = _row_ids(codes[window_ids].T)
    # the symbols of each distinct pattern
    patterns = list(map(tuple, symbols[codes[window_ids[:, reps]].T].tolist()))
    # every ordered pair (x, y = w x) inside Q, with w = offsets[t]
    targets = row_of[window_ids[[window.index(w) for w in offsets]]]
    t, x = np.nonzero(targets >= 0)
    y = targets[t, x]
    # one kernel block per distinct (pattern at x, w)
    block_id, block_reps = _row_ids(np.stack([pattern_id[x], t], axis=1))
    rep_patterns = pattern_id[x[block_reps]].tolist()
    blocks = rule._blocks_for(
        [(patterns[p], offsets[w]) for p, w in zip(rep_patterns, t[block_reps].tolist())]
    )
    # the block of (y, x) for w^-1 was assembled too, as pair (y, x) is in Q
    inverse = np.array([offsets.index(model.inverse(w)) for w in offsets])
    pair_id = np.full((len(patterns), len(offsets)), -1)
    pair_id[pattern_id[x], t] = block_id
    _, triple_reps = _row_ids(np.stack([pattern_id[x], pattern_id[y], t], axis=1))
    fwd = block_id[triple_reps]
    back = pair_id[pattern_id[y[triple_reps]], inverse[t[triple_reps]]]
    bad = ~(blocks[back] == blocks[fwd].transpose(0, 2, 1)).all(axis=(1, 2))
    if bad.any():
        i = triple_reps[np.argmax(bad)]
        raise SymmetryError(
            f"kernel blocks at ({Q.sorted_elements[x[i]]}, {Q.sorted_elements[y[i]]}) "
            "are not transpose-consistent"
        )
    a = np.arange(k)
    rows = (x[:, None, None] * k + a[:, None]).repeat(k, axis=2).ravel()
    cols = (y[:, None, None] * k + a[None, :]).repeat(k, axis=1).ravel()
    vals = blocks[block_id].ravel()
    nz = vals != 0.0
    return RestrictedMatrix(
        Q, Q.sorted_elements, k, rows[nz], cols[nz], vals[nz], norm_hint=norm_bound(rule)
    )


# -- concrete rules ---------------------------------------------------------------


def adjacency_rule(model: GroupModel) -> LocalRule:
    """Cayley-graph adjacency: block 1 at word distance one, else 0."""

    def kernel(pattern: LocalPattern, w: Element) -> float:
        return 0.0 if w == model.identity else 1.0

    return LocalRule(model, 1, 1, 1, kernel, name="adjacency")


def percolation_rule(
    model: GroupModel, alphabet: Alphabet, retained: Iterable[str]
) -> LocalRule:
    """Adjacency of the subgraph induced on retained-coloured vertices."""
    kept = tuple(sorted(set(retained)))
    if not kept:
        raise OperatorError("retained colour set must be non-empty")
    for s in kept:
        if s not in alphabet:
            raise OperatorError(f"retained symbol {s!r} not in alphabet")
    kept_set = frozenset(kept)
    e = model.identity

    def kernel(pattern: LocalPattern, w: Element) -> float:
        if w == e:
            return 0.0
        if pattern.symbol_at(e) in kept_set and pattern.symbol_at(w) in kept_set:
            return 1.0
        return 0.0

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
    hop = max((model.word_length(w) for w, v in entries.items() if v != 0.0), default=1)
    hop = max(hop, 1)

    def kernel(pattern: LocalPattern, w: Element) -> float:
        return entries.get(w, 0.0)

    return LocalRule(model, 1, hop, 1, kernel, name=name)


def laplacian_rule(base: LocalRule) -> LocalRule:
    """Graph Laplacian of a 0/1 adjacency-type rule: degree on the diagonal,
    minus the base block off the diagonal."""
    if base.k != 1 or base.range_m != 1:
        raise OperatorError("laplacian_rule needs a k=1 adjacency-type base rule")
    model = base.model
    e = model.identity
    gens = tuple(s for s in model.ball(1).sorted_elements if s != e)

    def kernel(pattern: LocalPattern, w: Element) -> float:
        if w == e:
            return float(sum(float(base.kernel(pattern, s)) for s in gens))
        return -float(base.kernel(pattern, w))

    return LocalRule(
        model, 1, 1, max(1, base.invariance_n), kernel, name=f"laplacian({base.name})"
    )


@dataclass(frozen=True)
class PeriodicCover:
    """A periodic graph presented as G x D with a G-invariant kernel.

    ``kernel((g, i), (h, j))`` is the matrix element between fibre point i
    over g and fibre point j over h; it must be invariant under right
    translation of both group coordinates and vanish whenever the word
    distance between g and h exceeds hop_range.
    """

    model: GroupModel
    fiber_size: int
    kernel: Callable[[tuple[Element, int], tuple[Element, int]], float]
    hop_range: int


def periodic_fold(cover: PeriodicCover) -> LocalRule:
    """Fold a periodic cover into a trivially-invariant rule with k = |D|."""
    model = cover.model
    d = cover.fiber_size
    if d < 1:
        raise OperatorError("fibre must be non-empty")
    e = model.identity
    # validate G-invariance and the finite range on deterministic samples
    probe = model.ball(min(cover.hop_range + 1, 3)).sorted_elements
    shifts = model.ball(2).sorted_elements
    for g in probe[:6]:
        for h in probe[:6]:
            v0 = cover.kernel((g, 0), (h, d - 1))
            for t in shifts[:5]:
                gt = model.multiply(g, t)
                ht = model.multiply(h, t)
                if cover.kernel((gt, 0), (ht, d - 1)) != v0:
                    raise OperatorError("cover kernel is not G-invariant")
    shell = [
        w
        for w in model.ball(cover.hop_range + 1).sorted_elements
        if model.word_length(w) == cover.hop_range + 1
    ]
    for w in shell[:25]:
        for i in range(d):
            for j in range(d):
                if cover.kernel((e, i), (w, j)) != 0.0:
                    raise OperatorError(
                        "cover kernel exceeds the declared hopping range"
                    )

    def kernel(pattern: LocalPattern, w: Element) -> np.ndarray:
        block = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                block[i, j] = cover.kernel((e, i), (w, j))
        return block

    return LocalRule(model, d, cover.hop_range, 0, kernel, name="periodic_fold")


# -- diagnostics -------------------------------------------------------------------


@dataclass
class InvarianceReport:
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_invariance(
    rule: LocalRule, C: Colouring, samples: Iterable[tuple[Element, Element]]
) -> InvarianceReport:
    """Sampled check of colouring invariance.

    For sample pairs (x, t) whose local patterns at x and x*t agree, every
    block p_y H i_x within range must equal the block at the translated pair.
    Violations are collected, not raised (diagnostic).
    """
    model = rule.model
    report = InvarianceReport()
    for x, t in samples:
        x = model.check_element(x)
        t = model.check_element(t)
        xt = model.multiply(x, t)
        if rule.local_pattern(C, x).symbols != rule.local_pattern(C, xt).symbols:
            continue
        for w in rule._offsets:
            y = model.multiply(w, x)
            yt = model.multiply(y, t)
            report.checked += 1
            b1 = rule.block_at(C, x, y)
            b2 = rule.block_at(C, xt, yt)
            if not np.array_equal(b1, b2):
                report.violations.append((x, t, w))
    return report


def norm_bound(rule: LocalRule) -> float:
    """Operator-norm certificate c * |B_R| over the block values seen so far.

    c is the maximal spectral norm among the kernel blocks evaluated during
    assembly; the bound is an upper certificate relative to that enumeration,
    not the exact operator norm.
    """
    norms = rule._block_norms
    if not norms:
        return 0.0
    return max(norms) * len(rule.model.ball(rule.overall_range))
