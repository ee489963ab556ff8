"""Group arithmetic, word metric, balls, boundaries and tilings.

Two concrete groups are provided: the free abelian lattice Z^d and the
discrete Heisenberg group H3.  All group structure lives on the model object.
Integer tuples appear only at the API edge: as constructor input, as what
iterating a set yields, and in the scalar group law (``multiply``,
``inverse``).  The word metric is oriented so that right translations
g -> g*t are isometries (distance(g, h) is the word length of g*h^-1), which
is the orientation under which tile translates, boundary cardinalities and
pattern translations are all compatible.

A finite set is held as the sorted array of its packed int64 keys: each
coordinate gets 63 // dim bits, so key order is lexicographic element order.
In both groups that order is invariant under ``mul_array`` (the one array
product, broadcast over leading axes) by a fixed factor on either side, so
translates of sorted keys are sorted.  Distinct keys are found by sorting.

A run is a maximal range of consecutive keys of a set.  The last coordinate
has the lowest bit field and |c| < pack_bound forbids a carry, so a run is a
column of consecutive last coordinates with the others fixed.  In both groups
z = (0,...,0,1) is central and key(g z^t) = key(g) + t, so left multiplication
maps a run to a run of the same length, and a run of length L from b times a
run of length M from q is the run from b*q of length L + M - 1.  A product of
two sets is therefore formed from run starts alone (``_run_product``), and
``admissible_positions`` works on runs too, read from each set's
``run_heads`` (first point, length and field extent of the runs).  The
starts b*q are formed as keys (``GroupModel._products``), and runs are merged
and counted from their first and last keys, sorted apart (``_merge``, ``_covered``).

The word metric lives on the runs of the balls: B_(r+1) = B_1 B_r (a word of
length r + 1 is a generator times a word of length r), so each level is one
run product, and the model keeps the maximal runs of every level it has
grown.  The word length of a key is the least r whose level holds it, and the
diameter of Q is the least r whose level holds every run of Q Q^-1.

Every boundary comes from runs of the symmetric ball B_R = {x : |x| <= R}:

- shrink(Q, R) = {x : B_R x inside Q} = admissible_positions(B_R, Q), kept
  per set and radius, since certificates ask for one shrink several times;
  it is Q at R = 0, and empty once a shrink at a smaller radius is empty;
- grow(Q, R) = B_R Q, the points within distance R of Q, a run product whose
  size is also kept per set and radius;
- boundary_int = Q minus shrink, boundary_ext = grow minus Q and boundary =
  grow minus shrink, so the sizes are sums of run lengths.

The colour-free facts that the pattern layer asks for again and again are
kept on objects that live as long as the sets: U keeps
admissible_positions(tile, U) per tile, the model keeps the canonical
translate Q d^-1 (d = max(Q)) per set content, one object per canonical
translate, and a canonical translate holds the pattern classes found on it.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Element = tuple[int, ...]


class GroupModelError(ValueError):
    """Raised for operations on incompatible group elements."""


class GroupModel:
    """Base class for a finitely generated group with a symmetric generator set.

    Every model keeps packed-key order invariant under ``mul_array`` by a
    fixed factor: if key(g) < key(h) then key(g*s) < key(h*s) and
    key(s*g) < key(s*h).  Translates of sorted sets are therefore sorted.
    """

    dim: int
    generators: tuple[Element, ...]

    def __init__(self) -> None:
        self.identity: Element = (0,) * self.dim
        if {self.inverse(s) for s in self.generators} != set(self.generators):
            raise GroupModelError(f"generators of {self.describe()} are not closed under inverse")
        self._gens = np.array(self.generators, dtype=np.int64).reshape(-1, self.dim)
        self.pack_bits = 63 // self.dim
        self.pack_bound = 1 << (self.pack_bits - 1)  # coordinates satisfy |c| < bound
        self._pack_shifts = self.pack_bits * np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        self._pack_scale = np.left_shift(1, self._pack_shifts)
        self._pack_offset = self.pack_bound * int(self._pack_scale.sum())  # the key of coordinates 0
        # maximal runs of B_0, B_1, ...: first keys, lengths and extent; B_1 (first as
        # points, then as runs) times the last level, whose heads are kept, grows the next
        self._front = np.array([self.identity], dtype=np.int64)
        zero = np.zeros((2, self.dim - 1), dtype=np.int64)  # the extent of B_0 = {e}
        self._levels = [(self._pack(self._front), np.ones(1, dtype=np.int64), zero)]
        step = np.concatenate([self._front, self._gens])
        self._step = (step, np.ones(len(step), dtype=np.int64), _extent(step))
        self._ball_cache: dict[int, "FiniteSet"] = {}
        # canonical_translate by set content, so equal sets share one translate
        self._canonical: dict["FiniteSet", tuple["FiniteSet", Element]] = {}

    # -- group structure ----------------------------------------------------

    def multiply(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inverse(self, g: Element) -> Element:
        raise NotImplementedError

    def mul_array(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Elementwise product g*h of coordinate arrays (or elements), broadcast
        over the leading axes, coordinates on the last.  Here the sum of Z^d,
        one coordinate at a time so inner loops run over rows; H3 overrides it."""
        g, h = np.asarray(g, dtype=np.int64), np.asarray(h, dtype=np.int64)
        out = np.empty(np.broadcast_shapes(g.shape, h.shape), dtype=np.int64)
        for c in range(self.dim):
            np.add(g[..., c], h[..., c], out=out[..., c])
        return out

    def inverse_array(self, g: np.ndarray) -> np.ndarray:
        """Inverses of coordinate rows: here the negation of Z^d; H3 overrides it."""
        return -np.asarray(g, dtype=np.int64)

    def check_element(self, g: Sequence[int]) -> Element:
        try:
            g = tuple(operator.index(c) for c in g)  # as membership: no float or str
        except TypeError as exc:
            raise GroupModelError(f"{g!r} is not a sequence of integer coordinates") from exc
        if len(g) != self.dim:
            raise GroupModelError(f"element of length {len(g)} does not belong to {self.describe()}")
        return g

    def coord_rows(self, elements: Iterable[Sequence[int]]) -> np.ndarray:
        """The checked elements as the rows of an int64 array."""
        rows = [self.check_element(g) for g in elements]
        try:
            return np.array(rows, dtype=np.int64).reshape(len(rows), self.dim)
        except OverflowError as exc:  # a coordinate beyond int64
            raise GroupModelError(
                f"coordinate out of packable range |c| < {self.pack_bound} for {self.describe()}"
            ) from exc

    def describe(self) -> str:
        raise NotImplementedError

    # -- packing ------------------------------------------------------------

    def _check_range(self, extent: int) -> None:
        """Raise unless coordinates with |c| <= extent are packable."""
        if extent >= self.pack_bound:
            raise GroupModelError(
                f"coordinate out of packable range |c| < {self.pack_bound} for {self.describe()}"
            )

    def _products(self, b_heads: tuple, q_heads: tuple, span: np.ndarray) -> np.ndarray:
        """Keys of b_i q_j over two run heads: the key is linear in the fields and
        the law adds all but the last, the one field formed per pair (b_c + q_c,
        plus b_b q_a on H3).  Raises unless the runs of span_ij + 1 keys pack."""
        (b, _, b_ext), (q, _, q_ext) = b_heads, q_heads
        c = self._last_of_products(b, q)
        top = max((b_ext + q_ext).max(initial=0), (c + span).max(initial=0))  # 0 over no pairs
        self._check_range(max(top, -c.min(initial=0)))
        scale = self._pack_scale[:-1]
        return (b[:, :-1] @ scale)[:, None] + (q[:, :-1] @ scale + self._pack_offset) + c

    def _last_of_products(self, b: np.ndarray, q: np.ndarray) -> np.ndarray:
        return b[:, -1, None] + q[:, -1]

    def _pack(self, coords: np.ndarray) -> np.ndarray:
        """Pack coordinate rows into sortable int64 keys (lexicographic order)."""
        if coords.size:
            self._check_range(max(-coords.min(), coords.max()))
        # coords + pack_bound is positive and fits its field, and the fields do
        # not overlap, so the weighted sum puts each coordinate in its own field
        return coords @ self._pack_scale + self._pack_offset

    def _field(self, keys: np.ndarray, i: int | slice) -> np.ndarray:
        """Coordinate i of every key, read from its bit field."""
        return ((keys >> self._pack_shifts[i]) & ((1 << self.pack_bits) - 1)) - self.pack_bound

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        return self._field(keys[:, None], slice(None))

    # -- word metric --------------------------------------------------------

    def _level(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First keys, lengths and extent of the maximal runs of B_r, grown as
        B_(r+1) = B_1 B_r from the last level kept."""
        levels = self._levels
        while len(levels) <= r:
            first, length = _run_product(self, self._step, (self._front, *levels[-1][1:]))
            levels.append((first, length, self._step[2] + levels[-1][2]))
            self._front = self._unpack(first)
            if len(levels) == 2:
                self._step = (self._front, *levels[1][1:])
        return levels[r]

    def _radii(self, first: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Least r with the run of ``length`` keys from ``first`` inside B_r, for
        every run: the largest word length on it.  Ball runs are maximal, so a
        run lies in B_r exactly when it lies in the last ball run starting at or
        before it."""
        radius, todo, r = np.zeros(len(first), dtype=np.int64), np.arange(len(first)), 0
        while todo.size:
            f, n, _ = self._level(r)
            if r and n.sum() == self._level(r - 1)[1].sum():
                raise GroupModelError("generators do not reach requested element")
            i = np.searchsorted(f, first[todo], side="right") - 1
            held = (i >= 0) & (first[todo] + (length[todo] - 1) - f[i] < n[i])  # i = -1: no ball run
            radius[todo] = r
            todo, r = todo[~held], r + 1
        return radius

    def word_length(self, g: Element) -> int:
        """Minimal number of generators whose product equals g."""
        return int(self._radii(self._pack(self.coord_rows([g])), np.ones(1, dtype=np.int64))[0])

    def ball(self, radius: int) -> "FiniteSet":
        """Closed ball of the given radius around the identity."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius not in self._ball_cache:
            first, length, extent = self._level(radius)
            ball = _from_packed(self, _run_keys(first, length))
            top = radius == len(self._levels) - 1  # the heads of the last level are kept
            ball._heads = (self._front if top else self._unpack(first), length, extent)
            ball._heads[0].flags.writeable = length.flags.writeable = False
            self._ball_cache[radius] = ball
        return self._ball_cache[radius]

    # -- bulk helpers over finite sets ---------------------------------------

    def set_diameter(self, Q: "FiniteSet") -> int:
        """Largest |g h^-1| over g, h in Q, on runs: z is central, so the inverse
        of the run f, ..., f z^(L - 1) is the run from f^-1 z^-(L - 1) of length
        L, and the g h^-1 are the run product of Q and Q^-1."""
        if len(Q) == 0:
            raise ValueError("diameter of the empty set is undefined")
        first, length, extent = Q.run_heads
        inverse = self.inverse_array(first)
        inverse[:, -1] -= length - 1
        keys, length = _run_product(self, Q.run_heads, (inverse, length, extent[::-1]))
        return int(self._radii(keys, length).max())


class FreeAbelian(GroupModel):
    """Z^d with generators {+-e_1, ..., +-e_d}; the word metric is l^1."""

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError("dimension must be positive")
        self.dim = d
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(tuple(e))
            e = [0] * d
            e[i] = -1
            gens.append(tuple(e))
        self.generators = tuple(gens)
        super().__init__()

    def describe(self) -> str:
        return f"Z^{self.dim}"

    def multiply(self, g: Element, h: Element) -> Element:
        g = self.check_element(g)
        h = self.check_element(h)
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g: Element) -> Element:
        g = self.check_element(g)
        return tuple(-a for a in g)


class Heisenberg3(GroupModel):
    """Discrete Heisenberg group: (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b a')."""

    def __init__(self) -> None:
        self.dim = 3
        self.generators = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        super().__init__()

    def describe(self) -> str:
        return "H3"

    def multiply(self, g: Element, h: Element) -> Element:
        g = self.check_element(g)
        h = self.check_element(h)
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[1] * h[0])

    def inverse(self, g: Element) -> Element:
        a, b, c = self.check_element(g)
        return (-a, -b, a * b - c)

    def _last_of_products(self, b: np.ndarray, q: np.ndarray) -> np.ndarray:
        return super()._last_of_products(b, q) + b[:, 1, None] * q[:, 0]

    def mul_array(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        out = super().mul_array(g, h)
        out[..., 2] += np.multiply(np.asarray(g)[..., 1], np.asarray(h)[..., 0], dtype=np.int64)
        return out

    def inverse_array(self, g: np.ndarray) -> np.ndarray:
        out = super().inverse_array(g)
        out[..., 2] += out[..., 0] * out[..., 1]  # (a,b,c)^-1 = (-a, -b, ab - c)
        return out


class FiniteSet:
    """Immutable finite subset of a group, with cached geometry.

    The content is ``packed``, the sorted unique int64 keys of the elements;
    ``coords`` is a view built from it on first use.  Iteration yields element
    tuples in key order, and membership packs the one element and searches the
    keys.
    """

    __slots__ = (
        "model", "packed", "_coords", "_heads", "_diameter", "_shrunk", "_grown", "_positions",
        "_classes", "_hash",
    )

    def __init__(self, model: GroupModel, elements: Iterable[Sequence[int]]) -> None:
        self._set_keys(model, _unique_keys(model._pack(model.coord_rows(elements))))

    def _set_keys(self, model: GroupModel, keys: np.ndarray) -> None:
        keys.flags.writeable = False
        self.model = model
        self.packed = keys
        self._coords: Optional[np.ndarray] = None
        self._heads: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._diameter: Optional[int] = None
        self._shrunk: dict[int, FiniteSet] = {}  # shrink(self, R) by R
        self._grown: dict[int, int] = {}  # |grow(self, R)| by R
        self._positions: dict[FiniteSet, FiniteSet] = {}  # admissible_positions(tile, self) by tile
        self._classes: dict = {}  # the pattern classes on a canonical translate, interned by colouring
        self._hash: Optional[int] = None

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Element]:
        # tolist() yields Python ints, so reprs (pattern digests) are stable
        return map(tuple, self.coords.tolist())

    def __contains__(self, g: object) -> bool:
        model = self.model
        try:
            coords = [operator.index(c) for c in g]  # a float or str is no coordinate
        except TypeError:
            return False
        if len(coords) != model.dim or max(map(abs, coords)) >= model.pack_bound:
            return False
        return bool(_search(self.packed, model._pack(np.array([coords], dtype=np.int64)))[1][0])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSet)
            and other.model is self.model
            and np.array_equal(other.packed, self.packed)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.model), self.packed.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteSet({self.model.describe()}, n={len(self)})"

    @property
    def coords(self) -> np.ndarray:
        if self._coords is None:
            self._coords = self.model._unpack(self.packed)
            self._coords.flags.writeable = False
        return self._coords

    @property
    def run_heads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of the first element and length of every run, and their extent."""
        if self._heads is None:
            at, length = _runs(self.packed)
            first = self.model._unpack(self.packed[at])
            first.flags.writeable = length.flags.writeable = False
            self._heads = (first, length, _extent(first))
        return self._heads

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = self.model.set_diameter(self)
        return self._diameter

    def right_translate(self, x: Sequence[int]) -> "FiniteSet":
        """The set times x; element i of the result is element i of the set times x."""
        x = self.model.check_element(x)
        return _from_packed(self.model, self.model._pack(self.model.mul_array(self.coords, x)))

    def left_translate(self, s: Sequence[int]) -> "FiniteSet":
        """s times the set; element i of the result is s times element i of the set."""
        s = self.model.check_element(s)
        return _from_packed(self.model, self.model._pack(self.model.mul_array(s, self.coords)))

    def _keys_of(self, other: "FiniteSet") -> np.ndarray:
        if other.model is not self.model:
            raise GroupModelError("set operation across different group models")
        return other.packed

    def union(self, other: "FiniteSet") -> "FiniteSet":
        keys = _unique_keys(np.concatenate([self.packed, self._keys_of(other)]))
        return _from_packed(self.model, keys)

    def intersection(self, other: "FiniteSet") -> "FiniteSet":
        keys = np.intersect1d(self.packed, self._keys_of(other), assume_unique=True)
        return _from_packed(self.model, keys)

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        keys = np.setdiff1d(self.packed, self._keys_of(other), assume_unique=True)
        return _from_packed(self.model, keys)


def _from_packed(model: GroupModel, keys: np.ndarray) -> FiniteSet:
    """Set with the given sorted unique keys (not checked)."""
    out = FiniteSet.__new__(FiniteSet)
    out._set_keys(model, keys)
    return out


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys, found by sorting: faster than np.unique's hash table."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


# -- boundaries ----------------------------------------------------------------


def _search(haystack: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion index of every needle in a sorted unique array, and whether
    the needle is there (then the index is its position)."""
    idx = np.searchsorted(haystack, needles)
    if haystack.size == 0:
        return idx, np.zeros(len(needles), dtype=bool)
    return idx, haystack[np.minimum(idx, len(haystack) - 1)] == needles


def _extent(first: np.ndarray) -> np.ndarray:
    """-min and max (0 if none) of every field but the last over head coordinates,
    constant on a run: the extents of two run heads add up to that of their
    products, and the inverses, which negate these fields, have its row reverse."""
    rest = first[:, :-1]
    return np.array([-rest.min(0, initial=0), rest.max(0, initial=0)])


def _run_product(model: GroupModel, b_heads: tuple, q_heads: tuple) -> tuple[np.ndarray, np.ndarray]:
    """First keys and lengths of the maximal runs of the product of two sets
    given by their run heads.  Each pair of runs gives the run from b*q of
    length L + M - 1 (see the module), range-checked."""
    span = b_heads[1][:, None] + (q_heads[1] - 2)  # length - 1
    first = model._products(b_heads, q_heads, span)
    first, last = _merge(first, first + span)
    return first, last - first + 1


def _grow_runs(Q: FiniteSet, R: int) -> tuple[np.ndarray, np.ndarray]:
    """First keys and lengths of the maximal runs of B_R Q."""
    if R < 0:
        raise ValueError("boundary radius must be >= 0")
    return _run_product(Q.model, Q.model.ball(R).run_heads, Q.run_heads)


def boundary_int(Q: FiniteSet, R: int) -> FiniteSet:
    """Interior R-boundary: points of Q within distance R of the complement."""
    return Q.difference(shrink(Q, R))


def boundary_int_size(Q: FiniteSet, R: int) -> int:
    return len(Q) - len(shrink(Q, R))


def boundary_size(Q: FiniteSet, R: int) -> int:
    if R not in Q._grown:
        Q._grown[R] = len(Q) if R == 0 else int(_grow_runs(Q, R)[1].sum())  # B_0 = {e}
    return Q._grown[R] - len(shrink(Q, R))


def boundary_ext(Q: FiniteSet, R: int) -> FiniteSet:
    """Exterior R-boundary: points outside Q within distance R of Q."""
    return grow(Q, R).difference(Q)


def boundary(Q: FiniteSet, R: int) -> FiniteSet:
    """Two-sided R-boundary of Q."""
    return grow(Q, R).difference(shrink(Q, R))


def shrink(Q: FiniteSet, R: int) -> FiniteSet:
    """Q_R = Q minus its two-sided R-boundary, the x with B_R x inside Q; may
    be empty.  Each set keeps its shrinks by radius.  Q_0 is Q (B_0 = {e}), and
    balls are nested, so Q_R is empty once a shrink at a smaller radius is."""
    if R < 0:
        raise ValueError("boundary radius must be >= 0")
    if R not in Q._shrunk:
        empty = [S for r, S in Q._shrunk.items() if r < R and not len(S)]
        if R == 0:
            Q._shrunk[R] = Q
        elif empty:
            Q._shrunk[R] = empty[0]
        else:
            Q._shrunk[R] = admissible_positions(Q.model.ball(R), Q)
    return Q._shrunk[R]


def canonical_translate(Q: FiniteSet) -> tuple[FiniteSet, Element]:
    """The translate Q d^-1 with d = max(Q), and d.  Translation keeps key
    order, so its greatest element is the identity and every translate of Q
    has the same one.  The model keeps it per set: equal sets share one
    translate, which is its own, so there is one object per canonical set."""
    memo = Q.model._canonical
    found = memo.get(Q)
    if found is None:
        d = tuple(Q.coords[-1].tolist())
        D = Q.right_translate(Q.model.inverse(d))
        D = memo.setdefault(D, (D, Q.model.identity))[0]  # an equal translate kept before
        found = memo[Q] = (D, d)
    return found


def grow(Q: FiniteSet, R: int) -> FiniteSet:
    """Q^R = Q together with its two-sided R-boundary, the product B_R Q."""
    return _from_packed(Q.model, _run_keys(*_grow_runs(Q, R)))


# -- Folner tiles and grids ------------------------------------------------------


class TilingSpec:
    """A Folner tile Q_n together with its symmetric grid subgroup K_n.

    For Z^d the tile is the cube {0..n-1}^d with grid (nZ)^d; for H3 it is
    the box {(a,b,c) | a,b in [0,n), c in [0,n^2)} with grid
    {(a,b,c) | a,b in nZ, c in n^2 Z}.
    """

    def __init__(self, model: GroupModel, n: int) -> None:
        if n < 1:
            raise ValueError("tile index must be >= 1")
        self.model = model
        self.n = n
        self._bounding_diameter: Optional[int] = None
        if isinstance(model, Heisenberg3):
            sides = [n, n, n * n]
        elif isinstance(model, FreeAbelian):
            sides = [n] * model.dim
            self._bounding_diameter = model.dim * n
        else:
            raise GroupModelError("tilings are provided for Z^d and H3 only")
        axes = np.meshgrid(*[np.arange(k, dtype=np.int64) for k in sides], indexing="ij")
        # the rows of an "ij" grid come in lexicographic order: sorted keys
        self.tile = _from_packed(model, model._pack(np.stack(axes, axis=-1).reshape(-1, model.dim)))

    @property
    def bounding_diameter(self) -> int:
        """Radius used for diameter-sized boundaries in certificates.

        For Z^d this is the value d*n used throughout the lattice estimates
        (an upper bound for the true l^1 diameter d(n-1)); for H3 it is the
        exact BFS diameter of the tile.
        """
        if self._bounding_diameter is None:
            self._bounding_diameter = self.tile.diameter
        return self._bounding_diameter

    def decompose_array(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        if isinstance(self.model, Heisenberg3):
            a, b, c = coords.T
            alpha, beta = a % n, b % n
            t = c - beta * (a - alpha)
            zeta = t % (n * n)
            q = np.stack([alpha, beta, zeta], axis=1)
            return q, np.stack([a - alpha, b - beta, t - zeta], axis=1)
        q = coords % n
        return q, coords - q


def folner_set(model: GroupModel, n: int) -> TilingSpec:
    """The n-th symmetric tiling Folner set for the given group."""
    return TilingSpec(model, n)


def interval_folner(model: FreeAbelian, j: int, scale: int = 3, side: str = "positive") -> FiniteSet:
    """The Z^1 interval sequences U_j = {1..scale*j} / V_j = {-scale*j..-1}."""
    if model.dim != 1:
        raise GroupModelError("interval Folner sequences are one-dimensional")
    if j < 1:
        raise ValueError("index must be >= 1")
    if side not in ("positive", "negative"):
        raise ValueError(f"unknown side {side!r}")
    first = 1 if side == "positive" else -scale * j
    points = np.arange(first, first + scale * j, dtype=np.int64)[:, None]
    return _from_packed(model, model._pack(points))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first key and length of every run of sorted keys."""
    edge = np.ones(len(keys) + 1, dtype=bool)  # where a run starts, and the end
    np.not_equal(keys[1:], keys[:-1] + 1, out=edge[1:-1])
    at = edge.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


def _merge(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last keys of the maximal runs holding the runs of keys first..last
    (any shape), both sorted apart: a run starts at i when first[i] - 1 > last[i - 1]
    (no run holds first[i] - 1; abutting runs join, tied starts start one) and
    ends at the last key before the next start.  Last keys fit 2^63 - 1; stops not."""
    first, last = np.sort(first, axis=None), np.sort(last, axis=None)
    edge = np.ones(len(first) + 1, dtype=bool)  # where a run starts, and the end
    np.greater(first[1:] - 1, last[:-1], out=edge[1:-1])  # keys are positive
    return first[edge[:-1]], last[edge[1:]]


def _covered(first: np.ndarray, last: np.ndarray, times: int) -> tuple[np.ndarray, np.ndarray]:
    """First keys and lengths of the maximal runs (and maybe empty ones) of the keys
    that at least ``times`` runs of keys first..last hold.  searchsorted counts the
    runs holding the keys after each of the points first - 1 and last, sorted apart
    (starts first at a tie, so abutting runs join): the k-th start where the count
    reaches ``times`` pairs with the k-th last key where it falls below."""
    starts, stops = np.sort(first - 1), np.sort(last)  # keys are positive: no overflow
    rank = np.arange(1, len(starts) + 1)
    up = (rank - np.searchsorted(stops, starts) == times).nonzero()[0]
    down = (np.searchsorted(starts, stops, side="right") - rank == times - 1).nonzero()[0]
    return starts[up] + 1, stops[down] - starts[up]


def _run_keys(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Keys of disjoint sorted runs, in order."""
    return np.repeat(first - length.cumsum() + length, length) + np.arange(length.sum())


def admissible_positions(tile: FiniteSet, U: FiniteSet) -> FiniteSet:
    """All x with tile*x contained in U (not restricted to the grid); U keeps
    them per tile."""
    if tile not in U._positions:
        U._positions[tile] = _admissible_positions(tile, U)
    return U._positions[tile]


def _admissible_positions(tile: FiniteSet, U: FiniteSet) -> FiniteSet:
    """admissible_positions on runs.

    z = (0,...,0,1) is central and key(g z^t) = key(g) + t, so left
    multiplication maps a run to a run of the same length (on H3 the c shift
    is h_c + h_b g_a, and g_a is constant on a run).  A tile run q, ..., qz^(L-1)
    lies in U*x^-1 exactly when qx lies in erode_L(U), the starts [s, e-L+1) of
    the runs [s, e) of U with e - s >= L.  So it allows the runs q^-1 erode_L(U),
    of which only the starts are translated, and a coverage count over the
    sorted endpoints keeps what every tile run allows.
    """
    model = tile.model
    if len(tile) == 0:
        raise ValueError("tile must be non-empty")
    if len(tile) > len(U):  # tile*x has more points than U
        return _from_packed(model, _EMPTY)
    t_first, t_len, t_extent = tile.run_heads
    # row i, column j: the run q_i^-1 * erode(run j of U) for tile run i
    length = U.run_heads[1] - t_len[:, None] + 1
    keep = length > 0  # every pair is range-checked at its start, the kept ones at their end too
    inverse = (model.inverse_array(t_first), t_len, t_extent[::-1])
    starts = model._products(inverse, U.run_heads, length - 1)[keep]
    # the runs that one tile run allows are disjoint, so the keys that every
    # tile run allows are those covered len(t_len) times
    return _from_packed(model, _run_keys(*_covered(starts, starts + (length[keep] - 1), len(t_len))))
