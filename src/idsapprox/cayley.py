"""Group arithmetic, word metric, balls, boundaries and tilings.

Two concrete groups are provided: the free abelian lattice Z^d and the
discrete Heisenberg group H3.  Elements are plain integer tuples; all group
structure lives on the model object.  The word metric is oriented so that
right translations g -> g*t are isometries (distance(g, h) is the word
length of g*h^-1), which is the orientation under which tile translates,
boundary cardinalities and pattern translations are all compatible.

A finite set is held as the sorted array of its packed int64 keys: each
coordinate gets 63 // dim bits, so every supported group packs and key order
is lexicographic element order.  Word lengths are memoised per model in an
expanding breadth-first table; boundaries, diameters, tile covers and
positions are array operations on the keys.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Element = tuple[int, ...]


class GroupModelError(ValueError):
    """Raised for operations on incompatible group elements."""


class GroupModel:
    """Base class for a finitely generated group with a symmetric generator set."""

    dim: int
    generators: tuple[Element, ...]

    def __init__(self) -> None:
        self.identity: Element = (0,) * self.dim
        self.pack_bits = 63 // self.dim
        self.pack_bound = 1 << (self.pack_bits - 1)  # coordinates satisfy |c| < bound
        self._pack_shifts = self.pack_bits * np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        self._pack_scale = np.left_shift(1, self._pack_shifts)
        self._lock = threading.Lock()
        # word-length table: packed keys (sorted), distances, per-level coords
        e = np.array([self.identity], dtype=np.int64)
        self._wl_keys = self._pack(e)
        self._wl_dist = np.zeros(1, dtype=np.int32)
        self._levels: list[np.ndarray] = [e]
        self._ball_cache: dict[int, "FiniteSet"] = {}

    # -- group structure ----------------------------------------------------

    def multiply(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inverse(self, g: Element) -> Element:
        raise NotImplementedError

    def rmul_array(self, coords: np.ndarray, s: Element) -> np.ndarray:
        """Right-multiply every row by the constant element s."""
        raise NotImplementedError

    def lmul_array(self, s: Element, coords: np.ndarray) -> np.ndarray:
        """Left-multiply every row by the constant element s."""
        raise NotImplementedError

    def check_element(self, g: Sequence[int]) -> Element:
        g = tuple(int(c) for c in g)
        if len(g) != self.dim:
            raise GroupModelError(
                f"element of length {len(g)} does not belong to {self.describe()}"
            )
        return g

    def describe(self) -> str:
        raise NotImplementedError

    # -- packing ------------------------------------------------------------

    def _pack(self, coords: np.ndarray) -> np.ndarray:
        """Pack coordinate rows into sortable int64 keys (lexicographic order)."""
        if coords.size and (coords.min() <= -self.pack_bound or coords.max() >= self.pack_bound):
            raise GroupModelError(
                f"coordinate out of packable range |c| < {self.pack_bound} for {self.describe()}"
            )
        # the offset fields are positive and do not overlap, so the weighted
        # sum places each coordinate in its own bit field
        return (coords + self.pack_bound) @ self._pack_scale

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        fields = (keys[:, None] >> self._pack_shifts) & ((1 << self.pack_bits) - 1)
        return fields - self.pack_bound

    # -- word metric --------------------------------------------------------

    def _expand_level(self) -> bool:
        """Grow the BFS table by one radius; returns False once exhausted."""
        frontier = self._levels[-1]
        if frontier.size == 0:
            return False
        cands = np.concatenate([self.rmul_array(frontier, s) for s in self.generators])
        keys = self._pack(cands)
        keys, first = np.unique(keys, return_index=True)
        idx = np.searchsorted(self._wl_keys, keys)
        idx_c = np.minimum(idx, len(self._wl_keys) - 1)
        known = self._wl_keys[idx_c] == keys
        new_keys = keys[~known]
        new_coords = cands[first[~known]]
        radius = len(self._levels)
        merged = np.concatenate([self._wl_keys, new_keys])
        dists = np.concatenate(
            [self._wl_dist, np.full(len(new_keys), radius, dtype=np.int32)]
        )
        order = np.argsort(merged, kind="stable")
        self._wl_keys = merged[order]
        self._wl_dist = dists[order]
        self._levels.append(new_coords)
        return new_keys.size > 0

    def _lengths_packed(self, keys: np.ndarray) -> np.ndarray:
        """Word lengths for packed keys, expanding the table as needed."""
        with self._lock:
            while True:
                idx = np.searchsorted(self._wl_keys, keys)
                idx_c = np.minimum(idx, len(self._wl_keys) - 1)
                if bool((self._wl_keys[idx_c] == keys).all()):
                    return self._wl_dist[idx_c].astype(np.int64)
                if not self._expand_level():
                    raise GroupModelError("generators do not reach requested element")

    def word_length(self, g: Element) -> int:
        """Minimal number of generators whose product equals g."""
        arr = np.array([self.check_element(g)], dtype=np.int64)
        return int(self._lengths_packed(self._pack(arr))[0])

    def word_distance(self, g: Element, h: Element) -> int:
        """Word metric d(g, h): length of g * h^-1 (right-invariant)."""
        return self.word_length(self.multiply(g, self.inverse(h)))

    def ball(self, radius: int) -> "FiniteSet":
        """Closed ball of the given radius around the identity."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        with self._lock:
            while len(self._levels) <= radius:
                if not self._expand_level():
                    break
            levels = self._levels[: radius + 1]
        out = _from_coords(self, np.concatenate(levels))
        self._ball_cache[radius] = out
        return out

    # -- bulk helpers over finite sets ---------------------------------------

    def set_diameter(self, Q: "FiniteSet") -> int:
        if len(Q) == 0:
            raise ValueError("diameter of the empty set is undefined")
        if len(Q) == 1:
            return 0
        coords = Q.coords
        chunks: list[np.ndarray] = []
        diffs = np.empty(0, dtype=np.int64)
        for h in Q.sorted_elements:
            chunks.append(self._pack(self.rmul_array(coords, self.inverse(h))))
            if len(chunks) * len(coords) > 4_000_000:
                diffs = np.unique(np.concatenate([diffs] + chunks))
                chunks = []
        diffs = np.unique(np.concatenate([diffs] + chunks))
        return int(self._lengths_packed(diffs).max())


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

    def rmul_array(self, coords: np.ndarray, s: Element) -> np.ndarray:
        return coords + np.asarray(s, dtype=np.int64)

    def lmul_array(self, s: Element, coords: np.ndarray) -> np.ndarray:
        return coords + np.asarray(s, dtype=np.int64)


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

    def rmul_array(self, coords: np.ndarray, s: Element) -> np.ndarray:
        a, b, c = s
        out = np.empty_like(coords)
        out[:, 0] = coords[:, 0] + a
        out[:, 1] = coords[:, 1] + b
        out[:, 2] = coords[:, 2] + c + coords[:, 1] * a
        return out

    def lmul_array(self, s: Element, coords: np.ndarray) -> np.ndarray:
        a, b, c = s
        out = np.empty_like(coords)
        out[:, 0] = a + coords[:, 0]
        out[:, 1] = b + coords[:, 1]
        out[:, 2] = c + coords[:, 2] + b * coords[:, 0]
        return out


class FiniteSet:
    """Immutable finite subset of a group, with cached geometry.

    The content is ``packed``, the sorted unique int64 keys of the elements;
    coordinates and element tuples are views built from it on first use.
    """

    __slots__ = (
        "model",
        "packed",
        "_coords",
        "_sorted",
        "_elems",
        "_diameter",
        "_parts_cache",
        "_hash",
    )

    def __init__(self, model: GroupModel, elements: Iterable[Sequence[int]]) -> None:
        rows = [model.check_element(g) for g in elements]
        coords = np.array(rows, dtype=np.int64).reshape(len(rows), model.dim)
        self._set_keys(model, np.unique(model._pack(coords)))

    def _set_keys(self, model: GroupModel, keys: np.ndarray) -> None:
        keys.flags.writeable = False
        self.model = model
        self.packed = keys
        self._coords: Optional[np.ndarray] = None
        self._sorted: Optional[tuple[Element, ...]] = None
        self._elems: Optional[frozenset[Element]] = None
        self._diameter: Optional[int] = None
        self._parts_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._hash: Optional[int] = None

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.sorted_elements)

    def __contains__(self, g: object) -> bool:
        return g in self.elements

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
    def sorted_elements(self) -> tuple[Element, ...]:
        # tolist() yields Python ints, so reprs (pattern digests) are stable
        if self._sorted is None:
            self._sorted = tuple(map(tuple, self.coords.tolist()))
        return self._sorted

    @property
    def elements(self) -> frozenset[Element]:
        if self._elems is None:
            self._elems = frozenset(self.sorted_elements)
        return self._elems

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = self.model.set_diameter(self)
        return self._diameter

    def right_translate(self, x: Sequence[int]) -> "FiniteSet":
        x = self.model.check_element(x)
        return _from_coords(self.model, self.model.rmul_array(self.coords, x))

    def left_translate(self, s: Sequence[int]) -> "FiniteSet":
        s = self.model.check_element(s)
        return _from_coords(self.model, self.model.lmul_array(s, self.coords))

    def _keys_of(self, other: "FiniteSet") -> np.ndarray:
        if other.model is not self.model:
            raise GroupModelError("set operation across different group models")
        return other.packed

    def union(self, other: "FiniteSet") -> "FiniteSet":
        return _from_packed(self.model, np.union1d(self.packed, self._keys_of(other)))

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


def _from_coords(model: GroupModel, coords: np.ndarray) -> FiniteSet:
    return _from_packed(model, np.unique(model._pack(coords)))


# -- boundaries ----------------------------------------------------------------


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership mask of needles in a sorted unique array."""
    if haystack.size == 0:
        return np.zeros(len(needles), dtype=bool)
    idx = np.searchsorted(haystack, needles)
    idx = np.minimum(idx, len(haystack) - 1)
    return haystack[idx] == needles


def _boundary_parts(Q: FiniteSet, R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed (interior boundary, exterior boundary, R-shrink) of Q.

    Both boundary shells are grown level by level with generator steps
    (multi-source BFS in the Cayley graph), so the cost is R sweeps over
    boundary-sized sets rather than one sweep per element of the ball B_R.
    For R = 0 both boundaries are empty.
    """
    if R < 0:
        raise ValueError("boundary radius must be >= 0")
    cached = Q._parts_cache.get(R)
    if cached is not None:
        return cached
    model = Q.model
    empty = np.empty(0, dtype=np.int64)
    if len(Q) == 0 or R == 0:
        parts = (empty, empty, Q.packed)
        Q._parts_cache[R] = parts
        return parts
    coords = Q.coords
    q_packed = Q.packed
    gens = model.generators

    def neighbours(level_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cand = np.concatenate([model.lmul_array(s, level_coords) for s in gens])
        keys = model._pack(cand)
        keys, first = np.unique(keys, return_index=True)
        return keys, cand[first]

    # interior shells: points of Q at complement distance 1, 2, ..., R
    inside_mask = np.zeros(len(q_packed), dtype=bool)
    for s in gens:
        stepped = model._pack(model.lmul_array(s, coords))
        inside_mask |= ~_in_sorted(q_packed, stepped)
    level_idx = np.nonzero(inside_mask)[0]
    for _ in range(R - 1):
        if level_idx.size == 0:
            break
        keys, _ = neighbours(coords[level_idx])
        keys = keys[_in_sorted(q_packed, keys)]
        pos = np.searchsorted(q_packed, keys)
        fresh = np.unique(pos[~inside_mask[pos]])
        if fresh.size == 0:
            break
        inside_mask[fresh] = True
        level_idx = fresh
    interior_bdry = q_packed[inside_mask]
    shrunk = q_packed[~inside_mask]
    # exterior shells: complement points at distance 1, 2, ..., R from Q.
    # The generators are symmetric, so the neighbours of shell r lie in
    # shells r-1, r and r+1 (shell 0 being Q): excluding the last two
    # shells is enough, and the disjoint shells are sorted once at the end.
    shells: list[np.ndarray] = []
    prev, cur = empty, q_packed
    level_coords = coords
    for _ in range(R):
        keys, cand = neighbours(level_coords)
        fresh_mask = ~_in_sorted(cur, keys) & ~_in_sorted(prev, keys)
        if not fresh_mask.any():
            break
        prev, cur = cur, keys[fresh_mask]
        level_coords = cand[fresh_mask]
        shells.append(cur)
    ext_keys = np.sort(np.concatenate(shells)) if shells else empty
    parts = (interior_bdry, ext_keys, shrunk)
    Q._parts_cache[R] = parts
    return parts


def boundary_int(Q: FiniteSet, R: int) -> FiniteSet:
    """Interior R-boundary: points of Q within distance R of the complement."""
    return _from_packed(Q.model, _boundary_parts(Q, R)[0])


def boundary_int_size(Q: FiniteSet, R: int) -> int:
    return len(_boundary_parts(Q, R)[0])


def boundary_size(Q: FiniteSet, R: int) -> int:
    parts = _boundary_parts(Q, R)
    return len(parts[0]) + len(parts[1])


def boundary_ext(Q: FiniteSet, R: int) -> FiniteSet:
    """Exterior R-boundary: points outside Q within distance R of Q."""
    return _from_packed(Q.model, _boundary_parts(Q, R)[1])


def boundary(Q: FiniteSet, R: int) -> FiniteSet:
    """Two-sided R-boundary of Q."""
    parts = _boundary_parts(Q, R)
    return _from_packed(Q.model, np.union1d(parts[0], parts[1]))


def shrink(Q: FiniteSet, R: int) -> FiniteSet:
    """Q_R = Q minus its two-sided R-boundary; may be empty."""
    return _from_packed(Q.model, _boundary_parts(Q, R)[2])


def grow(Q: FiniteSet, R: int) -> FiniteSet:
    """Q^R = Q together with its two-sided R-boundary."""
    return _from_packed(Q.model, np.union1d(Q.packed, _boundary_parts(Q, R)[1]))


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
            self.grid_description = f"{{(a,b,c) | a,b in {n}Z, c in {n * n}Z}}"
        elif isinstance(model, FreeAbelian):
            sides = [n] * model.dim
            self.grid_description = f"({n}Z)^{model.dim}"
            self._bounding_diameter = model.dim * n
        else:
            raise GroupModelError("tilings are provided for Z^d and H3 only")
        axes = np.meshgrid(*[np.arange(k, dtype=np.int64) for k in sides], indexing="ij")
        self.tile = _from_coords(model, np.stack(axes, axis=-1).reshape(-1, model.dim))

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

    def grid_contains(self, g: Sequence[int]) -> bool:
        g = self.model.check_element(g)
        n = self.n
        if isinstance(self.model, Heisenberg3):
            return g[0] % n == 0 and g[1] % n == 0 and g[2] % (n * n) == 0
        return all(c % n == 0 for c in g)

    def decompose(self, g: Sequence[int]) -> tuple[Element, Element]:
        """Unique (q, gamma) with q in the tile, gamma in the grid, q*gamma = g."""
        g = self.model.check_element(g)
        arr = np.array([g], dtype=np.int64)
        q, gamma = self.decompose_array(arr)
        return tuple(int(c) for c in q[0]), tuple(int(c) for c in gamma[0])

    def decompose_array(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        if isinstance(self.model, Heisenberg3):
            a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
            alpha = a % n
            ga = a - alpha
            beta = b % n
            gb = b - beta
            t = c - beta * ga
            zeta = t % (n * n)
            gc = t - zeta
            q = np.stack([alpha, beta, zeta], axis=1)
            gamma = np.stack([ga, gb, gc], axis=1)
            return q, gamma
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
    if side == "positive":
        return FiniteSet(model, [(i,) for i in range(1, scale * j + 1)])
    if side == "negative":
        return FiniteSet(model, [(i,) for i in range(-scale * j, 0)])
    raise ValueError(f"unknown side {side!r}")


def grid_decompose(g: Sequence[int], spec: TilingSpec) -> tuple[Element, Element]:
    return spec.decompose(g)


@dataclass(frozen=True)
class GridCover:
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
    _, g0 = spec.decompose_array(model.rmul_array(A.coords, x))
    gamma = model.rmul_array(g0, model.inverse(x))
    keys, counts = np.unique(model._pack(gamma), return_counts=True)
    inside = counts == len(spec.tile)
    return GridCover(_from_packed(model, keys[inside]), _from_packed(model, keys[~inside]))


def admissible_positions(tile: FiniteSet, U: FiniteSet) -> FiniteSet:
    """All x with tile*x contained in U (not restricted to the grid)."""
    model = tile.model
    if len(tile) == 0:
        raise ValueError("tile must be non-empty")
    # the intersection of the translates q^-1 U over q in the tile; it is not
    # seeded with U, because the tile need not contain the identity
    translates = (
        np.sort(model._pack(model.lmul_array(model.inverse(q), U.coords)))
        for q in tile.sorted_elements
    )
    out = next(translates)
    for shifted in translates:
        if out.size == 0:
            break
        out = np.intersect1d(out, shifted, assume_unique=True)
    return _from_packed(model, out)
