"""Colourings, patterns, occurrence counting and pattern frequencies.

Counts and frequencies are exact rationals; floating point only enters the
spectral modules.  Colours are read for whole coordinate arrays at once, as
codes indexing the alphabet (``Colouring.colour_codes``), and a pattern holds
its symbols as a string array aligned with the sorted keys of its domain, so
canonicalisation keeps the symbols and spectra are numpy gathers.  Every
occurrence count is read from the occurring spectrum of the pattern's domain.
Pattern equivalence is right-translation equivalence, and the canonical
class representative is the translate that moves the greatest domain element
to the identity: key order is translation invariant, so among the translates
whose domain contains the identity it has the lexicographically least
serialized form, and the symbols never decide.

What does not depend on the colouring is computed once per command: the
admissible positions of a tile in a volume and the canonical translate of a
tile are kept by ``cayley``, and the classes are interned on their canonical
translate by symbol content (up to a bounded number of sites per translate),
so every canonicalisation and spectrum returns one object per class, which
keeps its hash, digest and analytic percolation frequency.  Spectra,
witnesses and colour codes depend on the colouring and are computed per call.
"""

from __future__ import annotations

import math
import struct
from _blake2 import blake2b  # hashlib's own blake2b, without loading OpenSSL
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .cayley import (
    Element,
    FiniteSet,
    FreeAbelian,
    GroupModel,
    TilingSpec,
    _search,
    _unique_keys,
    admissible_positions,
    canonical_translate,
)

WHITE = "white"
BLACK = "black"


class ColouringError(ValueError):
    pass


class FrequencyProviderError(ValueError):
    """Signals an inconsistent frequency provider (negative residual mass)."""


class Alphabet:
    """Finite ordered set of colour labels."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]) -> None:
        if not symbols:
            raise ColouringError("alphabet must be non-empty")
        if len(set(symbols)) != len(symbols):
            raise ColouringError("alphabet symbols must be distinct")
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, s: object) -> bool:
        return s in self.symbols


class Colouring:
    """Total, deterministic map from group elements to alphabet symbols."""

    model: GroupModel
    alphabet: Alphabet

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        """Index into ``alphabet.symbols`` of the colour of every coordinate row."""
        raise NotImplementedError

    def colour(self, g: Element) -> str:
        return self.alphabet.symbols[int(self.colour_codes(self.model.coord_rows([g]))[0])]

    def describe(self) -> str:
        return type(self).__name__


class TrivialColouring(Colouring):
    """One symbol everywhere: the i.i.d. colouring of a one-symbol alphabet."""

    weights = (Fraction(1),)

    def __init__(self, model: GroupModel, symbol: str = "o") -> None:
        self.model = model
        self.symbol = symbol
        self.alphabet = Alphabet((symbol,))

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        return np.zeros(len(coords), dtype=np.int64)


class ExplicitColouring(Colouring):
    def __init__(
        self,
        model: GroupModel,
        alphabet: Alphabet,
        table: Mapping[Sequence[int], str],
        default: str,
    ) -> None:
        if default not in alphabet:
            raise ColouringError(f"default symbol {default!r} not in alphabet")
        self.model = model
        self.alphabet = alphabet
        self.default = default
        self.table = {model.check_element(g): s for g, s in table.items()}
        for s in self.table.values():
            if s not in alphabet:
                raise ColouringError(f"symbol {s!r} not in alphabet")
        dom = FiniteSet(model, self.table)
        symbols = [self.table[g] for g in dom] + [default]
        self._keys = dom.packed
        self._codes = np.array([alphabet.symbols.index(s) for s in symbols], dtype=np.int64)

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        keys = self.model._pack(coords)
        idx, hit = _search(self._keys, keys)
        idx[~hit] = len(self._keys)  # the default's code
        return self._codes[idx]


class PeriodicFoldColouring(Colouring):
    """Grid-periodic colouring: the symbol depends on the tile coordinate only."""

    def __init__(self, spec: TilingSpec, table: Mapping[Sequence[int], str]) -> None:
        self.model = spec.model
        self.spec = spec
        self.table = {spec.model.check_element(q): s for q, s in table.items()}
        if set(self.table) != set(spec.tile):
            raise ColouringError("table must colour the tile exactly")
        self.alphabet = Alphabet(tuple(sorted(set(self.table.values()))))
        symbols = [self.table[q] for q in spec.tile]
        self._codes = np.array([self.alphabet.symbols.index(s) for s in symbols], dtype=np.int64)

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        q, _ = self.spec.decompose_array(coords)
        return self._codes[np.searchsorted(self.spec.tile.packed, self.model._pack(q))]


_DIGEST_BLOCK = 4096  # records whose digests are joined at a time


def _keyed_digests(key: bytes, raw: bytes, step: int) -> np.ndarray:
    """Keyed 8-byte blake2b digests of the ``step``-byte records of ``raw``, as
    uint64; copies of one keyed template compress the key block only once.
    The digests are joined block by block into the output, so at most one
    block of them is held as ``bytes`` objects."""
    template = blake2b(digest_size=8, key=key)
    out = np.empty(len(raw) // step, dtype="<u8")
    for at in range(0, len(out), _DIGEST_BLOCK):
        digests = []
        for i in range(at * step, min(at + _DIGEST_BLOCK, len(out)) * step, step):
            h = template.copy()
            h.update(raw[i : i + step])
            digests.append(h.digest())
        out[at : at + len(digests)] = np.frombuffer(b"".join(digests), dtype="<u8")
    return out


def _cut(thresholds: Sequence[int], u: np.ndarray) -> np.ndarray:
    """Index of the first threshold above each digest u (uint64): the number
    of thresholds at most u.  The last threshold is 2^64 and above every u."""
    out = np.zeros(len(u), dtype=np.int64)
    for t in thresholds[:-1]:
        if t < 1 << 64:
            out += u >= np.uint64(t)
    return out


class PercolationColouring(Colouring):
    """I.i.d. random colouring realised by a keyed hash of (seed, coordinates).

    The colour at g is a pure function of the seed and the canonical
    coordinates of g, so translated patterns are compared by re-indexing the
    same sample rather than re-sampling.  The 64-bit digest u selects the
    first symbol whose cumulative weight exceeds u / 2^64; for integer u this
    is exactly u < ceil(cum * 2^64), so the thresholds are integers.  Each
    instance keeps the packed keys of the points it has coloured (sorted) and
    their codes, so a point is hashed once however often it is asked for.
    """

    def __init__(
        self,
        model: GroupModel,
        alphabet: Alphabet,
        seed: int,
        weights: Optional[Sequence[Fraction]] = None,
    ) -> None:
        self.model = model
        self.alphabet = alphabet
        self.seed = int(seed)
        if weights is None:
            weights = [Fraction(1, len(alphabet))] * len(alphabet)
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != len(alphabet) or any(w < 0 for w in ws) or sum(ws) != 1:
            raise ColouringError("weights must be a probability vector over the alphabet")
        self.weights = ws
        self.thresholds = tuple(math.ceil(cum * (1 << 64)) for cum in accumulate(ws))
        self._key = struct.pack("<q", self.seed)
        self._keys = np.empty(0, dtype=np.int64)
        self._codes = np.empty(0, dtype=np.int64)

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        keys = self.model._pack(coords)
        idx, hit = _search(self._keys, keys)
        if hit.all():
            # fancy indexing copies, so callers never hold a view of the store
            return self._codes[idx]
        miss = ~hit
        # the distinct missing keys, and the index of each among them, from one
        # stable sort: callers pass keys in ascending runs, which it merges
        missing = keys[miss]
        order = np.argsort(missing, kind="stable")
        ranked = missing[order]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        new = ranked[first]
        # each point hashes as its little-endian int64 coordinates
        raw = np.ascontiguousarray(self.model._unpack(new), dtype="<i8").tobytes()
        fresh = _cut(self.thresholds, _keyed_digests(self._key, raw, 8 * self.model.dim))
        out = np.empty(len(keys), dtype=np.int64)
        out[hit] = self._codes[idx[hit]]
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.cumsum(first) - 1
        out[miss] = fresh[rank]
        at = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, at, new)
        self._codes = np.insert(self._codes, at, fresh)
        return out


class HalfLineMod3(Colouring):
    """On Z: white on the non-negative half line and on multiples of 3."""

    def __init__(self, model: FreeAbelian) -> None:
        if model.dim != 1:
            raise ColouringError("half-line colouring lives on Z^1")
        self.model = model
        self.alphabet = Alphabet((WHITE, BLACK))

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        x = coords[:, 0]
        return ((x < 0) & (x % 3 != 0)).astype(np.int64)


class HalfLineMod3Window(HalfLineMod3):
    """Half-line colouring with the far-negative cutoff (white below -100)."""

    def colour_codes(self, coords: np.ndarray) -> np.ndarray:
        return super().colour_codes(coords) * (coords[:, 0] > -100)


# -- patterns -----------------------------------------------------------------


class Pattern:
    """Colour map on a finite domain.

    ``symbols`` is a string array aligned with ``domain.packed``; ``values``
    is a view built from it on first use, ``key`` one built on every use.
    """

    __slots__ = ("domain", "symbols", "_values")

    def __init__(self, domain: FiniteSet, values: Mapping[Element, str]) -> None:
        elements = tuple(domain)
        if set(values) != set(elements):
            raise ColouringError("pattern values must cover the domain exactly")
        symbols = np.array([values[g] for g in elements], dtype=str)
        self._set(domain, symbols)

    def _set(self, domain: FiniteSet, symbols: np.ndarray) -> None:
        symbols.flags.writeable = False
        self.domain = domain
        self.symbols = symbols
        self._values: Optional[dict[Element, str]] = None

    @property
    def values(self) -> dict[Element, str]:
        if self._values is None:
            self._values = dict(zip(self.domain, self.symbols.tolist()))
        return self._values

    @property
    def key(self) -> tuple:
        # Python ints and strs, so the repr hashed by PatternClass.digest is stable
        return tuple(zip(self.domain, self.symbols.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pattern)
            and other.domain == self.domain
            and np.array_equal(other.symbols, self.symbols)
        )

    def __hash__(self) -> int:
        return hash((self.domain, tuple(self.symbols.tolist())))

    def __len__(self) -> int:
        return len(self.domain)

    def value_at(self, g: Element) -> str:
        return self.values[g]

    def __repr__(self) -> str:
        return f"Pattern(|D|={len(self)})"


def _pattern(domain: FiniteSet, symbols: np.ndarray) -> Pattern:
    """Pattern with symbols already aligned with domain.packed (not checked)."""
    out = Pattern.__new__(Pattern)
    out._set(domain, symbols)
    return out


class PatternClass:
    """Right-translation equivalence class, stored via its canonical member.

    The canonicalisations and spectra return one object per class (see
    ``_class``), so its hash and digest, and its analytic percolation
    frequency, are computed once, and lookups of a class found twice hit by
    identity.
    """

    __slots__ = ("canonical", "_hash", "_digest", "_frequency")

    def __init__(self, canonical: Pattern) -> None:
        self.canonical = canonical
        self._hash: Optional[int] = None
        self._digest: Optional[str] = None
        # the analytic percolation frequency and the provider that computed it
        self._frequency: Optional[tuple[PercolationFrequencies, Fraction]] = None

    @property
    def key(self) -> tuple:
        return self.canonical.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternClass) and other.canonical == self.canonical

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical)
        return self._hash

    def __repr__(self) -> str:
        return f"PatternClass(canonical={self.canonical!r})"

    def digest(self) -> str:
        """Stable short hash of the canonical form, for CSV export.  The key it
        hashes is built for the hash and let go, so a class keeps no per-site
        tuples."""
        if self._digest is None:
            text = repr(self.key).encode()
            self._digest = blake2b(text, digest_size=8).hexdigest()
        return self._digest


_INTERNED_SITES = 1 << 10  # sites of the classes that a canonical translate keeps


def _class(domain: FiniteSet, symbols: np.ndarray) -> PatternClass:
    """The class of the pattern with these symbols (aligned with its keys) on a
    canonical translate.  The translate keeps one object per class, by symbol
    content, so symbol arrays of different string widths find the same one.
    It keeps at most ``_INTERNED_SITES`` sites of classes: every class of a
    binary tile of up to 7 sites, and a bounded number of a large tile, whose
    classes rarely recur; a class past that bound is made anew."""
    key = tuple(symbols.tolist())
    cls = domain._classes.get(key)
    if cls is None:
        cls = PatternClass(_pattern(domain, symbols))
        if (len(domain._classes) + 1) * len(domain) <= _INTERNED_SITES:
            domain._classes[key] = cls
    return cls


def canonicalize_with_shift(P: Pattern) -> tuple[PatternClass, Element]:
    """Canonical class of P together with the shift d such that the canonical
    representative right-translated by d equals P.

    Translation keeps key order, so of the translates P e^-1 (e in D) the one
    whose domain starts lowest is P d^-1 with d = max(D); symbols never decide.
    """
    if len(P) == 0:
        raise ColouringError("cannot canonicalize a pattern with empty domain")
    domain, d = canonical_translate(P.domain)
    return _class(domain, P.symbols), d


def canonicalize(P: Pattern) -> PatternClass:
    """Canonical representative of the translation orbit of P.

    Among the |D(P)| translates P d^-1 (each of which contains the identity
    in its domain) the one with lexicographically least serialized form is
    chosen; equality of canonical forms characterises equivalence.
    """
    return canonicalize_with_shift(P)[0]


def _tally_rows(codes: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """First index and count of every distinct row of a code matrix with entries
    below ``base``, in order of first occurrence.  Rows fold into int64 ids in
    radix ``base`` by one integer matmul per block of columns, as wide as keeps
    the ids below 2^62; between blocks the ids are renumbered 0..distinct-1."""
    ids, span, col = np.zeros(len(codes), dtype=np.int64), 1, 0  # every id is below span
    while col < codes.shape[1] and len(codes):  # no rows, nothing to fold
        width, scale = 1, base
        while col + width < codes.shape[1] and span * scale * base <= 1 << 62:
            width, scale = width + 1, scale * base
        powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        ids, col = ids * scale + codes[:, col : col + width] @ powers, col + width
        if col < codes.shape[1]:
            distinct = _unique_keys(ids)
            ids, span = np.searchsorted(distinct, ids), len(distinct)
    order = np.argsort(ids)
    starts = np.flatnonzero(np.diff(ids[order], prepend=-1))  # ids are non-negative
    first = np.minimum.reduceat(order, starts)  # the first occurrence of each distinct row
    counts = np.diff(np.append(starts, len(ids)))
    by_first = np.argsort(first)
    return first[by_first], counts[by_first]


class SpectrumEntry(NamedTuple):
    count: int
    witness: Element
    """Shift placing the canonical domain onto an actual instance inside U:
    the colouring restricted to canonical.domain * witness realises the class."""


def occurring_pattern_spectrum(
    C: Colouring, tile: FiniteSet, U: FiniteSet
) -> dict[PatternClass, SpectrumEntry]:
    """Tally of pattern classes over all tile positions inside U, in order of
    first occurrence.  Every pattern count is read from it (the frequency term,
    the empirical provider, ``empirical_frequency``, the percolation table).

    Row p of the code matrix holds the colour codes of tile * x_p in tile
    order.  Every row lies on the same tile, so distinct rows are distinct
    classes, and one canonical domain tile * d^-1 (d = max(tile)) and one
    shift d serve them all: the class of row p is its symbols on that domain,
    witnessed at d * x_p.  The counts sum to the number of admissible positions.
    A one-colour alphabet has one row, so it is tallied without colouring.
    """
    model = tile.model
    X = admissible_positions(tile, U).coords
    domain, d = canonical_translate(tile)
    symbols = np.array(C.alphabet.symbols)
    if len(symbols) == 1:
        if not len(X):
            return {}
        cls = _class(domain, symbols.repeat(len(tile)))
        return {cls: SpectrumEntry(len(X), tuple(model.mul_array(d, X[0]).tolist()))}
    points = model.mul_array(tile.coords[:, None], X).reshape(-1, model.dim)
    codes = C.colour_codes(points).reshape(len(tile), len(X)).T
    first, counts = _tally_rows(codes, len(symbols))
    witnesses = map(tuple, model.mul_array(d, X[first]).tolist())
    return {
        _class(domain, symbols[codes[f]]): SpectrumEntry(count, witness)
        for f, count, witness in zip(first.tolist(), counts.tolist(), witnesses)
    }


def empirical_frequency(P: Pattern, C: Colouring, U: FiniteSet) -> Fraction:
    """Occurrence count of P in the restriction of C to U, divided by |U|: the
    count of its class in the occurring spectrum of its domain over U."""
    if len(U) == 0:
        raise ColouringError("empirical frequency needs a non-empty volume")
    cls = canonicalize(P)  # raises for the empty pattern
    entry = occurring_pattern_spectrum(C, P.domain, U).get(cls)
    return Fraction(0 if entry is None else entry.count, len(U))


# -- frequency providers --------------------------------------------------------


class FrequencyProvider:
    """Supplies limiting frequencies per pattern class, their total mass per
    tile and the classes that occur on a tile; a provider has no other entry
    point, so it computes what it needs on first use."""

    def frequency(self, cls: PatternClass) -> Fraction:
        raise NotImplementedError

    def total_mass(self, tile: FiniteSet) -> Fraction:
        """Sum of frequencies over all patterns with domain equal to the tile."""
        raise NotImplementedError

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        """Classes with positive frequency on the tile, with a witness position."""
        raise NotImplementedError


class PercolationFrequencies(FrequencyProvider):
    """Analytic i.i.d. frequencies: the product of the site weights, kept on
    the class.  A symbol outside the alphabet has weight 0.  The trivial
    colouring is the one-symbol case, weight 1."""

    def __init__(self, colouring: PercolationColouring | TrivialColouring) -> None:
        self.colouring = colouring
        symbols, weights = colouring.alphabet.symbols, colouring.weights
        self._weight = {s: (w.numerator, w.denominator) for s, w in zip(symbols, weights)}

    def frequency(self, cls: PatternClass) -> Fraction:
        if cls._frequency is None or cls._frequency[0] is not self:
            # one Fraction from the products of the numerators and denominators
            weights = [self._weight.get(s, (0, 1)) for s in cls.canonical.symbols.tolist()]
            num, den = (math.prod(w[i] for w in weights) for i in (0, 1))
            cls._frequency = (self, Fraction(num, den))
        return cls._frequency[1]

    def total_mass(self, tile: FiniteSet) -> Fraction:
        return Fraction(1)

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        """The one class of positive frequency when one symbol has positive weight."""
        live = [s for s, (num, _) in self._weight.items() if num]
        if len(live) != 1:
            raise FrequencyProviderError(
                "analytic percolation frequencies do not enumerate occurring classes; "
                "use EmpiricalFrequencies for approximants"
            )
        return [canonicalize_with_shift(_pattern(tile, np.full(len(tile), live[0])))]


class EmpiricalFrequencies(FrequencyProvider):
    """Frequencies read off a fixed reference volume of the same colouring: the
    count of a class in the occurring spectrum of its domain over the reference
    (0 if it does not occur there), divided by the size of the reference."""

    def __init__(self, colouring: Colouring, reference: FiniteSet) -> None:
        if len(reference) == 0:
            raise ColouringError("reference volume must be non-empty")
        self.colouring = colouring
        self.reference = reference
        self._spectra: dict[FiniteSet, dict[PatternClass, SpectrumEntry]] = {}

    def spectrum(self, tile: FiniteSet) -> dict[PatternClass, SpectrumEntry]:
        """Occurring spectrum of the tile over the reference, computed on first
        use.  It is kept per canonical domain: every translate of a tile has
        the same classes, counts and witnesses."""
        domain = canonical_translate(tile)[0]
        if domain not in self._spectra:
            self._spectra[domain] = occurring_pattern_spectrum(self.colouring, domain, self.reference)
        return self._spectra[domain]

    def frequency(self, cls: PatternClass) -> Fraction:
        entry = self.spectrum(cls.canonical.domain).get(cls)
        return Fraction(0) if entry is None else Fraction(entry.count, len(self.reference))

    def total_mass(self, tile: FiniteSet) -> Fraction:
        # the counts of a spectrum sum to its admissible positions
        return Fraction(sum(e.count for e in self.spectrum(tile).values()), len(self.reference))

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        # one domain for every class: their symbols order them as their keys do
        items = sorted(self.spectrum(tile).items(), key=lambda kv: kv[0].canonical.symbols.tolist())
        return [(cls, entry.witness) for cls, entry in items]


def frequency_deviation(
    C: Colouring,
    tile: FiniteSet,
    U: FiniteSet,
    freqs: FrequencyProvider,
    spectrum: Optional[Mapping[PatternClass, SpectrumEntry]] = None,
) -> Fraction:
    """Sum over patterns with tile domain of |empirical - nu|.

    Occurring classes are compared directly; the frequency mass of
    non-occurring patterns (empirical frequency zero) is added as the
    residual of the provider's total mass, so the full pattern set is never
    enumerated; ``spectrum``, if given, is the tile's occurring spectrum over U.
    The sums are taken as integers over the least common denominator of |U|,
    the total mass and every frequency, and give one Fraction at the end.
    """
    if len(U) == 0:
        raise ColouringError("deviation needs a non-empty volume")
    if spectrum is None:
        # an empirical provider holds the spectrum over its reference
        held = isinstance(freqs, EmpiricalFrequencies) and freqs.colouring is C
        if held and U == freqs.reference:
            spectrum = freqs.spectrum(tile)
        else:
            spectrum = occurring_pattern_spectrum(C, tile, U)
    nus = [Fraction(freqs.frequency(cls)) for cls in spectrum]
    total = Fraction(freqs.total_mass(tile))
    den = math.lcm(len(U), total.denominator, *(nu.denominator for nu in nus))
    # each term as its numerator over den
    seen = [nu.numerator * (den // nu.denominator) for nu in nus]
    per_count = den // len(U)
    deviation = sum(abs(e.count * per_count - s) for e, s in zip(spectrum.values(), seen))
    residual = total.numerator * (den // total.denominator) - sum(seen)
    if residual < 0:
        raise FrequencyProviderError(
            f"negative residual frequency mass {Fraction(residual, den)} for tile of size {len(tile)}"
        )
    return Fraction(deviation + residual, den)
