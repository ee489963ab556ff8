"""Colourings, patterns, occurrence counting and pattern frequencies.

Counts and frequencies are exact rationals; floating point only enters the
spectral modules.  Pattern equivalence is right-translation equivalence,
and canonical class representatives are chosen as the lexicographically
least serialized translate whose domain contains the identity.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cayley import (
    Element,
    FiniteSet,
    FreeAbelian,
    GroupModel,
    TilingSpec,
    admissible_positions,
)

WHITE = "white"
BLACK = "black"


class ColouringError(ValueError):
    pass


class FrequencyProviderError(ValueError):
    """Signals an inconsistent frequency provider (negative residual mass)."""


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of colour labels."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ColouringError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ColouringError("alphabet symbols must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, s: object) -> bool:
        return s in self.symbols


class Colouring:
    """Total, deterministic map from group elements to alphabet symbols."""

    model: GroupModel
    alphabet: Alphabet

    def colour(self, g: Element) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class TrivialColouring(Colouring):
    def __init__(self, model: GroupModel, symbol: str = "o") -> None:
        self.model = model
        self.symbol = symbol
        self.alphabet = Alphabet((symbol,))

    def colour(self, g: Element) -> str:
        return self.symbol


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

    def colour(self, g: Element) -> str:
        return self.table.get(g, self.default)


class PeriodicFoldColouring(Colouring):
    """Grid-periodic colouring: the symbol depends on the tile coordinate only."""

    def __init__(self, spec: TilingSpec, table: Mapping[Sequence[int], str]) -> None:
        self.model = spec.model
        self.spec = spec
        self.table = {spec.model.check_element(q): s for q, s in table.items()}
        if set(self.table) != set(spec.tile.elements):
            raise ColouringError("table must colour the tile exactly")
        self.alphabet = Alphabet(tuple(sorted(set(self.table.values()))))

    def colour(self, g: Element) -> str:
        q, _ = self.spec.decompose(g)
        return self.table[q]


class PercolationColouring(Colouring):
    """I.i.d. random colouring realised by a keyed hash of (seed, coordinates).

    The colour at g is a pure function of the seed and the canonical
    coordinates of g, so translated patterns are compared by re-indexing the
    same sample rather than re-sampling.
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
        self._cum = []
        acc = Fraction(0)
        for w in ws:
            acc += w
            self._cum.append(acc)
        self._key = struct.pack("<q", self.seed)
        self._cache: dict[Element, str] = {}

    def colour(self, g: Element) -> str:
        cached = self._cache.get(g)
        if cached is not None:
            return cached
        data = struct.pack(f"<{len(g)}q", *g)
        digest = hashlib.blake2b(data, digest_size=8, key=self._key).digest()
        u = Fraction(int.from_bytes(digest, "little"), 1 << 64)
        for sym, cum in zip(self.alphabet.symbols, self._cum):
            if u < cum:
                self._cache[g] = sym
                return sym
        sym = self.alphabet.symbols[-1]
        self._cache[g] = sym
        return sym


class HalfLineMod3(Colouring):
    """On Z: white on the non-negative half line and on multiples of 3."""

    def __init__(self, model: FreeAbelian) -> None:
        if model.dim != 1:
            raise ColouringError("half-line colouring lives on Z^1")
        self.model = model
        self.alphabet = Alphabet((WHITE, BLACK))

    def colour(self, g: Element) -> str:
        x = g[0]
        return WHITE if x >= 0 or x % 3 == 0 else BLACK


class HalfLineMod3Window(HalfLineMod3):
    """Half-line colouring with the far-negative cutoff (white below -100)."""

    def colour(self, g: Element) -> str:
        x = g[0]
        return WHITE if x >= 0 or x <= -100 or x % 3 == 0 else BLACK


# -- patterns -----------------------------------------------------------------


class Pattern:
    """Colour map on a finite domain."""

    __slots__ = ("domain", "values", "_key")

    def __init__(self, domain: FiniteSet, values: Mapping[Element, str]) -> None:
        if set(values) != set(domain.elements):
            raise ColouringError("pattern values must cover the domain exactly")
        self.domain = domain
        self.values = dict(values)
        self._key: Optional[tuple] = None

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple((g, self.values[g]) for g in self.domain.sorted_elements)
        return self._key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pattern)
            and other.domain.model is self.domain.model
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash((id(self.domain.model), self.key))

    def __len__(self) -> int:
        return len(self.domain)

    def value_at(self, g: Element) -> str:
        return self.values[g]

    def __repr__(self) -> str:
        return f"Pattern(|D|={len(self)})"


@dataclass(frozen=True)
class PatternClass:
    """Right-translation equivalence class, stored via its canonical member."""

    canonical: Pattern

    @property
    def key(self) -> tuple:
        return self.canonical.key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PatternClass)
            and other.canonical.domain.model is self.canonical.domain.model
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash(self.canonical)

    def digest(self) -> str:
        """Stable short hash of the canonical form, for CSV export."""
        text = repr(self.key).encode()
        return hashlib.blake2b(text, digest_size=8).hexdigest()


def restrict(C: Colouring, Q: FiniteSet) -> Pattern:
    """Restriction of the colouring to the finite set Q."""
    return Pattern(Q, {g: C.colour(g) for g in Q.sorted_elements})


def translate_pattern(P: Pattern, x: Sequence[int]) -> Pattern:
    """Right translate: domain D(P)x, value at y*x equals P(y)."""
    model = P.domain.model
    x = model.check_element(x)
    values = {model.multiply(y, x): s for y, s in P.values.items()}
    return Pattern(P.domain.right_translate(x), values)


def canonicalize_with_shift(P: Pattern) -> tuple[PatternClass, Element]:
    """Canonical class of P together with the shift d such that the canonical
    representative right-translated by d equals P."""
    if len(P) == 0:
        raise ColouringError("cannot canonicalize a pattern with empty domain")
    model = P.domain.model
    best: Optional[tuple] = None
    best_values: Optional[dict] = None
    best_d: Optional[Element] = None
    for d in P.domain.sorted_elements:
        d_inv = model.inverse(d)
        moved = {model.multiply(y, d_inv): s for y, s in P.values.items()}
        key = tuple(sorted(moved.items()))
        if best is None or key < best:
            best = key
            best_values = moved
            best_d = d
    assert best_values is not None and best_d is not None
    dom = P.domain.right_translate(model.inverse(best_d))
    return PatternClass(Pattern(dom, best_values)), best_d


def canonicalize(P: Pattern) -> PatternClass:
    """Canonical representative of the translation orbit of P.

    Among the |D(P)| translates P d^-1 (each of which contains the identity
    in its domain) the one with lexicographically least serialized form is
    chosen; equality of canonical forms characterises equivalence.
    """
    return canonicalize_with_shift(P)[0]


def count_occurrences(P: Pattern, Pbig: Pattern) -> int:
    """Number of x with D(P)x inside D(Pbig) and matching values."""
    if len(P) == 0:
        raise ColouringError("occurrences of the empty pattern are undefined")
    model = P.domain.model
    candidates = admissible_positions(P.domain, Pbig.domain)
    dom_items = tuple(P.values.items())
    count = 0
    for x in candidates.sorted_elements:
        if all(Pbig.values[model.multiply(d, x)] == s for d, s in dom_items):
            count += 1
    return count


def empirical_frequency(P: Pattern, C: Colouring, U: FiniteSet) -> Fraction:
    """Occurrence count of P in the restriction of C to U, divided by |U|."""
    if len(U) == 0:
        raise ColouringError("empirical frequency needs a non-empty volume")
    return Fraction(count_occurrences(P, restrict(C, U)), len(U))


@dataclass(frozen=True)
class SpectrumEntry:
    count: int
    witness: Element
    """Shift placing the canonical domain onto an actual instance inside U:
    the colouring restricted to canonical.domain * witness realises the class."""


def occurring_pattern_spectrum(
    C: Colouring, tile: FiniteSet, U: FiniteSet
) -> dict[PatternClass, SpectrumEntry]:
    """Tally of pattern classes over all tile positions inside U.

    Positions are grouped by the based pattern pulled back to the tile,
    which is then canonicalized once per distinct based form; the counts
    sum to the number of admissible positions.
    """
    model = tile.model
    positions = admissible_positions(tile, U)
    tile_order = tile.sorted_elements
    by_key: dict[tuple, tuple[int, Element]] = {}
    for x in positions.sorted_elements:
        key = tuple(C.colour(model.multiply(q, x)) for q in tile_order)
        prev = by_key.get(key)
        by_key[key] = (prev[0] + 1, prev[1]) if prev else (1, x)
    out: dict[PatternClass, SpectrumEntry] = {}
    for key, (count, position) in by_key.items():
        based = Pattern(tile, dict(zip(tile_order, key)))
        cls, d_shift = canonicalize_with_shift(based)
        # canonical * (d_shift * position) is the restriction of C at position
        witness = model.multiply(d_shift, position)
        prev_entry = out.get(cls)
        if prev_entry is None:
            out[cls] = SpectrumEntry(count, witness)
        else:
            keep = min(prev_entry.witness, witness)
            out[cls] = SpectrumEntry(prev_entry.count + count, keep)
    return out


# -- frequency providers --------------------------------------------------------


class FrequencyProvider:
    """Supplies limiting frequencies per pattern class and their total mass."""

    def frequency(self, cls: PatternClass) -> Fraction:
        raise NotImplementedError

    def total_mass(self, tile: FiniteSet) -> Fraction:
        """Sum of frequencies over all patterns with domain equal to the tile."""
        raise NotImplementedError

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        """Classes with positive frequency on the tile, with a witness position."""
        raise NotImplementedError

    def prepare(self, tile: FiniteSet) -> None:
        """Optional hook to precompute per-tile state."""


class TrivialFrequencies(FrequencyProvider):
    """Frequencies of the one-colour alphabet: 1 for every realizable pattern."""

    def __init__(self, model: GroupModel, symbol: str = "o") -> None:
        self.model = model
        self.symbol = symbol

    def frequency(self, cls: PatternClass) -> Fraction:
        ok = all(s == self.symbol for s in cls.canonical.values.values())
        return Fraction(1) if ok else Fraction(0)

    def total_mass(self, tile: FiniteSet) -> Fraction:
        return Fraction(1)

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        based = Pattern(tile, {g: self.symbol for g in tile.sorted_elements})
        cls, d_shift = canonicalize_with_shift(based)
        return [(cls, d_shift)]


class PercolationFrequencies(FrequencyProvider):
    """Analytic i.i.d. frequencies: the product of the site weights."""

    def __init__(self, colouring: PercolationColouring) -> None:
        self.colouring = colouring
        self._weight = dict(zip(colouring.alphabet.symbols, colouring.weights))

    def frequency(self, cls: PatternClass) -> Fraction:
        out = Fraction(1)
        for s in cls.canonical.values.values():
            out *= self._weight[s]
        return out

    def total_mass(self, tile: FiniteSet) -> Fraction:
        return Fraction(1)

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        raise FrequencyProviderError(
            "analytic percolation frequencies do not enumerate occurring classes; "
            "use EmpiricalFrequencies for approximants"
        )


class EmpiricalFrequencies(FrequencyProvider):
    """Frequencies read off a fixed reference volume of the same colouring."""

    def __init__(self, colouring: Colouring, reference: FiniteSet) -> None:
        if len(reference) == 0:
            raise ColouringError("reference volume must be non-empty")
        self.colouring = colouring
        self.reference = reference
        self._spectra: dict[FiniteSet, dict[PatternClass, SpectrumEntry]] = {}
        self._freq_cache: dict[PatternClass, Fraction] = {}

    def prepare(self, tile: FiniteSet) -> None:
        if tile in self._spectra:
            return
        spectrum = occurring_pattern_spectrum(self.colouring, tile, self.reference)
        self._spectra[tile] = spectrum
        for cls, entry in spectrum.items():
            self._freq_cache[cls] = Fraction(entry.count, len(self.reference))

    def frequency(self, cls: PatternClass) -> Fraction:
        cached = self._freq_cache.get(cls)
        if cached is not None:
            return cached
        for spectrum in self._spectra.values():
            if cls in spectrum:
                return self._freq_cache.setdefault(
                    cls, Fraction(spectrum[cls].count, len(self.reference))
                )
        value = empirical_frequency(cls.canonical, self.colouring, self.reference)
        self._freq_cache[cls] = value
        return value

    def total_mass(self, tile: FiniteSet) -> Fraction:
        positions = admissible_positions(tile, self.reference)
        return Fraction(len(positions), len(self.reference))

    def occurring(self, tile: FiniteSet) -> list[tuple[PatternClass, Element]]:
        self.prepare(tile)
        spectrum = self._spectra[tile]
        items = sorted(spectrum.items(), key=lambda kv: kv[0].key)
        return [(cls, entry.witness) for cls, entry in items]


def frequency_deviation(
    C: Colouring,
    tile: FiniteSet,
    U: FiniteSet,
    freqs: FrequencyProvider,
    residual_tol: Fraction = Fraction(0),
) -> Fraction:
    """Sum over patterns with tile domain of |empirical - nu|.

    Occurring classes are compared directly; the frequency mass of
    non-occurring patterns (empirical frequency zero) is added as the
    residual of the provider's total mass, so the full pattern set is never
    enumerated.
    """
    if len(U) == 0:
        raise ColouringError("deviation needs a non-empty volume")
    freqs.prepare(tile)
    spectrum = occurring_pattern_spectrum(C, tile, U)
    seen_mass = Fraction(0)
    deviation = Fraction(0)
    for cls, entry in spectrum.items():
        nu = Fraction(freqs.frequency(cls))
        seen_mass += nu
        deviation += abs(Fraction(entry.count, len(U)) - nu)
    residual = Fraction(freqs.total_mass(tile)) - seen_mass
    if residual < -residual_tol:
        raise FrequencyProviderError(
            f"negative residual frequency mass {residual} for tile of size {len(tile)}"
        )
    return deviation + max(residual, Fraction(0))
