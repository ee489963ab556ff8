import gc
import hashlib
import itertools
import random
import struct
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from idsapprox import colouring
from idsapprox.cayley import (
    FiniteSet,
    FreeAbelian,
    GroupModelError,
    Heisenberg3,
    admissible_positions,
    boundary_int_size,
    boundary_size,
    canonical_translate,
    folner_set,
    interval_folner,
    shrink,
)
from idsapprox.colouring import (
    Alphabet,
    BLACK,
    ColouringError,
    EmpiricalFrequencies,
    ExplicitColouring,
    FrequencyProviderError,
    HalfLineMod3,
    HalfLineMod3Window,
    Pattern,
    PatternClass,
    PercolationColouring,
    PeriodicFoldColouring,
    PercolationFrequencies,
    TrivialColouring,
    WHITE,
    _DIGEST_BLOCK,
    _INTERNED_SITES,
    _cut,
    _keyed_digests,
    _tally_rows,
    canonicalize,
    canonicalize_with_shift,
    empirical_frequency,
    frequency_deviation,
    occurring_pattern_spectrum,
)
from conftest import interval, random_subset


def make_pattern(model, coords_to_symbol):
    dom = FiniteSet(model, list(coords_to_symbol))
    return Pattern(dom, {model.check_element(g): s for g, s in coords_to_symbol.items()})


def coloured_pattern(C, Q):
    """The colouring on Q, one point at a time."""
    return Pattern(Q, {g: C.colour(g) for g in Q})


def translate(P, x):
    """Right translate of P by x: the value at y*x is P(y)."""
    model = P.domain.model
    return make_pattern(model, {model.multiply(g, x): s for g, s in P.values.items()})


def count(P, C, U):
    """Occurrences of P in the colouring on U."""
    return empirical_frequency(P, C, U) * len(U)


def test_alphabet_validation():
    with pytest.raises(ColouringError):
        Alphabet(())
    with pytest.raises(ColouringError):
        Alphabet(("a", "a"))


def test_restrict_examples(z1):
    triv = TrivialColouring(z1)
    Q = interval(z1, -3, 3)
    P = coloured_pattern(triv, Q)
    assert set(P.values.values()) == {"o"}

    C = HalfLineMod3(z1)
    P = coloured_pattern(C, FiniteSet(z1, [(-2,), (-1,), (0,)]))
    assert [P.value_at(g) for g in P.domain] == [BLACK, BLACK, WHITE]

    perc = PercolationColouring(z1, Alphabet(("a", "b")), seed=11)
    Q = interval(z1, 0, 20)
    assert coloured_pattern(perc, Q).key == coloured_pattern(perc, Q).key


def test_window_colouring_cutoff(z1):
    C = HalfLineMod3Window(z1)
    assert C.colour((-100,)) == WHITE
    assert C.colour((-101,)) == WHITE
    assert C.colour((-99,)) == WHITE  # multiple of 3
    assert C.colour((-98,)) == BLACK


def test_translate_pattern(z1):
    P = make_pattern(z1, {(0,): "a", (1,): "b"})
    assert translate(P, (0,)) == P
    moved = translate(P, (5,))
    assert frozenset(moved.domain) == {(5,), (6,)}
    assert moved.value_at((5,)) == "a" and moved.value_at((6,)) == "b"
    back = translate(moved, (-5,))
    assert back == P


def test_canonicalize_singleton(z2):
    P = make_pattern(z2, {(3, -1): "a"})
    cls = canonicalize(P)
    assert frozenset(cls.canonical.domain) == {(0, 0)}
    assert cls.canonical.value_at((0, 0)) == "a"


def test_canonicalize_orbit_invariance(z1, h3):
    rng = random.Random(7)
    for model in (z1, h3):
        pool = list(model.ball(2))
        dom = rng.sample(pool, 4)
        P = make_pattern(model, {g: rng.choice("ab") for g in dom})
        for _ in range(10):
            x = rng.choice(pool)
            assert canonicalize(translate(P, x)) == canonicalize(P)


def test_canonicalize_shift_reconstructs(z1):
    P = make_pattern(z1, {(4,): "a", (5,): "b"})
    cls, d = canonicalize_with_shift(P)
    assert translate(cls.canonical, d) == P


def test_canonicalize_distinguishes_swapped(z1):
    P1 = make_pattern(z1, {(0,): "a", (1,): "b"})
    P2 = make_pattern(z1, {(0,): "b", (1,): "a"})
    assert canonicalize(P1) != canonicalize(P2)


def test_canonical_equality_characterises_equivalence(z1):
    # on small domains, equal canonical forms iff some translate matches
    rng = random.Random(8)
    for _ in range(30):
        a = rng.randrange(-4, 4)
        b = rng.randrange(-4, 4)
        P1 = make_pattern(z1, {(a,): rng.choice("ab"), (a + 1,): rng.choice("ab")})
        P2 = make_pattern(z1, {(b,): rng.choice("ab"), (b + 1,): rng.choice("ab")})
        equivalent = any(
            translate(P1, (t,)) == P2 for t in range(-10, 11)
        )
        assert (canonicalize(P1) == canonicalize(P2)) == equivalent


def test_count_single_symbol(z1):
    C = HalfLineMod3(z1)
    P = make_pattern(z1, {(0,): BLACK})
    assert count(P, C, interval(z1, -6, -1)) == 4


def test_count_occurrences_brute_force_oracle(z2):
    def oracle(P, C, U):
        # scan every x in a bounding window, one point at a time
        expected = 0
        for xa in range(-3, 8):
            for xb in range(-3, 8):
                points = [(d[0] + xa, d[1] + xb) for d in P.values]
                expected += all(p in U for p in points) and all(
                    C.colour(p) == s for p, s in zip(points, P.values.values())
                )
        return expected

    rng = random.Random(9)
    ab = Alphabet(("a", "b"))
    box = [(a, b) for a in range(5) for b in range(5)]
    for _ in range(15):
        # a volume with holes, coloured at random; outside it every point is "b"
        U = FiniteSet(z2, rng.sample(box, 20))
        C = ExplicitColouring(z2, ab, {g: rng.choice("ab") for g in U}, "b")
        P = make_pattern(
            z2, {(0, 0): rng.choice("ab"), (1, 0): rng.choice("ab")}
        )
        assert count(P, C, U) == oracle(P, C, U)
        # a symbol that the colouring never shows, sorting between its two
        absent = make_pattern(z2, {(0, 0): rng.choice("ab"), (0, 1): "aa"})
        assert count(absent, C, U) == oracle(absent, C, U) == 0
    # a volume of one symbol, in a two-symbol colouring and in a one-symbol one
    U = FiniteSet(z2, rng.sample(box, 20))
    for C in (ExplicitColouring(z2, ab, {g: "b" for g in U}, "a"), TrivialColouring(z2, "b")):
        for values in ({(0, 0): "b", (1, 0): "b"}, {(0, 0): "b", (0, 1): "a"}, {(0, 0): "b"}):
            P = make_pattern(z2, values)
            assert count(P, C, U) == oracle(P, C, U)
        assert count(make_pattern(z2, {(0, 0): "b"}), C, U) == 20


def test_count_translation_invariance(z1):
    rng = random.Random(10)
    C = PercolationColouring(z1, Alphabet(("a", "b")), seed=3)
    U = interval(z1, 0, 30)
    big = coloured_pattern(C, U)
    P = make_pattern(z1, {(0,): "a", (2,): "b"})
    for _ in range(10):
        x = (rng.randrange(-5, 5),)
        # the colouring that reads C's colours on U at U x
        moved = ExplicitColouring(z1, C.alphabet, translate(big, x).values, "a")
        assert count(P, C, U) == count(translate(P, x), moved, U.right_translate(x))


def test_trivial_count_lower_bound(z1):
    # positions of the tile inside Q_j dominate the shrunk volume
    triv = TrivialColouring(z1)
    tile = folner_set(z1, 3).tile
    for j in (6, 9, 12):
        Q = folner_set(z1, j).tile
        cnt = count(coloured_pattern(triv, tile), triv, Q)
        assert cnt >= len(shrink(Q, tile.diameter))


def test_empirical_frequency_examples(z1):
    triv = TrivialColouring(z1)
    U = interval(z1, 0, 9)
    P = make_pattern(z1, {(0,): "o"})
    assert empirical_frequency(P, triv, U) == 1

    C = HalfLineMod3(z1)
    for j in (2, 5, 9):
        V = interval_folner(z1, j, side="negative")
        Pb = make_pattern(z1, {(0,): BLACK})
        assert empirical_frequency(Pb, C, V) == Fraction(2, 3)


def test_percolation_frequency_monte_carlo(z2):
    # singleton pattern on a 100x100 window: within 0.05 of 1/2
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=42)
    U = folner_set(z2, 100).tile
    P = make_pattern(z2, {(0, 0): "a"})
    freq = empirical_frequency(P, C, U)
    assert abs(freq - Fraction(1, 2)) <= Fraction(5, 100)


def test_percolation_four_site_pattern_across_seeds(z2):
    # |D(P)| = 4 on a 10^4 window: within 0.05 of 1/16 for at least 9/10 seeds
    dom = FiniteSet(z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    P = Pattern(dom, {g: "a" for g in dom})
    U = folner_set(z2, 100).tile
    good = 0
    for seed in range(1, 11):
        C = PercolationColouring(z2, Alphabet(("a", "b")), seed=seed)
        if abs(empirical_frequency(P, C, U) - Fraction(1, 16)) <= Fraction(5, 100):
            good += 1
    assert good >= 9


def test_spectrum_trivial(z1):
    triv = TrivialColouring(z1)
    tile = folner_set(z1, 3).tile
    U = interval(z1, 0, 19)
    spec = occurring_pattern_spectrum(triv, tile, U)
    assert len(spec) == 1
    (entry,) = spec.values()
    assert entry.count == len(admissible_positions(tile, U))


def test_spectrum_three_phases(z1):
    C = HalfLineMod3(z1)
    tile = folner_set(z1, 3).tile
    V = interval_folner(z1, 6, side="negative")
    spec = occurring_pattern_spectrum(C, tile, V)
    assert len(spec) == 3
    assert sum(e.count for e in spec.values()) == len(admissible_positions(tile, V))


def test_spectrum_witness_realises_class(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=5)
    tile = folner_set(z2, 2).tile
    U = folner_set(z2, 7).tile
    spec = occurring_pattern_spectrum(C, tile, U)
    assert sum(e.count for e in spec.values()) == len(admissible_positions(tile, U))
    for cls, entry in spec.items():
        instance = coloured_pattern(C, cls.canonical.domain.right_translate(entry.witness))
        assert canonicalize(instance) == cls


def test_deviation_trivial_colouring(z1):
    # nu = 1: deviation equals 1 - |positions|/|U| and respects the folner bound
    triv = TrivialColouring(z1)
    freqs = PercolationFrequencies(triv)
    spec = folner_set(z1, 3)
    for j in (6, 10, 15):
        U = folner_set(z1, j).tile
        dev = frequency_deviation(triv, spec.tile, U, freqs)
        pos = len(admissible_positions(spec.tile, U))
        assert dev == 1 - Fraction(pos, len(U))
        assert dev <= Fraction(boundary_size(U, spec.bounding_diameter), len(U))


def test_deviation_empirical_self_is_zero(z1):
    C = HalfLineMod3(z1)
    V = interval_folner(z1, 10, side="negative")
    tile = folner_set(z1, 3).tile
    freqs = EmpiricalFrequencies(C, V)
    assert frequency_deviation(C, tile, V, freqs) == 0


def test_empirical_frequencies_match_single_pattern_counts(z2, h3):
    cases = [
        (z2, folner_set(z2, 9).tile, folner_set(z2, 2).tile, folner_set(z2, 14).tile),
        (h3, folner_set(h3, 3).tile, folner_set(h3, 1).tile, folner_set(h3, 4).tile),
    ]
    for model, reference, tile, U in cases:
        C = PercolationColouring(model, Alphabet(("a", "b")), seed=8)
        freqs = EmpiricalFrequencies(C, reference)
        freqs.occurring(tile)
        freqs.total_mass(tile)
        # classes on the tile and on a ball, which the provider was never asked
        # about, seen over a larger volume than the reference
        ball = model.ball(1)
        classes = [*occurring_pattern_spectrum(C, tile, U), *occurring_pattern_spectrum(C, ball, U)]
        # every pattern on a translate of the ball, most of which occur nowhere
        moved = ball.right_translate(model.generators[0])
        for symbols in itertools.product("ab", repeat=len(moved)):
            classes.append(canonicalize(Pattern(moved, dict(zip(moved, symbols)))))
        values = [freqs.frequency(cls) for cls in classes]
        assert values == [empirical_frequency(c.canonical, C, reference) for c in classes]
        assert 0 in values and any(v > 0 for v in values)
        # one spectrum per canonical domain, whichever translate asks for it
        assert freqs.spectrum(moved) is freqs.spectrum(ball)
        assert len(freqs._spectra) == 2


def test_deviation_percolation_small(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=12)
    freqs = PercolationFrequencies(C)
    U = folner_set(z2, 40).tile
    tile = folner_set(z2, 1).tile
    dev = frequency_deviation(C, tile, U, freqs)
    assert dev <= Fraction(1, 10)


def test_deviation_rejects_inconsistent_provider(z1):
    class Bad(PercolationFrequencies):
        def total_mass(self, tile):
            return Fraction(-1)

    triv = TrivialColouring(z1)
    with pytest.raises(FrequencyProviderError):
        frequency_deviation(
            triv, folner_set(z1, 2).tile, interval(z1, 0, 9), Bad(triv)
        )


def _deviation_reference(C, tile, U, freqs):
    """The frequency deviation summed as Fractions, one class at a time."""
    seen_mass = deviation = Fraction(0)
    for cls, entry in occurring_pattern_spectrum(C, tile, U).items():
        nu = Fraction(freqs.frequency(cls))
        seen_mass += nu
        deviation += abs(Fraction(entry.count, len(U)) - nu)
    residual = Fraction(freqs.total_mass(tile)) - seen_mass
    if residual < 0:
        raise FrequencyProviderError(f"negative residual frequency mass {residual}")
    return deviation + residual


@pytest.mark.parametrize("seed", range(4))
def test_deviation_matches_fraction_loop(seed):
    rng = random.Random(640 + seed)
    weights = (Fraction(1, 3), Fraction(2, 3))

    class Short(PercolationFrequencies):  # less total mass than the classes seen
        def total_mass(self, tile):
            return Fraction(1, 1000)

    values = set()
    for model in (FreeAbelian(2), Heisenberg3()):
        perc = PercolationColouring(model, Alphabet(("a", "b")), seed=seed, weights=weights)
        pool = len(model.ball(3))
        for _ in range(3):
            tile = random_subset(model, rng, radius=1, size=rng.randint(1, 4))
            U = random_subset(model, rng, radius=3, size=pool - rng.randint(0, 6))
            reference = random_subset(model, rng, radius=3, size=pool - rng.randint(0, 6))
            cases = [
                (TrivialColouring(model), PercolationFrequencies(TrivialColouring(model))),
                (perc, PercolationFrequencies(perc)),
                (perc, EmpiricalFrequencies(perc, reference)),
                (perc, EmpiricalFrequencies(perc, U)),  # the provider's own spectrum
            ]
            for C, freqs in cases:
                dev = frequency_deviation(C, tile, U, freqs)
                assert dev == _deviation_reference(C, tile, U, freqs)
                values.add(dev)
            with pytest.raises(FrequencyProviderError, match="negative residual"):
                _deviation_reference(perc, tile, U, Short(perc))
            with pytest.raises(FrequencyProviderError, match="negative residual"):
                frequency_deviation(perc, tile, U, Short(perc))
    assert len(values) > 4


def test_frequency_stability_under_shrinking(z1):
    # finite-j surrogate: |freq over U - freq over U_R| is controlled by the
    # boundary ratios of U
    C = HalfLineMod3(z1)
    P = make_pattern(z1, {(0,): BLACK, (1,): BLACK})
    for j in (5, 10, 20):
        U = interval_folner(z1, j, side="negative")
        for R in (1, 2):
            UR = shrink(U, R)
            lhs = abs(
                empirical_frequency(P, C, U) - empirical_frequency(P, C, UR)
            )
            budget = Fraction(
                boundary_int_size(U, R) + boundary_size(U, P.domain.diameter),
                len(UR),
            )
            assert lhs <= budget


def test_percolation_determinism_and_translation_consistency(z2):
    C1 = PercolationColouring(z2, Alphabet(("a", "b")), seed=77)
    C2 = PercolationColouring(z2, Alphabet(("a", "b")), seed=77)
    pts = [(i, j) for i in range(-5, 5) for j in range(-5, 5)]
    assert [C1.colour(p) for p in pts] == [C2.colour(p) for p in pts]
    C3 = PercolationColouring(z2, Alphabet(("a", "b")), seed=78)
    assert any(C1.colour(p) != C3.colour(p) for p in pts)


def test_pattern_class_digest_is_stable(z1):
    P = make_pattern(z1, {(0,): "a", (1,): "b"})
    assert canonicalize(P).digest() == canonicalize(translate(P, (9,))).digest()


def test_pattern_class_digests_are_pinned_and_keep_no_key(z1, z2, h3):
    # the hex digests of these classes are those that the CSV exports have always named
    patterns = [
        make_pattern(z1, {(0,): "a", (1,): "b"}),
        make_pattern(z2, {(0, 0): "open", (1, 0): "closed", (0, 1): "closed", (3, -2): "open"}),
        make_pattern(h3, {(0, 0, 0): "x", (1, 0, 0): "y", (0, 1, 0): "x", (1, 1, 1): "y", (-1, 2, -3): "y"}),
    ]
    digests = [canonicalize(P).digest() for P in patterns]
    assert digests == ["e76932ccff6251c2", "c1b1f370474bb2cb", "96fbe7d4f1d66085"]
    # a digest keeps its 16 hex digits, not the per-site key it hashed
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=1)
    classes = list(occurring_pattern_spectrum(C, folner_set(z2, 4).tile, folner_set(z2, 12).tile))
    assert len(classes) == 81
    tracemalloc.start()
    try:
        for cls in classes:
            cls.digest()
        gc.collect()  # and with it CPython's free lists of tuples
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 20_000


# -- reference implementations: the per-element algorithms of the array code


def _colour_reference(C, g):
    """Colour of one element, read off the colouring's definition."""
    if isinstance(C, TrivialColouring):
        return C.symbol
    if isinstance(C, ExplicitColouring):
        return C.table.get(g, C.default)
    if isinstance(C, PeriodicFoldColouring):
        return C.table[C.spec.decompose(g)[0]]
    if isinstance(C, PercolationColouring):
        data = struct.pack(f"<{len(g)}q", *g)
        key = struct.pack("<q", C.seed)
        digest = hashlib.blake2b(data, digest_size=8, key=key).digest()
        u = Fraction(int.from_bytes(digest, "little"), 1 << 64)
        for sym, cum in zip(C.alphabet.symbols, accumulate(C.weights)):
            if u < cum:
                return sym
        return C.alphabet.symbols[-1]
    x = g[0]
    if isinstance(C, HalfLineMod3Window):
        return WHITE if x >= 0 or x <= -100 or x % 3 == 0 else BLACK
    return WHITE if x >= 0 or x % 3 == 0 else BLACK


def _canonical_reference(P):
    """Least sorted tuple of (element, symbol) pairs over the translates
    P d^-1, the first d in element order winning ties; with its digest."""
    model = P.domain.model
    best = best_d = None
    for d in P.domain:
        d_inv = model.inverse(d)
        key = tuple(sorted((model.multiply(y, d_inv), s) for y, s in P.values.items()))
        if best is None or key < best:
            best, best_d = key, d
    return best, best_d, hashlib.blake2b(repr(best).encode(), digest_size=8).hexdigest()


def _spectrum_reference(C, tile, U):
    """Per-position loop: class key -> (count, witness), first occurrence order."""
    model = tile.model
    tile_elems = tuple(tile)
    by_symbols = {}
    for x in admissible_positions(tile, U):
        key = tuple(_colour_reference(C, model.multiply(q, x)) for q in tile_elems)
        count, position = by_symbols.get(key, (0, x))
        by_symbols[key] = (count + 1, position)
    out = {}
    for key, (count, position) in by_symbols.items():
        best, d, _ = _canonical_reference(Pattern(tile, dict(zip(tile_elems, key))))
        witness = model.multiply(d, position)
        prev = out.get(best)
        out[best] = (count, witness) if prev is None else (prev[0] + count, min(prev[1], witness))
    return out


def _colouring_case(name):
    z1, z2, h3 = FreeAbelian(1), FreeAbelian(2), Heisenberg3()
    box = [(a, b) for a in range(-6, 6) for b in range(-6, 6)]
    h3_pts = list(h3.ball(3)) + [(-7, 5, -40), (9, -8, 33)]
    if name == "trivial":
        return TrivialColouring(z2, "o"), box
    if name == "explicit":
        table = {(0, 0): "r", (-3, 2): "p", (4, -1): "r", (-6, -6): "p"}
        return ExplicitColouring(z2, Alphabet(("q", "p", "r")), table, "q"), box
    if name == "periodic":
        spec = folner_set(h3, 2)
        table = {q: ("u", "t", "s")[i % 3] for i, q in enumerate(spec.tile)}
        return PeriodicFoldColouring(spec, table), h3_pts
    if name == "percolation":
        weights = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
        alphabet = Alphabet(("open", "closed", "ajar"))
        return PercolationColouring(h3, alphabet, seed=-5, weights=weights), h3_pts
    if name == "halfline":
        return HalfLineMod3(z1), [(x,) for x in range(-40, 10)]
    return HalfLineMod3Window(z1), [(x,) for x in range(-110, 5)]


@pytest.mark.parametrize(
    "name", ["trivial", "explicit", "periodic", "percolation", "halfline", "window"]
)
def test_colour_codes_match_definition(name):
    C, points = _colouring_case(name)
    codes = C.colour_codes(np.array(points, dtype=np.int64))
    assert codes.dtype == np.int64
    expected = [C.alphabet.symbols.index(_colour_reference(C, g)) for g in points]
    assert codes.tolist() == expected
    assert [C.colour(g) for g in points] == [C.alphabet.symbols[i] for i in expected]
    assert len(C.colour_codes(np.empty((0, C.model.dim), dtype=np.int64))) == 0


def test_percolation_store_matches_definition(monkeypatch):
    C, points = _colouring_case("percolation")
    pts = np.array(points, dtype=np.int64)
    expected = np.array([C.alphabet.symbols.index(_colour_reference(C, g)) for g in points])
    hashed = []
    blake2b = hashlib.blake2b

    class Counted:
        """A blake2b hash that records every message it takes, copies included."""

        def __init__(self, h):
            self.h = h

        def copy(self):
            return Counted(self.h.copy())

        def update(self, data):
            hashed.append(bytes(data))
            self.h.update(data)

        def digest(self):
            return self.h.digest()

    def counted(data=b"", **kw):
        h = Counted(blake2b(**kw))
        if data:
            h.update(data)
        return h

    monkeypatch.setattr(colouring, "blake2b", counted)
    n, rng = len(pts), np.random.default_rng(4)
    queries = [
        np.arange(20),
        np.arange(10, 40),  # overlaps the first
        np.arange(n)[::-1],
        np.tile(np.arange(5, 9), 3),  # duplicated rows
        np.arange(0),
        rng.permutation(n),
        np.arange(n),
    ]
    answers = [C.colour_codes(pts[idx]) for idx in queries]
    # one instance hashes every distinct point once, whatever it is asked
    assert len(hashed) == len(set(hashed)) == len(set(points))
    for idx, got in zip(queries, answers):
        assert got.dtype == np.int64
        assert got.tolist() == expected[idx].tolist()
        assert got.tolist() == _colouring_case("percolation")[0].colour_codes(pts[idx]).tolist()
        got[:] = -1  # an answer is a copy, not a view of the store
    assert C.colour_codes(pts).tolist() == expected.tolist()
    for c in (C.model.pack_bound, -C.model.pack_bound):
        with pytest.raises(GroupModelError):
            C.colour_codes(np.array([[0, c, 0]], dtype=np.int64))


def test_percolation_codes_of_shuffled_and_repeated_keys(z2):
    rng = np.random.default_rng(24)
    box = np.array([(a, b) for a in range(-9, 9) for b in range(-9, 9)], dtype=np.int64)
    runs = np.concatenate([box + s for s in ((0, 0), (1, 0), (0, -1), (-1, 0))])  # ascending runs
    queries = [
        runs,
        rng.permutation(runs),
        np.repeat(box[rng.permutation(len(box))], 3, axis=0),  # every key three times, adjacent
        np.concatenate([box[::-1], box, box[::2]]),
        box[rng.integers(0, len(box), 700)],
    ]
    for pts in queries:
        C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=31)
        # an empty store, then a warm one that lacks the points right of the box
        C_warm = PercolationColouring(z2, Alphabet(("open", "closed")), seed=31)
        C_warm.colour_codes(box[box[:, 0] < 4])
        oracle = [C.alphabet.symbols.index(_colour_reference(C, tuple(g))) for g in pts.tolist()]
        for store in (C, C_warm):
            assert store.colour_codes(pts).tolist() == oracle
            # the store stays sorted, and holds each key's own code
            assert (np.diff(store._keys) > 0).all()
            stored = store.model._unpack(store._keys).tolist()
            assert store._codes.tolist() == [store.alphabet.symbols.index(_colour_reference(store, tuple(g))) for g in stored]


def test_keyed_digests_match_per_record_construction():
    # colours and digests come from hashlib's own blake2b
    assert colouring.blake2b is hashlib.blake2b
    rng = np.random.default_rng(9)
    # the digests are joined block by block: one partial block, one block and a
    # record past it, two blocks and a partial one
    records = (257, _DIGEST_BLOCK + 1, 2 * _DIGEST_BLOCK + 5)
    for (dim, seed), n in zip(((1, 0), (2, -5), (3, 1 << 40)), records):
        key = struct.pack("<q", seed)
        raw = rng.integers(-(1 << 40), 1 << 40, (n, dim)).astype("<i8").tobytes()
        step = 8 * dim
        expected = [
            hashlib.blake2b(raw[i : i + step], digest_size=8, key=key).digest()
            for i in range(0, len(raw), step)
        ]
        got = _keyed_digests(key, raw, step)
        assert got.dtype == np.dtype("<u8")
        assert got.tobytes() == b"".join(expected)
    assert len(_keyed_digests(key, b"", 8)) == 0


def test_classes_are_one_object_per_class(z2):
    # the classes of two spectra of one tile (other seeds, an equal set built
    # anew, a translate) and the canonicalisation of a pattern whose symbols
    # are a narrower string array are the same objects
    alphabet = Alphabet(("open", "closed"))
    tile = folner_set(z2, 2).tile
    U = folner_set(z2, 20).tile
    first = occurring_pattern_spectrum(PercolationColouring(z2, alphabet, seed=1), tile, U)
    by_key = {cls.key: cls for cls in first}
    assert len(by_key) == 16
    for seed, other in ((2, FiniteSet(z2, tile)), (3, tile.right_translate((4, -1)))):
        again = occurring_pattern_spectrum(PercolationColouring(z2, alphabet, seed=seed), other, U)
        assert again and all(cls is by_key[cls.key] for cls in again)
    moved = tile.right_translate((7, 7))
    P = Pattern(moved, {g: "open" for g in moved})
    assert P.symbols.dtype == np.dtype("<U4")
    assert all(cls.canonical.symbols.dtype == np.dtype("<U6") for cls in first)
    cls, _ = canonicalize_with_shift(P)
    assert cls is canonicalize(P) is by_key[cls.key]
    # its hash and digest are computed once
    assert cls.digest() is cls.digest()
    assert hash(cls) == hash(PatternClass(cls.canonical))
    # one colour: the spectrum and the trivial provider's classes
    single = occurring_pattern_spectrum(TrivialColouring(z2, "o"), tile, U)
    trivial = PercolationFrequencies(TrivialColouring(z2, "o"))
    assert list(single) == [trivial.occurring(FiniteSet(z2, tile))[0][0]]
    assert list(single)[0] is trivial.occurring(tile)[0][0]


def test_percolation_frequency_is_the_weight_product(z1):
    weights = (Fraction(1, 3), Fraction(0), Fraction(2, 3))
    C = PercolationColouring(z1, Alphabet(("a", "b", "c")), seed=1, weights=weights)
    freqs = PercolationFrequencies(C)
    dom = FiniteSet(z1, [(0,), (1,), (3,)])
    for symbols in itertools.product("abc", repeat=3):
        cls = canonicalize(Pattern(dom, dict(zip(dom, symbols))))
        product = Fraction(1)
        for s in symbols:
            product *= weights["abc".index(s)]
        assert freqs.frequency(cls) == product
        # kept on the class, for the provider that computed it
        assert freqs.frequency(cls) is freqs.frequency(cls)
        assert PercolationFrequencies(C).frequency(cls) == product


def test_trivial_colouring_is_the_one_symbol_product_measure(z1, z2, h3):
    # the analytic provider of the trivial colouring: the all-"o" class has
    # frequency 1, a class with another symbol 0, and it is the one class that
    # occurs, witnessed at the greatest tile element
    for model in (z1, z2, h3):
        freqs = PercolationFrequencies(TrivialColouring(model))
        for n in (1, 2, 3):
            tile = folner_set(model, n).tile
            cls = canonicalize(Pattern(tile, {g: "o" for g in tile}))
            other = canonicalize(Pattern(tile, {g: "x" if g == max(tile) else "o" for g in tile}))
            assert freqs.frequency(cls) == 1 and freqs.frequency(other) == 0
            assert freqs.total_mass(tile) == 1
            [(got, witness)] = freqs.occurring(tile)
            assert got is cls and witness == max(tile)


def test_percolation_occurring_needs_one_positive_weight(z2):
    alphabet = Alphabet(("open", "closed"))
    tile = folner_set(z2, 2).tile
    for weights, symbol in (((1, 0), "open"), ((0, 1), "closed")):
        C = PercolationColouring(z2, alphabet, seed=1, weights=[Fraction(w) for w in weights])
        cls = canonicalize(Pattern(tile, {g: symbol for g in tile}))
        assert PercolationFrequencies(C).occurring(tile) == [(cls, max(tile))]
    C = PercolationColouring(z2, alphabet, seed=1, weights=[Fraction(1, 2)] * 2)
    with pytest.raises(FrequencyProviderError):
        PercolationFrequencies(C).occurring(tile)


def test_interned_classes_are_bounded(z2):
    # a 16-site tile has 2^16 classes: its canonical translate keeps the first
    # _INTERNED_SITES // 16 found, over any number of seeds, and the spectra
    # equal those of a model that has kept none
    alphabet = Alphabet(("open", "closed"))
    tile, U = folner_set(z2, 4).tile, folner_set(z2, 20).tile
    domain = canonical_translate(tile)[0]
    for seed in range(4):
        spec = occurring_pattern_spectrum(PercolationColouring(z2, alphabet, seed=seed), tile, U)
        assert len(domain._classes) == _INTERNED_SITES // len(tile) < len(spec)
        fresh = FreeAbelian(2)
        C = PercolationColouring(fresh, alphabet, seed=seed)
        ref = occurring_pattern_spectrum(C, folner_set(fresh, 4).tile, folner_set(fresh, 20).tile)
        assert [(c.key, e) for c, e in spec.items()] == [(c.key, e) for c, e in ref.items()]
        if seed == 0:  # the first classes found are kept
            assert list(domain._classes.values()) == list(spec)[: len(domain._classes)]
        # a class found again is the kept object
        assert all(domain._classes.get(tuple(c.canonical.symbols.tolist()), c) is c for c in spec)


def test_spectra_sort_by_symbols_as_by_keys(z2, h3):
    # the classes of one spectrum share its canonical domain, so their symbols
    # in domain order sort them as their (point, symbol) keys do: Z^2 tiles of
    # 4 and 16 sites and the 16-site H3 tile, two and three symbols
    for model, n, side in ((z2, 2, 12), (z2, 4, 12), (h3, 2, 4)):
        tile, U = folner_set(model, n).tile, folner_set(model, side).tile
        for names in (("open", "closed"), ("a", "b", "c")):
            C = PercolationColouring(model, Alphabet(names), seed=5)
            spec = occurring_pattern_spectrum(C, tile, U)
            by_key = sorted(spec, key=lambda cls: cls.key)
            assert len(by_key) > 2 * len(names)
            assert sorted(spec, key=lambda cls: cls.canonical.symbols.tolist()) == by_key
            assert sorted(spec, key=lambda cls: tuple(cls.canonical.symbols.tolist())) == by_key
            occurring = EmpiricalFrequencies(C, U).occurring(tile)
            assert [cls for cls, _ in occurring] == by_key


def test_spectra_do_not_depend_on_request_order():
    # two fresh models, so each order starts with empty memos
    def spectra(model, order):
        tile = folner_set(model, 2).tile
        moved = tile.right_translate(model.generators[0])
        tiles = [folner_set(model, 1).tile, tile, model.ball(1), moved]
        U = folner_set(model, 5).tile
        C = PercolationColouring(model, Alphabet(("open", "closed")), seed=4)
        out = {}
        for i in order:
            spec = occurring_pattern_spectrum(C, tiles[i], U)
            out[i] = [(cls.key, cls.digest(), entry) for cls, entry in spec.items()]
        return out

    for make in (lambda: FreeAbelian(2), Heisenberg3):
        assert spectra(make(), [0, 1, 2, 3]) == spectra(make(), [3, 2, 1, 0])


def test_percolation_thresholds_are_exact(z1):
    third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
    for weights in ((third, half, sixth), (half, Fraction(0), half), (Fraction(0), third, 2 * third)):
        C = PercolationColouring(z1, Alphabet(("a", "b", "c")), seed=1, weights=weights)
        cums = list(accumulate(weights))
        assert C.thresholds[-1] == 1 << 64
        us = {0, (1 << 64) - 1}
        us |= {u for t in C.thresholds for u in (t - 1, t, t + 1) if 0 <= u < 1 << 64}
        us = sorted(us)
        # the colour rule on the unit interval: first i with u / 2^64 < cum_i
        expected = [next(i for i, c in enumerate(cums) if Fraction(u, 1 << 64) < c) for u in us]
        assert _cut(C.thresholds, np.array(us, dtype=np.uint64)).tolist() == expected


def _check_canonical(P):
    cls, d = canonicalize_with_shift(P)
    key, ref_d, ref_digest = _canonical_reference(P)
    assert cls.key == key
    assert d == ref_d
    assert cls.digest() == ref_digest
    assert translate(cls.canonical, d) == P


@pytest.mark.parametrize("symbols", [("white", "black"), ("open", "closed")])
def test_canonicalize_matches_tuple_reference(symbols):
    rng = random.Random(21)
    for model in (FreeAbelian(1), FreeAbelian(2), Heisenberg3()):
        pool = list(model.ball(3))
        for _ in range(40):
            dom = rng.sample(pool, rng.randint(1, min(9, len(pool))))
            _check_canonical(make_pattern(model, {g: rng.choice(symbols) for g in dom}))
        # constant and periodic patterns on tiles: translates agree on symbols
        for n in (2, 3):
            tile = folner_set(model, n).tile
            for period in (1, 2, 3):
                values = {g: symbols[i // period % 2] for i, g in enumerate(tile)}
                _check_canonical(make_pattern(model, values))


def test_spectrum_matches_per_position_loop(z1, h3):
    weights = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    perc = PercolationColouring(h3, Alphabet(("open", "closed", "ajar")), seed=3, weights=weights)
    cases = [
        (perc, folner_set(h3, 2).tile, folner_set(h3, 4).tile),
        (HalfLineMod3(z1), folner_set(z1, 3).tile, interval(z1, -30, 10)),
        # tiles that do not contain the identity
        (perc, folner_set(h3, 2).tile.right_translate((1, -2, 5)), folner_set(h3, 4).tile),
        (HalfLineMod3(z1), FiniteSet(z1, [(-2,), (0,), (3,)]), interval(z1, -30, 10)),
    ]
    for C, tile, U in cases:
        spec = occurring_pattern_spectrum(C, tile, U)
        got = {cls.key: (e.count, e.witness) for cls, e in spec.items()}
        ref = _spectrum_reference(C, tile, U)
        assert got == ref
        assert list(got) == list(ref)
        assert len(ref) > 2


def test_one_colour_spectrum_matches_per_position_loop(z1, z2, h3):
    # a one-colour alphabet is tallied without colouring; a two-colour one
    # that paints every point "o" takes the general path to the same answer
    box = FiniteSet(z2, [(a, b) for a in range(7) for b in range(-2, 5)])
    cases = [
        (z1, folner_set(z1, 3).tile, interval(z1, -30, 10)),
        (z1, FiniteSet(z1, [(-2,), (0,), (3,)]), interval(z1, -30, 10)),  # no identity
        (z2, folner_set(z2, 2).tile, box),
        (z2, folner_set(z2, 3).tile.right_translate((4, -1)), box),  # no identity
        (h3, folner_set(h3, 2).tile, folner_set(h3, 4).tile),
        (h3, folner_set(h3, 2).tile.right_translate((1, -2, 5)), folner_set(h3, 3).tile),
        # no admissible position: the tile is larger than the volume
        (h3, folner_set(h3, 3).tile, folner_set(h3, 2).tile),
        (z1, folner_set(z1, 5).tile, interval(z1, 0, 3)),
    ]
    for model, tile, U in cases:
        C = TrivialColouring(model, "o")
        spec = occurring_pattern_spectrum(C, tile, U)
        got = {cls.key: (e.count, e.witness) for cls, e in spec.items()}
        ref = _spectrum_reference(C, tile, U)
        assert got == ref
        assert list(got) == list(ref)
        assert len(ref) == (len(admissible_positions(tile, U)) > 0)
        painted = ExplicitColouring(model, Alphabet(("o", "p")), {}, "o")
        general = occurring_pattern_spectrum(painted, tile, U)
        assert list(general) == list(spec)
        assert list(general.values()) == list(spec.values())
        assert [c.digest() for c in general] == [c.digest() for c in spec]


def _tally_reference(codes):
    """First index and count of every distinct row, in first-occurrence order."""
    _, first, counts = np.unique(codes, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order]


def test_tally_rows_matches_unique_rows():
    rng = np.random.default_rng(11)
    cases = [
        (np.zeros((0, 3), dtype=np.int64), 2),
        (np.zeros((0, 243), dtype=np.int64), 2),
        (rng.integers(0, 3, (50, 1)), 3),
        (np.zeros((40, 5), dtype=np.int64), 1),  # a one-colour alphabet
        (rng.integers(0, 2, (300, 4)), 2),
        # 2^243 and 3^100 pass 2^62, so the ids are renumbered on the way
        (rng.integers(0, 2, (400, 243)), 2),
        (rng.integers(0, 3, (400, 100)), 3),
        # rows that differ only in columns that a wrapping int64 would shift out
        (np.hstack([rng.integers(0, 2, (300, 8)), np.zeros((300, 235), dtype=np.int64)]), 2),
        # 256-column rows (an H3 tile at n = 4): one block at base 1, several at 2 and 3
        (np.zeros((30, 256), dtype=np.int64), 1),
        (rng.integers(0, 2, (300, 256)), 2),
        (rng.integers(0, 3, (300, 256)), 3),
        (rng.integers(0, 2, (5, 256))[rng.integers(0, 5, 400)], 2),
        (rng.integers(0, 3, (4, 256))[rng.integers(0, 4, 400)], 3),
        # few distinct rows, repeated, wide enough to renumber
        (rng.integers(0, 2, (6, 243))[rng.integers(0, 6, 500)], 2),
        (np.tile(rng.integers(0, 3, 100), (70, 1)), 3),  # every row equal
    ]
    for codes, base in cases:
        first, counts = _tally_rows(codes, base)
        ref_first, ref_counts = _tally_reference(codes)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(counts, ref_counts)
        assert counts.sum() == len(codes)
