import random
import tracemalloc

import numpy as np
import pytest

from idsapprox.cayley import FiniteSet, FreeAbelian, Heisenberg3, folner_set, grow, interval_folner, shrink
from idsapprox.colouring import (
    Alphabet,
    BLACK,
    Colouring,
    HalfLineMod3,
    PercolationColouring,
    TrivialColouring,
)
from idsapprox.operators import (
    LocalRule,
    OperatorError,
    SymmetryError,
    adjacency_rule,
    laplacian_rule,
    offset_table_rule,
    percolation_rule,
    principal_restriction,
    restrict_operator,
)
from conftest import chain_rule, interval, random_subset


def test_zero_rule(z1):
    rule = offset_table_rule(z1, {}, name="zero")
    M = restrict_operator(rule, TrivialColouring(z1), interval(z1, 0, 5))
    assert np.all(M.to_dense() == 0.0)
    assert M.norm_hint == 0.0


def test_path_graph_tridiagonal(z1):
    rule = adjacency_rule(z1)
    M = restrict_operator(rule, TrivialColouring(z1), interval(z1, 0, 2)).to_dense()
    assert np.array_equal(M, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def test_adjacency_properties(z2, h3):
    assert adjacency_rule(h3).overall_range == 1
    for model in (z2, h3):
        rule = adjacency_rule(model)
        C = TrivialColouring(model)
        Q = model.ball(2)
        M = restrict_operator(rule, C, Q).to_dense()
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 0.0)
        # interior rows have full degree |S|
        inner = shrink(Q, 1)
        order = tuple(restrict_operator(rule, C, Q).Q)
        for g in inner:
            assert M[order.index(g)].sum() == len(model.generators)


def test_percolation_all_retained_equals_adjacency(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=9)
    rule_p = percolation_rule(z2, C.alphabet, ["a", "b"])
    rule_a = adjacency_rule(z2)
    Q = folner_set(z2, 4).tile
    assert np.array_equal(
        restrict_operator(rule_p, C, Q).to_dense(),
        restrict_operator(rule_a, C, Q).to_dense(),
    )


def test_percolation_kernel_reads_codes(h3):
    # the retained mask is indexed by alphabet code: retained symbols that sort
    # before and after a dropped one, against the induced subgraph by colour
    C = PercolationColouring(h3, Alphabet(("c", "a", "b")), seed=4)
    Q = folner_set(h3, 3).tile
    rule = percolation_rule(h3, C.alphabet, ["c", "b"])
    seen = []

    def kernel(patterns, w):
        codes = patterns.code_at(w)
        assert codes.dtype == np.int64
        assert patterns.symbol_at(w).tolist() == [C.alphabet.symbols[c] for c in codes]
        seen.append(len(codes))
        return rule.kernel(patterns, w)

    spy = LocalRule(h3, 1, 1, 1, kernel)
    M = restrict_operator(spy, C, Q).to_dense()
    assert seen and np.array_equal(M, restrict_operator(rule, C, Q).to_dense())
    kept = np.array([C.colour(g) in ("c", "b") for g in Q])
    expected = restrict_operator(adjacency_rule(h3), C, Q).to_dense() * np.outer(kept, kept)
    assert np.array_equal(M, expected)


def test_example_block_structure(z1):
    C = HalfLineMod3(z1)
    rule = percolation_rule(z1, C.alphabet, [BLACK])
    for j in (1, 4):
        U = interval_folner(z1, j, side="positive")
        assert np.all(restrict_operator(rule, C, U).to_dense() == 0.0)
        V = interval_folner(z1, j, side="negative")
        M = restrict_operator(rule, C, V).to_dense()
        # j disjoint 2x2 adjacency blocks plus j isolated zeros
        assert M.sum() == 2 * j
        assert np.all(M @ M @ M == M)  # A^3 = A for disjoint edges


def test_laplacian_full_lattice(z2):
    rule = laplacian_rule(adjacency_rule(z2))
    C = TrivialColouring(z2)
    Q = folner_set(z2, 3).tile
    M = restrict_operator(rule, C, Q).to_dense()
    order = tuple(restrict_operator(rule, C, Q).Q)
    assert all(M[i, i] == 4.0 for i in range(len(order)))
    i, j = order.index((0, 0)), order.index((0, 1))
    assert M[i, j] == -1.0


def test_laplacian_isolated_vertex(z1):
    C = HalfLineMod3(z1)
    rule = laplacian_rule(percolation_rule(z1, C.alphabet, [BLACK]))
    U = interval_folner(z1, 2, side="positive")  # all white: no edges, degree 0
    assert np.all(restrict_operator(rule, C, U).to_dense() == 0.0)


def test_laplacian_positive_semidefinite(z2):
    rng = random.Random(25)
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=31)
    rule = laplacian_rule(percolation_rule(z2, C.alphabet, ["a"]))
    for _ in range(6):
        Q = random_subset(z2, rng, radius=3, size=12)
        vals = np.linalg.eigvalsh(restrict_operator(rule, C, Q).to_dense())
        assert vals.min() >= -1e-9


def test_periodic_fold_alternating_chain_spectrum(z1):
    # the period-2 chain with edge weights 1, 2 as a k = 2 rule over its cells
    def unfolded_entry(u, v):
        if abs(u - v) != 1:
            return 0.0
        return 1.0 if min(u, v) % 2 == 0 else 2.0

    rule = chain_rule(z1, 2.0)
    assert rule.k == 2
    C = TrivialColouring(z1)
    m = 6
    Q = interval(z1, 0, m - 1)
    M = restrict_operator(rule, C, Q).to_dense()
    assert np.array_equal(M, M.T)
    # oracle: eigensolve the unfolded segment {0..2m-1}
    n = 2 * m
    A = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            A[u, v] = unfolded_entry(u, v)
    assert np.allclose(np.linalg.eigvalsh(M), np.linalg.eigvalsh(A), atol=1e-10)


def test_norm_bound_adjacency():
    for d in (1, 2, 3):
        model = FreeAbelian(d)
        rule = adjacency_rule(model)
        C = TrivialColouring(model)
        bound = restrict_operator(rule, C, model.ball(2)).norm_hint
        assert bound == 2 * d + 1
        # true norm oracle: large restriction stays within the certificate
        big = restrict_operator(rule, C, folner_set(model, 8 if d < 3 else 5).tile)
        vals = np.linalg.eigvalsh(big.to_dense())
        assert np.abs(vals).max() <= bound
        assert bound >= 2 * d  # Fourier band edge of the lattice


def test_eigenvalues_within_norm_bound(h3):
    rule = adjacency_rule(h3)
    C = TrivialColouring(h3)
    M = restrict_operator(rule, C, folner_set(h3, 4).tile)
    vals = np.linalg.eigvalsh(M.to_dense())
    assert np.abs(vals).max() <= M.norm_hint


def test_decoupling_block_diagonal(z2):
    # restriction to a disjoint union of shrunk parts decouples exactly
    rng = random.Random(27)
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=23)
    rule = percolation_rule(z2, C.alphabet, ["a"])
    R = rule.overall_range
    for _ in range(5):
        q1 = random_subset(z2, rng, radius=2, size=8)
        offset = (rng.choice([7, -7]), rng.choice([7, -7]))
        q2 = q1.right_translate(offset)
        p1, p2 = shrink(q1, R), shrink(q2, R)
        if not len(p1) or not len(p2):
            continue
        union = FiniteSet(z2, frozenset(p1) | frozenset(p2))
        M = restrict_operator(rule, C, union)
        dense = M.to_dense()
        order = tuple(M.Q)
        idx1 = [order.index(g) for g in p1]
        idx2 = [order.index(g) for g in p2]
        assert np.all(dense[np.ix_(idx1, idx2)] == 0.0)
        sub1 = restrict_operator(rule, C, p1).to_dense()
        assert np.array_equal(dense[np.ix_(idx1, idx1)], sub1)


def test_restriction_consistency(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=29)
    rule = percolation_rule(z2, C.alphabet, ["a"])
    Q = folner_set(z2, 4).tile
    Qsub = folner_set(z2, 2).tile
    M = restrict_operator(rule, C, Q)
    sub = restrict_operator(rule, C, Qsub)
    order = tuple(M.Q)
    idx = [order.index(g) for g in sub.Q]
    assert np.array_equal(M.to_dense()[np.ix_(idx, idx)], sub.to_dense())


def test_exact_symmetry_bitwise(h3):
    C = TrivialColouring(h3)
    M = restrict_operator(adjacency_rule(h3), C, folner_set(h3, 3).tile).to_dense()
    assert np.array_equal(M, M.T)


def test_symmetry_violation_raises(z1):
    def bad_kernel(pat, w):
        if w == (0,):
            return 0.0
        return 1.0 if w == (1,) else 2.0  # kernel(w) != kernel(-w)

    rule = LocalRule(z1, 1, 1, 1, bad_kernel)
    with pytest.raises(SymmetryError):
        restrict_operator(rule, TrivialColouring(z1), interval(z1, 0, 3))


def test_offset_table_symmetry_validation(z1):
    with pytest.raises(SymmetryError):
        offset_table_rule(z1, {(1,): 1.0, (-1,): 2.0})


def test_sparse_storage_above_threshold(z1):
    rule = adjacency_rule(z1)
    C = TrivialColouring(z1)
    big = interval(z1, 0, 2500)
    M = restrict_operator(rule, C, big)
    # the path on 2501 points: two nonzero entries per edge, nothing else stored
    assert len(M.rows) == len(M.cols) == len(M.vals) == 5000
    assert M.rows.max() < M.dim and M.cols.max() < M.dim
    dense = np.zeros((M.dim, M.dim))
    dense[M.rows, M.cols] = M.vals
    assert np.array_equal(dense, np.eye(2501, k=1) + np.eye(2501, k=-1))
    assert np.array_equal(M.to_dense(), dense)


# -- assembly against a pairwise oracle ---------------------------------------------


def pairwise_matrix(rule, C, Q):
    """H[Q] built block by block from rule.block_at over every ordered pair."""
    k = rule.k
    order = tuple(Q)
    M = np.zeros((k * len(order), k * len(order)))
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            M[i * k : (i + 1) * k, j * k : (j + 1) * k] = rule.block_at(C, x, y)
    return M


def oracle_cases():
    z1, z2, z4, h3 = FreeAbelian(1), FreeAbelian(2), FreeAbelian(4), Heisenberg3()
    ab = Alphabet(("a", "b"))
    perc2 = PercolationColouring(z2, ab, seed=5)
    perc4 = PercolationColouring(z4, ab, seed=6)
    halfline = HalfLineMod3(z1)
    rng = random.Random(30)
    yield percolation_rule(z1, halfline.alphabet, [BLACK]), halfline, interval(z1, -12, 6)
    yield offset_table_rule(z1, {(1,): 0.5, (-1,): 0.5, (2,): -1.0, (-2,): -1.0}), halfline, random_subset(z1, rng, 8, 12)
    yield percolation_rule(z2, ab, ["a"]), perc2, folner_set(z2, 6).tile
    yield laplacian_rule(percolation_rule(z2, ab, ["a"])), perc2, random_subset(z2, rng, 4, 30)
    yield percolation_rule(z4, ab, ["a"]), perc4, z4.ball(2)
    yield adjacency_rule(h3), TrivialColouring(h3), folner_set(h3, 2).tile
    yield chain_rule(z1, 2.0), TrivialColouring(z1), random_subset(z1, rng, 6, 9)


ORACLE_IDS = ["z1_halfline", "z1_offsets", "z2_perc", "z2_laplacian", "z4_perc", "h3_adj", "z1_fold_k2"]


@pytest.mark.parametrize("case", range(len(ORACLE_IDS)), ids=ORACLE_IDS)
def test_assembly_matches_pairwise_oracle(case):
    rule, C, Q = list(oracle_cases())[case]
    M = restrict_operator(rule, C, Q)
    assert np.array_equal(M.to_dense(), pairwise_matrix(rule, C, Q))
    assert M.Q == Q


def principal_cases():
    """(rule, colouring, Q) with the k = 2 chain, Z^2 percolation, H3 adjacency
    and the Laplacian of Z^2 percolation."""
    z1, z2, h3 = FreeAbelian(1), FreeAbelian(2), Heisenberg3()
    perc = PercolationColouring(z2, Alphabet(("a", "b")), seed=5)
    yield chain_rule(z1, 2.0), TrivialColouring(z1), interval(z1, -20, 20)
    yield percolation_rule(z2, perc.alphabet, ["a"]), perc, folner_set(z2, 12).tile
    yield adjacency_rule(h3), TrivialColouring(h3), folner_set(h3, 3).tile
    yield laplacian_rule(percolation_rule(z2, perc.alphabet, ["a"])), perc, folner_set(z2, 10).tile


def assert_same_restriction(M, N):
    assert M.Q == N.Q and M.k == N.k and M.row_blocks == N.row_blocks
    for field in ("rows", "cols", "vals"):
        got, want = getattr(M, field), getattr(N, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert M.norm_hint == N.norm_hint


def test_principal_restriction_equals_assembly():
    rng = random.Random(24)
    for rule, C, Q in principal_cases():
        M = restrict_operator(rule, C, Q)
        points = list(Q)
        subsets = [Q, FiniteSet(Q.model, []), FiniteSet(Q.model, points[::7]), shrink(Q, 1)]
        subsets += [FiniteSet(Q.model, rng.sample(points, size)) for size in (1, 5, len(points) // 2)]
        for W in subsets:
            assert_same_restriction(principal_restriction(M, W), restrict_operator(rule, C, W))
    # on the chain, points 7 apart keep only the diagonal blocks, of norm 1 against 2
    rule, C, Q = next(principal_cases())
    M = restrict_operator(rule, C, Q)
    assert (M.norm_hint, principal_restriction(M, FiniteSet(Q.model, list(Q)[::7])).norm_hint) == (6.0, 3.0)
    with pytest.raises(OperatorError):
        principal_restriction(M, grow(Q, 1))


def test_assembly_empty_set(z2):
    M = restrict_operator(adjacency_rule(z2), TrivialColouring(z2), FiniteSet(z2, []))
    assert M.dim == 0 and M.to_dense().shape == (0, 0)


def test_pattern_dependent_asymmetry_raises(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=7)

    def reads_only_x(patterns, w):  # the block at (x, y) ignores the colour of y
        return 0.0 if w == (0, 0) else patterns.symbol_at((0, 0)) == "a"

    rule = LocalRule(z2, 1, 1, 1, reads_only_x)
    with pytest.raises(SymmetryError):
        restrict_operator(rule, C, folner_set(z2, 3).tile)


def test_nonsymmetric_diagonal_block_raises(z1):
    def kernel(pattern, w):
        return [[0.0, 1.0], [0.0, 0.0]] if w == (0,) else np.zeros((2, 2))

    rule = LocalRule(z1, 2, 1, 1, kernel)
    with pytest.raises(SymmetryError):
        restrict_operator(rule, TrivialColouring(z1), interval(z1, 0, 2))


def test_pattern_dependent_asymmetry_at_some_sites_raises(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=7)

    def kernel(patterns, w):  # the block at w = (1, 0) reads the colour at x
        if w == (0, 0):
            return 0.0
        return (patterns.symbol_at((0, 0)) == "a").astype(float) if w == (1, 0) else 1.0

    rule = LocalRule(z2, 1, 1, 1, kernel)
    tile = folner_set(z2, 4).tile
    with pytest.raises(SymmetryError, match="not transpose-consistent"):
        restrict_operator(rule, C, tile)
    # consistent where every site has the colour 'a'
    retained = FiniteSet(z2, [g for g in tile if C.colour(g) == "a"])
    assert 0 < len(retained) < len(tile)
    M = restrict_operator(rule, C, retained).to_dense()
    assert np.array_equal(M, restrict_operator(adjacency_rule(z2), C, retained).to_dense())


def test_kernel_reading_outside_the_window_raises(z2):
    # a rule of range R reads its patterns on B_2R = B_2, and (2, 1) lies outside it
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=9)
    rule = LocalRule(z2, 1, 1, 1, lambda p, w: (p.symbol_at((2, 1)) == "a") + 0.0)
    with pytest.raises(KeyError):
        restrict_operator(rule, C, folner_set(z2, 3).tile)
    with pytest.raises(KeyError):
        rule.block_at(C, (0, 0), (1, 0))


class RecordingColouring(Colouring):
    """A colouring that records the points of every call it gets."""

    def __init__(self, inner):
        self.inner, self.model, self.alphabet = inner, inner.model, inner.alphabet
        self.calls = []

    @property
    def asked(self):
        return [q for call in self.calls for q in call]

    def colour_codes(self, coords):
        self.calls.append(list(map(tuple, np.asarray(coords).tolist())))
        return self.inner.colour_codes(coords)


def test_assembly_colours_only_what_the_kernel_reads(z2, h3):
    for model in (z2, h3):
        C = RecordingColouring(TrivialColouring(model))
        restrict_operator(adjacency_rule(model), C, folner_set(model, 3).tile)
        assert C.calls == []
        C = RecordingColouring(PercolationColouring(model, Alphabet(("a", "b")), seed=4))
        Q = folner_set(model, 5 if model is z2 else 3).tile
        restrict_operator(percolation_rule(model, C.alphabet, ["a"]), C, Q)
        # one call per column, in the order the kernel first reads it: e x at
        # the first offset w != e, then w x; so all of B_1 Q and nothing beyond
        e = model.identity
        assert C.calls == [list(Q)] + [[model.multiply(w, x) for x in Q] for w in model.ball(1) if w != e]
        assert FiniteSet(model, C.asked) == grow(Q, 1)


def test_window_point_beyond_the_offsets_is_coloured_on_its_own(z2, h3):
    for model in (z2, h3):
        far = next(q for q in model.ball(2) if q not in model.ball(1))
        e = model.identity
        C = RecordingColouring(PercolationColouring(model, Alphabet(("a", "b")), seed=11))
        perc = percolation_rule(model, C.alphabet, ["a"])

        def kernel(patterns, w):  # the diagonal reads the colour at far x
            return (patterns.code_at(far) == 0) + 0.0 if w == e else perc.kernel(patterns, w)

        rule = LocalRule(model, 1, 1, 2, kernel)
        assert rule.overall_range == 2 and far not in rule._offsets
        Q = random_subset(model, random.Random(33), 4, 40)
        M = restrict_operator(rule, C, Q)
        assert np.array_equal(M.to_dense(), pairwise_matrix(rule, C.inner, Q))
        # e x at the first offset (e is not the first of B_1), then one
        # column per offset in B_1's order, far x in place of e x
        columns = [[model.multiply(far if w == e else w, x) for x in Q] for w in model.ball(1)]
        assert C.calls == [list(Q)] + columns


def test_assembly_peak_does_not_scale_with_every_offsets_points():
    # all of B_1 Q as coordinates would take |B_1| |Q| d int64s; assembling
    # one offset at a time stays well below that
    z8 = FreeAbelian(8)
    rule, C, Q = adjacency_rule(z8), TrivialColouring(z8), folner_set(z8, 3).tile
    restrict_operator(rule, C, Q)  # the ball and the tile's coordinates are cached
    tracemalloc.start()
    try:
        restrict_operator(rule, C, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * len(z8.ball(1)) * len(Q) * z8.dim * 8


def test_norm_hint_matches_recomputation(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=8)

    def kernel(patterns, w):  # spectral norms 2, 1 and 1 against entries <= 1
        if w != (0, 0):
            return np.full((2, 2), 0.5)
        d = (patterns.symbol_at((0, 0)) == "a").astype(float)
        return np.stack([np.stack([d, np.ones_like(d)], -1), np.stack([np.ones_like(d), d], -1)], -2)

    rng = random.Random(31)
    for rule in (laplacian_rule(percolation_rule(z2, C.alphabet, ["a"])), LocalRule(z2, 2, 1, 1, kernel)):
        for _ in range(4):
            Q = random_subset(z2, rng, 5, 25)
            M = restrict_operator(rule, C, Q)
            brute = max(np.linalg.norm(rule.block_at(C, x, y), 2) for x in Q for y in Q)
            assert M.norm_hint == brute * len(z2.ball(rule.overall_range))


def test_norm_hint_independent_of_call_history(z2):
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=3)
    Q = FiniteSet(z2, [(0, 0), (1, 0)])
    fresh = restrict_operator(laplacian_rule(percolation_rule(z2, C.alphabet, ["a"])), C, Q)
    rule = laplacian_rule(percolation_rule(z2, C.alphabet, ["a"]))
    restrict_operator(rule, C, folner_set(z2, 10).tile)
    assert restrict_operator(rule, C, Q).norm_hint == fresh.norm_hint


# -- the batch kernel contract ------------------------------------------------------


def retained_pairs(patterns, w):
    """(m,) percolation values on the colour 'a' (zero on the diagonal)."""
    if w == (0, 0):
        return np.zeros(len(patterns))
    return ((patterns.symbol_at((0, 0)) == "a") & (patterns.symbol_at(w) == "a")).astype(float)


HOP = np.array([[1.0, 0.5], [0.5, -1.0]])  # symmetric, so every offset may share it

KERNEL_FORMS = {
    "scalar": (1, lambda p, w: 0.0 if w == (0, 0) else 1.0),
    "kk": (1, lambda p, w: [[0.0 if w == (0, 0) else 1.0]]),
    "m": (1, retained_pairs),
    "mkk": (1, lambda p, w: retained_pairs(p, w)[:, None, None]),
    "kk_k2": (2, lambda p, w: 2.0 * np.eye(2) if w == (0, 0) else HOP),
    "mkk_k2": (
        2,
        lambda p, w: np.multiply.outer(
            (p.symbol_at((0, 0)) == "a") + 1.0 if w == (0, 0) else retained_pairs(p, w),
            np.eye(2) if w == (0, 0) else HOP,
        ),
    ),
    # the diagonal reads a window point outside B_M = B_1 but inside B_2R = B_2
    "m_far": (1, lambda p, w: (p.symbol_at((1, 1)) == "a") + 0.0 if w == (0, 0) else retained_pairs(p, w)),
}


@pytest.mark.parametrize("form", sorted(KERNEL_FORMS))
def test_batch_kernel_forms_match_pairwise_oracle(z2, form):
    k, kernel = KERNEL_FORMS[form]
    C = PercolationColouring(z2, Alphabet(("a", "b")), seed=12)
    Q = random_subset(z2, random.Random(32), 4, 30)
    rule = LocalRule(z2, k, 1, 1, kernel)
    M = restrict_operator(rule, C, Q).to_dense()
    assert np.array_equal(M, pairwise_matrix(rule, C, Q))
    if form in ("scalar", "kk", "m", "mkk"):  # adjacency, or percolation on 'a'
        same = adjacency_rule(z2) if form in ("scalar", "kk") else percolation_rule(z2, C.alphabet, ["a"])
        assert np.array_equal(M, restrict_operator(same, C, Q).to_dense())


@pytest.mark.parametrize(
    "k, kernel",
    [
        (1, lambda p, w: np.zeros(len(p) + 1)),  # one value too many
        (1, lambda p, w: np.zeros((len(p), 2))),
        (1, lambda p, w: np.zeros((2, 2))),  # a (k, k) block of the wrong k
        (2, lambda p, w: 0.0),  # scalars stand for blocks only when k = 1
        (2, lambda p, w: np.zeros(len(p))),
        (2, lambda p, w: np.zeros((len(p), 2, 1))),
    ],
    ids=["k1_extra_value", "k1_m_by_2", "k1_block_2x2", "k2_scalar", "k2_m", "k2_m_by_2_by_1"],
)
def test_batch_kernel_wrong_shape_raises(z2, k, kernel):
    rule = LocalRule(z2, k, 1, 1, kernel)
    with pytest.raises(OperatorError, match="shape"):
        restrict_operator(rule, TrivialColouring(z2), folner_set(z2, 3).tile)
