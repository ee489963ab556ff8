import random

import pytest

from idsapprox.cayley import (
    FiniteSet,
    FreeAbelian,
    GroupModelError,
    Heisenberg3,
    admissible_positions,
    boundary_ext,
    boundary_int,
    boundary_int_size,
    boundary_size,
    folner_set,
    grid_cover,
    grid_decompose,
    grow,
    interval_folner,
    shrink,
)
from conftest import interval, random_subset


def bfs_length_oracle(model, target, cap=12):
    # independent breadth-first oracle, no shared code with the memo table
    frontier = {model.identity}
    seen = set(frontier)
    for r in range(cap + 1):
        if target in frontier:
            return r
        frontier = {
            model.multiply(g, s) for g in frontier for s in model.generators
        } - seen
        seen |= frontier
    raise AssertionError("oracle cap exceeded")


def test_group_algebra_randomized(z2, h3):
    rng = random.Random(1)
    for model in (z2, h3):
        pool = list(model.ball(3).sorted_elements)
        e = model.identity
        for _ in range(60):
            g, h, k = (rng.choice(pool) for _ in range(3))
            assert model.multiply(model.multiply(g, h), k) == model.multiply(
                g, model.multiply(h, k)
            )
            assert model.multiply(g, e) == g
            assert model.multiply(e, g) == g
            assert model.multiply(g, model.inverse(g)) == e
            assert model.multiply(model.inverse(g), g) == e


def test_h3_product_and_inverse_formulas(h3):
    assert h3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert h3.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    assert h3.inverse((1, 1, 0)) == (-1, -1, 1)
    assert h3.inverse((0, 0, 0)) == (0, 0, 0)


def test_zd_arithmetic(z2):
    assert z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert z2.inverse((2, -3)) == (-2, 3)


def test_mismatched_model_raises(z2):
    with pytest.raises(GroupModelError):
        z2.multiply((1, 0, 0), (0, 1))


def test_generators_reach_targets(z2, h3):
    # S generates: bfs reaches arbitrary elements
    for model, targets in ((z2, [(3, -2)]), (h3, [(0, 0, 1), (2, -1, 3)])):
        for t in targets:
            assert model.word_length(t) == bfs_length_oracle(model, t)


def test_word_distance_basics(z2, h3):
    for model in (z2, h3):
        e = model.identity
        assert model.word_distance(e, e) == 0
        for s in model.generators:
            assert model.word_distance(e, s) == 1


def test_h3_central_element_distance(h3):
    assert h3.word_distance(h3.identity, (0, 0, 1)) == 4


def test_metric_axioms_and_invariance(z2, h3):
    rng = random.Random(2)
    for model in (z2, h3):
        pool = list(model.ball(2).sorted_elements)
        for _ in range(40):
            g, h, k, t = (rng.choice(pool) for _ in range(4))
            d = model.word_distance
            assert d(g, h) == d(h, g)
            assert d(g, h) == 0 or g != h
            assert d(g, k) <= d(g, h) + d(h, k)
            # right translations are isometries
            assert d(model.multiply(g, t), model.multiply(h, t)) == d(g, h)
        if isinstance(model, FreeAbelian):
            for _ in range(20):
                g, h, t = (rng.choice(pool) for _ in range(3))
                assert model.word_distance(
                    model.multiply(t, g), model.multiply(t, h)
                ) == model.word_distance(g, h)


def test_ball_sizes(z1, z2, h3):
    assert set(z1.ball(0).elements) == {(0,)}
    assert len(h3.ball(1)) == 5
    # brute-force l1 enumeration oracle for Z^2
    brute = {
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if abs(a) + abs(b) <= 2
    }
    assert z2.ball(2).elements == frozenset(brute)
    assert len(z2.ball(2)) == 13


def test_boundary_interval_example(z1):
    Q = interval(z1, 0, 9)
    assert boundary_int(Q, 1).elements == {(0,), (9,)}
    assert boundary_ext(Q, 1).elements == {(-1,), (10,)}
    assert shrink(Q, 1).elements == frozenset((i,) for i in range(1, 9))
    assert grow(Q, 1).elements == frozenset((i,) for i in range(-1, 11))


def test_boundary_definitional_properties(z2, h3):
    rng = random.Random(3)
    for model in (z2, h3):
        for _ in range(10):
            Q = random_subset(model, rng, radius=3, size=10)
            for R in (1, 2):
                bi = boundary_int(Q, R)
                be = boundary_ext(Q, R)
                assert bi.elements <= Q.elements
                assert not (be.elements & Q.elements)
                assert boundary_size(Q, R) == len(bi) + len(be)
                assert boundary_int_size(Q, R) == len(bi)


def test_boundary_identity_vs_distance_oracle(z2, h3):
    # distance-based oracle inside a large bounding ball
    rng = random.Random(4)
    for model in (z2, h3):
        for _ in range(6):
            Q = random_subset(model, rng, radius=2, size=7)
            for R in (1, 2, 3):
                big = grow(Q, R + 1)
                complement = [g for g in big.sorted_elements if g not in Q]
                expect_int = {
                    x
                    for x in Q.sorted_elements
                    if any(model.word_distance(x, w) <= R for w in complement)
                }
                expect_ext = {
                    w
                    for w in complement
                    if any(model.word_distance(w, x) <= R for x in Q.sorted_elements)
                }
                assert boundary_int(Q, R).elements == expect_int
                assert boundary_ext(Q, R).elements == expect_ext


def test_folner_ratio_trend(z2, h3):
    # Folner trend smoke: ratios strictly smaller at j=16 than at j=4
    for model in (z2, h3):
        ratios = {}
        sphere_ratios = {}
        for j in (4, 16):
            U = folner_set(model, j).tile
            ratios[j] = boundary_size(U, 1) / len(U)
            UR = shrink(U, 1)
            sphere = set()
            for s in model.generators:
                sphere |= UR.right_translate(s).elements
            sphere_ratios[j] = len(sphere - UR.elements) / len(UR)
        assert ratios[16] < ratios[4]
        assert sphere_ratios[16] < sphere_ratios[4]


def test_tiling_partition_small(z1, z2, h3):
    for model in (z1, z2, h3):
        for n in (1, 2, 3):
            spec = folner_set(model, n)
            region = model.ball(6)
            seen = {}
            for g in region.sorted_elements:
                q, gamma = spec.decompose(g)
                assert q in spec.tile
                assert spec.grid_contains(gamma)
                assert model.multiply(q, gamma) == g
                seen.setdefault(gamma, set()).add(g)
            # translates are disjoint and cover the region exactly once
            tiles = [spec.tile.right_translate(g) for g in seen]
            covered = set()
            for t in tiles:
                assert not (covered & t.elements)
                covered |= t.elements
            assert region.elements <= covered


def test_grid_symmetry(z2, h3):
    for model in (z2, h3):
        for n in (2, 3):
            spec = folner_set(model, n)
            probe = model.ball(5)
            for g in probe.sorted_elements:
                if spec.grid_contains(g):
                    assert spec.grid_contains(model.inverse(g))


def test_grid_decompose_examples(z1, h3):
    s3 = folner_set(z1, 3)
    assert grid_decompose((7,), s3) == ((1,), (6,))
    assert grid_decompose((1,), s3) == ((1,), (0,))
    s2 = folner_set(h3, 2)
    q, gamma = grid_decompose((3, 1, 5), s2)
    assert q in s2.tile and s2.grid_contains(gamma)
    assert h3.multiply(q, gamma) == (3, 1, 5)


def test_grid_decompose_roundtrip_random(h3):
    rng = random.Random(5)
    spec = folner_set(h3, 3)
    pool = list(h3.ball(5).sorted_elements)
    for _ in range(50):
        g = rng.choice(pool)
        q, gamma = spec.decompose(g)
        assert h3.multiply(q, gamma) == g
        assert q in spec.tile
        assert spec.grid_contains(gamma)


def test_grid_cover_examples(z1):
    spec = folner_set(z1, 3)
    cov = grid_cover(interval(z1, 0, 8), (0,), spec)
    assert len(cov.interior) == 3 and len(cov.crossing) == 0
    cov = grid_cover(interval(z1, 0, 9), (0,), spec)
    assert len(cov.interior) == 3 and len(cov.crossing) == 1


def test_grid_cover_inequalities(z2, h3):
    rng = random.Random(6)
    for model in (z2, h3):
        for n in (1, 2):
            spec = folner_set(model, n)
            for _ in range(8):
                A = random_subset(model, rng, radius=3, size=14)
                x = rng.choice(list(model.ball(2).sorted_elements))
                cov = grid_cover(A, x, spec)
                tile_size = len(spec.tile)
                assert len(cov.interior) * tile_size <= len(A)
                assert len(cov.crossing) * tile_size <= boundary_size(
                    A, spec.bounding_diameter
                ) or spec.bounding_diameter == 0
                # interior tiles are genuinely inside, crossing ones are not
                for gamma in cov.interior.sorted_elements:
                    assert spec.tile.right_translate(gamma).elements <= A.elements
                for gamma in cov.crossing.sorted_elements:
                    t = spec.tile.right_translate(gamma)
                    assert t.elements & A.elements
                    assert not t.elements <= A.elements


def test_folner_set_cardinalities(z2, h3):
    for n in (1, 2, 3, 5):
        spec2 = folner_set(z2, n)
        assert len(spec2.tile) == n**2
        assert spec2.tile.diameter == 2 * (n - 1)
        assert spec2.bounding_diameter == 2 * n
        spech = folner_set(h3, n)
        assert len(spech.tile) == n**4


def test_h3_sphere_formula(h3):
    for n in range(1, 7):
        tile = folner_set(h3, n).tile
        sphere = set()
        for s in h3.generators:
            sphere |= tile.right_translate(s).elements
        assert len(sphere - tile.elements) == 5 * n**3 - 2 * n**2 + n


def test_zd_cube_sphere_face_count():
    # |Qn S \ Qn| = 2d n^{d-1}, oracle: the 2d faces are disjoint
    for d in (1, 2, 3):
        model = FreeAbelian(d)
        for n in range(1, 11 if d == 1 else 6):
            tile = folner_set(model, n).tile
            sphere = set()
            for s in model.generators:
                sphere |= tile.right_translate(s).elements
            assert len(sphere - tile.elements) == 2 * d * n ** (d - 1)


def test_zd_cube_boundary_bound(z2):
    # |d^R(Qn)| <= (n+4R)^d - n^d
    for n in (2, 4, 6):
        for R in (1, 2):
            tile = folner_set(z2, n).tile
            assert boundary_size(tile, R) <= (n + 4 * R) ** 2 - n**2


def test_h3_diameter_bracket_small(h3):
    for n in (2, 3, 4):
        d = folner_set(h3, n).tile.diameter
        assert n <= d <= 6 * n


def test_diameter_edge_cases(z1):
    with pytest.raises(ValueError):
        FiniteSet(z1, []).diameter
    assert FiniteSet(z1, [(4,)]).diameter == 0
    assert interval(z1, 0, 9).diameter == 9


def test_interval_folner(z1):
    assert interval_folner(z1, 2, side="positive").elements == frozenset(
        (i,) for i in range(1, 7)
    )
    assert interval_folner(z1, 2, side="negative").elements == frozenset(
        (i,) for i in range(-6, 0)
    )


def test_admissible_positions(z1):
    tile = interval(z1, 0, 2)
    U = interval(z1, 0, 9)
    pos = admissible_positions(tile, U)
    assert pos.elements == frozenset((i,) for i in range(0, 8))


def test_finite_set_semantics(z1):
    A = FiniteSet(z1, [(1,), (1,), (2,)])
    assert len(A) == 2
    B = FiniteSet(z1, [(2,), (1,)])
    assert A == B and hash(A) == hash(B)
    assert A.right_translate((3,)).elements == {(4,), (5,)}


def test_decompose_of_product_is_identity(z2, h3):
    rng = random.Random(33)
    for model in (z2, h3):
        for n in (2, 3):
            spec = folner_set(model, n)
            tile_elems = list(spec.tile.sorted_elements)
            grid_pool = [
                g for g in model.ball(6).sorted_elements if spec.grid_contains(g)
            ]
            for _ in range(30):
                q = rng.choice(tile_elems)
                gamma = rng.choice(grid_pool)
                assert spec.decompose(model.multiply(q, gamma)) == (q, gamma)


def test_dim_four_packs():
    z4 = FreeAbelian(4)
    assert z4.word_distance((0, 0, 0, 0), (1, -1, 0, 2)) == 4
    Q = folner_set(z4, 2).tile
    assert len(Q) == 16
    assert boundary_int(Q, 1).elements == Q.elements  # no interior at n=2
    assert len(boundary_ext(Q, 1)) == 2 * 4 * 2 ** 3
    cov = grid_cover(z4.ball(2), (0, 0, 0, 0), folner_set(z4, 2))
    assert len(cov.interior) * 16 <= len(z4.ball(2))
    for gamma in cov.interior.sorted_elements:
        assert folner_set(z4, 2).tile.right_translate(gamma).elements <= z4.ball(2).elements


def test_h3_per_generator_sphere_split(h3):
    # the four one-sided differences: |Q_n s1 \ Q_n| = |Q_n s1^-1 \ Q_n| =
    # 1.5 n^3 - n^2 + 0.5 n and |Q_n s2^{+-1} \ Q_n| = n^3
    for n in range(1, 7):
        tile = folner_set(h3, n).tile
        sizes = {}
        for s in h3.generators:
            sizes[s] = len(tile.right_translate(s).elements - tile.elements)
        expect_s1 = (3 * n**3 - 2 * n**2 + n) // 2
        assert sizes[(1, 0, 0)] == expect_s1
        assert sizes[(-1, 0, 0)] == expect_s1
        assert sizes[(0, 1, 0)] == n**3
        assert sizes[(0, -1, 0)] == n**3


def test_boundary_union_formula_identity(z2, h3):
    # the finite union reformulation, evaluated literally as a second oracle
    rng = random.Random(55)
    for model in (z2, h3, FreeAbelian(4)):
        for _ in range(8):
            Q = random_subset(model, rng, radius=2, size=9)
            for R in (1, 2, 3):
                ball = model.ball(R)
                int_union = set()
                ext_union = set()
                for s in ball.sorted_elements:
                    s_q = {model.multiply(s, q) for q in Q.sorted_elements}
                    int_union |= Q.elements - s_q
                    ext_union |= s_q - Q.elements
                assert boundary_int(Q, R).elements == int_union
                assert boundary_ext(Q, R).elements == ext_union


@pytest.mark.parametrize("model", [FreeAbelian(d) for d in range(1, 9)] + [Heisenberg3()], ids=lambda m: m.describe())
def test_packing_round_trip_at_bound(model):
    edge = model.pack_bound - 1
    rows = [[edge] * model.dim, [-edge] * model.dim, [edge, -edge] * (model.dim // 2) + [0] * (model.dim % 2)]
    A = FiniteSet(model, rows)
    assert A.elements == {tuple(r) for r in rows}
    assert FiniteSet(model, A.sorted_elements) == A
    for c in (model.pack_bound, -model.pack_bound):
        with pytest.raises(GroupModelError):
            FiniteSet(model, [[c] + [0] * (model.dim - 1)])
        with pytest.raises(GroupModelError):
            FiniteSet(model, [[0] * (model.dim - 1) + [c]])


@pytest.mark.parametrize("model", [FreeAbelian(1), FreeAbelian(4), Heisenberg3()], ids=lambda m: m.describe())
def test_finite_set_matches_frozenset_oracle(model):
    rng = random.Random(7)
    pool = list(model.ball(3).sorted_elements)
    samples = [[]] + [rng.choices(pool, k=rng.randint(1, 12)) for _ in range(6)]
    samples.append(list(samples[-1]))  # an equal set built separately
    cases = [(FiniteSet(model, s), frozenset(s)) for s in samples]
    for A, a in cases:
        assert len(A) == len(a) and A.sorted_elements == tuple(sorted(a))
        assert A.coords.shape == (len(a), model.dim)
        for g in pool:
            assert (g in A) == (g in a)
        x = rng.choice(pool)
        assert A.right_translate(x).elements == {model.multiply(g, x) for g in a}
        assert A.left_translate(x).elements == {model.multiply(x, g) for g in a}
        for B, b in cases:
            assert (A == B) == (a == b)
            if a == b:
                assert hash(A) == hash(B)
            assert A.union(B).elements == a | b
            assert A.intersection(B).elements == a & b
            assert A.difference(B).elements == a - b
            assert A.union(B) == FiniteSet(model, a | b)
