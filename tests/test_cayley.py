import random
import time
from collections import Counter

import numpy as np
import pytest

from idsapprox import cayley
from idsapprox.cayley import (
    FiniteSet,
    FreeAbelian,
    GroupModelError,
    Heisenberg3,
    admissible_positions,
    boundary,
    boundary_ext,
    boundary_int,
    boundary_int_size,
    boundary_size,
    folner_set,
    grid_cover,
    grow,
    interval_folner,
    shrink,
)
from conftest import interval, random_subset


def bfs_depths(model, sources, depth, stop=None):
    # independent multi-source breadth-first search by left multiplication
    # (d(s*g, g) = |s| = 1): the distance of every point within ``depth`` of
    # the sources, ending early once a point satisfying ``stop`` is reached
    dist = {g: 0 for g in sources}
    frontier = list(dist)
    for r in range(1, depth + 1):
        nxt = []
        for g in frontier:
            for s in model.generators:
                h = model.multiply(s, g)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
                    if stop is not None and stop(h):
                        return dist
        frontier = nxt
    return dist


def bfs_length_oracle(model, target, cap=12):
    # independent breadth-first oracle, no shared code with the memo table
    return bfs_depths(model, [model.identity], cap, stop=lambda h: h == target)[target]


def test_group_algebra_randomized(z2, h3):
    rng = random.Random(1)
    for model in (z2, h3):
        pool = list(model.ball(3))
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
    # the broadcasting array product against the tuple product, row by row
    for model in [FreeAbelian(d) for d in range(1, 9)] + [h3]:
        pool = list(model.ball(3))
        gs, hs = np.array(rng.choices(pool, k=5)), np.array(rng.choices(pool, k=7))
        table = model.mul_array(gs[:, None], hs[None])  # (m,1,d) x (1,n,d)
        assert table.shape == (5, 7, model.dim)
        for i, g in enumerate(gs.tolist()):
            for j, h in enumerate(hs.tolist()):
                assert tuple(table[i, j].tolist()) == model.multiply(g, h)
            # (d,) x (n,d) and (n,d) x (d,): one element times every row
            left = [list(model.multiply(g, h)) for h in hs.tolist()]
            right = [list(model.multiply(h, g)) for h in hs.tolist()]
            assert model.mul_array(gs[i], hs).tolist() == left
            assert model.mul_array(hs, gs[i]).tolist() == right


def test_h3_product_and_inverse_formulas(h3):
    assert h3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert h3.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    assert h3.inverse((1, 1, 0)) == (-1, -1, 1)
    assert h3.inverse((0, 0, 0)) == (0, 0, 0)


def test_zd_arithmetic(z2):
    assert z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert z2.inverse((2, -3)) == (-2, 3)


def test_check_element_takes_only_integer_coordinates(z1, h3):
    bad = [(1.5,), ("2",), (np.float64(3.0),), (None,), 7]
    for g in bad:
        with pytest.raises(GroupModelError):
            z1.check_element(g)
        with pytest.raises(GroupModelError):
            FiniteSet(z1, [(0,), g])
        assert g not in FiniteSet(z1, [(0,), (1,), (2,), (3,)])  # membership agrees
    with pytest.raises(GroupModelError):
        z1.multiply((1.5,), (0,))
    with pytest.raises(GroupModelError):
        FiniteSet(h3, [(0, 0, 0)]).right_translate((1, "2", 0))
    # numpy integers are integers: they pass and come back as Python ints
    for g in ((np.int64(3),), np.array([3]), (np.int32(3),)):
        assert z1.check_element(g) == (int(g[0]),)
        assert all(type(c) is int for c in z1.check_element(g))
    assert h3.check_element(np.array([1, -2, 5])) == (1, -2, 5)


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
        pool = list(model.ball(2))
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
    assert set(z1.ball(0)) == {(0,)}
    assert len(h3.ball(1)) == 5
    # brute-force l1 enumeration oracle for Z^2
    brute = {
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if abs(a) + abs(b) <= 2
    }
    assert frozenset(z2.ball(2)) == frozenset(brute)
    assert len(z2.ball(2)) == 13


def test_boundary_interval_example(z1):
    Q = interval(z1, 0, 9)
    assert frozenset(boundary_int(Q, 1)) == {(0,), (9,)}
    assert frozenset(boundary_ext(Q, 1)) == {(-1,), (10,)}
    assert frozenset(shrink(Q, 1)) == frozenset((i,) for i in range(1, 9))
    assert frozenset(grow(Q, 1)) == frozenset((i,) for i in range(-1, 11))


def test_boundary_definitional_properties(z2, h3):
    rng = random.Random(3)
    for model in (z2, h3):
        for _ in range(10):
            Q = random_subset(model, rng, radius=3, size=10)
            points = frozenset(Q)
            for R in (1, 2):
                bi = boundary_int(Q, R)
                be = boundary_ext(Q, R)
                assert frozenset(bi) <= points
                assert not (frozenset(be) & points)
                assert boundary_size(Q, R) == len(bi) + len(be)
                assert boundary_int_size(Q, R) == len(bi)


def test_boundary_identity_vs_distance_oracle(z1, z2, h3):
    # boundaries against breadth-first distances built with multiply alone, on
    # random sets, sets with holes and sets far from the origin (on H3 the c
    # shift b_b*q_a of a run product is then large), radii asked out of order
    rng = random.Random(4)
    z3 = FreeAbelian(3)
    for model in (z1, z2, z3, h3):
        holey = FiniteSet(model, tuple(model.ball(3))[::2])  # every other point
        ring = model.ball(3).difference(model.ball(1))
        sets = [random_subset(model, rng, radius=2, size=7) for _ in range(3)] + [holey, ring]
        if model is h3:
            sets += [Q.right_translate((500, 0, 0)) for Q in sets[:3]]
            sets += [ring.left_translate((-500, 3, 7)), holey.right_translate((-500, -2, 0))]
        else:
            sets += [Q.right_translate([500 * (-1) ** i for i in range(model.dim)]) for Q in sets]
        for Q in sets:
            points = frozenset(Q)
            ext = bfs_depths(model, tuple(Q), 5)
            inner = {
                x: max(bfs_depths(model, [x], 6, stop=lambda h: h not in points).values())
                for x in Q
            }
            for R in (5, 0, 3, 1, 4, 2):
                assert frozenset(boundary_ext(Q, R)) == {h for h, r in ext.items() if 1 <= r <= R}
                assert frozenset(boundary_int(Q, R)) == {x for x, r in inner.items() if r <= R}
                assert boundary_size(Q, R) == len(boundary_ext(Q, R)) + len(boundary_int(Q, R))


def test_boundaries_on_runs_match_bfs_oracle(z1, z2, h3):
    # run-heavy sets (boxes, boxes with holes, intervals with gaps, the empty
    # set): every boundary, shrink and grow against breadth-first distances
    # built with multiply, and shrink against the admissible positions of
    # the ball, which it is by definition
    box = [(a, b) for a in range(12) for b in range(9)]
    holey_box = FiniteSet(z2, [g for g in box if not (4 <= g[0] < 7 and 3 <= g[1] < 5) and g != (9, 2)])
    gaps = FiniteSet(z1, [(i,) for i in [*range(10), *range(12, 21), 22]])
    cases = [(Q, (0, 1, 2, 5)) for Q in (holey_box, holey_box.right_translate((-40, 17)))]
    cases.append((gaps, (0, 1, 2, 4)))
    for j in (2, 3):
        tile = folner_set(h3, j).tile
        cases += [(tile, (0, 1, 8)), (tile.left_translate((-300, 5, 7)), (0, 1, 8))]
    cases += [(FiniteSet(model, []), (0, 1, 3)) for model in (z1, z2, h3)]
    for Q, radii in cases:
        model = Q.model
        points = frozenset(Q)
        ext = bfs_depths(model, tuple(Q), max(radii))
        for R in radii:
            # x is in the shrink when no point within distance R of x leaves Q
            near = {x: bfs_depths(model, [x], R, stop=lambda h: h not in points) for x in Q}
            kept = {x for x, d in near.items() if all(h in points for h in d)}
            grown = {h for h, r in ext.items() if r <= R}
            assert frozenset(shrink(Q, R)) == kept
            assert frozenset(grow(Q, R)) == grown
            assert frozenset(boundary_int(Q, R)) == points - kept
            assert frozenset(boundary_ext(Q, R)) == grown - points
            assert frozenset(boundary(Q, R)) == grown - kept
            assert boundary_int_size(Q, R) == len(points - kept)
            assert boundary_size(Q, R) == len(grown - kept)
            assert shrink(Q, R) == admissible_positions(model.ball(R), Q)
            for A in (shrink(Q, R), grow(Q, R), boundary(Q, R)):
                assert np.all(np.diff(A.packed) > 0)


def test_balls_and_word_lengths_vs_bfs():
    # every ball level and word length against a breadth-first search built
    # with multiply, in fresh models; the ball asked first grows the levels
    # that the word lengths then read, and the later balls grow more; the run
    # heads a ball is built with are those of its keys
    models = [(FreeAbelian(1), 6), (FreeAbelian(2), 6), (FreeAbelian(3), 6), (Heisenberg3(), 6), (FreeAbelian(8), 3)]
    for fresh, top in models:
        depth = bfs_depths(fresh, [fresh.identity], top)
        assert frozenset(fresh.ball(3)) == {g for g, r in depth.items() if r <= 3}
        for g, r in sorted(depth.items()):
            assert fresh.word_length(g) == r
        for R in range(top + 1):
            ball = fresh.ball(R)
            assert frozenset(ball) == {g for g, r in depth.items() if r <= R}
            assert np.all(np.diff(ball.packed) > 0)
            at, length = cayley._runs(ball.packed)
            assert np.array_equal(ball.run_heads[0], ball.coords[at])
            assert np.array_equal(ball.run_heads[1], length)


def test_merge_matches_key_sets():
    # the maximal runs of a union of runs of keys first..last against the
    # set of their keys: overlapping, nested, abutting, duplicate and unsorted
    # runs, no runs, and a run ending at the largest key 2^63 - 1
    top = 2**63 - 1
    cases = [
        ([], []),
        ([5], [3]),
        ([5, 6], [4, 1]),
        ([5, 8], [3, 2]),
        ([5, 7], [3, 4]),
        ([5, 5, 5], [2, 2, 2]),
        ([20, 5, 11], [1, 6, 9]),
        ([top - 2, 1, top - 5, 2], [3, 1, 3, 7]),
    ]
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 12)
        cases.append(([rng.randint(1, 60) for _ in range(n)], [rng.randint(1, 8) for _ in range(n)]))
    for first, length in cases:
        keys = sorted({f + t for f, n in zip(first, length) for t in range(n)})
        first, length = np.array(first, dtype=np.int64), np.array(length, dtype=np.int64)
        start, last = cayley._merge(first, first + (length - 1))
        merged = last - start + 1
        assert cayley._run_keys(start, merged).tolist() == keys
        at, runs = cayley._runs(np.array(keys, dtype=np.int64))
        assert merged.tolist() == runs.tolist()


def test_covered_matches_key_sets():
    # the keys that at least ``times`` of the runs first..last hold, against
    # counts over their key sets, for every times from 1 to the number of
    # runs: nested, overlapping and abutting runs, tied and duplicate starts,
    # and runs that end at the largest key 2^63 - 1 (whose stop overflows);
    # the runs that are not empty are maximal
    top = 2**63 - 1
    cases = [
        ([5], [3]),
        ([5, 5], [3, 3]),
        ([5, 5, 6], [9, 2, 1]),
        ([3, 1, 2], [1, 5, 3]),
        ([1, 4, 4, 7], [3, 3, 2, 1]),
        ([top - 2, top - 5, top, 1], [3, 6, 1, 2]),
        ([top - 9, top - 9, top - 3], [10, 4, 4]),
    ]
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 10)
        cases.append(([rng.randint(1, 40) for _ in range(n)], [rng.randint(1, 12) for _ in range(n)]))
    for first, length in cases:
        count = Counter(f + t for f, n in zip(first, length) for t in range(n))
        first = np.array(first, dtype=np.int64)
        last = first + (np.array(length, dtype=np.int64) - 1)
        for times in range(1, len(first) + 1):
            keys = np.array(sorted(k for k, c in count.items() if c >= times), dtype=np.int64)
            start, size = cayley._covered(first, last, times)
            assert cayley._run_keys(start, size).tolist() == keys.tolist()
            assert size[size > 0].tolist() == cayley._runs(keys)[1].tolist()  # maximal runs


@pytest.mark.parametrize(
    "model", [FreeAbelian(1), FreeAbelian(2), FreeAbelian(8), Heisenberg3()], ids=lambda m: m.describe()
)
def test_run_product_matches_key_sets(model):
    # the runs of B*Q from the run heads of B and Q against the keys of every
    # product b*q, on sets of a few columns near the identity or near the edge
    # of the packable range; GroupModelError exactly when a product does not
    # pack.  On H3 the b of B and the a of Q are up to 200 away from 0, so the
    # c shift b_b q_a decides whether a product near the c edge packs
    rng = random.Random(model.dim)
    bound, h3 = model.pack_bound, isinstance(model, Heisenberg3)

    def columns():
        centre = [rng.randint(-200, 200) if h3 and i < 2 else rng.randint(-12, 12) for i in range(model.dim)]
        if rng.random() < 0.6:
            i = rng.randrange(model.dim)
            centre[i] = rng.choice((1, -1)) * (bound - rng.randint(10, 40_000 if h3 and i == 2 else 20))
        rows = []
        for _ in range(rng.randint(1, 4)):
            head = [c + rng.randint(-3, 3) for c in centre]
            rows += [head[:-1] + [head[-1] + t] for t in range(rng.randint(1, 5))]
        return FiniteSet(model, rows)

    outcomes = Counter()
    for _ in range(150):
        B, Q = columns(), columns()
        products = [model.multiply(b, q) for b in B for q in Q]
        unpackable = max(abs(c) for g in products for c in g) >= bound
        outcomes[unpackable] += 1
        if unpackable:
            with pytest.raises(GroupModelError):
                cayley._run_product(model, B.run_heads, Q.run_heads)
            continue
        keys = cayley._unique_keys(model._pack(np.array(products, dtype=np.int64)))
        first, length = cayley._run_product(model, B.run_heads, Q.run_heads)
        assert np.array_equal(cayley._run_keys(first, length), keys)
        assert np.array_equal(length, cayley._runs(keys)[1])  # maximal runs
    assert outcomes[True] > 10 and outcomes[False] > 10


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
                sphere |= frozenset(UR.right_translate(s))
            sphere_ratios[j] = len(sphere - frozenset(UR)) / len(UR)
        assert ratios[16] < ratios[4]
        assert sphere_ratios[16] < sphere_ratios[4]


def test_tiling_partition_small(z1, z2, h3):
    for model in (z1, z2, h3):
        for n in (1, 2, 3):
            spec = folner_set(model, n)
            region = model.ball(6)
            seen = {}
            for g in region:
                q, gamma = spec.decompose(g)
                assert q in spec.tile
                assert spec.grid_contains(gamma)
                assert model.multiply(q, gamma) == g
                seen.setdefault(gamma, set()).add(g)
            # translates are disjoint and cover the region exactly once
            tiles = [spec.tile.right_translate(g) for g in seen]
            covered = set()
            for t in tiles:
                assert not (covered & frozenset(t))
                covered |= frozenset(t)
            assert frozenset(region) <= covered


def test_grid_symmetry(z2, h3):
    for model in (z2, h3):
        for n in (2, 3):
            spec = folner_set(model, n)
            probe = model.ball(5)
            for g in probe:
                if spec.grid_contains(g):
                    assert spec.grid_contains(model.inverse(g))


def test_grid_decompose_examples(z1, h3):
    s3 = folner_set(z1, 3)
    assert s3.decompose((7,)) == ((1,), (6,))
    assert s3.decompose((1,)) == ((1,), (0,))
    s2 = folner_set(h3, 2)
    q, gamma = s2.decompose((3, 1, 5))
    assert q in s2.tile and s2.grid_contains(gamma)
    assert h3.multiply(q, gamma) == (3, 1, 5)


def test_grid_decompose_roundtrip_random(h3):
    rng = random.Random(5)
    spec = folner_set(h3, 3)
    pool = list(h3.ball(5))
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
                points = frozenset(A)
                x = rng.choice(list(model.ball(2)))
                cov = grid_cover(A, x, spec)
                tile_size = len(spec.tile)
                assert len(cov.interior) * tile_size <= len(A)
                assert len(cov.crossing) * tile_size <= boundary_size(
                    A, spec.bounding_diameter
                ) or spec.bounding_diameter == 0
                # interior tiles are genuinely inside, crossing ones are not
                for gamma in cov.interior:
                    assert frozenset(spec.tile.right_translate(gamma)) <= points
                for gamma in cov.crossing:
                    t = frozenset(spec.tile.right_translate(gamma))
                    assert t & points
                    assert not t <= points


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
            sphere |= frozenset(tile.right_translate(s))
        assert len(sphere - frozenset(tile)) == 5 * n**3 - 2 * n**2 + n


def test_zd_cube_sphere_face_count():
    # |Qn S \ Qn| = 2d n^{d-1}, oracle: the 2d faces are disjoint
    for d in (1, 2, 3):
        model = FreeAbelian(d)
        for n in range(1, 11 if d == 1 else 6):
            tile = folner_set(model, n).tile
            sphere = set()
            for s in model.generators:
                sphere |= frozenset(tile.right_translate(s))
            assert len(sphere - frozenset(tile)) == 2 * d * n ** (d - 1)


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


def test_diameter_edge_cases(z1, z2, h3):
    with pytest.raises(ValueError):
        FiniteSet(z1, []).diameter
    assert FiniteSet(z1, [(4,)]).diameter == 0
    assert interval(z1, 0, 9).diameter == 9
    # brute force over pairs
    rng = random.Random(21)
    for _ in range(3):
        for model in (z2, h3, FreeAbelian(4)):
            for size in (2, 7, 11):
                Q = random_subset(model, rng, radius=3, size=size)
                elems = tuple(Q)
                pairs = [(g, h) for g in elems for h in elems]
                assert model.set_diameter(Q) == max(model.word_distance(g, h) for g, h in pairs)


def _columns(model, rng, centre, count, spread=3, longest=5):
    """A union of ``count`` columns g, g z, ..., g z^(L-1) near ``centre``,
    L drawn from 1..longest, so the runs have unequal lengths."""
    points = []
    for _ in range(count):
        g = [c + rng.randint(-spread, spread) for c in centre]
        points += [tuple(g[:-1] + [g[-1] + t]) for t in range(rng.randint(1, longest))]
    return FiniteSet(model, points)


def test_set_diameter_from_run_pairs_matches_pairs():
    # g h^-1 over a run pair is one run; the maximum over all point pairs is the oracle
    rng = random.Random(29)
    h3 = Heisenberg3()
    for model in (h3, FreeAbelian(1), FreeAbelian(2), FreeAbelian(3)):
        centres = [model.identity, tuple(rng.randint(-40, 40) for _ in range(model.dim))]
        if model is h3:  # along a, so that the shift b*a of the c coordinate matters
            centres.append((12, -2, 7))
        for centre in centres:
            for count in (1, 2, 4, 7):
                Q = _columns(model, rng, centre, count, spread=20 if model.dim == 1 else 3)
                elems = tuple(Q)
                brute = max(model.word_distance(g, h) for g in elems for h in elems)
                assert model.set_diameter(Q) == brute, (model.describe(), count)
                if count == 7:
                    assert len(set(cayley._runs(Q.packed)[1].tolist())) > 1
    # g h^-1 for g = (0, 0, B - 19) and the run h = (1, 20, 0..3) is the run from
    # (-1, -20, B - 2) to (-1, -20, B + 1): every run start is packable, one end is not
    B = h3.pack_bound
    with pytest.raises(GroupModelError):
        h3.set_diameter(FiniteSet(h3, [(0, 0, B - 19)] + [(1, 20, t) for t in range(4)]))


def test_h3_diameter_of_far_columns():
    # seven short columns: near (40, -3, 7) the diameter a breadth-first search
    # of the word metric gives, and near (500, -3, 7), where the word lengths
    # pass 200 and balls hold about 10^9 points, the maximum over point pairs
    h3 = Heisenberg3()
    assert h3.set_diameter(_columns(h3, random.Random(55), (40, -3, 7), 7)) == 58
    start = time.perf_counter()
    Q = _columns(h3, random.Random(55), (500, -3, 7), 7)
    assert h3.set_diameter(Q) == 212
    assert time.perf_counter() - start < 10
    elems = tuple(Q)
    assert max(h3.word_distance(g, h) for g in elems for h in elems) == 212


def test_admissible_positions_tile_run_longer_than_every_run(z2, h3):
    # a tile run that fits in no run of U leaves no position
    box = FiniteSet(z2, [(a, c) for a in range(5) for c in range(3)])  # columns of 3
    column = FiniteSet(z2, [(0, t) for t in range(4)])
    short = FiniteSet(z2, [(0, 0), (1, 0), (1, 1)])
    cases = [(column, box), (column.union(short), box)]
    U = folner_set(h3, 2).tile  # columns of 4
    cases.append((FiniteSet(h3, [(0, 0, t) for t in range(5)]), U))
    cases.append((FiniteSet(h3, [(0, 0, 0), (1, 0, 0)] + [(0, 1, t) for t in range(5)]), U))
    for tile, U in cases:
        assert cayley._runs(tile.packed)[1].max() > cayley._runs(U.packed)[1].max()
        assert len(admissible_positions(tile, U)) == 0
        assert admissible_positions_reference(tile, U) == frozenset()
    assert len(admissible_positions(short, box)) > 0


def test_interval_folner(z1):
    assert frozenset(interval_folner(z1, 2, side="positive")) == frozenset(
        (i,) for i in range(1, 7)
    )
    assert frozenset(interval_folner(z1, 2, side="negative")) == frozenset(
        (i,) for i in range(-6, 0)
    )
    # the tuple construction is the reference, at the scale of the largest volumes
    for j in (1, 30_000):
        for side, points in (("positive", range(1, 3 * j + 1)), ("negative", range(-3 * j, 0))):
            U = interval_folner(z1, j, side=side)
            assert tuple(U) == tuple((i,) for i in points)
            assert np.all(np.diff(U.packed) > 0)
    with pytest.raises(ValueError, match="unknown side"):
        interval_folner(z1, 2, side="left")
    for j in (0, -1):
        with pytest.raises(ValueError, match="index"):
            interval_folner(z1, j)
    with pytest.raises(GroupModelError):
        interval_folner(FreeAbelian(2), 2)


def admissible_positions_reference(tile, U):
    # the intersection of the translates q^-1 U over q in the tile
    model = tile.model
    translates = [frozenset(U.left_translate(model.inverse(q))) for q in tile]
    return frozenset.intersection(*translates)


def test_admissible_positions(z1, z2, h3):
    tile = interval(z1, 0, 2)
    U = interval(z1, 0, 9)
    pos = admissible_positions(tile, U)
    assert frozenset(pos) == frozenset((i,) for i in range(0, 8))
    rng = random.Random(17)
    cases = [(interval(z1, 0, 7), U), (interval(z1, 3, 5), U)]  # no identity in the second tile
    for model in (z2, h3):
        ball = model.ball(4)
        e = model.identity
        for _ in range(4):
            dense = FiniteSet(model, rng.sample(tuple(ball), len(ball) * 4 // 5))
            tile = random_subset(model, rng, radius=2, size=rng.randint(2, 6))
            cases.append((tile, dense))
            cases.append((tile.difference(FiniteSet(model, [e])), dense))
        cases.append((model.ball(3), model.ball(1)))  # tile larger than U: no position
        far = tuple([0] * (model.dim - 1) + [60])
        cases.append((FiniteSet(model, [e, far]), ball))  # every position fails
    cases += _run_cases(rng)
    for tile, U in cases:
        pos = admissible_positions(tile, U)
        assert frozenset(pos) == admissible_positions_reference(tile, U)
        assert np.all(np.diff(pos.packed) > 0)
    assert not frozenset(admissible_positions(h3.ball(3), h3.ball(1)))
    # |U| = 90 000 and |Q| = 243 on Z^1: the positions form one interval
    U, tile = interval(z1, 0, 89_999), interval(z1, 0, 242)
    assert np.array_equal(admissible_positions(tile, U).coords[:, 0], np.arange(89_758))


def _holed(model, rng, centre, side):
    """A box of the given side around ``centre`` with about a fifth of its points removed."""
    box = [tuple(c + o for c, o in zip(centre, x)) for x in np.ndindex(*[side] * model.dim)]
    return FiniteSet(model, rng.sample(box, len(box) * 4 // 5))


def _run_cases(rng):
    """(tile, U) pairs whose runs, holes and ends exercise the run arithmetic."""
    h3 = Heisenberg3()
    cases = []
    for model in [FreeAbelian(d) for d in (1, 2, 3, 4)] + [h3]:
        e, b = model.identity, model.pack_bound
        up = lambda t, base=e: base[:-1] + (base[-1] + t,)  # noqa: E731 - base times z^t
        centres = [tuple(rng.randint(-40, 40) for _ in range(model.dim)) for _ in range(2)]
        if model is h3:  # far along a, so that the shift b*a of the c coordinate matters
            centres += [(500, 3, -7), (-500, -2, 11)]
        sides = {1: 60, 2: 9, 3: 5, 4: 4}.get(model.dim, 5)
        tiles = [
            FiniteSet(model, [e, up(2)]),  # two runs in one column
            FiniteSet(model, [e, up(1), up(3), up(4)]),
            FiniteSet(model, [up(t, g) for g in model.ball(1) for t in (0, 2)]),
        ]
        for centre in centres:
            U = _holed(model, rng, centre, sides)
            cases += [(tile, U) for tile in tiles]
            cases.append((FiniteSet(model, rng.sample(tuple(model.ball(2)), 4)), U))
        # a column of U that ends at the last packable coordinate
        top = FiniteSet(model, [up(t, up(b - 9)) for t in range(9)] + [up(b - 12)])
        cases += [(tile, top) for tile in tiles[:2]] + [(FiniteSet(model, [up(t) for t in range(3)]), top)]
    return cases


@pytest.mark.parametrize("model", [FreeAbelian(d) for d in (1, 2, 3, 4)] + [Heisenberg3()], ids=lambda m: m.describe())
def test_last_coordinate_step_is_central(model):
    # z = (0,...,0,1) commutes with every g, and g z^t has the key of g plus t
    rng = random.Random(3)
    for _ in range(40):
        g = tuple(rng.randint(-600, 600) for _ in range(model.dim))
        t = rng.randint(-50, 50)
        z_t = model.identity[:-1] + (t,)
        assert model.multiply(g, z_t) == model.multiply(z_t, g)
        keys = model._pack(np.array([g, model.multiply(g, z_t)], dtype=np.int64))
        assert keys[1] == keys[0] + t


@pytest.mark.parametrize("model", [FreeAbelian(d) for d in (1, 2, 3, 4)] + [Heisenberg3()], ids=lambda m: m.describe())
def test_left_translation_maps_runs_to_runs(model):
    rng = random.Random(8)
    for _ in range(10):
        A = _holed(model, rng, tuple(rng.randint(-500, 500) for _ in range(model.dim)), 4)
        first, length = cayley._runs(A.packed)
        assert length.sum() == len(A) and np.all(np.diff(A.packed)[first[1:] - 1] > 1)
        h = tuple(rng.randint(-500, 500) for _ in range(model.dim))
        keys = A.left_translate(h).packed  # sorted, and in the order of A
        assert np.array_equal(keys, model._pack(model.mul_array(h, A.coords)))
        # each run of A lands on consecutive keys, starting at h times its start
        for i, n in zip(first, length):
            assert np.array_equal(keys[i : i + n], keys[i] + np.arange(n))


def test_admissible_positions_out_of_range(z1):
    # tile (-5) * x in U puts x up to 4 past the last packable coordinate
    b = z1.pack_bound
    U = interval(z1, b - 10, b - 1)
    with pytest.raises(GroupModelError):
        admissible_positions(FiniteSet(z1, [(-5,)]), U)
    assert admissible_positions(FiniteSet(z1, [(-1,), (0,)]), U) == interval(z1, b - 9, b - 1)


def test_finite_set_semantics(z1):
    A = FiniteSet(z1, [(1,), (1,), (2,)])
    assert len(A) == 2
    B = FiniteSet(z1, [(2,), (1,)])
    assert A == B and hash(A) == hash(B)
    assert frozenset(A.right_translate((3,))) == {(4,), (5,)}


def test_decompose_of_product_is_identity(z2, h3):
    rng = random.Random(33)
    for model in (z2, h3):
        for n in (2, 3):
            spec = folner_set(model, n)
            tile_elems = list(spec.tile)
            grid_pool = [
                g for g in model.ball(6) if spec.grid_contains(g)
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
    assert frozenset(boundary_int(Q, 1)) == frozenset(Q)  # no interior at n=2
    assert len(boundary_ext(Q, 1)) == 2 * 4 * 2 ** 3
    cov = grid_cover(z4.ball(2), (0, 0, 0, 0), folner_set(z4, 2))
    assert len(cov.interior) * 16 <= len(z4.ball(2))
    ball = frozenset(z4.ball(2))
    for gamma in cov.interior:
        assert frozenset(folner_set(z4, 2).tile.right_translate(gamma)) <= ball


def test_h3_per_generator_sphere_split(h3):
    # the four one-sided differences: |Q_n s1 \ Q_n| = |Q_n s1^-1 \ Q_n| =
    # 1.5 n^3 - n^2 + 0.5 n and |Q_n s2^{+-1} \ Q_n| = n^3
    for n in range(1, 7):
        tile = folner_set(h3, n).tile
        points = frozenset(tile)
        sizes = {}
        for s in h3.generators:
            sizes[s] = len(frozenset(tile.right_translate(s)) - points)
        expect_s1 = (3 * n**3 - 2 * n**2 + n) // 2
        assert sizes[(1, 0, 0)] == expect_s1
        assert sizes[(-1, 0, 0)] == expect_s1
        assert sizes[(0, 1, 0)] == n**3
        assert sizes[(0, -1, 0)] == n**3


def test_boundary_union_formula_identity(z2, h3):
    # the finite union reformulation, evaluated literally as a second oracle;
    # the radii are asked out of order on one shared set, which keeps the
    # shrink of every radius it was asked for
    rng = random.Random(55)
    sets = [
        random_subset(model, rng, radius=2, size=9)
        for model in (z2, h3, FreeAbelian(4))
        for _ in range(8)
    ]
    box = [(a, b) for a in range(5) for b in range(5) if (a, b) != (2, 2)]
    strip = [(a, b) for a in range(8) for b in range(2)]  # interior shell 2 is empty
    sets += [FiniteSet(z2, box), FiniteSet(z2, strip)]
    for Q in sets:
        model = Q.model
        points = frozenset(Q)
        for R in (3, 0, 1, 2):
            ball = model.ball(R)
            int_union = set()
            ext_union = set()
            for s in ball:
                s_q = {model.multiply(s, q) for q in points}
                int_union |= points - s_q
                ext_union |= s_q - points
            assert frozenset(boundary_int(Q, R)) == int_union
            assert frozenset(boundary_ext(Q, R)) == ext_union
            assert shrink(Q, R) == Q.difference(boundary_int(Q, R))
            assert grow(Q, R) == Q.union(boundary_ext(Q, R))
        # the shrink memo holds exactly the radii asked, each computed once
        assert sorted(Q._shrunk) == [0, 1, 2, 3]
        for R in (3, 0, 1, 2):
            assert shrink(Q, R) is Q._shrunk[R]


def test_shrinks_reuse_known_radii(z2, h3, monkeypatch):
    # B_0 = {e}: the radius-0 shrink is the set itself, and its grown size its
    # own; balls are nested, so a radius above an empty shrink needs no search
    calls = []
    search = cayley.admissible_positions

    def counted(tile, U):
        calls.append(len(tile))
        return search(tile, U)

    monkeypatch.setattr(cayley, "admissible_positions", counted)
    strip = FiniteSet(z2, [(a, b) for a in range(8) for b in range(2)])  # shrink(1) is empty
    for Q in (folner_set(h3, 3).tile, folner_set(z2, 6).tile, strip):
        assert shrink(Q, 0) is Q
        assert boundary_size(Q, 0) == 0
        assert not calls
        R = 1
        while len(shrink(Q, R)):
            R += 1
        calls.clear()
        for bigger in (R + 2, R + 1, R + 7):
            assert len(shrink(Q, bigger)) == 0
            assert shrink(Q, bigger) == search(Q.model.ball(bigger), Q)
            assert boundary_size(Q, bigger) == len(grow(Q, bigger))
        assert not calls
    assert shrink(FiniteSet(h3, []), 0) == FiniteSet(h3, [])


@pytest.mark.parametrize("model", [FreeAbelian(d) for d in range(1, 9)] + [Heisenberg3()], ids=lambda m: m.describe())
def test_packing_round_trip_at_bound(model):
    edge = model.pack_bound - 1
    rows = [[edge] * model.dim, [-edge] * model.dim, [edge, -edge] * (model.dim // 2) + [0] * (model.dim % 2)]
    A = FiniteSet(model, rows)
    assert frozenset(A) == {tuple(r) for r in rows}
    assert FiniteSet(model, tuple(A)) == A
    for c in (model.pack_bound, -model.pack_bound):
        with pytest.raises(GroupModelError):
            FiniteSet(model, [[c] + [0] * (model.dim - 1)])
        with pytest.raises(GroupModelError):
            FiniteSet(model, [[0] * (model.dim - 1) + [c]])


@pytest.mark.parametrize("model", [FreeAbelian(d) for d in range(1, 9)] + [Heisenberg3()], ids=lambda m: m.describe())
def test_pack_bound_at_sweep_edge(model):
    # boundary_size(Q, R) reads the points of B_R Q, those within distance R
    # of Q; it raises exactly when one of them leaves the packable range, and
    # otherwise counts right: a run product never carries silently from one
    # bit field into the next
    bound = model.pack_bound
    sets = []
    for i in range(model.dim):
        for c in (bound - 1, bound - 2, bound - 3, -bound + 1, -bound + 3):
            g = [0] * model.dim
            g[i] = c
            sets.append([g, [1] * model.dim])
    if isinstance(model, Heisenberg3):
        # the c field moves by +-a under the generators (0, +-1, 0)
        for a in (1000, -1000):
            for c in (bound - 1000, bound - 1001, bound - 2000, bound - 2001):
                sets.append([(a, 0, c if a > 0 else -c)])
    raised = []
    for rows in sets:
        for R in (1, 2):
            Q = FiniteSet(model, rows)
            near = bfs_depths(model, tuple(Q), R)
            out_of_range = max(abs(c) for g in near for c in g) >= bound
            raised.append(out_of_range)
            if out_of_range:
                with pytest.raises(GroupModelError):
                    boundary_size(Q, R)
            else:
                inner = [x for x in Q if any(h not in Q for h in bfs_depths(model, [x], R))]
                assert boundary_size(Q, R) == sum(r >= 1 for r in near.values()) + len(inner)
    assert any(raised) and not all(raised)


def test_generators_must_be_symmetric():
    class OneWay(FreeAbelian):
        # Z^2 with a generator whose inverse is missing
        def __init__(self):
            self.dim = 2
            self.generators = ((1, 0), (-1, 0), (0, 1))
            cayley.GroupModel.__init__(self)

    with pytest.raises(GroupModelError, match="closed under inverse"):
        OneWay()


@pytest.mark.parametrize(
    "model",
    [FreeAbelian(1), FreeAbelian(2), FreeAbelian(4), FreeAbelian(8), Heisenberg3()],
    ids=lambda m: m.describe(),
)
def test_finite_set_matches_frozenset_oracle(model):
    rng = random.Random(7)
    pool = list(model.ball(3))
    samples = [[]] + [rng.choices(pool, k=rng.randint(1, 12)) for _ in range(6)]
    samples.append(list(samples[-1]))  # an equal set built separately
    cases = [(FiniteSet(model, s), frozenset(s)) for s in samples]
    for A, a in cases:
        assert len(A) == len(a) and tuple(A) == tuple(sorted(a))
        assert A.coords.shape == (len(a), model.dim)
        for g in pool:
            assert (g in A) == (g in a)
            # a list or an ndarray row is an element by value
            assert (list(g) in A) == (np.array(g) in A) == (g in a)
        for row in A.coords:
            assert row in A
        # no element, and never an error: wrong length, unpackable or
        # overflowing coordinates, non-integers and non-sequences
        b, e = model.pack_bound, model.identity
        for g in [e + (0,), e[1:], (b,) + e[1:], e[1:] + (-b,), (10**30,) + e[1:],
                  (0.5,) + e[1:], "ab", "0" * model.dim, 0, None]:
            assert g not in a
            assert (g in A) is False
        # the far shift carries across bit fields; on H3 the c term grows as b*a'
        if isinstance(model, Heisenberg3):
            far = (500, -500, 500)
        else:
            far = tuple((-1) ** i * (model.pack_bound // 4) for i in range(model.dim))
        for x in (rng.choice(pool), far):
            # equality compares packed arrays, so keys out of order would fail
            assert A.right_translate(x) == FiniteSet(model, {model.multiply(g, x) for g in a})
            assert A.left_translate(x) == FiniteSet(model, {model.multiply(x, g) for g in a})
        for B, b in cases:
            assert (A == B) == (a == b)
            if a == b:
                assert hash(A) == hash(B)
            assert frozenset(A.union(B)) == a | b
            assert frozenset(A.intersection(B)) == a & b
            assert frozenset(A.difference(B)) == a - b
            assert A.union(B) == FiniteSet(model, a | b)
