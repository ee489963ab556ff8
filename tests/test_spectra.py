import random

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from idsapprox.cayley import FiniteSet, folner_set, interval_folner, shrink
from idsapprox.colouring import (
    BLACK,
    Alphabet,
    HalfLineMod3,
    PercolationColouring,
    TrivialColouring,
)
from idsapprox.operators import (
    adjacency_rule,
    laplacian_rule,
    offset_table_rule,
    percolation_rule,
    principal_restriction,
    restrict_operator,
)
from idsapprox.spectra import (
    SpectraError,
    cluster_values,
    component_spectrum,
    counting_from_values,
    default_tau,
    eigenvalues,
)
from conftest import chain_rule
from oracles import (
    QuasiModeError,
    numerical_rank,
    projection_truncation_gap,
    quasi_mode_count,
    rank_perturbation_gap,
)


def sym(rng, n, scale=1.0):
    A = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return A + A.T


def test_two_by_two_swap():
    vals = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_example_block_multiplicities(z1):
    C = HalfLineMod3(z1)
    rule = percolation_rule(z1, C.alphabet, [BLACK])
    for j in (2, 5, 9):
        V = interval_folner(z1, j, side="negative")
        M = restrict_operator(rule, C, V)
        reps, counts = cluster_values(eigenvalues(M), default_tau(M))
        assert np.allclose(reps, [-1.0, 0.0, 1.0], atol=1e-9)
        assert list(counts) == [j, j, j]


def test_dense_residual_oracle():
    rng = random.Random(13)
    A = sym(rng, 30)
    ours = eigenvalues(A)
    w, V = np.linalg.eigh(A)
    assert np.allclose(np.sort(w), ours, atol=1e-10)
    scale = np.linalg.norm(A, 2)
    for i in range(30):
        r = np.linalg.norm(A @ V[:, i] - ours[i] * V[:, i])
        assert r <= 1e-8 * scale


def test_counting_zero_matrix():
    A = np.zeros((6, 6))
    cf = counting_from_values(eigenvalues(A), default_tau(A))
    assert cf(-1e-12) == 0.0
    assert cf(0.0) == 6.0
    assert cf.terminal_value == 6.0


def test_counting_example_v2(z1):
    C = HalfLineMod3(z1)
    rule = percolation_rule(z1, C.alphabet, [BLACK])
    V2 = interval_folner(z1, 2, side="negative")
    M = restrict_operator(rule, C, V2)
    cf = counting_from_values(eigenvalues(M), default_tau(M))
    assert cf(-1.0) == 2.0 and cf(-0.5) == 2.0
    assert cf(0.0) == 4.0
    assert cf(1.0) == 6.0


def test_counting_matches_tally_oracle():
    rng = random.Random(14)
    A = sym(rng, 25)
    ev = eigenvalues(A)
    cf = counting_from_values(ev, default_tau(A))
    for _ in range(100):
        E = rng.uniform(-30, 30)
        assert cf(E) == float(np.sum(ev <= E))


def test_counting_is_monotone_with_full_mass():
    rng = random.Random(15)
    for _ in range(10):
        A = sym(rng, rng.randint(2, 20))
        cf = counting_from_values(eigenvalues(A), default_tau(A))
        assert cf.terminal_value == A.shape[0]
        vals = np.concatenate([[cf.base], cf.values])
        assert np.all(np.diff(vals) > 0)


def test_cluster_values_merges_ties():
    reps, counts = cluster_values(np.array([0.0, 1e-12, 1.0]), 1e-9)
    assert len(reps) == 2
    assert list(counts) == [2, 1]


def _cluster_reference(values, tau):
    """One mean per cluster over np.split: the definition of cluster_values."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return values, np.empty(0, dtype=np.int64)
    groups = np.split(values, np.nonzero(np.diff(values) >= tau)[0] + 1)
    reps = np.array([float(g.mean()) for g in groups])
    return reps, np.array([len(g) for g in groups], dtype=np.int64)


def test_cluster_values_matches_split_reference():
    rng = np.random.default_rng(12)
    tau = 1e-9
    sizes = [1] * 40 + [2, 3, 4, 5, 6, 7, 30, 200, 1500]
    rng.shuffle(sizes)
    centres = np.cumsum(rng.uniform(1e-8, 3.0, len(sizes))) - 20.0
    # members of a cluster sit within tau of their neighbours
    planted = np.concatenate(
        [c + np.cumsum(rng.uniform(0, 0.9 * tau, m)) for c, m in zip(centres, sizes)]
    )
    cases = [
        rng.permutation(planted),
        np.empty(0),
        np.arange(50) * 0.37 - 4.0,  # every value alone
        1.0 / 3 + np.cumsum(rng.uniform(0, 0.5 * tau, 800)),  # one cluster
    ]
    for values in cases:
        reps, counts = cluster_values(values, tau)
        ref_reps, ref_counts = _cluster_reference(values, tau)
        assert reps.dtype == np.float64 and counts.dtype == np.int64
        assert np.array_equal(reps, ref_reps) and np.array_equal(counts, ref_counts)
    assert sorted(cluster_values(planted, tau)[1].tolist()) == sorted(sizes)
    assert cluster_values(cases[2], tau)[1].tolist() == [1] * 50
    assert cluster_values(cases[3], tau)[1].tolist() == [800]


def test_rank_perturbation_examples():
    rng = random.Random(16)
    A = sym(rng, 20)
    assert rank_perturbation_gap(A, np.zeros((20, 20))) == 0
    v = np.array([rng.uniform(-1, 1) for _ in range(20)])
    C = 3.0 * np.outer(v, v)
    assert rank_perturbation_gap(A, C) <= 1
    assert rank_perturbation_gap(A, 0.5 * np.eye(20)) <= 20


def test_rank_perturbation_property_batch():
    rng = random.Random(17)
    for trial in range(100):
        n = rng.randint(5, 40)
        A = sym(rng, n)
        r = rng.randint(1, 3)
        C = np.zeros((n, n))
        for _ in range(r):
            v = np.array([rng.uniform(-1, 1) for _ in range(n)])
            C += rng.uniform(-2, 2) * np.outer(v, v)
        assert rank_perturbation_gap(A, C) <= r


def test_projection_truncation_examples():
    rng = random.Random(18)
    A = sym(rng, 15)
    assert projection_truncation_gap(A, range(15)) == 0
    assert projection_truncation_gap(A, range(14)) <= 4
    # diagonal matrices: the gap is at most the codimension
    D = np.diag([rng.uniform(-3, 3) for _ in range(12)])
    keep = sorted(rng.sample(range(12), 9))
    removed = [i for i in range(12) if i not in keep]
    gap = projection_truncation_gap(D, keep)
    assert gap <= len(removed)


def test_projection_truncation_property_batch():
    rng = random.Random(19)
    for trial in range(100):
        n = rng.randint(6, 40)
        drop = rng.randint(1, 5)
        A = sym(rng, n)
        keep = sorted(rng.sample(range(n), n - drop))
        assert projection_truncation_gap(A, keep) <= 4 * drop


def test_quasi_mode_exact_eigenvector():
    rng = random.Random(20)
    A = sym(rng, 10)
    w, V = np.linalg.eigh(A)
    count = quasi_mode_count(A, w[3], 1e-6, [V[:, 3]])
    assert count >= 1


def test_quasi_mode_negative_control():
    rng = random.Random(21)
    A = sym(rng, 10)
    v = np.zeros(10)
    v[0] = 1.0
    residual = np.linalg.norm(A @ v - 0.123 * v)
    with pytest.raises(QuasiModeError):
        quasi_mode_count(A, 0.123, residual / 2, [v])


def test_quasi_mode_requires_orthonormal():
    A = np.eye(4)
    with pytest.raises(QuasiModeError):
        quasi_mode_count(A, 1.0, 0.5, [np.ones(4), np.ones(4)])


def test_quasi_mode_translated_pairs(z1):
    # example blocks: j copies of the pair eigenvector at lambda = 1
    C = HalfLineMod3(z1)
    rule = percolation_rule(z1, C.alphabet, [BLACK])
    j = 4
    V = interval_folner(z1, j, side="negative")
    M = restrict_operator(rule, C, V)
    A = M.to_dense()
    order = tuple(M.Q)
    vecs = []
    for k in range(j):
        u = np.zeros(A.shape[0])
        a = order.index((-3 * k - 2,))
        b = order.index((-3 * k - 1,))
        u[a] = u[b] = 1 / np.sqrt(2)
        vecs.append(u)
    assert quasi_mode_count(A, 1.0, 1e-8, vecs) >= j


def test_permutation_invariance_of_spectrum():
    rng = random.Random(25)
    A = sym(rng, 18)
    ev = eigenvalues(A)
    perm = list(range(18))
    rng.shuffle(perm)
    P = np.eye(18)[perm]
    ev_p = eigenvalues(P @ A @ P.T)
    assert float(np.abs(ev - ev_p).max()) <= default_tau(A)


def test_nonsymmetric_rejected():
    with pytest.raises(SpectraError):
        eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_numerical_rank():
    v = np.arange(1.0, 6.0)
    assert numerical_rank(np.outer(v, v), 1e-9) == 1
    assert numerical_rank(np.zeros((4, 4)), 1e-9) == 0


# -- the component split against one dense solve ---------------------------------


def assert_matches_dense(M, A):
    """eigenvalues(M) agrees with eigvalsh of the dense A within tau, with an
    equal counting function."""
    ev, tau = eigenvalues(M), default_tau(M)
    ref = np.linalg.eigvalsh(A) if A.size else np.empty(0)
    assert ev.shape == ref.shape
    assert float(np.abs(ev - ref).max(initial=0.0)) <= tau
    ours = counting_from_values(ev, tau)
    oracle = counting_from_values(ref, tau)
    assert np.array_equal(ours.values, oracle.values)
    assert np.allclose(ours.breakpoints, oracle.breakpoints, rtol=0.0, atol=tau)


def permuted_block_diagonal(rng, sizes, copies):
    """Block-diagonal matrix of random symmetric blocks, each repeated
    ``copies`` times, under a random permutation of the rows."""
    blocks = []
    for m in sizes:
        B = rng.uniform(-1.0, 1.0, (m, m))
        blocks += [B + B.T] * copies
    A = scipy.sparse.block_diag(blocks).toarray()
    perm = rng.permutation(A.shape[0])
    return A[np.ix_(perm, perm)]


def test_split_permuted_block_diagonal():
    rng = np.random.default_rng(40)
    for sizes, copies in (([1, 2, 3, 3, 5], 3), ([4, 4, 7], 2), ([1], 6)):
        A = permuted_block_diagonal(rng, sizes, copies)
        # isolated zero rows between the blocks
        zeros = rng.choice(A.shape[0] + 5, size=5, replace=False)
        keep = np.setdiff1d(np.arange(A.shape[0] + 5), zeros)
        Z = np.zeros((A.shape[0] + 5,) * 2)
        Z[np.ix_(keep, keep)] = A
        assert_matches_dense(Z, Z)


def test_split_connected_single_block():
    rng = np.random.default_rng(41)
    B = rng.uniform(-1.0, 1.0, (40, 40))
    A = B + B.T
    assert_matches_dense(A, A)
    path = np.diag(np.ones(29), 1)
    assert_matches_dense(path + path.T, path + path.T)


def test_split_periodic_fold_restriction(monkeypatch, z1):
    # period-2 chain: weights 1 inside a cell and 2 or 0 between cells
    for between in (2.0, 0.0):
        rule = chain_rule(z1, between)
        Q = FiniteSet(z1, [(i,) for i in (0, 1, 2, 3, 5, 6, 9)])
        M = restrict_operator(rule, TrivialColouring(z1), Q)
        assert rule.k == 2
        assert_chiral_matches_dense(monkeypatch, M, M.to_dense())  # paths are chiral


def test_component_spectrum_names_each_value_and_row(z2):
    rng = np.random.default_rng(43)
    A = permuted_block_diagonal(rng, [1, 2, 3, 5], 2)
    B = random_bipartite(rng, 4, 7)
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=9)
    M = restrict_operator(percolation_rule(z2, C.alphabet, ["open"]), C, folner_set(z2, 9).tile)
    for matrix, dense in ((A, A), (scipy.sparse.block_diag([A, B]).toarray(),) * 2, (M, M.to_dense())):
        spec = component_spectrum(matrix)
        assert np.array_equal(np.sort(spec.values), eigenvalues(matrix))
        _, comp = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_matrix(dense), directed=False)
        for c in np.unique(comp):
            rows = np.flatnonzero(comp == c)
            assert (spec.label[rows] == rows[0]).all()  # a component is named by its smallest row
            mine = np.sort(spec.values[spec.owner == rows[0]])
            assert np.allclose(mine, np.linalg.eigvalsh(dense[np.ix_(rows, rows)]), rtol=0.0, atol=1e-12)


def test_empty_rows_are_exact_zeros_beside_the_solved_rows(z2):
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=7)
    Q = folner_set(z2, 12).tile
    M = restrict_operator(percolation_rule(z2, C.alphabet, ["open"]), C, Q)
    dense = M.to_dense()
    filled = dense.any(axis=1)
    empty, kept = np.flatnonzero(~filled), np.flatnonzero(filled)
    assert 0 < len(empty) < M.dim
    spec = component_spectrum(M)
    # each empty row is its own component and owns one exact +0.0
    assert np.array_equal(spec.label[empty], empty)
    zeros = spec.values[np.isin(spec.owner, empty)]
    assert len(zeros) == len(empty) and (zeros == 0.0).all() and not np.signbit(zeros).any()
    # the other rows give the spectrum of the matrix without the empty rows
    rest = component_spectrum(dense[np.ix_(kept, kept)])
    assert np.array_equal(np.sort(spec.values), np.sort(np.r_[rest.values, np.zeros(len(empty))]))
    # principal restrictions: the reused components and the solved cut rows
    for W in (shrink(Q, 1), FiniteSet(z2, list(Q)[::3])):
        P = principal_restriction(M, W)
        values = spec.principal(P, np.searchsorted(Q.packed, W.packed))
        assert np.array_equal(np.sort(values), eigenvalues(P))


def test_split_empty_matrix():
    A = np.zeros((0, 0))
    ev, tau = eigenvalues(A), default_tau(A)
    assert len(ev) == 0 and tau > 0
    assert counting_from_values(ev, tau).terminal_value == 0.0


def test_split_rejects_nonsymmetric():
    A = np.zeros((5, 5))
    A[0, 1] = 1.0
    A[3, 4] = A[4, 3] = 2.0
    with pytest.raises(SpectraError):
        eigenvalues(A)
    with pytest.raises(SpectraError):
        eigenvalues(np.zeros((2, 3)))


# -- the chiral branch: bipartite, zero-diagonal components from sigma(B) ----------


def solver_calls(monkeypatch, M):
    """The LAPACK drivers (``svd``, ``eigvalsh``) that eigenvalues(M) calls, in order."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("svd", "eigvalsh"):

            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            m.setattr(np.linalg, name, counted)
        eigenvalues(M)
    return calls


def assert_chiral_matches_dense(monkeypatch, M, A):
    """M takes the chiral branch only and agrees with one dense eigvalsh of A:
    equal lengths, max |difference| <= tau, equal clustered multiplicities."""
    assert set(solver_calls(monkeypatch, M)) == {"svd"}
    assert_matches_dense(M, A)
    ev, tau = eigenvalues(M), default_tau(M)
    ref = np.linalg.eigvalsh(A) if A.size else np.empty(0)
    assert np.array_equal(cluster_values(ev, tau)[1], cluster_values(ref, tau)[1])


def random_bipartite(rng, p, q, density=0.3):
    """[[0, B], [B^T, 0]] for a random signed p x q block B, rows permuted."""
    B = rng.normal(size=(p, q)) * (rng.uniform(size=(p, q)) < density)
    A = np.block([[np.zeros((p, p)), B], [B.T, np.zeros((q, q))]])
    perm = rng.permutation(p + q)
    return A[np.ix_(perm, perm)]


def test_chiral_h3_adjacency_and_z2_percolation(monkeypatch, h3, z2):
    rule = adjacency_rule(h3)
    for j in (2, 3, 4):
        M = restrict_operator(rule, TrivialColouring(h3), folner_set(h3, j).tile)
        assert_chiral_matches_dense(monkeypatch, M, M.to_dense())
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=5)
    rule = percolation_rule(z2, C.alphabet, ["open"])
    for j in (8, 20):
        M = restrict_operator(rule, C, folner_set(z2, j).tile)
        assert_chiral_matches_dense(monkeypatch, M, M.to_dense())


def test_chiral_random_signed_weights_and_unequal_sides(monkeypatch):
    rng = np.random.default_rng(42)
    for p, q in ((5, 5), (7, 3), (2, 11), (30, 24)):
        A = random_bipartite(rng, p, q)
        assert_chiral_matches_dense(monkeypatch, A, A)
    # a star K_{1,5}: +-sqrt(5) and four zeros
    star = np.zeros((6, 6))
    star[0, 1:] = star[1:, 0] = 1.0
    assert_chiral_matches_dense(monkeypatch, star, star)
    reps, counts = cluster_values(eigenvalues(star), 1e-9)
    assert np.allclose(reps, [-np.sqrt(5.0), 0.0, np.sqrt(5.0)], atol=1e-12)
    assert counts.tolist() == [1, 4, 1]


def test_chiral_isolated_vertices_call_no_solver(monkeypatch):
    assert solver_calls(monkeypatch, np.zeros((7, 7))) == []
    assert np.array_equal(eigenvalues(np.zeros((7, 7))), np.zeros(7))
    # isolated vertices beside a path and a star
    A = np.zeros((12, 12))
    A[2, 3] = A[3, 2] = A[3, 4] = A[4, 3] = 1.5
    A[7, 8:11] = A[8:11, 7] = -1.0
    assert_chiral_matches_dense(monkeypatch, A, A)


def test_non_chiral_components_take_eigvalsh(monkeypatch, z2):
    triangle = np.ones((3, 3)) - np.eye(3)  # an odd cycle
    diagonal = np.diag([0.0, 0.5])
    diagonal[0, 1] = diagonal[1, 0] = 1.0  # a bipartite edge with a nonzero diagonal entry
    C = PercolationColouring(z2, Alphabet(("open", "closed")), seed=5)
    lap = laplacian_rule(percolation_rule(z2, C.alphabet, ["open"]))
    L = restrict_operator(lap, C, folner_set(z2, 6).tile)
    for M, A in ((triangle, triangle), (diagonal, diagonal), (L, L.to_dense())):
        assert "svd" not in solver_calls(monkeypatch, M)
        assert_matches_dense(M, A)
    # one matrix with both kinds: a triangle, a star, a weighted edge with a
    # diagonal entry and an isolated vertex
    rng = np.random.default_rng(43)
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 2.0
    A = scipy.sparse.block_diag([triangle, star, diagonal, np.zeros((1, 1)), triangle]).toarray()
    perm = rng.permutation(len(A))
    A = A[np.ix_(perm, perm)]
    calls = solver_calls(monkeypatch, A)
    assert sorted(set(calls)) == ["eigvalsh", "svd"]
    assert_matches_dense(A, A)
