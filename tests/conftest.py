import random

import numpy as np
import pytest

from idsapprox.cayley import FiniteSet, FreeAbelian, Heisenberg3
from idsapprox.operators import LocalRule


@pytest.fixture
def z1():
    return FreeAbelian(1)


@pytest.fixture
def z2():
    return FreeAbelian(2)


@pytest.fixture
def h3():
    return Heisenberg3()


def random_subset(model, rng: random.Random, radius=3, size=8) -> FiniteSet:
    pool = list(model.ball(radius))
    return FiniteSet(model, rng.sample(pool, min(size, len(pool))))


def interval(model, lo, hi) -> FiniteSet:
    return FiniteSet(model, [(i,) for i in range(lo, hi + 1)])


def chain_rule(model, between):
    """k = 2 rule of the period-2 chain on Z^1: cell g holds the sites 2g and
    2g + 1, joined with weight 1, and 2g + 1 is joined to 2g + 2 with weight
    ``between``.  The blocks at the offsets +-1 are not symmetric."""
    hop = np.array([[0.0, 0.0], [between, 0.0]])
    blocks = {(0,): np.array([[0.0, 1.0], [1.0, 0.0]]), (1,): hop, (-1,): hop.T}
    return LocalRule(model, 2, 1, 0, lambda patterns, w: blocks[w], name="chain")
