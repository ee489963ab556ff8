import random

import pytest

from idsapprox.cayley import FiniteSet, FreeAbelian, Heisenberg3


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
