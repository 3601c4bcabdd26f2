import numpy as np
import pytest

from macresolve.probcore import Alphabet, Dist, MacChannel


def adder_mac() -> MacChannel:
    """Z = X + Y over {0,1,2}; the canonical case-1 channel."""
    t = np.zeros((2, 2, 3))
    for x in range(2):
        for y in range(2):
            t[x, y, x + y] = 1.0
    return MacChannel((Alphabet(2), Alphabet(2)), Alphabet(3), t)


def adder_mac3() -> MacChannel:
    """Z = X1 + X2 + X3 over {0..3}."""
    t = np.zeros((2, 2, 2, 4))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                t[a, b, c, a + b + c] = 1.0
    return MacChannel((Alphabet(2),) * 3, Alphabet(4), t)


def xor_mac() -> MacChannel:
    t = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            t[x, y, x ^ y] = 1.0
    return MacChannel((Alphabet(2), Alphabet(2)), Alphabet(2), t)


def parallel_mac() -> MacChannel:
    """Z = (Z1, Z2) with Z1 = X, Z2 = Y: independent branches, case 2."""
    t = np.zeros((2, 2, 4))
    for x in range(2):
        for y in range(2):
            t[x, y, 2 * x + y] = 1.0
    return MacChannel((Alphabet(2), Alphabet(2)), Alphabet(4), t)


def random_mac(rng: np.random.Generator, n_users: int = 2,
               z_size: int | None = None) -> MacChannel:
    """Random DMC with binary inputs and a dense transition table."""
    if z_size is None:
        z_size = int(rng.integers(2, 5))
    shape = (2,) * n_users + (z_size,)
    t = rng.random(shape) ** 2 + 1e-3
    t /= t.sum(axis=-1, keepdims=True)
    return MacChannel((Alphabet(2),) * n_users, Alphabet(z_size), t)


def random_input(rng: np.random.Generator) -> Dist:
    p = float(rng.uniform(0.05, 0.95))
    return Dist.bernoulli(p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

