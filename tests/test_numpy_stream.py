"""Canaries for the numpy ``Generator`` methods that ``dfq`` draws with.

numpy promises no stable stream across releases, and every frozen file
under ``data/`` rests on six methods at the shapes ``dfq`` calls them
with. Each test pins one method's output for a fixed seed, and the next
double, so that a release that changes one method fails the test named
after it, besides the frozen outputs it moves (the README lists them).
The values were written with numpy 2.4.6."""

import hashlib

import numpy as np
import pytest

SEED = 20241020


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes())
    return h.hexdigest()[:16]


def test_random():
    # a draw block, the coins and uniforms, the angles: one 1-D call each
    rng = np.random.default_rng(SEED)
    doubles = rng.random(80)
    assert doubles[:2].tolist() == [0.05973756917010753, 0.04160124184949732]
    assert digest(doubles, rng.random()) == "bc51f4ed628e6d57"


@pytest.mark.parametrize("count, expected", [
    (8, "aac5f4162fb95bfc"),  # the key and each secret at l = 8
    (15, "666f14bf7f07fa71"),  # an odd count leaves a 32-bit half-word buffered
    (80, "2bb77bc658d6f80f"),  # TP's values at l = 8, delta = 1
])
def test_integers(count, expected):
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2, count)
    assert bits.dtype == np.int64
    assert digest(bits, rng.random()) == expected


def test_shuffle():
    # step 1 shuffles TP's 64 Z and 16 X value indices in place
    rng = np.random.default_rng(SEED)
    values = np.arange(80)
    values[64:] += 2
    rng.shuffle(values)
    assert digest(values, rng.random()) == "ff40a809faebb84c"


def test_permutation():
    # step 2's outgoing permutation of one session's 80 pairs
    rng = np.random.default_rng(SEED)
    assert digest(rng.permutation(80), rng.random()) == "459f88dc75121938"


@pytest.mark.parametrize("count, size, expected", [
    (40, 8, [3, 1, 30, 32, 26, 2, 37, 7]),  # step 4 in the dephasing protocol, step 5
    (40, 20, [22, 13, 7, 33, 28, 4, 29, 2, 8, 18, 0, 1, 9, 37, 25, 39, 19, 36, 34, 23]),  # rotation step 4
    (9, 8, [8, 4, 1, 7, 5, 0, 6, 3]),  # step 5 with one usable pair to spare
])
def test_choice_without_replacement(count, size, expected):
    rng = np.random.default_rng(SEED)
    assert rng.choice(count, size=size, replace=False).tolist() == expected


@pytest.mark.parametrize("probs, expected, next_double", [
    ([0.1, 0.2, 0.3, 0.4], [1003, 1949, 3075, 3973], "0x1.8650b3838dfbep-1"),
    # the dephasing figures' distributions have zero outcomes
    ([0.0, 0.5, 0.5, 0.0], [0, 5004, 4996, 0], "0x1.47bad49d75768p-4"),
])
def test_multinomial(probs, expected, next_double):
    # repro-figures draws one multinomial over the four outcomes per figure
    rng = np.random.default_rng(SEED)
    assert rng.multinomial(10**4, probs).tolist() == expected
    assert rng.random().hex() == next_double
