"""Exact audit of what the classical steps 5-6 tell each party.

For n in {2, 3} and l in {1, 2}, every secret tuple meets every shared key
and every row of recorded bits through ``encode_announcement`` and
``tp_compare``. In an honest run each recorded bit is the bit TP prepared
(its m row), and the key and TP's prepared Z values are uniform, so every
(key, m rows) pair has weight 2**-(l + n*l). Probabilities are exact
``Fraction``s.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cache

import pytest

from dfq.protocol import Secret, SharedKey, encode_announcement, tp_compare

SHAPES = [(n, l) for n in (2, 3) for l in (1, 2)]


def bit_rows(count: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every tuple of ``count`` rows of ``l`` bits."""
    return list(itertools.product(itertools.product((0, 1), repeat=l), repeat=count))


@cache
def runs(n: int, l: int, secrets: tuple) -> list[tuple]:
    """(key, m rows, r rows, comparison) for every key and m rows of one secret tuple."""
    out = []
    for (key,) in bit_rows(1, l):
        for m_rows in bit_rows(n, l):
            r_rows = tuple(tuple(encode_announcement(Secret(s), SharedKey(key), list(m)))
                           for s, m in zip(secrets, m_rows))
            out.append((key, m_rows, r_rows, tp_compare(list(r_rows), list(m_rows))))
    return out


def distribution(n: int, l: int, secrets: tuple, view) -> dict:
    """Exact distribution of ``view(key, m_rows, r_rows, comparison)``."""
    weight = Fraction(1, 2 ** (l + n * l))
    dist: dict = defaultdict(Fraction)
    for run in runs(n, l, secrets):
        dist[view(*run)] += weight
    return dict(dist)


def adjacent_xors(rows) -> tuple:
    return tuple(tuple(a ^ b for a, b in zip(s, t)) for s, t in zip(rows, rows[1:]))


def tp_view(key, m_rows, r_rows, comparison):
    return r_rows, m_rows, comparison.u, comparison.c


@pytest.mark.parametrize("n, l", SHAPES)
def test_tp_view_depends_on_the_secrets_only_through_adjacent_xors(n, l):
    by_xors = defaultdict(list)
    for secrets in bit_rows(n, l):
        by_xors[adjacent_xors(secrets)].append(distribution(n, l, secrets, tp_view))
    assert len(by_xors) == 2 ** ((n - 1) * l)
    for xors, dists in by_xors.items():
        assert sum(dists[0].values()) == 1
        assert all(dist == dists[0] for dist in dists)
        # and every view shows them: u_i XOR u_{i+1} is s_i XOR s_{i+1}
        assert all(adjacent_xors(u) == xors for _, _, u, _ in dists[0])


@pytest.mark.parametrize("n, l", SHAPES)
def test_announced_rows_alone_are_uniform(n, l):
    uniform = {r_rows: Fraction(1, 2 ** (n * l)) for r_rows in bit_rows(n, l)}
    for secrets in bit_rows(n, l):
        assert distribution(n, l, secrets, lambda key, m_rows, r_rows, _: r_rows) == uniform


@pytest.mark.parametrize("n, l", SHAPES)
def test_key_holder_learns_nothing_about_another_secret_from_the_announcements(n, l):
    """Participant j holds K, its own recorded bits and sees every r row; what
    it sees is the same whatever the other participants' secrets are."""
    for j in range(n):
        def view(key, m_rows, r_rows, _):
            return key, m_rows[j], r_rows

        by_own = defaultdict(list)
        for secrets in bit_rows(n, l):
            by_own[secrets[j]].append(distribution(n, l, secrets, view))
        for dists in by_own.values():
            assert all(dist == dists[0] for dist in dists)


@pytest.mark.parametrize("n, l", SHAPES)
def test_tp_colluding_with_a_key_holder_recovers_every_secret(n, l):
    def recovered(key, m_rows, r_rows, comparison):
        return tuple(tuple(u ^ k for u, k in zip(row, key)) for row in comparison.u)

    for secrets in bit_rows(n, l):
        assert distribution(n, l, secrets, recovered) == {secrets: 1}
