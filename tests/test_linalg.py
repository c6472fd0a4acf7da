"""Scalar elimination: the fraction-free ``_reduce`` against Gaussian elimination."""

import random
from fractions import Fraction

import pytest

from polarcalc import linalg, polyring
from polarcalc.polyring import QQ, PrimeField


def gaussian_reduce(field, m):
    """Gaussian elimination with a division per pivot: the reference."""
    work = [[field.coerce(x) for x in row] for row in m]
    rows = len(work)
    pivots, det = [], field.one
    for col in range(len(work[0]) if work else 0):
        rk = len(pivots)
        if rk == rows:
            break
        pivot = next((r for r in range(rk, rows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rk:
            work[rk], work[pivot] = work[pivot], work[rk]
            det = -det
        det = det * work[rk][col]
        inv = field.div(field.one, work[rk][col])
        for r in range(rk + 1, rows):
            if work[r][col]:
                f = work[r][col] * inv
                work[r] = [field.coerce(a - f * b) for a, b in zip(work[r], work[rk])]
        pivots.append(col)
    return pivots, field.coerce(det)


def seeded_matrix(rng, field):
    """Sizes 1-7, square or not, with zeros that stall pivots, Fraction
    entries over Q, and now and then a row that repeats a multiple of another."""
    rows = rng.randint(1, 7)
    cols = rows if rng.random() < 0.5 else rng.randint(1, 7)

    def entry():
        k = rng.random()
        if k < 0.35:
            return 0
        if k < 0.6 and field is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-20, 20)

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        k = rng.choice([-3, -1, 2, Fraction(1, 2)]) if field is QQ else rng.randint(-3, 3)
        m[i] = [k * x for x in m[j]]
    return m


@pytest.mark.parametrize("field", [QQ, PrimeField(1048583), PrimeField(7)], ids=repr)
def test_reduce_matches_gaussian_elimination(field):
    rng = random.Random(20240913)
    for _ in range(1500):
        m = seeded_matrix(rng, field)
        expected = gaussian_reduce(field, m)
        got = linalg._reduce(field, m)
        assert got == expected, m
        assert type(got[1]) is type(expected[1]), m
        square = len(m) == len(m[0])
        assert linalg.rank(field, m) == len(expected[0])
        if square:
            full = len(expected[0]) == len(m)
            assert linalg.scalar_determinant(field, m) == (expected[1] if full else 0)


@pytest.mark.parametrize(
    "m, pivots, det",
    [
        ([], [], 1),
        ([[0, 0], [0, 0]], [], 1),
        ([[0, 1], [1, 0]], [0, 1], -1),
        ([[0, 0, 2], [0, 3, 1]], [1, 2], -6),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], [0, 1],
         Fraction(1, 60)),
    ],
)
def test_small_cases(m, pivots, det):
    assert linalg._reduce(QQ, m) == (pivots, det)


def test_one_inverse_per_pivot_over_a_prime_field(monkeypatch):
    """Each elimination step inverts the previous pivot once; the determinant
    is divided once by the scales.  Nothing else is inverted."""
    field = PrimeField(1048583)
    inversions = []

    def counting_pow(base, e, mod=None):
        if e == -1:
            inversions.append(base)
        return pow(base, e, mod)

    monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
    monkeypatch.setattr(polyring, "pow", counting_pow, raising=False)
    rng = random.Random(11)
    for _ in range(300):
        m = seeded_matrix(rng, field)
        inversions.clear()
        pivots, det = linalg._reduce(field, m)
        assert len(inversions) <= len(pivots) + 1, m
        assert (pivots, det) == gaussian_reduce(field, m)
