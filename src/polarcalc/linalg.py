"""Tiny exact linear algebra over the coefficient fields.

Everything works on lists of lists of field scalars (int, Fraction or
Mod) and is only ever used on matrices of size at most 7, so plain
Gaussian elimination with exact division (``field.div``) is all we need.
"""

from __future__ import annotations

from .polyring import DomainError


def identity(field, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(field, a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(m)]
        for i in range(n)
    ]


def _reduce(field, m):
    """Gaussian elimination of a copy of m to row echelon form.

    Returns the rows, the pivot columns, and the product of the pivots
    signed by the row swaps (the determinant of a square m of full rank).
    """
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
                work[r] = [a - f * b for a, b in zip(work[r], work[rk])]
        pivots.append(col)
    return work, pivots, det


def mat_inverse(field, m):
    n = len(m)
    augmented = [list(row) + unit for row, unit in zip(m, identity(field, n))]
    work, pivots, _ = _reduce(field, augmented)
    if pivots[:n] != list(range(n)):
        raise DomainError("singular matrix")
    for col in reversed(range(n)):
        inv = field.div(field.one, work[col][col])
        work[col] = [x * inv for x in work[col]]
        for r in range(col):
            if work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def rank(field, m):
    return len(_reduce(field, m)[1])


def scalar_determinant(field, m):
    _, pivots, det = _reduce(field, m)
    return det if len(pivots) == len(m) else field.zero
