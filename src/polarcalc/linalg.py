"""Tiny exact linear algebra over the coefficient fields.

Everything works on lists of lists of field scalars (int or Fraction over
Q, int over GF(p)) and is only ever used on matrices of size at most 7, so
plain Gaussian elimination with exact division (``field.div``) is all we
need.  Each updated entry and the returned determinant go through
``field.coerce``, which reduces them over GF(p).
"""

from __future__ import annotations


def _reduce(field, m):
    """Gaussian elimination of a copy of m to row echelon form.

    Returns the pivot columns and the product of the pivots signed by the
    row swaps (the determinant of a square m of full rank).
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
                work[r] = [field.coerce(a - f * b) for a, b in zip(work[r], work[rk])]
        pivots.append(col)
    return pivots, field.coerce(det)


def rank(field, m):
    return len(_reduce(field, m)[0])


def scalar_determinant(field, m):
    pivots, det = _reduce(field, m)
    return det if len(pivots) == len(m) else field.zero
