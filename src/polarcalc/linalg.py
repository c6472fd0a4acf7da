"""Tiny exact linear algebra over the coefficient fields.

Everything works on lists of lists of field scalars (int or Fraction over
Q, int over GF(p)) and is only ever used on matrices of size at most 7.
The one elimination is fraction-free: each row is first scaled to integers
by the lcm of its denominators (every scale is 1 over GF(p)), then Bareiss
elimination divides each updated entry exactly by the previous pivot, with
``//`` over Q, so no ``Fraction`` is built until the determinant is
divided once by the product of the scales through ``field.div``.  Over
GF(p) each step inverts the previous pivot once and each entry is
multiplied by that inverse and reduced.
"""

from __future__ import annotations

import math


def _reduce(field, m):
    """Bareiss elimination of a copy of m, with its rows scaled to integers.

    Returns the pivot columns and the determinant of the pivot rows and
    columns of m, signed by the row swaps (the determinant of a square m of
    full rank): the last pivot over the scales of the pivot rows.
    """
    work, scales = [], []
    for row in m:
        row = [field.coerce(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    rows, modulus = len(work), field.p
    pivots, det, previous = [], field.one, 1
    for col in range(len(work[0]) if work else 0):
        rk = len(pivots)
        if rk == rows:
            break
        pivot = next((r for r in range(rk, rows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rk:
            work[rk], work[pivot] = work[pivot], work[rk]
            scales[rk], scales[pivot] = scales[pivot], scales[rk]
            det = -det
        top = work[rk]
        p, right = top[col], top[col + 1:]
        inverse = None if modulus is None else pow(previous, -1, modulus)
        for r in range(rk + 1, rows):
            # Every row below is updated, also one with a zero in this
            # column, so that each division by the previous pivot stays
            # exact.  Columns up to this one are not read again.
            row = work[r]
            a, pairs = row[col], zip(row[col + 1:], right)
            if inverse is None:
                row[col + 1:] = [(p * x - a * y) // previous for x, y in pairs]
            else:
                row[col + 1:] = [(p * x - a * y) * inverse % modulus for x, y in pairs]
        previous = p
        pivots.append(col)
    if pivots:
        det = det * previous
    return pivots, field.div(det, math.prod(scales[: len(pivots)]))


def rank(field, m):
    return len(_reduce(field, m)[0])


def scalar_determinant(field, m):
    pivots, det = _reduce(field, m)
    return det if len(pivots) == len(m) else field.zero
