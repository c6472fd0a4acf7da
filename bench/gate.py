"""The output-correctness gate applied to every benchmark job.

A job passes when it exits with code 0, prints a JSON document
with no check of status ``fail``, and, on ``poly hessian``, prints a
Hessian that agrees with an independent route at seeded rational points:
the printed polynomial is evaluated there and compared with a Fraction
elimination determinant of the second partials of the bench-owned surface,
evaluated at the same point.  Neither route borrows code from polarcalc.
The printed output is also reduced to a digest that the runner compares
with stored references and across repeats of the same job.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

DIGEST_CHARS = 8


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:DIGEST_CHARS]


def eval_printed(text: str, point: Sequence[Fraction], variables=("x", "y", "z", "w")) -> Fraction:
    """Value of a canonically printed polynomial (``3/2*x^2*y - z + 4``) at a point."""
    values = dict(zip(variables, point))
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        value = Fraction(-1 if term.startswith("-") else 1)
        for factor in term.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in values:
                value *= values[name] ** int(power or 1)
            else:
                value *= Fraction(factor)
        total += value
    return total


def second_partials_at(surface: Dict[Tuple[int, ...], int], point: Sequence[Fraction]):
    n = len(point)
    H = [[Fraction(0)] * n for _ in range(n)]
    for e, c in surface.items():
        for i in range(n):
            for j in range(i, n):
                ee = list(e)
                factor = ee[i]
                ee[i] -= 1
                factor *= ee[j]
                ee[j] -= 1
                if not factor:
                    continue
                value = Fraction(c * factor)
                for x, k in zip(point, ee):
                    value *= x ** k
                H[i][j] += value
    for i in range(n):
        for j in range(i):
            H[i][j] = H[j][i]
    return H


def fraction_determinant(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    work = [list(map(Fraction, row)) for row in matrix]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            if f:
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def check_output(code: Optional[int], out: str) -> Optional[str]:
    """None when a command exited 0 with a JSON document and no failed check, else why not."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not a JSON document"
    failed = [c["name"] for c in doc.get("checks", []) if c["status"] == "fail"]
    return f"failed checks: {failed}" if failed else None


def check_job(job, code: Optional[int], out: str) -> Optional[str]:
    """None when the job's output passes the gate, else the reason it fails."""
    reason = check_output(code, out)
    if reason is not None or job.surface is None:
        return reason
    printed = json.loads(out)["results"]["hessian"]
    for point in job.check_points:
        want = fraction_determinant(second_partials_at(job.surface, point))
        if eval_printed(printed, point) != want:
            return f"printed Hessian disagrees with the elimination determinant at {point}"
    return None
