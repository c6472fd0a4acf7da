"""Numeric counts are ints, and the numeric and symbolic routes agree.

The tables and Pluecker solves take either integers or polynomials in an
indeterminate degree.  At an integer they count in ``int``: each quotient
goes through ``plucker._div``, which builds a ``Fraction`` only for a
quotient that is not integral.  Here the symbolic tables, evaluated at n,
must equal the numeric tables field by field, and the numeric route must
build no ``Fraction`` at all.
"""

import dataclasses
import fractions
import random
import sys
from fractions import Fraction

import pytest

from polarcalc.invariants import (
    branch_curve_characters,
    dual_surface_table,
    projected_surface_table,
    symbolic_degree,
)
from polarcalc.plucker import _div, complete_developable
from polarcalc.polyring import QQ, Poly, PolyRing
from polarcalc.reporting import all_ok

LARGE = [random.Random(seed).randrange(10 ** 59, 10 ** 60) for seed in range(3)]
DEGREES = list(range(3, 61)) + LARGE


def _smooth(n):
    """(n, pi, p_a, K^2) of a smooth degree-n surface in P^3."""
    return n, _div((n - 1) * (n - 2), 2), _div((n - 1) * (n - 2) * (n - 3), 6), n * (n - 4) ** 2


def _veronese(d):
    """(n, pi, p_a, K^2) of the plane embedded by its degree-d curves."""
    return d * d, _div((d - 1) * (d - 2), 2), 0, 9


def _fields(record, n):
    """(name, symbolic value at n or numeric value) for every entry of a
    record, its nested records and its check residuals."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if dataclasses.is_dataclass(value):
            for name, inner in _fields(value, n):
                yield f"{field.name}.{name}", inner
        elif field.name == "checks":
            for check in value:
                yield f"check {check.name}", check.lhs
        elif field.name != "warnings":
            yield field.name, value.evaluate((n,)) if isinstance(value, Poly) else value


SYMBOLIC = {
    "dual surface": dual_surface_table(symbolic_degree()),
    "branch curve": branch_curve_characters(symbolic_degree()),
    "smooth projected": projected_surface_table(*_smooth(symbolic_degree())),
    "Veronese projected": projected_surface_table(*_veronese(symbolic_degree())),
}
NUMERIC = {
    "dual surface": dual_surface_table,
    "branch curve": branch_curve_characters,
    "smooth projected": lambda n: projected_surface_table(*_smooth(n)),
    "Veronese projected": lambda n: projected_surface_table(*_veronese(n)),
}


@pytest.mark.parametrize("table", sorted(SYMBOLIC))
def test_symbolic_table_at_n_is_the_numeric_table(table):
    for n in DEGREES:
        numeric = NUMERIC[table](n)
        expected = list(_fields(SYMBOLIC[table], n))
        got = list(_fields(numeric, n))
        assert [name for name, _ in got] == [name for name, _ in expected]
        for (name, value), (_, want) in zip(got, expected):
            assert type(value) is int, (table, n, name, value)
            assert value == want, (table, n, name)
        if hasattr(numeric, "checks"):
            assert all_ok(numeric.checks)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (12, 4, 3),
        (-12, 4, -3),
        (0, 7, 0),
        (10 ** 60 * 6, 6, 10 ** 60),
        (7, 2, Fraction(7, 2)),
        (-1, 3, Fraction(-1, 3)),
        (Fraction(9, 2), Fraction(3, 2), 3),
        (Fraction(1, 2), 3, Fraction(1, 6)),
    ],
)
def test_div_is_int_when_integral(a, b, expected):
    q = _div(a, b)
    assert q == expected
    assert type(q) is (Fraction if isinstance(expected, Fraction) else int)


def test_div_of_a_polynomial_is_a_polynomial():
    ring = PolyRing(("n",), QQ)
    n = ring.var("n")
    q = _div(n * (n - 1), 2)
    assert isinstance(q, Poly)
    assert q == n * (n - 1) / 2
    assert not any(isinstance(c, float) for c in q.terms.values())


def _fractions_built(call):
    """Calls to ``Fraction.__new__`` while ``call()`` runs."""
    count = 0
    code = fractions.Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def test_the_counter_sees_a_fraction():
    assert _fractions_built(lambda: QQ.div(1, 2)) >= 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: dual_surface_table(7),
        lambda: dual_surface_table(10 ** 60 + 1),
        lambda: projected_surface_table(5, 6, 4, 5),
        lambda: complete_developable(m=5, genus=1, alpha=20, beta=0),
    ],
    ids=["dual surface n=7", "dual surface n=10^60+1", "smooth quintic projected",
         "space-curve developable"],
)
def test_numeric_route_builds_no_fraction(call):
    assert _fractions_built(call) == 0
