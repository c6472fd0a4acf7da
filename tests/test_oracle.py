"""Differential tests of the Poly kernel against sympy on seeded random inputs.

sympy is a test-only oracle: the runtime stays standard-library only, and
these tests are skipped when it is not installed.  Each Poly is handed to
sympy through its printed form, evaluated in sympy's sparse polynomial
ring, so every comparison also checks printing.
"""

import random
import re
from fractions import Fraction

import pytest

from polarcalc.curvature import hessian_determinant
from polarcalc.polyring import PolyRing, PrimeField, determinant, exact_div, resultant

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

NAMES = ("x", "y", "z", "w")
R = PolyRing(NAMES)
P = 1048583
QQ_ORACLE = ring(",".join(NAMES), sympy.QQ)[0]
GF_ORACLE = ring(",".join(NAMES), sympy.GF(P))[0]


def to_oracle(f, oracle=QQ_ORACLE):
    """The printed form of f, evaluated in a sympy ring over the same field."""
    # Integer literals become field elements, so 1/2 stays exact; exponents stay ints.
    text = re.sub(r"(?<![\^\d])(\d+)", r"c(\1)", str(f)).replace("^", "**")
    scope = dict(zip(NAMES, oracle.gens), c=oracle.domain)
    return oracle(eval(text, {"__builtins__": {}}, scope))


def oracle_det(rows):
    return DomainMatrix(rows, (len(rows), len(rows)), QQ_ORACLE.to_domain()).det()


def random_terms(rng, nterms, max_exp=3, nvars=4):
    """(coefficient, exponents) pairs with small rational coefficients."""
    return [
        (Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 7])),
         [rng.randint(0, max_exp) for _ in range(nvars)])
        for _ in range(nterms)
    ]


def random_poly(rng, nterms, max_exp=3, ring=R, used=4):
    """A sum of nterms random terms in the first ``used`` variables."""
    f = ring.zero()
    for c, exps in random_terms(rng, nterms, max_exp, used):
        f = f + ring.monomial(exps + [0] * (len(ring.variables) - used), c)
    return f


def grammar_text(rng, terms):
    """The terms written in the parser's grammar, with factors split and shuffled."""
    pieces = []
    for c, exps in terms:
        factors = []
        for name, e in zip(NAMES, exps):
            while e:
                k = rng.randint(1, e)
                factors.append(name if k == 1 else f"{name}^{k}")
                e -= k
        rng.shuffle(factors)
        a = abs(c)
        coeff = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        body = "*".join(([coeff] if a != 1 or not factors else []) + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


def test_parse_and_print_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        terms = [t for t in random_terms(rng, rng.randint(1, 7)) if t[0]]
        if not terms:
            continue
        expected = QQ_ORACLE.zero
        for c, exps in terms:
            expected += QQ_ORACLE({tuple(exps): sympy.QQ(c.numerator, c.denominator)})
        f = R.parse(grammar_text(rng, terms))
        assert to_oracle(f) == expected
        assert R.parse(str(f)) == f


def test_product_and_exact_division():
    rng = random.Random(12)
    for _ in range(30):
        f = random_poly(rng, rng.randint(1, 6))
        g = random_poly(rng, rng.randint(1, 5))
        if f.is_zero or g.is_zero:
            continue
        h = f * g
        assert to_oracle(h) == to_oracle(f) * to_oracle(g)
        assert exact_div(h, g) == f


def test_product_over_a_prime_field():
    gf = PolyRing(NAMES, PrimeField(P))
    rng = random.Random(13)
    for _ in range(20):
        f = random_poly(rng, rng.randint(1, 6), ring=gf)
        g = random_poly(rng, rng.randint(1, 5), ring=gf)
        assert to_oracle(f * g, GF_ORACLE) == to_oracle(f, GF_ORACLE) * to_oracle(g, GF_ORACLE)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_determinant_cofactor_and_bareiss(size):
    # Sizes up to 4 take the cofactor path, 5 and 6 the Bareiss path; a
    # first column that is zero above its last row forces a pivot swap.
    rng = random.Random(100 + size)
    for trial in range(3):
        rows = [[random_poly(rng, rng.randint(0, 2), 1, used=2) for _ in range(size)]
                for _ in range(size)]
        if trial:
            for row in rows[:-1]:
                row[0] = R.zero()
        expected = oracle_det([[to_oracle(e) for e in row] for row in rows])
        assert to_oracle(determinant(rows)) == expected


def test_resultant():
    rng = random.Random(14)
    for _ in range(15):
        f = random_poly(rng, rng.randint(2, 4), 2)
        g = random_poly(rng, rng.randint(2, 4), 2)
        if f.is_zero or g.is_zero or (f.degree_in("x") == 0 and g.degree_in("x") == 0):
            continue
        # sympy's ring resultant eliminates the first generator, x, into a
        # ring of the other three.
        expected = QQ_ORACLE(to_oracle(f).resultant(to_oracle(g)).as_expr())
        assert to_oracle(resultant(f, g, "x")) == expected


def test_hessian_determinant():
    rng = random.Random(15)
    for degree in (2, 3, 3, 4):
        F = R.zero()
        for _ in range(5):
            exps = [rng.randint(0, degree) for _ in range(3)]
            if sum(exps) <= degree:
                F = F + R.monomial(exps + [degree - sum(exps)], rng.randint(-5, 5))
        if F.is_zero:
            continue
        first = [to_oracle(F).diff(g) for g in QQ_ORACLE.gens]
        expected = oracle_det([[d.diff(g) for g in QQ_ORACLE.gens] for d in first])
        assert to_oracle(hessian_determinant(F)) == expected


def test_homogeneous_components():
    rng = random.Random(16)
    for _ in range(30):
        f = random_poly(rng, rng.randint(0, 8))
        by_degree = {}
        for monomial, coeff in to_oracle(f).terms():
            k = sum(monomial)
            by_degree[k] = by_degree.get(k, QQ_ORACLE.zero) + QQ_ORACLE({monomial: coeff})
        parts = f.homogeneous_components()
        assert len(parts) == (max(by_degree) + 1 if by_degree else 0)
        for k, part in enumerate(parts):
            assert to_oracle(part) == by_degree.get(k, QQ_ORACLE.zero)
