"""Differential tests of the Poly kernel, the polar k-ic, the line
restriction, the tangent cone and the contact strata against sympy on
seeded random inputs.

sympy is a test-only oracle: the runtime stays standard-library only, and
these tests are skipped when it is not installed.  Each Poly is handed to
sympy through its printed form, evaluated in sympy's sparse polynomial
ring, so every comparison also checks printing.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from polarcalc.curvature import hessian_determinant
from polarcalc.flecnodal import ContactOrder, max_contact_order
from polarcalc.localmodels import tacnode_discriminant
from polarcalc.plucker import dejonquieres_count, dejonquieres_problem
from polarcalc.polarity import polar_kic, restrict_to_line, tangent_cone
from polarcalc.polyring import (
    QQ, PolyRing, PrimeField, coefficients_in, determinant, exact_div, resultant, sylvester_rows,
)
from polarcalc.randomchecks import random_homogeneous, random_point, surface_through

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
    return oracle(evaluate_printed(f, oracle.gens, oracle.domain))


def evaluate_printed(f, images, domain):
    """The printed form of f evaluated with x, y, z, w bound to the images."""
    # Integer literals become domain elements, so 1/2 stays exact; exponents stay ints.
    text = re.sub(r"(?<![\^\d])(\d+)", r"c(\1)", str(f)).replace("^", "**")
    return eval(text, {"__builtins__": {}}, dict(zip(NAMES, images), c=domain))


def oracle_det(rows, oracle=QQ_ORACLE):
    return DomainMatrix(rows, (len(rows), len(rows)), oracle.to_domain()).det()


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


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_determinant_cofactor_and_bareiss(size, field):
    # Sizes up to 4 take the shared-minor expansion, 5 and 6 the Bareiss
    # path; a first column that is zero above its last row forces a pivot
    # swap.  Then a sparse Sylvester layout, and a matrix whose first pivot
    # is zero with a nonzero entry right below it.
    ring, oracle = (R, QQ_ORACLE) if field is QQ else (PolyRing(NAMES, field), GF_ORACLE)
    rng = random.Random(100 + size)

    def entry():
        return random_poly(rng, rng.randint(0, 2), 1, ring=ring, used=2)

    cases = []
    for trial in range(3):
        rows = [[entry() for _ in range(size)] for _ in range(size)]
        if trial:
            for row in rows[:-1]:
                row[0] = ring.zero()
        cases.append(rows)
    fc = [entry() for _ in range(size // 2 + 1)]
    gc = [entry() for _ in range(size - size // 2 + 1)]
    cases.append(sylvester_rows(fc, gc, ring.zero()))
    x, one, zero = ring.var("x"), ring.one(), ring.zero()
    cases.append([
        [(x if i != j else zero) if i < 2 and j < 2 else one if (i < 2) != (j < 2) else
         (x if i == j else zero) for j in range(size)]
        for i in range(size)
    ])
    for rows in cases:
        expected = oracle_det([[to_oracle(e, oracle) for e in row] for row in rows], oracle)
        assert to_oracle(determinant(rows), oracle) == expected


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


def test_tacnode_discriminant():
    # The resultant route against sympy's discriminant of the same quartic,
    # compared as polynomials in (a, b, c) through the printed form.
    x, a, b, c = sympy.symbols("x a b c")
    expected = sympy.discriminant(x**4 + a * x**2 + b * x + c, x)
    got = sympy.sympify(str(tacnode_discriminant()).replace("^", "**"))
    assert sympy.Poly(got, a, b, c) == sympy.Poly(expected, a, b, c)


def test_dejonquieres_count():
    # The coefficient of t1^m1 t2^m2 t3^m3 in A^g B^e, read off sympy's
    # derivatives at t = 0; the tail exponent e is negative in some patterns.
    rng = random.Random(97)
    t = sympy.symbols("t1 t2 t3")
    A = 1 + t[0] + 4 * t[1] + 9 * t[2]
    B = 1 + t[0] + 2 * t[1] + 3 * t[2]
    negative = 0
    for _ in range(40):
        mult = {2: rng.randint(0, 3), 3: rng.randint(0, 1)}
        weighted = 2 * mult[2] + 3 * mult[3]
        degree = rng.randint(max(weighted, 1), 9)
        genus = rng.randint(0, 4)
        problem = dejonquieres_problem(degree, genus, mult)
        tail = degree - problem.dimension - genus
        negative += tail < 0
        ms = [problem.multiplicities.get(s, 0) for s in (1, 2, 3)]
        expr = A**genus * B**tail
        for ts, k in zip(t, ms):
            if k:
                expr = sympy.diff(expr, ts, k)
        expected = expr.subs(dict.fromkeys(t, 0)) / math.prod(math.factorial(k) for k in ms)
        assert dejonquieres_count(degree, genus, mult) == expected, (degree, genus, mult)
    assert negative


def oracle_terms(expr, gens, p=None):
    """{exponent tuple: coefficient} of a sympy expression, reduced mod p if given."""
    out = {}
    for monomial, c in sympy.Poly(expr, *gens).as_dict().items():
        c = Fraction(int(c.p), int(c.q))
        if p is not None:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[monomial] = c
    return out


def seeded_surfaces(field, seed, degrees):
    """(F, a, b): a seeded form of each degree through a, and a second point b."""
    ring = PolyRing(NAMES, field)
    rng = random.Random(seed)
    for degree in degrees:
        a = random_point(ring, rng)
        F = surface_through(ring, a, degree, rng)
        yield F, a, random_point(ring, rng)


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_polar_kic_against_iterated_derivatives(field):
    # (x d/du0 + y d/du1 + z d/du2 + w d/du3)^k applied to F(u) by sympy, then put at u = a.
    p = field.p
    xs, us = sympy.symbols("x y z w"), sympy.symbols("u0:4")
    gens, zero = [sympy.Poly(g, *xs, *us) for g in xs], sympy.Poly(0, *xs, *us)
    for F, a, _ in seeded_surfaces(field, 17, (2, 3, 4, 5)):
        G = sympy.Poly(sympy.sympify(str(F).replace("^", "**"), locals=dict(zip(NAMES, us))), *xs, *us)
        point = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, a.coords)]
        for k in range(1, F.total_degree()):
            G = sum((g * G.diff(u) for g, u in zip(gens, us)), zero)
            at_a = G.as_expr().xreplace(dict(zip(us, point)))
            assert dict(polar_kic(F, a, k).sorted_terms()) == oracle_terms(at_a, xs, p)


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_restrict_to_line_against_expansion(field):
    p = field.p
    xs, T = sympy.symbols("x y z w"), sympy.Symbol("T")
    for F, a, b in seeded_surfaces(field, 18, (2, 3, 4, 5) * 2):
        G = sympy.sympify(str(F).replace("^", "**"), locals=dict(zip(NAMES, xs)))
        line = {x: ai + T * bi for x, ai, bi in zip(xs, a.coords, b.coords)}
        expected = oracle_terms(sympy.expand(G.xreplace(line)), [T], p)
        assert dict(restrict_to_line(F, a, b).sorted_terms()) == expected


def singular_through(ring, a, degree, mult, rng):
    """A seeded form with multiplicity mult at a: sum over k >= mult of l^(degree - k) G_k(u).

    l = x_pivot / a_pivot is 1 at a, and u_i = x_i - a_i l for the other
    indices vanish there, so the lowest part G_mult (nonzero) is the cone.
    """
    field = ring.field
    pivot = next(i for i, c in enumerate(a.coords) if c)
    ell = ring.var(NAMES[pivot]) * field.div(field.one, a.coords[pivot])
    others = [i for i in range(4) if i != pivot]
    small = PolyRing(NAMES[:3], field)
    us = {NAMES[j]: ring.var(NAMES[i]) - ell * a.coords[i] for j, i in enumerate(others)}
    F = ring.zero()
    for k in range(mult, degree + 1):
        if k == mult or rng.random() < 0.5:
            G = random_homogeneous(small, k, rng).substitute(us, into=ring)
            F = F + ell ** (degree - k) * G
    return F


def seeded_points(field, seed):
    """(F, a): seeded forms of degree 2-5 with a point of every multiplicity 1 .. degree."""
    ring = PolyRing(NAMES, field)
    rng = random.Random(seed)
    for degree in (2, 3, 4, 5):
        for mult in range(1, degree + 1):
            a = random_point(ring, rng)
            if rng.random() < 0.5:  # zero coordinates move the chart's pivot
                coords = list(a.coords)
                for i in rng.sample(range(4), rng.randint(1, 3)):
                    coords[i] = field.zero
                a = ring.point(coords if any(coords) else [0, 0, 0, 1])
            if mult == 1 and rng.random() < 0.5:
                yield surface_through(ring, a, degree, rng), a
            else:
                yield singular_through(ring, a, degree, mult, rng), a


def sympy_parts(F, names, images, p):
    """{degree: {exponents: coefficient}} of F at images(gens) in sympy's Q[names], mod p if given."""
    oracle = ring(",".join(names), sympy.QQ)[0]
    parts = {}
    for exps, c in evaluate_printed(F, images(oracle.gens), sympy.QQ).terms():
        c = Fraction(int(c.numerator), int(c.denominator))
        if p is not None:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            parts.setdefault(sum(exps), {})[exps] = c
    return parts


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_tangent_cone_against_expansion(field):
    # The cone is the lowest-degree part of F(a + w) with w_pivot = 0, in
    # the chart variables (pivot first, so its exponent reads 0).
    mults = set()
    for F, a in seeded_points(field, 19):
        report = tangent_cone(F, a)
        pivot = next(i for i, c in enumerate(a.coords) if c)

        def images(ws):
            chart_of = dict(zip(report.chart.variables, ws))
            return [c if i == pivot else c + chart_of[NAMES[i]] for i, c in enumerate(a.coords)]

        parts = sympy_parts(F, report.chart.variables, images, field.p)
        assert report.multiplicity == min(parts)
        assert dict(report.cone.sorted_terms()) == parts[min(parts)]
        mults.add(report.multiplicity)
    assert mults == {1, 2, 3, 4, 5}


def line_surfaces(field, seed):
    """(F, q): seeded forms through the line {x = w, y = z} at a point of it, and generic ones."""
    ring = PolyRing(NAMES, field)
    rng = random.Random(seed)
    x, y, z, w = ring.gens()
    for degree in (2, 3, 4, 5, 3, 4):
        A, B = (random_homogeneous(ring, degree - 1, rng) for _ in range(2))
        s, t = field.random(rng) or field.one, field.random(rng)
        yield (x - w) * A + (y - z) * B, ring.point([s, t, t, s])
        a = random_point(ring, rng)
        yield surface_through(ring, a, degree, rng), a


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_contact_strata_against_expansion(field):
    # II and III are the degree-2 and -3 parts of F(q + u t1 + v t2) in
    # (u, v); the resultant is sympy's in u at v = 1 when both leading
    # coefficients survive; a certified line lies in the surface.
    u, v = sympy.symbols("u v")
    orders = set()
    for F, q in line_surfaces(field, 20):
        if not any(F.partial(name).evaluate(list(q.coords)) for name in NAMES):
            continue
        report = max_contact_order(F, q)
        t1, t2 = (b.coords for b in report.tangent_basis)

        def plane(uv):
            return [c + uv[0] * b1 + uv[1] * b2 for c, b1, b2 in zip(q.coords, t1, t2)]

        parts = sympy_parts(F, "uv", plane, field.p)
        assert dict(report.ii.sorted_terms()) == parts.get(2, {})
        assert dict(report.iii.sorted_terms()) == parts.get(3, {})
        if report.ii.coefficient((2, 0)) and report.iii.coefficient((3, 0)):
            ii, iii = (sympy.Poly(str(f).replace("^", "**"), u, v).as_expr().subs(v, 1)
                       for f in (report.ii, report.iii))
            expected = sympy.resultant(ii, iii, u)
            if field.p is not None:
                expected = expected % field.p
            assert report.resultant == expected
        if report.line_direction is not None:
            line = report.line_direction.coords

            def on_line(T):
                return [c + T[0] * b for c, b in zip(q.coords, line)]

            assert sympy_parts(F, "T", on_line, field.p) == {}
        orders.add(report.order)
    assert orders == {ContactOrder.THREE, ContactOrder.INFINITE}


def chart_route(F, a):
    """The tangent cone by the earlier chart route: a linear change moving
    a to (1 : 0 : ... : 0), then the top coefficient in the pivot variable."""
    field = F.ring.field
    pivot = next(i for i, c in enumerate(a.coords) if c)
    others = [i for i in range(4) if i != pivot]
    chart = PolyRing((NAMES[pivot],) + tuple(NAMES[i] for i in others), field)
    matrix = [[field.zero] * 4 for _ in range(4)]
    for i in range(4):
        matrix[i][0] = a.coords[i]
    for j, i in enumerate(others):
        matrix[i][j + 1] = field.one
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    images = {name: chart.from_terms(zip(units, row)) for name, row in zip(NAMES, matrix)}
    strata = coefficients_in(F.substitute(images, into=chart), chart.variables[0])
    return F.total_degree() - (len(strata) - 1), strata[-1], chart, tuple(map(tuple, matrix))


@pytest.mark.parametrize("field", [QQ, PrimeField(P), PrimeField(7)], ids=repr)
def test_tangent_cone_matches_the_chart_route(field):
    for F, a in seeded_points(field, 21):
        report = tangent_cone(F, a)
        assert (report.multiplicity, report.cone, report.chart, report.matrix) == chart_route(F, a)
