"""Differential tests of the Poly kernel, the polar k-ic, the line
restriction, the tangent cone and the contact strata against sympy on
seeded random inputs.

sympy is a test-only oracle: the runtime stays standard-library only, and
these tests are skipped when it is not installed.  Each Poly is handed to
sympy through its printed form, evaluated in sympy's sparse polynomial
ring, so every comparison also checks printing.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from polarcalc import polyring
from polarcalc.curvature import SurfacePointKind, classify_surface_point, hessian_determinant
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
    """(-1)^n times the constant term of the characteristic polynomial, by
    sympy's division-free Berkowitz algorithm (its Bareiss ``det`` divides
    polynomials and takes seconds on a dense 4 x 4 Hessian)."""
    n = len(rows)
    return (-1) ** n * DomainMatrix(rows, (n, n), oracle.to_domain()).charpoly_berk()[-1]


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
def test_products_of_dense_forms(field, monkeypatch):
    # Every monomial of each degree 3 .. 8, seeded coefficients in +-1 .. 9;
    # every product of two of them, against sympy's, and the flat route
    # counted: it must run for each product of at least 1,500 term pairs.
    rng = random.Random(17)
    gf = PolyRing(NAMES, field)
    oracle = QQ_ORACLE if field is QQ else GF_ORACLE
    forms = [
        gf.from_terms(
            (e, rng.choice([-1, 1]) * rng.randint(1, 9))
            for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d
        )
        for d in range(3, 9)
    ]
    flat, ran = polyring._product_flat, []
    monkeypatch.setattr(polyring, "_product_flat", lambda ring, local: ran.append(1) or flat(ring, local))
    large = 0
    for f, g in itertools.combinations_with_replacement(forms, 2):
        large += len(f.terms) * len(g.terms) >= 1500
        assert to_oracle(f * g, oracle) == to_oracle(f, oracle) * to_oracle(g, oracle)
    assert large == len(ran) == 17


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


def test_hessian_determinant(monkeypatch):
    # Forms of at most 5 random terms; then, over Q and GF(p), the fully dense
    # forms of degree 3-6 that the benchmark's Hessians take, whose
    # determinants sum into flat lists, and a sparse form of high degree,
    # whose determinant stays on term dicts.
    rng = random.Random(15)
    flat_runs, flat = [], polyring._det_flat
    monkeypatch.setattr(polyring, "_det_flat", lambda ring, layout: flat_runs.append(1) or flat(ring, layout))
    cases = []
    for degree in (2, 3, 3, 4):
        F = R.zero()
        for _ in range(5):
            exps = [rng.randint(0, degree) for _ in range(3)]
            if sum(exps) <= degree:
                F = F + R.monomial(exps + [degree - sum(exps)], rng.randint(-5, 5))
        if not F.is_zero:
            cases.append((F, QQ_ORACLE))
    for field, oracle in ((QQ, QQ_ORACLE), (PrimeField(P), GF_ORACLE)):
        ring = PolyRing(NAMES, field)
        for degree in range(3, 7):
            F = ring.from_terms(
                (exps, rng.choice((-1, 1)) * rng.randint(1, 9))
                for exps in itertools.product(range(degree + 1), repeat=4) if sum(exps) == degree
            )
            cases.append((F, oracle))
    sparse = R.parse("x^40*y^3 - 3*y^30*z^2*w^11 + z^25*w^18 + 2*x*y*z*w^40 - 5*x^43")
    cases.append((sparse, QQ_ORACLE))
    for F, oracle in cases:
        before = len(flat_runs)
        first = [to_oracle(F, oracle).diff(g) for g in oracle.gens]
        expected = oracle_det([[d.diff(g) for g in oracle.gens] for d in first], oracle)
        assert to_oracle(hessian_determinant(F), oracle) == expected
        dense = len(F.terms) == math.comb(F.total_degree() + 3, 3)
        assert len(flat_runs) - before == dense


def test_homogeneous_components():
    rng = random.Random(16)
    for _ in range(30):
        f = random_poly(rng, rng.randint(0, 8))
        by_degree = {}
        for monomial, coeff in to_oracle(f).terms():
            k = sum(monomial)
            by_degree[k] = by_degree.get(k, QQ_ORACLE.zero) + QQ_ORACLE({monomial: coeff})
        parts = f.homogeneous_components()
        assert list(parts) == sorted(by_degree)
        for k, part in parts.items():
            assert to_oracle(part) == by_degree[k]


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


SMALL = {field: PolyRing(NAMES[:3], field) for field in (QQ, PrimeField(P), PrimeField(7))}


def form_at(ring, a, degree, parts):
    """sum_k l^(degree - k) G_k(u) for parts {k: G_k}, each G_k a form in three variables.

    l = x_pivot / a_pivot is 1 at a, and u_i = x_i - a_i l for the other
    indices vanish there, so the parts are the graded pieces of F near a.
    """
    field = ring.field
    pivot = next(i for i, c in enumerate(a.coords) if c)
    ell = ring.var(NAMES[pivot]) * field.div(field.one, a.coords[pivot])
    others = [i for i in range(4) if i != pivot]
    us = {NAMES[j]: ring.var(NAMES[i]) - ell * a.coords[i] for j, i in enumerate(others)}
    F = ring.zero()
    for k, G in parts.items():
        F = F + ell ** (degree - k) * G.substitute(us, into=ring)
    return F


def singular_through(ring, a, degree, mult, rng):
    """A seeded form with multiplicity mult at a: its lowest part G_mult (nonzero) is the cone."""
    small = SMALL[ring.field]
    parts = {}
    for k in range(mult, degree + 1):
        if k == mult or rng.random() < 0.5:
            parts[k] = random_homogeneous(small, k, rng)
    return form_at(ring, a, degree, parts)


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


def prescribed_points(field, seed, degrees):
    """(F, a): seeded forms smooth at a, with tangent plane u_2 = 0 and the
    second fundamental form G_2(u_0, u_1, 0) prescribed.

    The frame's tangent basis is then the u_0 and u_1 axes.  For each
    degree, G_2 restricted to the plane is random, a product l1 l2 of two
    lines with l2 = c u_1 (so the basis vector u_0 is asymptotic, and III
    vanishing along it makes it a flecnodal direction), a square l1^2 or
    l2^2 (parabolic), zero (planar), or irreducible over the field (with III a
    multiple of it, so its two conjugate directions have contact at least
    4).  The remaining parts are random.
    """
    ring, small = PolyRing(NAMES, field), SMALL[field]
    rng = random.Random(seed)
    x, y, z = small.gens()
    nonsquare = 2 if field is QQ else next(n for n in range(2, 99) if not field.is_square(n))
    for degree in degrees:
        for kind in ("random", "split", "square", "zero", "irreducible"):
            a = random_point(ring, rng)
            if rng.random() < 0.5:  # zero coordinates move the frame's pivots
                coords = list(a.coords)
                for i in rng.sample(range(4), rng.randint(1, 3)):
                    coords[i] = field.zero
                a = ring.point(coords if any(coords) else [0, 0, 0, 1])
            l1 = x * (field.random(rng) or 1) + y * field.random(rng)
            l2 = y * (field.random(rng) or 1)
            bend = z * random_homogeneous(small, 1, rng)  # vanishes on the tangent plane
            parts = {1: z}
            if kind == "random":
                parts[2] = random_homogeneous(small, 2, rng)
            elif kind == "split":
                parts[2], parts[3] = l1 * l2 + bend, l2 * random_homogeneous(small, 2, rng)
            elif kind == "square":
                line = l1 if degree % 2 else l2  # u_0 is the one asymptotic direction for l2^2
                parts[2] = line * line + bend
            elif kind == "zero":
                parts[2] = bend
            else:
                q = x * x - y * y * nonsquare
                parts[2], parts[3] = q + bend, q * random_homogeneous(small, 1, rng)
            for k in range(3, degree + 1):
                parts.setdefault(k, random_homogeneous(small, k, rng))
            yield form_at(ring, a, degree, {k: g for k, g in parts.items() if k <= degree}), a


def sympy_hessian_at(F, a, p):
    """sympy's gradient and Hessian matrix of F at a, reduced mod p if given."""
    at = [sympy.QQ(c.numerator, c.denominator) for c in map(Fraction, a.coords)]

    def value(f):
        v = f(*at)
        v = Fraction(int(v.numerator), int(v.denominator))
        return v if p is None else v.numerator * pow(v.denominator, -1, p) % p

    first = [to_oracle(F).diff(g) for g in QQ_ORACLE.gens]
    return [value(d) for d in first], [[value(d.diff(g)) for g in QQ_ORACLE.gens] for d in first]


def oracle_rank(rows, p):
    domain = sympy.QQ if p is None else sympy.GF(p)
    entries = [[domain(v.numerator, v.denominator) if p is None else domain(v) for v in row]
               for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_second_form_and_classification_against_the_hessian(field):
    # The recorded basis spans the tangent plane with p; the form is sympy's
    # Hessian at p restricted to that basis, halved; rank, kind, the
    # discriminant r^2 - ab, its squareness and the number of rational
    # asymptotic directions all follow from that 2 x 2 matrix.
    p, u = field.p, sympy.Symbol("u")
    domain = sympy.QQ if p is None else sympy.GF(p)
    kinds, squares = set(), set()
    for F, a in prescribed_points(field, 22, (2, 3, 4, 5)):
        grad, hess = sympy_hessian_at(F, a, p)
        report = classify_surface_point(F, a)
        basis = [list(t.coords) for t in report.form.tangent_basis]

        def pair(v1, v2):
            total = sum(x * h * y for x, row in zip(v1, hess) for h, y in zip(row, v2))
            return total if p is None else total % p

        assert all(not field.coerce(sum(g * c for g, c in zip(grad, v))) for v in basis)
        assert oracle_rank([list(a.coords)] + basis, p) == 3
        matrix = [[field.div(pair(v1, v2), 2) for v2 in basis] for v1 in basis]
        assert [list(row) for row in report.form.matrix] == matrix
        rank = oracle_rank(matrix, p)
        assert report.form.rank == rank
        assert report.kind == [SurfacePointKind.PLANAR_II_ZERO, SurfacePointKind.PARABOLIC_RANK1,
                               SurfacePointKind.NON_PARABOLIC][rank]
        (ia, ir), (_, ib) = matrix
        disc = field.coerce(ir * ir - ia * ib)
        assert report.asymptotic.discriminant == disc
        if p is None:
            square = sympy.sqrt(sympy.Rational(disc.numerator, disc.denominator)).is_Rational
        else:
            square = not disc or sympy.ntheory.is_quad_residue(disc, p)
        assert field.is_square(disc) == square
        directions = report.asymptotic.directions
        assert report.asymptotic.all_tangent_directions == (rank == 0)
        if rank:
            # Projective roots of a u^2 + 2 r u v + b v^2: those with v = 1, and (1 : 0) when a = 0.
            finite = sympy.Poly([ia, 2 * ir, ib], u, domain=domain)
            assert len(directions) == len(finite.ground_roots()) + (not ia)
            if ia:
                squares.add(square)
        for direction in directions:
            v = list(direction.coords)
            assert not pair(v, v) and not field.coerce(sum(g * c for g, c in zip(grad, v)))
        kinds.add(report.kind)
    assert kinds == set(SurfacePointKind)
    assert squares == {True, False}


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_contact_order_against_the_valuation_along_asymptotic_directions(field):
    # The asymptotic directions are sympy's roots of II, grouped by its
    # irreducible factors f over the field (with (1 : 0) when II has no u^2
    # term).  F(q + T v) = sum_k c_k(v) T^k, and c_k vanishes at the roots of
    # f exactly when f divides c_k, so the T-adic valuation along them is the
    # least k with f not dividing c_k.  A rational direction of infinite
    # valuation is a line (INFINITE); otherwise a valuation of 4 or more is
    # GE4 and the rest is THREE.
    p, u = field.p, sympy.Symbol("u")
    domain = sympy.QQ if p is None else sympy.GF(p)
    cases = list(prescribed_points(field, 23, (3, 4, 5))) + list(line_surfaces(field, 24))
    orders = set()
    for F, q in cases:
        if not any(F.partial(name).evaluate(list(q.coords)) for name in NAMES):
            continue
        report = max_contact_order(F, q)
        t1, t2 = (b.coords for b in report.tangent_basis)

        def plane(uv):
            return [c + uv[0] * b1 + uv[1] * b2 for c, b1, b2 in zip(q.coords, t1, t2)]

        parts = sympy_parts(F, "uv", plane, p)
        at_v1 = {
            k: sympy.Poly.from_dict(
                {(e[0],): sympy.Rational(c.numerator, c.denominator) if p is None else c
                 for e, c in part.items()}, u, domain=domain)
            for k, part in parts.items()
        }
        if 2 not in parts:
            assert report.order is not ContactOrder.THREE
            orders.add(report.order)
            continue
        roots = [f for f, _ in at_v1[2].factor_list()[1]]
        if (2, 0) not in parts[2]:
            roots.append(None)  # (1 : 0), where c_k vanishes when it has no u^k term

        def divides(f, k):
            if k not in parts:
                return True
            return (k, 0) not in parts[k] if f is None else at_v1[k].rem(f).is_zero

        degree = F.total_degree()
        valuations = [
            (f is None or f.degree() == 1,
             next((k for k in range(2, degree + 1) if not divides(f, k)), math.inf))
            for f in roots
        ]
        assert all(valuation >= 3 for _, valuation in valuations)
        if any(rational and valuation == math.inf for rational, valuation in valuations):
            expected = ContactOrder.INFINITE
        elif max(valuation for _, valuation in valuations) >= 4:
            expected = ContactOrder.GE4
        else:
            expected = ContactOrder.THREE
        assert report.order is expected
        orders.add(report.order)
    assert orders == set(ContactOrder)


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
    top = max(strata)
    return F.total_degree() - top, strata[top], chart, tuple(map(tuple, matrix))


@pytest.mark.parametrize("field", [QQ, PrimeField(P), PrimeField(7)], ids=repr)
def test_tangent_cone_matches_the_chart_route(field):
    for F, a in seeded_points(field, 21):
        report = tangent_cone(F, a)
        assert (report.multiplicity, report.cone, report.chart, report.matrix) == chart_route(F, a)
