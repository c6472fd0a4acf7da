"""Polar calculus: polars, tangent planes, line contact, tangent cones."""

import bisect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from polarcalc import polarity, polyring
from polarcalc.polarity import (
    line_multiplicity,
    polar,
    polar_kic,
    restrict_to_line,
    tangent_cone,
    tangent_directions,
    tangent_hyperplane,
)
from polarcalc.polyring import (
    INFINITY,
    QQ,
    DomainError,
    Poly,
    PolyRing,
    PrimeField,
    ProjPoint,
    exact_div,
    resultant,
)
from polarcalc.randomchecks import (
    property_suite,
    random_homogeneous,
    random_point,
    surface_through,
)
from polarcalc.reporting import all_ok

R = PolyRing()
FERMAT = R.parse("x^3 + y^3 + z^3 + w^3")
DIAG = R.parse("x^3 + y^3 + z^3 - 3*w^3")


class TestPolar:
    def test_quadric_first_polar(self):
        F = R.parse("x^2 + y^2 + z^2 + w^2")
        assert polar(F, R.point([1, 0, 0, 0]), 1) == R.parse("2*x")

    def test_fermat_first_polar(self):
        assert polar(FERMAT, R.point([1, 1, 1, 1]), 1) == R.parse(
            "3*x^2 + 3*y^2 + 3*z^2 + 3*w^2"
        )

    def test_full_polarization_is_scaled_value(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 4)
            F = random_homogeneous(R, d, rng)
            a = random_point(R, rng)
            full = polar(F, a, d)
            expected = math.factorial(d) * F.evaluate(list(a.coords))
            assert full.constant_value() == expected

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            polar(FERMAT, R.point([1, 0, 0, 0]), 4)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
    def test_one_field_object_is_matched_by_identity(self, field, monkeypatch):
        # The point check and point equality compare the field objects first:
        # with the same object on both sides the field's __eq__ never runs.
        ring = PolyRing(field=field)
        F, a, b = ring.parse("x*y - 2*x^2"), ring.point([1, 2, 0, 0]), ring.point([2, 4, 0, 0])

        def refuse(self, other):
            raise AssertionError("a field's __eq__ ran")

        monkeypatch.setattr(type(field), "__eq__", refuse)
        assert polar(F, a, 1) == ring.parse("y - 2*x")
        assert a == b and a != ring.point([1, 0, 0, 0])


class TestPolarKic:
    def test_polar_quadric_diag_cubic(self):
        got = polar_kic(DIAG, R.point([1, 1, 1, 1]), 2)
        expected = R.parse("x^2 + y^2 + z^2 - 3*w^2")
        # equality up to one overall constant
        scale = Fraction(next(iter(got.terms.values()))) / next(iter(expected.terms.values()))
        assert got == expected * scale

    def test_quadric_polar_line_is_bilinear_form(self):
        F = R.parse("x*w - y*z")
        a = R.point([1, 2, 3, 4])
        got = polar_kic(F, a, 1)
        assert got == R.parse("4*x - 3*y - 2*z + w")

    def test_matches_polar_up_to_factorial_ratio(self):
        rng = random.Random(11)
        for _ in range(20):
            d = rng.randint(2, 4)
            F = random_homogeneous(R, d, rng)
            a = random_point(R, rng)
            k = rng.randint(1, d - 1)
            ratio = QQ.div(math.factorial(k), math.factorial(d - k))
            assert polar_kic(F, a, k) == polar(F, a, d - k) * ratio

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            polar_kic(FERMAT, R.point([1, 0, 0, 0]), 3)

    @staticmethod
    def _kic_by_partials(F, a, k):
        """The multinomial polarization: sum over |alpha| = k of
        k!/alpha! * (d^alpha F)(a) * x^alpha, by iterated partials."""
        ring = F.ring
        pairs = []
        for alpha in itertools.combinations_with_replacement(range(len(ring.variables)), k):
            exps = [alpha.count(i) for i in range(len(ring.variables))]
            G = F
            for name, e in zip(ring.variables, exps):
                for _ in range(e):
                    G = G.partial(name)
            multinomial = math.factorial(k) // math.prod(map(math.factorial, exps))
            pairs.append((exps, multinomial * G.evaluate(list(a.coords))))
        return ring.from_terms(pairs)

    @pytest.mark.parametrize("field", [QQ, PrimeField(1048583), PrimeField(7), PrimeField(3)], ids=repr)
    def test_matches_the_iterated_partials(self, field):
        # Over GF(3) the orders k >= 3 have k! = 0, and the polar k-ic vanishes.
        ring = PolyRing(field=field)
        rng = random.Random(43)
        for case in range(30):
            d = 2 + case % 5
            F = random_homogeneous(ring, d, rng)
            if field == QQ and case % 2:
                a = ring.point([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)] + [1])
            else:
                a = random_point(ring, rng)
            for k in range(1, d):
                assert polar_kic(F, a, k) == self._kic_by_partials(F, a, k)


class TestTangentHyperplane:
    def test_fermat(self):
        plane = tangent_hyperplane(FERMAT, R.point([1, -1, 0, 0]))
        assert plane == R.parse("3*x + 3*y")

    def test_rank_quadric(self):
        plane = tangent_hyperplane(R.parse("x^2 - y^2"), R.point([1, 1, 0, 0]))
        assert plane == R.parse("2*x - 2*y")

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            tangent_hyperplane(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1]))

    def test_point_off_surface_rejected(self):
        with pytest.raises(DomainError):
            tangent_hyperplane(FERMAT, R.point([1, 0, 0, 0]))

    def test_tangent_directions_pair_with_the_gradient_to_zero(self):
        grads = [3, 0, -2, 5]
        vectors = tangent_directions(grads, 2, [0, 1, 3], QQ)
        assert vectors == [
            [1, 0, Fraction(3, 2), 0],
            [0, 1, 0, 0],
            [0, 0, Fraction(5, 2), 1],
        ]
        assert all(sum(g * v for g, v in zip(grads, vec)) == 0 for vec in vectors)


class TestLineMultiplicity:
    def test_inflection_line(self):
        report = line_multiplicity(FERMAT, R.point([1, -1, 0, 0]), R.point([0, 0, 1, 0]))
        assert report.multiplicity == 3
        assert report.polar_memberships == (True, True)

    def test_simple_tangency(self):
        report = line_multiplicity(DIAG, R.point([1, 1, 1, 1]), R.point([1, -1, 0, 0]))
        assert report.multiplicity == 2
        assert report.polar_memberships[0] is True
        assert report.polar_memberships[1] is False

    def test_line_inside_surface(self):
        report = line_multiplicity(FERMAT, R.point([1, -1, 1, -1]), R.point([1, -1, 0, 0]))
        assert report.multiplicity == INFINITY
        assert all(report.polar_memberships)

    def test_equal_points_rejected(self):
        a = R.point([1, -1, 0, 0])
        with pytest.raises(DomainError):
            line_multiplicity(FERMAT, a, R.point([-2, 2, 0, 0]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_polar_ladder_is_walked_once(self, d, monkeypatch):
        # One directional-derivative pass per rung: d - 1, not d(d - 1)/2.
        passes = []
        step = polarity.directional_derivative

        def counted(F, a):
            passes.append(F)
            return step(F, a)

        monkeypatch.setattr(polarity, "directional_derivative", counted)
        rng = random.Random(d)
        a = random_point(R, rng)
        F = surface_through(R, a, d, rng)
        report = line_multiplicity(F, a, random_point(R, rng))
        assert len(passes) == d - 1
        assert len(report.polar_memberships) == d - 1

    def test_a_planted_disagreement_raises(self, monkeypatch):
        # The line through (3 : 4 : 5 : 0) towards (1 : 0 : 0 : 0) meets the
        # cone transversally: F(a + T b) = 6 T + T^2.  Dropping c_1 from the
        # restriction claims contact 2, which the polar ladder refutes.
        F = R.parse("x^2 + y^2 - z^2")
        a, b = R.point([3, 4, 5, 0]), R.point([1, 0, 0, 0])
        assert line_multiplicity(F, a, b).multiplicity == 1
        line_coefficients = Poly.line_coefficients

        def drop_linear(self, *points):
            coefficients = line_coefficients(self, *points)
            coefficients[1] = 0
            return coefficients

        monkeypatch.setattr(Poly, "line_coefficients", drop_linear)
        with pytest.raises(RuntimeError, match="polar membership disagrees"):
            line_multiplicity(F, a, b)


class TestIndependentRoutes:
    """polar_kic and restrict_to_line never take a directional derivative or a
    polar, never substitute generically and multiply no polynomials, so the
    polar-symmetry and contact cross-checks compare two different routes."""

    CASES = [
        (
            QQ, "x^4 - 2*x*y^3 + 3/2*y^2*z*w - z^4 + 5*x*z*w^2", [Fraction(1, 2), 1, 0, -1],
            [
                "-3/2*x - 3*y + z",
                "3*x^2 - 12*x*y - 6*y^2 + 10*x*z - 6*y*z - 7*z*w",
                "12*x^3 - 36*x*y^2 - 6*y^3 - 9*y^2*z - 60*x*z*w + 18*y*z*w + 15*z*w^2",
            ],
            "17*T^4 + 53/2*T^3 - 57/2*T^2 - 5*T - 15/16",
        ),
        (
            PrimeField(1048583), "x^4 - 2*x*y^3 + 3*y^2*z*w - z^4 + 5*x*z*w^2", [524292, 1, 0, -1],
            [
                "524290*x + 1048580*y + 524291*z",
                "3*x^2 + 1048571*x*y + 1048577*y^2 + 10*x*z + 1048571*y*z + 1048579*z*w",
                "12*x^3 + 1048547*x*y^2 + 1048577*y^3 + 1048565*y^2*z + 1048523*x*z*w"
                " + 36*y*z*w + 15*z*w^2",
            ],
            "35*T^4 + 524330*T^3 + 1048553*T^2 + 524285*T + 589827",
        ),
    ]

    @pytest.mark.parametrize("field, text, point, kics, restriction", CASES, ids=["QQ", "GFp"])
    def test_values_without_the_directional_derivative(
        self, field, text, point, kics, restriction, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("a polar or generic-substitution route was called")

        monkeypatch.setattr(polarity, "directional_derivative", refuse)
        monkeypatch.setattr(Poly, "directional_derivative", refuse)
        monkeypatch.setattr(polarity, "polar", refuse)
        monkeypatch.setattr(Poly, "substitute", refuse)
        ring = PolyRing(field=field)
        F = ring.parse(text)
        a = ring.point(point)
        assert [str(polar_kic(F, a, k)) for k in (1, 2, 3)] == kics
        assert str(restrict_to_line(F, a, ring.point([0, 2, 1, 3]))) == restriction

    def test_no_polynomial_products(self, monkeypatch):
        rng = random.Random(47)
        cases = []
        for field in (QQ, PrimeField(1048583)):
            ring = PolyRing(field=field)
            for d in (2, 3, 4, 5):
                a = random_point(ring, rng)
                cases.append((surface_through(ring, a, d, rng), a, random_point(ring, rng)))

        def refuse(*args):
            raise AssertionError("Poly.__mul__ was called")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__rmul__", refuse)
        for F, a, b in cases:
            restrict_to_line(F, a, b)
            for k in range(1, F.total_degree()):
                polar_kic(F, a, k)


class TestTaylorNewton:
    def test_shift_equals_polar_sum(self):
        rng = random.Random(23)
        for _ in range(25):
            d = rng.randint(1, 4)
            F = random_homogeneous(R, d, rng)
            a, b = random_point(R, rng), random_point(R, rng)
            total = QQ.zero
            for k in range(d + 1):
                total = total + QQ.div(polar(F, b, k).evaluate(list(a.coords)), math.factorial(k))
            assert total == F.evaluate([x + y for x, y in zip(a.coords, b.coords)])


class TestTangentCone:
    def test_cuspidal_point(self):
        report = tangent_cone(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1]))
        assert report.multiplicity == 2
        assert report.cone == report.chart.parse("y^2")

    def test_nodal_point(self):
        report = tangent_cone(R.parse("x*y*w - z^3"), R.point([0, 0, 0, 1]))
        assert report.multiplicity == 2
        assert report.cone == report.chart.parse("x*y")

    def test_smooth_point_gives_tangent_plane(self):
        report = tangent_cone(FERMAT, R.point([1, -1, 0, 0]))
        assert report.multiplicity == 1
        # transformed tangent plane: the linear stratum of the chart form
        assert report.cone == report.chart.parse("3*y")

    def test_off_surface_rejected(self):
        with pytest.raises(DomainError):
            tangent_cone(FERMAT, R.point([1, 1, 1, 1]))

    def test_expansions_read_only_the_order_they_use(self, monkeypatch):
        # A smooth point's cone is its gradient, with no expansion; the cusp
        # takes one expansion cut at order 2.  The contact strata come from
        # one expansion cut at order 3, in integer directions: no Fraction is
        # built inside it, though the tangent directions here are rational.
        from polarcalc.flecnodal import _tangent_frame, max_contact_order

        orders, fractions_built = [], []
        substitute = Poly.substitute
        fraction_code = Fraction.__new__.__code__

        def counted(self, *args, order=None, **kwargs):
            built = 0

            def profile(frame, event, arg):
                nonlocal built
                if event == "call" and frame.f_code is fraction_code:
                    built += 1

            sys.setprofile(profile)
            try:
                return substitute(self, *args, order=order, **kwargs)
            finally:
                sys.setprofile(None)
                orders.append(order)
                fractions_built.append(built)

        monkeypatch.setattr(Poly, "substitute", counted)
        assert tangent_cone(FERMAT, R.point([1, -1, 0, 0])).multiplicity == 1
        assert orders == []
        assert tangent_cone(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1])).multiplicity == 2
        assert orders == [2]
        del orders[:], fractions_built[:]
        F, q = R.parse("2*x^3 + y^3 + z^3 - 4*w^3"), R.point([1, 1, 1, 1])
        t1, t2 = _tangent_frame(polarity.gradient_at(F, q), q)
        assert t1.coords == (Fraction(-1, 2), 0, 1, 0) and t2.coords == (2, 0, 0, 1)
        max_contact_order(F, q)
        assert orders == [3] and fractions_built == [0]


def _form_singular_at(ring, a, m, d, rng, rational):
    """A random degree-d form of multiplicity at least m at a: products of m
    linear forms a_j x_i - a_i x_j times monomials, with Fraction
    coefficients when rational."""
    field = ring.field
    lines = [
        ring.from_terms([(tuple(int(k == i) for k in range(4)), a[j]),
                         (tuple(int(k == j) for k in range(4)), -a[i])])
        for i, j in itertools.combinations(range(4), 2)
    ]
    lines = [line for line in lines if not line.is_zero]
    while True:
        F = ring.zero()
        for _ in range(rng.randint(1, 3)):
            term = ring.one()
            for _ in range(m):
                term = term * rng.choice(lines)
            exps = [0] * 4
            for _ in range(d - m):
                exps[rng.randrange(4)] += 1
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational else field.random(rng)
            F = F + term * ring.monomial(exps, c)
        if not F.is_zero:
            return F


class TestLocalParts:
    @pytest.mark.parametrize("field", [QQ, PrimeField(1048583), PrimeField(7)], ids=repr)
    def test_truncated_integer_expansion_is_the_low_part_of_the_full_one(self, field):
        # The reference expands F(a + sum_j v_j b_j) in full, in the given
        # (rational) directions, and keeps the parts of degree <= K.
        rng = random.Random(61)
        for trial in range(30):
            ring = PolyRing(field=field)
            coords = [0, 0, 0, 0]
            while not any(coords):
                coords = [rng.randint(-3, 3) for _ in range(4)]
            a = ring.point(coords)
            m = rng.randint(2, 6)
            d = m + rng.randint(0, 2)
            F = _form_singular_at(ring, a.coords, m, d, rng, field == QQ and trial % 2 == 0)
            names = ("u", "v", "s")[: rng.randint(1, 3)]
            local = PolyRing(names, field)
            if field == QQ:
                directions = {
                    v: [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4)]
                    for v in names
                }
            else:
                directions = {v: [field.random(rng) for _ in range(4)] for v in names}
            origin = (0,) * len(names)
            images = {
                x: local.from_terms([(origin, a.coords[i])] + [
                    (tuple(int(u == v) for u in names), b[i]) for v, b in directions.items()
                ])
                for i, x in enumerate(ring.variables)
            }
            full = F.substitute(images, into=local).homogeneous_components()
            assert min(full, default=d) >= m
            for order in sorted({0, 1, m - 1, m, rng.randint(0, d), d, d + 2}):
                parts = polarity.local_parts(F, a, directions, local, order)
                assert parts == {k: P for k, P in full.items() if k <= order}
                assert list(parts) == sorted(parts)
            # Past an order with no part, the reads go on to the first nonzero one.
            lowest = polarity.lowest_parts(F, a, directions, local, 1)
            assert min(lowest, default=None) == min(full, default=None)
            assert lowest == {k: P for k, P in full.items() if k <= max(lowest, default=d)}

    def test_truncated_expansion_forms_a_pinned_number_of_pairs(self, monkeypatch):
        # F(a + u b1 + v b2) with x -> 1 + u, y -> u + v, z -> 0 and w -> 1.
        # Each term is cut by e times the least degree of every power still
        # to come (x^2*y^2 by 2 for y^2), and a term reading the zero value
        # of z costs nothing.  A cut that drops either forms more pairs, with
        # the same parts; the counts are the pairs each order forms.
        pairs = []
        product_upto = polyring._product_upto

        def counted(left, right, top, shift):
            keys = sorted(right)
            pairs[-1] += sum(
                bisect.bisect_left(keys, (top - (k >> shift) + 1) << shift) for k in left
            )
            return product_upto(left, right, top, shift)

        monkeypatch.setattr(polyring, "_product_upto", counted)
        F = R.parse("x^2*y^2 + 2*x*z*w^2 + y^3*w - x^3*w + 3*z^2*w^2 + x*y*w^2")
        a, local = R.point((1, 0, 0, 1)), PolyRing(("u", "v"))
        directions = {"u": (1, 1, 0, 0), "v": (0, 1, 0, 0)}
        parts = {}
        for order in range(5):
            pairs.append(0)
            parts = polarity.local_parts(F, a, directions, local, order)
        assert pairs == [2, 9, 22, 38, 42]
        assert {k: str(P) for k, P in parts.items()} == {
            0: "-1", 1: "-2*u + v", 2: "-u^2 + 3*u*v + v^2",
            3: "2*u^3 + 7*u^2*v + 5*u*v^2 + v^3", 4: "u^4 + 2*u^3*v + u^2*v^2",
        }


class TestPolarsAtSingularities:
    """Polars of a point of multiplicity m drop multiplicity one per order."""

    @pytest.mark.parametrize(
        "text,point,mult",
        [
            ("y^2*w - x^3", (0, 0, 0, 1), 2),
            ("x^3 + y^3 + z^3", (0, 0, 0, 1), 3),
        ],
    )
    def test_polar_multiplicity_drop(self, text, point, mult):
        rng = random.Random(37)
        F = R.parse(text)
        a = R.point(point)
        base = tangent_cone(F, a)
        assert base.multiplicity == mult
        # The chart sends x to a v0 + (x_i = v_k for the k-th non-pivot i),
        # so b has chart coordinates (b_P/a_P, b_i - a_i b_P/a_P).
        pivot = next(i for i, c in enumerate(a.coords) if c)
        others = [i for i in range(4) if i != pivot]
        trials = 0
        while trials < 20:
            b = random_point(R, rng)
            if b == a:
                continue
            scale = Fraction(b.coords[pivot], a.coords[pivot])
            chart_b = ProjPoint(
                [scale] + [b.coords[i] - a.coords[i] * scale for i in others], R.field
            )
            # The exact drop needs b generic: the polarized cone must survive.
            if any(polar(base.cone, chart_b, r).is_zero for r in range(1, mult)):
                continue
            trials += 1
            for r in range(1, mult):
                pol = polar(F, b, r)
                rep = tangent_cone(pol, a)
                assert rep.multiplicity == mult - r
                assert rep.cone == polar(base.cone, chart_b, r)


class TestOsculatingPolarsPlaneCurve:
    def test_polar_line_and_conic_meet_doubly(self):
        # Cubic x^3 + y^3 + z^3 + xyz at (1 : -1 : 1).  The polar line is
        # 2x + 4y + 2z and the polar conic 6x^2 - 6y^2 + 6z^2 + 2xy - 2xz + 2yz;
        # eliminating z must leave the double factor (x + y)^2:
        # Q(x, y, -(x+2y)) = 14 (x + y)^2, scaled by the resultant rules.
        ring = PolyRing(("x", "y", "z"))
        F = ring.parse("x^3 + y^3 + z^3 + x*y*z")
        a = ring.point([1, -1, 1])
        assert not F.evaluate([1, -1, 1])
        line = polar_kic(F, a, 1)
        conic = polar_kic(F, a, 2)
        assert line == ring.parse("2*x + 4*y + 2*z")
        res = resultant(line, conic, "z")
        quotient = exact_div(res, ring.parse("x^2 + 2*x*y + y^2"))
        assert quotient.total_degree() == 0


class TestPropertyBatches:
    def test_rational_suite(self):
        assert all_ok(property_suite(QQ, seed=20240913, trials=100))

    def test_prime_field_suite(self):
        assert all_ok(property_suite(PrimeField(1048583), seed=20240913, trials=100))

    def test_restriction_matches_polar_coefficients(self):
        rng = random.Random(41)
        for _ in range(10):
            d = rng.randint(2, 4)
            a = random_point(R, rng)
            F = surface_through(R, a, d, rng)
            b = random_point(R, rng)
            restricted = restrict_to_line(F, a, b)
            for k in range(d + 1):
                coeff = restricted.coefficient((k,))
                expected = QQ.div(polar(F, b, k).evaluate(list(a.coords)), math.factorial(k))
                assert coeff == expected
