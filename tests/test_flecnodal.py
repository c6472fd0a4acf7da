"""Flecnodal covariants and the contact-order membership test."""

import random
from fractions import Fraction

import pytest

from polarcalc import flecnodal, polarity
from polarcalc.flecnodal import (
    ContactOrder,
    flecnodal_covariants,
    flecnodal_member,
    max_contact_order,
)
from polarcalc.polarity import line_multiplicity, tangent_hyperplane
from polarcalc.polyring import INFINITY, QQ, DomainError, PolyRing, PrimeField, exact_div

R = PolyRing()
FERMAT = R.parse("x^3 + y^3 + z^3 + w^3")
DIAG = R.parse("x^3 + y^3 + z^3 - 3*w^3")
RULED_QUADRIC = R.parse("x*w - y*z")


class TestCovariants:
    def test_fermat_theta_is_multiple_of_surface(self):
        pair = flecnodal_covariants(FERMAT)
        assert pair.theta == R.parse("1944*x*y*z*w") * FERMAT
        quotient = exact_div(pair.theta, FERMAT)
        assert quotient == R.parse("1944*x*y*z*w")

    def test_fermat_degree_report(self):
        pair = flecnodal_covariants(FERMAT)
        assert pair.degrees["theta"] == 7  # 5n - 8 at n = 3
        assert pair.degrees["phi"] is None  # diagonal Hessian kills Phi

    def test_degrees_general_cubic(self):
        F = R.parse("x^3 + y^3 + z^3 + w^3 + x*y*w + z*w^2")
        pair = flecnodal_covariants(F)
        assert pair.degrees["theta"] == 7
        assert pair.degrees["phi"] == 7  # 7n - 14 at n = 3

    def test_quadric_theta_degree(self):
        pair = flecnodal_covariants(R.parse("x*w - y*z + x^2"))
        assert pair.degrees["theta"] == 2  # 5n - 8 at n = 2
        # Phi is built from constant minors; degree 0 when it survives
        assert pair.degrees["phi"] in (None, 0)

    def test_needs_four_variables(self):
        with pytest.raises(DomainError):
            flecnodal_covariants(PolyRing(("x", "y", "z")).parse("x^3 + y^3 + z^3"))


class TestMaxContactOrder:
    def test_line_point_on_fermat(self):
        report = max_contact_order(FERMAT, R.point([1, -1, 1, -1]))
        assert report.order is ContactOrder.INFINITE
        line = report.line_direction
        assert line is not None
        assert line_multiplicity(FERMAT, R.point([1, -1, 1, -1]), line).multiplicity == INFINITY

    def test_line_certificate_is_the_common_root(self, monkeypatch):
        # A common root of the strata II..(d) already spans a line of the
        # surface with q, so certifying it expands no line multiplicity.
        def refuse(*args):
            raise AssertionError("line multiplicity expanded")

        monkeypatch.setattr(flecnodal, "line_multiplicity", refuse, raising=False)
        monkeypatch.setattr(polarity, "line_multiplicity", refuse)
        report = max_contact_order(FERMAT, R.point([1, -1, 1, -1]))
        assert report.order is ContactOrder.INFINITE
        assert report.line_direction.coords == (-1, 0, 0, 1)

    def test_generic_point_is_not_flecnodal(self):
        report = max_contact_order(DIAG, R.point([1, 1, 1, 1]))
        assert report.order is ContactOrder.THREE
        assert report.resultant
        assert not report.ii.is_zero

    def test_ruled_quadric_everywhere_infinite(self):
        rng = random.Random(61)
        for _ in range(8):
            a = Fraction(rng.choice([v for v in range(-5, 6) if v]))
            b, c = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            q = R.point([a, b, c, b * c / a])
            assert max_contact_order(RULED_QUADRIC, q).order is ContactOrder.INFINITE

    def test_finite_order_four_contact(self):
        # z w^3 + x y w^2 + x^4 + y^4 at (0:0:0:1): both asymptotic lines
        # meet with multiplicity exactly 4, so the point is flecnodal but
        # carries no line of the surface.
        F = R.parse("z*w^3 + x*y*w^2 + x^4 + y^4")
        q = R.point([0, 0, 0, 1])
        report = max_contact_order(F, q)
        assert report.order is ContactOrder.GE4
        assert report.line_direction is None
        assert line_multiplicity(F, q, R.point([1, 0, 0, 0])).multiplicity == 4
        assert flecnodal_member(F, q)

    def test_planar_point_without_rational_line(self):
        # vanishing second-order part forces contact >= 4 in any direction
        F = R.parse("z*w^3 + x^4 + y^4")
        report = max_contact_order(F, R.point([0, 0, 0, 1]))
        assert report.order is ContactOrder.GE4
        assert report.ii.is_zero
        assert report.line_direction is None

    def test_large_rational_coefficient_needs_no_divisor_search(self, monkeypatch):
        # II is quadratic, so its roots come from the quadratic formula and
        # the divisor search on the cleared coefficients never runs.
        def refuse(n):
            raise AssertionError(f"divisor search on {n}")

        monkeypatch.setattr(flecnodal, "_divisors", refuse)
        F = R.parse(
            "-324781/3125*x^5 - 2*x^3*y^2 - x^2*y^3 - 4*x^3*y*z - 2*y*z^4"
            " + 7*x^3*z*w + 8*x*w^4"
        )
        report = max_contact_order(F, R.point([5, -8, -7, -9]))
        assert report.order is ContactOrder.THREE
        assert report.line_direction is None

    def test_quadratic_roots_in_rational_root_search_order(self):
        # Multiplying a quadratic by a third linear factor sends it through
        # the divisor search (no root may be 0, which that search splits off),
        # which must list the quadratic's roots in the order the quadratic
        # formula does.
        rng = random.Random(71)
        nonzero = [v for v in range(-12, 13) if v]
        for _ in range(200):
            r1, r2, extra = (
                Fraction(rng.choice(nonzero), rng.randint(1, 6)) for _ in range(3)
            )
            if extra in (r1, r2):
                continue
            scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            quad = [scale * r1 * r2, -scale * (r1 + r2), scale]
            cubic = [
                -extra * quad[0],
                quad[0] - extra * quad[1],
                quad[1] - extra * quad[2],
                quad[2],
            ]
            roots = flecnodal._univariate_field_roots(quad, QQ)
            searched = flecnodal._univariate_field_roots(cubic, QQ)
            assert roots == [r for r in searched if r != extra]
            assert sorted(roots) == sorted({r1, r2})

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            max_contact_order(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1]))

    @pytest.mark.parametrize(
        "field",
        [
            QQ,
            pytest.param(
                PrimeField(1048583),
                marks=pytest.mark.xfail(
                    strict=True, reason="no root search for degree >= 3 over GF(p)"
                ),
            ),
        ],
        ids=repr,
    )
    def test_line_from_the_cubic_stratum(self, field):
        # II vanishes, so the line must come from the roots of the cubic
        # III = u^3 - u v^2.  Over Q the rational root search finds (0 : 1),
        # the line towards (0 : 1 : 0 : 0); over GF(p) nothing is searched
        # and the report is GE4.
        ring = PolyRing(("x", "y", "z", "w"), field)
        report = max_contact_order(ring.parse("z*w^2 + x^3 - x*y^2"), ring.point([0, 0, 0, 1]))
        assert report.ii.is_zero
        assert report.order is ContactOrder.INFINITE
        assert report.line_direction == ring.point([0, 1, 0, 0])

    def test_direct_line_search_agrees(self):
        # Independent route: scan rational tangent directions; any contact
        # of order >= 4 must be matched by the resultant criterion.
        rng = random.Random(67)
        for F, q in ((DIAG, R.point([1, 1, 1, 1])), (FERMAT, R.point([3, 4, 5, -6]))):
            report = max_contact_order(F, q)
            plane = tangent_hyperplane(F, q)
            coeffs = [
                plane.coefficient(tuple(1 if i == j else 0 for i in range(4)))
                for j in range(4)
            ]
            pivot = next(j for j, c in enumerate(coeffs) if c)
            found_ge4 = False
            for _ in range(60):
                coords = [Fraction(rng.randint(-6, 6)) for _ in range(4)]
                residue = sum(c * x for c, x in zip(coeffs, coords))
                coords[pivot] = coords[pivot] - residue / coeffs[pivot]
                if not any(coords):
                    continue
                b = R.point(coords)
                if b == q:
                    continue
                if line_multiplicity(F, q, b).multiplicity >= 4:
                    found_ge4 = True
            if report.order is ContactOrder.THREE:
                assert not found_ge4


class TestMembership:
    def test_fermat_line_points(self):
        # >= 10 rational points on lines of the Fermat cubic; all flecnodal.
        points = [
            (1, -1, 1, -1), (1, -1, 2, -2), (1, -1, 3, -3), (1, -1, 5, -5),
            (2, -2, 1, -1), (1, -1, 0, 0), (0, 0, 1, -1), (1, -1, 7, -7),
            (3, -3, 2, -2), (5, -5, 1, -1), (1, -1, -4, 4),
        ]
        assert len(points) >= 10
        for coords in points:
            assert flecnodal_member(FERMAT, R.point(coords))

    def test_generic_point_rejected(self):
        assert not flecnodal_member(DIAG, R.point([1, 1, 1, 1]))

    def test_ruled_surface_everywhere_flecnodal(self):
        rng = random.Random(71)
        for _ in range(10):
            a = Fraction(rng.choice([v for v in range(-5, 6) if v]))
            b, c = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            assert flecnodal_member(RULED_QUADRIC, R.point([a, b, c, b * c / a]))

    def test_ruled_cubic_everywhere_flecnodal(self):
        # y^2 w = x^2 z is ruled by the lines {x = L y, w = L^2 z}; every
        # smooth point lies on one of them.  The quotient test on theta
        # still detects ruledness, while the printed covariant combination
        # is inhomogeneous and only the contact criterion is authoritative.
        ruled_cubic = R.parse("y^2*w - x^2*z")
        rng = random.Random(79)
        for _ in range(8):
            lam = Fraction(rng.randint(-4, 4))
            s = Fraction(rng.choice([v for v in range(-4, 5) if v]))
            t = Fraction(rng.choice([v for v in range(-4, 5) if v]))
            point = R.point([lam * s, s, t, lam * lam * t])
            assert flecnodal_member(ruled_cubic, point)
        pair = flecnodal_covariants(ruled_cubic)
        assert exact_div(pair.theta, ruled_cubic).total_degree() == 4

    def test_membership_matches_contact_order(self):
        for F, coords in (
            (FERMAT, (1, -1, 1, -1)),
            (FERMAT, (3, 4, 5, -6)),
            (DIAG, (1, 1, 1, 1)),
            (DIAG, (4, 4, -5, 1)),
        ):
            q = R.point(coords)
            member = flecnodal_member(F, q)
            order = max_contact_order(F, q).order
            assert member == (order in (ContactOrder.GE4, ContactOrder.INFINITE))
