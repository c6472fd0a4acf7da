"""Hessians, fundamental forms, and the parabolic classification."""

import random
from fractions import Fraction

import pytest

from polarcalc.curvature import (
    SurfacePointKind,
    classify_surface_point,
    hessian_determinant,
    second_fundamental_form,
)
from polarcalc.linalg import scalar_determinant
from polarcalc.polarity import gradient_at, polar_kic
from polarcalc.polyring import (
    INFINITY,
    QQ,
    DomainError,
    PolyRing,
    PrimeField,
    coefficients_in,
    determinant,
)
from polarcalc.randomchecks import random_homogeneous, random_point, surface_through

R = PolyRing()
FERMAT = R.parse("x^3 + y^3 + z^3 + w^3")
DIAG = R.parse("x^3 + y^3 + z^3 - 3*w^3")
RULED_QUADRIC = R.parse("x*w - y*z")

ROUND_CUBIC = R.parse("w^2*z + w*x^2 + w*y^2")
FOLD_CUBIC = R.parse("w^2*z + w*x^2")
QUARTIC = R.parse("x^4 + y^4 + z^4 - 3*w^4")

TEST_SURFACES = [FERMAT, DIAG, RULED_QUADRIC, ROUND_CUBIC, FOLD_CUBIC, QUARTIC]


class TestHessian:
    def test_fermat(self):
        H = hessian_determinant(FERMAT)
        assert H == R.parse("1296*x*y*z*w")
        assert H.total_degree() == 4  # (N+1)(n-2) at N=3, n=3

    def test_smooth_quadric_constant(self):
        H = hessian_determinant(R.parse("x^2 + y^2 + z^2 + w^2"))
        assert H == R.const(16)

    def test_cone_degenerates(self):
        assert hessian_determinant(R.parse("x^2 + y^2 - z^2")).is_zero

    def test_degree_too_small(self):
        with pytest.raises(DomainError):
            hessian_determinant(R.parse("x + y"))

    def test_bordered_identity_random(self):
        # X0^2 Hess(F) = (d-1)^2 det(bordered matrix with corner d/(d-1) F)
        rng = random.Random(13)
        cases = []
        for nvars in (3, 4):
            ring = PolyRing(("x", "y", "z", "w")[:nvars])
            for d in (3, 4, 5):
                for _ in range(4):
                    cases.append((ring, random_homogeneous(ring, d, rng, 5)))
        assert len(cases) >= 20
        for ring, F in cases:
            d = F.total_degree()
            names = ring.variables
            partials = [F.partial(v) for v in names[1:]]
            corner = F * Fraction(d, d - 1)
            bordered = [[corner] + partials]
            for i, p in enumerate(partials):
                bordered.append([p] + [p.partial(v) for v in names[1:]])
            lhs = ring.var(names[0]) ** 2 * hessian_determinant(F)
            rhs = (d - 1) ** 2 * determinant(bordered)
            assert lhs == rhs


class TestSecondFundamentalForm:
    def test_round_normal_form(self):
        form = second_fundamental_form(R.parse("w^2*z + w*x^2 + w*y^2"), R.point([0, 0, 0, 1]))
        assert form.matrix == ((1, 0), (0, 1))
        assert form.rank == 2

    def test_rank_one(self):
        form = second_fundamental_form(R.parse("w^2*z + w*x^2"), R.point([0, 0, 0, 1]))
        assert form.matrix == ((1, 0), (0, 0))
        assert form.rank == 1

    def test_zero_form(self):
        form = second_fundamental_form(R.parse("w^2*z + x^3"), R.point([0, 0, 0, 1]))
        assert form.rank == 0
        assert all(not x for row in form.matrix for x in row)

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            second_fundamental_form(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1]))

    def test_frame_columns(self):
        # (3 : 4 : 5 : -6) pivots on x, then on y, the first other index with
        # a nonzero partial; z keeps its slot, w takes y's, and the last
        # column is e_y / F_y = e_y / 48.
        form = second_fundamental_form(FERMAT, R.point([3, 4, 5, -6]))
        assert form.frame == (
            (3, 0, 0, 0),
            (4, Fraction(-9, 4), Fraction(-25, 16), Fraction(1, 48)),
            (5, 0, 1, 0),
            (-6, 1, 0, 0),
        )
        assert form.tangent_basis == (R.point([0, -9, 0, 4]), R.point([0, -25, 16, 0]))

    def test_normal_form_factorization(self):
        # Hess of the normalized equation at the point splits into the
        # 2x2 corner block [[0, d-1], [d-1, 2 a_nn]] times det(2 a_ij).
        rng = random.Random(19)
        count = 0
        for F in TEST_SURFACES:
            d = F.total_degree()
            for _ in range(8):
                p = _random_smooth_point(F, rng)
                if p is None:
                    continue
                form = second_fundamental_form(F, p)
                count += 1
                hess_value = hessian_determinant(chart_equation(F, form)).evaluate(
                    [1] + [0] * 3
                )
                a_nn = form.quadratic[2][2]
                corner = scalar_determinant(
                    QQ, [[QQ.zero, QQ.coerce(d - 1)], [QQ.coerce(d - 1), 2 * a_nn]]
                )
                block = scalar_determinant(
                    QQ, [[2 * x for x in row] for row in form.matrix]
                )
                assert hess_value == corner * block
        assert count >= 20

    def test_rank_deficiency_matches_hessian_vanishing(self):
        rng = random.Random(29)
        samples = 0
        for F in TEST_SURFACES:
            H = hessian_determinant(F)
            for _ in range(30):
                p = _random_smooth_point(F, rng)
                if p is None:
                    continue
                samples += 1
                form = second_fundamental_form(F, p)
                hess_at_p = H.evaluate(list(p.coords))
                assert (form.rank < 2) == (not hess_at_p)
        assert samples >= 100

    def test_polar_quadric_restriction_is_the_form(self):
        # The polar quadric cut by the tangent plane completes the form:
        # in the normalized frame, restricting X_n -> 0 leaves 2 sum a_ij Xi Xj.
        rng = random.Random(43)
        done = 0
        for F in (FERMAT, DIAG, R.parse("x^4 + y^4 + z^4 + w^4")):
            for _ in range(6):
                p = _random_smooth_point(F, rng)
                if p is None:
                    continue
                done += 1
                form = second_fundamental_form(F, p)
                chart = F.ring
                base = chart.point([1, 0, 0, 0])
                quadric = polar_kic(chart_equation(F, form), base, 2)
                gens = dict(zip(chart.variables, chart.gens()))
                gens[chart.variables[3]] = chart.zero()
                restricted = quadric.substitute(gens, into=chart)
                expected = chart.zero()
                for i in range(1, 3):
                    for j in range(1, 3):
                        coeff = form.quadratic[i - 1][j - 1]
                        if coeff:
                            expected = expected + 2 * coeff * gens_at(chart, i) * gens_at(chart, j)
                assert restricted == expected
        assert done >= 10

    @pytest.mark.parametrize("field", [QQ, PrimeField(1048583)], ids=["QQ", "GFp"])
    def test_frame_and_form_match_the_chart_expansion(self, field):
        # Expanding F in the chart x = frame . v must give v0^(d-1) vN as
        # the linear stratum, and half the second partials of the
        # v0^(d-2) coefficient must be the recorded quadratic.
        rng = random.Random(61)
        ring = PolyRing(("x", "y", "z", "w"), field)
        x, y, z, w = ring.gens()
        checked = 0
        for d in range(2, 7):
            for trial in range(8):
                if trial % 4 == 3:
                    # The tangent plane {z = 0} at (0:0:0:1) puts the
                    # frame's second pivot on the last remaining index.
                    first, second = (
                        sum((g * field.random(rng) for g in (x, y, z)), ring.zero())
                        for _ in range(2)
                    )
                    F = w ** (d - 1) * z + first * second * random_homogeneous(ring, d - 2, rng)
                    p = ring.point([0, 0, 0, 1])
                else:
                    coords = list(random_point(ring, rng).coords)
                    for i in rng.sample(range(4), rng.randint(0, 2)):
                        coords[i] = field.zero
                    if not any(coords):
                        continue
                    p = ring.point(coords)
                    F = surface_through(ring, p, d, rng)
                if not any(gradient_at(F, p)):
                    continue
                form = second_fundamental_form(F, p)
                strata = coefficients_in(chart_equation(F, form), "x")
                assert max(strata) == d - 1
                assert strata[d - 1] == w
                small = strata.get(d - 2, ring.zero())
                quad = tuple(
                    tuple(field.div(small.partial(a).partial(b).constant_value(), 2)
                          for b in "yzw")
                    for a in "yzw"
                )
                assert quad == form.quadratic
                checked += 1
        assert checked >= 30


def chart_equation(F, form):
    """F in the chart x = frame . v of the form, written in F's own variables."""
    names = F.ring.variables
    units = [tuple(int(i == k) for i in range(len(names))) for k in range(len(names))]
    images = {name: F.ring.from_terms(zip(units, row)) for name, row in zip(names, form.frame)}
    return F.substitute(images, into=F.ring)


def gens_at(ring, i):
    return ring.var(ring.variables[i])


# Known rational points on the fixed test cubics and the quartic; the
# graph-shaped surfaces below get parametrized samplers instead.
_KNOWN_POINTS = {
    str(FERMAT): [
        (3, 4, 5, -6), (1, 6, 8, -9), (3, 10, 18, -19), (2, 17, 40, -41),
        (4, 17, 22, -25), (9, 10, -1, -12), (1, -1, 2, -2), (7, 14, 17, -20),
    ],
    str(DIAG): [
        (1, 1, 1, 1), (4, 4, -5, 1), (4, -5, 4, 1), (-5, 4, 4, 1),
        (8, 8, -10, 2),
    ],
    str(QUARTIC): [
        (1, 1, 1, 1), (1, -1, 1, 1), (-1, 1, 1, 1), (1, 1, -1, 1),
        (1, -1, -1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1), (-1, -1, -1, 1),
    ],
}


def _random_smooth_point(F, rng, attempts=60):
    """A rational smooth point of V(F): parametrized families where the
    surface is a graph, known points plus scanning otherwise."""
    ring = F.ring
    if F == RULED_QUADRIC:
        a = Fraction(rng.choice([v for v in range(-5, 6) if v]))
        b, c = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        return ring.point([a, b, c, b * c / a])
    if F in (ROUND_CUBIC, FOLD_CUBIC):
        c = Fraction(rng.choice([v for v in range(-5, 6) if v]))
        a = Fraction(rng.randint(-5, 5))
        b = Fraction(rng.randint(-5, 5))
        if F == FOLD_CUBIC and rng.random() < 0.4:
            a = Fraction(0)  # parabolic stratum of the fold surface
        numer = a * a + b * b if F == ROUND_CUBIC else a * a
        return ring.point([a, b, -numer / c, c])
    known = _KNOWN_POINTS.get(str(F), [])
    if known and rng.random() < 0.5:
        sign = rng.choice([1, -1])
        coords = [Fraction(sign * v) for v in rng.choice(known)]
        point = ring.point(coords)
        if any(gradient_at(F, point)):
            return point
    for _ in range(attempts):
        coords = [Fraction(rng.randint(-6, 6)) for _ in range(4)]
        if not any(coords) or F.evaluate(coords):
            continue
        point = ring.point(coords)
        if any(gradient_at(F, point)):
            return point
    if known:
        return ring.point([Fraction(v) for v in rng.choice(known)])
    return None


class TestClassification:
    def test_fermat_special_point_is_planar(self):
        # (1 : -1 : 0 : 0) lies on a line of the cubic and on two Hessian
        # planes; the whole tangent section degenerates to three lines
        # through the point, so the form vanishes identically there.
        cls = classify_surface_point(FERMAT, R.point([1, -1, 0, 0]))
        assert cls.kind is SurfacePointKind.PLANAR_II_ZERO
        assert cls.asymptotic.all_tangent_directions

    def test_diag_cubic_general_point(self):
        cls = classify_surface_point(DIAG, R.point([1, 1, 1, 1]))
        assert cls.kind is SurfacePointKind.NON_PARABOLIC
        assert hessian_determinant(DIAG).evaluate([1, 1, 1, 1]) == -3888
        # irrational asymptotic directions: certified by the discriminant
        assert cls.asymptotic.discriminant
        assert not QQ.is_square(cls.asymptotic.discriminant)
        assert cls.asymptotic.directions == ()

    def test_parabolic_rank_one(self):
        cls = classify_surface_point(R.parse("w^2*z + w*x^2"), R.point([0, 0, 0, 1]))
        assert cls.kind is SurfacePointKind.PARABOLIC_RANK1
        assert len(cls.asymptotic.directions) == 1
        assert cls.asymptotic.directions[0] == R.point([0, 1, 0, 0])
        assert cls.asymptotic.contacts[0] >= 3

    def test_ruled_quadric_two_rulings(self):
        cls = classify_surface_point(RULED_QUADRIC, R.point([1, 0, 0, 0]))
        assert cls.kind is SurfacePointKind.NON_PARABOLIC
        assert len(cls.asymptotic.directions) == 2
        assert all(c == INFINITY for c in cls.asymptotic.contacts)

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            classify_surface_point(R.parse("y^2*w - x^3"), R.point([0, 0, 0, 1]))

    def test_classification_over_prime_field(self):
        # 2 is a quadratic residue mod 2^20 + 7, so the asymptotic roots of
        # w^2 z + w(x^2 - 2 y^2) at the base point exist in the field and
        # go through the modular square-root ladder.
        from polarcalc.polyring import PrimeField

        field = PrimeField(1048583)
        ring = PolyRing(("x", "y", "z", "w"), field)
        F = ring.parse("w^2*z + w*x^2 - 2*w*y^2")
        cls = classify_surface_point(F, ring.point([0, 0, 0, 1]))
        assert cls.kind is SurfacePointKind.NON_PARABOLIC
        assert len(cls.asymptotic.directions) == 2
        assert field.is_square(cls.asymptotic.discriminant)

    def test_parabolic_point_over_prime_field(self):
        # a, r, b = 1, 2000, 2000^2 mod p: r^2 - ab is a nonzero multiple of p
        # until it is reduced, and the one asymptotic direction is double.
        field = PrimeField(1048583)
        ring = PolyRing(("x", "y", "z", "w"), field)
        F = ring.parse("w^2*z + w*x^2 + 4000*w*x*y + 4000000*w*y^2")
        cls = classify_surface_point(F, ring.point([0, 0, 0, 1]))
        assert cls.kind is SurfacePointKind.PARABOLIC_RANK1
        assert cls.asymptotic.discriminant == 0
        assert len(cls.asymptotic.directions) == 1

    def test_frame_over_prime_field_is_reduced(self):
        field = PrimeField(1048583)
        ring = PolyRing(("x", "y", "z", "w"), field)
        rng = random.Random(67)
        checked = 0
        for _ in range(20):
            p = random_point(ring, rng)
            F = surface_through(ring, p, 3, rng)
            if not any(gradient_at(F, p)):
                continue
            frame = second_fundamental_form(F, p).frame
            assert all(0 <= x < field.p for row in frame for x in row)
            checked += 1
        assert checked >= 10

    def test_non_asymptotic_directions_have_contact_two(self):
        from polarcalc.polarity import line_multiplicity, tangent_hyperplane

        rng = random.Random(53)
        checked = 0
        for F in (FERMAT, DIAG):
            for _ in range(20):
                p = _random_smooth_point(F, rng)
                if p is None:
                    continue
                cls = classify_surface_point(F, p)
                if cls.kind is not SurfacePointKind.NON_PARABOLIC:
                    continue
                plane = tangent_hyperplane(F, p)
                # random tangent directions spanning a non-asymptotic line
                for _ in range(5):
                    b = _random_tangent_direction(plane, p, rng)
                    if b is None or any(
                        _same_line(p, b, d) for d in cls.asymptotic.directions
                    ):
                        continue
                    report = line_multiplicity(F, p, b)
                    assert report.multiplicity == 2
                    checked += 1
        assert checked >= 10


def _same_line(p, b, d):
    from polarcalc.linalg import rank

    rows = [list(p.coords), list(b.coords), list(d.coords)]
    return rank(QQ, rows) <= 2


def _random_tangent_direction(plane, p, rng):
    ring = plane.ring
    coeffs = [plane.coefficient(tuple(1 if i == j else 0 for i in range(4))) for j in range(4)]
    pivot = next((j for j, c in enumerate(coeffs) if c), None)
    if pivot is None:
        return None
    coords = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
    residue = sum(c * x for c, x in zip(coeffs, coords))
    coords[pivot] = coords[pivot] - residue / coeffs[pivot]
    if not any(coords):
        return None
    b = ring.point(coords)
    return None if b == p else b
