"""Kernel tests: parser, exact arithmetic, determinants, resultants."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import polarcalc
from polarcalc.polyring import (
    INFINITY,
    QQ,
    DomainError,
    ParseError,
    PolyRing,
    PrimeField,
    determinant,
    exact_div,
    resultant,
    valuation,
    _det_bareiss,
    _det_cofactor,
)

R = PolyRing()
GF = PrimeField(1048583)


class TestParser:
    def test_fermat_cubic(self):
        F = R.parse("x^3 + y^3 + z^3 + w^3")
        assert F.total_degree() == 3
        assert F.is_homogeneous()
        assert len(F.terms) == 4

    def test_cancellation_to_zero(self):
        F = R.parse("x^2 - x^2")
        assert F.is_zero
        assert F.is_homogeneous()  # vacuously
        with pytest.raises(DomainError):
            F.total_degree()

    def test_mixed_degrees(self):
        F = R.parse("1/2*y^2 + y*x^2")
        assert len(F.terms) == 2
        assert not F.is_homogeneous()

    def test_aliases_and_unicode_minus(self):
        assert R.parse("x0^2 − x1^2") == R.parse("x^2 - y^2")

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            R.parse("x + q")
        assert err.value.position == 4

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            R.parse("x^3 +")
        with pytest.raises(ParseError):
            R.parse("3 x")  # implicit multiplication is not in the grammar

    def test_rational_coefficient(self):
        F = R.parse("2/4*x")
        assert F.coefficient((1, 0, 0, 0)) == Fraction(1, 2)

    def test_roundtrip_printing(self):
        texts = [
            "x^3 + y^3 + z^3 + w^3",
            "-4*x^3*y^2 + 16*x^4*z",
            "1/2*y^2 + y*x^2 - 7",
            "0",
            "x*y*z*w",
        ]
        for text in texts:
            F = R.parse(text)
            assert R.parse(str(F)) == F

    def test_roundtrip_random(self):
        rng = random.Random(83)
        from polarcalc.randomchecks import random_homogeneous

        for field in (QQ, GF):
            ring = PolyRing(("x", "y", "z", "w"), field)
            for _ in range(40):
                F = random_homogeneous(ring, rng.randint(1, 5), rng)
                if field is QQ and rng.random() < 0.5:
                    F = F / rng.randint(2, 7)
                assert ring.parse(str(F)) == F


class TestArithmetic:
    def test_product_difference_of_squares(self):
        x, y, z, w = R.gens()
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_square(self):
        x, y, z, w = R.gens()
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2

    def test_add_to_zero(self):
        x, *_ = R.gens()
        assert (x ** 3 + (-(x ** 3))).is_zero

    def test_mismatched_rings(self):
        other = PolyRing(("a", "b"))
        with pytest.raises(DomainError):
            R.gens()[0] + other.gens()[0]

    def test_negative_power(self):
        with pytest.raises(DomainError):
            R.gens()[0] ** -1

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for field in (QQ, GF):
            ring = PolyRing(("x", "y", "z"), field)
            monos = [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 0, 0)]
            def rand_poly():
                out = ring.zero()
                for e in rng.sample(monos, 4):
                    out = out + ring.monomial(e, field.random(rng))
                return out
            for _ in range(100):
                a, b, c = rand_poly(), rand_poly(), rand_poly()
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c

    def test_euler_identity_random(self):
        rng = random.Random(2)
        from polarcalc.randomchecks import random_homogeneous

        for _ in range(25):
            d = rng.randint(1, 5)
            F = random_homogeneous(R, d, rng)
            total = R.zero()
            for v in R.variables:
                total = total + R.var(v) * F.partial(v)
            assert total == d * F


class TestCalculus:
    def test_partial(self):
        assert R.parse("x^3 + y^3").partial("x") == R.parse("3*x^2")
        assert R.parse("x^3+y^3+z^3-3*w^3").partial("w") == R.parse("-9*w^2")

    def test_partial_of_constant(self):
        assert R.const(5).partial("x").is_zero

    def test_euler_sum_fermat(self):
        F = R.parse("x^3 + y^3 + z^3 + w^3")
        total = R.zero()
        for v in R.variables:
            total = total + R.var(v) * F.partial(v)
        assert total == 3 * F

    def test_substitute_line_restriction(self):
        line = PolyRing(("T",))
        T = line.var("T")
        F = R.parse("x^3 + y^3 + z^3 + w^3")
        restricted = F.substitute(
            {"x": line.one(), "y": line.const(-1), "z": T, "w": line.zero()}
        )
        assert restricted == T ** 3

    def test_substitute_hand_expansion(self):
        line = PolyRing(("T",))
        T = line.var("T")
        F = R.parse("x^3 + y^3 + z^3 - 3*w^3")
        restricted = F.substitute(
            {"x": line.one() + T, "y": line.one() - T, "z": line.one(), "w": line.one()}
        )
        assert restricted == 6 * T ** 2

    def test_substitute_identity(self):
        F = R.parse("x^2*y - 3*w^3 + 1/5*z^3")
        gens = dict(zip(R.variables, R.gens()))
        assert F.substitute(gens) == F

    def test_substitute_unassigned(self):
        with pytest.raises(DomainError):
            R.parse("x + y").substitute({"x": R.var("x")})

    def test_homogeneous_components_of_zero(self):
        assert R.zero().homogeneous_components() == []

    def test_homogeneous_components_split(self):
        parts = R.parse("3 + x*y - z^3 + 2*x*w^2 + y").homogeneous_components()
        assert parts == [R.const(3), R.parse("y"), R.parse("x*y"), R.parse("-z^3 + 2*x*w^2")]

    def test_homogeneous_components_random(self):
        rng = random.Random(5)
        for field in (QQ, GF):
            ring = PolyRing(("x", "y", "z", "w"), field)
            for _ in range(40):
                f = ring.zero()
                for _ in range(rng.randint(1, 8)):
                    exps = [rng.randint(0, 3) for _ in range(4)]
                    f = f + ring.monomial(exps, field.random(rng))
                parts = f.homogeneous_components()
                assert sum(parts, ring.zero()) == f
                for k, part in enumerate(parts):
                    assert part.is_zero or (part.is_homogeneous() and part.total_degree() == k)
                if not f.is_zero:
                    assert len(parts) == f.total_degree() + 1


def test_term_layout_stays_inside_the_kernel():
    """Only polyring.py reads the term dict, the variable index or the cofactor helper."""
    paths = sorted(Path(polarcalc.__file__).parent.glob("*.py"))
    assert "polyring.py" in [path.name for path in paths]
    pattern = re.compile(r"\.terms\b|\._index\b|_det_cofactor")
    offenders = [
        f"{path.name}:{number}"
        for path in paths
        if path.name != "polyring.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


class TestDeterminant:
    def test_diagonal(self):
        x, y, z, w = R.gens()
        m = [[R.zero()] * 4 for _ in range(4)]
        for i, g in enumerate((x, y, z, w)):
            m[i][i] = 6 * g
        assert determinant(m) == 1296 * x * y * z * w

    def test_two_by_two(self):
        ring = PolyRing(("a", "b", "r"))
        a, b, r = ring.gens()
        assert determinant([[a, r], [r, b]]) == a * b - r * r

    def test_repeated_rows(self):
        x, y, *_ = R.gens()
        assert determinant([[x, y], [x, y]]).is_zero

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(7)
        from polarcalc.randomchecks import random_homogeneous

        ring = PolyRing(("x", "y"))
        for size in (2, 3, 4):
            for _ in range(5):
                m = [
                    [random_homogeneous(ring, rng.randint(0, 2), rng, 3) for _ in range(size)]
                    for _ in range(size)
                ]
                assert _det_bareiss(m) == _det_cofactor(m)

    def test_bareiss_with_zero_pivot(self):
        ring = PolyRing(("x",))
        x = ring.var("x")
        zero, one = ring.zero(), ring.one()
        m = [
            [zero, x, one, one, one],
            [x, zero, one, one, one],
            [one, one, x, zero, zero],
            [one, one, zero, x, zero],
            [one, one, zero, zero, x],
        ]
        assert _det_bareiss(m) == _det_cofactor(m)

    def test_exact_div(self):
        x, y, z, w = R.gens()
        f = (x + y) * (x ** 2 - y * z + w ** 2)
        assert exact_div(f, x + y) == x ** 2 - y * z + w ** 2
        with pytest.raises(DomainError):
            exact_div(x ** 2 + y, x + y)


class TestResultant:
    def test_sylvester_direct(self):
        ring = PolyRing(("x", "a"))
        x, a = ring.gens()
        # Res_x(x^2 - a, 2x) from the 3x3 Sylvester layout by hand:
        # | 1 0 -a |
        # | 2 0  0 |
        # | 0 2  0 | = -4a
        assert resultant(x ** 2 - a, 2 * x, "x") == -4 * a

    def test_linear_case(self):
        ring = PolyRing(("x", "u", "v"))
        x, u, v = ring.gens()
        assert resultant(x - u, x - v, "x") == u - v

    def test_common_factor_vanishes(self):
        ring = PolyRing(("x", "a"))
        x, a = ring.gens()
        f = x ** 2 + a * x + 1
        assert resultant(f, f, "x").is_zero

    def test_zero_inputs_rejected(self):
        ring = PolyRing(("x", "a"))
        x, a = ring.gens()
        with pytest.raises(DomainError):
            resultant(ring.zero(), x, "x")
        with pytest.raises(DomainError):
            resultant(a, a + 1, "x")

    def test_multiplicativity_random(self):
        rng = random.Random(31)
        ring = PolyRing(("x",))
        x = ring.var("x")

        def rand_univ(deg):
            out = ring.monomial((deg,), rng.randint(1, 4))
            for k in range(deg):
                out = out + ring.monomial((k,), rng.randint(-4, 4))
            return out

        for _ in range(20):
            f = rand_univ(rng.randint(1, 3))
            g = rand_univ(rng.randint(1, 2))
            h = rand_univ(rng.randint(1, 2))
            lhs = resultant(f, g * h, "x").constant_value()
            rhs = (resultant(f, g, "x") * resultant(f, h, "x")).constant_value()
            assert lhs == rhs or lhs == -rhs


class TestValuation:
    def test_examples(self):
        line = PolyRing(("T",))
        T = line.var("T")
        assert valuation(T ** 3 + 2 * T ** 4) == 3
        assert valuation(line.zero()) == INFINITY
        assert valuation(6 * T ** 2) == 2

    def test_additive_random(self):
        rng = random.Random(17)
        line = PolyRing(("T",))
        T = line.var("T")

        def rand_series():
            if rng.random() < 0.1:
                return line.zero()
            v = rng.randint(0, 4)
            out = line.monomial((v,), rng.randint(1, 5))
            for k in range(v + 1, v + 3):
                out = out + line.monomial((k,), rng.randint(-3, 3))
            return out

        for _ in range(50):
            f, g = rand_series(), rand_series()
            assert valuation(f * g) == valuation(f) + valuation(g)

    def test_univariate_enforced(self):
        x, y, *_ = R.gens()
        with pytest.raises(DomainError):
            valuation(x + y)


class TestProjPoint:
    def test_equality_up_to_scale(self):
        assert R.point([1, -1, 0, 0]) == R.point([-2, 2, 0, 0])
        assert R.point([1, 0, 0, 0]) != R.point([0, 1, 0, 0])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            R.point([0, 0, 0, 0])


class TestPrimeField:
    def test_primality_enforced(self):
        with pytest.raises(DomainError):
            PrimeField(1048576)

    def test_sqrt(self):
        field = PrimeField(1048583)
        for v in (4, 9, 12345):
            sq = field.coerce(v * v)
            root = field.sqrt(sq)
            assert root * root == sq
        assert field.is_square(field.coerce(4))

    def test_fraction_coercion(self):
        field = PrimeField(101)
        half = field.coerce(Fraction(1, 2))
        assert half + half == field.one
