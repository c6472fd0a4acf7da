"""Kernel tests: parser, exact arithmetic, determinants, resultants."""

import ast
import collections
import contextlib
import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not every platform has it
    resource = None

import polarcalc
from polarcalc import linalg, polyring
from polarcalc.cli import main
from polarcalc.polyring import (
    INFINITY,
    QQ,
    DomainError,
    ParseError,
    Poly,
    PolyRing,
    PrimeField,
    coefficients_in,
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

    @pytest.mark.parametrize("text, message, position", [
        pytest.param("x + $y", "unexpected character '$'", 4, id="character"),
        pytest.param("x + " + "1" * 5000, "integer of 5000 digits is too long", 4, id="long-integer"),
        pytest.param("x + q", "unknown variable 'q'", 4, id="variable"),
        pytest.param("x^y", "exponent must be a natural number", 2, id="exponent"),
        pytest.param("1/0 + x", "denominator must be a positive integer", 2, id="denominator"),
        pytest.param("2*3", "expected a variable after '*'", 2, id="after-star"),
        pytest.param("x^3 +", "expected a term", 5, id="term"),
        # implicit multiplication is not in the grammar
        pytest.param("3 x", "expected '+' or '-', found 'x'", 2, id="sign"),
    ])
    def test_error_messages_and_positions(self, text, message, position):
        with pytest.raises(ParseError) as err:
            R.parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_degree_error_before_coefficient_error(self):
        ring = PolyRing(field=PrimeField(7))
        with pytest.raises(DomainError, match="exceeds the limit"):
            ring.parse("1/7*x^4294967296")
        with pytest.raises(DomainError, match="denominator divisible by the modulus"):
            ring.parse("x + 1/7*x^2")

    def test_like_terms_combine(self):
        assert R.parse("x*x + 2*y*x*y - y*x^0*y*x") == R.parse("x^2 + x*y^2")
        assert str(R.parse("1/2*x - 1/2*x + 3")) == "3"
        assert type(R.parse("1/2 - 1/2 + 3").constant_value()) is int

    def test_one_poly_per_parse(self, monkeypatch):
        built = []
        init = Poly.__init__

        def counting(self, ring, terms):
            built.append(terms)
            init(self, ring, terms)

        monkeypatch.setattr(Poly, "__init__", counting)
        F = R.parse("x^2 - 3/2*x*y + y^2 - x^2 + 7")
        assert len(built) == 1
        assert str(F) == "-3/2*x*y + y^2 + 7"

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

    PIECES = ["x", "y", "w", "x0", "x3", "q", "xy", "0", "1", "7", "12", "4294967296", "^", "*", "/",
              "+", "-", "−", "(", " ", "\t", "$", ".", "é", "٣"]

    def test_any_text_parses_or_raises_a_parse_or_domain_error(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        rings = (R, PolyRing(field=PrimeField(7)))

        @settings(derandomize=True, database=None, max_examples=200, deadline=None)
        @given(st.lists(st.sampled_from(self.PIECES), max_size=14).map("".join))
        def check(text):
            for ring in rings:
                try:
                    assert isinstance(ring.parse(text), Poly)
                except (ParseError, DomainError):
                    pass

        check()

    def test_printed_forms_parse_back(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st
        from polarcalc.randomchecks import random_homogeneous

        rings = (R, PolyRing(field=GF))

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(st.integers(0, 2**32), st.integers(0, 6), st.integers(1, 20), st.integers(1, 9))
        def check(seed, degree, terms, divisor):
            for ring in rings:
                F = random_homogeneous(ring, degree, random.Random(seed), terms) / divisor
                assert ring.parse(str(F)) == F

        check()


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

    def test_equal_but_distinct_rings_are_accepted(self):
        twin = PolyRing()
        assert twin is not R
        F, G = R.parse("x^2 - y*z"), twin.parse("x - w")
        assert F + G == G + F == R.parse("x^2 - y*z + x - w")
        assert F - G == twin.parse("x^2 - y*z - x + w")
        assert F * G == twin.parse("x^3 - x^2*w - x*y*z + y*z*w")
        assert exact_div(F * G, G) == F
        assert determinant([[F, G], [G, F]]) == F * F - G * G
        assert resultant(F, G, "x") == twin.parse("w^2 - y*z")
        line = PolyRing(("T",))
        T, twin_line = line.var("T"), PolyRing(("T",))
        assert F.substitute({"x": T, "y": twin_line.one(), "z": T, "w": T}) == twin_line.parse("T^2 - T")

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


class TestScalarOperands:
    """An int or Fraction operand, and a difference, build only the result.

    Each result equals the composite route through a constant Poly and a
    negated temporary, in value, coefficient type and term order.
    """

    @staticmethod
    def _items(f):
        return [(k, type(c), c) for k, c in f.terms.items()]

    @staticmethod
    def _count_builds(monkeypatch):
        """Every Poly built, through the constructor or by adopting a kernel dict."""
        built = []
        build, adopt = Poly.__init__, polyring._adopt

        def counted(self, ring, terms):
            built.append(ring)
            build(self, ring, terms)

        def adopted(ring, terms):
            built.append(ring)
            return adopt(ring, terms)

        monkeypatch.setattr(Poly, "__init__", counted)
        monkeypatch.setattr(polyring, "_adopt", adopted)
        return built

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_one_poly_per_result(self, field, monkeypatch):
        ring = PolyRing(R.variables, field)
        F, G = ring.parse("3*x^2 - 1/2*y*z + 5 - w"), ring.parse("x^2 + y*z - 5 + 2*z")
        cases = [  # (operator, the composite route it replaces)
            (lambda: F - G, F + (-G)),
            (lambda: 3 - F, ring.const(3) + (-F)),
            (lambda: F * 3, F * ring.const(3)),
            (lambda: F * Fraction(1, 2), F * ring.const(Fraction(1, 2))),
            (lambda: F + 1, F + ring.const(1)),
        ]
        built = self._count_builds(monkeypatch)
        for i, (op, composite) in enumerate(cases):
            built.clear()
            got = op()
            assert len(built) == 1, i
            assert self._items(got) == self._items(composite), i

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_every_operator_matches_the_composite_route(self, field):
        rng = random.Random(19)
        ring = PolyRing(("x", "y"), field)
        monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]

        def coeff():
            return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               Fraction(rng.randint(-3, 3))])

        for _ in range(150):
            F = ring.from_terms((rng.choice(monos), coeff()) for _ in range(rng.randint(0, 4)))
            G = rng.choice([F, -F, ring.from_terms((rng.choice(monos), coeff()) for _ in range(3))])
            c = rng.choice([0, 1, -1, F.coefficient((0, 0)), rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
            const = ring.const(c)
            for got, composite in (
                (F - G, F + (-G)), (G - F, G + (-F)),
                (F + c, F + const), (c + F, F + const), (F - c, F + (-const)),
                (c - F, const + (-F)), (F * c, F * const), (c * F, F * const),
            ):
                assert self._items(got) == self._items(composite)
            assert (F == c) is (F == const) is (c == F)
            assert (F != c) is (F != const)

    def test_a_difference_subtracts_each_fraction_once(self):
        from test_numeric_counts import _fractions_built

        F = R.parse("1/2*x^2 + 2/3*x*y - 5/7*z")
        G = R.parse("1/3*x^2 + 3/4*x*y + 1/7*z")
        assert _fractions_built(lambda: F - G) <= len(G.terms)

    def test_rational_zero_and_one_are_ints(self):
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(R.zero().constant_value()) is int
        F = R.parse("1/2*x + 3/4")
        assert type(F.coefficient((0, 1, 0, 0))) is int


@contextlib.contextmanager
def _address_space_headroom(extra: int):
    """Cap this process's address space at its present size plus extra bytes.

    Where the size cannot be read (no ``resource`` module or no procfs) the
    cap is left off and only the caller's other bounds apply.
    """
    statm = Path("/proc/self/statm")
    if resource is None or not statm.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(statm.read_text().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


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
        assert R.zero().homogeneous_components() == {}

    def test_homogeneous_components_split(self):
        parts = R.parse("3 + x*y - z^3 + 2*x*w^2 + y").homogeneous_components()
        assert parts == {0: R.const(3), 1: R.parse("y"), 2: R.parse("x*y"), 3: R.parse("-z^3 + 2*x*w^2")}
        # Only the nonzero parts, in ascending degree, whatever the term order.
        parts = R.parse("x^7*y - 4 + z^3*w").homogeneous_components()
        assert list(parts.items()) == [(0, R.const(-4)), (4, R.parse("z^3*w")), (8, R.parse("x^7*y"))]

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
                assert sum(parts.values(), ring.zero()) == f
                assert list(parts) == sorted(parts)
                for k, part in parts.items():
                    assert not part.is_zero and part.is_homogeneous() and part.total_degree() == k
                if not f.is_zero:
                    assert max(parts) == f.total_degree()

    def test_parts_cost_the_terms_not_the_degree(self):
        # Total degree 2^31 + 1.  A list of parts as long as the degree would
        # not fit in memory, so the address space is capped while they are built.
        f = R.parse("x^2147483648*y + 3*x^2 + y^7*z - w + 5")
        start = time.perf_counter()
        with _address_space_headroom(256 << 20):
            parts = f.homogeneous_components()
            by_variable = {v: coefficients_in(f, v) for v in R.variables}
        assert time.perf_counter() - start < 0.5
        assert list(parts) == [0, 1, 2, 8, 2 ** 31 + 1]
        assert parts[2 ** 31 + 1] == R.parse("x^2147483648*y")
        assert {v: list(c) for v, c in by_variable.items()} == {
            "x": [0, 2, 2 ** 31], "y": [0, 1, 7], "z": [0, 1], "w": [0, 1],
        }
        assert by_variable["x"][2 ** 31] == R.parse("y")

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_directional_derivative_is_the_sum_of_scaled_partials(self, field):
        ring = PolyRing(("x", "y", "z", "w"), field)
        rng = random.Random(13)
        for case in range(80):
            # Exponents up to 8, so that over GF(7) some partials lose a term.
            f = ring.from_terms(
                ([rng.randint(0, 8) for _ in range(4)], field.random(rng))
                for _ in range(rng.randint(0, 10))
            )
            if field == QQ and case % 2:
                coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            else:
                coords = [field.random(rng) for _ in range(4)]
            for i in rng.sample(range(4), case % 4):
                coords[i] = 0
            expected = ring.zero()
            for name, a in zip(ring.variables, coords):
                expected = expected + f.partial(name) * a
            assert f.directional_derivative(coords) == expected

    def test_directional_derivative_needs_one_coordinate_per_variable(self):
        with pytest.raises(DomainError, match="wrong number of coordinates"):
            R.parse("x*y").directional_derivative([1, 2, 3])

    @staticmethod
    def _spy_coerce(field, monkeypatch):
        """The values ``field.coerce`` is called with, recorded as it runs."""
        seen, coerce = [], field.coerce

        def spy(v):
            seen.append(v)
            return coerce(v)

        monkeypatch.setattr(field, "coerce", spy)
        return seen

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_coordinates_already_in_the_field_are_taken_as_they_are(self, field, monkeypatch):
        ring = PolyRing(("x", "y", "z", "w"), field)
        F = ring.parse("3*x^2*y - y*z*w + 7*w^3 + 2")
        coords = [2, 0, GF.p - 1, 5]
        seen = self._spy_coerce(field, monkeypatch)
        F.directional_derivative(coords)
        assert seen == []
        F.evaluate(coords)
        assert len(seen) == 1  # the value
        F.polar_part(coords, 2)
        assert len(seen) == 2  # and k!
        F.line_coefficients(coords, coords)
        assert len(seen) == 6  # and the four coefficients

    @pytest.mark.parametrize(
        "field, value",
        [(GF, Fraction(1, 3)), (GF, GF.p + 4), (GF, -3), (GF, True),
         (QQ, Fraction(1, 3)), (QQ, Fraction(6, 3)), (QQ, True)],
        ids=["GF-Fraction", "GF-int-past-p", "GF-negative-int", "GF-bool",
             "QQ-Fraction", "QQ-integral-Fraction", "QQ-bool"],
    )
    def test_other_coordinates_are_coerced(self, field, value, monkeypatch):
        ring = PolyRing(("x", "y", "z", "w"), field)
        F = ring.parse("3*x^2*y - y*z*w + 7*w^3 + 2")
        coerced = field.coerce(value)
        plain = [2, coerced, 1, 5]
        expected = (F.evaluate(plain), F.directional_derivative(plain))
        seen = self._spy_coerce(field, monkeypatch)
        got = (F.evaluate([2, value, 1, 5]), F.directional_derivative([2, value, 1, 5]))
        assert got == expected
        assert [v for v in seen if v is value] == [value, value]

    @staticmethod
    def _random_case(ring, rng, case):
        """A seeded polynomial, not homogeneous, and two points with some zero coordinates."""
        field = ring.field
        f = ring.from_terms(
            ([rng.randint(0, 4) for _ in range(4)], field.random(rng))
            for _ in range(rng.randint(0, 8))
        )
        points = []
        for _ in range(2):
            if field == QQ and case % 2:
                coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            else:
                coords = [field.random(rng) for _ in range(4)]
            for i in rng.sample(range(4), case % 3):
                coords[i] = 0
            points.append(coords)
        return f, points[0], points[1]

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_line_coefficients_match_the_generic_substitution(self, field):
        ring, line = PolyRing(("x", "y", "z", "w"), field), PolyRing(("T",), field)
        T = line.var("T")
        rng = random.Random(31)
        for case in range(60):
            f, a, b = self._random_case(ring, rng, case)
            got = f.line_coefficients(a, b)
            assert len(got) == (0 if f.is_zero else f.total_degree() + 1)
            expected = f.substitute(
                {name: line.const(ai) + T * bi for name, ai, bi in zip(ring.variables, a, b)},
                into=line,
            )
            assert line.from_terms(((j,), c) for j, c in enumerate(got)) == expected
        assert ring.zero().line_coefficients(a, b) == []

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_polar_part_is_the_scaled_part_of_the_shifted_polynomial(self, field):
        ring = PolyRing(("x", "y", "z", "w"), field)
        rng = random.Random(32)
        for case in range(40):
            f, a, _ = self._random_case(ring, rng, case)
            shifted = f.substitute({name: g + c for name, g, c in zip(ring.variables, ring.gens(), a)})
            parts = shifted.homogeneous_components()
            for k in range(18):
                assert f.polar_part(a, k) == parts.get(k, ring.zero()) * math.factorial(k)

    def test_expansions_need_one_coordinate_per_variable(self):
        F = R.parse("x*y")
        for call in (lambda: F.line_coefficients([1, 2, 3], [1, 2, 3, 4]),
                     lambda: F.line_coefficients([1, 2, 3, 4], [1, 2, 3]),
                     lambda: F.polar_part([1, 2, 3], 1)):
            with pytest.raises(DomainError, match="wrong number of coordinates"):
                call()

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_substitute_matches_the_product_expansion_without_adding_polys(self, field, monkeypatch):
        ring, chart = PolyRing(("x", "y", "z", "w"), field), PolyRing(("s", "t"), field)
        rng = random.Random(37)
        cases = []
        for _ in range(30):
            f = ring.from_terms(
                ([rng.randint(0, 3) for _ in range(4)], field.random(rng))
                for _ in range(rng.randint(0, 8))
            )
            images = {
                name: chart.from_terms(
                    ([rng.randint(0, 2), rng.randint(0, 2)], field.random(rng))
                    for _ in range(rng.randint(0, 3))
                )
                for name in ring.variables
            }
            expected = chart.zero()
            for exps, c in f.sorted_terms():
                term = chart.const(c)
                for name, e in zip(ring.variables, exps):
                    term = term * images[name] ** e
                expected = expected + term
            cases.append((f, images, expected))

        def refuse(*args):
            raise AssertionError("Poly.__add__ was called")

        monkeypatch.setattr(Poly, "__add__", refuse)
        monkeypatch.setattr(Poly, "__radd__", refuse)
        for f, images, expected in cases:
            assert f.substitute(images) == expected


class TestFromTerms:
    def test_like_terms_combine_and_cancelled_terms_drop(self):
        f = R.from_terms([
            ((1, 0, 0, 0), 2), ((0, 1, 0, 0), 3), ((1, 0, 0, 0), -2),
            ((0, 0, 0, 0), Fraction(1, 2)), ((0, 1, 0, 0), 4), ((0, 0, 1, 0), 0),
        ])
        assert f == R.parse("7*y + 1/2")
        assert len(f.terms) == 2
        gf7 = PolyRing(field=PrimeField(7))
        assert gf7.from_terms([((1, 0, 0, 0), 3), ((1, 0, 0, 0), 4)]).is_zero
        assert R.from_terms([]).is_zero

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_equals_the_monomial_sum_down_to_term_order(self, field):
        ring = PolyRing(("x", "y", "z", "w"), field)
        rng = random.Random(29)
        for _ in range(300):
            # 16 monomials for up to 14 terms: like terms and cancellations are common.
            pairs = [
                ([rng.randint(0, 1) for _ in range(4)], Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))))
                for _ in range(rng.randint(0, 14))
            ]
            summed = ring.zero()
            for exps, c in pairs:
                summed = summed + ring.monomial(exps, c)
            built = ring.from_terms(pairs)
            assert [(k, c, type(c)) for k, c in built.terms.items()] == [
                (k, c, type(c)) for k, c in summed.terms.items()
            ]



class TestPackingMemo:
    """``from_terms`` packs each distinct exponent tuple once per ring, and
    the one-pass kernels decode each distinct key once (``_support``).  Each
    memo keeps only what ``_pack`` accepted, and at most _MEMO_SIZE entries."""

    @pytest.mark.parametrize("exps, message", [
        ((1, -1, 0, 0), "bad exponent tuple"),
        ((1, 0, 0), "bad exponent tuple"),
        ((2 ** 32, 0, 0, 0), "monomial of total degree 4294967296 exceeds the limit 2^32 - 1"),
    ], ids=["negative", "wrong-length", "past-MAX_DEGREE"])
    def test_a_bad_tuple_raises_on_every_call(self, exps, message):
        ring = PolyRing(("x", "y", "z", "w"), GF)
        for bad in (exps, list(exps), exps):
            with pytest.raises(DomainError) as info:
                ring.from_terms([((1, 0, 0, 0), 1), (bad, 1)])
            assert str(info.value) == message
            assert ring.from_terms([((1, 0, 0, 0), 2)]) == 2 * ring.var("x")

    def test_a_list_of_exponents_is_accepted(self):
        ring = PolyRing(("x", "y", "z", "w"), QQ)
        exps = [1, 0, 0, 0]
        assert ring.from_terms([(exps, 3)]) == ring.monomial((1, 0, 0, 0), 3)
        exps[0], exps[1] = 0, 2  # the same list, now another monomial
        assert ring.from_terms([(exps, 3)]) == ring.monomial((0, 2, 0, 0), 3)
        assert ring.from_terms([([0, 2, 0, 0], 1), ((0, 2, 0, 0), -1)]).is_zero

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), GF], ids=repr)
    def test_equals_the_monomial_sum_past_the_memo(self, field):
        # 625 exponent tuples, more than the memo keeps, each one built afresh.
        ring = PolyRing(("x", "y", "z", "w"), field)
        rng = random.Random(31)
        for _ in range(150):
            pairs = [
                (tuple(rng.randrange(5) for _ in range(4)), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 20))
            ]
            summed = ring.zero()
            for exps, c in pairs:
                summed = summed + ring.monomial(exps, c)
            built = ring.from_terms(pairs)
            assert [(k, c, type(c)) for k, c in built.terms.items()] == [
                (k, c, type(c)) for k, c in summed.terms.items()
            ]
        assert len(ring._packed) == polyring._MEMO_SIZE

    def test_supports_are_the_nonzero_exponents(self):
        ring = PolyRing(("x", "y", "z", "w"), GF)
        rng = random.Random(5)
        for _ in range(2000):
            exps = tuple(rng.choice((0, 1, 2, 3, 2 ** 20)) for _ in range(4))
            expected = [(i, e) for i, e in enumerate(exps) if e]
            key = ring._pack(exps)
            assert ring._support(key) == expected
            assert ring._supports.get(key, expected) == expected
        assert len(ring._supports) == polyring._MEMO_SIZE

def test_term_layout_stays_inside_the_kernel():
    """Only polyring.py reads the term dict, the variable index, the packed
    monomial layout or the cofactor helper."""
    paths = sorted(Path(polarcalc.__file__).parent.glob("*.py"))
    assert "polyring.py" in [path.name for path in paths]
    pattern = re.compile(
        r"\.terms\b|\._index\b|_det_cofactor|\._pack\b|\._unpack\b|\._exponent\b|\._var_keys\b"
    )
    offenders = [
        f"{path.name}:{number}"
        for path in paths
        if path.name != "polyring.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_no_private_helper_is_orphaned():
    """Every private module-level function or class, and every private
    method, in the package is named at least once besides its definition."""
    paths = sorted(Path(polarcalc.__file__).parent.glob("*.py"))
    private = []
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        private += [
            node.name
            for body in scopes
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ]
    assert {"_det_bareiss", "_CutPowers", "_operand"} <= set(private)  # functions, classes, methods
    words = collections.Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in paths)))
    assert [name for name in private if words[name] < 2] == []


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

    @staticmethod
    def _leibniz(m):
        """The determinant as a signed sum over permutations, with Poly arithmetic."""
        total = m[0][0].ring.zero()
        for perm in itertools.permutations(range(len(m))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = m[0][0].ring.one()
            for i, j in enumerate(perm):
                term = term * m[i][j]
            total = total + (-term if inversions % 2 else term)
        return total

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_bareiss_matches_cofactor(self, field):
        # Sizes 1-6, non-homogeneous entries with Fraction coefficients over
        # QQ, a zero row, and a row whose zero entries sit left of its
        # nonzero ones, against both routes and the permutation sum.
        rng = random.Random(7)
        ring = PolyRing(("x", "y"), field)

        def entry():
            coeff = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) if field is QQ else rng.randint(-9, 9)
            return ring.from_terms(
                ([rng.randint(0, 2), rng.randint(0, 1)], coeff) for _ in range(rng.randint(0, 3))
            )

        for size in range(1, 7):
            for trial in range(4):
                m = [[entry() for _ in range(size)] for _ in range(size)]
                if trial == 1:
                    m[rng.randrange(size)] = [ring.zero()] * size
                if trial >= 2 and size > 1:
                    # Row 0 (and row 1 on the last trial) is zero left of column
                    # size // 2, so the expansion's sign must count the zero
                    # columns of the minor below too.
                    for row in m[: trial - 1]:
                        for j in range(size):
                            row[j] = ring.zero() if j < size // 2 else (ring.one() if row[j].is_zero else row[j])
                expected = self._leibniz(m)
                assert _det_cofactor(m) == expected
                assert _det_bareiss(m) == expected
                assert determinant(m) == expected

    @staticmethod
    @contextlib.contextmanager
    def _flat_wherever_it_can(monkeypatch):
        """The flat route made to run on any matrix it can lay out; yields
        the list that each of its runs appends to."""
        ran, flat = [], polyring._det_flat
        with monkeypatch.context() as patch:
            patch.setattr(polyring, "_FLAT_MIN_PAIRS", 0)
            patch.setattr(polyring, "_SLOTS_PER_PAIR", math.inf)
            patch.setattr(polyring, "_det_flat", lambda ring, layout: ran.append(1) or flat(ring, layout))
            yield ran

    @classmethod
    def _both_routes(cls, m, monkeypatch):
        """(flat, whether it ran, keyed): ``_det_cofactor`` with the flat route
        made to run wherever it can, then with it declined."""
        with cls._flat_wherever_it_can(monkeypatch) as ran:
            got_flat = _det_cofactor(m)
        with monkeypatch.context() as patch:
            patch.setattr(polyring, "_flat_layout", lambda ring, rows: None)
            got_keyed = _det_cofactor(m)
        return got_flat, bool(ran), got_keyed

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_flat_and_keyed_routes_match_leibniz(self, field, monkeypatch):
        # Random rows of mixed degree, with Fraction coefficients over QQ,
        # that never use y (its prefix field repeats x's); a 2 x 2 minor that
        # is -7*x*y, zero only mod 7; two proportional rows, so that a whole
        # level of minors vanishes; and a zero row.
        rng = random.Random(29)
        ring = PolyRing(("x", "y", "z", "w"), field)
        x, y, z, w = ring.gens()

        def entry(low, high):
            coeff = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) if field is QQ else rng.randint(-9, 9)
            return ring.from_terms(
                ((a, 0, b, c), coeff) for _ in range(rng.randint(0, 4))
                if low <= (a := rng.randint(0, high)) + (b := rng.randint(0, 2)) + (c := rng.randint(0, 1))
            )

        cases = []
        for size in range(1, 6):
            for _ in range(2):
                cases.append([[entry(i % 3, i + 1) for _ in range(size)] for i in range(size)])
        top = [entry(0, 2) for _ in range(3)]
        cancels = [[x, 2 * y], [4 * x, y]]
        vanishes = [top, [x + y, z, w ** 2], [3 * x + 3 * y, 3 * z, 3 * w ** 2]]
        cases += [cancels, [top, cancels[0] + [z], cancels[1] + [w]], vanishes]
        cases.append([top, [ring.zero()] * 3, [x, y, z]])
        for m in cases:
            expected = self._leibniz(m)
            flat, ran, keyed = self._both_routes(m, monkeypatch)
            assert flat == keyed == expected
            # A zero row is left to the dict route, which returns 0 at once.
            assert ran is all(any(e.terms for e in row) for row in m)
        assert self._both_routes(cancels, monkeypatch)[0].is_zero is (field.p == 7)
        assert self._both_routes(vanishes, monkeypatch)[0].is_zero
        assert not cases[-1][1][0].terms

    def test_sparse_high_degree_entries_stay_on_term_dicts(self, monkeypatch):
        # Four terms an entry form enough pairs for the flat route, but a flat
        # list over these exponents would need about 10^18 slots.
        rng = random.Random(31)
        x, y, z, w = R.gens()
        m = [
            [x ** rng.randint(90000, 100000) + y ** 3 - z ** rng.randint(1, 50000) * w + 2 * w ** rng.randint(1, 9)
             for _ in range(4)]
            for _ in range(4)
        ]

        def refuse(ring, layout):
            raise AssertionError("the flat route ran")

        monkeypatch.setattr(polyring, "_det_flat", refuse)
        start = time.perf_counter()
        det = determinant(m)
        assert time.perf_counter() - start < 1.0
        assert det == self._leibniz(m)

    def test_the_flat_route_declines_lists_that_would_not_pay(self):
        # Five terms an entry of degree 12: the lists would fit, but would
        # scan about forty slots for each pair formed.
        rng = random.Random(37)
        m = [[R.from_terms(((a, b, c, 12 - a - b - c), rng.randint(1, 9))
                           for _ in range(5)
                           if (a := rng.randint(0, 4)) + (b := rng.randint(0, 4)) + (c := rng.randint(0, 4)) <= 12)
              for _ in range(4)] for _ in range(4)]
        assert polyring._flat_layout(R, m) is None
        # Every monomial of degree 26: the pairs would pay for the slots, but
        # the final list, 105^3 slots, would pass the cap.
        F = R.from_terms((e, 1) for e in itertools.product(range(27), repeat=4) if sum(e) == 26)
        assert 105 ** 3 > polyring._FLAT_SLOTS
        assert polyring._flat_layout(R, [[F] * 4] * 4) is None

    def test_a_product_past_the_degree_limit_raises_on_either_route(self, monkeypatch):
        # Every field but the degree is constant, so the flat list would be
        # one slot long: only the degree bound keeps the key from carrying.
        big = R.var("w") ** 2 ** 31
        m = [[big, big], [big, 2 * big]]
        with pytest.raises(DomainError, match="exceeds the limit"):
            determinant(m)
        with self._flat_wherever_it_can(monkeypatch) as ran, pytest.raises(DomainError, match="exceeds the limit"):
            _det_cofactor(m)
        assert not ran
        assert determinant([[big, R.zero()], [R.zero(), R.one()]]) == big

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

    @staticmethod
    def _refuse(monkeypatch, names):
        def refuse(*args):
            raise AssertionError("Poly arithmetic was called")

        for name in names:
            monkeypatch.setattr(Poly, name, refuse)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_dense_four_by_four_without_poly_arithmetic(self, field, monkeypatch):
        from polarcalc.randomchecks import random_homogeneous

        rng = random.Random(11)
        ring = PolyRing(("x", "y", "z", "w"), field)
        m = [[random_homogeneous(ring, 2, rng, 10) for _ in range(4)] for _ in range(4)]
        expected = self._leibniz(m)
        self._refuse(monkeypatch, ("__mul__", "__rmul__", "__add__", "__radd__",
                                   "__neg__", "__sub__", "__rsub__"))
        assert determinant(m).terms == expected.terms

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_bareiss_step_without_poly_arithmetic(self, field, monkeypatch):
        # Each update m_ij m_kk - m_ik m_kj is summed into one term dict.
        from polarcalc.randomchecks import random_homogeneous

        rng = random.Random(13)
        ring = PolyRing(("x", "y", "z"), field)
        m = [[random_homogeneous(ring, 1, rng, 3) for _ in range(5)] for _ in range(5)]
        expected = _det_cofactor(m)
        self._refuse(monkeypatch, ("__mul__", "__rmul__", "__add__", "__radd__",
                                   "__sub__", "__rsub__"))
        assert _det_bareiss(m).terms == expected.terms

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_exact_div_without_poly_arithmetic(self, field, monkeypatch):
        rng = random.Random(12)
        ring = PolyRing(("x", "y", "z"), field)

        def poly(nterms):
            return ring.from_terms(
                ([rng.randint(0, 3) for _ in range(3)], Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(nterms)
            )

        cases = []
        for _ in range(20):
            f, g = poly(rng.randint(0, 5)), poly(rng.randint(2, 4))
            if len(g.terms) < 2:
                continue
            # g is not a unit, so it does not divide f g + 1.
            cases.append((f * g, g, f, f * g + 1))
        self._refuse(monkeypatch, ("__mul__", "__rmul__", "__add__", "__radd__",
                                   "__neg__", "__sub__", "__rsub__"))
        for product, g, f, inexact in cases:
            assert exact_div(product, g) == f
            with pytest.raises(DomainError, match="inexact"):
                exact_div(inexact, g)

    @staticmethod
    def _exact_div_by_max(f, g):
        """The quotient's terms by the loop that scans the whole remainder
        for its largest key at each step, in the order they are found."""
        ring = f.ring
        div, p = ring.field.div, ring.field.p
        gk = max(g.terms)
        gc, ge = g.terms[gk], ring._unpack(gk)
        rest = [(k, c) for k, c in g.terms.items() if k != gk]
        r, q = dict(f.terms), {}
        while r:
            rk = max(r)
            if any(a < b for a, b in zip(ring._unpack(rk), ge)):
                raise DomainError("inexact polynomial division")
            qk, t = rk - gk, div(r.pop(rk), gc)
            q[qk] = t
            for k, c in rest:
                k += qk
                s = r.get(k, 0) - t * c
                if p is not None:
                    s %= p
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
        return q

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_exact_div_matches_the_loop_by_max(self, field):
        # g * q divided by g gives q, term for term and in the same order as
        # the loop that takes max() over the remainder; over GF(7) many of
        # the pairs cancel.  A dense cubic times a dense form of degree 8
        # makes a remainder of hundreds of terms.
        rng = random.Random(53)
        ring = PolyRing(("x", "y", "z", "w"), field)

        def coeff():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3])) if field is QQ \
                else rng.randint(1, 9)

        def poly(nterms, top):
            return ring.from_terms(([rng.randint(0, top) for _ in range(4)], coeff()) for _ in range(nterms))

        def dense(d):
            return ring.from_terms((e, coeff()) for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d)

        cases = [(poly(rng.randint(1, 6), 3), poly(rng.randint(1, 8), 4)) for _ in range(30)]
        cases.append((dense(3), dense(8)))
        for g, q in cases:
            if g.is_zero:
                continue
            f = g * q
            got = exact_div(f, g)
            assert got == q
            assert list(got.terms.items()) == list(self._exact_div_by_max(f, g).items())
            if not q.is_zero and len(g.terms) > 1:
                # g is not a unit, so it does not divide f + 1: the remainder
                # is inexact only once the steps reach its constant term.
                with pytest.raises(DomainError, match="inexact"):
                    exact_div(f + 1, g)
                with pytest.raises(DomainError, match="inexact"):
                    self._exact_div_by_max(f + 1, g)

    def test_exact_div(self):
        x, y, z, w = R.gens()
        f = (x + y) * (x ** 2 - y * z + w ** 2)
        assert exact_div(f, x + y) == x ** 2 - y * z + w ** 2
        with pytest.raises(DomainError):
            exact_div(x ** 2 + y, x + y)


class TestProduct:
    """``Poly.__mul__`` on its flat route (``_product_layout`` and
    ``_product_flat``) and on its term-dict route, against a double loop
    over exponent tuples."""

    @staticmethod
    def _double_loop(f, g):
        out: dict = {}
        for ea, ca in f.sorted_terms():
            for eb, cb in g.sorted_terms():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return f.ring.from_terms(out.items())

    @staticmethod
    @contextlib.contextmanager
    def _flat_wherever_it_can(monkeypatch):
        """The flat route made to run on any product it can lay out; yields
        the list that each of its runs appends to."""
        ran, flat = [], polyring._product_flat
        with monkeypatch.context() as patch:
            patch.setattr(polyring, "_FLAT_MIN_PAIRS", 0)
            patch.setattr(polyring, "_SLOTS_PER_PAIR", math.inf)
            patch.setattr(polyring, "_product_flat", lambda ring, local: ran.append(1) or flat(ring, local))
            yield ran

    @classmethod
    def _both_routes(cls, f, g, monkeypatch):
        """(flat, whether it ran, keyed): f * g with the flat route made to
        run wherever it can, then with it declined."""
        with cls._flat_wherever_it_can(monkeypatch) as ran:
            got_flat = f * g
        with monkeypatch.context() as patch:
            patch.setattr(polyring, "_product_layout", lambda ring, left, right: None)
            got_keyed = f * g
        return got_flat, bool(ran), got_keyed

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_flat_and_keyed_routes_match_the_double_loop(self, field, monkeypatch):
        # Non-homogeneous factors with Fraction coefficients over QQ; factors
        # that never use x, so that its field has radix 1; a constant
        # factor; a product whose x*y coefficient is 7, zero only mod 7; and
        # a zero factor, which is never laid out.
        rng = random.Random(41)
        ring = PolyRing(("x", "y", "z", "w"), field)
        x, y = ring.var("x"), ring.var("y")

        def factor(uses_x):
            coeff = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) if field is QQ else rng.randint(-9, 9)
            return ring.from_terms(
                ((rng.randint(0, 3) if uses_x else 0, rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 1)),
                 coeff) for _ in range(rng.randint(1, 9))
            )

        cases = [(factor(True), factor(True)) for _ in range(8)]
        cases += [(factor(False), factor(False)) for _ in range(4)]
        cases += [(factor(True), factor(False)), (ring.const(3), factor(True)), (x + y, 3 * x + 4 * y)]
        for f, g in cases:
            flat, ran, keyed = self._both_routes(f, g, monkeypatch)
            assert flat == keyed == self._double_loop(f, g)
            assert ran is (not f.is_zero and not g.is_zero)
        product = self._both_routes(x + y, 3 * x + 4 * y, monkeypatch)[0]
        assert (product.coefficient((1, 1, 0, 0)) == 0) is (field.p == 7)
        zero = ring.zero()
        for f, g in ((zero, x + y), (x + y, zero), (zero, zero)):
            flat, ran, keyed = self._both_routes(f, g, monkeypatch)
            assert flat.is_zero and keyed.is_zero and not ran

    def test_the_flat_route_runs_from_the_threshold(self, monkeypatch):
        # 50 x 30 term pairs in a small box take the flat route; 50 x 29 do not.
        ring = PolyRing(("x", "y"))
        f = ring.from_terms(((i, j), i + j + 1) for i in range(10) for j in range(5))
        g = ring.from_terms(((i, j), i - j - 7) for i in range(6) for j in range(5))
        h = g - ring.monomial((5, 4), g.coefficient((5, 4)))
        flat, ran = polyring._product_flat, []
        monkeypatch.setattr(polyring, "_product_flat", lambda ring, local: ran.append(1) or flat(ring, local))
        assert len(f.terms) * len(g.terms) == polyring._FLAT_MIN_PAIRS
        assert f * g == self._double_loop(f, g) and ran == [1]
        assert h * f == self._double_loop(h, f) and ran == [1]

    def test_sparse_high_degree_factors_stay_on_term_dicts(self, monkeypatch):
        # 40 x 40 terms form enough pairs for the flat route, but a flat list
        # over these exponents would need about 2.6 * 10^21 slots.
        rng = random.Random(43)

        def factor():
            return R.from_terms(
                ((rng.randint(0, 100000), rng.randint(0, 50000), rng.randint(0, 9), rng.randint(0, 3)),
                 rng.randint(1, 9)) for _ in range(40)
            )

        f, g = factor(), factor()
        assert len(f.terms) * len(g.terms) >= polyring._FLAT_MIN_PAIRS

        def refuse(ring, local):
            raise AssertionError("the flat route ran")

        monkeypatch.setattr(polyring, "_product_flat", refuse)
        start = time.perf_counter()
        product = f * g
        assert time.perf_counter() - start < 1.0
        assert product == self._double_loop(f, g)

    def test_the_flat_route_declines_lists_that_would_not_pay(self, monkeypatch):
        # 32 and 34 terms of degree 12: the list, 9 * 15 * 20 slots, would
        # fit, but would scan about 2.5 slots for each pair formed.
        rng = random.Random(47)

        def factor():
            return R.from_terms(((a, b, c, 12 - a - b - c), rng.randint(1, 9))
                                for _ in range(40)
                                if (a := rng.randint(0, 4)) + (b := rng.randint(0, 4)) + (c := rng.randint(0, 4)) <= 12)

        f, g = factor(), factor()
        assert polyring._product_layout(R, f.terms, g.terms) is None
        # Three terms a factor: even at any number of slots a pair, the
        # final list, 105^3 slots, would pass the cap.
        x, y, w = R.var("x"), R.var("y"), R.var("w")
        f = x ** 52 + y ** 52 + w ** 52
        monkeypatch.setattr(polyring, "_SLOTS_PER_PAIR", math.inf)
        assert 105 ** 3 > polyring._FLAT_SLOTS
        assert polyring._product_layout(R, f.terms, (2 * f).terms) is None

    def test_a_product_past_the_degree_limit_raises_on_either_route(self, monkeypatch):
        # Every field but the degree is constant, so the flat list would be
        # one slot long: only the degree check keeps the key from carrying.
        big = R.var("w") ** 2 ** 31
        with pytest.raises(DomainError, match="exceeds the limit"):
            big * big
        with self._flat_wherever_it_can(monkeypatch) as ran, pytest.raises(DomainError, match="exceeds the limit"):
            big * (2 * big)
        assert not ran
        with monkeypatch.context() as patch, pytest.raises(DomainError, match="exceeds the limit"):
            patch.setattr(polyring, "_product_layout", lambda ring, left, right: None)
            big * big
        assert big * R.one() == big


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
        assert valuation(T ** 3 + 2 * T ** 4, "T") == 3
        assert valuation(line.zero(), "T") == INFINITY
        assert valuation(6 * T ** 2, "T") == 2

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
            assert valuation(f * g, "T") == valuation(f, "T") + valuation(g, "T")

    def test_univariate_enforced(self):
        x, y, *_ = R.gens()
        with pytest.raises(DomainError):
            valuation(x + y, "x")



@pytest.mark.parametrize("call", [
    lambda: R.parse("x*y").partial("q"),
    lambda: R.parse("x*y").degree_in("q"),
    lambda: coefficients_in(R.parse("x*y"), "q"),
    lambda: resultant(R.parse("x + y"), R.parse("x - y"), "q"),
    lambda: valuation(R.const(5), "q"),
], ids=["partial", "degree_in", "coefficients_in", "resultant", "valuation"])
def test_an_unknown_variable_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r"^unknown variable 'q'$"):
        call()

class TestProjPoint:
    def test_equality_up_to_scale(self):
        assert R.point([1, -1, 0, 0]) == R.point([-2, 2, 0, 0])
        assert R.point([1, 0, 0, 0]) != R.point([0, 1, 0, 0])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            R.point([0, 0, 0, 0])


class TestAdoption:
    """The kernel adopts, with no copy, only the clean dicts it builds itself.

    A checker wraps ``polyring._adopt``: an adopted dict holds no zero
    value, over GF(p) only ints in 1 .. p - 1, and is not the dict of an
    operand.  The operands make sums cancel exactly over Q, sum to p or
    past it over GF(1048583) and cancel mod 7 over GF(7), where the
    partial of x^7 vanishes; every site that adopts is driven.
    """

    @staticmethod
    def _adopting_sites():
        tree = ast.parse(Path(polyring.__file__).read_text())
        return {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name != "_adopt"
            and any(isinstance(n, ast.Name) and n.id == "_adopt" for n in ast.walk(node))
        }

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=repr)
    def test_every_adopted_dict_is_clean(self, field, monkeypatch):
        ring = PolyRing(("x", "y", "z"), field)
        F = ring.parse("x^7 + 3*x^2*y - 1/2*y*z + 1048580*y^2 + 5 - z")
        G = ring.parse("4*x^2*y + 1/2*y*z + 3*y^2 - 5 + x^7*z - z")
        x, y = ring.var("x"), ring.var("y")
        operands = [(F, dict(F.terms)), (G, dict(G.terms))]
        adopt, callers = polyring._adopt, set()

        def checked(ring, terms):
            p = ring.field.p
            values = terms.values()
            assert type(terms) is dict and all(terms is not f.terms for f, _ in operands)
            assert all(values) if p is None else all(type(c) is int and 0 < c < p for c in values), terms
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
                caller = caller.f_back
            callers.add(caller.f_code.co_name)
            return adopt(ring, terms)

        monkeypatch.setattr(polyring, "_adopt", checked)
        results = [
            F + G, G + F, F + F, F - G, G - F, F - F, F + (-F), F + 1, 1 + F, F - 5, 5 - F, 3 - F,
            -F, -G, F * 3, 3 * F, F * 0, F * 7, F * -1, F * Fraction(1, 2), F / 3,
            F / Fraction(2, 3), F / ring.const(5),
            F ** 0, F ** 1, F ** 2, G ** 3, (x + y) ** 7, (1 + x) ** 8,
            exact_div(F * G, G), exact_div(F * G, F),
            ring.from_terms([
                ((1, 0, 0), 3), ((1, 0, 0), 4), ((0, 1, 0), 1048580), ((0, 1, 0), 3),
                ((0, 0, 1), 1), ((0, 0, 1), -1), ((0, 0, 0), -2), ((0, 0, 2), 0), ((0, 0, 2), 7),
            ]),
            ring.zero(), ring.one(), ring.const(0), ring.const(7), ring.const(-1),
            ring.const(Fraction(1, 2)), ring.monomial((1, 2, 0), 7), ring.monomial((1, 2, 0), -3),
        ]
        for f in (F, G, ring.parse("x^7 - 3*x^14*y")):
            results += [f.partial(v) for v in ring.variables]
            results += f.homogeneous_components().values()
            results += [c for v in ring.variables for c in coefficients_in(f, v).values()]
        results += [ring.var(v) for v in ring.variables]
        # The determinants, on term dicts and then, made to run on these small
        # matrices, flat: sums pass p over GF(1048583) and the 2 x 2 minor
        # -7*x*y cancels over GF(7).
        matrices = [
            [[F, G], [G, F]], [[F, G, x], [G, x, F], [y, F, G]],
            [[F, x, y], [G, x, 2 * y], [ring.one(), 4 * x, y]], [[G]],
        ]
        results += [determinant(m) for m in matrices]
        monkeypatch.setattr(polyring, "_FLAT_MIN_PAIRS", 0)
        monkeypatch.setattr(polyring, "_SLOTS_PER_PAIR", math.inf)
        results += [determinant(m) for m in matrices]
        # The products, made to run flat: sums pass p over GF(1048583), and
        # the x*y coefficient of the last, 7, cancels over GF(7).
        results += [F * G, G * F, F * F, (x + y) * (3 * x + 4 * y)]
        assert callers == self._adopting_sites()
        assert [dict(f.terms) for f, _ in operands] == [terms for _, terms in operands]
        for f in results:  # normalizing an adopted dict changes nothing
            assert list(Poly(ring, f.terms).terms.items()) == list(f.terms.items())


class TestPrimeField:
    def test_primality_enforced(self):
        with pytest.raises(DomainError):
            PrimeField(1048576)

    def test_sqrt(self):
        field = PrimeField(1048583)
        for v in (4, 9, 12345):
            sq = field.coerce(v * v)
            root = field.sqrt(sq)
            assert field.coerce(root * root) == sq
        assert field.is_square(field.coerce(4))

    def test_fraction_coercion(self):
        field = PrimeField(101)
        half = field.coerce(Fraction(1, 2))
        assert field.coerce(half + half) == field.one


class TestFieldDivision:
    def test_rational_coerce_keeps_integers_as_int(self):
        two = QQ.coerce(Fraction(4, 2))
        assert type(two) is int and two == 2
        assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
        assert type(QQ.coerce(True)) is int

    def test_parser_and_scalar_division_keep_integers_as_int(self):
        F = R.parse("3*x - 4/2*y + 1/2*z")
        assert [type(c) for _, c in F.sorted_terms()] == [int, int, Fraction]
        assert all(type(c) is int for c in (R.parse("6*x + 4*y") / 2).terms.values())

    def test_rational_div(self):
        for a, b, want in ((6, 3, 2), (Fraction(3, 2), Fraction(3, 4), 2), (-8, 4, -2)):
            got = QQ.div(a, b)
            assert type(got) is int and got == want
        for a, b, want in ((1, 3, Fraction(1, 3)), (-7, 2, Fraction(-7, 2)),
                           (Fraction(1, 2), 3, Fraction(1, 6))):
            got = QQ.div(a, b)
            assert type(got) is Fraction and got == want

    def test_prime_field_div(self):
        got = GF.div(GF.coerce(6), GF.coerce(3))
        assert type(got) is int and got == 2
        half = GF.div(1, 2)
        assert type(half) is int and 0 < half < GF.p and GF.coerce(half * 2) == GF.one

    def test_zero_divisor_raises(self):
        for a in (1, Fraction(1, 2)):
            for zero in (0, Fraction(0)):
                with pytest.raises(ZeroDivisionError):
                    QQ.div(a, zero)
        with pytest.raises(ZeroDivisionError):
            GF.div(GF.one, GF.zero)


class TestPrimeFieldReduction:
    """Over GF(p) a product of residues is an unreduced int: each value
    below is divisible by p or exceeds p before it is reduced."""

    def test_point_equality_reduces_cross_products(self):
        p = GF.p
        ring = PolyRing(R.variables, GF)
        assert ring.point([1, p - 1, 0, 0]) == ring.point([p - 1, 1, 0, 0])

    def test_elimination_reduces_row_updates(self):
        m = [[2, 3], [3, Fraction(9, 2)]]
        assert linalg.rank(GF, m) == 1
        assert linalg.scalar_determinant(GF, m) == 0

    def test_determinant_is_reduced(self):
        p = GF.p
        assert linalg.scalar_determinant(GF, [[p - 1, 0], [0, p - 1]]) == 1


class TestPackedLayout:
    """Monomials are packed ints; the degree cap and the edges speak in tuples."""

    def test_degree_cap_at_parse(self):
        assert str(R.parse("x^4294967295")) == "x^4294967295"
        assert str(R.parse("w^4294967295")) == "w^4294967295"
        for text in ("x^4294967296", "w^4294967296", "x^4294967295*w", "x^2147483648*x^2147483648"):
            with pytest.raises(DomainError, match="exceeds the limit 2"):
                R.parse(text)

    def test_degree_cap_at_the_cli(self, capsys):
        polar = ["poly", "polar", "--point", "1,1,1,1", "--order", "1", "--expr"]
        assert main(polar + ["x^4294967295"]) == 0
        assert capsys.readouterr().out.split()[-1] == "4294967295*x^4294967294"
        assert main(polar + ["x^4294967296"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: monomial of total degree 4294967296")

    @pytest.mark.parametrize("exps, message", [
        ((1, 2, 3), "bad exponent tuple"),
        ((1, 2, 3, 4, 5), "bad exponent tuple"),
        ((1, -1, 0, 0), "bad exponent tuple"),
        ((2 ** 32, -1, 0, 0), "bad exponent tuple"),
        ((2 ** 32, 0, 0, 0), "monomial of total degree 4294967296 exceeds the limit 2^32 - 1"),
        ((0, 2 ** 31, 0, 2 ** 31), "monomial of total degree 4294967296 exceeds the limit 2^32 - 1"),
    ])
    def test_exponent_tuple_errors(self, exps, message):
        for build in (R.monomial, lambda e: R.from_terms([(e, 1)]), R.one().coefficient):
            with pytest.raises(DomainError) as info:
                build(exps)
            assert str(info.value) == message

    def test_degree_cap_on_products(self):
        half = R.parse("x^2147483648")
        with pytest.raises(DomainError, match="product of total degree 4294967296"):
            half * half
        with pytest.raises(DomainError):
            half ** 2
        with pytest.raises(DomainError):
            R.parse("x^2147483647*y") * R.parse("z^2147483648 + 1")
        assert str(R.parse("x^2147483647") * half) == "x^4294967295"
        with pytest.raises(DomainError, match="product of total degree 4294967296"):
            half.substitute({"x": R.parse("y^2")})
        # Each power is below the cap and their product is not.
        with pytest.raises(DomainError, match="product of total degree 6442450942"):
            R.parse("x^2147483648*y^2147483647").substitute({"x": R.parse("z"), "y": R.parse("y*z")})
        assert half.substitute({"x": R.parse("y")}) == R.parse("y^2147483648")
        assert R.monomial((0, 0, 0, 4294967295)).total_degree() == 4294967295


def _grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_substitute(a, images, n):
    # images[i] = (coefficient, exponent tuple): the monomial put for variable i
    out = {}
    for e, c in a.items():
        target = [0] * n
        for (ci, mi), k in zip(images, e):
            c = c * ci ** k
            target = [t + k * m for t, m in zip(target, mi)]
        out[tuple(target)] = out.get(tuple(target), 0) + c
    return {e: c for e, c in out.items() if c}


class TestPackedDifferential:
    """Seeded kernel operations against a tuple-keyed reference.

    About half the monomials carry one exponent past 2^16, so that a field
    narrower than 32 bits carries into its neighbour and shows up as a
    wrong monomial or a wrong order.
    """

    @staticmethod
    def _random(rng, n, terms):
        out = {}
        for _ in range(terms):
            e = [rng.randint(0, 2) for _ in range(n)]
            if rng.random() < 0.5:
                e[rng.randrange(n)] += 65536 + rng.randint(0, 9)
            out[tuple(e)] = out.get(tuple(e), 0) + rng.choice((-3, -1, 1, 2, Fraction(1, 2)))
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def _poly(ring, ref):
        return sum((ring.monomial(e, c) for e, c in ref.items()), ring.zero())

    @staticmethod
    def _check(poly, ref):
        expected = sorted(ref.items(), key=lambda t: _grevlex(t[0]), reverse=True)
        assert poly.sorted_terms() == expected

    @classmethod
    def _check_parts(cls, parts, ref, index):
        """The parts are the reference's nonzero buckets, in ascending order, with its terms."""
        buckets = {}
        for e, c in ref.items():
            k, rest = index(e)
            buckets.setdefault(k, {})[rest] = c
        assert list(parts) == sorted(buckets)
        for k, bucket in buckets.items():
            cls._check(parts[k], bucket)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_operations_match_tuple_reference(self, n):
        ring = PolyRing([f"v{i}" for i in range(n)])
        rng = random.Random(1000 + n)
        for trial in range(12):
            a_ref, b_ref = self._random(rng, n, 5), self._random(rng, n, 4)
            a, b = self._poly(ring, a_ref), self._poly(ring, b_ref)
            self._check(a, a_ref)
            self._check(a * b, _ref_mul(a_ref, b_ref))
            if b_ref:
                self._check(exact_div(a * b, b), a_ref)
            for i, var in enumerate(ring.variables):
                self._check(a.partial(var), {
                    e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a_ref.items() if e[i]
                })
            if trial == 0:
                assert max(map(sum, a_ref)) > 1 << 16
            for i, var in enumerate(ring.variables):
                self._check_parts(
                    coefficients_in(a, var), a_ref, lambda e: (e[i], e[:i] + (0,) + e[i + 1:])
                )
            self._check_parts(a.homogeneous_components(), a_ref, lambda e: (sum(e), e))
            coords = [rng.choice((-1, 0, 1, 2)) for _ in range(n)]
            assert a.evaluate(coords) == sum(
                c * math.prod(x ** k for x, k in zip(coords, e)) for e, c in a_ref.items()
            )
            images = [
                (rng.choice((1, -1, 2)), tuple(rng.randint(0, 1) for _ in range(n)))
                for _ in range(n)
            ]
            assignment = {
                var: ring.monomial(m, ci) for var, (ci, m) in zip(ring.variables, images)
            }
            self._check(a.substitute(assignment), _ref_substitute(a_ref, images, n))

    def test_evaluate_over_a_prime_field(self):
        ring = PolyRing(("x", "y", "z", "w"), GF)
        rng = random.Random(7)
        for _ in range(10):
            ref = self._random(rng, 4, 6)
            coords = [rng.randint(0, 10**6) for _ in range(4)]
            expected = sum(
                c * math.prod(pow(x, k, GF.p) for x, k in zip(coords, e)) for e, c in ref.items()
            )
            assert self._poly(ring, ref).evaluate(coords) == GF.coerce(expected)


class TestPowers:
    """``**`` and ``substitute`` read every power from one route, ``_CutPowers``."""

    # Values as tuple-keyed terms in (s, t, u, v).  The route splits off the
    # least-degree term h; these cover no h, a constant h, ties of least
    # degree, a rest lifted above h by one or two, and a Fraction on h.
    VALUES = {
        "zero": {},
        "constant": {(0, 0, 0, 0): 3},
        "one term": {(1, 2, 0, 0): -2},
        "no constant": {(1, 0, 0, 0): 1, (0, 2, 0, 0): Fraction(1, 2)},
        "constant and more": {(0, 0, 0, 0): 2, (1, 0, 0, 0): -1, (1, 1, 0, 0): 3},
        "s + t": {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1},
        "s + t + u": {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1},
        "s*t + u^3": {(1, 1, 0, 0): 1, (0, 0, 3, 0): 1},
        "t + s^2*v": {(0, 1, 0, 0): 1, (2, 0, 0, 1): 1},
        "Fraction head": {(0, 1, 0, 0): Fraction(-2, 3), (1, 0, 1, 0): 5, (0, 0, 0, 2): 1},
    }
    FIELDS = [QQ, GF, PrimeField(7)]

    @staticmethod
    def _check(poly, ref, top=None):
        """poly is ref, cut at degree top when given, with coefficients in its field."""
        field = poly.ring.field
        ref = {e: field.coerce(c) for e, c in ref.items() if top is None or sum(e) <= top}
        expected = [(e, c) for e, c in ref.items() if c]
        assert poly.sorted_terms() == sorted(expected, key=lambda t: _grevlex(t[0]), reverse=True)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_powers_match_repeated_products_and_the_tuple_reference(self, field):
        ring = PolyRing(("s", "t", "u", "v"), field)
        for ref in self.VALUES.values():
            value = ring.from_terms(ref.items())
            product, ref_product = ring.one(), {(0, 0, 0, 0): 1}
            for e in range(9):  # past 7, where the binomial row over GF(7) has zeros
                power = value ** e
                assert power == product
                self._check(power, ref_product)
                product, ref_product = product * value, _ref_mul(ref_product, ref)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_cut_powers_are_the_powers_cut_at_top(self, field):
        # Each top below, inside and past the degrees of a power: no term
        # above top is kept, and none at or below it is lost.
        ring = PolyRing(("s", "t", "u", "v"), field)
        for ref in self.VALUES.values():
            value = ring.from_terms(ref.items())
            for top in range(13):
                powers, ref_power = polyring._CutPowers(value, top), {(0, 0, 0, 0): 1}
                for e in range(5):
                    self._check(Poly(ring, powers(e)), ref_power, top)
                    ref_power = _ref_mul(ref_power, ref)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_substitute_matches_repeated_products_and_the_tuple_reference(self, field):
        plane, ring = PolyRing(("x", "y"), field), PolyRing(("s", "t", "u", "v"), field)
        f_ref = {(3, 0): 1, (1, 2): -2, (0, 4): Fraction(1, 3), (2, 1): 1, (0, 0): 5}
        f = plane.from_terms(f_ref.items())
        for refs in itertools.product(self.VALUES.values(), repeat=2):
            images = [ring.from_terms(ref.items()) for ref in refs]
            expected, ref_sum = ring.zero(), {}
            for exps, c in f_ref.items():
                term, ref_term = ring.const(c), {(0, 0, 0, 0): c}
                for image, ref, k in zip(images, refs, exps):
                    for _ in range(k):
                        term, ref_term = term * image, _ref_mul(ref_term, ref)
                expected = expected + term
                for e, v in ref_term.items():
                    ref_sum[e] = ref_sum.get(e, 0) + v
            assignment = dict(zip(("x", "y"), images))
            got = f.substitute(assignment)
            assert got == expected
            self._check(got, ref_sum)
            # Orders that cut inside the binomial rows, and orders below and
            # past the least degree of each power, up to past the whole.
            for order in range(14):
                self._check(f.substitute(assignment, order=order), ref_sum, order)

    def test_long_and_high_powers_take_bounded_time(self):
        # A binomial row or a ladder as long as the exponent would not fit in
        # memory, so the address space is capped while the powers are built.
        x, y = R.var("x"), R.var("y")
        start = time.perf_counter()
        with _address_space_headroom(256 << 20):
            high = x ** 2 ** 31
            moved = R.parse("x^2147483648").substitute({"x": y})
            sign = R.const(-1) ** (2 ** 31 + 1)
            row = (1 + x) ** 3000
        assert time.perf_counter() - start < 2
        assert high == R.monomial((2 ** 31, 0, 0, 0))
        assert moved == R.monomial((0, 2 ** 31, 0, 0))
        assert sign == -1
        assert row == R.from_terms(((j, 0, 0, 0), math.comb(3000, j)) for j in range(3001))
        # With no constant term the least term is split off all the same:
        # each power of the rest is built once, and no product is as large
        # as the result.
        z = R.var("z")
        powers = []
        for value, e in ((x + y, 3000), (x + y + z, 300)):
            start = time.perf_counter()
            with _address_space_headroom(256 << 20):
                powers.append(value ** e)
            assert time.perf_counter() - start < 0.5, value
        assert powers[0] == R.from_terms(((j, 3000 - j, 0, 0), math.comb(3000, j)) for j in range(3001))
        assert powers[1] == R.from_terms(
            ((i, j, 300 - i - j, 0), math.comb(300, i) * math.comb(300 - i, j))
            for i in range(301) for j in range(301 - i)
        )

    def test_substitute_coerces_a_scalar_for_a_variable_that_does_not_occur(self):
        ring = PolyRing(("x", "y", "z", "w"), PrimeField(7))
        with pytest.raises(DomainError, match="denominator divisible by the modulus"):
            ring.parse("x + y").substitute({"x": 1, "y": 2, "w": Fraction(1, 7)}, into=ring)

    def test_a_power_past_the_degree_cap_raises_before_any_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a product was formed")

        bases = [(R.parse(text), degree) for text, degree in (
            ("x^2147483648", 2 ** 32),
            ("x^2147483648 + 1", 2 ** 32),
            ("x^2147483648*y - z", 2 ** 32 + 2),
        )]
        squares = R.parse("y^2 + 1")
        for name in ("_product", "_product_upto", "_binomial_row"):
            monkeypatch.setattr(polyring, name, refuse)
        for base, degree in bases:
            with pytest.raises(DomainError, match=f"product of total degree {degree} exceeds"):
                base ** 2
        with pytest.raises(DomainError, match="product of total degree 4294967296 exceeds"):
            bases[0][0].substitute({"x": squares})
