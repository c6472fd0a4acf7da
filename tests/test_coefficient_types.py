"""No float ever becomes a coefficient.

Python's ``int / int`` is a float, so a division that bypasses the field's
``div`` would leave one in a polynomial.  Every golden command and every
acceptance criterion runs here with a check on ``Poly.__init__`` that each
coefficient is an ``int`` (not a ``bool``) or a ``Fraction``, and that over a
prime field GF(p) each one is an ``int`` in 1 .. p - 1.  A line restriction
over Q holds an ``int`` for each integral coefficient and a ``Fraction`` for
each other one.
"""

import random
import shlex
from fractions import Fraction

import pytest

from polarcalc.cli import main
from polarcalc.polarity import restrict_to_line
from polarcalc.polyring import Poly, PolyRing
from polarcalc.randomchecks import random_homogeneous
from test_acceptance import CRITERIA
from test_golden import COMMANDS

EXACT_TYPES = {int, Fraction}


@pytest.fixture
def coefficient_types(monkeypatch):
    """The set of coefficient types of every Poly built during the test."""
    seen = set()
    build = Poly.__init__

    def checked_init(self, ring, terms):
        build(self, ring, terms)
        seen.update(map(type, self.terms.values()))
        p = ring.field.p
        assert p is None or all(0 < c < p for c in self.terms.values())

    monkeypatch.setattr(Poly, "__init__", checked_init)
    return seen


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_command_builds_exact_coefficients(capsys, coefficient_types, command):
    assert main(shlex.split(command) + ["--json"]) == 0
    capsys.readouterr()
    assert coefficient_types <= EXACT_TYPES


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_acceptance_criterion_builds_exact_coefficients(capsys, coefficient_types, criterion):
    criterion()
    capsys.readouterr()
    assert coefficient_types <= EXACT_TYPES


def test_line_restriction_over_q_is_int_when_integral():
    ring = PolyRing()
    rng = random.Random(53)
    seen = set()
    for case in range(60):
        F = random_homogeneous(ring, 2 + case % 4, rng) * Fraction(1, rng.choice((1, 2, 3)))
        a, b = (
            ring.point([Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(3)] + [1])
            for _ in range(2)
        )
        for _, c in restrict_to_line(F, a, b).sorted_terms():
            assert type(c) is (int if c.denominator == 1 else Fraction)
            seen.add(type(c))
    assert seen == EXACT_TYPES
