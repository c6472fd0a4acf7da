"""No float ever becomes a coefficient.

Python's ``int / int`` is a float, so a division that bypasses the field's
``div`` would leave one in a polynomial.  Every golden command and every
acceptance criterion runs here with a check on ``Poly.__init__`` that each
coefficient is an ``int`` (not a ``bool``) or a ``Fraction``, and that over a
prime field GF(p) each one is an ``int`` in 1 .. p - 1.
"""

import shlex
from fractions import Fraction

import pytest

from polarcalc.cli import main
from polarcalc.polyring import Poly
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
