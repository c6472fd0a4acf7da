"""Discriminant local models and their double curves."""

from fractions import Fraction

import pytest

from polarcalc.localmodels import (
    ABC,
    GAMMA,
    PARAM,
    SWALLOWTAIL,
    TRIPLE_T,
    contact_order,
    reference_discriminant,
    stratum_check,
    stratum_model,
    tacnode_discriminant,
)
from polarcalc.polarity import tangent_cone
from polarcalc.polyring import DomainError, PolyRing


class TestTacnodeDiscriminant:
    def test_matches_reference_coefficient_for_coefficient(self):
        disc = tacnode_discriminant()
        expected = {
            (0, 0, 3): Fraction(256),
            (2, 0, 2): Fraction(-128),
            (1, 2, 1): Fraction(144),
            (0, 4, 0): Fraction(-27),
            (4, 0, 1): Fraction(16),
            (3, 2, 0): Fraction(-4),
        }
        assert dict(disc.sorted_terms()) == expected
        assert disc == reference_discriminant()

    def test_vanishes_on_the_swallowtail_point(self):
        # parameters (u, v) = (1, 0) map to (a, b, c) = (-3, 2, 0)
        assert not tacnode_discriminant().evaluate([-3, 2, 0])

    def test_separable_quartic(self):
        assert tacnode_discriminant().evaluate([0, 0, 1]) == 256

    def test_triple_plane_tangent_cone(self):
        # Homogenize to degree 5 with a slack variable; at the origin the
        # lowest stratum must be the triple plane 256 c^3.
        ring = PolyRing(("a", "b", "c", "e"))
        disc = tacnode_discriminant()
        lifted = ring.zero()
        for exps, coeff in disc.sorted_terms():
            total = sum(exps)
            lifted = lifted + ring.monomial(exps + (5 - total,), coeff)
        report = tangent_cone(lifted, ring.point([0, 0, 0, 1]))
        assert report.multiplicity == 3
        assert report.cone == report.chart.parse("256*c^3")


class TestStratumChecks:
    @pytest.mark.parametrize("model_id", [SWALLOWTAIL, GAMMA, TRIPLE_T])
    def test_all_vanishing_identities(self, model_id):
        checks = stratum_check(stratum_model(model_id))
        assert checks
        for name, ok in checks:
            assert ok, name

    def test_swallowtail_has_surface_sweep(self):
        names = [name for name, _ in stratum_check(stratum_model(SWALLOWTAIL))]
        assert any("surface sweep" in name for name in names)

    def test_gamma_restriction(self):
        model = stratum_model(GAMMA)
        # cuspidal curve b = c = 0 kills the discriminant a(4b^3 + 27c^2)
        pulled = model.discriminant.substitute(
            dict(zip(("a", "b", "c"), model.cuspidal.parametrization)), into=PARAM
        )
        assert pulled.is_zero

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError):
            stratum_model("cusp")


class TestContactOrder:
    def test_binode_against_cuspidal_ideal(self):
        model = stratum_model(SWALLOWTAIL)
        # pullbacks: a^2 + 12c -> 16u^4, 8a^3 + 27b^2 -> -64u^6
        value = contact_order(
            model.ordinary.parametrization,
            model.cuspidal.ideal,
            model.ordinary.covering_degree,
        )
        assert value == 2

    def test_cusp_against_tangent_cone_ideal(self):
        model = stratum_model(SWALLOWTAIL)
        ideal = (ABC.parse("b"), ABC.parse("c"), ABC.parse("a^2"))
        assert contact_order(model.cuspidal.parametrization, ideal, 1) == 3

    def test_unit_ideal(self):
        model = stratum_model(SWALLOWTAIL)
        assert contact_order(model.cuspidal.parametrization, (ABC.one(),), 1) == 0

    def test_shared_component_rejected(self):
        model = stratum_model(SWALLOWTAIL)
        with pytest.raises(DomainError):
            contact_order(model.ordinary.parametrization, (ABC.parse("b"),), 2)
