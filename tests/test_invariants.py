"""Closed-form tables, their cross-relations, and the symbolic suites."""

import dataclasses

import pytest

from polarcalc.invariants import (
    PROJECTED_RING,
    branch_curve_characters,
    dual_surface_table,
    projected_surface_table,
    symbolic_degree,
    verify_dual_relations,
    verify_noether_equivalence,
    verify_projection_pipelines,
)
from polarcalc.polyring import DomainError, Poly
from polarcalc.reporting import all_ok


class TestBranchCurve:
    def test_degree_three(self):
        assert branch_curve_characters(3).as_tuple() == (6, 12, 0, 6, 27, 24)

    def test_degree_four(self):
        assert branch_curve_characters(4).as_tuple() == (12, 36, 12, 24, 480, 96)

    def test_symbolic_route_agreement(self):
        chars = branch_curve_characters(symbolic_degree())
        # the second route, through the projected table, is criterion 6's
        # pipeline check (verify_projection_pipelines)
        assert isinstance(chars.cusps, Poly)
        n = symbolic_degree()
        assert chars.cusps == n * (n - 1) * (n - 2)

    def test_symbolic_closed_forms(self):
        n = symbolic_degree()
        chars = branch_curve_characters(n)
        assert chars.as_tuple() + (chars.genus,) == (
            n * (n - 1),
            n * (n - 1) ** 2,
            n * (n - 1) * (n - 2) * (n - 3) / 2,
            n * (n - 1) * (n - 2),
            n * (n - 1) * (n - 2) * (n ** 3 - n ** 2 + n - 12) / 2,
            4 * n * (n - 1) * (n - 2),
            n * (n - 1) * (2 * n - 5) / 2 + 1,
        )

    def test_degree_too_small(self):
        with pytest.raises(DomainError):
            branch_curve_characters(1)


class TestDualSurfaceTable:
    def test_cubic(self):
        t = dual_surface_table(3)
        assert t.dual_degree == 12
        assert t.tritangents == 45
        assert t.swallowtails == 54
        assert t.gammas == 0
        assert t.bitangent_edges == 0
        assert t.node_apparent == 216
        assert t.node_curve == 27
        assert t.cusp_curve == 24
        assert t.node_couple.rank == 0

    def test_quartic(self):
        t = dual_surface_table(4)
        assert t.tritangents == 3200
        assert t.swallowtails == 320
        assert t.gammas == 1920
        assert t.bitangent_edges == 28
        assert t.node_apparent == 102400
        assert t.node_curve == 480
        assert t.cusp_curve == 96
        assert t.node_couple.rank == 160

    def test_quintic_classical_anchors(self):
        t = dual_surface_table(5)
        assert t.tritangents == 56575
        assert t.bitangent_edges == 120  # bitangents of a smooth plane quintic
        assert t.node_curve == 2790
        assert t.cusp_curve == 240
        assert t.swallowtails == 930
        assert t.gammas == 14880

    def test_quartic_developables(self):
        h = dual_surface_table(4).hessian
        assert (h.r, h.n, h.alpha) == (128, 96, 320)
        assert (h.m, h.beta, h.g, h.h) == (416, 960, 4016, 84816)

    def test_flecnodal_point_counts(self):
        t3, t4 = dual_surface_table(3), dual_surface_table(4)
        assert t3.flecnodal_nodes == 135
        assert t3.flecnodal_tangencies == -135
        assert any("negative" in w for w in t3.warnings)
        assert t4.flecnodal_nodes == 600
        assert t4.flecnodal_tangencies == 0

    def test_degree_below_range(self):
        with pytest.raises(DomainError):
            dual_surface_table(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, "symbolic"])
    def test_cone_block_is_the_branch_record(self, n):
        n = symbolic_degree() if n == "symbolic" else n
        t, branch = dual_surface_table(n), branch_curve_characters(n)
        assert (t.dual_degree, t.cone_degree, t.node_curve, t.cusp_curve) == (
            branch.dual_degree, branch.degree, branch.bitangents, branch.flexes,
        )
        assert t.hessian.n == branch.flexes

    def test_wrong_gamma_variant_breaks_the_intersection_count(self):
        # the n^3 - 3n - 16 variant fails Kn . He = 2 beta + gamma at n = 4
        n = 4
        wrong_gamma = 4 * n * (n - 2) * (n - 3) * (n ** 3 - 3 * n - 16)
        t = dual_surface_table(4)
        kn_he = (n - 2) * (n ** 3 - n ** 2 + n - 12) * 4 * (n - 2) * n
        assert kn_he == 2 * t.swallowtails + t.gammas
        assert kn_he != 2 * t.swallowtails + wrong_gamma


class TestDualRelations:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_integer_degrees(self, n):
        checks = verify_dual_relations(n)
        assert len(checks) == 10
        assert all_ok(checks)

    def test_symbolic(self):
        checks = verify_dual_relations(symbolic_degree())
        assert all_ok(checks)
        assert all(isinstance(c.lhs, Poly) for c in checks)

    def test_derived_routes(self):
        named = {c.name: c for c in verify_dual_relations(4)}
        assert named["tritangents re-derived"].ok
        assert named["node-curve apparent points re-derived"].ok


class TestHessianDevelopable:
    def test_cubic_closure(self):
        h = dual_surface_table(3).hessian
        assert (h.m, h.n, h.r, h.alpha, h.beta, h.g, h.h) == (
            72, 24, 30, 54, 150, 180, 2316,
        )

    def test_quartic_closure(self):
        h = dual_surface_table(4).hessian
        assert (h.m, h.n, h.r, h.alpha, h.beta, h.g, h.h) == (
            416, 96, 128, 320, 960, 4016, 84816,
        )

    def test_symbolic_closure(self):
        h = dual_surface_table(symbolic_degree()).hessian
        n = symbolic_degree()
        assert h.m == 4 * n * (n - 2) * (7 * n - 15)
        assert h.beta == 10 * n * (n - 2) * (7 * n - 16)


class TestNodeCouple:
    def test_rank_routes(self):
        assert dual_surface_table(3).node_couple.rank == 0
        assert dual_surface_table(4).node_couple.rank == 160

    def test_symbolic_rank(self):
        couple = dual_surface_table(symbolic_degree()).node_couple
        n = symbolic_degree()
        assert couple.rank == n * (n - 2) * (n - 3) * (n ** 2 + 2 * n - 4)

    def test_components(self):
        t = dual_surface_table(4)
        c = t.node_couple
        assert c.class_degree == t.node_curve
        assert c.apparent_double_points == t.node_apparent
        assert c.cusps == t.gammas
        assert c.triple_points == t.tritangents


class TestProjectedSurfaces:
    def test_smooth_quartic(self):
        t = projected_surface_table(4, 3, 1, 0)
        assert (t.class_degree, t.double_curve, t.double_genus) == (36, 0, 1)
        assert (t.neutral_genus, t.triple_points, t.pinch_points) == (1, 0, 0)
        assert t.class_degree == 4 * 3 ** 2  # n(n-1)^2 cross-check
        assert t.chern_c2 == 24
        assert t.class_degree == t.chern_c2 + 4 + 4 * 3 - 4
        assert all_ok(t.checks)

    def test_steiner_quartic(self):
        t = projected_surface_table(4, 0, 0, 9)
        assert (t.class_degree, t.double_curve, t.triple_points, t.pinch_points) == (
            3, 3, 1, 6,
        )
        # degenerate double curve (three concurrent lines): formal genus -2
        assert t.double_genus == -2
        assert all_ok(t.checks)

    def test_quartic_net_characters_match_branch_curve(self):
        t = projected_surface_table(4, 3, 1, 0)
        branch = branch_curve_characters(4)
        assert (t.branch_degree, t.nodes, t.cusps, t.bitangents, t.flexes) == (
            branch.degree, branch.nodes, branch.cusps, branch.bitangents, branch.flexes,
        )
        assert t.branch_genus == branch.genus == 19

    def test_symbolic_identities(self):
        ring = __import__("polarcalc.invariants", fromlist=["PROJECTED_RING"]).PROJECTED_RING
        n, pi, pa, ksq = ring.gens()
        t = projected_surface_table(n, pi, pa, ksq)
        assert all_ok(t.checks)
        assert all(isinstance(c.lhs, Poly) for c in t.checks)

    def test_smooth_quintic_class(self):
        # smooth quintic in P^3 fed through the projected table: the class
        # must come out as n(n-1)^2 = 80
        t = projected_surface_table(5, 6, 4, 5)
        assert t.class_degree == 80
        assert t.double_curve == 0
        assert all_ok(t.checks)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ((4, 7, 5, 1000), "class = -900 is negative"),
            ((0, 0, 0, 0), "degree = 0 is below 1"),
            ((4, 4, 0, 9), "double_curve = -1 is negative"),
        ],
    )
    def test_invalid_inputs_name_the_entry(self, inputs, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            projected_surface_table(*inputs)

    def test_smooth_and_veronese_inputs_are_valid(self):
        for n in range(1, 13):
            projected_surface_table(
                n, (n - 1) * (n - 2) // 2, (n - 1) * (n - 2) * (n - 3) // 6, n * (n - 4) ** 2
            )
        for d in range(2, 7):
            projected_surface_table(d * d, (d - 1) * (d - 2) // 2, 0, 9)

    def test_pipeline_agreement_symbolic(self):
        assert all_ok(verify_projection_pipelines())

    def test_pipeline_proves_the_identities_in_all_four_invariants(self):
        identities = [
            c for c in verify_projection_pipelines()
            if c.name.startswith("projected-table identity: ")
        ]
        assert len(identities) == 7
        assert all(c.lhs.ring is PROJECTED_RING and c.ok for c in identities)

    def test_noether_equivalence(self):
        general = projected_surface_table(*PROJECTED_RING.gens())
        check = verify_noether_equivalence(general)
        assert check.ok and check.lhs.ring is PROJECTED_RING
        # A class off by one breaks the equivalence: the check can fail.
        shifted = dataclasses.replace(general, class_degree=general.class_degree + 1)
        assert not verify_noether_equivalence(shifted).ok
