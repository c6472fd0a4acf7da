"""Acceptance gate: one test (and one printed line) per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines;
``python tests/test_acceptance.py`` runs the same checks standalone.
All comparisons are exact: integer equality or zero-polynomial identity.
"""

import sys

from polarcalc.curvature import hessian_determinant, second_fundamental_form
from polarcalc.flecnodal import flecnodal_member
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
from polarcalc.localmodels import (
    SWALLOWTAIL,
    GAMMA,
    TRIPLE_T,
    contact_order,
    reference_discriminant,
    stratum_check,
    stratum_model,
    tacnode_discriminant,
)
from polarcalc.plucker import (
    complete_developable,
    complete_plane_characters,
    dejonquieres_count,
    rank_profile,
)
from polarcalc.polyring import QQ, Poly, PolyRing, PrimeField, determinant
from polarcalc.randomchecks import property_suite, random_homogeneous
from polarcalc.reporting import all_ok


def _report(number: int, description: str):
    print(f"PASS criterion {number}: {description}")


def test_criterion_01_tritangent_counts():
    assert dual_surface_table(3).tritangents == 45
    assert dual_surface_table(4).tritangents == 3200
    for n in (3, 4):
        named = {c.name: c for c in verify_dual_relations(n)}
        assert named["tritangents re-derived"].ok
    _report(1, "tritangent planes: 45 at degree 3, 3200 at degree 4, both routes")


def test_criterion_02_classical_cross_anchors():
    assert dual_surface_table(4).bitangent_edges == 28
    chars = complete_plane_characters(4, 0, 0)
    assert (chars.dual_degree, chars.flexes, chars.bitangents) == (12, 24, 28)
    assert branch_curve_characters(3).as_tuple() == (6, 12, 0, 6, 27, 24)
    assert branch_curve_characters(4).as_tuple() == (12, 36, 12, 24, 480, 96)
    branch_curve_characters(symbolic_degree())  # second route: criterion 6's pipeline check
    _report(2, "28 bitangents, smooth-quartic characters, branch curves both routes")


def test_criterion_03_node_couple_chain():
    assert dual_surface_table(3).node_apparent == 216
    assert dual_surface_table(4).node_apparent == 102400
    for n in (3, 4):
        named = {c.name: c for c in verify_dual_relations(n)}
        assert named["node-curve apparent points re-derived"].ok
    assert dual_surface_table(3).node_couple.rank == 0
    assert dual_surface_table(4).node_couple.rank == 160
    _report(3, "apparent double points 216 / 102400 and node-couple rank 0 / 160")


def test_criterion_04_hessian_developable_closure():
    sym = dual_surface_table(symbolic_degree()).hessian
    n = symbolic_degree()
    assert sym.m == 4 * n * (n - 2) * (7 * n - 15)
    assert sym.beta == 10 * n * (n - 2) * (7 * n - 16)
    assert sym.g == 2 * n * (n - 2) * (4 * n ** 4 - 16 * n ** 3 + 20 * n ** 2 - 27 * n + 39)
    assert sym.h == 2 * n * (n - 2) * (
        196 * n ** 4 - 1232 * n ** 3 + 2580 * n ** 2 - 1861 * n + 137
    )
    h3 = dual_surface_table(3).hessian
    assert (h3.m, h3.beta, h3.g, h3.h) == (72, 150, 180, 2316)
    h4 = dual_surface_table(4).hessian
    assert (h4.m, h4.beta, h4.g, h4.h) == (416, 960, 4016, 84816)
    _report(4, "hessian developable closure: symbolic zero residuals and spot values")


def test_criterion_05_symbolic_identity_suite():
    checks = verify_dual_relations(symbolic_degree())
    assert all_ok(checks)
    assert all(isinstance(c.lhs, Poly) for c in checks)
    gens = PROJECTED_RING.gens()
    table = projected_surface_table(*gens)
    assert all_ok(table.checks)
    assert all(isinstance(c.lhs, Poly) for c in table.checks)
    assert verify_noether_equivalence(table).ok
    _report(5, "all dual-surface and projected-surface relations are zero polynomials")


def test_criterion_06_projected_surface_anchors():
    t = projected_surface_table(4, 3, 1, 0)
    assert (
        t.class_degree, t.double_curve, t.double_genus,
        t.neutral_genus, t.triple_points, t.pinch_points,
    ) == (36, 0, 1, 1, 0, 0)
    assert t.class_degree == 4 * (4 - 1) ** 2
    steiner = projected_surface_table(4, 0, 0, 9)
    assert (
        steiner.class_degree, steiner.double_curve,
        steiner.triple_points, steiner.pinch_points,
    ) == (3, 3, 1, 6)
    assert all_ok(verify_projection_pipelines())
    _report(6, "projected-surface anchors and symbolic branch-pipeline agreement")


def test_criterion_07_local_models():
    disc = tacnode_discriminant()
    assert disc == reference_discriminant()
    assert len(disc.terms) == 6
    coefficients = sorted(int(c) for c in disc.terms.values())
    assert coefficients == [-128, -27, -4, 16, 144, 256]
    for model in (SWALLOWTAIL, GAMMA, TRIPLE_T):
        assert all(ok for _, ok in stratum_check(stratum_model(model)))
    sw = stratum_model(SWALLOWTAIL)
    assert contact_order(sw.ordinary.parametrization, sw.cuspidal.ideal, 2) == 2
    _report(7, "tacnode discriminant, stratum identities, double-curve contact 2")


def test_criterion_08_space_curves():
    twisted = rank_profile(3, 3, 0, (0, 0, 0))
    assert twisted.ranks == (3, 4, 3)
    quartic = rank_profile(3, 4, 1, (0, 0, 16))
    assert quartic.ranks == (4, 8, 12)
    assert quartic.dual().ranks == (12, 8, 4)
    chars, checks = complete_developable(m=3, genus=0, alpha=0, beta=0)
    assert (chars.n, chars.r, chars.x, chars.y, chars.g, chars.h) == (3, 4, 0, 0, 1, 1)
    assert chars.x == chars.r - 4
    assert all_ok(checks)
    _report(8, "rank profiles (3,4,3) and (4,8,12); twisted-cubic developable")


def test_criterion_09_dejonquieres_grids():
    for m in range(2, 13):
        for g in range(0, 6):
            assert dejonquieres_count(m, g, {2: 1}) == 2 * m + 2 * g - 2
    for i in (2, 3):
        for m in range(2, 13):
            if m < i + 1:
                continue
            for g in range(0, 6):
                assert dejonquieres_count(m, g, {i + 1: 1}) == (i + 1) * (m + (g - 1) * i)
    _report(9, "de Jonquieres counts on the full grids (simple doubles, i = 2, 3)")


def test_criterion_10_property_suites():
    import random
    from fractions import Fraction

    assert all_ok(property_suite(QQ, seed=20240913, trials=100))
    assert all_ok(property_suite(PrimeField(1048583), seed=20240913, trials=100))

    # bordered-Hessian identity on sampled forms
    rng = random.Random(13)
    for nvars in (3, 4):
        ring = PolyRing(("x", "y", "z", "w")[:nvars])
        for d in (3, 4, 5):
            F = random_homogeneous(ring, d, rng, 5)
            names = ring.variables
            partials = [F.partial(v) for v in names[1:]]
            bordered = [[F * Fraction(d, d - 1)] + partials]
            for p in partials:
                bordered.append([p] + [p.partial(v) for v in names[1:]])
            lhs = ring.var(names[0]) ** 2 * hessian_determinant(F)
            assert lhs == (d - 1) ** 2 * determinant(bordered)

    # rank of the fundamental form against Hessian vanishing
    R = PolyRing()
    surfaces_and_points = [
        ("w^2*z + w*x^2 + w*y^2", (0, 0, 0, 1), 2),
        ("w^2*z + w*x^2", (0, 0, 0, 1), 1),
        ("w^2*z + x^3", (0, 0, 0, 1), 0),
        ("x^3 + y^3 + z^3 - 3*w^3", (1, 1, 1, 1), 2),
        ("x*w - y*z", (1, 0, 0, 0), 2),
    ]
    for text, coords, expected_rank in surfaces_and_points:
        F = R.parse(text)
        form = second_fundamental_form(F, R.point(coords))
        assert form.rank == expected_rank
        hess = hessian_determinant(F).evaluate([Fraction(c) for c in coords])
        assert (form.rank < 2) == (not hess)

    # flecnodal membership anchors
    fermat = R.parse("x^3 + y^3 + z^3 + w^3")
    line_points = [
        (1, -1, 1, -1), (1, -1, 2, -2), (1, -1, 3, -3), (1, -1, 5, -5),
        (2, -2, 1, -1), (1, -1, 0, 0), (0, 0, 1, -1), (1, -1, 7, -7),
        (3, -3, 2, -2), (5, -5, 1, -1),
    ]
    for coords in line_points:
        assert flecnodal_member(fermat, R.point(coords))
    ruled = R.parse("x*w - y*z")
    for a, b, c in ((1, 1, 1), (2, 1, 3), (-1, 2, 5), (3, -2, 1), (1, 0, 4)):
        point = R.point([Fraction(a), Fraction(b), Fraction(c), Fraction(b * c, a)])
        assert flecnodal_member(ruled, point)
    assert not flecnodal_member(R.parse("x^3+y^3+z^3-3*w^3"), R.point([1, 1, 1, 1]))
    _report(10, "polarity property batches (Q and GF(p)), Hessian identities, flecnodal anchors")


CRITERIA = [
    test_criterion_01_tritangent_counts,
    test_criterion_02_classical_cross_anchors,
    test_criterion_03_node_couple_chain,
    test_criterion_04_hessian_developable_closure,
    test_criterion_05_symbolic_identity_suite,
    test_criterion_06_projected_surface_anchors,
    test_criterion_07_local_models,
    test_criterion_08_space_curves,
    test_criterion_09_dejonquieres_grids,
    test_criterion_10_property_suites,
]


def main() -> int:
    failures = 0
    for index, criterion in enumerate(CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL criterion {index}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
