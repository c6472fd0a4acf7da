"""Closed-form enumerative tables for surfaces in P^3 and their verifiers.

For a smooth surface of degree n, the dual surface carries two double
curves (ordinary, from bitangent planes, and cuspidal, from parabolic
tangent planes), finitely many swallowtail, mixed, and triple points, and
a ledger of classical counts: tritangent planes, tacnodal-section planes,
apparent double points of the double curves, and the characteristic
numbers of the two developables dual to those curves.  Every count here
is a polynomial in n, so each cross-relation between them is checked as
an exact polynomial identity (the symbolic mode) as well as at integer
degrees.

The projected-surface block expresses the analogous counts for a surface
with ordinary singularities in P^3 through the four invariants
(n, pi, p_a, K^2) of its normalization; the same functions accept either
integers or polynomial generators, and the class formula equates with the
Euler-number pencil count exactly through the Noether formula.

Everything is pure arithmetic over exact rationals; nothing here touches
the polynomial-geometry kernel except through shared value types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .plucker import (
    DevelopableCharacters,
    PlaneCurveCharacters,
    complete_developable,
    solve_from_genus,
    _value,
)
from .polyring import QQ, DomainError, Poly, PolyRing
from .reporting import Check, is_zero, residual_zero

DEGREE_RING = PolyRing(("n",), QQ)
PROJECTED_RING = PolyRing(("n", "pi", "pa", "ksq"), QQ)


def symbolic_degree() -> Poly:
    """The indeterminate surface degree, for polynomial-identity checks."""
    return DEGREE_RING.var("n")


def _as_count(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise RuntimeError(f"non-integer enumerative count {v}")
        return int(v)
    return v


# ---------------------------------------------------------------------------
# branch curve of a generic projection
# ---------------------------------------------------------------------------


def branch_curve_characters(n) -> PlaneCurveCharacters:
    """Pluecker characters of the branch curve of a generic projection.

    The closed forms in the surface degree are re-derived through a second
    route (genus of the complete intersection of the surface with a first
    polar, then the genus-and-class solve); any disagreement between the
    two routes is a hard failure, not a report entry.
    """
    v = _value(n)
    if isinstance(v, Fraction) and v < 2:
        raise DomainError("branch curve needs surface degree at least 2")
    degree = v * (v - 1)
    dual_degree = v * (v - 1) ** 2
    nodes = v * (v - 1) * (v - 2) * (v - 3) / 2
    cusps = v * (v - 1) * (v - 2)
    bitangents = v * (v - 1) * (v - 2) * (v ** 3 - v ** 2 + v - 12) / 2
    flexes = 4 * v * (v - 1) * (v - 2)
    # Independent route: the pre-image is a complete intersection of
    # degrees (n, n-1), so 2g - 2 = n(n-1)(2n - 5).
    genus = v * (v - 1) * (2 * v - 5) / 2 + 1
    solved = solve_from_genus(degree, dual_degree, genus)
    for name, closed, derived in (
        ("nodes", nodes, solved.nodes),
        ("cusps", cusps, solved.cusps),
        ("bitangents", bitangents, solved.bitangents),
        ("flexes", flexes, solved.flexes),
    ):
        if not is_zero(closed - derived):
            raise RuntimeError(f"branch-curve routes disagree on {name}")
    return PlaneCurveCharacters(
        degree=_as_count(degree),
        dual_degree=_as_count(dual_degree),
        nodes=_as_count(nodes),
        cusps=_as_count(cusps),
        bitangents=_as_count(bitangents),
        flexes=_as_count(flexes),
        genus=_as_count(genus),
    )


# ---------------------------------------------------------------------------
# the dual surface table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCoupleCharacters:
    """Known characters of the developable dual to the ordinary double curve."""

    class_degree: object  # degree of the ordinary double curve
    apparent_double_points: object
    cusps: object
    triple_points: object
    rank: object


@dataclass(frozen=True)
class DualSurfaceTable:
    """Checked invariants of the dual of a smooth degree-n surface.

    Decorated quantities of the dual: its degree, the degree of the
    circumscribed polar cone and of the two double curves, the cuspidal
    and ordinary edge counts of the cone, the swallowtail / mixed / triple
    point counts, bitangent edges, apparent double points of the double
    curves, plus the full character systems of the two associated
    developables and the two flecnodal-curve point counts.
    """

    degree: object
    dual_degree: object
    cone_degree: object
    node_curve: object
    cusp_curve: object
    flex_edges: object
    node_meets: object
    cusp_meets: object
    swallowtails: object
    gammas: object
    tritangents: object
    bitangent_edges: object
    node_apparent: object
    cusp_apparent: object
    plain_meets: object
    hessian: DevelopableCharacters
    node_couple: NodeCoupleCharacters
    flecnodal_nodes: object  # double points of the flecnodal curve
    flecnodal_tangencies: object  # higher-flex contacts with asymptotic lines
    warnings: Tuple[str, ...]


def _degree_value(n):
    v = _value(n)
    if isinstance(v, Fraction):
        if v.denominator != 1 or v < 3:
            raise DomainError("surface degree must be an integer >= 3")
    return v


def hessian_developable_characters(n) -> DevelopableCharacters:
    """Characters of the developable enveloped by parabolic tangent planes.

    Degree, class, and stationary planes have closed forms; everything
    else follows from the developable relation system, and the solved
    order, stationary points, and apparent double points must reproduce
    their own closed forms exactly (a hard failure otherwise).
    """
    v = _degree_value(n)
    rank = 2 * v * (v - 2) * (3 * v - 4)
    class_degree = 4 * v * (v - 1) * (v - 2)
    stationary_planes = 2 * v * (v - 2) * (11 * v - 24)
    chars, _ = complete_developable(r=rank, n=class_degree, alpha=stationary_planes)
    closed = {
        "m": 4 * v * (v - 2) * (7 * v - 15),
        "beta": 10 * v * (v - 2) * (7 * v - 16),
        "g": 2 * v * (v - 2) * (4 * v ** 4 - 16 * v ** 3 + 20 * v ** 2 - 27 * v + 39),
        "h": 2
        * v
        * (v - 2)
        * (196 * v ** 4 - 1232 * v ** 3 + 2580 * v ** 2 - 1861 * v + 137),
    }
    for name, expected in closed.items():
        if not is_zero(getattr(chars, name) - expected):
            raise RuntimeError(f"developable closure disagrees on {name}")
    return chars


def dual_surface_table(n) -> DualSurfaceTable:
    """All checked invariants of the dual surface, exact in n."""
    v = _degree_value(n)
    numeric = isinstance(v, Fraction)
    dual_degree = v * (v - 1) ** 2
    cone_degree = v * (v - 1)
    node_curve = v * (v - 1) * (v - 2) * (v ** 3 - v ** 2 + v - 12) / 2
    cusp_curve = 4 * v * (v - 1) * (v - 2)
    flex_edges = 3 * v * (v - 2)
    node_meets = v * (v - 2) * (v ** 3 - v ** 2 + v - 12)
    cusp_meets = 4 * v * (v - 2)
    hessian = hessian_developable_characters(v)
    # notational collisions resolved by aliasing: the swallowtail count is
    # the stationary-plane count of the parabolic developable, and the
    # cusp-curve apparent double points are its dual apparent nodes
    swallowtails = hessian.alpha
    cusp_apparent = hessian.g
    gammas = 4 * v * (v - 2) * (v - 3) * (v ** 3 + 3 * v - 16)
    tritangents = (
        v
        * (v - 2)
        * (
            v ** 7
            - 4 * v ** 6
            + 7 * v ** 5
            - 45 * v ** 4
            + 114 * v ** 3
            - 111 * v ** 2
            + 548 * v
            - 960
        )
        / 6
    )
    bitangent_edges = v * (v - 2) * (v - 3) * (v + 3) / 2
    node_apparent = (
        v
        * (v - 2)
        * (
            v ** 10
            - 6 * v ** 9
            + 16 * v ** 8
            - 54 * v ** 7
            + 164 * v ** 6
            - 288 * v ** 5
            + 547 * v ** 4
            - 1058 * v ** 3
            + 1068 * v ** 2
            - 1214 * v
            + 1464
        )
        / 8
    )
    plain_meets = 0 * v
    rank_closed = v * (v - 2) * (v - 3) * (v ** 2 + 2 * v - 4)
    rank_adapted = (
        node_curve * (node_curve - 1)
        - 2 * node_apparent
        - 6 * tritangents
        - 3 * gammas
    )
    if not is_zero(rank_closed - rank_adapted):
        raise RuntimeError("node-couple rank routes disagree")
    node_couple = NodeCoupleCharacters(
        class_degree=_as_count(node_curve),
        apparent_double_points=_as_count(node_apparent),
        cusps=_as_count(gammas),
        triple_points=_as_count(tritangents),
        rank=_as_count(rank_closed),
    )
    flecnodal_nodes = 5 * v * (7 * v ** 2 - 28 * v + 30)
    flecnodal_tangencies = 5 * v * (v - 4) * (7 * v - 12)
    warnings = []
    if numeric:
        if v == 3:
            warnings.append("several counts vanish at degree 3 ((n-3) factors)")
        if flecnodal_tangencies < 0:
            warnings.append(
                "flecnodal tangency count is negative below degree 4 "
                "(the formula presumes a general surface of degree >= 4)"
            )
    return DualSurfaceTable(
        degree=_as_count(v),
        dual_degree=_as_count(dual_degree),
        cone_degree=_as_count(cone_degree),
        node_curve=_as_count(node_curve),
        cusp_curve=_as_count(cusp_curve),
        flex_edges=_as_count(flex_edges),
        node_meets=_as_count(node_meets),
        cusp_meets=_as_count(cusp_meets),
        swallowtails=_as_count(swallowtails),
        gammas=_as_count(gammas),
        tritangents=_as_count(tritangents),
        bitangent_edges=_as_count(bitangent_edges),
        node_apparent=_as_count(node_apparent),
        cusp_apparent=_as_count(cusp_apparent),
        plain_meets=_as_count(plain_meets),
        hessian=hessian,
        node_couple=node_couple,
        flecnodal_nodes=_as_count(flecnodal_nodes),
        flecnodal_tangencies=_as_count(flecnodal_tangencies),
        warnings=tuple(warnings),
    )


def nodecouple_characters(n) -> NodeCoupleCharacters:
    return dual_surface_table(n).node_couple


def verify_dual_relations(n) -> list:
    """Residuals of every cross-relation of the dual-surface table.

    The table is substituted into the polar-cone edge relations (with the
    ambient degree replaced by the dual degree), the node-couple /
    parabolic intersection count, and the three ordinary-edge relations;
    the tritangent and apparent-double-point counts are additionally
    re-derived from the relations and compared with their closed forms.
    """
    v = _degree_value(n)
    t = dual_surface_table(v)
    nd = _value(t.dual_degree)
    a, b, c = _value(t.cone_degree), _value(t.node_curve), _value(t.cusp_curve)
    kappa, rho, sigma = (
        _value(t.flex_edges),
        _value(t.node_meets),
        _value(t.cusp_meets),
    )
    beta, gamma, tri = _value(t.swallowtails), _value(t.gammas), _value(t.tritangents)
    delta = _value(t.bitangent_edges)
    k_app, h_app = _value(t.node_apparent), _value(t.cusp_apparent)
    plain = _value(t.plain_meets)
    checks = [
        residual_zero("polar cone degree splits", nd * (nd - 1) - (a + 2 * b + 3 * c)),
        residual_zero(
            "cuspidal edges on the circumscribed cone",
            a * (nd - 2) - (kappa + rho + 2 * sigma),
        ),
        residual_zero(
            "cuspidal edges along the node curve",
            b * (nd - 2) - (rho + 2 * beta + 3 * gamma + 3 * tri),
        ),
        residual_zero(
            "cuspidal edges along the cusp curve",
            c * (nd - 2) - (2 * sigma + 4 * beta + gamma),
        ),
        residual_zero(
            "node-couple meets the parabolic curve",
            v * (v - 2) * (v ** 3 - v ** 2 + v - 12) * 4 * (v - 2)
            - (2 * beta + gamma),
        ),
        residual_zero(
            "ordinary edges on the circumscribed cone",
            a * (nd - 2) * (nd - 3)
            - (2 * delta + 2 * a * b + 3 * a * c - 4 * rho - 9 * sigma),
        ),
        residual_zero(
            "ordinary edges along the node curve",
            b * (nd - 2) * (nd - 3)
            - (4 * k_app + a * b + 3 * b * c - 9 * beta - 6 * gamma - 3 * plain - 2 * rho),
        ),
        residual_zero(
            "ordinary edges along the cusp curve",
            c * (nd - 2) * (nd - 3)
            - (6 * h_app + a * c + 2 * b * c - 6 * beta - 4 * gamma - 2 * plain - 3 * sigma),
        ),
    ]
    derived_tri = (b * (nd - 2) - rho - 2 * beta - 3 * gamma) / 3
    checks.append(residual_zero("tritangents re-derived", derived_tri - tri))
    derived_k = (
        b * (nd - 2) * (nd - 3)
        - a * b
        - 3 * b * c
        + 9 * beta
        + 6 * gamma
        + 3 * plain
        + 2 * rho
    ) / 4
    checks.append(residual_zero("node-curve apparent points re-derived", derived_k - k_app))
    return checks


# ---------------------------------------------------------------------------
# projected surfaces (ordinary singularities in P^3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectedSurfaceTable:
    """Counts for a surface with ordinary singularities in P^3.

    Inputs: the section degree n = C^2, the section genus pi, the
    arithmetic genus p_a of the normalization, and K^2.  Outputs: the
    class, the double-curve degree / genus, the genus of the neutral
    curve upstairs, triple and pinch point counts, the Chern number c2
    via the Noether formula, and the plane-branch-curve characters of a
    generic further projection.
    """

    degree: object
    section_genus: object
    arithmetic_genus: object
    canonical_square: object
    chern_c2: object
    class_degree: object
    double_curve: object
    double_genus: object
    neutral_genus: object
    triple_points: object
    pinch_points: object
    branch_degree: object
    branch_genus: object
    nodes: object
    cusps: object
    bitangents: object
    flexes: object
    checks: Tuple[Check, ...]


def projected_surface_table(n, pi, pa, ksq) -> ProjectedSurfaceTable:
    n, pi, pa, ksq = _value(n), _value(pi), _value(pa), _value(ksq)
    class_degree = n + 4 * pi + 12 * pa - ksq + 8
    double_curve = (n - 1) * (n - 2) / 2 - pi
    double_genus = (n ** 2 - 7 * n) / 2 + pi * (n - 12) + 9 * pa - 2 * ksq + 22
    neutral_genus = n ** 2 - 6 * n + 2 * pi * (n - 10) + 12 * pa - 3 * ksq + 33
    triple_points = (
        (n ** 3 - 9 * n ** 2 + 26 * n) / 6 - pi * (n - 8) - 4 * pa + ksq - 12
    )
    pinch_points = 2 * n + 8 * pi - 12 * pa + 2 * ksq - 20
    branch_degree = 2 * n + 2 * pi - 2
    branch_genus = 9 * pi + ksq - 8
    nodes = 2 * ((n + pi) ** 2 - 5 * n - 17 * pi - 2 * ksq + 6 * pa + 22)
    cusps = 3 * (n + 6 * pi + ksq - 4 * pa - 10)
    bitangents = (
        (n + 4 * pi - ksq + 12 * pa - 1) ** 2
        + 15 * n
        - 6 * pi
        - 17 * ksq
        + 132 * pa
        + 57
    ) / 2
    flexes = 24 * (pi + pa)
    chern_c2 = 12 * (1 + pa) - ksq
    checks = (
        residual_zero(
            "class plus pinch points",
            class_degree + pinch_points - (ksq + 3 * n + 12 * pi - 12),
        ),
        residual_zero(
            "neutral curve arithmetic genus",
            neutral_genus + 3 * triple_points - ((n - 4) * double_curve + 1),
        ),
        residual_zero(
            "double cover ramification",
            2 * neutral_genus - 2 - (2 * (2 * double_genus - 2) + pinch_points),
        ),
        residual_zero(
            "apparent boundary meets the double curve",
            pinch_points
            + ((n - 2) * double_curve - 3 * triple_points)
            - (-ksq + 2 * pi * (n - 7) + 2 * n ** 2 - 7 * n + 14),
        ),
        residual_zero(
            "postulation",
            pa
            - (
                (n - 1) * (n - 2) * (n - 3) / 6
                - (n - 4) * double_curve
                + double_genus
                + 2 * triple_points
                - 1
            ),
        ),
        residual_zero(
            "flexes plus doubled pinch points",
            4 * ksq + 20 * (2 * pi - 2 - n) + 24 * n - (flexes + 2 * pinch_points),
        ),
        residual_zero(
            "class agrees with the Euler-number pencil count",
            class_degree - (chern_c2 + n + 4 * pi - 4),
        ),
    )
    return ProjectedSurfaceTable(
        degree=_as_count(n),
        section_genus=_as_count(pi),
        arithmetic_genus=_as_count(pa),
        canonical_square=_as_count(ksq),
        chern_c2=_as_count(chern_c2),
        class_degree=_as_count(class_degree),
        double_curve=_as_count(double_curve),
        double_genus=_as_count(double_genus),
        neutral_genus=_as_count(neutral_genus),
        triple_points=_as_count(triple_points),
        pinch_points=_as_count(pinch_points),
        branch_degree=_as_count(branch_degree),
        branch_genus=_as_count(branch_genus),
        nodes=_as_count(nodes),
        cusps=_as_count(cusps),
        bitangents=_as_count(bitangents),
        flexes=_as_count(flexes),
        checks=checks,
    )


def verify_noether_equivalence() -> Check:
    """Equating the two class formulas is exactly the Noether formula.

    With c2 a fifth indeterminate, (pencil class) - (polar class) equals
    c2 + K^2 - 12(1 + p_a) identically, so the two class counts agree
    precisely when Noether's relation holds.
    """
    ring = PolyRing(("n", "pi", "pa", "ksq", "c2"), QQ)
    n, pi, pa, ksq, c2 = ring.gens()
    pencil = c2 + n + 4 * pi - 4
    polars = n + 4 * pi + 12 * pa - ksq + 8
    noether_residual = 12 * (1 + pa) - ksq - c2
    return residual_zero(
        "Noether equivalence of the class formulas",
        (pencil - polars) + noether_residual,
    )


def verify_projection_pipelines() -> list:
    """Branch characters through the projected table equal the direct ones.

    Substituting the smooth-surface data (section genus, arithmetic genus,
    K^2 of a smooth degree-n surface in P^3) must reproduce the branch
    curve characters as polynomial identities in n.
    """
    v = symbolic_degree()
    section_genus = (v - 1) * (v - 2) / 2
    arithmetic_genus = (v - 1) * (v - 2) * (v - 3) / 6
    canonical_square = v * (v - 4) ** 2
    table = projected_surface_table(v, section_genus, arithmetic_genus, canonical_square)
    branch = branch_curve_characters(v)
    checks = [residual_zero(f"projected-table identity: {c.name}", c.lhs) for c in table.checks]
    for name, lhs, rhs in (
        ("branch degree", table.branch_degree, branch.degree),
        ("class", table.class_degree, branch.dual_degree),
        ("nodes", table.nodes, branch.nodes),
        ("cusps", table.cusps, branch.cusps),
        ("bitangents", table.bitangents, branch.bitangents),
        ("flexes", table.flexes, branch.flexes),
        ("branch genus", table.branch_genus, branch.genus),
    ):
        checks.append(residual_zero(f"pipeline agreement: {name}", _value(lhs) - _value(rhs)))
    checks.append(verify_noether_equivalence())
    return checks
