"""Closed-form enumerative tables for surfaces in P^3 and their verifiers.

For a smooth surface of degree n, the dual surface carries two double
curves (ordinary, from bitangent planes, and cuspidal, from parabolic
tangent planes), finitely many swallowtail, mixed, and triple points, and
a ledger of classical counts: tritangent planes, tacnodal-section planes,
apparent double points of the double curves, and the characteristic
numbers of the two developables dual to those curves.  Every count here
is a polynomial in n, so each cross-relation between them is checked as
an exact polynomial identity (the symbolic mode) as well as at integer
degrees; the table carries those checks, built from the values it has
just computed.  The branch curve of a generic projection is solved once
per table from its degree, class and genus, and the table reads its
circumscribed-cone block (dual degree, cone degree, node- and cusp-curve
degrees) and the parabolic developable's class from that record, so those
counts are written once.  Closed forms that the test suite proves for
every n (the parabolic developable's order, stationary points and
apparent double points, the node-couple rank) are not re-derived per call.

The projected-surface block expresses the analogous counts for a surface
with ordinary singularities in P^3 through the four invariants
(n, pi, p_a, K^2) of its normalization, and refuses inputs that give a
negative or fractional degree, class or point count; the same functions
accept either integers or polynomial generators, and the class formula
equates with the Euler-number pencil count exactly through the Noether
formula.  Its seven relations are proved as polynomial identities in all
four invariants.  Its branch-curve block is a second route to the branch
curve of a smooth surface, and the two are proved equal as polynomials in n.

Everything is exact arithmetic: a numeric count is an ``int``, and every
quotient goes through ``plucker._div``, which divides exactly (a
``Fraction`` only for a quotient that is not integral); nothing here
touches the polynomial-geometry kernel except through shared value types.
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
    _div,
    _require_count,
    _value,
)
from .polyring import QQ, DomainError, Poly, PolyRing
from .reporting import Check, residual_zero

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

    The curve is the image of the contour, the complete intersection of the
    surface with a first polar: degree n(n-1), class n(n-1)^2 (the dual
    degree) and 2g - 2 = n(n-1)(2n - 5); the genus-and-class solve gives the
    rest.  ``verify_projection_pipelines`` checks the projected-table route.
    """
    v = _value(n)
    if not isinstance(v, Poly) and v < 2:
        raise DomainError("branch curve needs surface degree at least 2")
    return solve_from_genus(
        v * (v - 1), v * (v - 1) ** 2, _div(v * (v - 1) * (2 * v - 5), 2) + 1
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
    developables and the two flecnodal-curve point counts.  ``hessian`` is
    the developable enveloped by the parabolic tangent planes and
    ``node_couple`` the node-couple developable; the closed forms of the
    parabolic developable's solved characters are proved as polynomial
    identities in n by the test suite, not per call.
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
    checks: Tuple[Check, ...]


def _degree_value(n):
    v = _value(n)
    if not isinstance(v, Poly):
        if v.denominator != 1 or v < 3:
            raise DomainError("surface degree must be an integer >= 3")
    return v


def dual_surface_table(n) -> DualSurfaceTable:
    """All checked invariants of the dual surface, exact in n.

    ``checks`` holds the residuals of every cross-relation of the table:
    the polar-cone edge relations (with the ambient degree replaced by the
    dual degree), the node-couple / parabolic intersection count, and the
    three ordinary-edge relations.  The tritangent and node-curve
    apparent-point counts are the ones the node-curve edge relations solve
    for, so their re-derived residuals are those relations' residuals
    divided by the counts' coefficients.
    """
    v = _degree_value(n)
    numeric = not isinstance(v, Poly)
    # The circumscribed cone is the cone over the branch curve; its bitangent
    # and stationary planes give the degrees of the dual's node and cusp curves.
    branch = branch_curve_characters(v)
    nd, a, b, c = branch.dual_degree, branch.degree, branch.bitangents, branch.flexes
    flex_edges = 3 * v * (v - 2)
    node_meets = v * (v - 2) * (v ** 3 - v ** 2 + v - 12)
    cusp_meets = 4 * v * (v - 2)
    # the parabolic developable: rank and stationary planes in closed form,
    # class (parabolic tangent planes through a point) the branch flex count
    hessian, _ = complete_developable(
        r=2 * v * (v - 2) * (3 * v - 4), n=c, alpha=2 * v * (v - 2) * (11 * v - 24)
    )
    # notational collisions resolved by aliasing: the swallowtail count is
    # the stationary-plane count of the parabolic developable, and the
    # cusp-curve apparent double points are its dual apparent nodes
    swallowtails = hessian.alpha
    cusp_apparent = hessian.g
    gammas = 4 * v * (v - 2) * (v - 3) * (v ** 3 + 3 * v - 16)
    tritangents = _div(
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
        ),
        6,
    )
    bitangent_edges = _div(v * (v - 2) * (v - 3) * (v + 3), 2)
    node_apparent = _div(
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
        ),
        8,
    )
    plain_meets = 0 * v
    node_couple = NodeCoupleCharacters(
        class_degree=b,
        apparent_double_points=_as_count(node_apparent),
        cusps=_as_count(gammas),
        triple_points=_as_count(tritangents),
        rank=_as_count(b * (b - 1) - 2 * node_apparent - 6 * tritangents - 3 * gammas),
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
    node_cuspidal = b * (nd - 2) - (node_meets + 2 * swallowtails + 3 * gammas + 3 * tritangents)
    node_ordinary = b * (nd - 2) * (nd - 3) - (
        4 * node_apparent + a * b + 3 * b * c
        - 9 * swallowtails - 6 * gammas - 3 * plain_meets - 2 * node_meets
    )
    checks = (
        residual_zero("polar cone degree splits", nd * (nd - 1) - (a + 2 * b + 3 * c)),
        residual_zero(
            "cuspidal edges on the circumscribed cone",
            a * (nd - 2) - (flex_edges + node_meets + 2 * cusp_meets),
        ),
        residual_zero("cuspidal edges along the node curve", node_cuspidal),
        residual_zero(
            "cuspidal edges along the cusp curve",
            c * (nd - 2) - (2 * cusp_meets + 4 * swallowtails + gammas),
        ),
        residual_zero(
            "node-couple meets the parabolic curve",
            node_meets * 4 * (v - 2) - (2 * swallowtails + gammas),
        ),
        residual_zero(
            "ordinary edges on the circumscribed cone",
            a * (nd - 2) * (nd - 3)
            - (2 * bitangent_edges + 2 * a * b + 3 * a * c - 4 * node_meets - 9 * cusp_meets),
        ),
        residual_zero("ordinary edges along the node curve", node_ordinary),
        residual_zero(
            "ordinary edges along the cusp curve",
            c * (nd - 2) * (nd - 3) - (
                6 * cusp_apparent + a * c + 2 * b * c
                - 6 * swallowtails - 4 * gammas - 2 * plain_meets - 3 * cusp_meets
            ),
        ),
        residual_zero("tritangents re-derived", _div(node_cuspidal, 3)),
        residual_zero("node-curve apparent points re-derived", _div(node_ordinary, 4)),
    )
    return DualSurfaceTable(
        degree=_as_count(v),
        dual_degree=nd,
        cone_degree=a,
        node_curve=b,
        cusp_curve=c,
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
        checks=checks,
    )


def verify_dual_relations(n) -> list:
    """Residuals of every cross-relation of the dual-surface table: its ``checks``."""
    return list(dual_surface_table(n).checks)


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
    """The table for the invariants (n, pi, p_a, K^2) of the normalization.

    Every degree, class and point count must come out a nonnegative
    integer, or the inputs describe no surface (a ``DomainError`` naming
    the first bad entry); genera, K^2 and c2 may be negative.
    """
    n, pi, pa, ksq = _value(n), _value(pi), _value(pa), _value(ksq)
    class_degree = n + 4 * pi + 12 * pa - ksq + 8
    double_curve = _div((n - 1) * (n - 2), 2) - pi
    double_genus = _div(n ** 2 - 7 * n, 2) + pi * (n - 12) + 9 * pa - 2 * ksq + 22
    neutral_genus = n ** 2 - 6 * n + 2 * pi * (n - 10) + 12 * pa - 3 * ksq + 33
    triple_points = (
        _div(n ** 3 - 9 * n ** 2 + 26 * n, 6) - pi * (n - 8) - 4 * pa + ksq - 12
    )
    pinch_points = 2 * n + 8 * pi - 12 * pa + 2 * ksq - 20
    branch_degree = 2 * n + 2 * pi - 2
    branch_genus = 9 * pi + ksq - 8
    nodes = 2 * ((n + pi) ** 2 - 5 * n - 17 * pi - 2 * ksq + 6 * pa + 22)
    cusps = 3 * (n + 6 * pi + ksq - 4 * pa - 10)
    bitangents = _div(
        (n + 4 * pi - ksq + 12 * pa - 1) ** 2
        + 15 * n
        - 6 * pi
        - 17 * ksq
        + 132 * pa
        + 57,
        2,
    )
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
                _div((n - 1) * (n - 2) * (n - 3), 6)
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
        degree=_require_count("degree", n, least=1),
        section_genus=_as_count(pi),
        arithmetic_genus=_as_count(pa),
        canonical_square=_as_count(ksq),
        chern_c2=_as_count(chern_c2),
        class_degree=_require_count("class", class_degree),
        double_curve=_require_count("double_curve", double_curve),
        double_genus=_as_count(double_genus),
        neutral_genus=_as_count(neutral_genus),
        triple_points=_require_count("triple_points", triple_points),
        pinch_points=_require_count("pinch_points", pinch_points),
        branch_degree=_require_count("branch_degree", branch_degree),
        branch_genus=_as_count(branch_genus),
        nodes=_require_count("nodes", nodes),
        cusps=_require_count("cusps", cusps),
        bitangents=_require_count("bitangents", bitangents),
        flexes=_require_count("flexes", flexes),
        checks=checks,
    )


def verify_noether_equivalence(general: ProjectedSurfaceTable) -> Check:
    """Equating the two class formulas is exactly the Noether formula.

    The Euler-number pencil count c2 + n + 4 pi - 4 exceeds the polar class
    by c2 - chern_c2, chern_c2 = 12(1 + p_a) - K^2, so the two counts agree
    precisely when c2 obeys Noether's relation, and the check reduces to the
    seventh projected identity.  ``general`` is the table over the
    generators of ``PROJECTED_RING``.
    """
    n, pi = general.degree, general.section_genus
    return residual_zero(
        "Noether equivalence of the class formulas",
        general.chern_c2 + n + 4 * pi - 4 - general.class_degree,
    )


def verify_projection_pipelines() -> list:
    """The projected table's identities, and its branch route for smooth surfaces.

    The seven projected-table relations are proved as polynomial identities
    in all four invariants (n, pi, p_a, K^2).  Substituting the
    smooth-surface data (section genus, arithmetic genus, K^2 of a smooth
    degree-n surface in P^3) must then reproduce the branch curve
    characters as polynomial identities in n.
    """
    general = projected_surface_table(*PROJECTED_RING.gens())
    checks = [residual_zero(f"projected-table identity: {c.name}", c.lhs) for c in general.checks]
    v = symbolic_degree()
    section_genus = (v - 1) * (v - 2) / 2
    arithmetic_genus = (v - 1) * (v - 2) * (v - 3) / 6
    canonical_square = v * (v - 4) ** 2
    table = projected_surface_table(v, section_genus, arithmetic_genus, canonical_square)
    branch = branch_curve_characters(v)
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
    checks.append(verify_noether_equivalence(general))
    return checks
