"""Polar hypersurfaces, tangent spaces, line contact, and tangent cones.

For a homogeneous F of degree d and a point a, the k-th polar of V(F) with
respect to a is the hypersurface cut out by the iterated directional
derivative (a_0 d_0 + ... + a_N d_N)^k F, of degree d - k.  The polar k-ic
at a swaps the roles of point and variables: it is the degree-k form
(x_0 d_0 + ... + x_N d_N)^k F evaluated at a.  The two are proportional
(polar symmetry), and the proportionality is cross-checked in the test
suite rather than assumed: the two constructions here are independent.

Contact of lines is decided both by the valuation of the restriction
F(a + T b) and by polar memberships, which must agree; tangent cones are
read off from the lowest stratum of the chart expansion after a recorded
deterministic linear change of coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .polyring import (
    INFINITY,
    DomainError,
    Poly,
    PolyRing,
    ProjPoint,
    coefficients_in,
    factorial_scalar,
    valuation,
)


def _check_surface(F: Poly) -> int:
    if F.is_zero:
        raise DomainError("the zero polynomial does not define a hypersurface")
    if not F.is_homogeneous():
        raise DomainError("polynomial is not homogeneous")
    return F.total_degree()


def _check_point(F: Poly, a: ProjPoint):
    if len(a) != len(F.ring.variables):
        raise DomainError("point dimension does not match the ring")
    if a.field != F.ring.field:
        raise DomainError("point and polynomial live over different fields")


def directional_derivative(F: Poly, a: ProjPoint) -> Poly:
    _check_point(F, a)
    out = F.ring.zero()
    for coeff, name in zip(a.coords, F.ring.variables):
        if coeff:
            out = out + F.partial(name) * coeff
    return out


def polar(F: Poly, a: ProjPoint, k: int) -> Poly:
    """k-th polar of V(F) with respect to a, of degree d - k.

    The zero output (every polar vanishes identically) encodes the whole
    projective space; callers test ``result.is_zero``.
    """
    d = _check_surface(F)
    if k < 0 or k > d:
        raise DomainError(f"polar order {k} outside [0, {d}]")
    out = F
    for _ in range(k):
        out = directional_derivative(out, a)
    return out


def polar_kic(F: Poly, a: ProjPoint, k: int) -> Poly:
    """Polar k-ic of V(F) at a: degree k in the ambient variables.

    Computed by full multinomial polarization (iterated partials evaluated
    at a), independently of :func:`polar`, so the proportionality between
    the two routes is a genuine consistency check.
    """
    d = _check_surface(F)
    _check_point(F, a)
    if k < 1 or k > d - 1:
        raise DomainError(f"polar k-ic order {k} outside [1, {d - 1}]")
    ring = F.ring
    nvars = len(ring.variables)
    out = ring.zero()
    coords = list(a.coords)
    for alpha in itertools.combinations_with_replacement(range(nvars), k):
        exps = [0] * nvars
        for i in alpha:
            exps[i] += 1
        # multinomial coefficient k! / prod(exps!)
        mult = factorial_scalar(ring.field, k)
        for e in exps:
            mult = mult / factorial_scalar(ring.field, e)
        G = F
        for name, e in zip(ring.variables, exps):
            for _ in range(e):
                G = G.partial(name)
        value = G.evaluate(coords)
        if value:
            out = out + ring.monomial(exps, mult * value)
    return out


def gradient_at(F: Poly, q: ProjPoint) -> list:
    """The partial derivatives of F at a point q of V(F)."""
    _check_point(F, q)
    coords = list(q.coords)
    if F.evaluate(coords):
        raise DomainError("point does not lie on the hypersurface")
    return [F.partial(name).evaluate(coords) for name in F.ring.variables]


def tangent_hyperplane(F: Poly, q: ProjPoint, require_smooth: bool = True) -> Poly:
    """Equation of the tangent hyperplane at a point q of V(F)."""
    _check_surface(F)
    ring = F.ring
    out = ring.zero()
    for name, g in zip(ring.variables, gradient_at(F, q)):
        if g:
            out = out + ring.var(name) * g
    if out.is_zero and require_smooth:
        raise DomainError("singular point: all partial derivatives vanish")
    return out


def is_smooth_point(F: Poly, q: ProjPoint) -> bool:
    return any(gradient_at(F, q))


@dataclass(frozen=True)
class LineContactReport:
    """Contact of the line through base_point and direction_point.

    ``multiplicity`` is the intersection multiplicity at base_point
    (INFINITY when the line lies inside the hypersurface), and
    ``polar_memberships[k-1]`` records whether base_point lies on the k-th
    polar with respect to direction_point, for k = 1 .. d-1.  The two
    routes determine each other and are cross-checked at construction.
    """

    base_point: ProjPoint
    direction_point: ProjPoint
    multiplicity: object
    polar_memberships: Tuple[bool, ...]
    restriction: Poly


def restrict_to_line(F: Poly, a: ProjPoint, b: ProjPoint) -> Poly:
    """F(a + T b) as a univariate polynomial in T."""
    _check_point(F, a)
    _check_point(F, b)
    line_ring = PolyRing(("T",), F.ring.field)
    T = line_ring.var("T")
    assignment = {
        name: line_ring.const(ai) + T * bi
        for name, ai, bi in zip(F.ring.variables, a.coords, b.coords)
    }
    return F.substitute(assignment, into=line_ring)


def line_multiplicity(F: Poly, a: ProjPoint, b: ProjPoint) -> LineContactReport:
    """Intersection multiplicity of V(F) and the line <a, b> at a."""
    d = _check_surface(F)
    if a == b:
        raise DomainError("the two points must be distinct")
    restriction = restrict_to_line(F, a, b)
    mult = valuation(restriction, "T")
    memberships = tuple(
        not polar(F, b, k).evaluate(list(a.coords)) for k in range(1, d)
    )
    # Contact >= s+1 iff the first s memberships hold (given a on V(F));
    # coefficients above the valuation are unconstrained.
    if mult != 0:
        if mult == INFINITY:
            consistent = all(memberships)
        else:
            consistent = all(memberships[: mult - 1]) and (
                mult > d - 1 or not memberships[mult - 1]
            )
        if not consistent:
            raise RuntimeError("polar membership disagrees with the valuation route")
    return LineContactReport(a, b, mult, memberships, restriction)


@dataclass(frozen=True)
class TangentConeReport:
    """Multiplicity and tangent cone at a point, in a recorded chart.

    ``matrix`` columns express the chart coordinates in the original ones
    (original = matrix . chart); the point sits at (1 : 0 : ... : 0) of the
    chart, and ``cone`` is homogeneous of degree ``multiplicity`` in the
    chart variables other than the first.
    """

    multiplicity: int
    cone: Poly
    chart: PolyRing
    matrix: tuple


def chart_at_point(F: Poly, a: ProjPoint):
    """Linear change moving a to the base point (1 : 0 : ... : 0).

    The change pivots on the first nonzero coordinate of a and keeps the
    remaining standard basis vectors, so it is deterministic; the chart
    ring reuses the original variable names with the pivot name first.
    """
    _check_point(F, a)
    ring = F.ring
    field = ring.field
    n = len(ring.variables)
    pivot = next(i for i, c in enumerate(a.coords) if c)
    others = [i for i in range(n) if i != pivot]
    names = (ring.variables[pivot],) + tuple(ring.variables[i] for i in others)
    chart = PolyRing(names, field)
    # original coordinate i = a_i * v0 + (v_{j+1} if i is the j-th non-pivot)
    matrix = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        matrix[i][0] = a.coords[i]
    for j, i in enumerate(others):
        matrix[i][j + 1] = field.one
    return linear_change(F, matrix, chart), chart, tuple(tuple(row) for row in matrix)


def linear_change(F: Poly, matrix, chart: PolyRing) -> Poly:
    """F with its i-th variable replaced by sum_k matrix[i][k] * (k-th chart variable)."""
    gens = chart.gens()
    assignment = {}
    for name, row in zip(F.ring.variables, matrix):
        expr = chart.zero()
        for g, c in zip(gens, row):
            if c:
                expr = expr + g * c
        assignment[name] = expr
    return F.substitute(assignment, into=chart)


def tangent_cone(F: Poly, a: ProjPoint) -> TangentConeReport:
    """Multiplicity of V(F) at a and the tangent cone there."""
    d = _check_surface(F)
    if F.evaluate(list(a.coords)):
        raise DomainError("point does not lie on the hypersurface")
    transformed, chart, matrix = chart_at_point(F, a)
    # F(a) = 0 removes the v0^d term, so the top coefficient in v0 is the
    # lowest nonzero stratum in the other chart variables.
    strata = coefficients_in(transformed, chart.variables[0])
    return TangentConeReport(d - (len(strata) - 1), strata[-1], chart, matrix)
