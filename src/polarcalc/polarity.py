"""Polar hypersurfaces, tangent spaces, line contact, and tangent cones.

For a homogeneous F of degree d and a point a, the k-th polar of V(F) with
respect to a is the hypersurface cut out by the iterated directional
derivative (a_0 d_0 + ... + a_N d_N)^k F, of degree d - k.  The polar k-ic
at a swaps the roles of point and variables: it is the degree-k form
(x_0 d_0 + ... + x_N d_N)^k F evaluated at a.  The two are proportional
(polar symmetry), and the proportionality is cross-checked in the test
suite rather than assumed: the two constructions here are independent.
A polar is k steps of ``Poly.directional_derivative``, each one pass over
the terms.  The polar k-ic is k! times the degree-k part of F(a + x),
read off the terms of F in one pass (``Poly.taylor_terms``) with no
derivative and no division.

Contact of lines is decided both by the valuation of the restriction
F(a + T b) and by polar memberships, which must agree.  The restriction
is one pass over the terms of F (``Poly.line_coefficients``), expanding
each factor (a_i + b_i T)^e binomially; the membership ladder polar(F, b,
1), ..., polar(F, b, d - 1) is walked once, each rung one step from the
one below.  Neither the restriction nor the polar k-ic goes through the
polar ladder or the directional derivative.

Tangent cones, like the contact strata of ``flecnodal``, are read from one
local expansion, ``local_parts``: the homogeneous parts P_k of
F(a + sum_j v_j b_j), from one ``substitute``.  With the axes off a pivot
coordinate of a as the b_j, F(a v0 + w) = sum_k v0^(d - k) P_k(w), so the
cone is the lowest nonzero P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from .polyring import (
    INFINITY,
    DomainError,
    Poly,
    PolyRing,
    ProjPoint,
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
    """(a_0 d_0 + ... + a_N d_N) F: one polar step, one pass over the terms of F."""
    _check_point(F, a)
    return F.directional_derivative(a.coords)


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

    It is k! times the degree-k part of F(a + x) in x, read off the terms
    of F in one pass (``Poly.taylor_terms``), independently of :func:`polar`,
    so the proportionality between the two routes is a genuine consistency
    check.
    """
    d = _check_surface(F)
    _check_point(F, a)
    if k < 1 or k > d - 1:
        raise DomainError(f"polar k-ic order {k} outside [1, {d - 1}]")
    scale = math.factorial(k)
    return F.ring.from_terms((alpha, scale * c) for alpha, c in F.taylor_terms(a.coords, k))


def gradient_at(F: Poly, q: ProjPoint) -> list:
    """The partial derivatives of F at a point q of V(F)."""
    _check_point(F, q)
    coords = list(q.coords)
    if F.evaluate(coords):
        raise DomainError("point does not lie on the hypersurface")
    return [F.partial(name).evaluate(coords) for name in F.ring.variables]


def tangent_directions(grads, pivot: int, indices, field) -> list:
    """Tangent directions e_i - (g_i / g_pivot) e_pivot for i in indices; g_pivot != 0."""
    out = []
    for i in indices:
        vec = [field.zero] * len(grads)
        vec[i] = field.one
        vec[pivot] = field.div(-grads[i], grads[pivot])
        out.append(vec)
    return out


def tangent_hyperplane(F: Poly, q: ProjPoint) -> Poly:
    """Equation of the tangent hyperplane at a point q of V(F)."""
    _check_surface(F)
    ring = F.ring
    out = ring.zero()
    for name, g in zip(ring.variables, gradient_at(F, q)):
        if g:
            out = out + ring.var(name) * g
    if out.is_zero:
        raise DomainError("singular point: all partial derivatives vanish")
    return out


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
    coefficients = F.line_coefficients(a.coords, b.coords)
    return PolyRing(("T",), F.ring.field).from_terms(((j,), c) for j, c in enumerate(coefficients))


def line_multiplicity(F: Poly, a: ProjPoint, b: ProjPoint) -> LineContactReport:
    """Intersection multiplicity of V(F) and the line <a, b> at a."""
    d = _check_surface(F)
    if a == b:
        raise DomainError("the two points must be distinct")
    restriction = restrict_to_line(F, a, b)
    mult = valuation(restriction, "T")
    # One walk up the polar ladder: rung k is polar(F, b, k), one step from rung k - 1.
    coords, rung, memberships = list(a.coords), F, []
    for _ in range(d - 1):
        rung = directional_derivative(rung, b)
        memberships.append(not rung.evaluate(coords))
    memberships = tuple(memberships)
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


def local_parts(F: Poly, a: ProjPoint, directions: Mapping[str, Sequence], ring: PolyRing) -> list:
    """Homogeneous parts [P_0, ..., P_d] of F(a + sum_j v_j b_j) in ring's variables, d = deg F.

    ``directions`` maps variables v_j of ``ring`` to coordinate vectors b_j.
    Each variable's image is one ``from_terms`` pass and the expansion one
    ``substitute``; P_0 is F(a).
    """
    origin = tuple(0 for _ in ring.variables)
    units = {v: tuple(int(name == v) for name in ring.variables) for v in directions}
    assignment = {
        name: ring.from_terms([(origin, ai)] + [(units[v], b[i]) for v, b in directions.items()])
        for i, (name, ai) in enumerate(zip(F.ring.variables, a.coords))
    }
    parts = F.substitute(assignment, into=ring).homogeneous_components()
    return parts + [ring.zero()] * (F.total_degree() + 1 - len(parts))


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


def tangent_cone(F: Poly, a: ProjPoint) -> TangentConeReport:
    """Multiplicity of V(F) at a and the tangent cone there.

    The chart pivots on the first nonzero coordinate of a and keeps the
    other basis vectors; its ring reuses the variable names, pivot first.
    """
    _check_surface(F)
    _check_point(F, a)
    ring, field = F.ring, F.ring.field
    pivot = next(i for i, c in enumerate(a.coords) if c)
    others = [i for i in range(len(ring.variables)) if i != pivot]
    chart = PolyRing((ring.variables[pivot],) + tuple(ring.variables[i] for i in others), field)
    axes = [[field.one if k == i else field.zero for k in range(len(a))] for i in others]
    parts = local_parts(F, a, dict(zip(chart.variables[1:], axes)), chart)
    if not parts[0].is_zero:
        raise DomainError("point does not lie on the hypersurface")
    multiplicity = next(k for k, part in enumerate(parts) if not part.is_zero)
    # original coordinate i = a_i * v0 + (v_{j+1} if i is the j-th non-pivot)
    matrix = tuple((c,) + tuple(row[i] for row in axes) for i, c in enumerate(a.coords))
    return TangentConeReport(multiplicity, parts[multiplicity], chart, matrix)
