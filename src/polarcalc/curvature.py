"""Hessians, second fundamental forms, and parabolic point classification.

The Hessian determinant of a degree-n form in N+1 variables has degree
(N+1)(n-2); its zero locus meets the surface along the parabolic curve.
The second fundamental form at a smooth point is extracted from a
deterministic normal form: the point is moved to (1 : 0 : ... : 0) and
the linear form of the tangent hyperplane becomes the last coordinate
itself, so the chart reads

    v0^(d-1) vN  +  v0^(d-2) (sum a_ij vi vj)  +  (cubic and higher),

with (a_ij) symmetric.  The form on tangent directions is the leading
(N-1) x (N-1) block; its rank and the vanishing of its discriminant are
frame independent and are the only data consumed downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from . import linalg
from .polyring import INFINITY, DomainError, Poly, PolyRing, ProjPoint
from .polyring import coefficients_in, determinant
from .polarity import chart_at_point, line_multiplicity, linear_change, _check_surface


def hessian_matrix(F: Poly):
    names = F.ring.variables
    firsts = [F.partial(v) for v in names]
    return [[firsts[i].partial(names[j]) for j in range(len(names))] for i in range(len(names))]


def hessian_determinant(F: Poly) -> Poly:
    """det of the matrix of second partials; degree (N+1)(n-2) or zero."""
    d = _check_surface(F)
    if d < 2:
        raise DomainError("Hessian needs degree at least 2")
    return determinant(hessian_matrix(F))


@dataclass(frozen=True)
class FundamentalForm:
    """Second fundamental form of a surface at a smooth point.

    ``matrix`` is the (N-1) x (N-1) block acting on tangent directions, in
    the recorded frame; ``quadratic`` is the full N x N symmetric matrix
    (a_ij) of the normal form, ``normalized`` the normal-form chart equation,
    and ``frame`` the column matrix expressing chart coordinates in the
    original ones.  ``tangent_basis`` spans the tangent plane together
    with the point itself.
    """

    point: ProjPoint
    matrix: tuple
    quadratic: tuple
    rank: int
    frame: tuple
    chart: PolyRing
    normalized: Poly
    tangent_basis: tuple


def _normal_form(F: Poly, p: ProjPoint):
    d = _check_surface(F)
    if d < 2:
        raise DomainError("second fundamental form needs degree at least 2")
    if F.evaluate(list(p.coords)):
        raise DomainError("point does not lie on the surface")
    transformed, chart, matrix = chart_at_point(F, p)
    field = chart.field
    n = len(chart.variables) - 1

    # Linear stratum of the chart expansion: the coefficient of v0^(d-1),
    # whose partial in vi is the coefficient of v0^(d-1) vi (zero for v0).
    strata = coefficients_in(transformed, chart.variables[0])
    stratum = strata[d - 1] if len(strata) >= d else chart.zero()
    linear = [stratum.partial(v).constant_value() for v in chart.variables]
    if not any(linear):
        raise DomainError("singular point: no tangent hyperplane")

    # Second change: send the tangent hyperplane to {vN = 0}, pivoting on
    # the first chart coordinate with a nonzero linear coefficient.
    j = next(i for i, c in enumerate(linear) if c)
    fwd = linalg.identity(field, n + 1)
    fwd[n] = linear
    if j != n:
        fwd[j] = [field.one if k == n else field.zero for k in range(n + 1)]
    back = linalg.mat_inverse(field, fwd)
    # The linear stratum becomes vN itself, so v0^(d-1) vN has coefficient one.
    normalized = linear_change(transformed, back, chart)
    total = tuple(tuple(row) for row in linalg.mat_mul(field, [list(r) for r in matrix], back))
    return normalized, chart, total


def second_fundamental_form(F: Poly, p: ProjPoint) -> FundamentalForm:
    """Second fundamental form at a smooth point p of V(F)."""
    normalized, chart, frame = _normal_form(F, p)
    field = chart.field
    d = F.total_degree()
    n = len(chart.variables) - 1
    # a_ij is half the second partial of the coefficient of v0^(d-2).
    small = coefficients_in(normalized, chart.variables[0])[d - 2]
    quad = [[h.constant_value() / 2 for h in row[1:]] for row in hessian_matrix(small)[1:]]
    block = [row[: n - 1] for row in quad[: n - 1]]
    basis = tuple(
        ProjPoint([frame[i][k] for i in range(n + 1)], field) for k in range(1, n)
    )
    return FundamentalForm(
        point=p,
        matrix=tuple(tuple(r) for r in block),
        quadratic=tuple(tuple(r) for r in quad),
        rank=linalg.rank(field, block),
        frame=frame,
        chart=chart,
        normalized=normalized,
        tangent_basis=basis,
    )


class SurfacePointKind(enum.Enum):
    NON_PARABOLIC = "non-parabolic"
    PARABOLIC_RANK1 = "parabolic-rank1"
    PLANAR_II_ZERO = "planar"


@dataclass(frozen=True)
class AsymptoticData:
    """Certificate for the asymptotic directions at a surface point.

    ``discriminant`` is r^2 - ab for the binary form a u^2 + 2r uv + b v^2
    on tangent directions; rational directions are listed only when the
    discriminant is a square in the coefficient field, and each listed
    direction is verified to meet the surface with multiplicity >= 3.
    """

    discriminant: object
    directions: Tuple[ProjPoint, ...]
    all_tangent_directions: bool
    contacts: Tuple[object, ...]


@dataclass(frozen=True)
class SurfacePointClass:
    kind: SurfacePointKind
    form: FundamentalForm
    asymptotic: AsymptoticData


def _binary_quadratic_roots(field, a, r, b):
    """Projective roots (u : v) of a u^2 + 2 r u v + b v^2 over the field."""
    if not a and not r and not b:
        return None  # identically zero
    if a:
        disc = r * r - a * b
        if not field.is_square(disc):
            return []
        s = field.sqrt(disc)
        roots = [(-r + s, a), (-r - s, a)]
        return [roots[0]] if not disc else roots
    if r:
        return [(field.one, field.zero), (-b, r + r)]
    return [(field.one, field.zero)]


def classify_surface_point(F: Poly, p: ProjPoint) -> SurfacePointClass:
    """Parabolic classification of a smooth point on a surface in P^3."""
    if len(F.ring.variables) != 4:
        raise DomainError("surface point classification needs 4 variables")
    form = second_fundamental_form(F, p)
    field = F.ring.field
    (a, r), (_, b) = form.matrix
    if form.rank == 2:
        kind = SurfacePointKind.NON_PARABOLIC
    elif form.rank == 1:
        kind = SurfacePointKind.PARABOLIC_RANK1
    else:
        kind = SurfacePointKind.PLANAR_II_ZERO
    disc = r * r - a * b
    roots = _binary_quadratic_roots(field, a, r, b)
    t1, t2 = form.tangent_basis
    directions = []
    contacts = []
    if roots:
        for u, v in roots:
            vec = [u * c1 + v * c2 for c1, c2 in zip(t1.coords, t2.coords)]
            direction = ProjPoint(vec, field)
            report = line_multiplicity(F, p, direction)
            if report.multiplicity != INFINITY and report.multiplicity < 3:
                raise RuntimeError("asymptotic direction with contact below 3")
            directions.append(direction)
            contacts.append(report.multiplicity)
    return SurfacePointClass(
        kind=kind,
        form=form,
        asymptotic=AsymptoticData(
            discriminant=disc,
            directions=tuple(directions),
            all_tangent_directions=roots is None,
            contacts=tuple(contacts),
        ),
    )
