"""Hessians, second fundamental forms, and parabolic point classification.

The Hessian determinant of a degree-n form in N+1 variables has degree
(N+1)(n-2); its zero locus meets the surface along the parabolic curve.
The second fundamental form at a smooth point p is read off from
derivatives at p, in a deterministic frame: column 0 is p, columns
1 .. N-1 span the tangent hyperplane, and column N is a coordinate vector
scaled so that the gradient pairs with it to one.  In the chart x = frame . v,
Taylor's formula F(p v0 + w) = sum_m v0^(d-m) D_w^m F(p) / m! reads

    v0^(d-1) vN  +  v0^(d-2) (sum a_ij vi vj)  +  (cubic and higher),

with (a_ij) = C^T H(p) C / 2 for C the columns 1 .. N and H(p) the
Hessian matrix at p, so the chart equation is never expanded.  The form on
tangent directions is the leading (N-1) x (N-1) block; its rank and the
vanishing of its discriminant are frame independent and are the only data
consumed downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from . import linalg
from .polyring import INFINITY, DomainError, Poly, ProjPoint, determinant
from .polarity import (
    _check_point,
    _check_surface,
    gradient_at,
    line_multiplicity,
    tangent_directions,
)


def hessian_matrix(F: Poly):
    """The matrix of second partials; each mixed partial is taken once and mirrored."""
    names = F.ring.variables
    H = [[None] * len(names) for _ in names]
    for i, v in enumerate(names):
        first = F.partial(v)
        for j in range(i, len(names)):
            H[i][j] = H[j][i] = first.partial(names[j])
    return H


def hessian_determinant(F: Poly) -> Poly:
    """det of the matrix of second partials; degree (N+1)(n-2) or zero."""
    d = _check_surface(F)
    if d < 2:
        raise DomainError("Hessian needs degree at least 2")
    return determinant(hessian_matrix(F))


@dataclass(frozen=True)
class FundamentalForm:
    """Second fundamental form of a surface at a smooth point.

    ``frame`` is the (N+1) x (N+1) matrix whose columns express the chart
    coordinates in the original ones: column 0 is the point, column N is
    e_J / g_J for g the gradient and J the first index other than the
    point's first nonzero coordinate with g_J != 0, and columns 1 .. N-1
    are the tangent directions e_i - (g_i / g_J) e_J for the remaining
    indices, in order, the last of them in J's slot.  ``quadratic`` is the
    full N x N symmetric matrix (a_ij) of the chart equation in that frame
    and ``matrix`` its leading (N-1) x (N-1) block, the form on tangent
    directions.  ``tangent_basis`` (columns 1 .. N-1) spans the tangent
    plane together with the point itself.
    """

    point: ProjPoint
    matrix: tuple
    quadratic: tuple
    rank: int
    frame: tuple
    tangent_basis: tuple


def second_fundamental_form(F: Poly, p: ProjPoint) -> FundamentalForm:
    """Second fundamental form at a smooth point p of V(F)."""
    d = _check_surface(F)
    if d < 2:
        raise DomainError("second fundamental form needs degree at least 2")
    _check_point(F, p)
    coords = list(p.coords)
    field = F.ring.field
    n = len(coords) - 1
    # The frame pivots on the first nonzero coordinate of p, then on the
    # first other index with a nonzero partial; the last other index takes
    # that second pivot's slot.
    pivot = next(i for i, c in enumerate(coords) if c)
    others = [i for i in range(n + 1) if i != pivot]
    grads = gradient_at(F, p)
    j = next((i for i in others if grads[i]), None)
    if j is None:
        raise DomainError("singular point: no tangent hyperplane")
    slots = [others[-1] if i == j else i for i in others[:-1]]
    normal = [field.zero] * (n + 1)
    normal[j] = field.div(field.one, grads[j])
    columns = [coords] + tangent_directions(grads, j, slots, field) + [normal]
    # a_ij = C_i^T H(p) C_j / 2, the v0^(d-2) coefficient of F(p v0 + w).
    hess = [[h.evaluate(coords) for h in row] for row in hessian_matrix(F)]
    images = [[sum(h * x for h, x in zip(row, col)) for row in hess] for col in columns[1:]]
    quad = [
        [field.div(sum(x * y for x, y in zip(col, image)), 2) for image in images]
        for col in columns[1:]
    ]
    block = [row[: n - 1] for row in quad[: n - 1]]
    return FundamentalForm(
        point=p,
        matrix=tuple(tuple(r) for r in block),
        quadratic=tuple(tuple(r) for r in quad),
        rank=linalg.rank(field, block),
        frame=tuple(zip(*columns)),
        tangent_basis=tuple(ProjPoint(col, field) for col in columns[1:n]),
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


def _binary_quadratic_roots(field, a, r, b, disc):
    """Projective roots (u : v) of a u^2 + 2 r u v + b v^2, given disc = r^2 - ab."""
    if not a and not r and not b:
        return None  # identically zero
    if a:
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
    disc = field.coerce(r * r - a * b)
    roots = _binary_quadratic_roots(field, a, r, b, disc)
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
