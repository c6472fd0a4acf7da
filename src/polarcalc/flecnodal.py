"""Flecnodal covariants and the pointwise contact-order test.

A point q of a surface S in P^3 is flecnodal when some line meets S with
multiplicity at least 4 at q.  Restricting S to lines through q inside the
tangent plane produces binary forms II (quadratic) and III (cubic) in the
direction parameter; an order-4 line exists exactly when II and III share
a root, which the Sylvester resultant of the two forms detects.  An
explicit rational line contained in S through q upgrades the answer to
certified infinite contact.

The classical covariants Theta and Phi built from the Hessian matrix are
assembled exactly as printed in the classical sources; their degrees are
reported rather than reconciled (the printed combination is not
homogeneous), and the contact-order test above is the authoritative
membership criterion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import linalg
# bench/test_bench.py reads hessian_determinant from this module.
from .curvature import hessian_determinant, hessian_matrix  # noqa: F401
from .polarity import (
    _check_point,
    _check_surface,
    gradient_at,
    lowest_parts,
    restrict_to_line,
    tangent_directions,
)
from .polyring import (
    DomainError,
    Poly,
    PolyRing,
    ProjPoint,
    Rationals,
    determinant,
    sylvester_rows,
)


@dataclass(frozen=True)
class CovariantPair:
    """The two Hessian-cofactor covariants and their printed combination.

    theta = sum |H|_ij diF djF over signed 3x3 cofactors; phi is the
    double cofactor sum with 2x2 minors and second partials; combination
    is theta - 4 phi Hess(F) assembled verbatim.  ``degrees`` maps each
    piece to its total degree (None for zero polynomials): theta has
    degree 5n-8 and phi degree 7n-14 when nonzero, so the combination is
    reported, not asserted, to be homogeneous.
    """

    theta: Poly
    phi: Poly
    combination: Poly
    degrees: dict


def _signed_minor(matrix, rows, cols):
    """Complementary minor of matrix without the given rows and columns, signed."""
    keep_rows = [r for r in range(len(matrix)) if r not in rows]
    keep_cols = [c for c in range(len(matrix)) if c not in cols]
    det = determinant([[matrix[r][c] for c in keep_cols] for r in keep_rows])
    return det if (sum(rows) + sum(cols)) % 2 == 0 else -det


def flecnodal_covariants(F: Poly) -> CovariantPair:
    """Hessian-cofactor covariants of a surface in P^3."""
    n = _check_surface(F)
    if len(F.ring.variables) != 4:
        raise DomainError("covariants need exactly 4 variables")
    if n < 2:
        raise DomainError("covariants need degree at least 2")
    ring = F.ring
    names = ring.variables
    H = hessian_matrix(F)
    partials = [F.partial(v) for v in names]
    # H is symmetric, so the signed minor for (rows, cols) equals the one for
    # (cols, rows): each sum takes the diagonal once and the rest twice.
    theta = ring.zero()
    cof_sum = ring.zero()
    for i in range(4):
        for j in range(i, 4):
            cof = _signed_minor(H, (i,), (j,))
            if cof.is_zero:
                continue
            if i != j:
                cof = 2 * cof
            cof_sum = cof_sum + cof
            theta = theta + cof * partials[i] * partials[j]
    # Mixed second partials d_i1 d_i2 F over pairs i1 < i2, read from H.
    mixed = [(i, j) for i in range(4) for j in range(i + 1, 4) if not H[i][j].is_zero]
    pair_sum = ring.zero()
    for a, (i1, i2) in enumerate(mixed):
        for b, (j1, j2) in enumerate(mixed[a:], start=a):
            cof2 = _signed_minor(H, (i1, i2), (j1, j2))
            if cof2.is_zero:
                continue
            if a != b:
                cof2 = 2 * cof2
            pair_sum = pair_sum + cof2 * H[i1][i2] * H[j1][j2]
    phi = -(cof_sum * pair_sum)
    combination = theta - 4 * phi * determinant(H)
    degrees = {
        "theta": None if theta.is_zero else theta.total_degree(),
        "phi": None if phi.is_zero else phi.total_degree(),
        "combination": None if combination.is_zero else combination.total_degree(),
    }
    return CovariantPair(theta, phi, combination, degrees)


# ---------------------------------------------------------------------------
# contact order through a point
# ---------------------------------------------------------------------------


class ContactOrder(enum.Enum):
    THREE = "3"
    GE4 = "ge4"
    INFINITE = "infinity"


@dataclass(frozen=True)
class ContactReport:
    """Largest line contact order at a smooth surface point.

    ``order`` is THREE when II is nonzero with nonvanishing resultant
    against III, GE4 when the resultant vanishes (or II is identically
    zero), and INFINITE when an explicit rational line inside the surface
    through the point certifies unbounded contact.  ``line_direction``
    carries that certificate when present.

    Over GF(p) a line whose direction is found only among the roots of a
    stratum of degree 3 or more (II identically zero) is missed, since no
    root search runs there: ``z*w^2 + x^3 - x*y^2`` at (0 : 0 : 0 : 1) is
    INFINITE over Q, with the line towards (0 : 1 : 0 : 0), but GE4 over
    GF(1048583).
    """

    order: ContactOrder
    ii: Poly
    iii: Poly
    resultant: object
    line_direction: Optional[ProjPoint]
    tangent_basis: Tuple[ProjPoint, ProjPoint]


def _tangent_frame(grads, q: ProjPoint):
    """Two deterministic directions spanning, with q, the plane grads . x = 0."""
    pivot = next(i for i, g in enumerate(grads) if g)
    others = [j for j in range(len(grads)) if j != pivot]
    ell = next(j for j in others if q.coords[j])
    picked = tangent_directions(grads, pivot, [j for j in others if j != ell], q.field)
    return ProjPoint(picked[0], q.field), ProjPoint(picked[1], q.field)


def _binary_coeff_list(form: Poly, degree: int):
    """Coefficients [u^degree, ..., v^degree] of a binary form of that degree."""
    return [form.coefficient((degree - i, i)) for i in range(degree + 1)]


def binary_form_resultant(f: Poly, g: Poly, deg_f: int, deg_g: int):
    """Sylvester resultant of binary forms with declared degrees.

    Using declared degrees keeps the root at (1 : 0) visible; the zero
    form yields a zero resultant.
    """
    fc = _binary_coeff_list(f, deg_f)
    gc = _binary_coeff_list(g, deg_g)
    return linalg.scalar_determinant(f.ring.field, sylvester_rows(fc, gc, f.ring.field.zero))


def _univariate_field_roots(coeffs, field):
    """Roots in the field of sum coeffs[i] x^i, for small degrees.

    Degrees 1 and 2 use the closed formulas in every field.  Above that,
    over Q this is the rational root search on the integer-cleared
    polynomial; over a prime field nothing is enumerated (higher degrees
    would need full factorization machinery).
    """
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        return [field.div(-coeffs[0], coeffs[1])]
    if len(coeffs) == 3:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        if not field.is_square(disc):
            return []
        s = field.sqrt(disc)
        roots = [field.div(-b + s, 2 * a)]
        if s:
            roots.append(field.div(-b - s, 2 * a))
            if isinstance(field, Rationals):
                # The order in which the rational root search below meets them.
                roots.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        return roots
    if isinstance(field, Rationals):
        lcm = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * lcm) for c in coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        lead, const = ints[-1], ints[0]
        if const == 0:
            return [0] + _univariate_field_roots(ints[1:], field)
        roots = []
        for p in _divisors(abs(const)):
            for q in _divisors(abs(lead)):
                for cand in (field.div(p, q), field.div(-p, q)):
                    if cand in roots:
                        continue
                    if not sum(c * cand ** i for i, c in enumerate(ints)):
                        roots.append(cand)
        return roots
    return []


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _projective_roots(form: Poly):
    """Field-rational roots (u : v) of a nonzero binary form.

    Coefficients of u^k v^(deg-k) for k = 0 .. deg; (1 : 0) is a root
    exactly when the pure u-power coefficient vanishes, and comes first.
    """
    field = form.ring.field
    univ = _binary_coeff_list(form, form.total_degree())[::-1]
    roots = [] if univ[-1] else [(field.one, field.zero)]
    return roots + [(root, field.one) for root in _univariate_field_roots(univ, field)]


def _line_inside(F: Poly, q: ProjPoint, b: ProjPoint) -> bool:
    """Whether F vanishes identically on the line through q and b.

    The line is restricted in a basis of two of its points b_k q - q_k b,
    each on the hyperplane x_k = 0, picked with the most zero coordinates:
    a coordinate that is zero at one of them is a single term of the
    restriction, not a binomial row.  Vanishing does not depend on the basis.
    """
    points = [
        ProjPoint([bk * qj - qk * bj for qj, bj in zip(q.coords, b.coords)], q.field)
        for qk, bk in zip(q.coords, b.coords)
        if qk or bk
    ]
    points.sort(key=lambda point: -point.coords.count(0))
    second = next(point for point in points if point != points[0])
    return restrict_to_line(F, points[0], second).is_zero


def max_contact_order(F: Poly, q: ProjPoint) -> ContactReport:
    """Largest intersection multiplicity of a line with V(F) at q.

    The strata are the parts of degree <= 3 of F(q + u t1 + v t2), from one
    truncated expansion; higher parts are read, up to the first nonzero
    one, only when II and III both vanish (``lowest_parts``).  The
    candidate lines are the roots of the lowest nonzero stratum, in the
    order the root search meets them; the first at which every stratum
    read vanishes and along which F vanishes identically (``_line_inside``)
    is the certified line.
    """
    _check_surface(F)
    _check_point(F, q)
    if len(F.ring.variables) != 4:
        raise DomainError("contact-order analysis needs a surface in P^3")
    grads = gradient_at(F, q)
    if not any(grads):
        raise DomainError("singular point")
    t1, t2 = _tangent_frame(grads, q)
    # F(q + T(u t1 + v t2)) = sum c_k(u, v) T^k, and setting T = 1 leaves
    # c_k as the degree-k part of F(q + u t1 + v t2).  c_0 = F(q) = 0 and
    # c_1 is zero on the tangent plane, so a common root of c_2..c_d is a
    # line of the surface through q (q is off the span of t1, t2: q_ell != 0).
    duo = PolyRing(("u", "v"), F.ring.field)
    strata = lowest_parts(F, q, {"u": t1.coords, "v": t2.coords}, duo, 3)
    zero = duo.zero()
    ii, iii = strata.get(2, zero), strata.get(3, zero)

    line_dir = None
    if not strata:
        # Every part vanishes: the whole tangent plane lies inside the surface.
        line_dir = t1
    else:
        for u0, v0 in _projective_roots(next(iter(strata.values()))):
            if any(f.evaluate((u0, v0)) for f in strata.values()):
                continue
            vec = ProjPoint([u0 * a + v0 * b for a, b in zip(t1.coords, t2.coords)], duo.field)
            if _line_inside(F, q, vec):
                line_dir = vec
                break
    res = binary_form_resultant(ii, iii, 2, 3)
    if line_dir is not None:
        order = ContactOrder.INFINITE
    elif ii.is_zero or not res:
        order = ContactOrder.GE4
    else:
        order = ContactOrder.THREE
    return ContactReport(order, ii, iii, res, line_dir, (t1, t2))


def flecnodal_member(F: Poly, q: ProjPoint) -> bool:
    """True when some line meets V(F) with multiplicity >= 4 at q."""
    report = max_contact_order(F, q)
    return report.order in (ContactOrder.GE4, ContactOrder.INFINITE)
