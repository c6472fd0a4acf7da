"""Pluecker systems for plane curves, developables, and space curves.

Covers four classical calculi:

* the plane-curve character sextuple (degree, class, nodes, cusps,
  bitangents, flexes) with the four Pluecker relations, their three
  preferred generators, and the genus relation;
* the nine characteristic numbers of a developable system (order m,
  class n, rank r, stationary planes alpha, stationary points beta,
  double-curve degrees x and y, apparent double points g and h) and their
  genus, completed from any subset the 13 relations determine: each
  relation is written once, and whichever character it contains linearly
  is solved for when that character is its only unknown;
* the i-th ranks of a curve in P^N from its degree, genus, and
  hyperosculation totals k_1..k_N, together with the involution sending a
  curve to its osculating dual;
* de Jonquieres counts of divisors with prescribed multiplicities in a
  linear series, as a closed sum of binomial and multinomial products with
  at most prod over s >= 2 of (min(m_s, g) + 1) terms.

Every function accepts exact integers or polynomial values in an
indeterminate, so each relation can be verified either at sample degrees
or as a symbolic zero.  A numeric count is an ``int``: every quotient goes
through ``_div``, which divides exactly and yields a ``Fraction`` only when
the quotient is not integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .polyring import QQ, DomainError, Poly, PolyRing
from .reporting import is_zero, residual_zero


def _value(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise DomainError(f"expected an integer or polynomial value, got {v!r}")
    return QQ.coerce(v)


def _div(a, b):
    """The exact quotient a / b: a ``Poly`` for a polynomial, else an ``int``
    when it is integral and a ``Fraction`` otherwise."""
    return a / b if isinstance(a, Poly) else QQ.div(a, b)


def _require_count(name: str, v, least: int = 0):
    """A character must be an integer of at least ``least`` when numeric."""
    if not isinstance(v, Poly):
        if v.denominator != 1:
            raise DomainError(f"{name} = {v} is not an integer")
        if v < least:
            raise DomainError(f"{name} = {v} is " + (f"below {least}" if least else "negative"))
        return int(v)
    return v


# ---------------------------------------------------------------------------
# plane curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneCurveCharacters:
    """degree, class, nodes, cusps, bitangents, flexes (and genus)."""

    degree: object
    dual_degree: object
    nodes: object
    cusps: object
    bitangents: object
    flexes: object
    genus: Optional[object] = None

    def as_tuple(self):
        return (
            self.degree,
            self.dual_degree,
            self.nodes,
            self.cusps,
            self.bitangents,
            self.flexes,
        )


# The Pluecker pair: class and flex count of a plane curve with ordinary
# nodes and cusps; beside it, the genus of such a curve.
def _plane_class(degree, nodes, cusps):
    return degree * (degree - 1) - 2 * nodes - 3 * cusps


def _plane_flexes(degree, nodes, cusps):
    return 3 * degree * (degree - 2) - 6 * nodes - 8 * cusps


def _plane_genus(degree, nodes, cusps):
    return _div((degree - 1) * (degree - 2), 2) - nodes - cusps


def _counted_plane_characters(*values) -> PlaneCurveCharacters:
    """Characters in field order, each required to be a count."""
    names = ("degree", "class", "nodes", "cusps", "bitangents", "flexes", "genus")
    return PlaneCurveCharacters(*map(_require_count, names, values))


def complete_plane_characters(n, nodes, cusps) -> PlaneCurveCharacters:
    """Fill in class, flexes, and bitangents of a nodal-cuspidal curve."""
    n, d, k = _value(n), _value(nodes), _value(cusps)
    if not isinstance(n, Poly) and n < 2:
        raise DomainError("degree must be at least 2")
    dual, flexes = _plane_class(n, d, k), _plane_flexes(n, d, k)
    bitangents = _div(_plane_class(dual, 0, flexes) - n, 2)
    genus = _plane_genus(n, d, k)
    return _counted_plane_characters(n, dual, d, k, bitangents, flexes, genus)


def solve_from_genus(degree, dual_degree, genus) -> PlaneCurveCharacters:
    """Recover (nodes, cusps) and (bitangents, flexes) from degree data.

    Pairs the class formula with the genus formula on each side of the
    duality: a 2 x 2 integer linear solve for each pair.
    """
    n, nd, g = _value(degree), _value(dual_degree), _value(genus)
    nodes_plus_cusps = _plane_genus(n, 0, 0) - g
    cusps = n * (n - 1) - nd - 2 * nodes_plus_cusps
    nodes = nodes_plus_cusps - cusps
    bi_plus_flex = _plane_genus(nd, 0, 0) - g
    flexes = nd * (nd - 1) - n - 2 * bi_plus_flex
    bitangents = bi_plus_flex - flexes
    return _counted_plane_characters(n, nd, nodes, cusps, bitangents, flexes, g)


def plucker_residuals(chars: PlaneCurveCharacters) -> Dict[str, object]:
    n, nd, d, k, b, f = (_value(v) for v in chars.as_tuple())
    return {
        "P1": _plane_class(n, d, k) - nd,
        "P2": _plane_flexes(n, d, k) - f,
        "P1_dual": _plane_class(nd, b, f) - n,
        "P2_dual": _plane_flexes(nd, b, f) - k,
        "G1": (3 * n - k) - (3 * nd - f),
        "G2": n * (n - 2) + nd * (nd - 2) - (2 * d + 3 * k + 2 * b + 3 * f),
        "G3": 18 * (d - b) - (k - f) * ((k - f) + 6 * nd - 27),
        "genus": _plane_genus(n, d, k) - _plane_genus(nd, b, f),
    }


def _generator_checks(chars: PlaneCurveCharacters, r: Dict[str, object]) -> list:
    """The dependence relations and the generator-matrix reconstruction of
    the residuals ``r``; they hold for arbitrary (even inconsistent)
    characters."""
    n, nd, _, k, _, f = (_value(v) for v in chars.as_tuple())
    r1, r2, rd1, rd2 = r["P1"], r["P2"], r["P1_dual"], r["P2_dual"]
    g1, g2, g3 = r["G1"], r["G2"], r["G3"]
    s, t = n + nd, k - f
    return [
        residual_zero(name, value)
        for name, value in (
            ("G1 = 3*P1 - P2", g1 - (3 * r1 - r2)),
            ("G1 = -3*P1_dual + P2_dual", g1 - (rd2 - 3 * rd1)),
            ("G2 = P1 + P1_dual", g2 - (r1 + rd1)),
            ("3*G2 = P2 + P2_dual", 3 * g2 - (r2 + rd2)),
            ("G3 composition",
             g3 - (3 * (3 * s + t - 3) * r1 - (3 * s + t) * r2 + 9 * rd1)),
            ("reconstruct P1",
             r1 - ((_div(s, 6) + _div(t, 18)) * g1 + _div(g2, 2) - _div(g3, 18))),
            ("reconstruct P2",
             r2 - ((_div(s, 2) + _div(t, 6) - 1) * g1 + _div(3 * g2, 2) - _div(g3, 6))),
            ("reconstruct P1_dual",
             rd1 - (-(_div(s, 6) + _div(t, 18)) * g1 + _div(g2, 2) + _div(g3, 18))),
            ("reconstruct P2_dual",
             rd2 - (-(_div(s, 2) + _div(t, 6) - 1) * g1 + _div(3 * g2, 2) + _div(g3, 6))),
        )
    ]


def verify_plucker_relations(chars: PlaneCurveCharacters) -> list:
    """Residuals of the four Pluecker relations, the three generators,
    the dependence relation, and the generator-matrix reconstruction."""
    r = plucker_residuals(chars)
    checks = [residual_zero(name, value) for name, value in r.items()]
    return checks + _generator_checks(chars, r)


def generator_identities_symbolic() -> list:
    """The structural generator identities over fully indeterminate characters.

    These are the checks of :func:`verify_plucker_relations` that hold for
    arbitrary (even inconsistent) character values; here they are verified
    as zero polynomials in six indeterminates.
    """
    ring = PolyRing(("n", "nd", "d", "k", "b", "f"), QQ)
    chars = PlaneCurveCharacters(*ring.gens())
    r = plucker_residuals(chars)
    genus = r["genus"] - (r["P1"] + 2 * r["P1_dual"] - r["P2_dual"]) / 2
    return _generator_checks(chars, r) + [
        residual_zero("genus relation from the residuals", genus)
    ]


# ---------------------------------------------------------------------------
# developable systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DevelopableCharacters:
    """Characteristic numbers of a developable system.

    m: order (degree of the edge curve); n: class (degree of the dual
    curve); r: rank (degree of the tangential surface); alpha / beta:
    stationary planes / points; x / y: degrees of the ordinary double
    curves of the two tangential surfaces; g / h: apparent double points
    of the dual curve and of the edge curve; genus: common geometric
    genus.
    """

    m: object
    n: object
    r: object
    alpha: object
    beta: object
    x: object
    y: object
    g: object
    h: object
    genus: object


_FIELDS = ("m", "n", "r", "alpha", "beta", "x", "y", "g", "h", "genus")

# Four plane curves carry a developable's Pluecker pair, as
# (view, (degree, nodes, cusps), (class, flexes)) in its characters.
_PLANE_VIEWS = (
    ("rank section", ("r", "x", "m"), ("n", "alpha")),
    ("class projection", ("n", "g", "alpha"), ("r", "m")),
    ("order projection", ("m", "h", "beta"), ("r", "n")),
    ("dual rank section", ("r", "y", "n"), ("m", "beta")),
)
_WORDS = {
    "m": "order",
    "n": "class",
    "r": "rank",
    "alpha": "stationary planes",
    "beta": "stationary points",
}


def _view_relation(formula, curve, target):
    degree, nodes, cusps = curve
    return lambda v: formula(v[degree], v[nodes], v[cusps]) - v[target]


# (name, residual) for the 13 relations; each residual is zero on a developable.
_EQUATIONS = tuple(
    (f"{_WORDS[target]} from {view}", _view_relation(formula, curve, target))
    for view, curve, targets in _PLANE_VIEWS
    for formula, target in zip((_plane_class, _plane_flexes), targets)
) + (
    ("stationary difference",
     lambda v: v["alpha"] - v["beta"] - 2 * (v["n"] - v["m"])),
    ("double-curve difference",
     lambda v: v["x"] - v["y"] - (v["n"] - v["m"])),
    ("apparent-node difference",
     lambda v: 2 * (v["g"] - v["h"]) - (v["n"] - v["m"]) * (v["n"] + v["m"] - 7)),
    ("genus count via order",
     lambda v: 2 * v["m"] + 2 * v["genus"] - 2 - v["beta"] - v["r"]),
    ("genus count via class",
     lambda v: 2 * v["n"] + 2 * v["genus"] - 2 - v["alpha"] - v["r"]),
)


def _linear_terms(residual):
    """The characters in a residual, and the slope of each one it contains
    linearly with a constant slope."""
    ring = PolyRing(_FIELDS, QQ)
    poly = residual(dict(zip(_FIELDS, ring.gens())))
    used = poly.variables_used()
    slopes = {t: poly.partial(t) for t in used if poly.degree_in(t) == 1}
    constant = {t: s.constant_value() for t, s in slopes.items() if not s.variables_used()}
    return used, constant


# (name, residual, participants, {solvable character: slope}) per equation.
_SYSTEM = tuple((name, f, *_linear_terms(f)) for name, f in _EQUATIONS)


def complete_developable(**known) -> Tuple[DevelopableCharacters, list]:
    """Solve the developable relation system from a determining subset.

    Repeatedly solves any equation with exactly one unknown character that
    it contains linearly, until nothing changes.  Returns the completed
    characters and the residual checks of all 13 relations; over-determined
    inputs are verified, never re-solved.
    """
    values = {}
    for key, v in known.items():
        if key not in _FIELDS:
            raise DomainError(f"unknown character {key!r}")
        if v is not None:
            values[key] = _value(v)
    progress = True
    while progress:
        progress = False
        for _, residual, participants, slopes in _SYSTEM:
            unknown = [t for t in participants if t not in values]
            if len(unknown) == 1 and unknown[0] in slopes:
                t = unknown[0]
                values[t] = _div(-residual({**values, t: 0}), slopes[t])
                progress = True
    missing = [f for f in _FIELDS if f not in values]
    if missing:
        raise DomainError(f"insufficient knowns: cannot determine {missing}")
    checks = [residual_zero(name, residual(values)) for name, residual in _EQUATIONS]
    bad = [c.name for c in checks if not c.ok]
    if bad:
        raise DomainError(f"inconsistent characters: nonzero residuals in {bad}")
    cleaned = {f: _require_count(f, values[f]) for f in _FIELDS}
    return DevelopableCharacters(**cleaned), checks


# ---------------------------------------------------------------------------
# ranks of space curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """Degrees r_0..r_{N-1} of the osculating varieties of a curve in P^N.

    k[i] totals the i-th hyperosculation jumps (k_1..k_N), constrained by
    the closing relation sum (N-j+1) k_j = (N+1)(m + N(genus-1)).  The
    ranks telescope, r_(i-1) - 2 r_i + r_(i+1) = 2g - 2 - k_(i+1) with
    r_(-1) = r_N = 0; the test suite proves this and the duality below as
    polynomial identities for N = 2..6.
    """

    dim: int
    degree: object
    genus: object
    k: Tuple[object, ...]
    ranks: Tuple[object, ...]

    def dual(self) -> "RankProfile":
        """Profile of the osculating dual: jumps reversed, so ranks reversed."""
        return rank_profile(self.dim, self.ranks[-1], self.genus, tuple(reversed(self.k)))


def rank_profile(dim: int, degree, genus, k: Sequence) -> RankProfile:
    """Ranks r_i from degree, genus, and hyperosculation totals."""
    if dim < 2:
        raise DomainError("ambient dimension must be at least 2")
    k = tuple(_value(v) for v in k)
    if len(k) != dim:
        raise DomainError(f"need {dim} hyperosculation totals k_1..k_{dim}")
    m, g = _value(degree), _value(genus)
    _require_count("degree", m, least=1)
    _require_count("genus", g)
    for i, v in enumerate(k, start=1):
        _require_count(f"k_{i}", v)
    closing = sum(
        ((dim - j + 1) * k[j - 1] for j in range(2, dim + 1)),
        dim * k[0],
    ) - (dim + 1) * (m + dim * (g - 1))
    if not is_zero(closing):
        raise DomainError(f"hyperosculation totals violate the closing relation: {closing}")
    ranks = []
    for i in range(dim):
        r = (i + 1) * (m + i * (g - 1))
        for j in range(1, i + 1):
            r = r - (i - j + 1) * k[j - 1]
        # r_(N-1) is the degree of the dual curve, so it obeys the degree bound.
        ranks.append(_require_count(f"r_{i}", r, least=1 if i == dim - 1 else 0))
    return RankProfile(dim, _require_count("degree", m), g, k, tuple(ranks))


# ---------------------------------------------------------------------------
# de Jonquieres counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeJonquieresProblem:
    """Degree m series of genus g with prescribed multiplicity pattern."""

    degree: int
    genus: int
    multiplicities: Mapping[int, int]  # s -> number of s-fold points
    dimension: int  # sum (s-1) m_s


def dejonquieres_problem(degree: int, genus: int, multiplicities: Mapping[int, int]):
    degree = _require_count("degree", _value(degree), least=1)
    genus = _require_count("genus", _value(genus))
    filled = {int(s): int(ms) for s, ms in multiplicities.items() if ms}
    if any(s < 1 or ms < 0 for s, ms in filled.items()):
        raise DomainError("multiplicities must map s >= 1 to counts >= 0")
    weighted = sum(s * ms for s, ms in filled.items())
    if 1 not in filled:
        if weighted > degree:
            raise DomainError("multiplicity pattern exceeds the series degree")
        if weighted < degree:
            filled[1] = degree - weighted
    elif weighted != degree:
        raise DomainError("sum of s * m_s must equal the series degree")
    dim = sum((s - 1) * ms for s, ms in filled.items())
    return DeJonquieresProblem(degree, genus, filled, dim)


def dejonquieres_count(degree: int, genus: int, multiplicities: Mapping[int, int]) -> int:
    """Virtual count of divisors with the given multiplicity pattern.

    Coefficient of prod t_s^(m_s) in
    (1 + sum s^2 t_s)^genus * (1 + sum s t_s)^(degree - dim - genus).
    With B = 1 + sum s t_s and C = sum s(s-1) t_s the first base is B + C,
    and degree - dim = N, the number of points, so the product is
    sum_J binom(genus, J) C^J B^(N - J).  Let M = sum_(s >= 2) m_s and
    e_J = [x^J] prod_(s >= 2) (1 + (s-1) x)^(m_s).  Gathering the terms by
    the share J of C in the multiple points (C has no t_1 term), the count is
    prod s^(m_s) * sum_(J <= min(genus, M)) perm(genus, J) perm(N - J, M - J) e_J
    over prod m_s!: a sum of min(genus, M) + 1 terms.
    """
    problem = dejonquieres_problem(degree, genus, multiplicities)
    g = problem.genus
    multiple = {s: ms for s, ms in problem.multiplicities.items() if s > 1}
    points = sum(problem.multiplicities.values())
    fold = sum(multiple.values())
    top = min(g, fold)
    e = [1] + [0] * top  # prod (1 + (s-1) x)^(m_s), cut above x^top
    for s, ms in multiple.items():
        row = [math.comb(ms, i) * (s - 1) ** i for i in range(min(ms, top) + 1)]
        e = [sum(e[j - i] * row[i] for i in range(min(j, len(row) - 1) + 1)) for j in range(top + 1)]
    total = sum(math.perm(g, j) * math.perm(points - j, fold - j) * e[j] for j in range(top + 1))
    count, rest = divmod(total, math.prod(math.factorial(ms) for ms in multiple.values()))
    if rest:
        raise RuntimeError("the de Jonquieres sum is not divisible by prod m_s!")
    return count * math.prod(s ** ms for s, ms in multiple.items())
