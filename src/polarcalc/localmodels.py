"""Discriminant local models: swallowtail, node+cusp, and triple-node types.

Each model lives in deformation coordinates (a, b, c).  The swallowtail is
the discriminant of the family y^2 = x^4 + a x^2 + b x + c; its cuspidal
and ordinary double curves carry explicit polynomial parametrizations and
ideal generators, and every containment is checked as a polynomial
identity in the parameters, never just at sampled points.

Contact order between two parametrized curve germs is defined here as the
minimum over the ideal generators of the parameter valuation of the
pullback, divided by the degree of the parameter-to-point covering; this
valuation semantics reproduces the classical multiplicity-2 contact of
the swallowtail's two double curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .polyring import DomainError, Poly, PolyRing, QQ, resultant, valuation

ABC = PolyRing(("a", "b", "c"), QQ)
PARAM = PolyRing(("u", "v"), QQ)

SWALLOWTAIL = "swallowtail"
GAMMA = "gamma"
TRIPLE_T = "triple-t"

# Reference form of the degree-4 discriminant, all six terms.
_REFERENCE_TEXT = "256*c^3 - 128*a^2*c^2 + 144*a*b^2*c - 27*b^4 + 16*a^4*c - 4*a^3*b^2"


def reference_discriminant() -> Poly:
    return ABC.parse(_REFERENCE_TEXT)


def tacnode_discriminant() -> Poly:
    """Discriminant of x^4 + a x^2 + b x + c, computed from the resultant.

    Disc(f) = Res_x(f, f') / lc(f) with the classical sign for degree 4;
    the unit is pinned by the 256 c^3 term of the reference form, which
    the verification suite compares coefficient for coefficient.
    """
    ring = PolyRing(("x", "a", "b", "c"), QQ)
    x, a, b, c = ring.gens()
    f = x ** 4 + a * x ** 2 + b * x + c
    res = resultant(f, f.partial("x"), "x")
    # Re-house in the (a, b, c) ring; x no longer occurs.
    gens = dict(zip(("x", "a", "b", "c"), (ABC.zero(),) + ABC.gens()))
    return res.substitute(gens, into=ABC)


@dataclass(frozen=True)
class CurveModel:
    """A double curve of a local model: parametrization plus ideal."""

    name: str
    parametrization: Tuple[Poly, ...]  # (a(u), b(u), c(u)) over PARAM
    ideal: Tuple[Poly, ...]  # generators over ABC
    covering_degree: int


@dataclass(frozen=True)
class StratumModel:
    id: str
    discriminant: Poly
    cuspidal: CurveModel
    ordinary: CurveModel
    surface_parametrization: Tuple[Poly, ...]  # two-parameter sweep, or ()


def _p(expr: str) -> Poly:
    return PARAM.parse(expr)


def stratum_model(model_id: str) -> StratumModel:
    u = "u"
    if model_id == SWALLOWTAIL:
        return StratumModel(
            id=SWALLOWTAIL,
            # ``verify models`` proves the resultant route equal to this form
            discriminant=reference_discriminant(),
            cuspidal=CurveModel(
                "cuspidal",
                (_p("-6*u^2"), _p("8*u^3"), _p("-3*u^4")),
                (ABC.parse("a^2 + 12*c"), ABC.parse("8*a^3 + 27*b^2")),
                covering_degree=1,
            ),
            ordinary=CurveModel(
                "ordinary",
                (_p("-2*u^2"), _p("0"), _p("u^4")),
                (ABC.parse("b"), ABC.parse("a^2 - 4*c")),
                covering_degree=2,
            ),
            surface_parametrization=(
                _p("-3*u^2 - 2*u*v - v^2"),
                _p("2*u^3 + 4*u^2*v + 2*u*v^2"),
                _p("-2*u^3*v - u^2*v^2"),
            ),
        )
    if model_id == GAMMA:
        return StratumModel(
            id=GAMMA,
            discriminant=ABC.parse("4*a*b^3 + 27*a*c^2"),
            cuspidal=CurveModel(
                "cuspidal",
                (_p("u"), _p("0"), _p("0")),
                (ABC.parse("b"), ABC.parse("c")),
                covering_degree=1,
            ),
            ordinary=CurveModel(
                "ordinary",
                (_p("0"), _p("-3*u^2"), _p("2*u^3")),
                (ABC.parse("a"), ABC.parse("4*b^3 + 27*c^2")),
                covering_degree=1,
            ),
            surface_parametrization=(),
        )
    if model_id == TRIPLE_T:
        return StratumModel(
            id=TRIPLE_T,
            discriminant=ABC.parse("a*b*c"),
            cuspidal=CurveModel("cuspidal", (), (), covering_degree=1),
            ordinary=CurveModel(
                "ordinary",
                (_p("u"), _p("0"), _p("0")),  # one axis; the others by symmetry
                (ABC.parse("a*b"), ABC.parse("a*c"), ABC.parse("b*c")),
                covering_degree=1,
            ),
            surface_parametrization=(),
        )
    raise DomainError(f"unknown local model {model_id!r}")


def _pullback(gen: Poly, param: Sequence[Poly]) -> Poly:
    assignment = dict(zip(("a", "b", "c"), param))
    return gen.substitute(assignment, into=PARAM)


def stratum_check(model: StratumModel):
    """Polynomial-identity checks for one local model.

    Every parametrized curve must annihilate its own ideal and land inside
    the discriminant; for the swallowtail the full two-parameter sweep of
    the discriminant surface is checked as well.  Returns (name, ok) pairs.
    """
    checks = []

    def vanish(name: str, poly: Poly):
        checks.append((name, poly.is_zero))

    if model.surface_parametrization:
        vanish(
            f"{model.id}: surface sweep annihilates the discriminant",
            _pullback(model.discriminant, model.surface_parametrization),
        )
    for curve in (model.cuspidal, model.ordinary):
        if not curve.parametrization:
            continue
        for k, gen in enumerate(curve.ideal):
            vanish(
                f"{model.id}: {curve.name} curve annihilates ideal generator {k}",
                _pullback(gen, curve.parametrization),
            )
        vanish(
            f"{model.id}: {curve.name} curve lies in the discriminant",
            _pullback(model.discriminant, curve.parametrization),
        )
    if model.id == TRIPLE_T:
        # All three coordinate axes, not just the recorded representative.
        axes = [
            (_p("u"), _p("0"), _p("0")),
            (_p("0"), _p("u"), _p("0")),
            (_p("0"), _p("0"), _p("u")),
        ]
        for i, axis in enumerate(axes):
            ok = all(_pullback(g, axis).is_zero for g in model.ordinary.ideal)
            checks.append((f"triple-t: axis {i} annihilates (ab, ac, bc)", ok))
    return checks


def contact_order(
    param: Sequence[Poly], ideal_gens: Sequence[Poly], covering_degree: int
) -> Fraction:
    """Valuation-based contact order of a parametrized germ with an ideal."""
    if covering_degree < 1:
        raise DomainError("covering degree must be at least 1")
    if not ideal_gens:
        raise DomainError("empty ideal")
    best = None
    for gen in ideal_gens:
        pulled = _pullback(gen, param)
        if pulled.is_zero:
            raise DomainError(
                "generator pulls back to zero: the curves share a component"
            )
        val = valuation(pulled, "u")
        best = val if best is None else min(best, val)
    return Fraction(best, covering_degree)
