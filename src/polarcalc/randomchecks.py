"""Seeded random instance generators and the polarity property batch.

The classical polarity facts (polar symmetry, the Euler polar identity,
the Taylor expansion through polars, and the equivalence of the valuation
and polar-membership routes to line contact) are not verified by a single
closed computation but by batches of random exact instances, over Q and
over a prime field.  Fixed seeds make every failure reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .polarity import directional_derivative, line_multiplicity, polar, polar_kic
from .polyring import Poly, PolyRing, ProjPoint
from .reporting import Check, FAIL, PASS


@functools.lru_cache(maxsize=64)
def _monomials(nvars: int, degree: int) -> tuple:
    """The exponent tuples of one degree, in ``itertools.product`` order:
    seeded ``rng.sample`` draws depend on that order."""
    return tuple(
        exps
        for exps in itertools.product(range(degree + 1), repeat=nvars)
        if sum(exps) == degree
    )


def random_homogeneous(ring: PolyRing, degree: int, rng: random.Random, max_terms: int = 6) -> Poly:
    """A nonzero homogeneous polynomial with small random coefficients."""
    monomials = _monomials(len(ring.variables), degree)
    while True:
        chosen = rng.sample(monomials, min(max_terms, len(monomials)))
        out = ring.from_terms([(exps, ring.field.random(rng)) for exps in chosen])
        if not out.is_zero:
            return out


def random_point(ring: PolyRing, rng: random.Random) -> ProjPoint:
    nvars = len(ring.variables)
    while True:
        coords = [ring.field.random(rng) for _ in range(nvars)]
        if any(coords):
            return ProjPoint(coords, ring.field)


def surface_through(ring: PolyRing, point: ProjPoint, degree: int, rng: random.Random) -> Poly:
    """A random degree-d form vanishing at the given point.

    Built as G - G(a)/a_i^d * x_i^d for the first nonzero coordinate a_i,
    so the output stays homogeneous with exact coefficients.
    """
    while True:
        G = random_homogeneous(ring, degree, rng)
        pivot = next(i for i, c in enumerate(point.coords) if c)
        value = G.evaluate(list(point.coords))
        scale = ring.field.div(value, point.coords[pivot] ** degree)
        exps = [0] * len(ring.variables)
        exps[pivot] = degree
        F = G - ring.monomial(exps, scale)
        if not F.is_zero:
            return F


def _check(name: str, ok: bool, detail=None) -> Check:
    return Check(name, detail, None, PASS if ok else FAIL)


def polar_symmetry_batch(ring: PolyRing, seed: int, trials: int) -> Check:
    """polar(F,b,k) at a and polar(F,a,d-k) at b agree up to k!/(d-k)!;
    the independently built polar k-ic matches the same ratio."""
    rng = random.Random(seed)
    field = ring.field
    for t in range(trials):
        d = rng.randint(2, 4)
        F = random_homogeneous(ring, d, rng)
        a, b = random_point(ring, rng), random_point(ring, rng)
        k = rng.randint(1, d - 1)
        lhs = polar(F, b, k).evaluate(list(a.coords))
        polar_a = polar(F, a, d - k)
        rhs = polar_a.evaluate(list(b.coords))
        if (not lhs) != (not rhs):
            return _check("polar symmetry", False, f"vanishing mismatch at trial {t}")
        if field.coerce(math.factorial(d - k) * lhs - math.factorial(k) * rhs):
            return _check("polar symmetry", False, f"ratio mismatch at trial {t}")
        kic = polar_kic(F, a, k)
        ratio = field.div(math.factorial(k), math.factorial(d - k))
        if kic != polar_a * ratio:
            return _check("polar symmetry", False, f"polar k-ic mismatch at trial {t}")
    return _check(f"polar symmetry ({trials} trials, {field.name})", True)


def euler_polar_batch(ring: PolyRing, seed: int, trials: int) -> Check:
    """polar(F,a,k) evaluated at a equals d(d-1)...(d-k+1) F(a)."""
    rng = random.Random(seed)
    field = ring.field
    for t in range(trials):
        d = rng.randint(1, 5)
        F = random_homogeneous(ring, d, rng)
        a = random_point(ring, rng)
        k = rng.randint(1, d)
        falling = field.one
        for i in range(k):
            falling = falling * (d - i)
        lhs = polar(F, a, k).evaluate(list(a.coords))
        if field.coerce(lhs - falling * F.evaluate(list(a.coords))):
            return _check("Euler polar identity", False, f"trial {t}")
    return _check(f"Euler polar identity ({trials} trials, {field.name})", True)


def taylor_batch(ring: PolyRing, seed: int, trials: int) -> Check:
    """F(a+b) equals the polar expansion sum_k polar(F,b,k)(a)/k!."""
    rng = random.Random(seed)
    field = ring.field
    for t in range(trials):
        d = rng.randint(1, 4)
        F = random_homogeneous(ring, d, rng)
        a, b = random_point(ring, rng), random_point(ring, rng)
        # One walk up the polar ladder: rung k is polar(F, b, k).
        coords, rung = list(a.coords), F
        total = rung.evaluate(coords)
        for k in range(1, d + 1):
            rung = directional_derivative(rung, b)
            total = total + field.div(rung.evaluate(coords), math.factorial(k))
        shifted = F.evaluate([x + y for x, y in zip(a.coords, b.coords)])
        if field.coerce(total - shifted):
            return _check("Taylor polar expansion", False, f"trial {t}")
    return _check(f"Taylor polar expansion ({trials} trials, {field.name})", True)


def contact_equivalence_batch(ring: PolyRing, seed: int, trials: int) -> Check:
    """Valuation of F(a + T b) against the polar membership ladder.

    line_multiplicity computes both routes and raises RuntimeError on
    disagreement; the batch reports that, or a point off the surface, as
    its failure, naming the trial.
    """
    rng = random.Random(seed)
    for t in range(trials):
        d = rng.randint(2, 4)
        a = random_point(ring, rng)
        F = surface_through(ring, a, d, rng)
        b = random_point(ring, rng)
        if a == b:
            continue
        try:
            m = line_multiplicity(F, a, b).multiplicity
        except RuntimeError as exc:
            return _check("contact equivalence", False, f"trial {t}: {exc}")
        if m == 0:
            return _check("contact equivalence", False, f"trial {t}: point off surface")
    return _check(f"contact equivalence ({trials} trials, {ring.field.name})", True)


def property_suite(field, seed: int = 20240913, trials: int = 100) -> list:
    """The full polarity property batch over one coefficient field."""
    ring = PolyRing(("x", "y", "z", "w"), field)
    return [
        polar_symmetry_batch(ring, seed, trials),
        euler_polar_batch(ring, seed + 1, trials),
        taylor_batch(ring, seed + 2, trials),
        contact_equivalence_batch(ring, seed + 3, trials),
    ]
