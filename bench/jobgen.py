"""Seeded job generators for the four benchmark workloads.

A job is one ``polarcalc`` command line (argv in ``--opt=value`` form, so
that values starting with ``-`` never reach argparse as separate tokens)
plus the generator parameters it was drawn with.  Jobs come in blocks:
a block has a fixed composition (how many jobs of each command and
degree), so every run measures the same mix whatever its length, and its
random inputs depend only on (workload, seed, block index).  A workload
keeps a pool of ``pool_blocks`` distinct blocks and cycles through it.

Two sizes exist: ``full`` for measurement and ``smoke`` for a run of a
few seconds that still touches every layer its workload stresses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

VARIABLES = ("x", "y", "z", "w")
COEFF_HEIGHT = 9  # dense coefficients are uniform nonzero integers in [-9, 9]
MODULUS = 1048583
# modp_batches: jobs per block at each trial count.  Host jitter alone sets
# the 90th percentile of a block of equal batches (their times were
# uncorrelated between two passes), so one batch in five is a larger one
# and the 90th percentile falls in the middle of those.
MODP_MIX = {"full": {15: 8, 50: 2}, "smoke": {2: 2}}
# point_queries: each surface passes through a point whose integer
# coordinates are uniform in [-h, h]; h is drawn with these weights.
POINT_HEIGHTS = {1: 1, 2: 2}
# Two surfaces per degree and block, one per op group, so that the two ops
# running the contact-order root search see independent inputs.
POINT_OPS = (
    ("classify", "second-form", "tangent-cone", "tangent-plane", "contact"),
    ("line-mult", "polar", "polar-kic", "flecnodal"),
)


@dataclass
class Job:
    id: str
    argv: List[str]
    info: Dict[str, object]
    # Set on ``poly hessian`` jobs: the bench-owned surface (exponent tuple
    # -> integer coefficient) and the points the printed Hessian is checked at.
    surface: Optional[Dict[Tuple[int, ...], int]] = None
    check_points: Tuple[Tuple[Fraction, ...], ...] = ()


@dataclass
class Workload:
    name: str
    why: str
    make_block: Callable[[random.Random, str, str], List[Job]]
    pool_blocks: int
    trace_blocks: int
    budget_s: float
    params: Dict[str, object] = field(default_factory=dict)

    def block(self, seed: int, index: int, size: str = "full") -> List[Job]:
        """Block ``index`` of the pool for ``seed``; the same arguments give the same jobs."""
        k = index % self.pool_blocks
        rng = random.Random(f"{self.name}:{seed}:{k}")
        return self.make_block(rng, str(k), size)


def _expand(counts: Dict[Tuple[str, int], int]) -> List[Tuple[str, int]]:
    return [key for key, n in counts.items() for _ in range(n)]


def _finish(jobs: List[Job], rng: random.Random, prefix: str) -> List[Job]:
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.id = f"{prefix}.{i}"
    return jobs


# ---------------------------------------------------------------------------
# dense_forms
# ---------------------------------------------------------------------------


def monomials(degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree]


def render(surface: Dict[Tuple[int, ...], int]) -> str:
    """The expression-grammar text of an integer-coefficient form."""
    parts = []
    for e, c in surface.items():
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(VARIABLES, e) if k)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def dense_surface(rng: random.Random, degree: int) -> Dict[Tuple[int, ...], int]:
    out = {}
    for e in monomials(degree):
        c = 0
        while c == 0:
            c = rng.randint(-COEFF_HEIGHT, COEFF_HEIGHT)
        out[e] = c
    return out


def _rational_point(rng: random.Random) -> Tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))


# Sorted by time, the full mix's 45 jobs run hessian 3 < hessian 4 <
# covariants 3 < hessian 5 < the two largest, with the median in the middle
# of the hessian 4 jobs and the 90th percentile in the middle of the
# hessian 5 jobs: a percentile at the edge of a group jumps with the host's
# jitter between that group's values and its neighbour's.
DENSE_MIX = {
    "full": {("hessian", 3): 12, ("hessian", 4): 21, ("hessian", 5): 5, ("hessian", 6): 1,
             ("covariants", 3): 5, ("covariants", 4): 1},
    "smoke": {("hessian", 3): 2, ("hessian", 4): 1, ("covariants", 3): 1},
}


def dense_block(rng: random.Random, prefix: str, size: str) -> List[Job]:
    jobs = []
    for op, degree in _expand(DENSE_MIX[size]):
        surface = dense_surface(rng, degree)
        job = Job("", ["poly", op, f"--expr={render(surface)}", "--json"],
                  {"command": f"poly {op}", "degree": degree, "terms": len(surface)})
        if op == "hessian":
            job.surface = surface
            job.check_points = (_rational_point(rng), _rational_point(rng))
        jobs.append(job)
    return _finish(jobs, rng, prefix)


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------


def _height(rng: random.Random) -> int:
    heights = list(POINT_HEIGHTS)
    return rng.choices(heights, weights=[POINT_HEIGHTS[h] for h in heights])[0]


def _int_point(rng: random.Random, height: int) -> List[int]:
    while True:
        coords = [rng.randint(-height, height) for _ in range(4)]
        if any(coords):
            return coords


def _coeff_bits(F) -> int:
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in F.terms.values())


def _smooth_surface_through(rng: random.Random, degree: int, height: int):
    """A randomchecks.surface_through form, smooth at its seeded integer point."""
    from polarcalc.polyring import PolyRing, ProjPoint
    from polarcalc.randomchecks import surface_through

    ring = PolyRing()
    while True:
        coords = _int_point(rng, height)
        point = ProjPoint(coords)
        F = surface_through(ring, point, degree, rng)
        if any(F.partial(v).evaluate(point.coords) for v in ring.variables):
            return F, coords


POINT_DEGREES = {"full": (3, 4, 5, 6), "smoke": (3, 4)}


def point_block(rng: random.Random, prefix: str, size: str) -> List[Job]:
    jobs = []
    for degree, ops in itertools.product(POINT_DEGREES[size], POINT_OPS):
        height = _height(rng)
        F, coords = _smooth_surface_through(rng, degree, height)
        expr = str(F)
        point = ",".join(map(str, coords))
        info = {"degree": degree, "height": height, "coeff_bits": _coeff_bits(F)}
        for op in ops:
            argv = ["poly", op, f"--expr={expr}", f"--point={point}", "--json"]
            if op == "line-mult":
                while True:
                    direction = _int_point(rng, height)
                    # a second point, not a multiple of the first
                    if any(a * d != b * c for (a, b), (c, d) in itertools.combinations(
                            zip(coords, direction), 2)):
                        break
                argv.insert(4, "--dir=" + ",".join(map(str, direction)))
            if op in ("polar", "polar-kic"):
                argv.insert(4, f"--order={rng.randint(1, degree - 1)}")
            jobs.append(Job("", argv, dict(info, command=f"poly {op}")))
    return _finish(jobs, rng, prefix)


# ---------------------------------------------------------------------------
# identity_suites
# ---------------------------------------------------------------------------


def _huge(rng: random.Random) -> int:
    return rng.randint(10 ** rng.randint(15, 59), 10 ** 60)


def _plane_chars(rng: random.Random) -> str:
    """Plücker characters of a nodal-cuspidal plane curve, from the formulas."""
    while True:
        d = rng.randint(3, 20)
        genus_max = (d - 1) * (d - 2) // 2
        nodes = rng.randint(0, genus_max // 2)
        cusps = rng.randint(0, (genus_max - nodes) // 3)
        cls = d * (d - 1) - 2 * nodes - 3 * cusps
        flexes = 3 * d * (d - 2) - 6 * nodes - 8 * cusps
        bitangents = (cls * (cls - 1) - d - 3 * flexes) // 2
        if min(cls, flexes, bitangents) >= 0:
            return (f"degree={d},class={cls},nodes={nodes},cusps={cusps},"
                    f"bitangents={bitangents},flexes={flexes}")


def _space_curve(rng: random.Random) -> Tuple[int, int]:
    """(degree, genus) of a smooth space curve with no stationary points."""
    m = rng.randint(3, 30)
    return m, rng.randint(0, min(3, (m - 1) * (m - 2) // 2))


def _mult_pattern(rng: random.Random, m: int) -> str:
    twos = rng.randint(1, max(1, m // 4))
    threes = rng.randint(0, (m - 2 * twos) // 6)
    return f"2:{twos}" + (f",3:{threes}" if threes else "")


def _projected(rng: random.Random) -> List[str]:
    """(n, pi, p_a, K^2) of a smooth surface in P^3 or a projected Veronese plane."""
    if rng.random() < 0.5:
        n = rng.randint(3, 12)
        return [f"--n={n}", f"--pi={(n - 1) * (n - 2) // 2}",
                f"--pa={(n - 1) * (n - 2) * (n - 3) // 6}", f"--ksq={n * (n - 4) ** 2}"]
    d = rng.randint(2, 6)
    return [f"--n={d * d}", f"--pi={(d - 1) * (d - 2) // 2}", "--pa=0", "--ksq=9"]


def _identity_argvs(rng: random.Random, size: str) -> List[Tuple[str, List[str]]]:
    smoke = size == "smoke"
    out = []
    surface_degrees = [rng.randint(3, 30), _huge(rng)]
    if not smoke:
        surface_degrees.append(rng.randint(31, 10 ** 6))
    for n in surface_degrees:
        out.append(("invariants surface", ["invariants", "surface", f"--degree={n}"]))
    for n in [rng.randint(2, 30), _huge(rng)][: 1 if smoke else 2]:
        out.append(("invariants branch", ["invariants", "branch", f"--degree={n}"]))
    for n in [rng.randint(3, 30), _huge(rng)][: 1 if smoke else 2]:
        out.append(("invariants developable", ["invariants", "developable", f"--degree={n}"]))
    for _ in range(1 if smoke else 2):
        out.append(("invariants projected", ["invariants", "projected"] + _projected(rng)))
    for _ in range(1 if smoke else 4):
        m = rng.randint(4, 16)
        out.append(("poly dejonquieres", ["poly", "dejonquieres", f"--m={m}",
                                          f"--genus={rng.randint(0, 3)}",
                                          f"--mult={_mult_pattern(rng, m)}"]))
    for _ in range(1 if smoke else 2):
        m, g = _space_curve(rng)
        alpha = 4 * (m + 3 * g - 3)
        out.append(("poly developable", ["poly", "developable",
                                         f"--chars=m={m},genus={g},alpha={alpha},beta=0"]))
        m, g = _space_curve(rng)
        out.append(("poly rank-profile", ["poly", "rank-profile", f"--m={m}", f"--genus={g}",
                                          f"--k=0,0,{4 * (m + 3 * g - 3)}"]))
        out.append(("verify plucker", ["verify", "plucker", f"--chars={_plane_chars(rng)}"]))
    for _ in range(1 if smoke else 2):
        out.append(("verify models", ["verify", "models"]))
    trials = ["--trials=2"] if smoke else []
    seed = f"--seed={rng.randrange(2 ** 31)}"
    out.append(("verify all", ["verify", "all", seed] + trials))
    hi = rng.randint(4, 6) if smoke else rng.randint(30, 50)
    out.append(("verify all sweep", ["verify", "all", f"--degree-range=3..{hi}", seed] + trials))
    return out


def identity_block(rng: random.Random, prefix: str, size: str) -> List[Job]:
    jobs = [Job("", argv + ["--json"], {"command": command})
            for command, argv in _identity_argvs(rng, size)]
    return _finish(jobs, rng, prefix)


# ---------------------------------------------------------------------------
# modp_batches
# ---------------------------------------------------------------------------


def modp_block(rng: random.Random, prefix: str, size: str) -> List[Job]:
    jobs = []
    for trials, count in MODP_MIX[size].items():
        for _ in range(count):
            seed = rng.randrange(2 ** 31)
            jobs.append(Job("", ["verify", "all", f"--modp={MODULUS}", f"--trials={trials}",
                                 f"--seed={seed}", "--json"],
                            {"command": "verify all --modp", "trials": trials}))
    return _finish(jobs, rng, prefix)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_forms",
            "dense Hessians and covariants: Poly multiplication and Fraction arithmetic",
            dense_block, pool_blocks=8, trace_blocks=1, budget_s=60.0,
            params={"mix": {f"{op}:{d}": n for (op, d), n in DENSE_MIX["full"].items()},
                    "coefficients": f"uniform nonzero integers in [-{COEFF_HEIGHT}, {COEFF_HEIGHT}]",
                    "density": "every monomial of the degree"},
        ),
        Workload(
            "point_queries",
            "short point queries on sparse surfaces: per-call costs and the contact-order root search",
            point_block, pool_blocks=160, trace_blocks=12, budget_s=5.0,
            params={"ops": [list(ops) for ops in POINT_OPS], "degrees": list(POINT_DEGREES["full"]),
                    "surface": ("randomchecks.surface_through: 6 random terms with "
                                "coefficients in [-9, 9], minus a multiple of L^d"),
                    "point_height_weights": {str(h): w for h, w in POINT_HEIGHTS.items()}},
        ),
        Workload(
            "identity_suites",
            "the verification path: identity suites, invariant tables, Plucker and de Jonquieres",
            identity_block, pool_blocks=64, trace_blocks=3, budget_s=60.0,
            params={"block": "3 surface, 2 branch, 2 developable, 2 projected tables; "
                             "4 dejonquieres, 2 developable, 2 rank-profile, 2 plucker; "
                             "2 verify models, verify all, verify all --degree-range=3..[30,50]",
                    "huge_degrees": "uniform in [10^k, 10^60], k uniform in [15, 59]"},
        ),
        Workload(
            "modp_batches",
            "the property batches over GF(1048583): the kernel on Mod coefficients",
            modp_block, pool_blocks=32, trace_blocks=1, budget_s=60.0,
            params={"modulus": MODULUS,
                    "jobs_per_block_by_trials": {str(t): n for t, n in MODP_MIX["full"].items()}},
        ),
    )
}
