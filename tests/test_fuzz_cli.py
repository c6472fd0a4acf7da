"""Seeded fuzzing of the arithmetic CLI commands: the exit-code contract.

Every argv built here, well-formed or not, must end in exit 0 (ok), 1
(check failed), 2 (usage or parse) or 3 (domain), never in an internal
error or a traceback.  Only commands whose work is bounded are fuzzed: the
commands on integer inputs; ``poly tangent-cone`` and ``poly contact``,
which read a local expansion only to the order they use, on sparse forms of
degree up to 10^4; and the other point queries and ``poly hessian`` on
sparse forms of degree up to 6, each within a wall-time bound, since no
degree cap bounds them yet.  ``poly covariants`` is not run.  Most argvs
are well-formed and many are consistent, so the computing paths run as
well as the refusals.  Every argv, with stray words added, is also parsed
both by the leaf parser ``cli._parse_args`` picks and by the whole parser
tree, which must agree.  Hypothesis is derandomized and keeps no example
database, so every run draws the same argvs.
"""

import contextlib
import io
import math
import time
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polarcalc import cli  # noqa: E402
from polarcalc.cli import main  # noqa: E402
from polarcalc.plucker import complete_plane_characters  # noqa: E402
from test_cli import parse_outcome  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=80, deadline=2000)

JUNK = st.sampled_from(["", "x", "1/2", "2.5", "1e3", " 7", "0x10", "-0", "--json", "=", ","])
WIDE = st.integers(-(10**30), 10**30)

DEVELOPABLE = ("m", "n", "r", "alpha", "beta", "x", "y", "g", "h", "genus")
# Two developables: the tangent surfaces of the twisted cubic and of a
# rational quartic space curve.
DEVELOPABLE_EXAMPLES = (
    (3, 3, 4, 0, 0, 0, 0, 1, 1, 0),
    (4, 6, 6, 4, 0, 6, 4, 6, 3, 0),
)
PLANE = ("degree", "class", "nodes", "cusps", "bitangents", "flexes")


def mostly(good, bad=JUNK):
    """Values from ``good``, and now and then from ``bad``."""
    return st.tuples(st.integers(0, 7), good, bad).map(lambda p: p[2] if p[0] == 7 else p[1])


def number(values):
    return mostly(st.one_of(values, WIDE).map(str))


def option(name, values):
    """``[--name, value]``, and now and then nothing."""
    return mostly(values.map(lambda v: [f"--{name}", v]), st.just([]))


def argv(head, *options):
    return st.tuples(*options).map(lambda parts: head + [w for part in parts for w in part])


@st.composite
def assignments(draw, names, examples):
    """``name=value,...`` from a consistent example; now and then some names
    are dropped, a value is perturbed or a stray piece is added."""
    values = dict(zip(names, draw(st.sampled_from(examples))))
    keep = draw(st.permutations(names))
    if draw(st.integers(0, 3)) == 3:
        keep = keep[: draw(st.integers(1, len(names)))]
    pieces = [f"{name}={values[name]}" for name in keep]
    if draw(st.integers(0, 3)) == 3:
        pieces[0] = f"{keep[0]}={draw(number(st.integers(-5, 60)))}"
    if draw(st.integers(0, 7)) == 7:
        pieces.append(draw(st.sampled_from(["bogus=1", "m", "=", keep[0] + "=2"])))
    return ",".join(pieces)


@st.composite
def plane_examples(draw):
    """Characters of a plane curve with at most one cusp and any nodes its genus allows."""
    n = draw(st.integers(3, 12))
    cusps = draw(st.integers(0, 1))
    nodes = draw(st.integers(0, (n - 1) * (n - 2) // 2 - cusps))
    return complete_plane_characters(n, nodes, cusps).as_tuple()


# The multiple points are few and the genus small: the closed sum has at
# most min(genus, sum over s >= 2 of m_s) + 1 terms.
MULT_PIECE = mostly(
    st.tuples(st.integers(-1, 8), st.integers(-1, 60)).map(lambda p: f"{p[0]}:{p[1]}")
)
DEJONQUIERES = argv(
    ["poly", "dejonquieres"],
    option("m", number(st.integers(-2, 400))),
    option("genus", mostly(st.integers(-1, 12).map(str))),
    option("mult", st.lists(MULT_PIECE, min_size=1, max_size=3).map(",".join)),
)


@st.composite
def rank_profile_options(draw):
    """Hyperosculation totals that meet the closing relation when it divides."""
    dim, m, genus = draw(st.integers(2, 6)), draw(st.integers(1, 40)), draw(st.integers(0, 6))
    k = draw(st.lists(st.integers(0, 12), min_size=dim - 1, max_size=dim - 1))
    rest = (dim + 1) * (m + dim * (genus - 1)) - sum((dim - j) * kj for j, kj in enumerate(k, 1))
    words = ["--m", str(m), "--genus", str(genus), "--dim", str(dim)]
    return words + ["--k", ",".join(map(str, [rest // dim, *k]))]


RANK_PROFILE = st.one_of(
    argv(["poly", "rank-profile"], rank_profile_options()),
    argv(
        ["poly", "rank-profile"],
        option("m", number(st.integers(-2, 40))),
        option("genus", number(st.integers(-2, 6))),
        option("k", st.lists(number(st.integers(-2, 40)), max_size=6).map(",".join)),
        option("dim", mostly(st.integers(-1, 6).map(str))),
    ),
)
POLY_DEVELOPABLE = argv(
    ["poly", "developable"],
    option("chars", assignments(DEVELOPABLE, DEVELOPABLE_EXAMPLES)),
)
INVARIANTS = st.one_of(
    argv(
        ["invariants"],
        st.sampled_from(["surface", "branch", "developable"]).map(lambda t: [t]),
        option("degree", number(st.integers(-2, 40))),
    ),
    argv(
        ["invariants", "projected"],
        option("n", number(st.integers(-2, 40))),
        option("pi", number(st.integers(-2, 20))),
        option("pa", number(st.integers(-2, 10))),
        option("ksq", number(st.integers(-20, 60))),
    ),
)
VERIFY_PLUCKER = argv(
    ["verify", "plucker"],
    option("chars", plane_examples().flatmap(lambda ex: assignments(PLANE, (ex,)))),
)


@st.composite
def sparse_forms(draw, max_degree=10 ** 4, coordinates=(-1, 0, 1)):
    """A homogeneous form of degree up to ``max_degree`` with at most five
    terms, with coefficients in [-9, 9], and a point in ``coordinates``^4; in
    about half the draws one more power of a pivot variable puts the point
    on the surface."""
    degree = draw(st.integers(1, max_degree))
    point = draw(st.lists(st.sampled_from(coordinates), min_size=4, max_size=4))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=3, max_size=3)))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-9, 9))
    pivot = next((i for i, c in enumerate(point) if c), None)
    if pivot is not None and draw(st.booleans()):
        value = sum(c * math.prod(x ** e for x, e in zip(point, exps)) for exps, c in terms.items())
        exps = tuple(degree if i == pivot else 0 for i in range(4))
        terms[exps] = terms.get(exps, 0) - Fraction(value, point[pivot] ** degree)
    text = "".join(
        f"{'-' if c < 0 else '+'}{abs(c)}*" + "*".join(f"{v}^{e}" for v, e in zip("xyzw", exps) if e)
        for exps, c in terms.items()
    )
    return [f"--expr={text}", "--point=" + ",".join(map(str, point))]


LOCAL = argv(
    ["poly"],
    st.sampled_from(["tangent-cone", "contact"]).map(lambda op: [op]),
    sparse_forms(),
)


SMALL = (-2, -1, 0, 1, 2)


@st.composite
def point_queries(draw, op):
    """``poly op`` on a sparse form of degree up to 6, with the options its
    leaf reads."""
    surface, point = draw(sparse_forms(6, SMALL))
    words = ["poly", op, surface] + ([] if op == "hessian" else [point])
    if op in ("polar", "polar-kic"):
        words += draw(option("order", mostly(st.integers(-1, 6).map(str))))
    if op == "line-mult":
        direction = st.lists(st.sampled_from(SMALL), min_size=4, max_size=4).map(
            lambda c: ",".join(map(str, c))
        )
        words += draw(option("dir", mostly(direction)))
    return words


POINT_LEAVES = ("polar", "polar-kic", "tangent-plane", "line-mult", "hessian", "second-form",
                "classify", "flecnodal")


def exit_code(words, json_flag):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(words + (["--json"] if json_flag else []))
    assert code in (0, 1, 2, 3), (words, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), words
    return code


COMMANDS = [DEJONQUIERES, RANK_PROFILE, POLY_DEVELOPABLE, INVARIANTS, VERIFY_PLUCKER, LOCAL,
            *(point_queries(op) for op in POINT_LEAVES)]


@pytest.mark.parametrize(
    "command",
    COMMANDS,
    ids=["poly dejonquieres", "poly rank-profile", "poly developable",
         "invariants", "verify plucker", "poly tangent-cone and contact",
         *(f"poly {op}" for op in POINT_LEAVES)],
)
def test_exit_code_contract(command):
    @FUZZ
    @given(command, st.booleans())
    def check(words, json_flag):
        start = time.perf_counter()
        exit_code(words, json_flag)
        assert time.perf_counter() - start < 2.0, words

    check()


STRAY = st.sampled_from(
    ["--json", "-h", "--help", "--", "--ex=", "--=x", "--js", "--json=1", "--bogus", "-1", "",
     "poly", "covariants", "--point", "--expr=x", "--order=2"]
)


@FUZZ
@given(st.one_of(*COMMANDS), st.lists(st.tuples(st.integers(0, 12), STRAY), max_size=3))
def test_leaf_parser_matches_the_tree(words, strays):
    for position, word in strays:
        words = words[:position] + [word] + words[position:]
    assert parse_outcome(cli._parse_args, words) == parse_outcome(
        cli._PARSER.parse_known_args, words
    ), words
