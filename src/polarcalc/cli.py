"""Command-line surface: invariant tables, verifiers, and the poly kernel.

Three top-level commands:

* ``invariants`` prints the closed-form tables (dual surface, branch
  curve, developables, projected surfaces);
* ``verify`` runs the identity suites, symbolically or over a degree
  range, the local-model checks, and one-off plane-curve relation checks;
* ``poly`` exposes the exact kernel on explicit surfaces and points.

Output is aligned name/value columns by default or a stable JSON document
with ``--json`` (top-level keys: command, inputs, results, checks).
Integers beyond 2^53 - 1 are emitted as decimal strings; enumerative
counts are emitted as decimal strings uniformly so the schema does not
depend on their size.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error,
3 mathematical domain error (singular point, wrong homogeneity, ...),
4 internal error: an internal cross-check between two routes disagreed,
a float reached the JSON document, or any other exception escaped (a bug
in polarcalc, reported as ``internal error: ...`` on stderr, with no
traceback).  Output that cannot be written, as when a reader such as
``head`` closes the pipe early, is an I/O error like an unreadable
``--surface`` file: exit 2, ``error: [Errno 32] Broken pipe`` on stderr,
and no traceback at exit.

Each leaf command (``poly hessian``, ...) takes only the options its handler
reads, declared once in ``_OPTIONS`` and ``_COMMANDS``; any other is a usage
error.  So ``--modp P`` (the property batches over GF(P)) is taken by
``verify all`` only: ``poly``, ``verify models`` and ``verify plucker``
report exact rational statements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from . import invariants, localmodels, randomchecks
from .curvature import classify_surface_point, hessian_determinant, second_fundamental_form
from .flecnodal import flecnodal_covariants, flecnodal_member, max_contact_order
from .plucker import (
    DevelopableCharacters,
    PlaneCurveCharacters,
    complete_developable,
    dejonquieres_count,
    generator_identities_symbolic,
    rank_profile,
    verify_plucker_relations,
)
from .polarity import line_multiplicity, polar, polar_kic, tangent_cone, tangent_hyperplane
from .polyring import (
    INFINITY,
    QQ,
    DomainError,
    ParseError,
    Poly,
    PolyRing,
    PrimeField,
    ProjPoint,
)
from .reporting import Check, FAIL, PASS, WARN, warn

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

_JSON_INT_LIMIT = 2 ** 53 - 1


class UsageError(Exception):
    pass


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if value is INFINITY:
        return "infinity"
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_INT_LIMIT else value
    if isinstance(value, float):
        # Every reported value is exact; a float here is a bug upstream.
        if value != INFINITY:
            raise RuntimeError(f"float {value!r} in the JSON document")
        return "infinity"
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else _jsonable(int(value))
    if isinstance(value, (Poly, ProjPoint)):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


@contextlib.contextmanager
def _all_digits():
    """Lift Python's cap (3.11+) on int-to-str digits while output is built.

    Input literals keep the cap: reading a long one stays cheap to refuse.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _count_str(value):
    """Enumerative counts go out as decimal strings, whatever their size."""
    if isinstance(value, Fraction) and value.denominator == 1:
        value = int(value)
    with _all_digits():
        return str(value)


class CommandResult:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.results: dict = {}
        self.checks: list = []

    def add_checks(self, checks):
        self.checks.extend(checks)

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    def render(self, as_json: bool) -> str:
        if as_json:
            doc = {
                "command": self.command,
                "inputs": _jsonable(self.inputs),
                "results": _jsonable(self.results),
                "checks": [
                    {
                        "name": c.name,
                        "status": c.status,
                        "lhs": _jsonable(c.lhs),
                        "rhs": _jsonable(c.rhs),
                    }
                    for c in self.checks
                ],
            }
            return json.dumps(doc, indent=2)
        lines = []
        if self.results:
            width = max(len(str(k)) for k in self.results)
            for key, value in self.results.items():
                if isinstance(value, dict):
                    lines.append(f"{key}:")
                    sub = max((len(str(k)) for k in value), default=0)
                    for k2, v2 in value.items():
                        lines.append(f"  {str(k2).ljust(sub)}  {v2}")
                else:
                    lines.append(f"{str(key).ljust(width)}  {value}")
        for c in self.checks:
            mark = {PASS: "pass", FAIL: "FAIL", WARN: "warn"}[c.status]
            detail = ""
            if c.status == FAIL:
                detail = f"  [lhs={c.lhs} rhs={c.rhs}]"
            elif c.status == WARN and c.lhs is not None:
                detail = f"  ({c.lhs})"
            lines.append(f"{mark}  {c.name}{detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _load_surface(args, ring: PolyRing) -> Poly:
    text = args.expr
    if text is None:
        try:
            with open(args.surface, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.surface}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return ring.parse(text)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def _parse_point(text: str, ring: PolyRing) -> ProjPoint:
    coords = []
    for p in text.split(","):
        num, slash, den = p.strip().partition("/")
        den = _integer(den) if slash else 1
        if not den:
            raise UsageError(f"zero denominator in coordinate {p.strip()!r}")
        coords.append(Fraction(_integer(num), den))
    if len(coords) != len(ring.variables):
        raise UsageError(
            f"expected {len(ring.variables)} coordinates, got {len(coords)}"
        )
    return ProjPoint(coords, ring.field)


def _parse_mults(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        s, _, count = piece.partition(":")
        s = _integer(s)
        if s in out:
            raise UsageError(f"multiplicity {s} is given twice")
        out[s] = _integer(count) if count else 1
    return out


def _parse_chars(text: str, names) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, value = piece.partition("=")
        if not value:
            raise UsageError(f"expected name=value, got {piece!r}")
        key = key.strip()
        if key not in names:
            raise UsageError(f"unknown character {key!r} (expected one of {', '.join(names)})")
        if key in out:
            raise UsageError(f"character {key!r} is given twice")
        out[key] = _integer(value)
    return out


# ---------------------------------------------------------------------------
# invariants command
# ---------------------------------------------------------------------------


# Each result record's attributes with their JSON keys, in output order.
_KEYS = {
    PlaneCurveCharacters: (
        ("degree", "degree"), ("dual_degree", "class"), ("nodes", "nodes"), ("cusps", "cusps"),
        ("bitangents", "bitangents"), ("flexes", "flexes"), ("genus", "genus"),
    ),
    DevelopableCharacters: (
        ("m", "order"), ("n", "class"), ("r", "rank"), ("alpha", "stationary_planes"),
        ("beta", "stationary_points"), ("x", "double_curve"), ("y", "dual_double_curve"),
        ("g", "apparent_nodes_dual"), ("h", "apparent_nodes_edge"), ("genus", "genus"),
    ),
    invariants.NodeCoupleCharacters: (
        ("class_degree", "class"), ("apparent_double_points", "apparent_nodes"),
        ("cusps", "cusps"), ("triple_points", "triple_points"), ("rank", "rank"),
    ),
    invariants.DualSurfaceTable: (
        ("degree", "degree"), ("dual_degree", "dual_degree"), ("cone_degree", "cone_degree"),
        ("node_curve", "node_curve"), ("cusp_curve", "cusp_curve"), ("flex_edges", "flex_edges"),
        ("node_meets", "node_meets"), ("cusp_meets", "cusp_meets"),
        ("swallowtails", "swallowtail"), ("gammas", "gamma"), ("tritangents", "tritangent"),
        ("bitangent_edges", "bitangent_edges"), ("node_apparent", "node_apparent"),
        ("cusp_apparent", "cusp_apparent"), ("plain_meets", "plain_meets"),
        ("flecnodal_nodes", "flecnodal_nodes"), ("flecnodal_tangencies", "flecnodal_tangencies"),
        ("hessian", "hessian_developable"), ("node_couple", "node_couple"),
    ),
    invariants.ProjectedSurfaceTable: (
        ("class_degree", "class"), ("double_curve", "double_curve"),
        ("double_genus", "double_genus"), ("neutral_genus", "neutral_genus"),
        ("triple_points", "triple_points"), ("pinch_points", "pinch_points"),
        ("chern_c2", "chern_c2"), ("branch_degree", "branch_degree"),
        ("branch_genus", "branch_genus"), ("nodes", "nodes"), ("cusps", "cusps"),
        ("bitangents", "bitangents"), ("flexes", "flexes"),
    ),
}

# What verify plucker's --chars must set: every plane-curve character but the genus.
_PLUCKER_CHARS = _KEYS[PlaneCurveCharacters][:-1]


def _record(obj) -> dict:
    """A result record as a dict under its ``_KEYS`` names; None fields are left out."""
    out = {}
    for attr, key in _KEYS[type(obj)]:
        value = getattr(obj, attr)
        if value is not None:
            out[key] = _record(value) if type(value) in _KEYS else _count_str(value)
    return out


def cmd_invariants(args) -> CommandResult:
    sub = args.table
    if sub == "surface":
        result = CommandResult("invariants surface", {"degree": args.degree})
        table = invariants.dual_surface_table(args.degree)
        result.results = _record(table)
        result.add_checks(table.checks)
        for message in table.warnings:
            result.add_checks([warn("table warning", message)])
        return result
    if sub == "branch":
        result = CommandResult("invariants branch", {"degree": args.degree})
        chars = invariants.branch_curve_characters(args.degree)
        result.results = _record(chars)
        result.add_checks(verify_plucker_relations(chars))
        return result
    if sub == "developable":
        result = CommandResult("invariants developable", {"degree": args.degree})
        # the two developables are the nested records of the dual table
        table = _record(invariants.dual_surface_table(args.degree))
        result.results = {k: v for k, v in table.items() if isinstance(v, dict)}
        return result
    # projected: argparse admits no other table
    inputs = {"n": args.n, "pi": args.pi, "pa": args.pa, "ksq": args.ksq}
    result = CommandResult("invariants projected", inputs)
    table = invariants.projected_surface_table(args.n, args.pi, args.pa, args.ksq)
    result.results = _record(table)
    result.add_checks(table.checks)
    return result


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def _models_checks() -> list:
    checks = []
    disc = localmodels.tacnode_discriminant()
    reference = localmodels.reference_discriminant()
    status = PASS if disc == reference else FAIL
    checks.append(Check("tacnode discriminant matches the reference form", str(disc), str(reference), status))
    models = [
        localmodels.stratum_model(model_id)
        for model_id in (localmodels.SWALLOWTAIL, localmodels.GAMMA, localmodels.TRIPLE_T)
    ]
    for model in models:
        for name, ok in localmodels.stratum_check(model):
            checks.append(Check(name, None, None, PASS if ok else FAIL))
    sw = models[0]
    contact = localmodels.contact_order(
        sw.ordinary.parametrization, sw.cuspidal.ideal, sw.ordinary.covering_degree
    )
    checks.append(
        Check(
            "swallowtail double curves meet with multiplicity 2",
            contact,
            2,
            PASS if contact == 2 else FAIL,
        )
    )
    return checks


def cmd_verify(args) -> CommandResult:
    sub = args.suite
    if sub == "models":
        result = CommandResult("verify models", {})
        result.add_checks(_models_checks())
        return result
    if sub == "plucker":
        wanted = [key for _, key in _PLUCKER_CHARS]
        chars_map = _parse_chars(args.chars, wanted)
        missing = [k for k in wanted if k not in chars_map]
        if missing:
            raise UsageError(f"--chars must set {', '.join(wanted)} (missing {missing})")
        chars = PlaneCurveCharacters(**{attr: chars_map[key] for attr, key in _PLUCKER_CHARS})
        result = CommandResult("verify plucker", chars_map)
        result.add_checks(verify_plucker_relations(chars))
        return result
    # all: argparse admits no other suite
    p = args.modp
    if p is not None and p < 5:
        raise DomainError(f"--modp {p}: the property batches divide by k! for k <= 4, so p must be a prime >= 5")
    field = QQ if p is None else PrimeField(p)
    inputs = {"seed": args.seed, "trials": args.trials}
    if args.degree_range:
        inputs["degree_range"] = args.degree_range
    else:
        inputs["mode"] = "symbolic"
    if p:
        inputs["modp"] = p
    result = CommandResult("verify all", inputs)
    result.add_checks(_models_checks())
    result.add_checks(generator_identities_symbolic())
    if args.degree_range:
        lo, hi = args.degree_range
        for n in range(lo, hi + 1):
            for check in invariants.verify_dual_relations(n):
                result.add_checks(
                    [Check(f"{check.name} [n={n}]", check.lhs, check.rhs, check.status)]
                )
    else:
        sym = invariants.symbolic_degree()
        result.add_checks(invariants.verify_dual_relations(sym))
    result.add_checks(invariants.verify_projection_pipelines())
    result.add_checks(randomchecks.property_suite(field, args.seed, args.trials))
    return result


# ---------------------------------------------------------------------------
# poly command
# ---------------------------------------------------------------------------


def _contact_str(value):
    return "infinity" if value == INFINITY else str(value)


def cmd_poly(args) -> CommandResult:
    ring = PolyRing()
    sub = args.operation
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("command", "json") and v is not None
    }
    result = CommandResult(f"poly {sub}", inputs)

    if sub == "dejonquieres":
        count = dejonquieres_count(args.m, args.genus, _parse_mults(args.mult))
        result.results = {"count": _count_str(count)}
        return result
    if sub == "rank-profile":
        dim = 3 if args.dim is None else args.dim
        ks = [_integer(x) for x in args.k.split(",")]
        profile = rank_profile(dim, args.m, args.genus, ks)
        dual = profile.dual()
        result.results = {
            "ranks": [_count_str(r) for r in profile.ranks],
            "dual_ranks": [_count_str(r) for r in dual.ranks],
            "hyperosculation": [_count_str(x) for x in profile.k],
        }
        return result
    if sub == "developable":
        names = [f.name for f in fields(DevelopableCharacters)]
        chars, checks = complete_developable(**_parse_chars(args.chars, names))
        result.results = _record(chars)
        result.add_checks(checks)
        return result

    F = _load_surface(args, ring)
    if sub == "hessian":
        result.results = {"hessian": str(hessian_determinant(F))}
        return result
    if sub == "covariants":
        pair = flecnodal_covariants(F)
        result.results = {
            "theta": str(pair.theta),
            "phi": str(pair.phi),
            "combination": str(pair.combination),
            "degrees": {k: v for k, v in pair.degrees.items()},
        }
        return result

    point = _parse_point(args.point, ring)
    if sub == "polar":
        order = args.order if args.order is not None else 1
        result.results = {"polar": str(polar(F, point, order))}
        return result
    if sub == "polar-kic":
        order = args.order if args.order is not None else 1
        result.results = {"polar_kic": str(polar_kic(F, point, order))}
        return result
    if sub == "tangent-plane":
        result.results = {"tangent_plane": str(tangent_hyperplane(F, point))}
        return result
    if sub == "tangent-cone":
        report = tangent_cone(F, point)
        result.results = {
            "multiplicity": report.multiplicity,
            "cone": str(report.cone),
            "chart_variables": list(report.chart.variables),
            "chart_matrix": [[str(x) for x in row] for row in report.matrix],
        }
        return result
    if sub == "second-form":
        form = second_fundamental_form(F, point)
        result.results = {
            "matrix": [[str(x) for x in row] for row in form.matrix],
            "rank": form.rank,
        }
        return result
    if sub == "classify":
        cls = classify_surface_point(F, point)
        result.results = {
            "kind": cls.kind.value,
            "discriminant": str(cls.asymptotic.discriminant),
            "asymptotic_directions": [str(p) for p in cls.asymptotic.directions],
            "contacts": [_contact_str(c) for c in cls.asymptotic.contacts],
            "all_tangent_directions": cls.asymptotic.all_tangent_directions,
        }
        return result
    if sub == "contact":
        report = max_contact_order(F, point)
        result.results = {
            "order": report.order.value,
            "line_direction": None
            if report.line_direction is None
            else str(report.line_direction),
        }
        return result
    if sub == "flecnodal":
        result.results = {"flecnodal": flecnodal_member(F, point)}
        return result
    # line-mult: argparse admits no other operation
    direction = _parse_point(args.dir, ring)
    report = line_multiplicity(F, point, direction)
    result.results = {
        "multiplicity": _contact_str(report.multiplicity),
        "polar_memberships": list(report.polar_memberships),
        "restriction": str(report.restriction),
    }
    return result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _degree_range(text: str):
    lo, _, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected A..B") from exc
    if lo_i < 3 or hi_i < lo_i:
        raise argparse.ArgumentTypeError("range must satisfy 3 <= A <= B")
    return (lo_i, hi_i)


def _at_least(minimum: int):
    """The argparse type of an integer option with a least value."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value
    return parse


def _nonempty(text: str) -> str:
    # A required list option given as "--mult=" would otherwise read as an empty list.
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty value")
    return text


# Every option of every leaf command: key -> (flag, add_argument keywords).
_OPTIONS = {
    "degree": ("--degree", dict(type=_at_least(3), required=True, help="surface degree")),
    "branch_degree": ("--degree", dict(type=_at_least(2), required=True, help="surface degree")),
    "n": ("--n", dict(type=int, required=True, help="section degree C^2")),
    "pi": ("--pi", dict(type=int, required=True, help="section genus")),
    "pa": ("--pa", dict(type=int, required=True, help="arithmetic genus of the normalization")),
    "ksq": ("--ksq", dict(type=int, required=True, help="canonical self-intersection K^2")),
    "degree_range": ("--degree-range", dict(type=_degree_range, help="integer sweep A..B (default: symbolic)")),
    "seed": ("--seed", dict(type=int, default=20240913, help="seed for the property batches")),
    "trials": ("--trials", dict(type=_at_least(1), default=25, help="trials per property batch")),
    "modp": ("--modp", dict(type=int, help="run the property batches over GF(p)")),
    "expr": ("--expr", dict(help="surface equation in the expression grammar")),
    "surface": ("--surface", dict(help="file holding one expression")),
    "point": ("--point", dict(required=True, help="projective point a,b,c,d (rationals allowed)")),
    "dir": ("--dir", dict(required=True, help="second projective point for line contact")),
    "order": ("--order", dict(type=int, help="polar order k (default 1)")),
    "m": ("--m", dict(type=int, required=True, help="series degree / curve degree")),
    "genus": ("--genus", dict(type=int, required=True, help="curve genus")),
    "mult": ("--mult", dict(type=_nonempty, required=True, help="multiplicity pattern s:m_s,...")),
    "dim": ("--dim", dict(type=int, help="ambient dimension (default 3)")),
    "k": ("--k", dict(required=True, help="hyperosculation totals k_1,...,k_N")),
    "chars": ("--chars", dict(type=_nonempty, required=True, help="known characters name=value,...")),
}

# A tuple (required, key, key, ...) is a mutually exclusive group.
_SURFACE = (True, "expr", "surface")
_AT_POINT = (_SURFACE, "point")

# command -> (handler, leaf dest, help, {leaf: the options its handler reads}).
# A poly leaf's options are declared in the order its JSON inputs list them.
_COMMANDS = {
    "invariants": (cmd_invariants, "table", "closed-form invariant tables", {
        "surface": ("degree",),
        "branch": ("branch_degree",),
        "developable": ("degree",),
        "projected": ("n", "pi", "pa", "ksq"),
    }),
    "verify": (cmd_verify, "suite", "identity suites", {
        "all": ("degree_range", "seed", "trials", "modp"),
        "models": (),
        "plucker": ("chars",),
    }),
    "poly": (cmd_poly, "operation", "exact kernel on explicit data", {
        "polar": (*_AT_POINT, "order"),
        "polar-kic": (*_AT_POINT, "order"),
        "tangent-plane": _AT_POINT,
        "line-mult": (*_AT_POINT, "dir"),
        "tangent-cone": _AT_POINT,
        "hessian": (_SURFACE,),
        "second-form": _AT_POINT,
        "classify": _AT_POINT,
        "covariants": (_SURFACE,),
        "contact": _AT_POINT,
        "flecnodal": _AT_POINT,
        "dejonquieres": ("m", "genus", "mult"),
        "rank-profile": ("m", "genus", "dim", "k"),
        "developable": ("chars",),
    }),
}


def build_parser(leaf_parsers=None) -> argparse.ArgumentParser:
    """The command-line parser; ``leaf_parsers``, if given, receives each
    leaf's parser under its key (command, leaf name)."""
    parser = argparse.ArgumentParser(
        prog="polarcalc",
        description="Exact enumerative invariants and polar calculus in P^3.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    json_help = "emit a JSON document"
    for command, (_, dest, command_help, leaves) in _COMMANDS.items():
        group = commands.add_parser(command, help=command_help)
        group.add_argument("--json", action="store_true", help=json_help)
        subs = group.add_subparsers(dest=dest, required=True)
        for name, options in leaves.items():
            leaf = subs.add_parser(name)
            if leaf_parsers is not None:
                leaf_parsers[command, name] = leaf
            # unset, the leaf's --json must not overwrite one given before the leaf name
            leaf.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=json_help)
            for option in options:
                if isinstance(option, tuple):
                    required, *keys = option
                    target = leaf.add_mutually_exclusive_group(required=required)
                else:
                    target, keys = leaf, [option]
                for key in keys:
                    flag, kwargs = _OPTIONS[key]
                    target.add_argument(flag, **kwargs)
    return parser


# Built once: parsing leaves a parser unchanged, and nothing here mutates it.
_LEAVES: dict = {}
_PARSER = build_parser(_LEAVES)


def main(argv=None) -> int:
    try:
        args, extras = _PARSER.parse_known_args(argv)
        if extras:
            # refused by the leaf, so the usage line shows the options it does take
            leaf = _LEAVES[args.command, getattr(args, _COMMANDS[args.command][1])]
            leaf.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        result = _COMMANDS[args.command][0](args)
        with _all_digits():
            text = result.render(args.json)
        print(text, flush=True)  # so a closed pipe raises here, inside the handlers
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The unsent output stays buffered: point stdout's descriptor at
            # the null device, so the interpreter's flush at exit cannot raise.
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: reported by type and message, never as a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_CHECK_FAILED if result.failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
