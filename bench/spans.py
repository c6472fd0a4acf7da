"""Per-layer spans for the traced benchmark run, recorded from outside polarcalc.

``Tracer.install`` replaces each function listed in ``TARGETS`` by a
wrapper that records a span around the call: its count and its self time
(the span's duration minus the time its child spans cover).  A function
is replaced wherever a ``polarcalc`` module or class holds it, so names
imported with ``from .x import f`` are traced too.  The polarcalc source
is not touched, and ``uninstall`` puts every original back.

Counters ride on the same boundaries: multiplication term pairs
(len x len, counted in the wrapper), which determinant path ran, and the
largest term count and coefficient bit length of any Poly returned
across a traced boundary.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute, span).  A span may be a function of the call's
# arguments; determinant spans are re-entrant, so the cofactor recursion
# and the helpers it dispatches to count as one determinant.
TARGETS = (
    ("polyring", "Poly.__mul__", "polyring.mul"),
    ("polyring", "Poly.__add__", "polyring.add"),
    ("polyring", "Poly.__sub__", "polyring.add"),
    ("polyring", "Poly.__rsub__", "polyring.add"),
    ("polyring", "Poly.partial", "polyring.partial"),
    ("polyring", "Poly.substitute", "polyring.substitute"),
    ("polyring", "Poly.evaluate", "polyring.evaluate"),
    ("polyring", "Poly.__str__", "polyring.print"),
    ("polyring", "PolyRing.parse", "polyring.parse"),
    ("polyring", "determinant", "polyring.determinant"),
    ("polyring", "_det_cofactor", "polyring.determinant"),
    ("polyring", "_det_bareiss", "polyring.determinant"),
    ("polyring", "exact_div", "polyring.exact_div"),
    ("polyring", "resultant", "polyring.resultant"),
    ("linalg", "scalar_determinant", "linalg.scalar_determinant"),
    ("linalg", "rank", "linalg.rank"),
    ("polarity", "polar", "polarity.polar"),
    ("polarity", "polar_kic", "polarity.polar_kic"),
    ("polarity", "tangent_hyperplane", "polarity.tangent_hyperplane"),
    ("polarity", "line_multiplicity", "polarity.line_multiplicity"),
    ("polarity", "tangent_cone", "polarity.tangent_cone"),
    ("curvature", "hessian_determinant", "curvature.hessian_determinant"),
    ("curvature", "second_fundamental_form", "curvature.second_fundamental_form"),
    ("curvature", "classify_surface_point", "curvature.classify_surface_point"),
    ("flecnodal", "flecnodal_covariants", "flecnodal.flecnodal_covariants"),
    ("flecnodal", "max_contact_order", "flecnodal.max_contact_order"),
    ("flecnodal", "binary_form_resultant", "flecnodal.binary_form_resultant"),
    ("localmodels", "tacnode_discriminant", "localmodels.tacnode_discriminant"),
    ("localmodels", "stratum_check", "localmodels.stratum_check"),
    ("plucker", "verify_plucker_relations", "plucker.verify_plucker_relations"),
    ("plucker", "generator_identities_symbolic", "plucker.generator_identities_symbolic"),
    ("plucker", "dejonquieres_count", "plucker.dejonquieres_count"),
    ("plucker", "complete_developable", "plucker.complete_developable"),
    ("invariants", "dual_surface_table", "invariants.dual_surface_table"),
    ("invariants", "verify_dual_relations", "invariants.verify_dual_relations"),
    ("invariants", "verify_projection_pipelines", "invariants.verify_projection_pipelines"),
    ("randomchecks", "property_suite",
     lambda args: "randomchecks.property_suite." + ("QQ" if args[0].name == "QQ" else "GFp")),
    ("cli", "main", "cli.main"),
    ("cli", "CommandResult.render", "cli.render"),
)
REENTRANT = {"polyring.determinant"}
SPANS = sorted({s for _, _, s in TARGETS if isinstance(s, str)}
               | {"randomchecks.property_suite.QQ", "randomchecks.property_suite.GFp"})
COUNTERS = (
    "polyring.mul.term_pairs",
    "polyring.determinant.cofactor_calls",
    "polyring.determinant.bareiss_calls",
    "polyring.out_terms.max",
    "polyring.coeff_bits.max",
)


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(getattr(c, "value", c)).bit_length()


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack = []  # [span, child_ns] per open span
        self._restore = []  # (owner, name, original)

    def reset(self):
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def metrics(self) -> dict:
        """Per-span calls and self seconds plus the counters, zero where nothing fired."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_ns[span] / 1e9
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out

    def _record_poly(self, poly):
        counts = self.counts
        if len(poly.terms) > counts["polyring.out_terms.max"]:
            counts["polyring.out_terms.max"] = len(poly.terms)
        bits = max(map(_bits, poly.terms.values()), default=0)
        if bits > counts["polyring.coeff_bits.max"]:
            counts["polyring.coeff_bits.max"] = bits

    def _wrap(self, fn, span, count, poly_type):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        reentrant = span in REENTRANT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            if reentrant and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if count is not None:
                for key, n in count(args).items():
                    self.counts[key] += n
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if isinstance(result, poly_type):
                self._record_poly(result)
            return result

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        from polarcalc.polyring import Poly

        def mul_pairs(args):
            a, b = args
            return {"polyring.mul.term_pairs":
                    len(a.terms) * (len(b.terms) if isinstance(b, Poly) else 1)}

        def det_path(args):
            key = "cofactor_calls" if len(args[0]) <= 4 else "bareiss_calls"
            return {f"polyring.determinant.{key}": 1}

        counters = {
            "Poly.__mul__": mul_pairs,
            "determinant": det_path,
            "_det_cofactor": lambda args: {"polyring.determinant.cofactor_calls": 1},
            "_det_bareiss": lambda args: {"polyring.determinant.bareiss_calls": 1},
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polarcalc" or name.startswith("polarcalc.")]
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"polarcalc.{module_name}"]
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                owners = [owner]
            else:
                original = getattr(module, name)
                owners = modules
            wrapper = self._wrap(original, span, counters.get(attr), Poly)
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
