"""End-to-end CLI behaviour: output schema, exit codes, round-trips."""

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import shlex

import pytest

from polarcalc import cli, polarity
from polarcalc.cli import main
from polarcalc.polyring import INFINITY, PolyRing

R = PolyRing()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestInvariantsCommand:
    def test_surface_json_schema(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "surface", "--degree", "4")
        assert code == 0
        assert set(doc) == {"command", "inputs", "results", "checks"}
        assert doc["results"]["tritangent"] == "3200"
        assert doc["results"]["node_apparent"] == "102400"
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_surface_table_is_built_once(self, capsys, monkeypatch):
        calls = {"dual_surface_table": 0, "solve_from_genus": 0}

        def counted(name):
            original = getattr(cli.invariants, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(cli.invariants, name, wrapper)

        counted("dual_surface_table")
        counted("solve_from_genus")
        code, _, _ = run(capsys, "invariants", "surface", "--degree", "5")
        assert code == 0
        assert calls == {"dual_surface_table": 1, "solve_from_genus": 1}

    def test_projected_steiner(self, capsys):
        code, doc, _ = run_json(
            capsys, "invariants", "projected",
            "--n", "4", "--pi", "0", "--pa", "0", "--ksq", "9",
        )
        assert code == 0
        assert doc["results"]["class"] == "3"
        assert doc["results"]["triple_points"] == "1"
        assert doc["results"]["pinch_points"] == "6"

    def test_branch_table(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "branch", "--degree", "3")
        assert code == 0
        assert doc["results"]["cusps"] == "6"
        assert doc["results"]["bitangents"] == "27"

    def test_developable_table(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "developable", "--degree", "4")
        assert code == 0
        assert doc["results"]["hessian_developable"]["order"] == "416"
        assert doc["results"]["node_couple"]["rank"] == "160"

    def test_degree_below_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "invariants", "surface", "--degree", "2")
        assert code == 2
        assert "at least 3" in err

    def test_big_integers_are_strings(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "surface", "--degree", "30")
        assert code == 0
        value = doc["results"]["node_couple"]["apparent_nodes"]
        assert isinstance(value, str)
        assert int(value) > 2 ** 53


class TestVerifyCommand:
    def test_symbolic_suite_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "all", "--trials", "5")
        assert code == 0
        assert doc["checks"]
        assert all(c["status"] in ("pass", "warn") for c in doc["checks"])

    def test_degree_range_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--degree-range", "3..5", "--trials", "2")
        assert code == 0
        assert out.count("[n=3]") == 10
        assert out.count("[n=4]") == 10
        assert out.count("[n=5]") == 10

    def test_models_suite(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "models")
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert any("tacnode discriminant" in name for name in names)
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_plucker_consistent(self, capsys):
        code, _, _ = run(
            capsys, "verify", "plucker",
            "--chars", "degree=4,class=12,nodes=0,cusps=0,bitangents=28,flexes=24",
        )
        assert code == 0

    def test_plucker_inconsistent_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "plucker",
            "--chars", "degree=4,class=12,nodes=0,cusps=0,bitangents=29,flexes=24",
        )
        assert code == 1
        assert "FAIL" in out

    def test_modp_property_batch(self, capsys):
        code, _, _ = run(
            capsys, "verify", "all", "--trials", "5", "--modp", "1048583",
        )
        assert code == 0

    def test_a_contact_route_disagreement_is_a_failed_check(self, capsys, monkeypatch):
        # With every polar of the ladder zero, the polar-membership route
        # claims more contact than the valuation route finds: the contact
        # batch reports it as its failure, naming the trial, not as exit 4.
        derivative = polarity.directional_derivative
        monkeypatch.setattr(polarity, "directional_derivative", lambda F, a: derivative(F, a) * 0)
        code, out, err = run(capsys, "verify", "all", "--trials", "5")
        assert (code, err) == (1, "")
        assert (
            "FAIL  contact equivalence  [lhs=trial 0: "
            "polar membership disagrees with the valuation route rhs=None]"
        ) in out.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            "verify models --modp 101",
            "verify plucker --chars degree=4,class=12,nodes=0,cusps=0,bitangents=28,flexes=24"
            " --modp 7",
        ],
    )
    def test_exact_suites_refuse_modp(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --modp" in err


class TestPolyCommand:
    def test_line_mult(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "line-mult",
            "--expr", "x^3+y^3+z^3+w^3", "--point", "1,-1,0,0", "--dir", "0,0,1,0",
        )
        assert code == 0
        assert doc["results"]["multiplicity"] == "3"

    def test_hessian_roundtrip(self, capsys):
        code, doc, _ = run_json(capsys, "poly", "hessian", "--expr", "x^3+y^3+z^3+w^3")
        assert code == 0
        emitted = doc["results"]["hessian"]
        assert R.parse(emitted) == R.parse("1296*x*y*z*w")

    def test_emitted_polynomials_reparse(self, capsys):
        cases = [
            ("poly", "polar", "--expr", "x^3+y^3+z^3+w^3", "--point", "1,1,1,1"),
            ("poly", "polar-kic", "--expr", "x^3+y^3+z^3-3*w^3", "--point", "1,1,1,1",
             "--order", "2"),
            ("poly", "tangent-plane", "--expr", "x^3+y^3+z^3+w^3", "--point", "1,-1,0,0"),
        ]
        for argv in cases:
            code, doc, _ = run_json(capsys, *argv)
            assert code == 0
            for value in doc["results"].values():
                if isinstance(value, str) and any(v in value for v in "xyzw"):
                    R.parse(value)  # must re-parse cleanly

    def test_dejonquieres(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "dejonquieres", "--m", "4", "--genus", "0", "--mult", "2:1",
        )
        assert code == 0
        assert doc["results"]["count"] == "6"

    @pytest.mark.parametrize(
        "argv",
        [
            "invariants surface --degree " + "9" * 400,
            "poly dejonquieres --m 1000000 --genus 2 --mult 2:2000",
        ],
        ids=["invariants surface", "poly dejonquieres"],
    )
    def test_counts_past_4300_digits_print_in_full(self, capsys, argv):
        # The De Jonquieres count is a closed sum of min(genus, sum over
        # s >= 2 of m_s) + 1 = 3 terms: a million points answer in well
        # under the 5 s alarm.
        def expired(signum, frame):
            raise TimeoutError(f"{argv} ran past 5 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(5)
        try:
            code, out, err = run(capsys, *argv.split(), "--json")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0, err
        assert max(len(v) for v in json.loads(out)["results"].values() if isinstance(v, str)) > 4300

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap before 3.11"
    )
    def test_digit_cap_is_lifted_for_output_only(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, err = run(capsys, "invariants", "surface", "--degree", "9" * 400)
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        literal = "1" + "0" * 5000
        code, _, err = run(capsys, "poly", "hessian", "--expr", f"{literal}*x^3+y^3+z^3+w^3")
        assert code == 2
        assert err.startswith("parse error: integer of 5001 digits is too long")
        assert "Traceback" not in err

    def test_rank_profile(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "rank-profile", "--m", "3", "--genus", "0", "--k", "0,0,0",
        )
        assert code == 0
        assert doc["results"]["ranks"] == ["3", "4", "3"]

    def test_developable(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "developable", "--chars", "m=3,genus=0,alpha=0,beta=0",
        )
        assert code == 0
        assert doc["results"]["rank"] == "4"

    def test_surface_file(self, capsys, tmp_path):
        path = tmp_path / "surface.txt"
        path.write_text("x^3 + y^3 + z^3 + w^3\n", encoding="utf-8")
        code, doc, _ = run_json(
            capsys, "poly", "flecnodal", "--surface", str(path), "--point", "1,-1,1,-1",
        )
        assert code == 0
        assert doc["results"]["flecnodal"] is True

    def test_surface_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "surface.txt"
        path.write_bytes(b"\xff\xfe x^2")
        code, out, err = run(capsys, "poly", "hessian", "--surface", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err
        assert "Traceback" not in err

    def test_expr_and_surface_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "surface.txt"
        path.write_text("x^3 + y^3 + z^3 + w^3\n", encoding="utf-8")
        for surface in (str(path), "/nonexistent"):
            code, out, err = run(capsys, "poly", "hessian", "--expr", "x*y*z*w", "--surface", surface)
            assert code == 2
            assert out == ""
            assert "not allowed with argument" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "poly", "hessian", "--expr", "x^3 +")
        assert code == 2
        assert "parse error" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(
            capsys, "poly", "tangent-plane", "--expr", "y^2*w-x^3", "--point", "0,0,0,1",
        )
        assert code == 3
        assert "singular" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "poly polar --expr=x^3+y^3+z^3+w^3 --point=1/0,1,1,1",
            "poly polar --expr=x^3+y^3+z^3+w^3 --point=1,a,1,1",
            "poly dejonquieres --m=4 --genus=0 --mult=2:x",
            "verify plucker --chars=degree=3,class=q",
            "poly rank-profile --m=3 --genus=0 --k=0,a,1",
            "poly developable --chars=m=4,genus=0,alpha=x",
        ],
    )
    def test_malformed_number_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "poly developable --chars=m=3,m=4,genus=0,alpha=0,beta=0",
            "poly developable --chars=q=1,m=3",
            "verify plucker --chars=degree=3,class=6,nodes=0,cusps=0,bitangents=0,flexes=9,q=5",
            "verify plucker --chars=degree=3,degree=4,class=6,nodes=0,cusps=0,bitangents=0,"
            "flexes=9",
        ],
    )
    def test_repeated_or_unknown_character_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("poly rank-profile --m=3 --genus=0 --k=0,0,0 --dim=0", 3),
            ("verify all --trials=0", 2),
            ("verify all --trials=-3", 2),
            ("poly dejonquieres --m=4 --genus=0 --mult=2:1,2:2", 2),
            ("verify all --modp=3", 3),
            ("invariants branch --degree=1", 2),
            ("poly dejonquieres --m=4 --genus=0 --mult=", 2),
            ("verify plucker --chars=", 2),
            ("poly developable --chars=", 2),
            ("verify all --symbolic --degree-range=3..4", 2),
        ],
    )
    def test_out_of_range_option_is_refused(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv.split())
        assert code == expected
        assert out == ""
        assert "error: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("poly rank-profile --m=-3 --genus=0 --k=0,0,0", "degree"),
            ("poly rank-profile --m=0 --genus=1 --k=0,0,0", "degree"),
            ("poly rank-profile --m=3 --genus=-1 --k=0,0,0", "genus"),
        ],
    )
    def test_rank_profile_names_the_bad_input(self, capsys, argv, name):
        code, out, err = run(capsys, *argv.split())
        assert code == 3
        assert out == ""
        assert err.startswith(f"domain error: {name} = ")

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("poly dejonquieres --m=4 --genus=-1 --mult=2:1", "genus"),
            ("poly dejonquieres --m=0 --genus=0 --mult=2:0", "degree"),
            ("poly dejonquieres --m=-3 --genus=0 --mult=2:1", "degree"),
            ("invariants projected --n=4 --pi=7 --pa=5 --ksq=1000", "class"),
            ("invariants projected --n=0 --pi=0 --pa=0 --ksq=0", "degree"),
        ],
    )
    def test_domain_input_names_the_bad_entry(self, capsys, argv, name):
        code, out, err = run(capsys, *argv.split())
        assert code == 3
        assert out == ""
        assert err.startswith(f"domain error: {name} = ")

    # (argv, exit code, stderr), byte for byte; the counts behind each
    # message are ints, or a Fraction for the non-integral x = 5/2.
    ERROR_TEXT = [
        ("invariants projected --n=4 --pi=1 --pa=0 --ksq=1", 3,
         "domain error: triple_points = -3 is negative\n"),
        ("invariants projected --n=4 --pi=7 --pa=5 --ksq=1000", 3,
         "domain error: class = -900 is negative\n"),
        ("invariants projected --n=0 --pi=0 --pa=0 --ksq=0", 3,
         "domain error: degree = 0 is below 1\n"),
        ("poly rank-profile --m=4 --genus=0 --k=0,0,1", 3,
         "domain error: hyperosculation totals violate the closing relation: -3\n"),
        ("poly rank-profile --m=0 --genus=1 --k=0,0,0", 3,
         "domain error: degree = 0 is below 1\n"),
        ("poly developable --chars=m=5,n=4,r=6,genus=0", 3,
         "domain error: inconsistent characters: nonzero residuals in "
         "['genus count via order', 'genus count via class']\n"),
        ("poly developable --chars=m=3,n=6,r=5,beta=0", 3,
         "domain error: x = 5/2 is not an integer\n"),
        ("poly developable --chars=m=3", 3,
         "domain error: insufficient knowns: cannot determine "
         "['n', 'r', 'alpha', 'beta', 'x', 'y', 'g', 'h', 'genus']\n"),
        ("poly dejonquieres --m=0 --genus=0 --mult=2:1", 3,
         "domain error: degree = 0 is below 1\n"),
        ("invariants branch --degree=1", 2,
         "usage: polarcalc invariants branch [-h] [--json] --degree DEGREE\n"
         "polarcalc invariants branch: error: argument --degree: must be at least 2\n"),
        ("invariants branch --degree=2", 0, ""),
    ]

    @pytest.mark.parametrize("argv, expected, text", ERROR_TEXT, ids=[a for a, _, _ in ERROR_TEXT])
    def test_error_text_is_unchanged(self, capsys, argv, expected, text):
        code, _, err = run(capsys, *argv.split())
        assert (code, err) == (expected, text)

    def test_float_in_json_is_an_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "flecnodal_member", lambda F, point: 0.5)
        code, out, err = run(
            capsys, "poly", "flecnodal", "--expr", "x^3+y^3+z^3+w^3",
            "--point", "1,-1,1,-1", "--json",
        )
        assert code == 4
        assert out == ""
        assert err == "internal error: float 0.5 in the JSON document\n"

    def test_internal_error_exit(self, capsys, monkeypatch):
        def disagree(F):
            raise RuntimeError("the two routes disagree")

        monkeypatch.setattr(cli, "hessian_determinant", disagree)
        code, out, err = run(capsys, "poly", "hessian", "--expr", "x^3+y^3+z^3+w^3")
        assert code == 4
        assert out == ""
        assert err == "internal error: the two routes disagree\n"

    @pytest.mark.parametrize(
        "exc", [ValueError("bad value"), ZeroDivisionError("division by zero"), KeyError("x")]
    )
    def test_any_other_exception_is_an_internal_error(self, capsys, monkeypatch, exc):
        def fail(F):
            raise exc

        monkeypatch.setattr(cli, "hessian_determinant", fail)
        code, out, err = run(capsys, "poly", "hessian", "--expr", "x^3+y^3+z^3+w^3")
        assert code == 4
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_degree_too_long_to_print_is_a_domain_error(self, capsys):
        n = "9" * 4300  # 2n has 4,301 digits: past the int-to-str cap
        code, out, err = run(capsys, "poly", "hessian", "--expr", f"x^{n}*x^{n}")
        assert code == 3
        assert out == ""
        assert err == "domain error: monomial of total degree (4301 digits) exceeds the limit 2^32 - 1\n"

    def test_non_homogeneous_is_domain_error(self, capsys):
        code, _, err = run(capsys, "poly", "hessian", "--expr", "x^2 + y")
        assert code == 3

    def test_modp_refused_for_reports(self, capsys):
        code, out, err = run(
            capsys, "poly", "hessian", "--expr", "x^3+y^3+z^3+w^3", "--modp", "101",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --modp" in err

    def test_classification(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "classify", "--expr", "x*w-y*z", "--point", "1,0,0,0",
        )
        assert code == 0
        assert doc["results"]["kind"] == "non-parabolic"
        assert doc["results"]["contacts"] == ["infinity", "infinity"]

    def test_second_form(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "second-form",
            "--expr", "w^2*z + w*x^2", "--point", "0,0,0,1",
        )
        assert code == 0
        assert doc["results"]["rank"] == 1
        assert doc["results"]["matrix"] == [["1", "0"], ["0", "0"]]

    def test_second_form_off_the_surface_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "poly", "second-form", "--expr", "x*w-y*z", "--point", "1,0,0,1",
        )
        assert code == 3
        assert out == ""
        assert err == "domain error: point does not lie on the hypersurface\n"

    def test_contact_order(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "contact",
            "--expr", "x^3+y^3+z^3-3*w^3", "--point", "1,1,1,1",
        )
        assert code == 0
        assert doc["results"]["order"] == "3"
        assert doc["results"]["line_direction"] is None

    def test_covariants(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "covariants", "--expr", "x^3+y^3+z^3+w^3",
        )
        assert code == 0
        assert doc["results"]["degrees"]["theta"] == 7
        assert R.parse(doc["results"]["theta"]) == R.parse(
            "1944*x*y*z*w"
        ) * R.parse("x^3+y^3+z^3+w^3")


class TestLocalExpansionsAreBounded:
    """Tangent cones and contact orders cost the order they read, not the degree.

    The small degrees are the ones whose documents were recorded from the
    full-expansion route; the large ones must give the same pattern, each
    within 1 s.
    """

    CHART = {
        "chart_variables": ["x", "y", "z", "w"],
        "chart_matrix": [["1", "0", "0", "0"], ["1", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }

    @staticmethod
    def timed(capsys, *argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        return code, out, err

    @pytest.mark.parametrize("d", [3, 8, 40, 4000, 100000])
    def test_tangent_cone_on_and_off_the_surface(self, capsys, d):
        expr = f"--expr=x^{d} - y^{d}"
        code, out, _ = self.timed(capsys, "poly", "tangent-cone", expr, "--point=1,1,0,0", "--json")
        assert code == 0
        assert json.loads(out)["results"] == dict(self.CHART, multiplicity=1, cone=f"-{d}*y")
        code, _, err = self.timed(capsys, "poly", "tangent-cone", expr, "--point=1,2,0,0")
        assert (code, err) == (3, "domain error: point does not lie on the hypersurface\n")

    @pytest.mark.parametrize("m", [2, 5, 9, 3000])
    def test_cone_at_a_point_of_high_multiplicity(self, capsys, m):
        # Every term vanishes to order m at the point and the parts of degree
        # m cancel, so the multiplicity is m + 1.
        expr = f"--expr=x^{m}*y^{m}*z^{m} - x^{m}*z^{m}*w^{m}"
        code, out, _ = self.timed(capsys, "poly", "tangent-cone", expr, "--point=0,1,1,1", "--json")
        assert code == 0
        assert json.loads(out)["results"] == {
            "multiplicity": m + 1,
            "cone": f"-{m}*x^{m}*w",
            "chart_variables": ["y", "x", "z", "w"],
            "chart_matrix": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                             ["1", "0", "1", "0"], ["1", "0", "0", "1"]],
        }

    @pytest.mark.parametrize("d", [3, 8, 40, 1600, 6400])
    def test_contained_line_through_a_high_degree_point(self, capsys, d):
        expr = f"--expr=x^{d} - y^{d} + z*w^{d - 1}"
        code, out, _ = self.timed(capsys, "poly", "contact", expr, "--point=1,1,0,1", "--json")
        assert code == 0
        assert json.loads(out)["results"] == {"order": "infinity", "line_direction": "(0 : 0 : 0 : 1)"}


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises, and it has no descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedOutputPipe:
    ARGV = ["poly", "covariants", "--expr", "x*y*z+x^3+y^3+z^3+w^3", "--json"]

    def test_write_to_a_closed_pipe_is_an_io_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(self.ARGV)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: [Errno 32] Broken pipe\n"

    def test_process_exit_stays_quiet(self, tmp_path):
        # The reader closes at once, so the write usually finds the pipe
        # closed (exit 2); if the output got into the pipe first, exit 0.
        # Either way the flush of buffered stdout at interpreter exit must
        # not raise again (that would print to stderr and exit 120).
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        with open(tmp_path / "stderr.txt", "w+b") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "polarcalc.cli", *self.ARGV],
                stdout=subprocess.PIPE, stderr=stderr, env=env,
            )
            proc.stdout.close()
            code = proc.wait(timeout=60)
            stderr.seek(0)
            err = stderr.read().decode()
        assert code in (0, 2)
        assert err == ("" if code == 0 else "error: [Errno 32] Broken pipe\n")


class TestParserBuiltOnce:
    ARGVS = (
        ["poly", "classify", "--expr", "x*w-y*z", "--point", "1,0,0,0", "--json"],
        ["invariants", "surface", "--degree", "4"],
        ["poly", "hessian", "--expr", "x^3 +"],
    )

    def test_back_to_back_calls_match_fresh_processes(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        in_process = [run(capsys, *argv) for argv in self.ARGVS + self.ARGVS]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "polarcalc.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            for argv in self.ARGVS
        ]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh] * 2

    def test_help_and_usage_errors_leave_the_parser_unchanged(self, capsys):
        help_text = cli._PARSER.format_help()
        first = run(capsys, *self.ARGVS[0])
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: polarcalc")
        code, out, err = run(capsys, "poly", "no-such-operation")
        assert code == 2 and out == "" and "invalid choice" in err
        code, _, err = run(capsys, "verify", "all", "--trials", "0")
        assert code == 2 and "must be at least 1" in err
        assert run(capsys, *self.ARGVS[0]) == first
        assert cli._PARSER.format_help() == help_text


class TestOptionsPerCommand:
    """Each leaf command takes only the options its handler reads."""

    CUBIC = "--expr x^3+y^3+z^3+w^3"
    # (a valid argv, an option that command does not read)
    FOREIGN = [
        ("invariants surface --degree 4", "--n 4"),
        ("invariants branch --degree 3", "--ksq 9"),
        ("invariants developable --degree 4", "--pi 0"),
        ("invariants projected --n 4 --pi 0 --pa 0 --ksq 9", "--degree 4"),
        ("verify all --trials 1", "--chars degree=4"),
        ("verify models", "--seed 5"),
        ("verify plucker --chars degree=4,class=12,nodes=0,cusps=0,bitangents=28,flexes=24",
         "--trials 3"),
        (f"poly polar {CUBIC} --point 1,1,1,1", "--dir 0,0,1,0"),
        (f"poly polar-kic {CUBIC} --point 1,1,1,1", "--dim 3"),
        (f"poly tangent-plane {CUBIC} --point 1,-1,0,0", "--order 1"),
        (f"poly line-mult {CUBIC} --point 1,-1,0,0 --dir 0,0,1,0", "--order 2"),
        ("poly tangent-cone --expr y^2*w-x^3 --point 0,0,0,1", "--dir 1,0,0,0"),
        (f"poly hessian {CUBIC}", "--point 1,0,0,0"),
        ("poly second-form --expr x*w-y*z --point 1,0,0,0", "--order 1"),
        ("poly classify --expr x*w-y*z --point 1,0,0,0", "--dir 0,1,0,0"),
        (f"poly covariants {CUBIC}", "--point 1,-1,0,0"),
        ("poly contact --expr x*w-y*z --point 1,0,0,0", "--k 3"),
        (f"poly flecnodal {CUBIC} --point 1,-1,1,-1", "--modp 101"),
        ("poly dejonquieres --m 4 --genus 0 --mult 2:1", "--dim 3"),
        ("poly rank-profile --m 3 --genus 0 --k 0,0,0", "--mult 2:1"),
        ("poly developable --chars m=3,genus=0,alpha=0,beta=0", "--expr x"),
    ]

    @pytest.mark.parametrize("argv, foreign", FOREIGN, ids=[a.split(" -")[0] for a, _ in FOREIGN])
    def test_an_option_the_command_does_not_read_is_a_usage_error(self, capsys, argv, foreign):
        assert run(capsys, *argv.split())[0] == 0
        code, out, err = run(capsys, *argv.split(), *foreign.split())
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {foreign}" in err
        assert "Traceback" not in err

    def test_a_foreign_option_shows_the_leaf_usage(self, capsys):
        code, out, err = run(capsys, "poly", "hessian", "--expr", "x", "--point", "1,0,0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: polarcalc poly hessian ")
        assert err.endswith(
            "polarcalc poly hessian: error: unrecognized arguments: --point 1,0,0,0\n"
        )

    def test_symbolic_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--symbolic", "--degree-range=3..4")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: polarcalc verify all ")
        assert "unrecognized arguments: --symbolic" in err

    @pytest.mark.parametrize(
        "head, tail",
        [
            ("invariants branch", "--degree 3"),
            ("verify plucker", "--chars degree=3,class=6,nodes=0,cusps=0,bitangents=0,flexes=9"),
            ("poly hessian", CUBIC),
        ],
    )
    def test_json_before_or_after_the_leaf_name(self, capsys, head, tail):
        group, leaf = head.split()
        text = run(capsys, group, leaf, *tail.split())
        before = run(capsys, group, "--json", leaf, *tail.split())
        assert before[0] == 0
        assert json.loads(before[1])["command"] == head
        assert text[1] != before[1]
        assert run(capsys, group, leaf, "--json", *tail.split()) == before
        assert run(capsys, group, leaf, *tail.split(), "--json") == before

    def test_readme_examples_parse(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        fenced = readme.read_text(encoding="utf-8").split("```")[1::2]
        examples = [
            line for block in fenced for line in block.splitlines() if line.startswith("polarcalc ")
        ]
        assert len(examples) >= 19
        for line in examples:
            try:
                cli._PARSER.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}\n{capsys.readouterr().err}")


def parse_outcome(parse, argv):
    """The namespace as (name, value) pairs in order and the leftover words,
    or the exit code, and what was printed, of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, extras = parse(argv)
            result = (list(vars(args).items()), extras)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestLeafDispatch:
    """A leaf named first is read by its own parser alone: the namespace
    (attributes and their order), the leftover words, the exit code and the
    printed text are the ones the whole parser tree gives."""

    # A value each option's type accepts.
    VALUES = {
        "degree": "4", "branch_degree": "3", "n": "4", "pi": "0", "pa": "0", "ksq": "9",
        "degree_range": "3..4", "seed": "5", "trials": "2", "modp": "7",
        "expr": "x^3+y^3+z^3+w^3", "surface": "cubic.txt", "point": "1,-1,0,0",
        "dir": "0,0,1,0", "order": "2", "m": "4", "genus": "0", "mult": "2:1", "dim": "3",
        "k": "0,0,0", "chars": "m=3,genus=0",
    }
    TAILS = {
        "valid": lambda v: v,
        "--json after the leaf": lambda v: v + ["--json"],
        "--json twice": lambda v: ["--json", *v, "--json"],
        "a foreign option": lambda v: v + ["--bogus", "1"],
        "a foreign word": lambda v: ["stray", *v],
        "no options": lambda v: [],
        "a missing option": lambda v: v[2:],
        "-h": lambda v: v + ["-h"],
        "--help first": lambda v: ["--help", *v],
        "--": lambda v: v[:2] + ["--"] + v[2:],
        "-- at the end": lambda v: v + ["--"],
        "an abbreviation": lambda v: [v[0][:4] + "=" + v[1], *v[2:]] if v else ["--js"],
        "--ex=": lambda v: ["--ex=", *v],
        "--js": lambda v: v + ["--js"],
        "--json=1": lambda v: v + ["--json=1"],
        "--=x": lambda v: v + ["--=x"],
        "--=x after --": lambda v: v + ["--", "--=x"],
        "a negative value": lambda v: v[:1] + ["-" + v[1]] + v[2:] if v else ["-1"],
        "an empty word": lambda v: ["", *v],
    }

    @classmethod
    def valid(cls, command, name):
        words = []
        for option in cli._COMMANDS[command][3][name]:
            key = option[1] if isinstance(option, tuple) else option
            words += [cli._OPTIONS[key][0], cls.VALUES[key]]
        return words

    @pytest.mark.parametrize("leaf", list(cli._LEAVES), ids=" ".join)
    def test_leaf_parser_matches_the_tree(self, leaf):
        valid = self.valid(*leaf)
        for tail, words in self.TAILS.items():
            argv = [*leaf, *words(valid)]
            assert parse_outcome(cli._parse_args, argv) == parse_outcome(
                cli._PARSER.parse_known_args, argv
            ), (tail, argv)

    def test_inputs_list_the_operation_first(self, capsys):
        code, doc, _ = run_json(capsys, "poly", "polar", "--point", "1,1,1,1", "--expr", "x^2")
        assert code == 0
        assert list(doc["inputs"]) == ["operation", "expr", "point"]

    def test_a_leaf_named_first_skips_the_tree(self, capsys, monkeypatch):
        argv = ["poly", "polar", "--expr", "x^3+y^3+z^3+w^3", "--point", "1,1,1,1", "--json"]
        expected = run(capsys, *argv)

        class NoTree:
            def parse_known_args(self, argv):
                raise AssertionError("the parser tree read a leaf command line")

        monkeypatch.setattr(cli, "_PARSER", NoTree())
        assert run(capsys, *argv) == expected
        monkeypatch.setattr(sys, "argv", ["polarcalc", *argv])
        assert (main(), *capsys.readouterr()) == expected

    def test_a_command_line_takes_the_leaf_route(self, capsys):
        # polarcalc.cli run as __main__, as ``python -m polarcalc.cli`` runs
        # it, with each parse reported by its parser's prog.
        argv = ["poly", "polar", "--expr", "x^3+y^3+z^3+w^3", "--point", "1,1,1,1", "--json"]
        script = (
            "import argparse, runpy, sys\n"
            "parse = argparse.ArgumentParser.parse_known_args\n"
            "def reported(self, *args, **kwargs):\n"
            "    print('parsed by', self.prog, file=sys.stderr)\n"
            "    return parse(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.parse_known_args = reported\n"
            "runpy.run_module('polarcalc.cli', run_name='__main__', alter_sys=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
            check=False, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]
        assert proc.stderr == "parsed by polarcalc poly polar\n"


class TestJsonWriter:
    """``--json`` documents are ``json.dumps(doc, indent=2)``, byte for byte."""

    RING = PolyRing()

    def test_golden_documents(self):
        paths = sorted((Path(__file__).parent / "golden").glob("*.json"))
        assert len(paths) == 31
        for path in paths:
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            assert cli._json_text(doc) + "\n" == text == json.dumps(doc, indent=2) + "\n", path

    @staticmethod
    def text(rng):
        # control characters, printable ASCII, non-ASCII, astral and lone surrogates
        points = [(0, 0x20), (0x20, 0x7F), (0x7F, 0x800), (0x800, 0x10000), (0x10000, 0x110000)]
        return "".join(
            chr(rng.randrange(*rng.choice(points))) for _ in range(rng.randint(0, 6))
        )

    @classmethod
    def document(cls, rng, depth=0):
        kind = rng.randrange(8 if depth < 4 else 5)
        if kind == 0:
            return rng.choice([True, False, None, INFINITY, cls.RING.parse("x^2 - 1/3*y*z"),
                               cls.RING.point([1, Fraction(-1, 2), 0, 3])])
        if kind == 1:
            limit = cli._JSON_INT_LIMIT
            return rng.choice([0, 1, -1, limit, limit + 1, -limit, -limit - 1, 10 ** 400,
                               rng.randint(-(2 ** 60), 2 ** 60)])
        if kind == 2:
            return Fraction(rng.randint(-99, 99) * rng.choice([1, 2 ** 60]), rng.randint(1, 9))
        if kind in (3, 4):
            return cls.text(rng)
        size = rng.choice([0, 1, rng.randint(2, 5)])
        if kind == 5:
            return [cls.document(rng, depth + 1) for _ in range(size)]
        if kind == 6:
            return tuple(cls.document(rng, depth + 1) for _ in range(size))
        return {cls.text(rng): cls.document(rng, depth + 1) for _ in range(size)}

    @classmethod
    def reference(cls, value):
        """The document as the ``json`` module takes it: each leaf converted apart."""
        if isinstance(value, bool) or value is None:
            return value
        if value is INFINITY:
            return "infinity"
        if isinstance(value, int):
            return str(value) if abs(value) > cli._JSON_INT_LIMIT else value
        if isinstance(value, Fraction):
            return str(value) if value.denominator != 1 else cls.reference(int(value))
        if isinstance(value, dict):
            return {k: cls.reference(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [cls.reference(v) for v in value]
        return str(value)

    def test_seeded_documents(self):
        rng = random.Random(20240913)
        with cli._all_digits():
            for _ in range(3000):
                doc = self.document(rng)
                assert cli._json_text(doc) == json.dumps(self.reference(doc), indent=2), doc

    @pytest.mark.parametrize("value", [0.5, -INFINITY, float("nan")])
    def test_a_float_other_than_infinity_raises(self, value):
        with pytest.raises(RuntimeError, match="in the JSON document"):
            cli._json_text({"results": [1, value]})
