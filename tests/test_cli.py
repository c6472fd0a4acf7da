"""End-to-end CLI behaviour: output schema, exit codes, round-trips."""

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from polarcalc import cli
from polarcalc.cli import main
from polarcalc.polyring import PolyRing

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
        code, doc, _ = run_json(capsys, "verify", "all", "--symbolic", "--trials", "5")
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
            capsys, "verify", "all", "--symbolic", "--trials", "5",
            "--modp", "1048583",
        )
        assert code == 0

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
        assert "refuse" in err


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
        # The De Jonquieres count is a closed sum of prod over s >= 2 of
        # (min(m_s, genus) + 1) = 3 terms: a million points answer in well
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
        code, _, err = run(
            capsys, "poly", "hessian", "--expr", "x^3+y^3+z^3+w^3", "--modp", "101",
        )
        assert code == 2
        assert "refuse" in err

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
