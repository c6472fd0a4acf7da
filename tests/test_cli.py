"""End-to-end CLI behaviour: output schema, exit codes, round-trips."""

import json

import pytest

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
