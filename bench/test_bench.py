"""Tests of the benchmark itself: generated argv, span coverage, gate, schema, compare."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import jobgen  # noqa: E402
import run  # noqa: E402
from polarcalc import cli  # noqa: E402
from spans import Tracer  # noqa: E402

# The spans each workload is meant to stress; a rename in polarcalc that
# silently zeroes one of them fails here.
STRESSED = {
    "dense_forms": [
        "polyring.mul", "polyring.add", "polyring.partial", "polyring.determinant",
        "polyring.parse", "polyring.print", "curvature.hessian_determinant",
        "flecnodal.flecnodal_covariants", "cli.main", "cli.render",
    ],
    "point_queries": [
        "polyring.substitute", "polyring.evaluate", "polyring.parse", "polyring.print",
        "linalg.scalar_determinant", "linalg.rank",
        "polarity.polar", "polarity.polar_kic", "polarity.tangent_hyperplane",
        "polarity.line_multiplicity", "polarity.tangent_cone",
        "curvature.second_fundamental_form", "curvature.classify_surface_point",
        "flecnodal.max_contact_order", "flecnodal.binary_form_resultant",
        "cli.main", "cli.render",
    ],
    "identity_suites": [
        "polyring.determinant", "polyring.exact_div", "polyring.resultant",
        "localmodels.tacnode_discriminant", "localmodels.stratum_check",
        "plucker.verify_plucker_relations", "plucker.generator_identities_symbolic",
        "plucker.dejonquieres_count", "plucker.complete_developable",
        "invariants.dual_surface_table", "invariants.verify_dual_relations",
        "invariants.verify_projection_pipelines", "randomchecks.property_suite.QQ",
    ],
    "modp_batches": ["randomchecks.property_suite.GFp", "polyring.mul"],
}


@pytest.mark.parametrize("name", sorted(jobgen.WORKLOADS))
def test_every_generated_job_parses(name):
    workload = jobgen.WORKLOADS[name]
    parser = cli.build_parser()
    jobs = workload.block(5, 0, "smoke") + workload.block(5, 0) + workload.block(5, 1)
    for job in jobs:
        parser.parse_args(job.argv)  # argparse exits on a usage error
        assert all(not a.startswith("-") or "=" in a or a == "--json" for a in job.argv)


@pytest.mark.parametrize("name", sorted(jobgen.WORKLOADS))
def test_blocks_repeat_for_a_seed(name):
    workload = jobgen.WORKLOADS[name]
    first = [job.argv for job in workload.block(3, 2, "smoke")]
    assert first == [job.argv for job in workload.block(3, 2, "smoke")]
    assert first != [job.argv for job in workload.block(4, 2, "smoke")]


@pytest.mark.parametrize("name", sorted(STRESSED))
def test_spans_fire_on_their_workload(name):
    workload = jobgen.WORKLOADS[name]
    runner = run.Runner(cli, gate, workload)
    tracer = Tracer()
    tracer.install()
    try:
        for job in workload.block(1, 0, "smoke"):
            runner.run(job, 0)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    metrics = tracer.metrics()
    silent = [span for span in STRESSED[name] if not metrics[f"{span}.calls"]]
    assert silent == []


def test_uninstall_restores_polarcalc():
    from polarcalc import curvature, flecnodal, polyring

    before = (polyring.Poly.__mul__, flecnodal.hessian_determinant, cli.main)
    tracer = Tracer()
    tracer.install()
    assert flecnodal.hessian_determinant is not before[1]
    tracer.uninstall()
    assert (polyring.Poly.__mul__, flecnodal.hessian_determinant, cli.main) == before
    assert curvature.hessian_determinant is before[1]


def _hessian_job():
    return next(j for j in jobgen.WORKLOADS["dense_forms"].block(1, 0, "smoke")
                if j.surface is not None)


def test_gate_checks_the_printed_hessian():
    job = _hessian_job()
    code, out, _, status, _ = run.Runner(cli, gate, jobgen.WORKLOADS["dense_forms"]).execute(job)
    assert status == "ok" and gate.check_job(job, code, out) is None
    doc = json.loads(out)
    doc["results"]["hessian"] += " + x^8"
    assert "disagrees" in gate.check_job(job, code, json.dumps(doc))
    assert "exit code" in gate.check_job(job, 1, out)
    failing = {"checks": [{"name": "c", "status": "fail"}]}
    assert "failed checks" in gate.check_output(0, json.dumps(failing))


def test_job_times_are_scaled_by_the_host_kernel():
    workload = jobgen.WORKLOADS["point_queries"]
    runner = run.Runner(cli, gate, workload)
    seconds = runner.run(workload.block(1, 0, "smoke")[0], 0)
    assert runner.speed.samples == 1 and runner.latencies == [seconds]
    assert seconds == pytest.approx(
        runner.raw_latencies[0] * hostspeed.REFERENCE_S / runner.speed.recent[0])
    assert hostspeed.kernel() == hostspeed.kernel() > 0


def test_budget_overrun_is_a_failure():
    workload = jobgen.Workload("tight", "", jobgen.dense_block, 1, 1, budget_s=0.001)
    job = next(j for j in workload.block(1, 0, "smoke") if j.info["command"] == "poly covariants")
    runner = run.Runner(cli, gate, workload)
    runner.run(job, 0)
    assert runner.statuses == {"overrun": 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(jobgen.WORKLOADS))
def test_smoke_run_schema(name, trace, capsys):
    assert run.main(["--workload", name, "--smoke", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in table}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_matches_the_tables():
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [tuple(m) for m in run.PER_LAYER]
    assert {m["better"] for m in spec["per_layer"]} == {"lower"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in jobgen.WORKLOADS.values()]


def test_compare_marks_overlapping_runs_unresolved(tmp_path, capsys):
    def records(values):
        return "".join(
            json.dumps({"workload": "w", "result": {"metrics": {
                "jobs_per_s": {"value": v, "unit": "1/s"}}}}) + "\n" for v in values)

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    a.write_text(records([10, 11, 12, 13]))
    b.write_text(records([11, 12, 13, 14]))
    c.write_text(records([20, 21, 22, 23]))
    run.compare(a, b)
    assert "unresolved" in capsys.readouterr().out
    run.compare(a, c)
    assert "better" in capsys.readouterr().out
