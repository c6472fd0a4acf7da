"""The polarcalc benchmark: seeded CLI workloads, job-level metrics, a traced per-layer run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out FILE]
    python3 bench/run.py --compare A.jsonl B.jsonl
    python3 bench/run.py --write-references [--workload NAME]

One client in one thread drives ``polarcalc.cli.main(argv)`` in-process as
a closed loop: each job starts when the previous one has returned and its
output has been checked (``gate.py``).  Jobs come in fixed-composition
blocks (``jobgen.py``); a run repeats blocks until ``--seconds`` have
passed and always finishes the block it is in, so every run measures the
same mix of commands.

Every timing is scaled to a reference host speed: a bench-owned stdlib
kernel (``hostspeed.py``) is timed before each job and each set-up start,
and a timing is multiplied by the kernel's reference time over its recent
median, so that the host's drifting speed does not read as a change in the
program.  The unscaled timings are printed and kept in the run record.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of a cold ``python -m polarcalc.cli
  invariants surface --degree 4 --json`` subprocess (interpreter start and
  import), over several starts after one that fills the bytecode cache;
* ``jobs_per_s``: correct jobs per second of job wall time (the sum of the
  ``main`` calls; the gate's own work between jobs is not counted);
* ``job_p50_ms`` / ``job_p90_ms``: job latency percentiles, with the number
  of samples beyond the 90th reported next to them;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The failed ratio (wrong exit code, traceback, FAIL check, output mismatch
or budget overrun, over jobs attempted) is printed with them and carried
in the result line as ``failed`` / ``attempted``.

With ``--trace 1`` the run instead takes the first ``trace_blocks`` blocks
of the workload, runs them untraced for half of ``--seconds`` and then
traced (``spans.py``) for the rest, and reports the per-layer metrics and
``trace.overhead_ratio`` (traced over untraced job wall time).  Counts are
exact for a given seed; self times are medians over the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends a
run record (Python version, git revision, nproc, seed, generator
parameters, result, slowest jobs) as one JSON line; ``--compare`` reads two
such files and prints per-metric ratios, marking a metric unresolved when
the interquartile ranges of the two sides overlap.

Runs on the reference seed compare every job's output digest with
``references.json``; after a change that is meant to alter printed output,
``--write-references`` records the new digests.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hostspeed import REFERENCE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEED = 1
SETUP_STARTS = 11

# (name, unit, better, bound).  On a shared 2-vCPU VM (Python 3.11),
# unscaled job timings spread 4-23% between quartiles over ten runs and
# the medians of sets of ten runs about 20 minutes apart differed by up to
# 31%; scaled, they spread 1-7% over ten 25 s runs of each workload.
# Set-up time spreads more (6-19%), so its bound is the largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.24),
    ("job_p50_ms", "ms", "lower", 0.24),
    ("job_p90_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
_SELF = [
    "polyring.mul", "polyring.add", "polyring.partial", "polyring.substitute",
    "polyring.evaluate", "polyring.determinant", "polyring.exact_div", "polyring.resultant",
    "polyring.parse", "polyring.print",
    "linalg.scalar_determinant", "linalg.rank",
    "polarity.polar", "polarity.polar_kic", "polarity.tangent_hyperplane",
    "polarity.line_multiplicity", "polarity.tangent_cone",
    "curvature.hessian_determinant", "curvature.second_fundamental_form",
    "curvature.classify_surface_point",
    "flecnodal.flecnodal_covariants", "flecnodal.max_contact_order",
    "flecnodal.binary_form_resultant",
    "localmodels.tacnode_discriminant", "localmodels.stratum_check",
    "plucker.verify_plucker_relations", "plucker.generator_identities_symbolic",
    "plucker.dejonquieres_count", "plucker.complete_developable",
    "invariants.dual_surface_table", "invariants.verify_dual_relations",
    "invariants.verify_projection_pipelines",
    "randomchecks.property_suite.QQ", "randomchecks.property_suite.GFp",
    "cli.main", "cli.render",
]
_CALLS = ["polyring.mul", "polyring.substitute", "polyring.evaluate", "flecnodal.max_contact_order"]
# (name, unit); every per-layer metric is better lower
PER_LAYER = tuple(
    [(f"{s}.self_s", "s") for s in _SELF]
    + [(f"{s}.calls", "count") for s in _CALLS]
    + [
        ("polyring.mul.term_pairs", "count"),
        ("polyring.determinant.cofactor_calls", "count"),
        ("polyring.determinant.bareiss_calls", "count"),
        ("polyring.out_terms.max", "terms"),
        ("polyring.coeff_bits.max", "bits"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class JobOverrun(BaseException):
    """Raised by the budget alarm; a BaseException so no handler in polarcalc swallows it."""


class Runner:
    """Runs jobs one at a time through ``cli.main`` and applies the output gate."""

    def __init__(self, cli, gate, workload, references=None):
        self.cli, self.gate, self.workload = cli, gate, workload
        self.references = references  # per-block digest strings for the reference seed
        self.seen = {}
        self.speed = HostSpeed()
        # Only floats per job are kept, so the benchmark's own memory does
        # not grow with the number of jobs a faster program gets through.
        self.latencies = []  # scaled to the reference host speed
        self.raw_latencies = []
        self.statuses = Counter()
        self.failures = []  # the first few (job id, status, reason, argv)
        self.slowest = []  # min-heap of (seconds, sequence, job info)
        self._armed = False

    def _alarm(self, signum, frame):
        if self._armed:
            raise JobOverrun()

    def execute(self, job):
        """(exit code or None, stdout, job seconds, status, reason) of one call."""
        self.speed.sample()
        out, err = io.StringIO(), io.StringIO()
        code, status, reason = None, "ok", None
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.workload.budget_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self._armed = True
                start = perf_counter_ns()
                try:
                    code = self.cli.main(job.argv)
                finally:
                    elapsed = perf_counter_ns() - start
                    self._armed = False
        except JobOverrun:
            status, reason = "overrun", f"over the {self.workload.budget_s} s budget"
        except Exception as exc:  # a traceback out of main is a failed job
            status, reason = "traceback", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue(), elapsed / 1e9, status, reason

    def run(self, job, block: int):
        """Runs and checks one job; returns its scaled seconds."""
        code, out, raw, status, reason = self.execute(job)
        seconds = raw * self.speed.scale()
        if status == "ok":
            reason = self.gate.check_job(job, code, out)
            if reason is None:
                reason = self._check_digest(job, block, self.gate.digest(code, out))
            if reason is not None:
                status = "incorrect"
        self.latencies.append(seconds)
        self.raw_latencies.append(raw)
        self.statuses[status] += 1
        if status != "ok" and len(self.failures) < 10:
            self.failures.append((job.id, status, reason, " ".join(job.argv)[:200]))
        entry = (seconds, len(self.latencies), dict(job.info, id=job.id, status=status))
        if len(self.slowest) < 10:
            heapq.heappush(self.slowest, entry)
        elif entry > self.slowest[0]:
            heapq.heapreplace(self.slowest, entry)
        return seconds

    def _check_digest(self, job, block, got):
        if job.id in self.seen and self.seen[job.id] != got:
            return "output differs from an earlier run of the same job"
        self.seen[job.id] = got
        if self.references is not None:
            k = block % self.workload.pool_blocks
            i = int(job.id.rpartition(".")[2])
            width = self.gate.DIGEST_CHARS
            want = self.references[k][i * width:(i + 1) * width]
            if got != want:
                return f"output digest {got} differs from the reference {want}"
        return None


def _quantile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure_setup(gate, starts):
    """Median (scaled, raw) wall seconds of cold CLI starts.

    A first start, which fills the bytecode cache, is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "polarcalc.cli",
           "invariants", "surface", "--degree", "4", "--json"]
    speed = HostSpeed()
    times, raw = [], []
    for i in range(starts + 1):
        for _ in range(3):
            speed.sample()
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        reason = gate.check_output(proc.returncode, proc.stdout)
        if reason:
            raise RuntimeError(f"set-up command failed ({reason}): {proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed * speed.scale())
            raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def run_untraced(runner, workload, seed, seconds, size):
    start, k = perf_counter(), 0
    while True:
        for job in workload.block(seed, k, size):
            runner.run(job, k)
        k += 1
        if perf_counter() - start >= seconds:
            return k


def run_traced(runner, workload, seed, seconds, size, Tracer):
    """Per-layer metrics over the trace set: untraced passes, then traced ones."""
    trace_set = [(k, job) for k in range(workload.trace_blocks)
                 for job in workload.block(seed, k, size)]

    def one_pass():
        return sum(runner.run(job, k) for k, job in trace_set)

    start = perf_counter()
    plain = [one_pass()]
    while perf_counter() - start < seconds / 2:
        plain.append(one_pass())
    tracer = Tracer()
    tracer.install()
    traced, per_pass = [], []
    try:
        while True:
            tracer.reset()
            traced.append(one_pass())
            per_pass.append(tracer.metrics())
            if perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    # Counts repeat exactly from pass to pass; times take the median.
    metrics = {key: statistics.median(p[key] for p in per_pass) if key.endswith(".self_s")
               else per_pass[0][key] for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, workload.trace_blocks * (len(plain) + len(traced))


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _job_timings(runner, latencies):
    return {
        "jobs_per_s": runner.statuses["ok"] / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": _quantile90(latencies) * 1e3,
    }


def summarize(args, workload, runner, blocks, setup, layer):
    latencies = runner.latencies
    attempted = len(latencies)
    failed = attempted - runner.statuses["ok"]
    unscaled = None
    if layer is None:
        values = dict(_job_timings(runner, latencies), setup_s=setup[0],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        unscaled = dict(_job_timings(runner, runner.raw_latencies), setup_s=setup[1])
        table = END_TO_END
    else:
        values, table = layer, PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}
    result = {
        "correct": failed == runner.statuses["overrun"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    p90 = _quantile90(latencies)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "smoke" if args.smoke else "full",
        "python": platform.python_version(), "git_revision": git_revision(),
        "nproc": os.cpu_count(), "generator": workload.params,
        "blocks": blocks, "failed_ratio": failed / attempted,
        "unscaled": unscaled,
        "host_kernel_ms": runner.speed.total_s / runner.speed.samples * 1e3,
        "beyond_p90": sum(1 for s in latencies if s > p90),
        "overruns": runner.statuses["overrun"],
        "slowest": [dict(info, ms=round(s * 1e3, 3))
                    for s, _, info in sorted(runner.slowest, reverse=True)],
        "failures": runner.failures,
        "result": result,
    }
    return result, record


def print_report(record):
    result = record["result"]
    print(f"polarcalc benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} size={record['size']} blocks={record['blocks']} "
          f"jobs={result['attempted']} python={record['python']} nproc={record['nproc']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':48s} {record['failed_ratio']:>16.6g} "
          f"({result['failed']} of {result['attempted']}, {record['overruns']} over budget)")
    if record["trace"] == 0:
        print(f"  job_p90_ms has {record['beyond_p90']} of {result['attempted']} samples beyond it")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    print(f"  host kernel mean {record['host_kernel_ms']:.4g} ms "
          f"(reference {REFERENCE_S * 1e3:.4g} ms)")
    for job_id, status, reason, argv in record["failures"]:
        print(f"  FAILED {job_id} {status}: {reason}  argv={argv}")


def _spread(values):
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, q3
    return min(values), max(values)


def compare(path_a, path_b):
    """Per-metric ratios B / A over the run records in two files."""
    better = {name: b for name, _, b, _ in END_TO_END}
    sides = []
    for path in (path_a, path_b):
        groups = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                for name, metric in record["result"]["metrics"].items():
                    groups.setdefault((record["workload"], name), []).append(metric["value"])
        sides.append(groups)
    a, b = sides
    print(f"{'workload':16s} {'metric':48s} {'median A':>12s} {'median B':>12s} "
          f"{'B/A':>8s}  verdict (runs A/B)")
    for key in sorted(set(a) & set(b)):
        va, vb = a[key], b[key]
        ma, mb = statistics.median(va), statistics.median(vb)
        (la, ha), (lb, hb) = _spread(va), _spread(vb)
        ratio = mb / ma if ma else float("nan")
        if la <= hb and lb <= ha:
            verdict = "unresolved"
        else:
            lower_is_better = better.get(key[1], "lower") == "lower"
            verdict = "better" if (mb < ma) == lower_is_better else "worse"
        print(f"{key[0]:16s} {key[1]:48s} {ma:12.6g} {mb:12.6g} {ratio:8.4f}  "
              f"{verdict} ({len(va)}/{len(vb)})")


def write_references(cli, gate, workloads):
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {
        "seed": REFERENCE_SEED, "digest_chars": gate.DIGEST_CHARS, "workloads": {}}
    for workload in workloads:
        runner = Runner(cli, gate, workload)
        blocks = []
        for k in range(workload.pool_blocks):
            jobs = workload.block(REFERENCE_SEED, k)
            digests = []
            for job in jobs:
                code, out, _, status, reason = runner.execute(job)
                reason = reason or gate.check_job(job, code, out)
                if reason:
                    raise SystemExit(f"{workload.name} job {job.id} fails the gate: {reason}")
                digests.append(gate.digest(code, out))
            blocks.append("".join(digests))
        stored["workloads"][workload.name] = blocks
        print(f"{workload.name}: {len(blocks)} blocks", file=sys.stderr)
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job sizes, for a schema check")
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-references", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "polarcalc" / "cli.py").is_file():
        print(f"error: no polarcalc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import jobgen
    from polarcalc import cli
    from spans import Tracer

    if args.write_references:
        names = [args.workload] if args.workload else list(jobgen.WORKLOADS)
        write_references(cli, gate, [jobgen.WORKLOADS[n] for n in names])
        return 0
    if args.workload not in jobgen.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(jobgen.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = jobgen.WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    references = None
    if args.seed == REFERENCE_SEED and size == "full":
        references = json.loads(REFERENCES.read_text())["workloads"][workload.name]
    runner = Runner(cli, gate, workload, references)
    if args.trace:
        setup = None
        layer, blocks = run_traced(runner, workload, args.seed, args.seconds, size, Tracer)
    else:
        setup = measure_setup(gate, 1 if args.smoke else SETUP_STARTS)
        layer = None
        blocks = run_untraced(runner, workload, args.seed, args.seconds, size)
    result, record = summarize(args, workload, runner, blocks, setup, layer)
    print_report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
