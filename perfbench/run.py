"""heckesym benchmark: verified reports, timed end to end, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generic_profile --seed 1 --seconds 30 --trace 0

One process runs one workload, with one caller in a closed loop on a single
thread: it repeats passes over the workload's fixed job list (made from
--seed) for --seconds, checking every job's output.  See README.md in this
directory for the workloads, the metrics and how the runs were made steady.

--trace 0 reports the end-to-end metrics: pass_s (median time of one pass),
setup_s (median time a fresh interpreter spends importing heckesym.cli) and
peak_rss_mb.  Both times are wall seconds scaled to a reference host speed
by a probe timed alongside them (see `probe`); the raw wall medians are
printed as wall.pass_s and wall.setup_s.  --trace 1 spends the first half
of --seconds on untraced passes and the second half on traced ones, and
reports the per-layer metrics plus the tracing overhead; its spans and
per-job statistics go to .perfbench_out/ at the root of the checkout.

Human-readable lines (every metric with unit, sample count and quartiles,
and the error rate) come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every job was correct, 1 when some job failed its check, and 2 on a
usage error or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_LAUNCHES = 7
MIN_PASSES = 2

# The host's speed drifts by up to 2x within minutes (measured on a shared
# 2-core VM), and every wall time drifts with it.  A fixed stdlib-only
# computation, the probe, is timed between jobs (at most every PROBE_EVERY_S)
# and around launches; times are reported at the host speed where the probe
# takes REFERENCE_PROBE_S.
PROBE_EVERY_S = 0.25
PROBE_REPS = 10
REFERENCE_PROBE_S = 0.02
_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)] for i in range(9)]

SCALAR_KINDS = ("rational", "cyclotomic", "ratfunc_q")


def quartiles(values):
    """(q1, median, q3) of the samples; a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def probe():
    """Wall seconds of Gauss-Jordan elimination of a fixed Fraction matrix, PROBE_REPS times."""
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        m = [row[:] for row in _PROBE_MATRIX]
        n = len(m)
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col])
            m[col], m[piv] = m[piv], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return time.perf_counter() - start


def at_reference_speed(wall, probe_s):
    return wall * REFERENCE_PROBE_S / probe_s


SETUP_CODE = "import time; t = time.perf_counter(); import heckesym.cli; print(time.perf_counter() - t)"


def measure_setup(launches):
    """Seconds a fresh interpreter spends importing heckesym.cli: (raw, at reference speed).

    The import is timed inside the child, so the interpreter's own start-up,
    which no change to heckesym can move, is left out.  One untimed launch
    first compiles the bytecode; each timed launch is scaled by the mean of
    the probes just before and after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", SETUP_CODE]

    def launch():
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        return float(done.stdout)

    launch()
    raw, probes = [], [probe()]
    for _ in range(launches):
        raw.append(launch())
        probes.append(probe())
    scaled = [at_reference_speed(w, (p0 + p1) / 2) for w, p0, p1 in zip(raw, probes, probes[1:])]
    return raw, scaled


def job_id(tag, index, job):
    """Trace id of one job run; the index keeps two jobs with equal names apart."""
    return "%s/%d %s" % (tag, index, job.name)


class Runner:
    """Runs passes over one job list and keeps the pass times and failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.stdout_bytes = []   # per pass

    def one_pass(self, tag, tracer=None):
        """Runs every job once: (wall seconds in jobs and checks, the same at reference speed, probes).

        The jobs are cut into segments of about PROBE_EVERY_S with a probe
        between segments; each segment is scaled by the mean of the probes
        on either side of it.
        """
        probes = [probe()]
        wall = scaled = segment = 0.0
        segment_start = time.perf_counter()
        nbytes = 0
        for index, job in enumerate(self.jobs):
            if segment and time.perf_counter() - segment_start >= PROBE_EVERY_S:
                probes.append(probe())
                wall += segment
                scaled += at_reference_speed(segment, (probes[-2] + probes[-1]) / 2)
                segment, segment_start = 0.0, time.perf_counter()
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    code, out = job.run()
                else:
                    jid = job_id(tag, index, job)
                    code, out = tracer.run_job(jid, job.run)
                    record_checks(tracer, jid, out)
                reason = job.check(code, out)
                nbytes += len(out.encode("utf-8"))
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                reason = "raised %s: %s" % (type(exc).__name__, exc)
            segment += time.perf_counter() - start
            if reason is not None:
                self.failures.append("%s [%s]: %s" % (job.name, tag, reason))
        probes.append(probe())
        wall += segment
        scaled += at_reference_speed(segment, (probes[-2] + probes[-1]) / 2)
        self.stdout_bytes.append(nbytes)
        return wall, scaled, probes

    def passes(self, budget, tag, tracer=None, min_passes=1):
        """Repeats passes while the next one is expected to end within budget seconds.

        Returns the pass walls, the passes at reference speed, and every probe taken.
        """
        walls, scaled, probes, spans = [], [], [], []
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            wall, at_ref, pass_probes = self.one_pass("%s%d" % (tag, len(walls)), tracer)
            spans.append(time.perf_counter() - before)
            walls.append(wall)
            scaled.append(at_ref)
            probes += pass_probes
            used = time.perf_counter() - start
            if len(walls) >= min_passes and used + statistics.median(spans) > budget:
                return walls, scaled, probes


def layer_metrics(tracer, job_ids):
    """Per-layer metrics of one traced pass, from the tracer's per-job statistics."""
    t = tracer.totals(job_ids)

    def stat(name, k):
        return t.get(name, [0, 0.0, 0.0])[k]

    m = {}
    for kind in SCALAR_KINDS:
        ops, self_s = stat("exactnum." + kind, 0), stat("exactnum." + kind, 2)
        m["exactnum.ops." + kind] = (ops, "count")
        m["exactnum.self_s." + kind] = (self_s, "s")
        m["exactnum.us_per_op." + kind] = (1e6 * self_s / ops if ops else 0.0, "us")
    m["linalg.rref.calls"] = (stat("linalg.rref", 0), "count")
    m["linalg.rref.cells"] = (t.get("linalg.rref.cells", 0), "count")
    m["linalg.rref.self_s"] = (stat("linalg.rref", 2), "s")
    rows = t.get("linalg.rref.rows", 0)
    m["linalg.rref.rank_ratio"] = (t.get("linalg.rref.rank", 0) / rows if rows else 0.0, "ratio")
    for op in ("intersect", "matmul", "det", "kernel"):
        m["linalg.%s.calls" % op] = (stat("linalg." + op, 0), "count")
        m["linalg.%s.self_s" % op] = (stat("linalg." + op, 2), "s")
    calls = stat("symmetry.upsilon", 0)
    m["symmetry.upsilon.calls"] = (calls, "count")
    m["symmetry.upsilon.self_s"] = (stat("symmetry.upsilon", 2), "s")
    m["symmetry.upsilon.hit_ratio"] = (t.get("symmetry.upsilon.hits", 0) / calls if calls else 0.0, "ratio")
    m["symmetry.upsilon.max_ambient"] = (t.get("symmetry.upsilon.max_ambient", 0), "count")
    m["symmetry.lambda_dim.self_s"] = (stat("symmetry.lambda_dim", 2), "s")
    m["symmetry.apply_generator.calls"] = (stat("symmetry.apply_generator", 0), "count")
    for name in ("apply_generator", "generator_matrix", "perm_matrix", "rep_matrix"):
        m["symmetry.%s.self_s" % name] = (stat("symmetry." + name, 2), "s")
    for name in ("analyze", "verify_operator_identities", "trace_table"):
        m["frobenius.%s.self_s" % name] = (stat("frobenius." + name, 2), "s")
    m["heckealg.mul.calls"] = (stat("heckealg.mul", 0), "count")
    m["heckealg.mul.self_s"] = (stat("heckealg.mul", 2), "s")
    m["heckealg.mul.terms"] = (t.get("heckealg.mul.terms", 0), "count")
    m["permgroup.mul.calls"] = (stat("permgroup.mul", 0), "count")
    m["regular3.projmul.calls"] = (stat("regular3.projmul", 0), "count")
    m["regular3.projmul.self_s"] = (stat("regular3.projmul", 2), "s")
    m["regular3.conjugacy_report.self_s"] = (stat("regular3.conjugacy_report", 2), "s")
    m["multipoly.mul.calls"] = (stat("multipoly.mul", 0), "count")
    m["multipoly.mul.self_s"] = (stat("multipoly.mul", 2), "s")
    m["multipoly.mul.terms"] = (t.get("multipoly.mul.terms", 0), "count")
    m["multipoly.exact_div.calls"] = (stat("multipoly.exact_div", 0), "count")
    m["obstruction.verify_case.self_s"] = (stat("obstruction.verify_case", 2), "s")
    m["obstruction.sylvester_resultant.self_s"] = (stat("obstruction.sylvester_resultant", 2), "s")
    for name in ("parse", "format"):
        m["exprio.%s.calls" % name] = (stat("exprio." + name, 0), "count")
        m["exprio.%s.self_s" % name] = (stat("exprio." + name, 2), "s")
    for status in ("pass", "fail", "skip"):
        m["report.checks." + status] = (t.get("report.checks." + status, 0), "count")
    return m


def record_checks(tracer, jid, out):
    """Adds the check statuses in one job's stdout to report.checks.{pass,fail,skip}."""
    try:
        doc = json.loads(out)
    except ValueError:
        return
    if isinstance(doc, dict):
        for c in doc.get("checks", ()):
            tracer.count("report.checks." + c["status"], 1, jid)


def main(argv=None):
    from jobs import WORKLOADS, build_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "heckesym", "cli.py")):
        sys.stderr.write("error: no heckesym sources under %s; run from the root of a checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)

    setup_walls, setup = measure_setup(SETUP_LAUNCHES)
    import heckesym.cli  # noqa: F401  (the workload process pays the import once)

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as tmpdir:
        runner = Runner(build_jobs(args.workload, args.seed, tmpdir))
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, plain, probes = runner.passes(budget, "p", min_passes=1 if args.trace else MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = {}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            _walls, traced, _probes = runner.passes(budget, "t", tracer)
            per_pass = [
                layer_metrics(tracer, [job_id("t%d" % k, index, job) for index, job in enumerate(runner.jobs)])
                for k in range(len(traced))
            ]
            for name, (_value, unit) in per_pass[0].items():
                values = [p[name][0] for p in per_pass]
                if unit == "count":
                    if len(set(values)) > 1:
                        sys.stderr.write("warning: %s differs between traced passes: %s\n" % (name, values))
                    values = values[:1]
                layers[name] = (values, unit)
            layers["trace.pass_s"] = (traced, "s")
            layers["trace.overhead_s"] = ([statistics.median(traced) - statistics.median(plain)], "s")
            tracer.dump(
                os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed)),
                {"workload": args.workload, "seed": args.seed, "pass_s": plain, "traced_pass_s": traced, "probe_s": probes},
            )

    for failure in runner.failures:
        sys.stderr.write("FAILED %s\n" % failure)
    end_to_end = {
        "pass_s": (plain, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([peak_rss_mb], "MB"),
    }
    layers["wall.pass_s"] = (walls, "s")
    layers["wall.setup_s"] = (setup_walls, "s")
    layers["host.probe_s"] = (probes, "s")
    layers["cli.stdout_bytes"] = (runner.stdout_bytes[:1], "bytes")
    layers["error_rate"] = ([len(runner.failures) / runner.attempted], "ratio")
    print("workload %s  seed %d  trace %d  jobs/pass %d  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, len(runner.jobs), runner.attempted, len(runner.failures)))
    print("%-42s %14s %-6s %4s %14s %14s" % ("metric", "median", "unit", "n", "q1", "q3"))
    for name, (values, unit) in list(end_to_end.items()) + list(layers.items()):
        q1, med, q3 = quartiles(values)
        print("%-42s %14.6g %-6s %4d %14.6g %14.6g" % (name, med, unit, len(values), q1, q3))
    reported = layers if args.trace else end_to_end
    metrics = {name: {"value": statistics.median(values), "unit": unit} for name, (values, unit) in reported.items()}
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
