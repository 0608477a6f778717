"""The benchmark's workloads: job lists, seeded inputs and output checks.

A job is one verified report.  `Job.run()` returns (exit code, stdout) and
`Job.check(code, out)` returns None when the output is right, else a
one-line reason.  CLI jobs call `heckesym.cli.main(argv)` in process with
stdout captured; library jobs call the public API and print their result as
JSON.  Fixed-input jobs are checked against the sha256 of their stdout as
captured in `expected.json` (see capture.py); seeded jobs are checked
against invariants that do not depend on how the program formats its
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("generic_profile", "dense_conjugates", "group_suites", "obstruction")

# Fixed CLI inputs checked by stdout digest, per workload.
FIXED_ARGV = {
    "generic_profile": [
        ["analyze", "--builtin", "dj", "--dim", "2"],
        ["analyze", "--builtin", "dj", "--dim", "3"],
        ["analyze", "--builtin", "flip", "--dim", "2"],
        ["analyze", "--builtin", "flip", "--dim", "3"],
    ],
    "dense_conjugates": [],
    "group_suites": [
        ["identities", "--n", "5"],
        ["hessian", "--report"],
    ],
    "obstruction": [
        ["obstruct", "--case", "1"],
        ["obstruct", "--case", "2"],
        ["obstruct", "--case", "3"],
        ["obstruct", "--case", "4"],
        ["resultant", "--case1"],
    ],
}

# Library jobs of generic_profile: (name, N, method, degrees).
LIBRARY_JOBS = [
    ("dj4.upsilon", 4, "upsilon", (2, 3, 4)),
    ("dj4.lambda_dim", 4, "lambda_dim", (2, 3, 4)),
    ("dj5.upsilon", 5, "upsilon", (2, 3)),
]

# dense_conjugates cases: (name, N, field arguments of the built-in).
CONJUGATE_CASES = [
    ("dj2-generic", 2, []),
    ("dj2-rational", 2, ["--field", "rational", "--q", "2"]),
    ("dj2-cyc3", 2, ["--field", "cyclotomic", "--order", "3", "--q", "e"]),
    ("dj2-cyc4", 2, ["--field", "cyclotomic", "--order", "4", "--q", "e"]),
    ("dj3-rational", 3, ["--field", "rational", "--q", "2"]),
    ("dj3-cyc3", 3, ["--field", "cyclotomic", "--order", "3", "--q", "e"]),
]

TRIPLES = 8
TRIPLE_RANGE = [v for v in range(-6, 7) if v]
# Entries of tau: nonzero, so that every conjugate is dense (see draw_tau).
TAU_ENTRIES = (-2, -1, 1, 2)


class Job:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def run_cli(argv):
    """heckesym.cli.main(argv) with stdout and stderr captured."""
    from heckesym.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _json_out(code, out):
    """Parsed stdout of a job that must exit 0; raises ValueError otherwise."""
    if code != 0:
        raise ValueError("exit code %d, expected 0" % code)
    return json.loads(out)


def _checked(fn):
    """Turns a check that raises on mismatch into one that returns the reason."""

    def check(code, out):
        try:
            fn(code, out)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return "%s: %s" % (type(exc).__name__, exc)
        return None

    return check


def _require(cond, what):
    if not cond:
        raise ValueError(what)


# ---------------------------------------------------------------------------
# fixed-input jobs


def digest_job(argv, expected_digest):
    def check(code, out):
        _require(code == 0, "exit code %d, expected 0" % code)
        _require(sha256(out) == expected_digest, "stdout digest %s, expected %s" % (sha256(out)[:16], expected_digest[:16]))

    return Job(" ".join(argv), lambda: run_cli(argv), _checked(check))


def library_result(N, method, degrees):
    """Builds a fresh dj_standard(N) and returns [sym.method(n) dims for n in degrees]."""
    from heckesym.symmetry import dj_standard

    sym = dj_standard(N)
    if method == "upsilon":
        return [sym.upsilon(n).dim for n in degrees]
    return [sym.lambda_dim(n) for n in degrees]


def library_job(name, N, method, degrees, expected_dims):
    def run():
        return 0, json.dumps(library_result(N, method, degrees))

    def check(code, out):
        got = _json_out(code, out)
        _require(got == expected_dims, "dims %s, expected %s" % (got, expected_dims))

    return Job(name, run, _checked(check))


# ---------------------------------------------------------------------------
# dense_conjugates: seeded conjugates of the built-in dj_standard(N)


def analyze_invariants(doc):
    """The parts of an analyze report that conjugation leaves unchanged."""
    return {
        "ok": doc["ok"],
        "n": doc["n"],
        "dims": doc["dims"],
        "lambda_dims": doc["lambda_dims"],
        "trace_table": doc["trace_table"],
        "checks": [[c["name"], c["status"]] for c in doc["checks"]],
    }


def verify_invariants(doc):
    return {
        "ok": doc["ok"],
        "dim": doc["dim"],
        "checks": [[c["name"], c["status"]] for c in doc["checks"]],
    }


def _fraction_det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def draw_tau(rng, N):
    """An N x N matrix with entries in TAU_ENTRIES, drawn again until det = +-1.

    Dense and unimodular, tau gives conjugates whose density and coefficient
    sizes do not depend on the seed, so a pass does about the same work for
    every seed; entries in [-2, 2] with det != 0 alone let it vary threefold.
    """
    while True:
        rows = [[rng.choice(TAU_ENTRIES) for _ in range(N)] for _ in range(N)]
        if abs(_fraction_det(rows)) == 1:
            return rows


def conjugate_document(N, field_args, tau_rows):
    """dj_standard(N) at the given field, conjugated by tau, as an operator JSON document."""
    from heckesym.linalg import MatrixF
    from heckesym.symmetry import HeckeSymmetry

    code, out = run_cli(["builtin", "--builtin", "dj", "--dim", str(N)] + field_args)
    if code != 0:
        raise RuntimeError("builtin dj %d %s exited %d" % (N, field_args, code))
    sym = HeckeSymmetry.from_json_dict(json.loads(out))
    tau = MatrixF.from_rows([[sym.field.scalar(x) for x in row] for row in tau_rows], sym.field)
    return sym.conjugate(tau).to_json_dict()


def conjugate_jobs(rng, tmpdir, references):
    jobs = []
    for name, N, field_args in CONJUGATE_CASES:
        tau = draw_tau(rng, N)
        path = os.path.join(tmpdir, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(conjugate_document(N, field_args, tau), fh)
        ref = references[name]
        for command, project in (("verify", verify_invariants), ("analyze", analyze_invariants)):
            def check(code, out, project=project, want=ref[command]):
                got = project(_json_out(code, out))
                for key in want:
                    _require(got[key] == want[key], "%s differs from the unconjugated built-in" % key)

            argv = [command, path]
            jobs.append(Job("%s %s tau=%s" % (command, name, tau), lambda argv=argv: run_cli(argv), _checked(check)))
    return jobs


# ---------------------------------------------------------------------------
# obstruction: seeded parameter triples


def resultant_formula(a, b, c):
    """a^2 b^2 c^2 ((a^3+b^3+c^3)^3 - 27 a^3 b^3 c^3)^2, exactly."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return a * a * b * b * c * c * ((a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * a ** 3 * b ** 3 * c ** 3) ** 2


def skl_expected(a, b, c):
    """The relation tensors t_1..t_3 (9-vectors) and the cubic tensor t (27-vector)."""
    rels = []
    cube = [Fraction(0)] * 27
    for i in (1, 2, 3):
        up, dn = i % 3 + 1, (i - 2) % 3 + 1
        vec = [Fraction(0)] * 9
        vec[(up - 1) * 3 + (dn - 1)] += a
        vec[(dn - 1) * 3 + (up - 1)] += b
        vec[(i - 1) * 3 + (i - 1)] += c
        rels.append(vec)
        cube[(dn - 1) * 9 + (i - 1) * 3 + (up - 1)] += a
        cube[(up - 1) * 9 + (i - 1) * 3 + (dn - 1)] += b
        cube[(i - 1) * 13] += c
    return rels, cube


def _all_pass(doc):
    _require(doc["ok"] is True, "report not ok")
    bad = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    _require(not bad, "failed checks %s" % bad)


def triple_jobs(rng):
    jobs = []
    for _ in range(TRIPLES):
        a, b, c = (rng.choice(TRIPLE_RANGE) for _ in range(3))

        def check1(code, out, a=a, b=b, c=c):
            doc = _json_out(code, out)
            _all_pass(doc)
            got = Fraction(doc["sample"]["resultant"])
            _require(got == resultant_formula(a, b, c), "resultant %s, expected %s" % (got, resultant_formula(a, b, c)))

        def check3(code, out, a=a, c=c):
            doc = _json_out(code, out)
            _all_pass(doc)
            d = 8 * a ** 3 + c ** 3
            _require(Fraction(doc["sample"]["d"]) == d, "d is %s, expected %s" % (doc["sample"]["d"], d))
            _require(Fraction(doc["sample"]["terminal_value"]) == 3 * a * c * c * d, "terminal value differs")

        def check_skl(code, out, a=a, b=b, c=c):
            doc = _json_out(code, out)
            _require(doc["result"] is True, "result is not true")
            rels, cube = skl_expected(a, b, c)
            _require([[Fraction(x) for x in t] for t in doc["relations"]] == rels, "relation tensors differ")
            _require([Fraction(x) for x in doc["tensor"]] == cube, "cubic tensor differs")

        for argv, check in (
            (["obstruct", "--case", "1", "--params=%d,%d,%d" % (a, b, c)], check1),
            (["obstruct", "--case", "3", "--params=%d,%d,%d" % (a, a, c)], check3),
            (["skl3", "--a=%d" % a, "--b=%d" % b, "--c=%d" % c, "--check", "tensors"], check_skl),
        ):
            jobs.append(Job(" ".join(argv), lambda argv=argv: run_cli(argv), _checked(check)))
    return jobs


# ---------------------------------------------------------------------------


def build_jobs(workload, seed, tmpdir):
    """The fixed job list of one pass of the workload, with inputs made from seed."""
    expected = load_expected()
    rng = random.Random("%s:%d" % (workload, seed))
    digests = expected["digests"]
    jobs = [digest_job(argv, digests[" ".join(argv)]) for argv in FIXED_ARGV[workload]]
    if workload == "generic_profile":
        for name, N, method, degrees in LIBRARY_JOBS:
            jobs.append(library_job(name, N, method, degrees, expected["dims"][name]))
    elif workload == "dense_conjugates":
        jobs += conjugate_jobs(rng, tmpdir, expected["references"])
    elif workload == "obstruction":
        jobs += triple_jobs(rng)
    return jobs
