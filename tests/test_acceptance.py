"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (no tolerances: all arithmetic is over exact
fields); the stated wall-clock budgets are asserted as hard bounds.
"""

import json
import time

import pytest

from heckesym.cli import main as cli_main
from heckesym.exactnum import GENERIC_Q, cyclotomic_field, qbinom, qfact
from heckesym.frobenius import (
    analyze,
    reconstruct_from_f,
    trace_table,
    verify_operator_identities,
)
from heckesym.heckealg import antisymmetrizer, basis_element, partial_y, verify_identities
from heckesym.linalg import MatrixF, vec_scale
from heckesym.obstruction import (
    case1_system,
    sylvester_resultant,
    verify_case1,
    verify_case2,
    verify_case3,
    verify_case4,
)
from heckesym.permgroup import Composition, enumerate_perms
from heckesym.regular3 import (
    SklParameters,
    conjugacy_report,
    is_regular,
)
from heckesym.symmetry import check_braid, check_hecke, dj_standard
from test_symmetry import kron_power

F = GENERIC_Q
q = F.q()


def _announce(num, label, t0):
    print("ACCEPTANCE %d (%s): PASS in %.2fs" % (num, label, time.monotonic() - t0))


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_criterion_1_resultant_identity(capsys):
    t0 = time.monotonic()
    F1, F2, F3 = case1_system()
    res = sylvester_resultant(F1, F2, F3)
    ring = F1.domain
    a, b, c = ring.vars()
    target = (a * b * c) ** 2 * ((a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3) ** 2
    assert res == target
    # spot coefficients from the expanded display
    assert res.coefficient((8, 8, 8)).rational() == 495
    assert res.coefficient((14, 5, 5)).rational() == -24
    assert res.coefficient((5, 14, 5)).rational() == -24
    assert res.coefficient((11, 8, 5)).rational() == -102
    assert res.coefficient((20, 2, 2)).rational() == 1
    assert res.coefficient((17, 5, 2)).rational() == 6
    assert res.coefficient((14, 8, 2)).rational() == 15
    assert res.coefficient((11, 11, 2)).rational() == 20
    # and through the command line entry point
    assert cli_main(["resultant", "--case1"]) == 0
    cli_out = capsys.readouterr().out
    if cli_out.strip():  # empty when capture is disabled (-s)
        assert json.loads(cli_out)["status"] == "PASS"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _announce(1, "six-by-six resultant identity", t0)


def test_criterion_2_hessian_group_facts():
    t0 = time.monotonic()
    report, data = conjugacy_report()
    assert report.ok, report.failures()
    assert data["group_order"] == 216
    assert data["translation_order"] == 9
    assert data["center_extension_order"] == 18
    assert data["quotient_order"] == 12
    class_sizes = {(cls["element_order"], cls["size"]) for cls in data["classes"]}
    assert (2, 9) in class_sizes  # all order-2 elements in one class
    assert (4, 54) in class_sizes  # all order-4 elements in one class
    assert (3, 8) in class_sizes  # the nonidentity translations
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _announce(2, "Hessian group facts", t0)


def test_criterion_3_hecke_identity_suite():
    t0 = time.monotonic()
    report = verify_identities(5, F)
    assert report.ok, report.failures()
    # make the headline identities explicit
    for n in range(1, 6):
        y = antisymmetrizer(n, F)
        assert y * y == y.scale(qfact(n, F))
        for p in enumerate_perms(n):
            sign = -1 if p.length() % 2 else 1
            assert basis_element(p, F) * y == y.scale(sign)
        for k in range(1, n):
            comp = Composition((k, n - k))
            sub = partial_y(n, comp, "subgroup", F)
            assert partial_y(n, comp, "left", F) * sub == y
            assert sub * partial_y(n, comp, "right", F) == y
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _announce(3, "antisymmetrizer identity suite, degrees up to 5", t0)


@pytest.mark.parametrize("N", [2, 3])
def test_criterion_4_frobenius_suite(N):
    t0 = time.monotonic()
    sym = dj_standard(N, F)
    assert check_hecke(sym.R, sym.q)[0]
    assert check_braid(sym.R)[0]
    prof = analyze(sym)
    n = prof.n
    assert n == N
    assert prof.dims == [binomial(N, k) for k in range(N + 1)] + [0]
    assert sym.upsilon(N + 1).dim == 0
    for B in prof.betas:
        assert not B.det().is_zero()
    ident = MatrixF.identity(N, F)
    assert prof.theta_bar * prof.theta == ident.scale(q ** (n + 1))
    assert prof.theta * prof.phi == prof.phi * prof.theta
    assert prof.theta * prof.psi == prof.psi * prof.theta
    assert prof.phi * prof.psi == prof.psi * prof.phi
    assert prof.psi == (prof.phi * prof.theta * prof.theta).scale(q ** (-(n + 1)))
    assert tuple(kron_power(prof.theta, n).apply(prof.t)) == vec_scale(
        q ** (n * (n + 1) // 2), prof.t
    )
    traces, table = trace_table(prof)
    assert traces.ok, traces.failures()
    for row in table:
        k = row["k"]
        sign = -1 if (k * n - k) % 2 else 1
        expected = F.scalar(sign) * q ** (k * (k + 1) // 2) * qbinom(n, k, F)
        assert row["match"] and row["expected"] == row["trace_xi"]
        from heckesym.exprio import parse_scalar

        assert parse_scalar(row["trace_xi"], F) == expected
    ops = verify_operator_identities(prof)
    assert ops.ok, ops.failures()
    if N == 2:
        def diag(*entries):
            m = len(entries)
            return MatrixF(
                m, m, [entries[i] if i == j else F.zero() for i in range(m) for j in range(m)], F
            )

        assert prof.theta == diag(q ** 2, q)
        assert prof.psi == diag(-q, -(q ** -1))
        assert prof.phi == ident.scale(-F.one())
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(4, "Frobenius suite for the standard symmetry, N = %d" % N, t0)


def test_criterion_5_root_of_unity_run():
    t0 = time.monotonic()
    C3q = cyclotomic_field(3, q_power=1)
    sym = dj_standard(2, C3q)
    assert check_hecke(sym.R, sym.q)[0] and check_braid(sym.R)[0]
    prof = analyze(sym)
    assert prof.n == 2
    assert prof.dims == [1, 2, 1, 0]
    assert prof.f is not None  # [n-1]!_q = 1 at n = 2
    ops = verify_operator_identities(prof)
    assert ops.ok, ops.failures()
    traces, _ = trace_table(prof)
    assert traces.ok, traces.failures()
    for B in prof.betas:
        assert not B.det().is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _announce(5, "full profile at q a primitive cube root of unity", t0)


def test_criterion_6_reconstruction_roundtrip():
    t0 = time.monotonic()
    sym = dj_standard(3, F)
    prof = analyze(sym)
    P, R = reconstruct_from_f(prof.f, sym.upsilon(2), sym.q)
    assert R == sym.R  # bit-exact
    assert P * P == P
    assert P.image() == sym.upsilon(2)
    _announce(6, "reconstruction roundtrip", t0)


def test_criterion_7_case_checkers():
    t0 = time.monotonic()
    rep1 = verify_case1()
    assert rep1.ok, [c for c in rep1.checks.checks if c.status == "fail"]
    names1 = {c.name for c in rep1.checks.checks}
    assert {"circulant", "pair1-offdiagonal", "equation-extraction", "resultant-identity"} <= names1

    rep2 = verify_case2()
    assert rep2.ok, [c for c in rep2.checks.checks if c.status == "fail"]
    names2 = {c.name for c in rep2.checks.checks}
    assert {"forcing", "braid-residual"} <= names2

    rep3 = verify_case3()
    assert rep3.ok, [c for c in rep3.checks.checks if c.status == "fail"]
    names3 = {c.name for c in rep3.checks.checks}
    assert {"equations-1-to-4", "factorization-1", "factorization-2", "branch-quadric", "terminal"} <= names3

    rep4 = verify_case4()
    assert rep4.ok, [c for c in rep4.checks.checks if c.status == "fail"]
    names4 = {c.name for c in rep4.checks.checks}
    assert {"remainder", "sign-contradiction"} <= names4

    for rep in (rep1, rep2, rep3, rep4):
        assert "contradiction reproduced" in rep.verdict
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(7, "four case contradictions", t0)


def test_criterion_8_negative_tests():
    t0 = time.monotonic()
    sym = dj_standard(2, F)
    entries = list(sym.R.entries)
    entries[3] = F.one()  # perturb one entry
    bad = MatrixF(4, 4, entries, F)
    ok, witness = check_braid(bad)
    assert not ok and "entry" in witness
    assert not is_regular(SklParameters.numeric(1, 1, 1))
    _announce(8, "negative tests", t0)
