import dataclasses
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, GENERIC_Q, cyclotomic_field, qint
from heckesym.frobenius import (
    DegeneratePairing,
    NoTopComponent,
    QFactorialVanishes,
    analyze,
    f_functional,
    pairing,
    profile_json_dict,
    reconstruct_from_f,
    restrict_to_subspace,
    top_component,
    trace_table,
    verify_operator_identities,
)
from heckesym.heckealg import antisymmetrizer, partial_y
from heckesym.linalg import MatrixF, vec_scale
from heckesym.permgroup import Composition
from heckesym.symmetry import HeckeSymmetry, dj_standard, flip, kron_vec
from test_symmetry import kron_power

F = GENERIC_Q
q = F.q()


@pytest.fixture(scope="module")
def prof2():
    return analyze(dj_standard(2))


@pytest.fixture(scope="module")
def prof3():
    return analyze(dj_standard(3))


def diag(field, *entries):
    n = len(entries)
    return MatrixF(
        n, n, [entries[i] if i == j else field.zero() for i in range(n) for j in range(n)], field
    )


def test_top_component(prof2, prof3):
    assert prof2.n == 2
    assert prof2.t == (F.zero(), F.one(), -q, F.zero())
    assert prof3.n == 3
    assert prof2.dims == [1, 2, 1, 0]
    assert prof3.dims == [1, 3, 3, 1, 0]


def test_top_component_dimension_one_case():
    sym1 = dj_standard(1)
    n, t = top_component(sym1)
    assert n == 1 and t == (F.one(),)


def test_no_top_component_within_bound():
    with pytest.raises(NoTopComponent):
        top_component(dj_standard(2), n_max=1)


def test_pairings(prof2):
    assert prof2.betas[0].rows == 1 and prof2.betas[0].entries[0].is_one()
    b1 = prof2.betas[1]
    assert b1.rows == 2 and not b1.det().is_zero()
    # beta_1 on the standard basis: y_2(e_i (x) e_j) read off against t
    assert b1[0, 0].is_zero() and b1[1, 1].is_zero()
    assert b1[0, 1].is_one() and b1[1, 0] == -F.one()


def test_pairing_dims_match(prof3):
    for k in range(prof3.n + 1):
        B = prof3.betas[k]
        assert B.rows == B.cols == prof3.dims[k]
        assert not B.det().is_zero()


def test_operators_dj2(prof2):
    assert prof2.theta == diag(F, q ** 2, q)
    assert prof2.theta_bar == diag(F, q, q ** 2)
    assert prof2.psi == diag(F, -q, -(q ** -1))
    assert prof2.phi == MatrixF.identity(2, F).scale(-F.one())
    assert prof2.theta_bar * prof2.theta == MatrixF.identity(2, F).scale(q ** 3)


def test_operators_dj3(prof3):
    assert prof3.theta == diag(F, q ** 3, q ** 2, q)
    assert prof3.phi == MatrixF.identity(3, F)
    assert prof3.theta_bar * prof3.theta == MatrixF.identity(3, F).scale(q ** 4)


def test_flip_operators():
    p2 = analyze(flip(2))
    f2 = p2.sym.field
    assert p2.psi == MatrixF.identity(2, f2).scale(-f2.one())
    assert p2.phi == MatrixF.identity(2, f2).scale(-f2.one())
    p3 = analyze(flip(3))
    f3 = p3.sym.field
    assert p3.theta == MatrixF.identity(3, f3)
    assert p3.psi == p3.phi == MatrixF.identity(3, f3)


def test_psi_square_commutes(prof2):
    ps2 = prof2.psi.kronecker(prof2.psi)
    assert ps2 * prof2.sym.R == prof2.sym.R * ps2


def test_functional(prof2):
    f = prof2.f
    assert f == (F.zero(), F.one(), -F.one(), F.zero())
    # f(t) = [n]_q
    val = sum((c * x for c, x in zip(f, prof2.t)), F.zero())
    assert val == qint(2)


def test_functional_normalization(prof3):
    # y_n u = [n-1]!_q f(u) t as a matrix identity
    sym = prof3.sym
    Y = sym.rep_matrix(antisymmetrizer(3), 3)
    norm = qint(2) * qint(1)  # [2]!_q
    piv = next(i for i, x in enumerate(prof3.t) if not x.is_zero())
    for a in range(27):
        for b in range(27):
            assert Y[a, b] == norm * prof3.t[a] * prof3.f[b]
    assert prof3.f[piv] * norm == Y[piv, piv]


def test_functional_unavailable_at_minus_one():
    Fneg = FieldSpec("rational", qval=(Fraction(-1),))
    prof = analyze(dj_standard(3, Fneg))
    assert prof.f is None and "[2]!_q" in prof.f_reason
    with pytest.raises(QFactorialVanishes):
        f_functional(prof.sym, prof.n, prof.t)
    ops = verify_operator_identities(prof)
    assert ops.ok
    assert any(c.name == "functional" and c.status == "skip" for c in ops.checks)


def test_trace_table_dj2(prof2):
    report, table = trace_table(prof2)
    assert report.ok
    assert table[0]["trace_xi"] == "-q^2 - q"
    # k = 1 value is (-1)^(n-1) q [n]_q
    xi1 = prof2.psi.inverse() * prof2.theta
    assert xi1.trace() == -q * qint(2)
    # k = n acts on a line with trace q^(n(n+1)/2)
    assert table[-1]["trace_xi"] == "q^3"


def test_trace_table_dj3(prof3):
    report, table = trace_table(prof3)
    assert report.ok
    assert len(table) == 3


def test_operator_identity_suite(prof2, prof3):
    for prof in (prof2, prof3):
        report = verify_operator_identities(prof)
        assert report.ok, [c for c in report.checks if c.status == "fail"]


def test_operator_suite_flags_scalar_braiding():
    p3 = analyze(flip(3))
    report = verify_operator_identities(p3)
    assert report.ok
    gate = [c for c in report.checks if c.name == "scalar-braiding-gate"]
    assert gate and gate[0].status == "pass"


def test_root_of_unity_profile():
    C3q = cyclotomic_field(3, q_power=1)
    prof = analyze(dj_standard(2, C3q))
    assert prof.dims == [1, 2, 1, 0]
    assert prof.f is not None  # [1]!_q = 1 does not vanish
    assert verify_operator_identities(prof).ok
    assert trace_table(prof)[0].ok
    eps = C3q.e()
    assert prof.theta == diag(C3q, eps ** 2, eps)


def _multiparameter_dj2(field, p):
    """dj(2) with e_1 (x) e_2 -> p e_2 (x) e_1 + (q-1) e_1 (x) e_2 and e_2 (x) e_1 -> (q/p) e_1 (x) e_2."""
    q, zero = field.q(), field.zero()
    entries = [
        [q, zero, zero, zero],
        [zero, q - 1, q * p.inverse(), zero],
        [zero, p, zero, zero],
        [zero, zero, zero, q],
    ]
    return HeckeSymmetry(2, q, MatrixF.from_rows(entries, field))


def test_operator_suite_with_a_non_symmetric_phi():
    # a second parameter makes phi non-scalar, and a non-symmetric tau makes
    # it non-symmetric, so a transposed pairing twist or twisted cyclicity fails
    field = FieldSpec("rational", qval=(Fraction(2),))
    tau = MatrixF.from_rows([[field.scalar(2), field.one()], [field.one(), field.one()]], field)
    prof = analyze(_multiparameter_dj2(field, field.scalar(3)).conjugate(tau))
    assert prof.phi != prof.phi.transpose()
    report = verify_operator_identities(prof)
    assert report.ok, [c for c in report.checks if c.status == "fail"]
    assert trace_table(prof)[0].ok


def test_opposite_swaps_operators(prof3):
    prof_op = analyze(prof3.sym.opposite())
    assert prof_op.theta == prof3.theta_bar
    assert prof_op.psi == prof3.psi.inverse()
    assert prof_op.phi == prof3.phi.inverse()


def test_nakayama_restriction_consistency(prof3):
    # nu in degree k is phi^(x)k restricted to upsilon(k); beta-twist identity
    for k in range(prof3.n + 1):
        nu = prof3.nu_restricted(k)
        bk, bnk = prof3.betas[k], prof3.betas[prof3.n - k]
        d = bk.rows
        for i in range(d):
            for j in range(bnk.rows):
                rhs = sum((nu[s, i] * bk[s, j] for s in range(d)), F.zero())
                assert bnk[j, i] == rhs


def test_top_tensor_two_sided_decomposition(prof2, prof3):
    # t decomposes with invertible coefficient matrix on both kron bases
    for prof in (prof2, prof3):
        sym = prof.sym
        n = prof.n
        for k in range(1, n):
            left = sym.upsilon(n - k).basis
            right = sym.upsilon(k).basis
            cols = [kron_vec(w, u, sym.field) for w in left for u in right]
            A = MatrixF.from_rows(cols, sym.field).transpose()
            coords = A.solve(prof.t)
            assert coords is not None
            D = MatrixF(len(left), len(right), coords, sym.field)
            assert not D.det().is_zero()


def test_braiding_closed_forms(prof2, prof3):
    # theta^(x)k and its inverse twin from the pairings and psi, k <= 2
    for prof in (prof2, prof3):
        sym = prof.sym
        n = prof.n
        field = sym.field
        for k in (1, 2):
            if k > n:
                continue
            u_basis = sym.upsilon(k).basis
            w_basis = sym.upsilon(n - k).basis
            cols = [kron_vec(u, w, field) for u in u_basis for w in w_basis]
            A = MatrixF.from_rows(cols, field).transpose()
            coords = A.solve(prof.t)
            assert coords is not None
            D = MatrixF(len(u_basis), len(w_basis), coords, field)
            tilde_w = [
                tuple(
                    sum((D[i, j] * w_basis[j][m] for j in range(len(w_basis))), field.zero())
                    for m in range(len(w_basis[0]))
                )
                for i in range(len(u_basis))
            ]
            # t = sum u_i (x) w~_i and the psi-twisted mirror
            recon = [field.zero()] * len(prof.t)
            for u, w in zip(u_basis, tilde_w):
                for idx, val in enumerate(kron_vec(u, w, field)):
                    recon[idx] = recon[idx] + val
            assert tuple(recon) == prof.t
            psi_k = kron_power(prof.psi, k)
            recon2 = [field.zero()] * len(prof.t)
            for u, w in zip(u_basis, tilde_w):
                for idx, val in enumerate(kron_vec(w, psi_k.apply(u), field)):
                    recon2[idx] = recon2[idx] + val
            assert tuple(recon2) == prof.t
            # closed form for theta^(x)k on the basis of upsilon(k)
            y = partial_y(n, Composition((k, n - k)), "left", field) if 0 < k < n else None
            piv = next(i for i, x in enumerate(prof.t) if not x.is_zero())
            sign = -1 if (k * n - k) % 2 else 1
            coeff = field.scalar(sign) * sym.q ** (k * (k + 1) // 2)
            theta_k = kron_power(prof.theta, k)
            for u in u_basis:
                acc = [field.zero()] * len(u)
                for i, w in enumerate(tilde_w):
                    if y is None:
                        prod = kron_vec(u, w, field)
                    else:
                        prod = sym.apply_hecke(y, n, kron_vec(u, w, field))
                    beta = prod[piv]
                    assert tuple(prod) == vec_scale(beta, prof.t)
                    target = psi_k.apply(u_basis[i])
                    for m, val in enumerate(target):
                        acc[m] = acc[m] + beta * val
                assert theta_k.apply(u) == vec_scale(coeff, tuple(acc))


def test_reconstruction_roundtrip(prof3):
    sym = prof3.sym
    P, R = reconstruct_from_f(prof3.f, sym.upsilon(2), sym.q)
    assert R == sym.R
    assert P * P == P
    assert P.image() == sym.upsilon(2)
    assert P.kernel() == sym.ideal_component(2)


def test_reconstruction_from_a_generic_functional():
    # a seeded functional whose Gram matrix is not symmetric, so that the
    # rows and columns of the dual basis cannot be confused
    import random

    from heckesym.linalg import Subspace
    from heckesym.regular3 import SklParameters, skl_relations

    field = FieldSpec("rational", qval=(Fraction(2),))
    rng = random.Random(7)
    f = tuple(field.scalar(rng.randint(-3, 3)) for _ in range(27))
    rels = Subspace.from_vectors(skl_relations(SklParameters.numeric(1, 2, 3, field)), 9, field)
    P, R = reconstruct_from_f(f, rels, field.q())
    assert P * P == P
    assert P.image() == rels
    # f(v (x) P(w)) = f(v (x) w) for every v in V and w in V (x) V
    for v in range(3):
        for w in range(9):
            image = P.col(w)
            assert sum((image[r] * f[v * 9 + r] for r in range(9)), field.zero()) == f[v * 9 + w]


def test_reconstruction_rejects_q_minus_one():
    Fneg = FieldSpec("rational", qval=(Fraction(-1),))
    sym = dj_standard(2, Fneg)
    n, t = top_component(sym)
    f = f_functional(sym, n, t)
    with pytest.raises(ValueError):
        reconstruct_from_f(f, sym.upsilon(2), sym.q)


def test_profile_json(prof2):
    report = verify_operator_identities(prof2)
    doc = profile_json_dict(prof2, report)
    for key in ("n", "t", "dims", "theta", "theta_bar", "phi", "psi", "checks", "lambda_dims"):
        assert key in doc
    assert doc["n"] == 2
    assert doc["theta"] == [["q^2", "0"], ["0", "q"]]
    assert doc["psi"] == [["-q", "0"], ["0", "(-1)/q"]]
    assert all(set(c) >= {"name", "status"} for c in doc["checks"])


def test_pairing_rejects_wrong_top_tensor(prof2):
    sym = prof2.sym
    bogus_t = (F.one(), F.zero(), F.zero(), F.zero())  # not the top tensor
    with pytest.raises(DegeneratePairing):
        pairing(sym, 1, 2, bogus_t)
    # y_2 is not rank one onto the line of bogus_t
    with pytest.raises(DegeneratePairing):
        f_functional(sym, 2, bogus_t)


def test_restriction_helper(prof2):
    U = prof2.sym.upsilon(2)
    A = kron_power(prof2.theta, 2)
    C = restrict_to_subspace(A, U, 1)
    assert C.rows == 1 and C[0, 0] == q ** 3
    assert restrict_to_subspace(prof2.theta, U, 2) == C
    bad = MatrixF.from_rows([[F.one(), F.one()], [F.zero(), F.one()]], F)
    with pytest.raises(ValueError):
        restrict_to_subspace(kron_power(bad, 2), U, 1)
    with pytest.raises(ValueError):
        restrict_to_subspace(bad, U, 2)


def _bump(M, i, j):
    """M with one added to entry (i, j)."""
    entries = list(M.entries)
    entries[i * M.cols + j] = entries[i * M.cols + j] + M.domain.one()
    return MatrixF(M.rows, M.cols, entries, M.domain)


# checks whose failure detail is the first nonzero entry of lhs - rhs
ENTRY_WITNESS_CHECKS = (
    "commute.",
    "twist-relation",
    "theta-bar-inverse",
    "square-commutes.",
    "top-scaling",
    "nakayama-braiding.k",
    "pairing-twist.",
    "braid-top.",
    "mirror-top.",
    "functional.top-value",
    "functional.twisted-cyclicity",
    "functional.braiding-formula",
    "functional.kernel",
)


def test_failing_identities_name_an_entry(prof2):
    f = list(prof2.f)
    f[1] = f[1] + F.one()
    t = list(prof2.t)
    t[0] = t[0] + F.one()
    failed = set()
    changes = (
        {"theta": _bump(prof2.theta, 0, 0)},
        {"phi": _bump(prof2.phi, 0, 1)},
        {"f": tuple(f)},
        {"t": tuple(t)},
    )
    for change in changes:
        report = verify_operator_identities(dataclasses.replace(prof2, **change))
        for c in report.checks:
            if c.status == "fail" and c.rule == "subspace stability":
                assert c.detail == "subspace is not stable under the operator"
            elif c.status == "fail" and c.name.startswith(ENTRY_WITNESS_CHECKS):
                assert c.detail.startswith("entry ("), (c.name, c.detail)
                failed.add(c.name)
    assert {"commute.theta-phi", "commute.phi-psi", "twist-relation", "theta-bar-inverse", "square-commutes.phi",
            "top-scaling", "nakayama-braiding.k1", "pairing-twist.k1", "braid-top.k1", "mirror-top.k1",
            "functional.top-value", "functional.twisted-cyclicity", "functional.braiding-formula",
            "functional.kernel"} <= failed
    # passing reports keep an empty detail
    assert all(c.detail == "" for c in verify_operator_identities(prof2).checks if c.status == "pass")
