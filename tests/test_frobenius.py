import dataclasses
import random
import re
import tracemalloc
import types
from fractions import Fraction

import pytest

from heckesym import exactnum, frobenius, symmetry
from heckesym.exactnum import FieldSpec, GENERIC_Q, Scalar, cyclotomic_field, qfact, qint
from heckesym.frobenius import (
    DegeneratePairing,
    NoTopComponent,
    QFactorialVanishes,
    analyze,
    f_functional,
    front_pairing,
    pairing,
    profile_json_dict,
    projection_from_dual,
    psi_op,
    reconstruct_from_f,
    restrict_to_subspace,
    theta_pair,
    top_component,
    trace_table,
    verify_operator_identities,
)
from heckesym.exprio import format_scalar
from heckesym.heckealg import antisymmetrizer, coset_y, partial_y, shift_element
from heckesym import linalg
from heckesym.linalg import MatrixF, Placed, _stack, first_minor, vec_combination, vec_is_zero, vec_pivot, vec_scale
from heckesym.multipoly import PolyRing
from heckesym.obstruction import _cyclic_functional
from heckesym.permgroup import Composition, cycle, longest_rho
from heckesym.regular3 import SklParameters, skl_relations
from heckesym.symmetry import HeckeSymmetry, _vanishes, apply_power, dj_standard, flip, kron_vec
from test_linalg import _solve_column_reference
from test_symmetry import _conjugate, _count_table_builds, _domains, _perm_matrix_reference, _rational_q, kron_power, kronecker, perm_matrix_sum

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


def test_pairing_refuses_a_singular_beta(prof2, monkeypatch):
    sym, n, t = prof2.sym, prof2.n, prof2.t
    # nonsingularity is a rank question: the suite takes no determinant
    monkeypatch.setattr(MatrixF, "det", lambda self: pytest.fail("determinant taken"))
    verify_operator_identities(analyze(sym))
    # a row of rep(y_(2/1,1)) all zero, then all one: both betas are singular
    for value in (F.zero(), F.one()):
        monkeypatch.setattr(frobenius, "_row", lambda sym, factors, n, k: (value,) * sym.N ** n)
        with pytest.raises(DegeneratePairing, match="^beta_1 is singular$"):
            pairing(sym, 1, n, t)


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
    ps2 = kronecker(prof2.psi, prof2.psi)
    assert ps2 * prof2.sym.R == prof2.sym.R * ps2


SQUARE_CASES = {
    "dj2": lambda: dj_standard(2),
    "dj3": lambda: dj_standard(3),
    "dj2-conj-generic": lambda: _conjugate(2, GENERIC_Q, 11),
    "dj3-conj-q=2": lambda: _conjugate(3, _rational_q(2), 13),
    "dj3-conj-cyc3": lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14),
}


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
def test_square_commutes_sides_match_kronecker_products(case, monkeypatch):
    # the suite compares the packed sides of _square_sides, which unpack to the dense products; lanes are columns
    prof = analyze(SQUARE_CASES[case]())
    R, field = prof.sym.R, prof.field
    sides, real = {}, frobenius._square_sides
    monkeypatch.setattr(frobenius, "_square_sides", lambda sym, op: sides.setdefault(id(op), real(sym, op)))
    # a passing suite builds no N^2 x N^2 matrix: the sides are unpacked only for a failure's witness
    shapes, init = [], MatrixF.__init__
    with monkeypatch.context() as patch:
        patch.setattr(MatrixF, "__init__", lambda self, rows, cols, *rest: shapes.append((rows, cols)) or init(self, rows, cols, *rest))
        assert verify_operator_identities(prof).ok
    assert shapes and (R.rows, R.cols) not in shapes, case
    rng = random.Random("square:" + case)
    dense = MatrixF(prof.sym.N, prof.sym.N, [field.scalar(rng.choice((0, 1, -1, 2, 3))) for _ in range(prof.sym.N ** 2)], field)
    for name, op in (("theta", prof.theta), ("phi", prof.phi), ("psi", prof.psi), ("dense", dense)):
        square = kronecker(op, op)
        lhs, rhs = sides[id(op)] if name != "dense" else real(prof.sym, op)
        assert (lhs.m, rhs.m) == (R.cols, R.cols) and rhs.bits >= lhs.bits, (case, name)
        assert [MatrixF(R.rows, R.cols, side.values(), field) for side in (lhs, rhs)] == [square * R, R * square], (case, name)
        assert (lhs == rhs) == (square * R == R * square), (case, name)


def test_record_equal_compares_rows_and_checks_their_shape():
    Q = FieldSpec("rational")
    rows = [(Q.scalar(1), Q.scalar(2)), (Q.scalar(3), Q.scalar(4))]
    report = frobenius.CheckReport("rows")
    frobenius._record_equal(report, "same", "rule", iter(rows), iter(rows), "ok")
    frobenius._record_equal(report, "differ", "rule", iter(rows), iter([rows[0], (Q.scalar(3), Q.scalar(9))]))
    assert [(c.name, c.status, c.detail) for c in report.checks] == [("same", "pass", "ok"), ("differ", "fail", "entry (1,1) = -5")]
    # a shape mismatch raises on both paths instead of recording a pass or a bare StopIteration
    for lhs, rhs in (
        (rows, rows[:1]),
        (rows, [rows[0], rows[1][:1]]),
        (rows, [rows[0], rows[1] + (Q.zero(),)]),
        (MatrixF.from_rows(rows, Q), MatrixF.from_rows(rows[:1], Q)),
    ):
        with pytest.raises(ValueError):
            frobenius._record_equal(report, "shape", "rule", lhs, rhs)


@pytest.mark.parametrize("case", ["dj2", "dj2-conj-generic"])
def test_square_commutes_and_mirror_witnesses_match_dense_differences(case):
    prof = analyze(SQUARE_CASES[case]())
    sym, n, field = prof.sym, prof.n, prof.field
    R = sym.R
    for name in ("theta", "phi"):
        bumped = dataclasses.replace(prof, **{name: _bump(getattr(prof, name), 0, 1)})
        square = kronecker(getattr(bumped, name), getattr(bumped, name))
        check = next(c for c in verify_operator_identities(bumped).checks if c.name == "square-commutes.%s" % name)
        assert check.status == "fail" and check.detail == _vanishes(square * R - R * square)[1], (case, name)
    # a moved top tensor fails the mirror: the detail is the first nonzero entry of the dense lhs - rhs
    t = list(prof.t)
    t[0] = t[0] + field.one()
    report = verify_operator_identities(dataclasses.replace(prof, t=tuple(t)))
    for k in range(1, min(2, n) + 1):
        y_shift = shift_element(coset_y(n, n - k, k, field), k)
        sign = -1 if (k * n - k) % 2 else 1
        coeff = field.scalar(sign) * sym.q ** (-(k * (k + 1) // 2))
        Y = perm_matrix_sum(sym, y_shift, k + n)
        P = _perm_matrix_reference(sym, longest_rho(k, n).inverse(), k + n)
        tensors = [kron_vec(t, v, field) for v in sym.upsilon(k).basis]
        lhs = MatrixF.from_rows([Y.apply(u) for u in tensors], field)
        rhs = MatrixF.from_rows([P.apply(u) for u in tensors], field).scale(coeff)
        check = next(c for c in report.checks if c.name == "mirror-top.k%d" % k)
        assert check.status == "fail" and check.detail == _vanishes(lhs - rhs)[1], (case, k)


def test_functional(prof2):
    f = prof2.f
    assert f == (F.zero(), F.one(), -F.one(), F.zero())
    # f(t) = [n]_q
    val = sum((c * x for c, x in zip(f, prof2.t)), F.zero())
    assert val == qint(2)


def test_functional_normalization(prof3):
    # y_n u = [n-1]!_q f(u) t as a matrix identity
    sym = prof3.sym
    Y = perm_matrix_sum(sym, antisymmetrizer(3), 3)
    norm = qint(2) * qint(1)  # [2]!_q
    piv = next(i for i, x in enumerate(prof3.t) if not x.is_zero())
    for a in range(27):
        for b in range(27):
            assert Y[a, b] == norm * prof3.t[a] * prof3.f[b]
    assert prof3.f[piv] * norm == Y[piv, piv]


def test_rep_of_y_n_is_built_once_per_analyze(monkeypatch):
    calls = []
    rep_matrix = HeckeSymmetry.rep_matrix

    def counted(self, h, n):
        calls.append(n)
        return rep_matrix(self, h, n)

    monkeypatch.setattr(HeckeSymmetry, "rep_matrix", counted)
    prof = analyze(dj_standard(3))
    ops = verify_operator_identities(prof)
    trace_table(prof)
    # f and functional.kernel each read a row of rep(y_n) off one action under R^t
    assert calls == []
    kernel = next(c for c in ops.checks if c.name == "functional.kernel")
    assert kernel.status == "pass" and kernel.rule == "ker f = ker rep(y_n)"


@pytest.mark.parametrize("case", ["dj2-conj-generic", "dj3-conj-q=2", "dj3-conj-cyc3"])
def test_no_operator_is_packed_twice(case, monkeypatch):
    # each operator is packed once however many actions and degrees use it, so the count does not grow with
    # the top degree (2 for dj(2), 3 for dj(3)): the conjugation packs dj(N)'s R and tau; the profile
    # packs R, R^t, theta, theta_bar (theta_pair's check), phi, psi, the transposes of theta, phi and psi, and
    # the products restricted to each upsilon(k):
    # psi^-1 theta in trace_table and psi theta_bar, formed once for trace_table and nakayama-braiding; theta phi,
    # the other side of nakayama-braiding, equals psi theta_bar on these inputs, so its restrictions are
    # psi theta_bar's (FrobeniusProfile.restricted) and it is never packed
    built = _count_table_builds(monkeypatch)
    prof = analyze(SQUARE_CASES[case]())
    assert prof.theta * prof.phi == prof.psi_theta_bar
    assert verify_operator_identities(prof).ok and trace_table(prof)[0].ok
    assert len(set(map(id, built))) == len(built) == 2 + 8


@pytest.mark.parametrize("case", sorted(c for c in SQUARE_CASES if "conj" in c))
def test_braid_top_compares_ints(case, monkeypatch):
    # both sides of theta_pair's two checks, of square-commutes' three and of braid-top are packed at one digit
    # width over one denominator, so Packed.__eq__ compares their ints and decodes no digit
    calls, real = [], exactnum.Packed.__eq__

    def checked(a, b):
        calls.append(a.bits)
        assert a.bits == b.bits and a.den == b.den
        with monkeypatch.context() as patch:
            patch.setattr(exactnum, "_digit_reader", lambda *args: pytest.fail("a comparison decoded digits"))
            return real(a, b)

    sym = SQUARE_CASES[case]()
    monkeypatch.setattr(exactnum.Packed, "__eq__", checked)
    prof = analyze(sym)
    assert len(calls) == 2
    report = verify_operator_identities(prof)
    assert report.ok and len(calls) == 2 + 3 + min(2, prof.n)


def _multiparameter_conjugate():
    field = _rational_q(2)
    tau = MatrixF.from_rows([[field.scalar(2), field.one()], [field.one(), field.one()]], field)
    return _multiparameter_dj2(field, field.scalar(3)).conjugate(tau)


def _bilinear_at_minus_one():
    """R = s^2 Id - s E for the bilinear form B = [[1, -1, 0], [2, 1, 0], [0, 0, 1]], E = vec(B^-1) vec(B)^t, at
    s = zeta_4: q = s^2 = -1, E^2 = tr(B^t B^-1) E = 0 = (s + 1/s) E, and R is not semisimple."""
    field = cyclotomic_field(4, q_power=2)
    s = field.e()
    B = MatrixF.from_rows([[field.scalar(x) for x in row] for row in ((1, -1, 0), (2, 1, 0), (0, 0, 1))], field)
    E = MatrixF(9, 1, B.inverse().entries, field) * MatrixF(1, 9, B.entries, field)
    return HeckeSymmetry(3, field.q(), MatrixF.identity(9, field).scale(field.q()) - E.scale(s))


# the dense rep(y_n) oracle; R is not symmetric on the conjugates, so acting
# through R instead of R^t changes f there
F_ORACLE_CASES = {
    "dj%d-%s" % (N, name): (lambda N=N, field=field: dj_standard(N, field))
    for N in (2, 3)
    for name, field in (
        ("generic", GENERIC_Q),
        ("q=2", _rational_q(2)),
        ("cyc3", cyclotomic_field(3, q_power=1)),
        ("cyc4", cyclotomic_field(4, q_power=1)),
    )
}
F_ORACLE_CASES.update(
    {
        "flip2": lambda: flip(2),
        "flip3": lambda: flip(3),
        "dj2-q=-1": lambda: dj_standard(2, _rational_q(-1)),
        "dj3-q=-1": lambda: dj_standard(3, _rational_q(-1)),
        "dj3-conj-q=-1": lambda: _conjugate(3, _rational_q(-1), 15),
        "bilinear-q=-1": _bilinear_at_minus_one,
        "dj2-conj-generic": lambda: _conjugate(2, GENERIC_Q, 11),
        "dj2-conj-cyc3": lambda: _conjugate(2, cyclotomic_field(3, q_power=1), 12),
        "dj3-conj-q=2": lambda: _conjugate(3, _rational_q(2), 13),
        "dj3-conj-cyc3": lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14),
        "multiparameter-dj2-conj": _multiparameter_conjugate,
    }
)


@pytest.mark.parametrize("case", sorted(F_ORACLE_CASES))
def test_functional_matches_dense_rep_of_y_n(case):
    sym = F_ORACLE_CASES[case]()
    field = sym.field
    n, t = top_component(sym)
    Y = perm_matrix_sum(sym, antisymmetrizer(n, field), n)
    piv = next(i for i, x in enumerate(t) if not x.is_zero())
    for k in {0, piv, len(t) - 1} | {j for j, x in enumerate(t) if not x.is_zero()}:
        assert frobenius._y_row(sym, n, k) == Y.row(k), (case, k)
    norm = qfact(n - 1, field)
    if norm.is_zero():
        with pytest.raises(QFactorialVanishes):
            f_functional(sym, n, t)
        return
    f = f_functional(sym, n, t)
    assert f == vec_scale(norm.inverse(), Y.row(piv))
    assert Y == MatrixF(len(t), 1, t, field) * MatrixF(1, len(f), f, field).scale(norm)
    # a rescaled top tensor rescales f inversely
    two = field.scalar(2)
    assert f_functional(sym, n, vec_scale(two, t)) == vec_scale(two.inverse(), f)


# ---------------------------------------------------------------------------
# the per-vector loops the family actions replaced, kept as oracles


def _theta_pair_reference(sym, n, t):
    """theta and theta_bar column by column, two actions per basis vector of V."""
    N, field = sym.N, sym.field
    piv = vec_pivot(t)
    fwd_word = cycle(n + 1, 1, n + 1).reduced_word()
    bwd_word = cycle(1, n + 1, n + 1).reduced_word()
    theta_cols, bar_cols = [], []
    for e in MatrixF.identity(N, field).row_list():
        img = sym.apply_perm_word(fwd_word, n + 1, kron_vec(e, t, field))
        col = tuple(img[piv * N + b] for b in range(N))
        assert img == kron_vec(t, col, field)
        theta_cols.append(col)
        img = sym.apply_perm_word(bwd_word, n + 1, kron_vec(t, e, field))
        colb = tuple(img[a * N ** n + piv] for a in range(N))
        assert img == kron_vec(colb, t, field)
        bar_cols.append(colb)
    return MatrixF.from_rows(theta_cols, field).transpose(), MatrixF.from_rows(bar_cols, field).transpose()


def _scalar_multiple_of_t(v, t, pivot):
    """The scalar c with v = c t, t nonzero at pivot; raises if v is not a multiple of t."""
    if first_minor(v, t) is not None:
        raise DegeneratePairing("vector is not a multiple of the top tensor")
    return v[pivot] / t[pivot]


@pytest.mark.parametrize("field", [GENERIC_Q, cyclotomic_field(3)], ids=["ratfunc_q", "cyclotomic-3"])
def test_scalar_multiple_of_t_compares_the_nonzero_coordinates(field):
    zero, one = field.zero(), field.one()
    c = field.scalar(3) if field.kind != "ratfunc_q" else field.q() + 1
    t = (zero, one, field.scalar(-2), zero)
    v = vec_scale(c, t)
    assert _scalar_multiple_of_t(v, t, 1) == c
    # v differs from c t only where t is zero, or only where v is zero
    for w in (v[:3] + (one,), v[:2] + (zero,) + v[3:]):
        with pytest.raises(DegeneratePairing):
            _scalar_multiple_of_t(w, t, 1)


def _pairing_reference(sym, k, n, t):
    """beta_k entry by entry, one action per pair of basis vectors, each image checked to lie on the line of t."""
    y, piv = coset_y(n, k, n - k, sym.field), vec_pivot(t)
    rows = []
    for u in sym.upsilon(k).basis:
        row = []
        for w in sym.upsilon(n - k).basis:
            prod = kron_vec(u, w, sym.field)
            row.append(_scalar_multiple_of_t(sym.apply_hecke(y, n, prod) if k not in (0, n) else prod, t, piv))
        rows.append(row)
    return MatrixF.from_rows(rows, sym.field)


def _psi_reference(sym, n, t):
    """psi row by row, one solve per back slice against the front slices of t."""
    N, field, block = sym.N, sym.field, sym.N ** (n - 1)
    S = MatrixF(N, block, t, field).transpose()
    assert S.rank() == N
    return MatrixF.from_rows([_solve_column_reference(S, tuple(t[w * N + j] for w in range(block))) for j in range(N)], field)


def _restrict_reference(A, U, k):
    """A^(x)k on U's basis, one action and one coordinate read per basis vector."""
    cols = []
    for row in U.basis:
        coords = U.coordinates(apply_power(A, k, row))
        if coords is None:
            raise ValueError("subspace is not stable under the operator")
        cols.append(coords)
    return MatrixF.from_rows(cols, A.domain).transpose() if cols else MatrixF(0, 0, (), A.domain)


@pytest.mark.parametrize("case", sorted(F_ORACLE_CASES))
def test_family_actions_match_one_action_per_vector(case):
    sym = F_ORACLE_CASES[case]()
    n, t = top_component(sym)
    assert theta_pair(sym, n, t) == _theta_pair_reference(sym, n, t)
    assert psi_op(sym, n, t) == _psi_reference(sym, n, t)
    for k in range(n + 1):
        assert pairing(sym, k, n, t) == _pairing_reference(sym, k, n, t), k
    prof = analyze(sym)
    unstable = 0
    for A in (prof.theta, prof.phi, prof.psi * prof.theta_bar, _bump(prof.theta, 0, sym.N - 1)):
        for k in range(n + 2):
            U = sym.upsilon(k)
            try:
                want = _restrict_reference(A, U, k)
            except ValueError:
                unstable += 1
                with pytest.raises(ValueError, match="^subspace is not stable under the operator$"):
                    restrict_to_subspace(A, k, U.basis, U.pivots())
                continue
            assert restrict_to_subspace(A, k, U.basis, U.pivots()) == want, k
    # every power of an operator keeps the upsilon spaces of the flip
    assert unstable or case.startswith("flip")


def test_family_actions_make_one_action_each(monkeypatch):
    sym = dj_standard(3, cyclotomic_field(3, q_power=1))
    prof = analyze(sym)
    n, t = prof.n, prof.t
    acts, rrefs, words = [], [], []
    real_act, real_rref = symmetry._packed_act, MatrixF.rref
    for module in (symmetry, frobenius):
        monkeypatch.setattr(module, "_packed_act", lambda *args: acts.append(len(args[3])) or real_act(*args))
    monkeypatch.setattr(MatrixF, "rref", lambda self: rrefs.append(self.rows) or real_rref(self))
    monkeypatch.setattr(HeckeSymmetry, "apply_perm_word", lambda *args: words.append(args) or pytest.fail("one action per vector"))

    def count(calls, fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    # theta and theta_bar: one braiding and one action of the operator read off it each
    assert count(acts, theta_pair, sym, n, t) == 4
    for k in range(n + 1):
        assert count(acts, pairing, sym, k, n, t) <= 1
    for k in range(1, n + 1):
        assert count(acts, restrict_to_subspace, prof.theta, k, sym.upsilon(k).basis, sym.upsilon(k).pivots()) == 1
    assert count(rrefs, psi_op, sym, n, t) == 1
    # one action per family: 6 for square-commutes, 1 for top-scaling, 1 per degree of the
    # Nakayama braiding (k = 1..3: theta phi = psi theta_bar here, so both sides are one restriction), 1 per
    # pairing twist (k = 0..3), 2 per braid-top.k and 1 per mirror-top.k (k = 1, 2), and 1 per factor
    # y_(3/2,1), y_(2/1,1) of y_3 for the row of rep(y_n) that functional.kernel reads
    assert prof.theta * prof.phi == prof.psi_theta_bar
    assert count(acts, verify_operator_identities, prof) == 6 + 1 + 1 * 3 + 4 + 3 * 2 + 2
    assert words == []


# dj(4) at q = zeta_3 needs upsilon(5) past the cap; there [1]!_q [3]!_q = 0 while q != -1, so only the coset argument
# of `pairing` puts the images y_(4/k,4-k)(u (x) w) on the line of t, and the reference checks each one
PAST_CAP_PAIRING_CASES = {
    "dj4-cyc3": lambda: dj_standard(4, cyclotomic_field(3, q_power=1)),
    "dj4-conj-cyc3": lambda: _conjugate(4, cyclotomic_field(3, q_power=1), 17),
}


@pytest.mark.parametrize("case", sorted(PAST_CAP_PAIRING_CASES))
def test_pairings_match_one_action_per_pair_past_the_cap(case, monkeypatch):
    monkeypatch.setattr(symmetry, "TENSOR_DIM_CAP", 4 ** 5)
    sym = PAST_CAP_PAIRING_CASES[case]()
    n, t = top_component(sym)
    assert n == 4 and (qfact(1, sym.field) * qfact(3, sym.field)).is_zero() and not (sym.q + 1).is_zero()
    for k in range(n + 1):
        assert pairing(sym, k, n, t) == _pairing_reference(sym, k, n, t), k
    assert theta_pair(sym, n, t) == _theta_pair_reference(sym, n, t)


def _recorded_actions(monkeypatch):
    """(words, vector length, m) of every HeckeSymmetry._packed call, R's and R^t's."""
    calls, real = [], HeckeSymmetry._packed
    monkeypatch.setattr(HeckeSymmetry, "_packed", lambda self, terms, n, vec, m=1: calls.append((len(terms), len(vec), m)) or real(self, terms, n, vec, m))
    return calls


@pytest.mark.parametrize("case", ["dj3-cyc3", "dj3-conj-q=2", "multiparameter-dj2-conj"])
def test_pairings_and_rows_act_on_one_vector_away_from_minus_one(case, monkeypatch):
    sym = F_ORACLE_CASES[case]()
    n, t = top_component(sym)
    calls = _recorded_actions(monkeypatch)
    for k in range(n + 1):
        pairing(sym, k, n, t)
    frobenius._y_row(sym, n, vec_pivot(t))
    # one action per pairing and one per factor y_(j/j-1,1) of y_n
    assert len(calls) == 2 * n and all(size == sym.N ** n and m == 1 for _words, size, m in calls)
    # y_n = y_(n/n-1,1) ... y_(2/1,1) has n(n+1)/2 - 1 words, where antisymmetrizer(n) has n!
    for degree in range(2, 6):
        calls.clear()
        frobenius._y_row(sym, degree, 0)
        assert sum(words for words, _size, _m in calls) == degree * (degree + 1) // 2 - 1, degree


@pytest.mark.parametrize("case", ["dj3-q=-1", "dj3-conj-q=-1", "bilinear-q=-1"])
def test_pairings_at_minus_one_check_one_stacked_family(case, monkeypatch):
    sym = F_ORACLE_CASES[case]()
    n, t = top_component(sym)
    calls = _recorded_actions(monkeypatch)
    for k in range(n + 1):
        calls.clear()
        pairing(sym, k, n, t)
        stacked = [m for _words, _size, m in calls if m > 1]
        assert stacked == ([sym.upsilon(k).dim * sym.upsilon(n - k).dim] if 0 < k < n else []), k
    # a stacked image off the line of t is refused with one line
    real = HeckeSymmetry._packed

    def moved(self, terms, n, vec, m=1):
        out = real(self, terms, n, vec, m)
        return out if m == 1 else types.SimpleNamespace(values=lambda: _raised(out.values(), 0, sym.field))

    monkeypatch.setattr(HeckeSymmetry, "_packed", moved)
    with pytest.raises(DegeneratePairing, match="^beta_1 does not pair into the line of t$"):
        pairing(sym, 1, n, t)


def _mirror_terms(sym, k, n):
    """The terms of mirror-top.k: y_(n/n-k,k) shifted by k, less (-1)^(kn-k) q^(-k(k+1)/2) T_(rho^-1)."""
    field = sym.field
    coeff = field.scalar(-1 if (k * n - k) % 2 else 1) * sym.q ** (-(k * (k + 1) // 2))
    return sym._hecke_terms(shift_element(coset_y(n, n - k, k, field), k), k + n) + [(longest_rho(k, n).inverse().reduced_word(), -coeff)]


PLACED_CASES = {
    "dj2": lambda: dj_standard(2),
    "dj3": lambda: dj_standard(3),
    "dj4": lambda: dj_standard(4),
    "dj2-conj-cyc3": lambda: _conjugate(2, cyclotomic_field(3, q_power=1), 12),
    "dj3-conj-q=2": lambda: _conjugate(3, _rational_q(2), 13),
    "dj3-conj-cyc3": lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14),
    "dj3-q=-1": lambda: dj_standard(3, _rational_q(-1)),
    "bilinear-q=-1": _bilinear_at_minus_one,
}


@pytest.mark.parametrize("case", sorted(PLACED_CASES))
def test_placed_families_match_their_kronecker_families(case, monkeypatch):
    # mirror-top's t (x) the basis of upsilon(k), and the pairing's family of all u (x) w, against the Scalar families
    # that linalg.Placed replaced: the same values, and == agrees with them
    monkeypatch.setattr(symmetry, "TENSOR_DIM_CAP", 4 ** 5)
    sym = PLACED_CASES[case]()
    n, t = top_component(sym)
    field, zero = sym.field, sym.field.zero()
    families = []
    for k in range(1, min(2, n) + 1):
        basis = sym.upsilon(k).basis
        families.append((k + n, _mirror_terms(sym, k, n), [t], basis, kron_vec(t, _stack(basis, len(basis), zero), field)))
    for k in range(1, n):
        left, right = sym.upsilon(k).basis, sym.upsilon(n - k).basis
        families.append((n, sym._hecke_terms(coset_y(n, k, n - k, field), n), left, right, _stack([kron_vec(u, w, field) for u in left for w in right], len(left) * len(right), zero)))
    for degree, terms, left, right, family in families:
        m = len(left) * len(right)
        assert len(Placed(left, right)) == len(family)
        assert sym._packed([((), None)], degree, Placed(left, right), m).values() == tuple(family)
        got, want = sym._packed(terms, degree, Placed(left, right), m), sym._packed(terms, degree, family, m)
        assert got.values() == want.values() and got == want, (case, degree)
        moved = sym._packed(terms, degree, Placed([_raised(left[0], len(left[0]) - 1, field), *left[1:]], right), m)
        assert (moved == want) == (moved.values() == want.values()), (case, degree)


def _mirror_steps(monkeypatch, prof, trace=False):
    """{k: _int_step calls} of each mirror-top.k action in verify_operator_identities(prof), the one action on a
    family placed from t and a basis, {k: tracemalloc peak} of each when trace is set, and the suite's report."""
    steps, peaks, real, step = {}, {}, HeckeSymmetry._packed, symmetry._int_step
    counted = []
    monkeypatch.setattr(symmetry, "_int_step", lambda *args: counted.append(1) or step(*args))

    def packed(self, terms, n, vec, m=1):
        if not (isinstance(vec, Placed) and vec.factors[0] == [prof.t] and not isinstance(vec.factors[1], range)):
            return real(self, terms, n, vec, m)
        counted.clear()
        if trace:
            tracemalloc.start()
        try:
            out = real(self, terms, n, vec, m)
            out.vanishes()
            peaks[n - prof.n] = tracemalloc.get_traced_memory()[1] if trace else None
        finally:
            tracemalloc.stop()
        steps[n - prof.n] = len(counted)
        return out

    monkeypatch.setattr(HeckeSymmetry, "_packed", packed)
    report = verify_operator_identities(prof)
    assert [c.status for c in report.checks if c.name.startswith("mirror-top")] == ["pass"] * len(steps)
    return steps, peaks, report


def test_mirror_top_steps_once_per_suffix(monkeypatch):
    # the coset representatives of y_(n/n-k,k) are suffixes of each other and of rho^-1: dj(3) steps 3 times for
    # k = 1 and 6 for k = 2, where one walk per word stepped 6 and 9 times
    assert _mirror_steps(monkeypatch, analyze(dj_standard(3)))[0] == {1: 3, 2: 6}


@pytest.mark.parametrize("case", ["dj3", "dj3-conj-cyc3", "bilinear-q=-1"])
def test_profile_and_identity_suite_form_no_kronecker_product(case, monkeypatch):
    sym = {"dj3": lambda: dj_standard(3), "dj3-conj-cyc3": PLACED_CASES["dj3-conj-cyc3"], "bilinear-q=-1": _bilinear_at_minus_one}[case]()
    calls, real = [], linalg.kron_vec
    for module in (linalg, symmetry):
        monkeypatch.setattr(module, "kron_vec", lambda *args: calls.append(len(args[0]) * len(args[1])) or real(*args))
    report = verify_operator_identities(analyze(sym))
    assert calls == [] and [c.name for c in report.checks if c.status == "fail"] == []


def test_dj5_profile_past_the_cap(monkeypatch):
    monkeypatch.setattr(symmetry, "TENSOR_DIM_CAP", 5 ** 6)
    # no family longer than V^(x)n is unpacked: theta_pair reads N^2 values off each braiding on V^(x)(n+1)
    unpacked, values = [], exactnum.Packed.values
    with monkeypatch.context() as patch:
        patch.setattr(frobenius, "_stack", lambda *args: pytest.fail("stacked family built"))
        patch.setattr(exactnum.Packed, "values", lambda self: unpacked.append(len(out := values(self))) or out)
        prof = analyze(dj_standard(5))
    assert prof.dims == [1, 5, 10, 10, 5, 1, 0]
    assert max(unpacked) <= 5 ** 5
    assert [B.rank() for B in prof.betas] == [B.rows for B in prof.betas] == prof.dims[:6]
    # mirror-top.k2 makes 13 steps, where one walk per word made 40, and acts on t and the 10 basis vectors of
    # upsilon(2) placed, not on their 781,250 Scalars: its warm action peaked at 26.4 MB with them, 13.0 MB without
    steps, peaks, report = _mirror_steps(monkeypatch, prof, trace=True)
    assert [c.name for c in report.checks if c.status == "fail"] == []
    assert steps == {1: 5, 2: 13} and peaks[2] < 20 * 2 ** 20, (steps, peaks)
    # a warm theta_pair holds its two packed families, not their 2 N^(n+2) Scalars
    theta_pair(prof.sym, prof.n, prof.t)
    tracemalloc.start()
    try:
        assert theta_pair(prof.sym, prof.n, prof.t) == (prof.theta, prof.theta_bar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak


def _scalars_in(obj, seen):
    """Every Scalar reachable from obj through containers and heckesym objects (their slots and attributes)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Scalar):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = list(obj.values())
    elif type(obj).__module__.startswith("heckesym."):
        slots = [getattr(obj, name) for klass in type(obj).__mro__ for name in getattr(klass, "__slots__", ()) if hasattr(obj, name)]
        items = slots + list(getattr(obj, "__dict__", {}).values())
    else:
        return
    for item in items:
        yield from _scalars_in(item, seen)


@pytest.mark.parametrize("case", ["dj3-conj-q=2", "dj3-conj-cyc3"])
def test_constant_fields_build_no_fraction(case, monkeypatch):
    # constants are integer vectors over one integer: the profile and the identity suite of a dense conjugate
    # over Q at q = 2 and over Q(zeta_3) construct no Fraction (the control below shows that one would be seen)
    sym = SQUARE_CASES[case]()
    built, real = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or real(cls, *args, **kw))
    assert (sym.field.one() / 3).constant()[0] == Fraction(1, 3) and built
    built.clear()
    assert verify_operator_identities(analyze(sym)).ok
    assert built == []


@pytest.mark.parametrize("sym", [dj_standard(3, cyclotomic_field(3, q_power=1)), dj_standard(2)], ids=["dj3-cyc3", "dj2-generic"])
def test_profile_holds_no_integral_fraction(sym):
    # every coefficient entry of a Scalar is an int, over a denominator led by a positive integer
    prof = analyze(sym)
    scalars = list(_scalars_in(prof, set()))
    assert len(scalars) > 30 and all(any(x is y for y in scalars) for x in prof.t + prof.psi.entries)
    for x in scalars:
        assert x.den[-1][0] > 0 and not any(x.den[-1][1:]), x
        for vec in x.num + x.den:
            assert all(type(c) is int for c in vec), (x, vec)


def test_functional_top_value_dj4():
    sym = dj_standard(4)
    t = sym.upsilon(4).basis[0]
    f = f_functional(sym, 4, t)
    assert sum((c * x for c, x in zip(f, t)), F.zero()) == qint(4)


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
        nu = prof3.restricted(prof3.phi, k)
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
            coords = A.solve(MatrixF(len(prof.t), 1, prof.t, sym.field))
            assert coords is not None
            D = MatrixF(len(left), len(right), coords.entries, sym.field)
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
            coords = A.solve(MatrixF(len(prof.t), 1, prof.t, field))
            assert coords is not None
            D = MatrixF(len(u_basis), len(w_basis), coords.entries, field)
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


def _covector_value_reference(f, v, zero):
    """f(v) = sum_w f[w] v[w], skipping the zero coordinates of v."""
    out = zero
    for c, x in zip(f, v):
        if not x.is_zero():
            out = out + c * x
    return out


def _front_pairing_reference(f, vectors, domain):
    """Entry (j, i) = f(x_j (x) t_i), one covector value at a time: the loop that front_pairing replaced."""
    block = len(vectors[0])
    zero = domain.zero()
    return MatrixF.from_rows(
        [[_covector_value_reference(f[j * block : (j + 1) * block], t, zero) for t in vectors] for j in range(len(f) // block)],
        domain,
    )


def _projection_from_dual_reference(f, relations, C):
    """P column by column, as combinations of the relations: the loop that projection_from_dual replaced."""
    block = len(relations[0])
    zero = C.domain.zero()
    cols = [vec_combination(C.apply([f[i * block + w] for i in range(C.cols)]), relations, zero) for w in range(block)]
    return MatrixF.from_rows(cols, C.domain).transpose()


@pytest.mark.parametrize("case", [c for c in _domains() if c[0] != "scalar-on-poly"], ids=lambda c: c[0])
def test_pairing_products_match_loops(case):
    name, domain, entry, zero, _vec_entry = case
    rng = random.Random("pairing:" + name)
    for N in (1, 2, 3):
        block = N * N
        for _ in range(3):
            f = [entry(rng) for _ in range(N * block)]
            rels = [tuple(entry(rng) for _ in range(block)) for _ in range(N)]
            rels[rng.randrange(N)] = (zero,) * block
            C = MatrixF(N, N, [entry(rng) for _ in range(N * N)], domain)
            assert front_pairing(f, rels, domain) == _front_pairing_reference(f, rels, domain)
            assert projection_from_dual(f, rels, C) == _projection_from_dual_reference(f, rels, C)
            # f(t) is the one-by-one front pairing with the whole of f as its row
            t = tuple(entry(rng) for _ in range(N * block))
            assert front_pairing(f, [t], domain) == MatrixF(1, 1, [_covector_value_reference(f, t, zero)], domain)


def test_pairing_products_match_loops_on_a_profile_and_case1(prof3):
    prof = prof3
    t_rows = prof.sym.upsilon(2).basis
    slices = MatrixF(3, 9, prof.t, F).row_list()
    for vectors in (t_rows, slices):
        assert front_pairing(prof.f, vectors, F) == _front_pairing_reference(prof.f, vectors, F)
    C = front_pairing(prof.f, t_rows, F).inverse()
    assert projection_from_dual(prof.f, t_rows, C) == _projection_from_dual_reference(prof.f, t_rows, C)
    ring = PolyRing(("a", "b", "c", "ap", "bp", "cp"))
    a, b, c, ap, bp, cp = ring.vars()
    rels = skl_relations(SklParameters(a, b, c, ring))
    f = _cyclic_functional(ap, bp, cp, ring.zero())
    assert front_pairing(f, rels, ring) == _front_pairing_reference(f, rels, ring)
    C = MatrixF(3, 3, [ring.zero(), ring.one(), ring.zero(), a, ring.zero(), ring.zero(), b, c, ring.one()], ring)
    assert projection_from_dual(f, rels, C) == _projection_from_dual_reference(f, rels, C)


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
    C = restrict_to_subspace(A, 1, U.basis, U.pivots())
    assert C.rows == 1 and C[0, 0] == q ** 3
    assert restrict_to_subspace(prof2.theta, 2, U.basis, U.pivots()) == C
    bad = MatrixF.from_rows([[F.one(), F.one()], [F.zero(), F.one()]], F)
    with pytest.raises(ValueError):
        restrict_to_subspace(kron_power(bad, 2), 1, U.basis, U.pivots())
    with pytest.raises(ValueError):
        restrict_to_subspace(bad, 2, U.basis, U.pivots())


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


def _dense_kernel_check(f, g, field):
    """ker f = ker g compared as two row-reduced kernel bases (the reference for functional.kernel)."""
    return MatrixF.from_rows([f], field).kernel() == MatrixF.from_rows([g], field).kernel()


KERNEL_CASES = {
    "dj2": lambda: analyze(dj_standard(2)),
    "dj2-conj-cyc3": lambda: analyze(_conjugate(2, cyclotomic_field(3, q_power=1), 12)),
    "dj3": lambda: analyze(dj_standard(3)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_check_matches_dense_kernels(case, monkeypatch):
    prof = KERNEL_CASES[case]()
    field, g0 = prof.field, prof.f
    zero = (field.zero(),) * len(g0)
    rng = random.Random("kernel:" + case)
    p = vec_pivot(g0)

    def moved(v, k, d):
        return tuple(x + d if i == k else x for i, x in enumerate(v))

    pairs = [(g0, g0), (vec_scale(field.scalar(-3), g0), g0), (g0, vec_scale(field.scalar(2), g0)),
             # a zero f or a zero row of rep(y_n): one kernel is everything
             (zero, g0), (g0, zero), (zero, zero),
             # f vanishes at the pivot of the row, and is nonzero elsewhere
             (moved(g0, p, -g0[p]), g0), (moved(zero, len(g0) - 1, field.one()), g0)]
    pairs += [(moved(g0, rng.randrange(len(g0)), field.scalar(rng.choice((-1, 2)))), g0) for _ in range(4)]
    for f, g in pairs:
        monkeypatch.setattr(frobenius, "_y_row", lambda *args: g)
        report = verify_operator_identities(dataclasses.replace(prof, f=f))
        check = next(c for c in report.checks if c.name == "functional.kernel")
        assert (check.status == "pass") == _dense_kernel_check(f, g, field), (f, g)
        if check.status == "pass":
            assert check.detail == ""
            continue
        # the witness: coordinate j of a vector in one kernel and the other covector's value there
        j, text = re.fullmatch(r"entry \(0,(\d+)\) = (.*)", check.detail).groups()
        j = int(j)
        if vec_is_zero(g):
            value = f[j]
        elif f[vec_pivot(g)].is_zero():
            value = g[j]
        else:
            pg = vec_pivot(g)
            value = f[j] * g[pg] - f[pg] * g[j]
        assert not value.is_zero() and text == format_scalar(value), (f, g, check.detail)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_check_reads_the_row_at_the_last_coordinate_of_t(case, monkeypatch):
    prof = KERNEL_CASES[case]()
    t, f, field = prof.t, prof.f, prof.field
    piv, last = vec_pivot(t), max(j for j, x in enumerate(t) if not x.is_zero())
    assert piv != last
    real = frobenius._y_row
    asked = []
    monkeypatch.setattr(frobenius, "_y_row", lambda sym, n, k: asked.append(k) or real(sym, n, k))
    check = next(c for c in verify_operator_identities(prof).checks if c.name == "functional.kernel")
    assert asked == [last] and check.status == "pass"
    # the row at piv stays f's own; a row at last != piv that is not proportional to f fails on its minor
    row = real(prof.sym, prof.n, last)
    for j in range(len(f)):
        g = row[:j] + (row[j] + field.one(),) + row[j + 1 :]
        minor = first_minor(f, g)
        if minor is None or f[vec_pivot(g)].is_zero():
            continue
        monkeypatch.setattr(frobenius, "_y_row", lambda sym, n, k: real(sym, n, k) if k == piv else g)
        check = next(c for c in verify_operator_identities(prof).checks if c.name == "functional.kernel")
        assert check.status == "fail" and check.detail == "entry (0,%d) = %s" % (minor[0], format_scalar(minor[1])), (case, j)


# The detail each packed verdict names for a perturbed theta, a perturbed top tensor t and a perturbed R
# (each with one entry raised by one), captured when both sides of braid-top and mirror-top were Scalar
# vectors and the Hecke and braid checks read the dense defect matrix; "" where the check still holds.
FROZEN_WITNESSES = {
    'dj2-generic': {
        'theta/braid-top.k1': 'entry (1,2) = -1',
        'theta/mirror-top.k1': '',
        'theta/braid-top.k2': 'entry (1,4) = -q^2',
        'theta/mirror-top.k2': '',
        't/braid-top.k1': 'entry (0,3) = q^2 - q',
        't/mirror-top.k1': 'entry (0,3) = 1/q',
        't/braid-top.k2': 'entry (0,3) = q^4 - q^3 - q^2 + q',
        't/mirror-top.k2': 'entry (0,7) = (-1)/q',
        'R/check_hecke': 'entry (0,1) = q',
        'R/check_braid': 'entry (0,1) = -q^2 + q',
    },
    'dj3-cyc3': {
        'theta/braid-top.k1': 'entry (1,15) = -1',
        'theta/mirror-top.k1': '',
        'theta/braid-top.k2': 'entry (1,45) = -1',
        'theta/mirror-top.k2': '',
        't/braid-top.k1': 'entry (0,26) = 2 + e',
        't/mirror-top.k1': 'entry (0,26) = 1 + e',
        't/braid-top.k2': 'entry (0,26) = 3',
        't/mirror-top.k2': 'entry (0,53) = -1',
        'R/check_hecke': 'entry (0,1) = e',
        'R/check_braid': 'entry (0,1) = 1 + 2*e',
    },
    'dj2-conj-rational': {
        'theta/braid-top.k1': 'entry (1,0) = -1',
        'theta/mirror-top.k1': '',
        'theta/braid-top.k2': 'entry (1,2) = -4',
        'theta/mirror-top.k2': '',
        't/braid-top.k1': 'entry (0,0) = 1',
        't/mirror-top.k1': 'entry (0,0) = 1/2',
        't/braid-top.k2': 'entry (0,0) = 4',
        't/mirror-top.k2': 'entry (0,0) = -1/2',
        'R/check_hecke': 'entry (0,2) = 3',
        'R/check_braid': 'entry (0,1) = -4',
    },
}

WITNESS_SYMMETRIES = {
    "dj2-generic": lambda: dj_standard(2),
    "dj3-cyc3": lambda: dj_standard(3, cyclotomic_field(3, q_power=1)),
    "dj2-conj-rational": lambda: _conjugate(2, _rational_q(2), 5),
}


def _raised(entries, k, field):
    return tuple(x + field.one() if i == k else x for i, x in enumerate(entries))


@pytest.mark.parametrize("case", sorted(FROZEN_WITNESSES))
def test_packed_verdicts_name_the_frozen_witnesses(case):
    sym = WITNESS_SYMMETRIES[case]()
    prof, field = analyze(sym), sym.field
    theta = MatrixF(sym.N, sym.N, _raised(prof.theta.entries, 1, field), field)
    got = {}
    for label, bad in (("theta", dataclasses.replace(prof, theta=theta)), ("t", dataclasses.replace(prof, t=_raised(prof.t, len(prof.t) - 1, field)))):
        for c in verify_operator_identities(bad).checks:
            if c.name.startswith(("braid-top", "mirror-top")):
                got["%s/%s" % (label, c.name)] = c.detail if c.status == "fail" else ""
    R = MatrixF(sym.R.rows, sym.R.cols, _raised(sym.R.entries, 1, field), field)
    bad_sym = HeckeSymmetry(sym.N, sym.q, R, validate=False)
    for name, ok_witness in (("check_hecke", symmetry.check_hecke(R, sym.q)), ("check_braid", symmetry.check_braid(R))):
        assert ok_witness == getattr(bad_sym, name)() and not ok_witness[0], name
        got["R/" + name] = ok_witness[1]
    assert got == FROZEN_WITNESSES[case]
