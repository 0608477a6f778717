import gc
import json
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from heckesym import exactnum, symmetry
from heckesym.exactnum import GENERIC_Q, FieldSpec, Scalar, at_lanes, cyclotomic_field, pack_q, primitive_root
from heckesym.frobenius import analyze, trace_table, verify_operator_identities
from heckesym.heckealg import antisymmetrizer, basis_element, generator, partial_y, unit
from heckesym.linalg import MatrixF, Placed, Subspace, _stack, vec_is_zero, vec_scale
from heckesym.multipoly import PolyRing
from heckesym.obstruction import SklParameters, _projection, skl_relations
from heckesym.permgroup import Composition, Perm, enumerate_perms, longest_element, longest_rho
from heckesym.regular3 import hessian_generators, skl_tensor
from heckesym.symmetry import (
    TENSOR_DIM_CAP,
    HeckeSymmetry,
    SymmetryError,
    _packed_act,
    _packed_vanishes,
    _vanishes,
    braid_defect,
    apply_power,
    check_braid,
    check_hecke,
    column_table,
    dj_standard,
    flip,
    index_word,
    kron_vec,
    tensor_index,
)

F = GENERIC_Q
q = F.q()


@pytest.fixture(scope="module")
def dj2():
    return dj_standard(2)


@pytest.fixture(scope="module")
def dj3():
    return dj_standard(3)


def test_tensor_indexing():
    N, n = 3, 3
    for idx in range(N ** n):
        w = index_word(idx, n, N)
        assert tensor_index(w, N) == idx
    assert tensor_index((1, 1), 2) == 0
    assert tensor_index((2, 1), 2) == 2


def test_relation_checks_pass_for_catalog(dj2):
    assert check_hecke(dj2.R, dj2.q) == (True, "")
    assert check_braid(dj2.R) == (True, "")
    fl = flip(2)
    assert check_hecke(fl.R, fl.q)[0] and check_braid(fl.R)[0]


def test_scalar_operator_is_a_symmetry():
    R = MatrixF.identity(4, F).scale(q)
    sym = HeckeSymmetry(2, q, R)
    assert sym.upsilon(2).dim == 0


def test_perturbed_matrix_fails_with_witness(dj2):
    entries = list(dj2.R.entries)
    entries[3] = F.one()  # corner entry of the 4x4
    bad = MatrixF(4, 4, entries, F)
    ok, witness = check_braid(bad)
    assert not ok and "entry" in witness
    with pytest.raises(SymmetryError):
        HeckeSymmetry(2, q, bad)


def test_dj2_matrix_block(dj2):
    # middle block [[q-1, 1], [q, 0]]: trace q-1, determinant -q
    blk = [[dj2.R[1, 1], dj2.R[1, 2]], [dj2.R[2, 1], dj2.R[2, 2]]]
    assert blk[0][0] + blk[1][1] == q - 1
    assert blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0] == -q


def test_rep_matrix_examples(dj2):
    assert dj2.rep_matrix(unit(2), 2) == MatrixF.identity(4, F)
    h = generator(1, 2) * generator(1, 2)
    assert dj2.rep_matrix(h, 2) == _generator_matrix_reference(dj2, 1, 2).scale(q - 1) + MatrixF.identity(4, F).scale(q)
    assert dj2.rep_matrix(antisymmetrizer(2), 2) == MatrixF.identity(4, F).scale(q) - dj2.R


def test_rep_is_multiplicative(dj2, dj3):
    rng = random.Random(3)
    perms = list(enumerate_perms(3))
    for sym in (dj2, dj3):
        for _ in range(6):
            h1 = basis_element(rng.choice(perms), F).scale(rng.randint(1, 3)) + basis_element(
                rng.choice(perms), F
            )
            h2 = basis_element(rng.choice(perms), F).scale(rng.randint(-3, -1)) + basis_element(
                rng.choice(perms), F
            )
            assert sym.rep_matrix(h1 * h2, 3) == sym.rep_matrix(h1, 3) * sym.rep_matrix(h2, 3)


def test_upsilon_dimensions(dj2, dj3):
    assert [dj2.upsilon(k).dim for k in range(4)] == [1, 2, 1, 0]
    assert [dj3.upsilon(k).dim for k in range(5)] == [1, 3, 3, 1, 0]


def test_upsilon_two_basis(dj2):
    t = dj2.upsilon(2).basis[0]
    assert t == (F.zero(), F.one(), -q, F.zero())


def test_ideal_component(dj2):
    I2 = dj2.ideal_component(2)
    expected = Subspace.from_vectors(
        [
            (F.one(), F.zero(), F.zero(), F.zero()),
            (F.zero(), F.zero(), F.zero(), F.one()),
            (F.zero(), F.one(), F.one(), F.zero()),
        ],
        4,
        F,
    )
    assert I2 == expected
    assert dj2.lambda_dim(2) == 1
    assert I2.dim + dj2.upsilon(2).dim == 4


def test_flip_ideal_is_symmetric_tensors():
    fl = flip(2)
    field = fl.field
    I2 = fl.ideal_component(2)
    sym_tensors = Subspace.from_vectors(
        [
            (field.one(), field.zero(), field.zero(), field.zero()),
            (field.zero(), field.zero(), field.zero(), field.one()),
            (field.zero(), field.one(), field.one(), field.zero()),
        ],
        4,
        field,
    )
    assert I2 == sym_tensors
    assert fl.lambda_dim(2) == 1


def test_star_unit_laws(dj2):
    one = (F.one(),)
    for b in dj2.upsilon(2).basis:
        assert dj2.star(one, 0, b, 2) == b
        assert dj2.star(b, 2, one, 0) == b


def test_star_degree_one_oracle(dj2):
    # u * v = (q Id - R)(u tensor v)
    op = MatrixF.identity(4, F).scale(q) - dj2.R
    e1, e2 = (F.one(), F.zero()), (F.zero(), F.one())
    for u in (e1, e2):
        for v in (e1, e2):
            assert dj2.star(u, 1, v, 1) == op.apply(kron_vec(u, v, F))


def test_star_associativity_random(dj2):
    rng = random.Random(8)
    for _ in range(6):
        u = tuple(F.scalar(rng.randint(-2, 2)) for _ in range(2))
        v = tuple(F.scalar(rng.randint(-2, 2)) for _ in range(2))
        w = tuple(F.scalar(rng.randint(-2, 2)) for _ in range(2))
        lhs = dj2.star(dj2.star(u, 1, v, 1), 2, w, 1)
        rhs = dj2.star(u, 1, dj2.star(v, 1, w, 1), 2)
        assert lhs == rhs


def test_star_membership_enforced(dj2, monkeypatch):
    bad = (F.one(), F.zero(), F.zero(), F.zero())  # e1 e1 is not in upsilon(2)
    good = dj2.upsilon(2).basis[0]
    e1 = (F.one(), F.zero())
    with pytest.raises(ValueError, match="vector length mismatch"):
        dj2.star(e1, 2, e1, 1)
    with pytest.raises(ValueError, match="left factor is not in upsilon"):
        dj2.star(bad, 2, e1, 1)
    with pytest.raises(ValueError, match="right factor is not in upsilon"):
        dj2.star(e1, 1, bad, 2)
    # a product outside upsilon(k + l), from an action that sends everything to e1 (x) e1 (x) e1
    monkeypatch.setattr(HeckeSymmetry, "apply_hecke", lambda self, h, n, vec: (F.one(),) + (F.zero(),) * 7)
    with pytest.raises(ValueError, match="star product left upsilon"):
        dj2.star(good, 2, e1, 1)


def test_upsilon_nesting(dj2):
    # upsilon(k+n) sits inside upsilon(k) (x) upsilon(n)
    for k in range(0, 4):
        for n in range(0, 4 - k):
            big = dj2.upsilon(k + n)
            prod = Subspace.from_vectors(
                [
                    kron_vec(u, w, F)
                    for u in dj2.upsilon(k).basis
                    for w in dj2.upsilon(n).basis
                ],
                2 ** (k + n),
                F,
            )
            assert all(prod.contains(row) for row in big.basis)


def test_braiding_maps_mixed_spaces(dj2):
    # T_rho sends upsilon(k) (x) upsilon(n) into upsilon(n) (x) upsilon(k)
    for k in range(1, 3):
        for n in range(1, 5 - k):
            rho = longest_rho(k, n)
            word = rho.reduced_word()
            target = Subspace.from_vectors(
                [
                    kron_vec(u, w, F)
                    for u in dj2.upsilon(n).basis
                    for w in dj2.upsilon(k).basis
                ],
                2 ** (k + n),
                F,
            )
            for u in dj2.upsilon(k).basis:
                for w in dj2.upsilon(n).basis:
                    img = dj2.apply_perm_word(word, k + n, kron_vec(u, w, F))
                    assert target.contains(img)


def test_braiding_scalar_on_top_square(dj2):
    # with the top component in degree 2, T_rho scales upsilon(2) (x) upsilon(2) by q^3
    rho = longest_rho(2, 2)
    word = rho.reduced_word()
    t = dj2.upsilon(2).basis[0]
    u = kron_vec(t, t, F)
    img = dj2.apply_perm_word(word, 4, u)
    assert img == vec_scale(q ** 3, u)


def test_antisymmetrizer_acts_nonzero_dj3(dj3):
    Y = dj3.rep_matrix(antisymmetrizer(3), 3)
    assert not Y.is_zero()
    assert dj3.upsilon(3).dim == 1


def test_partial_antisymmetrizer_lands_in_upsilon(dj2):
    # y_(k+n / k,n) maps upsilon(k) (x) upsilon(n) into upsilon(k+n)
    for k in range(1, 3):
        for n in range(1, 4 - k):
            y = partial_y(k + n, Composition((k, n)), "left", F)
            for u in dj2.upsilon(k).basis:
                for w in dj2.upsilon(n).basis:
                    img = dj2.apply_hecke(y, k + n, kron_vec(u, w, F))
                    assert dj2.upsilon(k + n).contains(img)


def test_derived_symmetries(dj2):
    dual = dj2.dual()
    op = dj2.opposite()
    assert dual.R == dj2.R.transpose()
    assert op.opposite().R == dj2.R
    assert dj2.conjugate(MatrixF.identity(2, F)).R == dj2.R
    tau = MatrixF.from_rows([[F.zero(), F.one()], [F.one(), F.zero()]], F)
    conj = dj2.conjugate(tau)
    assert check_hecke(conj.R, q)[0] and check_braid(conj.R)[0]
    dense = MatrixF.from_rows([[F.scalar(2), F.one()], [F.scalar(3), F.scalar(2)]], F)
    assert dj2.conjugate(dense).R == kron_power(dense, 2) * dj2.R * kron_power(dense.inverse(), 2)
    singular = MatrixF.from_rows([[F.one(), F.one()], [F.one(), F.one()]], F)
    with pytest.raises(ZeroDivisionError):
        dj2.conjugate(singular)
    # seeded dense tau over Q and Q(zeta_3)
    for field, seed in ((_rational_q(2), 13), (cyclotomic_field(3, q_power=1), 14)):
        sym, tau = dj_standard(3, field), _unimodular(random.Random(seed), 3, field)
        assert sym.conjugate(tau).R == kron_power(tau, 2) * sym.R * kron_power(tau.inverse(), 2)


def test_json_roundtrip(dj2):
    doc = dj2.to_json_dict()
    again = HeckeSymmetry.from_json(json.dumps(doc))
    assert again.R == dj2.R and again.q == dj2.q
    # cyclotomic documents round-trip too
    C3q = cyclotomic_field(3, q_power=1)
    sym = dj_standard(2, C3q)
    again = HeckeSymmetry.from_json_dict(sym.to_json_dict())
    assert again.R == sym.R


def test_json_errors():
    with pytest.raises(SymmetryError):
        HeckeSymmetry.from_json_dict({"dim": 2})
    doc = dj_standard(2).to_json_dict()
    doc["matrix"] = doc["matrix"][:3]
    with pytest.raises(SymmetryError):
        HeckeSymmetry.from_json_dict(doc)


# -- dense reference for the graded subspaces, on full N^n x N^n matrices


def dense_upsilon(sym, n):
    """Intersection of the images of (T_i - q) on V^(x)n, n >= 2."""
    shift = MatrixF.identity(sym.N ** n, sym.field).scale(sym.q)
    out = None
    for i in range(1, n):
        img = (_generator_matrix_reference(sym, i, n) - shift).image()
        out = img if out is None else out.intersect(img)
    return out


def dense_ideal(sym, n):
    """Sum of the kernels of (T_i - q) on V^(x)n, n >= 2."""
    shift = MatrixF.identity(sym.N ** n, sym.field).scale(sym.q)
    out = Subspace.zero(sym.N ** n, sym.field)
    for i in range(1, n):
        out = out.sum((_generator_matrix_reference(sym, i, n) - shift).kernel())
    return out


def _rational_q(value):
    base = FieldSpec("rational")
    return base.with_q(base.scalar(value))


def _unimodular(rng, N, field):
    """A dense N x N matrix with entries in {-2, -1, 1, 2} and det +-1."""
    while True:
        rows = [[field.scalar(rng.choice((-2, -1, 1, 2))) for _ in range(N)] for _ in range(N)]
        tau = MatrixF.from_rows(rows, field)
        if tau.det() in (field.one(), -field.one()):
            return tau


def _conjugate(N, field, seed):
    sym = dj_standard(N, field)
    return sym.conjugate(_unimodular(random.Random(seed), N, field))


@pytest.mark.parametrize("N", [2, 3])
def test_conjugate_matches_kronecker_products(N):
    # R from slot 1 on the columns of tau^-1 (x) tau^-1, then tau on each column's two slots: (tau (x) tau) R (tau^-1 (x) tau^-1)
    rng = random.Random("conjugate:%d" % N)
    for field in (GENERIC_Q, _rational_q(2), _rational_q(-1), cyclotomic_field(3, q_power=1), cyclotomic_field(4, q_power=1)):
        sym = dj_standard(N, field)
        for tau in (_unimodular(rng, N, field), MatrixF.identity(N, field).scale(field.scalar(2)), _upper(rng, N, field)):
            want = kronecker(tau, tau) * sym.R * kron_power(tau.inverse(), 2)
            assert sym.conjugate(tau).R == want, (N, field, tau)


def _upper(rng, N, field):
    """An upper triangular N x N matrix with diagonal 1, 2, ..., so det tau = N! and tau^-1 has fractions."""
    return MatrixF(N, N, [field.scalar(i + 1 if i == j else rng.choice((0, 1, -1)) if j > i else 0) for i in range(N) for j in range(N)], field)


AGREEMENT_CASES = {
    "dj2": lambda: dj_standard(2),
    "dj3": lambda: dj_standard(3),
    "dj4": lambda: dj_standard(4),
    "flip2": lambda: flip(2),
    "flip3": lambda: flip(3),
    "dj3-q=-1": lambda: dj_standard(3, _rational_q(-1)),
    "dj3-q=2": lambda: dj_standard(3, _rational_q(2)),
    "dj3-cyc3": lambda: dj_standard(3, cyclotomic_field(3, q_power=1)),
    "dj3-cyc4": lambda: dj_standard(3, cyclotomic_field(4, q_power=1)),
    "dj2-conj-generic": lambda: _conjugate(2, GENERIC_Q, 11),
    "dj2-conj-cyc3": lambda: _conjugate(2, cyclotomic_field(3, q_power=1), 12),
    "dj3-conj-q=2": lambda: _conjugate(3, _rational_q(2), 13),
    "dj3-conj-cyc3": lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_graded_subspaces_match_dense_reference(case):
    # degrees 2..N+1 reach the top component of each case and the first zero past it
    sym = AGREEMENT_CASES[case]()
    for n in range(2, sym.N + 2):
        if sym.N ** n > TENSOR_DIM_CAP:
            break
        ideal = dense_ideal(sym, n)
        assert sym.upsilon(n) == dense_upsilon(sym, n), (case, n)
        assert sym.ideal_component(n) == ideal, (case, n)
        assert sym.lambda_dim(n) == sym.N ** n - ideal.dim, (case, n)


def _extend_reference(sym, prev, n):
    """(prev (x) V) cap (V^(x)(n-2) (x) upsilon(2)), entry by entry: the loops that _extend replaced."""
    N, field = sym.N, sym.field
    if prev.is_zero():
        return Subspace.zero(N ** n, field)
    zero = field.zero()
    ann = sym.upsilon(2).annihilator().basis
    width = prev.dim * N
    rows = []
    for w in range(N ** (n - 2)):
        slices = [b[w * N : (w + 1) * N] for b in prev.basis]
        if all(vec_is_zero(sl) for sl in slices):
            continue
        for a in ann:
            row = [zero] * width
            for j, sl in enumerate(slices):
                for s, x in enumerate(sl):
                    if x.is_zero():
                        continue
                    for k in range(N):
                        c = a[s * N + k]
                        if not c.is_zero():
                            row[j * N + k] = row[j * N + k] + c * x
            if not vec_is_zero(row):
                rows.extend(row)
    combos = MatrixF(len(rows) // width, width, rows, field).kernel()
    vectors = []
    for c in combos.basis:
        x = [zero] * N ** n
        for j, b in enumerate(prev.basis):
            for m, y in enumerate(b):
                if y.is_zero():
                    continue
                for k in range(N):
                    cjk = c[j * N + k]
                    if not cjk.is_zero():
                        x[m * N + k] = x[m * N + k] + cjk * y
        vectors.append(x)
    return Subspace.from_vectors(vectors, N ** n, field)


@pytest.mark.parametrize(
    "case",
    ["dj2", "dj3", "dj3-q=-1", "dj3-q=2", "dj3-cyc3", "dj3-cyc4", "dj2-conj-generic", "dj2-conj-cyc3", "dj3-conj-q=2", "dj3-conj-cyc3", "flip3"],
)
def test_extend_matches_entry_loops(case):
    # == on the Subspaces compares their bases, so this also checks that _extend's basis is canonical as built
    sym = AGREEMENT_CASES[case]()
    N, field = sym.N, sym.field
    rng = random.Random("extend:" + case)
    for n in (3, 4):
        ambient = N ** (n - 1)
        prevs = [sym.upsilon(n - 1), Subspace.zero(ambient, field), Subspace.full(ambient, field)]
        for dim in (1, 2, N + 1):
            vectors = [[field.scalar(rng.choice((0, 0, 1, -1, 2))) for _ in range(ambient)] for _ in range(dim)]
            # the prefix block w = 1 is zero in every vector, so its slice S_1 is all zero
            for v in vectors:
                v[N : 2 * N] = [field.zero()] * N
            prevs.append(Subspace.from_vectors(vectors, ambient, field))
        for prev in prevs:
            assert sym._extend(prev, n) == _extend_reference(sym, prev, n), (case, n, prev)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_annihilator_read_off_the_rref_spans_the_annihilator(case):
    sym = AGREEMENT_CASES[case]()
    N, A = sym.N, sym._annihilator()
    anns = [[A[s, f + k] for s in range(N) for k in range(N)] for f in range(0, A.cols, N)]
    want = sym.upsilon(2).annihilator()
    assert len(anns) == want.dim
    assert Subspace.from_vectors(anns, N * N, sym.field) == want
    assert sym._annihilator() is A


def test_extend_makes_one_constraint_and_one_solution_product_per_degree(monkeypatch):
    counts = {"mul": [], "kernel": 0, "annihilator": 0, "from_vectors outside kernel": 0}
    depth = {"extend": 0, "kernel": 0}
    mul, kernel, from_vectors, extend = MatrixF.__mul__, MatrixF.kernel, Subspace.from_vectors, HeckeSymmetry._extend
    annihilator = Subspace.annihilator

    def counted_mul(self, other):
        if depth["extend"]:
            counts["mul"][-1] += 1
        return mul(self, other)

    def counted_kernel(self):
        counts["kernel"] += 1
        depth["kernel"] += 1
        try:
            return kernel(self)
        finally:
            depth["kernel"] -= 1

    def counted_from_vectors(vectors, ambient, domain):
        if depth["extend"] and not depth["kernel"]:
            counts["from_vectors outside kernel"] += 1
        return from_vectors(vectors, ambient, domain)

    def counted_annihilator(self):
        counts["annihilator"] += 1
        return annihilator(self)

    def counted_extend(self, prev, n):
        counts["mul"].append(0)
        depth["extend"] += 1
        try:
            return extend(self, prev, n)
        finally:
            depth["extend"] -= 1

    monkeypatch.setattr(MatrixF, "__mul__", counted_mul)
    monkeypatch.setattr(MatrixF, "kernel", counted_kernel)
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(counted_from_vectors))
    monkeypatch.setattr(Subspace, "annihilator", counted_annihilator)
    monkeypatch.setattr(HeckeSymmetry, "_extend", counted_extend)
    sym = dj_standard(4)
    assert [sym.upsilon(n).dim for n in (2, 3, 4)] == [6, 4, 1]
    assert counts == {"mul": [2, 2], "kernel": 2, "annihilator": 0, "from_vectors outside kernel": 0}


def test_dimension_caps():
    sym = dj_standard(2)
    with pytest.raises(SymmetryError):
        sym.upsilon(9)


def test_catalog_size_checked_before_allocation():
    # N^2 > TENSOR_DIM_CAP is refused before the N^4 operator is built
    for build in (dj_standard, flip):
        with pytest.raises(SymmetryError):
            build(17)
        with pytest.raises(SymmetryError):
            build(10 ** 9)
        with pytest.raises(SymmetryError):
            build(0)


def test_root_of_unity_construction():
    C3q = cyclotomic_field(3, q_power=1)
    sym = dj_standard(3, C3q)
    assert [sym.upsilon(k).dim for k in range(4)] == [1, 3, 3, 1]


# ---------------------------------------------------------------------------
# slot-local actions against dense Kronecker references


def kronecker(A, B):
    """A (x) B as a dense matrix: row (i, k) is kron_vec of row i of A and row k of B."""
    rows = [kron_vec(a, b, A.domain) for a in A.row_list() for b in B.row_list()]
    return MatrixF(A.rows * B.rows, A.cols * B.cols, [x for r in rows for x in r], A.domain)


def kron_power(A, k):
    """A^(x)k as a dense matrix (the reference for apply_power)."""
    out = MatrixF.identity(1, A.domain)
    for _ in range(k):
        out = kronecker(out, A)
    return out


def _generator_matrix_reference(sym, i, n):
    """T_i = Id^(i-1) (x) R (x) Id^(n-i-1) on V^(x)n, from Kronecker products."""
    I = MatrixF.identity(sym.N, sym.field)
    return kronecker(kronecker(kron_power(I, i - 1), sym.R), kron_power(I, n - i - 1))


def _perm_matrix_reference(sym, p, n):
    """T_sigma on V^(x)n, the product of the generator references along a reduced word of sigma."""
    out = MatrixF.identity(sym.N ** n, sym.field)
    for i in p.reduced_word():
        out = out * _generator_matrix_reference(sym, i, n)
    return out


def _dense_apply(M, vec, zero):
    out = []
    for i in range(M.rows):
        acc = zero
        for j, x in enumerate(vec):
            acc = acc + M[i, j] * x
        out.append(acc)
    return tuple(out)


def _domains():
    """(name, operator domain, random operator entry, zero of the vectors, random vector entry)."""
    ring = PolyRing(("a", "b"), order=3)
    a, b = ring.vars()
    C3 = cyclotomic_field(3)
    rat = FieldSpec("rational")
    small = lambda rng: rng.choice((0, 0, 1, -1, 2, 3))
    rational = lambda rng: rat.scalar(Fraction(small(rng), rng.choice((1, 2))))
    cyclotomic = lambda rng: small(rng) * C3.one() + small(rng) * C3.e()
    ratfunc = lambda rng: small(rng) * q + small(rng)
    poly = lambda rng: small(rng) * a + small(rng) * b * b + small(rng) * ring.one()
    return [
        ("rational", rat, rational, rat.zero(), rational),
        ("cyclotomic3", C3, cyclotomic, C3.zero(), cyclotomic),
        ("ratfunc_q", F, ratfunc, F.zero(), ratfunc),
        ("polyring", ring, poly, ring.zero(), poly),
        # a Scalar operator on MultiPoly vectors, as preserves_relations uses it
        ("scalar-on-poly", C3, cyclotomic, ring.zero(), poly),
    ]


@pytest.mark.parametrize("case", _domains(), ids=lambda c: c[0])
def test_slot_actions_match_kronecker_reference(case):
    name, domain, entry, zero, vec_entry = case
    rng = random.Random("slots:" + name)
    for N in (1, 2, 3):
        A = MatrixF(N, N, [entry(rng) for _ in range(N * N)], domain)
        for k in range(4):
            vec = tuple(vec_entry(rng) for _ in range(N ** k))
            assert apply_power(A, k, vec, zero) == _dense_apply(kron_power(A, k), vec, zero)
        # Id^(x)skip (x) A^(x)k, on two vectors stacked
        for skip, k in ((1, 1), (2, 1), (1, 2)):
            dense = kronecker(kron_power(MatrixF.identity(N, domain), skip), kron_power(A, k))
            rows = [tuple(vec_entry(rng) for _ in range(dense.cols)) for _ in range(2)]
            got = apply_power(A, k, _stack(rows, 2, zero), zero, 2, skip)
            assert [got[j::2] for j in range(2)] == [_dense_apply(dense, row, zero) for row in rows]
    # Id^a (x) A (x) Id^b with A on w slots
    for N, w, a, b in ((2, 1, 1, 1), (2, 2, 0, 1), (2, 2, 1, 0), (3, 1, 0, 2), (3, 2, 1, 0), (2, 1, 2, 0), (2, 3, 0, 0)):
        m = N ** w
        A = MatrixF(m, m, [entry(rng) for _ in range(m * m)], domain)
        I = MatrixF.identity(N, domain)
        dense = kronecker(kronecker(kron_power(I, a), A), kron_power(I, b))
        vec = tuple(vec_entry(rng) for _ in range(dense.cols))
        assert _packed_act(column_table(A), N, [((a + 1,), None)], vec, zero).values() == _dense_apply(dense, vec, zero)
    # a sum of words with coefficients on V^(x)3: 2 A_2 A_1 + c A_3 + Id
    A, I = MatrixF(2, 2, [entry(rng) for _ in range(4)], domain), MatrixF.identity(2, domain)
    slot = [kronecker(kronecker(kron_power(I, i), A), kron_power(I, 2 - i)) for i in range(3)]
    two, c = domain.one() + domain.one(), entry(rng)
    dense = (slot[1] * slot[0]).scale(two) + slot[2].scale(c) + MatrixF.identity(8, domain)
    vec = tuple(vec_entry(rng) for _ in range(8))
    assert _packed_act(column_table(A), 2, [((2, 1), two), ((3,), c), ((), None)], vec, zero).values() == _dense_apply(dense, vec, zero)


def _lane_domains():
    """More fields for the family actions, as in _domains: cyclotomic orders 4 and 12, and ratfunc_q over Q(zeta_3)."""
    out = []
    for field in (cyclotomic_field(4), cyclotomic_field(12), FieldSpec("ratfunc_q", 3)):
        deg = len(field.one().num[0])
        if field.kind == "ratfunc_q":
            entry = lambda rng, f=field: rng.choice((0, 1, -1, 2)) * f.q() + rng.choice((0, 1, -1)) * f.e() + rng.choice((0, 3))
        else:
            entry = lambda rng, f=field, deg=deg: f.from_cyc([rng.choice((0, 0, 1, -1, 2)) for _ in range(deg)])
        out.append(("%s%d" % (field.kind, field.order), field, entry, field.zero(), entry))
    return out


@pytest.mark.parametrize("case", _domains() + _lane_domains(), ids=lambda c: c[0])
def test_stacked_family_action_matches_one_action_per_vector(case, monkeypatch):
    # the per-vector loop every family action replaced, kept as the oracle
    name, domain, entry, zero, vec_entry = case
    rng = random.Random("family:" + name)
    if name == "ratfunc_q":
        # rows with different denominators share one denominator in the stacked vector
        plain = vec_entry
        vec_entry = lambda rng: plain(rng) / rng.choice((F.one(), q + 1, q, F.scalar(2), q * q - 3))
    for N, w, n in ((2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 3), (2, 1, 1)):
        m = N ** w
        table = column_table(MatrixF(m, m, [entry(rng) for _ in range(m * m)], domain))
        slots = range(1, n - w + 2)
        for size in (1, 2, 5):
            rows = [tuple(vec_entry(rng) for _ in range(N ** n)) for _ in range(size)]
            words = [tuple(rng.choice(slots) for _ in range(rng.randint(0, 3))) for _ in range(2)]
            for terms in ([(words[0], None)], [(words[0], None), (words[1], entry(rng))], []):
                stacked = _packed_act(table, N, terms, _stack(iter(rows), size, zero), zero, size).values()
                assert [stacked[j::size] for j in range(size)] == [_packed_act(table, N, terms, row, zero).values() for row in rows], (N, w, n, terms)
    if isinstance(zero, Scalar):
        # lanes: m label coordinates to an int, for every family size, with entries 10^30 next to +-1 and
        # non-integral ones, and terms with c None, zero and nonzero; each step visits one int per tensor
        # coordinate, never the stacked length
        seen = []
        step = symmetry._int_step
        monkeypatch.setattr(symmetry, "_int_step", lambda cols, first, N, comps, z: seen.append(len(comps[0])) or step(cols, first, N, comps, z))
        sizes = (10 ** 30, -(10 ** 30), 1, -1, Fraction(2, 3), Fraction(-1, 7))
        lane_entry = lambda rng: vec_entry(rng) * domain.scalar(rng.choice(sizes))
        A = MatrixF(2, 2, [entry(rng) * domain.scalar(rng.choice(sizes)) for _ in range(4)], domain)
        c = domain.scalar(Fraction(-3, 5)) + entry(rng)
        terms = [((1, 2, 3), None), ((2,), domain.zero()), ((3, 1), c), ((), None)]
        # the bound is tight for the all-ones operator on a constant family: each of three steps doubles
        # 5000, and the 16-bit image 40000 fills its lane
        ones = column_table(MatrixF(2, 2, [domain.one()] * 4, domain))
        for m in (1, 2, 9, 27):
            rows = [tuple(lane_entry(rng) for _ in range(8)) for _ in range(m)]
            seen.clear()
            stacked = _packed_act(column_table(A), 2, terms, _stack(rows, m, zero), zero, m).values()
            assert seen and set(seen) == {8}, (m, seen)
            assert [stacked[j::m] for j in range(m)] == [_packed_act(column_table(A), 2, terms, row, zero).values() for row in rows], m
            tight = _packed_act(ones, 2, [((1, 2, 3), None)], [domain.scalar(5000)] * (8 * m), zero, m).values()
            assert tight == (domain.scalar(40000),) * (8 * m), m
    # an empty family is no action: it never reaches the slot arithmetic
    monkeypatch.setattr(symmetry, "_tail", lambda *args: pytest.fail("an empty family reached _tail"))
    assert _stack(iter(()), 0, zero) == []
    assert _packed_act(table, N, [((1,), None)], _stack([], 0, zero), zero).values() == ()


def _units(dim, first, count, t, zero):
    """The Scalar family e_j (x) t, j = first..first+count-1 over the units of k^dim, stacked directly, t's entries
    shared: what the unit families were before exactnum.Placed, kept as the reference."""
    size = len(t) * count
    out = [zero] * (dim * size)
    for k in range(count):
        start = (first + k) * size + k
        out[start : start + size : count] = t
    return out


def _diagonal(t, m, zero):
    """The Scalar family t (x) e_j, j < m, stacked directly: t's entries on the diagonal of the last two slots."""
    out = [zero] * (len(t) * m * m)
    for i, x in enumerate(t):
        out[i * m * m : (i + 1) * m * m : m + 1] = [x] * m
    return out


def _assert_placed_as_packed(placed, family, field, m):
    """A Placed family packs as pack_q of its Scalar family: one denominator, one bound, and at each digit width the
    same lane ints (at_lanes)."""
    assert len(placed) == len(family)
    den, comps = pack_q(field, family)
    pden, peak, lanes = placed.pack(field)
    assert pden == den
    assert peak == max([abs(c) for ps in comps for p in ps for c in p], default=0)
    for bits in (8, 16, 64):
        assert lanes(bits) == [at_lanes(ps, bits, m) for ps in comps], bits


@pytest.mark.parametrize("case", _domains()[:3], ids=lambda c: c[0])
def test_unit_families_are_stacked_directly(case):
    name, domain, _entry, zero, vec_entry = case
    rng = random.Random("units:" + name)
    t = tuple(vec_entry(rng) for _ in range(4))
    t = (domain.scalar(Fraction(1, 3)) * t[0],) + t[1:]
    for dim, first, count in ((3, 0, 3), (5, 2, 2), (4, 3, 1), (1, 0, 1)):
        units = [tuple(domain.one() if i == j else zero for i in range(dim)) for j in range(first, first + count)]
        family = _units(dim, first, count, t, zero)
        assert family == _stack([kron_vec(e, t, domain) for e in units], count, zero), (dim, first, count)
        # the family shares t's entries instead of multiplying them by one
        assert all(any(x is y for y in t) for x in family if not x.is_zero())
        _assert_placed_as_packed(Placed(range(first, first + count), [t], dim), family, domain, count)
        _assert_placed_as_packed(Placed(range(first, first + count), dim=dim), _units(dim, first, count, (domain.one(),), zero), domain, count)
    for m in (1, 2, 3):
        units = [tuple(domain.one() if i == j else zero for i in range(m)) for j in range(m)]
        family = _diagonal(t, m, zero)
        assert family == _stack([kron_vec(t, e, domain) for e in units], m, zero), m
        assert all(any(x is y for y in t) for x in family if not x.is_zero())
        _assert_placed_as_packed(Placed([t], range(m)), family, domain, m)


def _per_word_reference(table, N, terms, vec, zero, m):
    """sum c * A_word(vec) with each word stepped from vec letter by letter, one single-step action per letter, and
    the terms summed in their domain: the per-word loop that the walk over shared suffixes replaced, kept as the
    oracle."""
    start = _packed_act(table, N, [((), None)], vec, zero, m).values()
    out = [zero] * len(start)
    for word, c in terms:
        image = start
        for letter in reversed(word):
            image = _packed_act(table, N, [((letter,), None)], image, zero, m).values()
        out = [x + (y if c is None else c * y) for x, y in zip(out, image)]
    return tuple(out)


def _walk_domains():
    """Operators over Q, Q(zeta_3), Q(q) and Q[a, b] from _domains, and Q(zeta_4) from _lane_domains; int
    coefficients on the ring, whose actions take them, and on the fields the monomials +-1, +-2 times +-x^e, x = q,
    zeta or 2, which a field action adds as a shift and a sign (+-q^e at q = 2^step, +-2^e), or as products."""
    cases = _domains()[:4] + _lane_domains()[:1]
    return [(name, domain, entry, zero, vec, (lambda rng: rng.choice((2, -1))) if name == "polyring" else (lambda rng, d=domain: _monomial(rng, d))) for name, domain, entry, zero, vec in cases]


def _monomial(rng, field):
    x = field.q() if field.kind == "ratfunc_q" else field.e() if field.kind == "cyclotomic" else field.scalar(2)
    return field.scalar(rng.choice((1, -1, 2, -2))) * x ** rng.randint(0, 3)


@pytest.mark.parametrize("case", _walk_domains(), ids=lambda c: c[0])
def test_walk_matches_the_per_word_loop(case, monkeypatch):
    name, domain, entry, zero, vec_entry, monomial = case
    rng = random.Random("walk:" + name)
    steps, step = [], symmetry._int_step
    monkeypatch.setattr(symmetry, "_int_step", lambda *args: steps.append(args[1]) or step(*args))
    for N, w, n in ((2, 1, 4), (3, 1, 3), (2, 2, 4)):
        table = column_table(MatrixF(N ** w, N ** w, [entry(rng) for _ in range(N ** (2 * w))], domain))
        slots = range(1, n - w + 2)
        base = [tuple(rng.choice(slots) for _ in range(rng.randint(1, 3))) for _ in range(3)]
        # the empty word, repeated words, the base words' suffixes and words extending them on the left
        pool = [()] + base + [b[1:] for b in base] + [(rng.choice(slots),) + b for b in base]
        for size in (1, 3):
            vec = _stack([tuple(vec_entry(rng) for _ in range(N ** n)) for _ in range(size)], size, zero)
            for _ in range(3):
                words = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
                terms = [(wd, rng.choice((None, entry(rng), monomial(rng)))) for wd in words]
                steps.clear()
                got = _packed_act(table, N, terms, vec, zero, size)
                # one step per distinct suffix, however many words share it
                assert len(steps) == len({wd[j:] for wd in words for j in range(len(wd))}), (name, terms)
                steps.clear()
                assert got.values() == _per_word_reference(table, N, terms, vec, zero, size), (name, N, w, terms)
                # == agrees with the values, on the same terms in another order and with one term fewer
                for other in (terms[::-1], terms[:-1]):
                    theirs = _packed_act(table, N, other, vec, zero, size)
                    assert (got == theirs) == (got.values() == theirs.values()), (name, other)
                assert got == _packed_act(table, N, terms[::-1], vec, zero, size)


def _one_term_families(rng, N, n, vec_entry, zero):
    """(m, family) pairs on V^(x)n: one vector, three stacked, unit blocks and two vectors beside units."""
    size = N ** n
    t = tuple(vec_entry(rng) for _ in range(size // N))
    return [
        (1, tuple(vec_entry(rng) for _ in range(size))),
        (3, _stack([tuple(vec_entry(rng) for _ in range(size)) for _ in range(3)], 3, zero)),
        (2, Placed(range(1, 3), dim=size)),
        (2 * N, Placed([t, tuple(vec_entry(rng) for _ in t)], range(N))),
    ]


@pytest.mark.parametrize("case", _walk_domains(), ids=lambda c: c[0])
def test_one_term_chain_matches_the_per_word_loop(case, monkeypatch):
    # a single term with c None is stepped letter by letter with no tree: len(word) steps, the reference's image
    name, domain, entry, zero, vec_entry, _coeff = case
    rng = random.Random("chain:" + name)
    steps, step = [], symmetry._int_step
    monkeypatch.setattr(symmetry, "_int_step", lambda *args: steps.append(args[1]) or step(*args))
    for N, n in ((2, 3), (3, 2)):
        table = column_table(MatrixF(N, N, [entry(rng) for _ in range(N * N)], domain))
        for m, vec in _one_term_families(rng, N, n, vec_entry, zero):
            if isinstance(vec, Placed) and not isinstance(domain, FieldSpec):
                continue
            stacked = _packed_act(table, N, [((), None)], vec, zero, m).values()
            for word in ((), (1,), (n, n), (1, n, 1, 1), tuple(rng.randint(1, n) for _ in range(5))):
                steps.clear()
                got = _packed_act(table, N, [(word, None)], vec, zero, m)
                assert steps == list(reversed(word)), (name, word)
                assert got.values() == _per_word_reference(table, N, [(word, None)], stacked, zero, m), (name, N, m, word)


def _all_entries_table(A):
    """The packed table of A built from every entry, zeros included: what _build_table did before it skipped zero
    entries, kept as the oracle (field, D, cols, norm)."""
    field = A.domain
    den, mats = exactnum.mul_matrices(field, A.entries)
    span = range(len(mats[0]))
    cols = [[[(a, i, M[a][b]) for i, M in enumerate(mats[j :: A.cols]) for a in span if M[a][b]] for j in range(A.cols)] for b in span]
    norm = max(sum(abs(c) for M in mats[i * A.cols : (i + 1) * A.cols] for p in M[a] for c in p) for i in range(A.rows) for a in span)
    return field, den, cols, norm


def _table_cases():
    """Operators over Q, Q(zeta_3), Q(zeta_4) and Q(q): dj(2..5), flips, seeded dense conjugates, one nonzero entry."""
    cases = {"dj%d" % N: lambda N=N: dj_standard(N, validate=False).R for N in range(2, 6)}
    cases.update({"flip%d" % N: lambda N=N: flip(N).R for N in (2, 3)})
    for name, field in (("q=2", _rational_q(2)), ("cyc3", cyclotomic_field(3, q_power=1)), ("cyc4", cyclotomic_field(4, q_power=1)), ("generic", GENERIC_Q)):
        cases["conj-" + name] = lambda field=field: _conjugate(2, field, 21).R
        single = [field.zero()] * 9
        single[5] = field.q() / (field.q() + field.scalar(3)) if field.kind == "ratfunc_q" else field.scalar(Fraction(-5, 3))
        cases["single-" + name] = lambda single=single, field=field: MatrixF(3, 3, single, field)
    return cases


@pytest.mark.parametrize("case", sorted(_table_cases()))
def test_table_from_nonzero_entries_matches_all_entries(case):
    A = _table_cases()[case]()
    _ring, (field, den, cols, norm, at) = symmetry._build_table(A)
    assert (field, den, cols, norm) == _all_entries_table(A) and at == {}, case


def test_dj5_table_packs_only_nonzero_entries(monkeypatch):
    R, packed = dj_standard(5, validate=False).R, []
    real = symmetry.mul_matrices
    monkeypatch.setattr(symmetry, "mul_matrices", lambda field, xs: packed.append(list(xs)) or real(field, xs))
    symmetry._build_table(R)
    # column by column, as the table lists them
    nonzero = [x for j in range(R.cols) for x in R.entries[j :: R.cols] if not x.is_zero()]
    assert len(packed) == 1 and len(R.entries) == 625 and packed[0] == nonzero and len(nonzero) < 625 // 10


@pytest.mark.parametrize("make", [lambda: dj_standard(2), lambda: dj_standard(3), lambda: dj_standard(3, cyclotomic_field(3, q_power=1)), lambda: flip(3)], ids=["dj2", "dj3", "dj3-cyc3", "flip3"])
def test_quadratic_relation_steps_twice(make, monkeypatch):
    # R^2 + (1 - q) R - q Id: the words (1, 1) and (1,) share their one-letter suffix, so the action makes two steps
    sym, steps, step = make(), [], symmetry._int_step
    monkeypatch.setattr(symmetry, "_int_step", lambda *args: steps.append(args[1]) or step(*args))
    assert check_hecke(sym.R, sym.q) == (True, "")
    assert steps == [1, 1]


def test_slot_action_range_errors():
    A = MatrixF.identity(4, F)
    vec = (F.one(),) * 8
    _packed_act(column_table(A), 2, [((2,), None)], vec, F.zero()).values()
    for first in (0, 3):
        with pytest.raises(ValueError):
            _packed_act(column_table(A), 2, [((first,), None)], vec, F.zero()).values()
    with pytest.raises(ValueError):
        apply_power(MatrixF.identity(2, F), 2, vec)


def test_ring_action_makes_no_constants(monkeypatch):
    # obstruction case 3's swap braiding theta on the relations over Q[a, c, lam]
    ring = PolyRing(("a", "c", "lam"))
    a, c, lam = ring.vars()
    z = ring.zero()
    rels = skl_relations(SklParameters(a, a, c, ring))
    theta = MatrixF.from_rows([[z, lam, z], [lam, z, z], [z, z, lam]], ring)
    # theta (x) Id + c theta (x) theta + Id on V^(x)2, a coefficient of None meaning 1
    terms = [((1,), None), ((2, 1), c), ((), None)]
    dense = kron_power(theta, 2)
    expected = [_dense_apply(dense, t, z) for t in rels]
    combined = kronecker(theta, MatrixF.identity(3, ring)) + dense.scale(c) + MatrixF.identity(9, ring)
    expected_sum = [_dense_apply(combined, t, z) for t in rels]
    calls = []
    real = PolyRing.const
    monkeypatch.setattr(PolyRing, "const", lambda self, value: calls.append(value) or real(self, value))
    got = [apply_power(theta, 2, t) for t in rels]
    got_sum = [_packed_act(column_table(theta), 3, terms, t, z).values() for t in rels]
    assert calls == []
    assert got == expected and got_sum == expected_sum
    assert got == [tuple(lam * lam * x for x in rels[j]) for j in (1, 0, 2)]


def test_scalar_operator_on_ring_vectors_coerces_each_entry_once(monkeypatch):
    # theta^(x)3 on the symbolic tensor t, as regular3.preserves_relations runs it
    gens = hessian_generators()
    ring = PolyRing(("a", "b", "c"), order=gens["cycle"].matrix.domain.order)
    t = skl_tensor(SklParameters(*ring.vars(), ring))
    z = ring.zero()
    expected = {name: _dense_apply(kron_power(g.matrix, 3), t, z) for name, g in gens.items()}
    calls = []
    real = PolyRing.const
    monkeypatch.setattr(PolyRing, "const", lambda self, value: calls.append(value) or real(self, value))
    for name, g in sorted(gens.items()):
        calls.clear()
        assert apply_power(g.matrix, 3, t, z) == expected[name], name
        assert len(calls) <= sum(not x.is_zero() for x in g.matrix.entries), (name, len(calls))


# ---------------------------------------------------------------------------
# the packed integer action against the generic Scalar action and the dense
# Kronecker and permutation-matrix references


ORACLE_FIELDS = [FieldSpec("rational")] + [cyclotomic_field(m) for m in (1, 3, 4, 5, 8, 12)] + [GENERIC_Q, FieldSpec("ratfunc_q", 3)]


def _ratfunc_pools(field):
    """Denominator pools for ratfunc_q entries; the sums they give unpack by an
    integer division, by cancelling a power of q, and by a gcd."""
    qq = field.q()
    general = (2, qq - 1, (qq + 1) ** 2, qq ** 3) + ((qq - field.e(),) if field.order > 1 else ())
    return [(2,), (2, qq, qq ** 3), general]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_packed_action_matches_generic_branch(field):
    rng = random.Random("packed:%s:%d" % (field.kind, field.order))
    deg = len(field.one().num[0])
    zero = field.zero()
    ratfunc = field.kind == "ratfunc_q"
    pools = _ratfunc_pools(field) if ratfunc else [()]

    def entry(p_zero):
        if rng.random() < p_zero:
            return zero
        if ratfunc:
            # one vector mixes the denominators of its pool
            num = sum((field.from_cyc([rng.randint(-3, 3) for _ in range(deg)]) * field.q() ** k for k in range(rng.randint(1, 3))), zero)
            return num / rng.choice((1,) + pool)
        # non-integral entries make the denominator grow along a word
        return field.from_cyc([Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7))) for _ in range(deg)])

    # rational functions grow fast along a word in the generic branch, so ratfunc_q takes the smaller cases
    shapes = ((2, 1, 3), (3, 1, 2), (2, 2, 3), (2, 2, 4), (3, 2, 3))
    if ratfunc:
        shapes = shapes[:3] if field.order == 1 else shapes[:1]
    for pool in pools:
        for N, w, n in shapes:
            m = N ** w
            table = column_table(MatrixF(m, m, [entry(0.3) for _ in range(m * m)], field))
            generic = (table[0], None)
            assert table[1] is not None
            slots = range(1, n - w + 2)
            for trial in range(4):
                vec = [zero] * N ** n if trial == 0 else [entry(0.4) for _ in range(N ** n)]
                words = [tuple(rng.choice(slots) for _ in range(rng.randint(0, 3))) for _ in range(3)]
                c = entry(0)
                terms = list(zip(words, (None, entry(0), entry(0.5)))) + [(words[1], c), (words[1], -c)]
                for ts in (terms, terms[:1], terms[-2:], []):
                    got = _packed_act(table, N, ts, vec, zero).values()
                    want = _packed_act(generic, N, ts, vec, zero).values()
                    assert got == want, (N, w, n, ts)
                    assert list(map(hash, got)) == list(map(hash, want))
                    assert len(got) == N ** n and all(x.field is field for x in got)
                # the last two terms cancel
                assert all(x.is_zero() for x in _packed_act(table, N, terms[-2:], vec, zero).values())
                if ratfunc and w == 1 and trial:
                    A = MatrixF(N, N, [entry(0.3) for _ in range(N * N)], field)
                    power = [(range(1, n + 1), None)]
                    assert apply_power(A, n, vec) == _packed_act((column_table(A)[0], None), N, power, vec, zero).values()


RATFUNC_SYMMETRIES = {
    "dj2": lambda: dj_standard(2),
    "dj3": lambda: dj_standard(3),
    "dj4": lambda: dj_standard(4),
    "dj2-conj-generic": lambda: _conjugate(2, GENERIC_Q, 11),
}


@pytest.mark.parametrize("case", sorted(RATFUNC_SYMMETRIES))
def test_packed_ratfunc_action_of_hecke_elements(case):
    sym = RATFUNC_SYMMETRIES[case]()
    table, F = column_table(sym.R), sym.field
    generic, zero = (table[0], None), F.zero()
    rng = random.Random("ratfunc:" + case)
    for n, pool in zip((2, 3, 3), _ratfunc_pools(F)):
        if sym.N ** n > 64:
            n = 2
        dens = (1,) + pool
        extra = [((n - 1,), (q - 1) / (q + 1)), ((), q ** -2), ((1, n - 1), q / (q + 1) ** 2)]
        for terms in ([(word, c) for _p, word, c in antisymmetrizer(n, F).field_terms()], extra):
            vec = [zero if rng.random() < 0.3 else (rng.randint(-3, 3) * q + rng.randint(-3, 3)) / rng.choice(dens) for _ in range(sym.N ** n)]
            got = _packed_act(table, sym.N, terms, vec, zero).values()
            want = _packed_act(generic, sym.N, terms, vec, zero).values()
            assert got == want and list(map(hash, got)) == list(map(hash, want)), (case, n)


@pytest.mark.parametrize("field", [FieldSpec("rational"), cyclotomic_field(3), GENERIC_Q, FieldSpec("ratfunc_q", 3)], ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_packed_verdicts_match_scalar_comparison(field):
    # A and B = A + E agree on families whose two slot-1 halves are equal, since E = [[c, -c], [d, -d]] kills
    # them, but E gives B another denominator and so another lane width: the packed comparison of the two
    # actions must say what the comparison of their Scalars says, and a vanishing one must read zero
    rng = random.Random("verdicts:%s:%d" % (field.kind, field.order))
    deg, zero, ratfunc = len(field.one().num[0]), field.zero(), field.kind == "ratfunc_q"

    def entry():
        c = field.from_cyc([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(deg)])
        return c * field.q() + 1 if ratfunc and rng.random() < 0.5 else c

    terms = [((1,), None), ((), entry())]
    for trial in range(8):
        A = MatrixF(2, 2, [entry() for _ in range(4)], field)
        c, d = entry() or field.one(), (entry() or field.one()) / (field.q() + 1 if ratfunc else 3)
        B = A + MatrixF(2, 2, [c, -c, d, -d], field)
        for m in (1, 3):
            halves = [[entry() for _ in range(4)] for _ in range(m)]
            vec = _stack([h + h for h in halves], m, zero)
            pa, pb = (_packed_act(column_table(X), 2, terms[: 1 + trial % 2], vec, zero, m) for X in (A, B))
            assert pa == pb and pb == pa, (trial, m)
            zeros = _packed_act(column_table(A - B), 2, terms[:1], vec, zero, m)
            assert _packed_vanishes([zeros], lambda: pytest.fail("a vanishing action unpacked")) == (True, "")
            bad = list(vec)
            bad[rng.randrange(len(bad))] += field.one()
            pc = _packed_act(column_table(B), 2, terms[: 1 + trial % 2], bad, zero, m)
            assert (pa == pc) == (pa.values() == pc.values()) is False, (trial, m)
            assert _packed_vanishes([_packed_act(column_table(A - B), 2, terms[:1], bad, zero, m)], lambda: MatrixF(1, 1, [field.one()], field)) == (False, "entry (0,0) = 1")


@pytest.mark.parametrize("shift", ["0", "a"])
def test_packed_vanishes_decides_ring_families(shift):
    # theta^2 - lam^2 Id + shift on the units of Q[a, lam]^2, theta = lam times the swap: a MultiPoly family,
    # which Packed.vanishes decides on its values as _vanishes does, building the matrix only for a witness
    ring = PolyRing(("a", "lam"))
    a, lam = ring.vars()
    z = ring.zero()
    theta = MatrixF.from_rows([[z, lam], [lam, z]], ring)
    c = (a if shift == "a" else z) - lam * lam
    pack = _packed_act(column_table(theta), 2, [((1, 1), None), ((), c)], MatrixF.identity(2, ring).entries, z, 2)
    values = MatrixF(2, 2, pack.values(), ring)
    assert pack.field is None and all(isinstance(x, type(z)) for x in values.entries)
    want = _vanishes(values)
    assert want == ((True, "") if shift == "0" else (False, "entry (0,0) = a"))
    assert pack.vanishes() is want[0]
    built = []
    assert _packed_vanishes([pack], lambda: built.append(1) or values) == want
    assert len(built) == (not want[0])


def test_unit_vectors_unpack_without_gcd(monkeypatch):
    from heckesym import exactnum

    sym = dj_standard(3)
    F = sym.field
    zero, one = F.zero(), F.one()
    units = [[one if k == j else zero for k in range(27)] for j in range(27)]
    elements = [[(word, c) for _p, word, c in antisymmetrizer(3, F).field_terms()], [((1, 2, 1), None), ((2,), q - 1), ((), -q)]]
    calls = []
    real = exactnum._gcd
    monkeypatch.setattr(exactnum, "_gcd", lambda *a: calls.append(a) or real(*a))
    for terms in elements:
        for e in units:
            _packed_act(column_table(sym.R), 3, terms, e, zero).values()
    assert calls == []


def test_packed_action_keeps_the_validations():
    rat = _rational_q(2)
    A = column_table(MatrixF.identity(4, rat))
    vec = (rat.one(),) * 8
    for first in (0, 3):
        with pytest.raises(ValueError):
            _packed_act(A, 2, [((first,), None)], vec, rat.zero()).values()
    C3 = cyclotomic_field(3)
    with pytest.raises(ValueError):
        _packed_act(A, 2, [((1,), None)], (C3.one(),) * 8, rat.zero()).values()
    with pytest.raises(ValueError):
        apply_power(MatrixF.identity(2, rat), 3, (C3.one(),) * 8)
    # the same over ratfunc_q: a vector or a coefficient from another field
    A = column_table(MatrixF.identity(4, F))
    Fq3 = FieldSpec("ratfunc_q", 3)
    for vec, terms in (((Fq3.one(),) * 8, [((1,), None)]), ((C3.one(),) * 8, [((1,), None)]), ((F.one(),) * 8, [((1,), Fq3.q())])):
        with pytest.raises(ValueError):
            _packed_act(A, 2, terms, vec, F.zero()).values()
    sym = dj_standard(2, rat)
    for call in (
        lambda: sym.apply_generator(2, 2, (rat.one(),) * 4),
        lambda: sym.apply_generator(1, 3, (rat.one(),) * 4),
        lambda: sym.apply_perm_word((1, 3), 3, (rat.one(),) * 8),
        lambda: sym.apply_generator(1, 2, (C3.one(),) * 4),
        lambda: sym.apply_hecke(generator(1, 2), 2, (rat.one(),) * 4),
        lambda: sym.rep_matrix(generator(1, 3, rat), 2),
        # with N = 1 every slot range fits, so only the generator range check catches these
        lambda: dj_standard(1, rat).apply_generator(3, 3, (rat.one(),)),
        lambda: dj_standard(1, rat).apply_perm_word((1, 0), 3, (rat.one(),)),
    ):
        with pytest.raises(ValueError):
            call()


def kron_braid_defect(R):
    """(R (x) I)(I (x) R)(R (x) I) - (I (x) R)(R (x) I)(I (x) R) from Kronecker products."""
    I = MatrixF.identity(math.isqrt(R.rows), R.domain)
    R12, R23 = kronecker(R, I), kronecker(I, R)
    return R12 * R23 * R12 - R23 * R12 * R23


def _obstruction_rn():
    """The case-2 operator of the obstruction, which fails the braid equation."""
    C3q = cyclotomic_field(3, q_power=1)
    qn = C3q.q()
    gn = [C3q.zero()] * 27
    gn[tensor_index((3, 3, 3), 3)] = C3q.scalar(Fraction(1, 2))
    eps = primitive_root(3, C3q)
    Pn = _projection(gn, skl_relations(SklParameters.numeric(1, 1, 2, C3q)), C3q, [eps ** -i for i in (1, 2, 3)])
    return MatrixF.identity(9, C3q).scale(qn) - Pn.scale(qn + 1)


BRAID_CASES = {
    "dj2": lambda: dj_standard(2).R,
    "dj3": lambda: dj_standard(3).R,
    "flip3": lambda: flip(3).R,
    "dj2-conj-generic": lambda: _conjugate(2, GENERIC_Q, 11).R,
    "dj3-conj-q=2": lambda: _conjugate(3, _rational_q(2), 13).R,
    "dj3-conj-cyc3": lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14).R,
    "obstruction-Rn": _obstruction_rn,
}


@pytest.mark.parametrize("case", sorted(BRAID_CASES))
def test_braid_defect_matches_kronecker_reference(case):
    R = BRAID_CASES[case]()
    # a perturbed copy has a nonzero defect to compare
    entries = list(R.entries)
    entries[1] = entries[1] + R.domain.scalar(Fraction(2, 3))
    for M in (R, MatrixF(R.rows, R.cols, entries, R.domain)):
        dense = kron_braid_defect(M)
        assert braid_defect(M) == dense
        assert check_braid(M) == _vanishes(dense)
    if case == "obstruction-Rn":
        ok, witness = check_braid(R)
        assert not ok and witness.startswith("entry (")
    else:
        assert braid_defect(R).is_zero()


def test_braid_defect_over_a_polynomial_ring():
    # dj(2) with q a variable of Q[a] is a Hecke symmetry over that ring; its units are the identity's entries
    ring = PolyRing(("a",))
    a = ring.vars()[0]
    R = dj_standard(2).R
    image = {F.zero(): ring.zero(), F.one(): ring.one(), q: a, q - 1: a - ring.one()}
    entries = [image[x] for x in R.entries]
    for M in (MatrixF(4, 4, entries, ring), MatrixF(4, 4, entries[:1] + [entries[1] + a] + entries[2:], ring)):
        dense = kron_braid_defect(M)
        assert braid_defect(M) == dense
        assert check_braid(M) == _vanishes(dense)
        assert dense.is_zero() == (M.entries == tuple(entries))


def _reference_blocks(table, N, dim, width, terms, domain):
    """The packed actions of sum c * A_word on the units of k^dim, one per width columns, each on the Scalar family of
    its units (_units): the path of the relation checks and dense matrices before the unit families were placed."""
    zero = domain.zero()
    return [_packed_act(table, N, terms, _units(dim, j, width, (domain.one(),), zero), zero, width) for j in range(0, dim, width)]


def _reference_matrix(table, N, dim, width, terms, domain, blocks=None):
    """The dim x dim matrix of sum c * A_word, read off _reference_blocks."""
    blocks = [b.values() for b in blocks or _reference_blocks(table, N, dim, width, terms, domain)]
    return MatrixF(dim, dim, [x for i in range(dim) for b in blocks for x in b[i * width : (i + 1) * width]], domain)


def _reference_vanishing(table, N, dim, width, terms, domain):
    blocks = _reference_blocks(table, N, dim, width, terms, domain)
    return _packed_vanishes(blocks, lambda: _reference_matrix(table, N, dim, width, terms, domain, blocks))


def _reference_hecke(R, q):
    """check_hecke on the Scalar family of all N^2 units, one action (R on one slot of k^(N^2))."""
    return _reference_vanishing(column_table(R), R.rows, R.rows, R.rows, [((1, 1), None), ((1,), 1 - q), ((), -q)], R.domain)


def _reference_braid_args(R):
    """_reference_matrix's arguments for the braid defect, N columns per action."""
    N = math.isqrt(R.rows)
    return column_table(R), N, N ** 3, N, [((1, 2, 1), None), ((2, 1, 2), -R.domain.one())], R.domain


ORACLE_FIELDS = {
    "q=2": _rational_q(2),
    "q=3": _rational_q(3),
    "cyc3": cyclotomic_field(3, q_power=1),
    "cyc4": cyclotomic_field(4, q_power=1),
    "generic": GENERIC_Q,
    "generic-cyc3": FieldSpec("ratfunc_q", 3),
}
ORACLE_CASES = [(name, N, conj) for name in ORACLE_FIELDS for N in (2, 3, 4) for conj in (False, True) if not (conj and N == 4)]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "%s-dj%d%s" % (c[0], c[1], "-conj" if c[2] else ""))
def test_placed_unit_actions_match_the_scalar_family_path(case):
    name, N, conj = case
    field = ORACLE_FIELDS[name]
    sym = _conjugate(N, field, 20 + N) if conj else dj_standard(N, field)
    rng = random.Random("oracle:%s:%d:%s" % case)
    entries = list(sym.R.entries)
    k = rng.randrange(len(entries))
    entries[k] = entries[k] + field.scalar(rng.choice((1, -2, Fraction(1, 3))))
    for R in (sym.R, MatrixF(sym.R.rows, sym.R.cols, entries, field)):
        assert check_hecke(R, sym.q) == _reference_hecke(R, sym.q)
        assert (check_hecke(R, sym.q)[0] and check_braid(R)[0]) == (R is sym.R)
        assert check_braid(R) == _reference_vanishing(*_reference_braid_args(R))
        assert braid_defect(R) == _reference_matrix(*_reference_braid_args(R))
        other = HeckeSymmetry(N, sym.q, R, validate=False)
        table, n = column_table(R), 3 if N < 4 else 2
        h = antisymmetrizer(n, field) + generator(1, n, field).scale(field.scalar(2))
        for M, terms in (
            (other.generator_matrix(n - 1, n), [((n - 1,), None)]),
            (other.perm_matrix(longest_element(n), n), [(longest_element(n).reduced_word(), None)]),
            (other.rep_matrix(h, n), other._hecke_terms(h, n)),
        ):
            assert M == _reference_matrix(table, N, N ** n, 1, terms, field)
    # the unit blocks of each width pack as their Scalar families do
    for width in {N * N, N ** 3}:
        for first in range(0, N ** 3, width):
            _assert_placed_as_packed(Placed(range(first, first + width), dim=N ** 3), _units(N ** 3, first, width, (field.one(),), field.zero()), field, width)


@pytest.mark.parametrize(
    "make, braid_actions",
    [
        (lambda: dj_standard(3), 3),
        (lambda: dj_standard(4, FieldSpec("ratfunc_q", 3)), 4),
        (lambda: dj_standard(4, _rational_q(2)), 1),
        (lambda: _conjugate(3, cyclotomic_field(3, q_power=1), 14), 1),
    ],
)
def test_relation_checks_make_one_action_per_block(make, braid_actions, monkeypatch):
    # one action on all N^3 unit columns over a constant field, one per N^2 columns at generic q; the
    # unit families are placed, so no Scalar family reaches pack_q
    sym = make()
    R, q = sym.R, sym.q
    N = math.isqrt(R.rows)
    acts, real = [], symmetry._packed_act
    monkeypatch.setattr(symmetry, "_packed_act", lambda *args: acts.append((len(args[3]), args[5])) or real(*args))
    monkeypatch.setattr(symmetry, "pack_q", lambda *args: pytest.fail("a relation check packed a Scalar family"))
    assert check_braid(R) == (True, "")
    width = N ** 3 // braid_actions
    assert acts == [(N ** 3 * width, width)] * braid_actions
    acts.clear()
    assert check_hecke(R, q) == (True, "")
    assert acts == [(N ** 4, N * N)]


def test_braid_check_peak_memory():
    # the placed unit lanes on N^3 = 1000 columns: flip(10) over Q in one action (2.9 MB measured), dj(10) at
    # generic q in ten actions of 100 lanes (0.4 MB); the Scalar families of 10 columns peaked at 1.1 MB for each
    for sym, bound in ((flip(10, validate=False), 4e6), (dj_standard(10, validate=False), 1e6)):
        column_table(sym.R)
        tracemalloc.start()
        try:
            assert check_braid(sym.R) == (True, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (sym, peak)


def perm_matrix_sum(sym, h, n):
    """Matrix of h on V^(x)n as the sum of c * T_sigma over its terms, from the Kronecker references."""
    dim = sym.N ** n
    out = MatrixF(dim, dim, [sym.field.zero()] * (dim * dim), sym.field)
    for p, _word, c in h.field_terms():
        padded = Perm(p.word + tuple(range(p.degree + 1, n + 1)))
        out = out + _perm_matrix_reference(sym, padded, n).scale(c)
    return out


@pytest.mark.parametrize("case", sorted(set(BRAID_CASES) - {"obstruction-Rn"}))
def test_rep_matrix_matches_perm_matrix_sum(case):
    R = BRAID_CASES[case]()
    N = math.isqrt(R.rows)
    field = R.domain
    sym = HeckeSymmetry(N, field.q(), R, validate=False)
    rng = random.Random("rep:" + case)
    perms = list(enumerate_perms(3))
    elements = [(antisymmetrizer(3, field), 3), (generator(1, 2, field), 3), (antisymmetrizer(2, field), 2)]
    for _ in range(2):
        h = basis_element(rng.choice(perms), field).scale(rng.choice((-3, -2, 2, 3)))
        elements.append((h + basis_element(rng.choice(perms), field), 3))
    if N == 2:
        perms4 = list(enumerate_perms(4))
        h = basis_element(rng.choice(perms4), field).scale(rng.choice((-2, 3)))
        elements.append((h + basis_element(rng.choice(perms4), field), 4))
    for h, n in elements:
        assert sym.rep_matrix(h, n) == perm_matrix_sum(sym, h, n), (case, n)


@pytest.mark.parametrize("case", sorted(set(BRAID_CASES) - {"obstruction-Rn"}))
def test_dense_matrices_match_kronecker_references(case, monkeypatch):
    R = BRAID_CASES[case]()
    N = math.isqrt(R.rows)
    field = R.domain
    sym = HeckeSymmetry(N, field.q(), R, validate=False)
    rng = random.Random("dense:" + case)
    for n in range(1, 5):
        for i in range(1, n):
            assert sym.generator_matrix(i, n) == _generator_matrix_reference(sym, i, n), (case, i, n)
        # the dense reference products stay small: V^(x)n of dimension at most 27
        if N ** n <= 27:
            perms = list(enumerate_perms(n))
            for p in [Perm(tuple(range(1, n + 1))), longest_element(n)] + rng.sample(perms, min(2, len(perms))):
                assert sym.perm_matrix(p, n) == _perm_matrix_reference(sym, p, n), (case, p, n)
    for i, n in ((0, 3), (3, 3), (1, 1)):
        with pytest.raises(ValueError, match="generator index out of range"):
            sym.generator_matrix(i, n)
    with pytest.raises(ValueError, match="generator index out of range"):
        sym.perm_matrix(longest_element(4), 3)
    # over the cap each one is refused before any matrix is allocated
    monkeypatch.setattr(symmetry, "_matrix_of", lambda *args: pytest.fail("matrix built over the cap"))
    monkeypatch.setattr(symmetry, "MatrixF", None)
    n = next(n for n in range(2, 40) if N ** n > TENSOR_DIM_CAP)
    for call in (
        lambda: sym.generator_matrix(1, n),
        lambda: sym.perm_matrix(longest_element(3), n),
        lambda: sym.rep_matrix(antisymmetrizer(2, field), n),
    ):
        with pytest.raises(SymmetryError, match="^tensor dimension %d exceeds the cap$" % N ** n):
            call()


def test_no_kronecker_products(monkeypatch):
    # the north-star rule: every operator on V^(x)n goes through the slot action, and no
    # Kronecker power of a matrix is formed, so no product of N^2 x N^2 matrices is taken
    assert not hasattr(MatrixF, "kronecker")
    shapes = []
    real = MatrixF.__mul__
    monkeypatch.setattr(MatrixF, "__mul__", lambda a, b: shapes.extend([(a.rows, a.cols), (b.rows, b.cols)]) or real(a, b))
    sym = dj_standard(2)
    prof = analyze(sym)
    verify_operator_identities(prof)
    sym.generator_matrix(1, 3)
    sym.perm_matrix(longest_element(3), 3)
    sym.rep_matrix(antisymmetrizer(3), 3)
    assert shapes and (4, 4) not in shapes


def _count_table_builds(monkeypatch) -> list:
    """The list that every table build (symmetry._build_table) appends its matrix to, while monkeypatch holds."""
    built = []
    real = symmetry._build_table

    def counting(A):
        built.append(A)
        return real(A)

    monkeypatch.setattr(symmetry, "_build_table", counting)
    return built


def test_packed_table_built_once_per_symmetry(monkeypatch):
    built = _count_table_builds(monkeypatch)
    sym = _conjugate(3, cyclotomic_field(3, q_power=1), 14)
    prof = analyze(sym)
    verify_operator_identities(prof)
    trace_table(prof)
    assert sum(A is sym.R for A in built) == 1
    assert sym.R._table[1] is not None
    # no module-level state keeps the symmetry, or its tables, alive
    ref = weakref.ref(sym)
    del sym, prof
    gc.collect()
    assert ref() is None
