import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, GENERIC_Q, Scalar, cyclotomic_field, primitive_root
from heckesym.linalg import MatrixF, Subspace, first_minor, vec_pivot, vec_scale
from heckesym.multipoly import PolyRing
from test_symmetry import _dense_apply, _domains, kronecker

F = FieldSpec("rational")


def rand_matrix(rng, r, c, field=F):
    return MatrixF(
        r, c, [field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(r * c)], field
    )


def test_rref_idempotent_and_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        A = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        R, piv = A.rref()
        R2, piv2 = R.rref()
        assert (R, piv) == (R2, piv2)
        assert len(piv) + A.kernel().dim == A.cols
        assert A.image().dim == len(piv)
        # kernel vectors are annihilated
        for v in A.kernel().basis:
            assert all(x.is_zero() for x in A.apply(v))


def test_kernel_of_identity_is_zero():
    assert MatrixF.identity(4, F).kernel().dim == 0


def _kernel_two_eliminations(A):
    """The kernel as MatrixF.kernel built it before one elimination sufficed: e_f - sum_r R[r, f] e_(p_r) for each
    free column f of A's RREF, row-reduced again by Subspace.from_vectors (the oracle)."""
    R, pivots = A.rref()
    zero, one = A.domain.zero(), A.domain.one()
    basis = []
    for j in (j for j in range(A.cols) if j not in pivots):
        v = [zero] * A.cols
        v[j] = one
        for r, pc in enumerate(pivots):
            if R[r, j]:
                v[pc] = -R[r, j]
        basis.append(tuple(v))
    return Subspace.from_vectors(basis, A.cols, A.domain)


@pytest.mark.parametrize("field", [F, cyclotomic_field(3), GENERIC_Q], ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_kernel_matches_two_eliminations(field, monkeypatch):
    # sparse and low-rank matrices from 1 x 1 to 7 x 7: the same canonical basis, with one row reduction and no
    # Subspace.from_vectors
    rng = random.Random("kernel:%s:%d" % (field.kind, field.order))
    small = lambda: rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 3)))
    entry = {"rational": lambda: field.scalar(small()), "cyclotomic": lambda: small() * field.one() + small() * field.e()}.get(
        field.kind, lambda: small() * field.q() + small()
    )
    cases = []
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        A = MatrixF(r, c, [entry() for _ in range(r * c)], field)
        if rng.random() < 0.3 and r > 1:
            # a repeated row lowers the rank
            A = MatrixF.from_rows(A.row_list()[:-1] + [A.row(0)], field)
        cases.append((A, _kernel_two_eliminations(A)))
    calls = []
    rref = MatrixF.rref
    monkeypatch.setattr(MatrixF, "rref", lambda self: calls.append(1) or rref(self))
    monkeypatch.setattr(Subspace, "from_vectors", lambda *a: pytest.fail("kernel row-reduced its basis again"))
    for A, want in cases:
        calls.clear()
        assert A.kernel() == want, (A.rows, A.cols)
        assert len(calls) == 1


def test_subspace_dim_formula():
    rng = random.Random(12)
    for _ in range(25):
        amb = 8
        U = Subspace.from_vectors([rand_matrix(rng, 1, amb).row(0) for _ in range(rng.randint(0, 5))], amb, F)
        V = Subspace.from_vectors([rand_matrix(rng, 1, amb).row(0) for _ in range(rng.randint(0, 5))], amb, F)
        s, i = U.sum(V), U.intersect(V)
        assert s.dim + i.dim == U.dim + V.dim
        assert all(U.contains(row) and V.contains(row) for row in i.basis)
        assert all(s.contains(row) for row in U.basis + V.basis)


def test_intersect_with_ambient():
    rng = random.Random(13)
    full = Subspace.full(5, F)
    U = Subspace.from_vectors([rand_matrix(rng, 1, 5).row(0) for _ in range(3)], 5, F)
    assert U.intersect(full) == U
    assert U.sum(full) == full


def test_solve_and_inverse():
    A = MatrixF.from_rows([[F.scalar(2), F.scalar(1)], [F.scalar(1), F.scalar(1)]], F)
    assert A.solve(MatrixF(2, 1, (F.scalar(3), F.scalar(2)), F)).entries == (F.scalar(1), F.scalar(1))
    assert A * A.inverse() == MatrixF.identity(2, F)
    singular = MatrixF.from_rows([[F.scalar(1), F.scalar(1)], [F.scalar(1), F.scalar(1)]], F)
    assert singular.solve(MatrixF(2, 1, (F.scalar(0), F.scalar(1)), F)) is None
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def _solve_column_reference(A, b):
    """One solution of A x = b, free unknowns zero, by a row reduction of [A | b] of its own, or None."""
    R, pivots = MatrixF.from_rows([A.row(i) + (b[i],) for i in range(A.rows)], A.domain).rref()
    if A.cols in pivots:
        return None
    x = [A.domain.zero()] * A.cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r, A.cols]
    return tuple(x)


@pytest.mark.parametrize("field", [F, cyclotomic_field(3), GENERIC_Q], ids=lambda f: f.kind)
def test_solve_matches_column_by_column_solves(field):
    rng = random.Random("solve:" + field.kind)
    entry = lambda: field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * (field.q() if field.kind == "ratfunc_q" and rng.random() < 0.3 else field.one())
    shapes = [(3, 3, 0), (3, 3, 1), (4, 2, 0), (2, 4, 0), (4, 4, 2), (1, 3, 0), (3, 1, 0)]
    inconsistent = set()
    for rows, cols, defect in shapes:
        for trial in range(4):
            A = MatrixF(rows, cols, [entry() for _ in range(rows * cols)], field)
            if defect:
                # a singular A: its last columns repeat combinations of the first ones
                keep = MatrixF(rows, cols - defect, [A[i, j] for i in range(rows) for j in range(cols - defect)], field)
                mix = MatrixF(cols - defect, defect, [entry() for _ in range((cols - defect) * defect)], field)
                tail = keep * mix
                A = MatrixF(rows, cols, [x for i in range(rows) for x in keep.row(i) + tail.row(i)], field)
            width = rng.randint(1, 4)
            # consistent right-hand sides, then one inconsistent column where A has a cokernel
            B = A * MatrixF(cols, width, [entry() for _ in range(cols * width)], field)
            if trial % 2 and A.rank() < rows:
                B = B + MatrixF(rows, width, [entry() for _ in range(rows * width)], field)
            cols_ref = [_solve_column_reference(A, B.col(j)) for j in range(width)]
            X = A.solve(B)
            inconsistent.add((None in cols_ref, A.rank() < cols))
            if None in cols_ref:
                assert X is None, (rows, cols, defect, trial)
            else:
                assert X == MatrixF(cols, width, [c[i] for i in range(cols) for c in cols_ref], field)
                assert A * X == B
    # inconsistent systems, and consistent ones with free unknowns, were both met
    assert (True, True) in inconsistent and (False, True) in inconsistent and (False, False) in inconsistent
    # the inverse is the solve against the identity
    for n in (1, 2, 4):
        A = MatrixF(n, n, [entry() for _ in range(n * n)], field)
        if A.rank() == n:
            assert A.inverse() == A.solve(MatrixF.identity(n, field))
            assert A * A.inverse() == MatrixF.identity(n, field)
    singular = MatrixF(2, 2, [field.one()] * 4, field)
    assert singular.solve(MatrixF.identity(2, field)) is None
    with pytest.raises(ZeroDivisionError):
        singular.inverse()
    with pytest.raises(ValueError):
        singular.solve(MatrixF(3, 1, [field.one()] * 3, field))


def test_kronecker_and_trace():
    q = GENERIC_Q.q()
    A = MatrixF.from_rows([[q, GENERIC_Q.zero()], [GENERIC_Q.one(), q]], GENERIC_Q)
    B = MatrixF.identity(2, GENERIC_Q)
    K = kronecker(A, B)
    assert K.rows == 4 and K.trace() == 4 * q
    assert kronecker(kronecker(A, B), A) == kronecker(A, kronecker(B, A))


def _kronecker_reference(A, B):
    """A (x) B entry by entry: the reference for the row-by-row kronecker of the tests."""
    n, m, p, q = A.rows, A.cols, B.rows, B.cols
    out = [A.domain.zero()] * (n * p * m * q)
    for i in range(n):
        for j in range(m):
            a = A.entries[i * m + j]
            if a.is_zero():
                continue
            for k in range(p):
                base = (i * p + k) * (m * q) + j * q
                for l in range(q):
                    b = B.entries[k * q + l]
                    if not b.is_zero():
                        out[base + l] = a * b
    return MatrixF(n * p, m * q, out, A.domain)


@pytest.mark.parametrize("case", [c for c in _domains() if c[0] != "scalar-on-poly"], ids=lambda c: c[0])
def test_kronecker_matches_entry_loops(case):
    name, domain, entry, _zero, _vec_entry = case
    rng = random.Random("kronecker:" + name)
    shapes = [(0, 2), (1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]
    for r1, c1 in shapes:
        for r2, c2 in shapes:
            A = MatrixF(r1, c1, [entry(rng) for _ in range(r1 * c1)], domain)
            B = MatrixF(r2, c2, [entry(rng) for _ in range(r2 * c2)], domain)
            assert kronecker(A, B) == _kronecker_reference(A, B), (r1, c1, r2, c2)


def test_scale_multiplies_no_zero(monkeypatch):
    C3 = cyclotomic_field(3)
    q = GENERIC_Q.q()
    for field, c in ((F, F.scalar(Fraction(-2, 3))), (C3, C3.e() + 2), (GENERIC_Q, q / (q + 1))):
        zero, one = field.zero(), field.one()
        A = MatrixF(2, 3, [zero, one, zero, c, zero, one + one], field)
        expected = MatrixF(2, 3, [c * x for x in A.entries], field)
        products = []
        real = Scalar.__mul__
        monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append((x, y)) or real(x, y))
        assert A.scale(c) == expected
        monkeypatch.setattr(Scalar, "__mul__", real)
        assert len(products) == 3 and not any(x.is_zero() or y.is_zero() for x, y in products)


def test_inverse_builds_one_identity(monkeypatch):
    A = MatrixF.from_rows([[F.scalar(2), F.scalar(1), F.zero()], [F.scalar(1), F.scalar(1), F.zero()], [F.zero(), F.zero(), F.scalar(3)]], F)
    calls = []
    real = MatrixF.identity
    monkeypatch.setattr(MatrixF, "identity", staticmethod(lambda n, domain: calls.append(n) or real(n, domain)))
    inverse = A.inverse()
    assert calls == [3]
    assert A * inverse == real(3, F)


def test_determinants():
    ring = PolyRing(("a", "b", "c"))
    a, b, c = ring.vars()
    M = MatrixF.from_rows(
        [[a + b, c, ring.zero()], [ring.zero(), a + b, c], [c, ring.zero(), a + b]], ring
    )
    assert M.det() == (a + b) ** 3 + c ** 3
    # an integer ring matrix above order 6 against the field determinant
    rng = random.Random(15)
    ents = [rng.randint(-3, 3) for _ in range(49)]
    A_ring = MatrixF(7, 7, [ring.const(e) for e in ents], ring)
    A_field = MatrixF(7, 7, [F.scalar(e) for e in ents], F)
    assert not A_field.det().is_zero() and A_field.det() == _det_elimination(A_field)
    assert A_ring.det() == ring.const(A_field.det().rational())
    # field determinant with a swap
    A = MatrixF.from_rows([[F.zero(), F.one()], [F.one(), F.zero()]], F)
    assert A.det() == -F.one()


def _det_elimination(M):
    """det M by Gaussian elimination over a field (the reference for the cofactor expansion)."""
    rows = [list(r) for r in M.row_list()]
    n = M.rows
    det = M.domain.one()
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if not rows[i][col].is_zero()), None)
        if pivot_row is None:
            return M.domain.zero()
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(col + 1, n):
            factor = rows[i][col]
            if not factor.is_zero():
                factor = factor * inv
                rows[i] = [x - factor * y if not y.is_zero() else x for x, y in zip(rows[i], rows[col])]
    return det


@pytest.mark.parametrize("field", [F, cyclotomic_field(3), GENERIC_Q], ids=["rational", "cyclotomic-3", "ratfunc_q"])
def test_det_matches_elimination(field):
    rng = random.Random("det:%s" % field.kind)
    gen = field.q() if field.kind == "ratfunc_q" else field.e() if field.kind == "cyclotomic" else field.scalar(Fraction(1, 2))

    def entry():
        return field.scalar(rng.choice((0, 0, 1, -1, 2, 3))) + field.scalar(rng.randint(-1, 1)) * gen

    assert MatrixF(0, 0, (), field).det() == field.one()
    for n in range(1, 7):
        for trial in range(4 if n < 5 else 2):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 2 and n > 1:
                # singular: the last row is a combination of the first two
                c = entry()
                rows[-1] = [x + c * y for x, y in zip(rows[0], rows[n - 2])]
            M = MatrixF.from_rows(rows, field)
            expected = _det_elimination(M)
            assert M.det() == expected, (n, trial)
            assert expected.is_zero() == (M.rank() < n)
            if trial % 2 and n > 1:
                assert expected.is_zero()


def test_apply_is_the_one_column_product(monkeypatch):
    for name, domain, entry, zero, _vec_entry in _domains()[:4]:
        rng = random.Random("apply:" + name)
        for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4)):
            A = MatrixF(rows, cols, [entry(rng) for _ in range(rows * cols)], domain)
            vec = tuple(entry(rng) for _ in range(cols))
            products = []
            real = MatrixF.__mul__
            monkeypatch.setattr(MatrixF, "__mul__", lambda a, b: products.append((a, b)) or real(a, b))
            assert A.apply(vec) == _dense_apply(A, vec, zero), (name, rows, cols)
            monkeypatch.setattr(MatrixF, "__mul__", real)
            assert products == [(A, MatrixF(cols, 1, vec, domain))]
            with pytest.raises(ValueError, match="vector length mismatch"):
                A.apply(vec + (zero,))


def test_det_matches_field_and_ring_on_random():
    rng = random.Random(14)
    ring = PolyRing(("t",))
    t = ring.var("t")
    for _ in range(10):
        n = rng.randint(1, 4)
        ents = [rng.randint(-3, 3) + rng.randint(-2, 2) * 0 for _ in range(n * n)]
        A_ring = MatrixF(n, n, [ring.const(e) for e in ents], ring)
        A_field = MatrixF(n, n, [F.scalar(e) for e in ents], F)
        assert A_ring.det() == ring.const(A_field.det().rational())


def test_subspace_contains_and_coordinates():
    U = Subspace.from_vectors([(F.one(), F.zero(), F.scalar(2)), (F.zero(), F.one(), F.scalar(-1))], 3, F)
    v = (F.scalar(2), F.scalar(3), F.scalar(1))
    coords = U.coordinates(v)
    assert coords == (F.scalar(2), F.scalar(3))
    assert U.contains(v)
    assert not U.contains((F.one(), F.zero(), F.zero()))
    assert U.coordinates((F.one(), F.zero(), F.zero())) is None


def test_shape_errors():
    A = MatrixF.identity(2, F)
    B = MatrixF(3, 2, [F.zero()] * 6, F)
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        A * MatrixF(3, 3, [F.zero()] * 9, F)
    with pytest.raises(ValueError):
        B.trace()
    with pytest.raises(ValueError):
        B.det()
    # a line in k^3 refuses vectors of any other length
    line = Subspace.from_vectors([(F.one(), F.zero(), F.zero())], 3, F)
    for vec in ((F.one(), F.zero(), F.zero(), F.zero()), (F.one(),)):
        with pytest.raises(ValueError, match="ambient mismatch"):
            line.coordinates(vec)
        with pytest.raises(ValueError, match="ambient mismatch"):
            line.contains(vec)


def _stacked_intersect(U, V):
    """U cap V from the kernel of the stacked bases [U; -V] (the reference for intersect)."""
    if U.is_zero() or V.is_zero():
        return Subspace.zero(U.ambient, U.domain)
    cols = [tuple(v) for v in U.basis] + [vec_scale(-U.domain.one(), v) for v in V.basis]
    combos = MatrixF.from_rows(cols, U.domain).transpose().kernel()
    vectors = []
    for combo in combos.basis:
        w = [U.domain.zero()] * U.ambient
        for c, row in zip(combo[: U.dim], U.basis):
            for j, x in enumerate(row):
                w[j] = w[j] + c * x
        vectors.append(tuple(w))
    return Subspace.from_vectors(vectors, U.ambient, U.domain)


@pytest.mark.parametrize("field", [F, cyclotomic_field(3), GENERIC_Q], ids=["rational", "cyclotomic-3", "ratfunc_q"])
def test_intersect_matches_stacked_kernel(field):
    rng = random.Random("intersect:%s" % field.kind)
    gen = field.q() if field.kind == "ratfunc_q" else field.e() if field.kind == "cyclotomic" else field.one()

    def vector(amb):
        return tuple(field.scalar(rng.choice((0, 0, 1, -1, 2))) + field.scalar(rng.randint(-1, 1)) * gen for _ in range(amb))

    # rational functions in q grow fast under row reduction, so ratfunc_q takes the smaller cases
    ratfunc = field.kind == "ratfunc_q"
    for amb in (1, 3, 4) if ratfunc else (1, 3, 5):
        spaces = [Subspace.zero(amb, field), Subspace.full(amb, field)]
        spaces += [Subspace.from_vectors([vector(amb) for _ in range(rng.randint(1, amb))], amb, field) for _ in range(3)]
        # a shared vector makes the intersection nonzero more often than chance
        shared = vector(amb)
        spaces += [Subspace.from_vectors([shared] + [vector(amb) for _ in range(rng.randint(0, amb - 1))], amb, field) for _ in range(2)]
        for U in spaces:
            for V in spaces:
                got = U.intersect(V)
                assert got == _stacked_intersect(U, V), (amb, U, V)
                assert all(U.contains(row) and V.contains(row) for row in got.basis)
                assert got.dim + U.sum(V).dim == U.dim + V.dim


def test_first_minor_and_pivot():
    one, zero, two = F.one(), F.zero(), F.scalar(2)
    v = (zero, two, one, zero)
    assert vec_pivot(v) == 1
    assert first_minor(vec_scale(F.scalar(-3), v), v) is None
    assert first_minor((zero,) * 4, v) is None
    # u is nonzero only where v vanishes: the minor at 0 is u[0] v[1] - u[1] v[0] = 2
    assert first_minor((one, zero, zero, zero), v) == (0, two)
    assert first_minor((zero, zero, zero, one), v) == (3, two)
    # the same line through another pivot value
    assert first_minor((zero, one, two, zero), v) == (2, F.scalar(3))
    # a zero v has no pivot: ValueError, not a leaked StopIteration
    for call in (lambda: vec_pivot((zero, zero)), lambda: first_minor((one, zero), (zero, zero)), lambda: vec_pivot(())):
        with pytest.raises(ValueError):
            call()
    # polynomial entries, with no division
    ring = PolyRing(("a", "b"))
    a, b = ring.vars()
    assert first_minor((a * b, a * a, ring.zero()), (b, a, ring.zero())) is None
    assert first_minor((a * b, a * a, ring.one()), (b, a, ring.zero())) == (2, b)


# -- the polynomial-ring paths against the loops they replaced: each product entry and each cofactor sum was a
# chain of out + a * b, one intermediate polynomial per link


def _pairwise_product(A, B):
    """A B entry by entry as out + a * b, skipping zero factors."""
    zero = A.domain.zero()
    out = [zero] * (A.rows * B.cols)
    for i in range(A.rows):
        for k in range(A.cols):
            a = A[i, k]
            if not a.is_zero():
                for j in range(B.cols):
                    if not B[k, j].is_zero():
                        out[i * B.cols + j] = out[i * B.cols + j] + a * B[k, j]
    return MatrixF(A.rows, B.cols, out, A.domain)


def _cofactor_det(A):
    """det A by the memoized Laplace expansion with the cofactor sum as a chain of +- a * minor."""
    memo = {(): A.domain.one()}

    def minor(cols):
        if cols not in memo:
            row, got = A.rows - len(cols), A.domain.zero()
            for idx, col in enumerate(cols):
                if not A[row, col].is_zero():
                    term = A[row, col] * minor(cols[:idx] + cols[idx + 1 :])
                    got = got - term if idx % 2 else got + term
            memo[cols] = got
        return memo[cols]

    return minor(tuple(range(A.rows)))


def _sparse_poly_matrix(rng, rows, cols, ring):
    """Entries mostly zero, a whole zero row at times, and terms that cancel in products (x - y against x + y)."""
    x, y, z = ring.vars()
    pool = [ring.zero()] * 4 + [x, -x, x + y, x - y, y * z + Fraction(1, 2), ring.const(Fraction(-2, 3)), ring.const(primitive_root(3, cyclotomic_field(3))) * z if ring.order == 3 else 3 * z * z]
    zero_row = rng.randrange(rows + 1)
    return MatrixF(rows, cols, [ring.zero() if i == zero_row else rng.choice(pool) for i in range(rows) for _ in range(cols)], ring)


@pytest.mark.parametrize("order", [1, 3])
def test_ring_products_and_dets_match_the_pairwise_loops(order):
    ring = PolyRing(("x", "y", "z"), order)
    rng = random.Random("ring-matrix:%d" % order)
    for _ in range(30):
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A, B = _sparse_poly_matrix(rng, n, m, ring), _sparse_poly_matrix(rng, m, p, ring)
        assert A * B == _pairwise_product(A, B)
        S = _sparse_poly_matrix(rng, n, n, ring)
        assert S.det() == _cofactor_det(S)
    # an entry whose products cancel is the zero polynomial, stored with no terms
    x, y, _z = ring.vars()
    C = MatrixF(1, 2, [x - y, x + y], ring) * MatrixF(2, 1, [x + y, -(x - y)], ring)
    assert C[0, 0].is_zero() and not C[0, 0].terms
    assert MatrixF(2, 2, [x + y, x - y, x - y, x + y], ring).det() == 4 * x * y
