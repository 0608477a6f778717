import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, GENERIC_Q
from heckesym.linalg import MatrixF, Subspace
from heckesym.multipoly import PolyRing

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


def test_subspace_dim_formula():
    rng = random.Random(12)
    for _ in range(25):
        amb = 8
        U = Subspace.from_vectors([rand_matrix(rng, 1, amb).row(0) for _ in range(rng.randint(0, 5))], amb, F)
        V = Subspace.from_vectors([rand_matrix(rng, 1, amb).row(0) for _ in range(rng.randint(0, 5))], amb, F)
        s, i = U.sum(V), U.intersect(V)
        assert s.dim + i.dim == U.dim + V.dim
        assert U.contains_subspace(i) and V.contains_subspace(i)
        assert s.contains_subspace(U) and s.contains_subspace(V)


def test_intersect_with_ambient():
    rng = random.Random(13)
    full = Subspace.full(5, F)
    U = Subspace.from_vectors([rand_matrix(rng, 1, 5).row(0) for _ in range(3)], 5, F)
    assert U.intersect(full) == U
    assert U.sum(full) == full


def test_solve_and_inverse():
    A = MatrixF.from_rows([[F.scalar(2), F.scalar(1)], [F.scalar(1), F.scalar(1)]], F)
    assert A.solve((F.scalar(3), F.scalar(2))) == (F.scalar(1), F.scalar(1))
    assert A * A.inverse() == MatrixF.identity(2, F)
    singular = MatrixF.from_rows([[F.scalar(1), F.scalar(1)], [F.scalar(1), F.scalar(1)]], F)
    assert singular.solve((F.scalar(0), F.scalar(1))) is None
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_kronecker_and_trace():
    q = GENERIC_Q.q()
    A = MatrixF.from_rows([[q, GENERIC_Q.zero()], [GENERIC_Q.one(), q]], GENERIC_Q)
    B = MatrixF.identity(2, GENERIC_Q)
    K = A.kronecker(B)
    assert K.rows == 4 and K.trace() == 4 * q
    assert A.kronecker(B).kronecker(A) == A.kronecker(B.kronecker(A))


def test_determinants():
    ring = PolyRing(("a", "b", "c"))
    a, b, c = ring.vars()
    M = MatrixF.from_rows(
        [[a + b, c, ring.zero()], [ring.zero(), a + b, c], [c, ring.zero(), a + b]], ring
    )
    expected = (a + b) ** 3 + c ** 3
    assert M.det() == expected
    assert M._det_cofactor() == expected
    # an integer ring matrix above order 6 against the field determinant
    rng = random.Random(15)
    ents = [rng.randint(-3, 3) for _ in range(49)]
    A_ring = MatrixF(7, 7, [ring.const(e) for e in ents], ring)
    A_field = MatrixF(7, 7, [F.scalar(e) for e in ents], F)
    assert not A_field.det().is_zero()
    assert A_ring.det().constant_value().rational() == A_field.det().rational()
    # field determinant with a swap
    A = MatrixF.from_rows([[F.zero(), F.one()], [F.one(), F.zero()]], F)
    assert A.det() == -F.one()


def test_det_matches_field_and_ring_on_random():
    rng = random.Random(14)
    ring = PolyRing(("t",))
    t = ring.var("t")
    for _ in range(10):
        n = rng.randint(1, 4)
        ents = [rng.randint(-3, 3) + rng.randint(-2, 2) * 0 for _ in range(n * n)]
        A_ring = MatrixF(n, n, [ring.const(e) for e in ents], ring)
        A_field = MatrixF(n, n, [F.scalar(e) for e in ents], F)
        assert A_ring.det().constant_value().rational() == A_field.det().rational()


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
    B = MatrixF.zeros(3, 2, F)
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        A * MatrixF.zeros(3, 3, F)
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
