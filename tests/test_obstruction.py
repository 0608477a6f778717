from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec
from heckesym.frobenius import reconstruct_from_f
from heckesym.linalg import Subspace
from heckesym.multipoly import PolyRing
from heckesym.obstruction import (
    TernaryQuadratic,
    braid_residual,
    case1_f,
    case1_system,
    restricted_maps,
    sylvester_dets,
    sylvester_resultant,
    verify_case1,
    verify_case2,
    verify_case3,
    verify_case4,
)
from heckesym.regular3 import SklParameters, is_type_A, skl_relations
from heckesym.symmetry import braid_defect


@pytest.fixture(scope="module")
def case_reports():
    return {
        1: verify_case1(),
        2: verify_case2(),
        3: verify_case3(),
        4: verify_case4(),
    }


def test_sylvester_dets_degenerate():
    R = PolyRing(("u",))  # coefficient ring with no parameters needed
    one, zero = R.one(), R.zero()
    F1 = TernaryQuadratic((one, zero, zero, zero, zero, zero), R)  # X^2
    F2 = TernaryQuadratic((zero, one, zero, zero, zero, zero), R)  # Y^2
    F3 = TernaryQuadratic((zero, zero, one, zero, zero, zero), R)  # Z^2
    D1, D2, D3 = sylvester_dets(F1, F2, F3)
    # D1 = det diag(1, Y, Z) = YZ
    assert D1.coeffs == (zero, zero, zero, one, zero, zero)
    assert D2.coeffs == (zero, zero, zero, zero, one, zero)
    assert D3.coeffs == (zero, zero, zero, zero, zero, one)
    assert sylvester_resultant(F1, F2, F3) == one


def test_resultant_vanishes_for_dependent_system():
    F1, F2, _ = case1_system()
    ring = F1.domain
    comb = TernaryQuadratic(tuple(x + y for x, y in zip(F1.coeffs, F2.coeffs)), ring)
    assert sylvester_resultant(F1, F2, comb).is_zero()


def test_case1_system_display():
    F1, F2, F3 = case1_system()
    ring = F1.domain
    a, b, c = ring.vars()
    assert F1.coeffs[:3] == (b * c, c * a, a * b)
    assert F2.coeffs[3:] == (a ** 2, b ** 2, c ** 2)
    assert F3.coeffs == (a ** 2, b ** 2, c ** 2, -2 * b * c, -2 * c * a, -2 * a * b)
    # F1 at (1,1,1) evaluates to ab + bc + ca
    total = sum((x for x in F1.coeffs), ring.zero())
    assert total == a * b + b * c + c * a


def test_case1_resultant_cyclic_stability():
    F1, F2, F3 = case1_system()
    res = sylvester_resultant(F1, F2, F3)
    rotated = res.substitute({"a": res.ring.var("b"), "b": res.ring.var("c"), "c": res.ring.var("a")})
    assert rotated == res


def test_case1_functional_and_projection():
    field = FieldSpec("rational", qval=(Fraction(1),))
    p = SklParameters.numeric(1, 1, 2, field)
    ap, bp, cp = field.scalar(0), field.scalar(0), field.scalar(Fraction(1, 2))
    f = case1_f(p, ap, bp, cp)
    # cyclic invariance
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert f[i * 9 + j * 3 + k] == f[k * 9 + i * 3 + j]
    rels = Subspace.from_vectors(skl_relations(p), 9, field)
    P, _R = reconstruct_from_f(f, rels, field.q())
    assert P * P == P
    with pytest.raises(ValueError):
        case1_f(p, ap, bp, field.scalar(1))
    with pytest.raises(ValueError, match="degenerate"):
        reconstruct_from_f((field.zero(),) * 27, rels, field.q())


def test_braid_residual_rescale_invariance():
    field = FieldSpec("rational", qval=(Fraction(1),))
    p = SklParameters.numeric(1, 1, 2, field)
    ap, bp, cp = field.scalar(1), field.scalar(0), field.scalar(0)
    f = case1_f(p, ap, bp, cp)
    r1 = braid_residual(f, p, field.q())
    scaled = tuple(field.scalar(7) * x for x in f)
    r2 = braid_residual(scaled, p, field.q())
    assert r1 == r2
    assert not r1.is_zero()


def test_braid_defect_zero_for_genuine_symmetry():
    from heckesym.frobenius import analyze
    from heckesym.symmetry import dj_standard

    sym = dj_standard(3)
    prof = analyze(sym)
    _P, R = reconstruct_from_f(prof.f, sym.upsilon(2), sym.q)
    assert braid_defect(R).is_zero()


def test_restricted_maps_field_path():
    field = FieldSpec("rational", qval=(Fraction(1),))
    p = SklParameters.numeric(1, 1, 2, field)
    cp = field.scalar(Fraction(1, 2))
    f = case1_f(p, field.scalar(0), field.scalar(0), cp)
    rels = skl_relations(p)
    P, _R = reconstruct_from_f(f, Subspace.from_vectors(rels, 9, field), field.q())
    M, N = restricted_maps(P, rels)
    assert M.rows == 9 and N.rows == 9
    # composite on the x t side matches (Id x P)(P x Id) coordinates
    assert not (M * N).is_zero()


def test_genuine_symmetry_composite_is_scalar_mod_top():
    # for an actual Hecke symmetry, M N = q(1+q)^-2 Id modulo the top line
    from heckesym.exactnum import GENERIC_Q
    from heckesym.linalg import MatrixF as MF
    from heckesym.symmetry import dj_standard

    sym = dj_standard(3)
    F9 = GENERIC_Q
    q = F9.q()
    P = (MF.identity(9, F9).scale(q) - sym.R).scale((1 + q).inverse())
    rels = [list(row) for row in sym.upsilon(2).basis]
    M, N = restricted_maps(P, rels)
    kappa = q * ((1 + q) ** -2)
    D = M * N - MF.identity(9, F9).scale(kappa)
    # t written on the x_j (x) rel_i coordinates
    t = sym.upsilon(3).basis[0]
    basis27 = []
    for j in range(3):
        for i in range(3):
            vec = [F9.zero()] * 27
            for pair in range(9):
                vec[j * 9 + pair] = rels[i][pair]
            basis27.append(vec)
    A = MF.from_rows(basis27, F9).transpose()
    t_coords = A.solve(t)
    assert t_coords is not None
    # every column of the defect is a multiple of the top-line coordinates
    for col in range(9):
        column = [D[r, col] for r in range(9)]
        for r1 in range(9):
            for r2 in range(9):
                assert column[r1] * t_coords[r2] == column[r2] * t_coords[r1]


def test_case1(case_reports):
    rep = case_reports[1]
    assert rep.ok, [c for c in rep.checks.checks if c.status == "fail"]
    names = {c.name for c in rep.checks.checks}
    assert {"circulant", "resultant-identity", "resultant-expansion"} <= names
    assert "contradiction reproduced" in rep.verdict
    assert any(e["name"] == "F3" for e in rep.equations)


def test_case2(case_reports):
    rep = case_reports[2]
    assert rep.ok, [c for c in rep.checks.checks if c.status == "fail"]
    names = {c.name for c in rep.checks.checks}
    assert {"forced-zeros", "forcing", "braid-residual", "collapsed-column"} <= names
    assert "contradiction reproduced" in rep.verdict


def test_case3(case_reports):
    rep = case_reports[3]
    assert rep.ok, [c for c in rep.checks.checks if c.status == "fail"]
    names = {c.name for c in rep.checks.checks}
    assert {"equations-1-to-4", "factorization-1", "factorization-2", "terminal", "swap-relation"} <= names
    eq_names = [e["name"] for e in rep.equations]
    assert {"equation-1", "equation-2", "equation-3", "equation-4"} <= set(eq_names)


def test_case3_equation_one_text(case_reports):
    # the first displayed equation, written out and reproduced exactly
    ring = PolyRing(("a", "c", "ap", "bp", "cp", "cpp"))
    a, c, ap, bp, cp, cpp = ring.vars()
    d = 8 * a ** 3 + c ** 3
    eq1 = d * (c * cp + a * bp) * (c ** 3 + 4 * a ** 3) + 4 * a ** 3 * c ** 3 + (d * a * ap) ** 2
    rep = case_reports[3]
    stored = next(e for e in rep.equations if e["name"] == "equation-1")
    assert stored["expression"] == eq1.to_text() + " = 0"


def test_case4(case_reports):
    rep = case_reports[4]
    assert rep.ok, [c for c in rep.checks.checks if c.status == "fail"]
    names = {c.name for c in rep.checks.checks}
    assert {"gate-combination", "remainder", "sign-contradiction", "kappa-relation", "top-scaling"} <= names


def test_case2_sample_is_smooth_elliptic():
    assert is_type_A(SklParameters.numeric(1, 1, 2))
    assert is_type_A(SklParameters.numeric(1, 2, 3))
