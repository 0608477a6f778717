"""The obstruction computation for the three-generator elliptic family.

Any Hecke symmetry R inducing a prescribed quadratic algebra is pinned down
by a functional f on cubic tensors: f determines the projection P of
V (x) V onto the relation space and R = q Id - (1+q) P.  The braid equation
then forces (Id (x) P)(P (x) Id) to act as the scalar q (1+q)^-2 on the
relevant subspaces modulo the top line, which yields quadratic equations on
the unknown values of f.  Four cases (by the braiding character on the
generators) each terminate in an exact contradiction:

  case 1 -- scalar braiding, q = 1: the equations have a Sylvester resultant
            a^2 b^2 c^2 ((a^3+b^3+c^3)^3 - 27 a^3 b^3 c^3)^2, nonzero for
            every smooth-elliptic parameter triple;
  case 2 -- order-3 braiding, q a primitive cube root: the composite map
            forces a' = b' = 0 and then annihilates a vector it should scale;
  case 3 -- order-2 braiding (a = b, q^2 = -1): the entries of the composite
            matrix factor and every branch collapses to 3 a c^2 d = 0;
  case 4 -- order-4 braiding (a = b): trace gates force (1+2k)l = -q^2 while
            (1+2k)^2 = 3, so the top scaling would need q^6 = -q^6.

The cases share one pipeline.  Each writes its functional as a table of
values on cubic monomials (indexed by `symmetry.tensor_index`), reads the
values f(x_j (x) t_i) off it (`frobenius.front_pairing`), builds P through
`frobenius.projection_from_dual` with the dual basis the case dictates,
compares P with the matrix of a table of combinations of the t_i
(`_table_matrix`), reads Id (x) P and P (x) Id off the t-coordinates of P's
columns, one solve or exact division for all nine (`_relation_coordinates`),
as contractions with the t_a (`restricted_maps`), cuts the restricted maps
down to a pair of 3-dimensional subspaces (`_pair_minors`) and finishes its
report with `_finish`; only the case-specific algebra is written per case.
The projection tables, the checks on the restricted maps and case 2's
composite witness are matrix equalities recorded by
`frobenius._record_equal`, so a failing one names an entry.

Everything here is exact: symbolic steps are polynomial identities, numeric
steps run over cyclotomic fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import FieldSpec, GENERIC_Q, Scalar, cyclotomic_field, primitive_root
from .exprio import format_scalar
from .frobenius import _record_equal, front_pairing, projection_from_dual, reconstruct_from_f
from .linalg import MatrixF, Subspace, _stack, vec_combination
from .multipoly import MultiPoly, PolyRing
from .regular3 import SklParameters, cyclic_slots, is_type_A, skl_relations, skl_tensor
from .report import CheckReport
from .symmetry import _vanishes, apply_power, braid_defect, check_braid, check_hecke, tensor_index

__all__ = [
    "TernaryQuadratic",
    "CaseReport",
    "sylvester_dets",
    "sylvester_resultant",
    "case1_system",
    "case1_f",
    "braid_residual",
    "restricted_maps",
    "verify_case1",
    "verify_case2",
    "verify_case3",
    "verify_case4",
]


@dataclass(frozen=True)
class TernaryQuadratic:
    """A quadratic form in X, Y, Z with coefficients in a common ring."""

    coeffs: tuple  # (cx2, cy2, cz2, cyz, czx, cxy)
    domain: object

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise ValueError("a ternary quadratic has six coefficients")


# _SLOT[u][v] is the coefficient index of x_u x_v, with X, Y, Z = 0, 1, 2
_SLOT = ((0, 5, 4), (5, 1, 3), (4, 3, 2))


def _lin_mul(l1: Sequence, l2: Sequence, zero) -> tuple:
    """Product of two linear forms (X, Y, Z coefficient triples), one product per pair of nonzero coefficients."""
    out = [zero] * 6
    for u, x in enumerate(l1):
        if not x.is_zero():
            for v, y in enumerate(l2):
                if not y.is_zero():
                    slot = _SLOT[u][v]
                    out[slot] = x * y if out[slot] is zero else out[slot] + x * y
    return tuple(out)


def sylvester_dets(
    F1: TernaryQuadratic, F2: TernaryQuadratic, F3: TernaryQuadratic
) -> Tuple[TernaryQuadratic, TernaryQuadratic, TernaryQuadratic]:
    """The three auxiliary quadratics of the six-by-six resultant formula.

    Each D_m is the determinant of the 3x3 array whose column j splits F_j
    as  scalar * (leading square) + (first line) * (first variable)
    + (second line) * (second variable).  The split is fixed so: for D_1 the
    Y-line collects the Y^2, XY and YZ terms and the Z-line the Z^2 and ZX
    terms; D_2 and D_3 follow by the cyclic shift X -> Y -> Z -> X.
    """
    domain = F1.domain
    zero = domain.zero()
    forms = (F1, F2, F3)

    def det_for(lead: int, first: int, second: int) -> TernaryQuadratic:
        # F_j = consts[j] lead^2 + line1[j] * first + line2[j] * second, the first*second term in line1
        consts = [f.coeffs[_SLOT[lead][lead]] for f in forms]
        line1 = [[f.coeffs[_SLOT[u][first]] for u in range(3)] for f in forms]
        line2 = [[zero if u == first else f.coeffs[_SLOT[u][second]] for u in range(3)] for f in forms]
        # the cofactors of the scalar row; the cyclic order of (j1, j2) gives their signs
        minors = [
            tuple(x - y for x, y in zip(_lin_mul(line1[j1], line2[j2], zero), _lin_mul(line1[j2], line2[j1], zero)))
            for j1, j2 in ((1, 2), (2, 0), (0, 1))
        ]
        return TernaryQuadratic(vec_combination(consts, minors, zero), domain)

    return det_for(0, 1, 2), det_for(1, 2, 0), det_for(2, 0, 1)


def sylvester_resultant(F1: TernaryQuadratic, F2: TernaryQuadratic, F3: TernaryQuadratic, dets=None):
    """The resultant of three ternary quadratics, as a 6x6 determinant.

    Columns are the coefficient vectors of F1, F2, F3, D1, D2, D3 on the
    monomials X^2, Y^2, Z^2, YZ, ZX, XY; the determinant vanishes exactly
    when the system has a nonzero projective solution.  dets, if given, is
    sylvester_dets(F1, F2, F3), already formed.
    """
    D1, D2, D3 = dets or sylvester_dets(F1, F2, F3)
    cols = [F1.coeffs, F2.coeffs, F3.coeffs, D1.coeffs, D2.coeffs, D3.coeffs]
    entries = [cols[j][i] for i in range(6) for j in range(6)]
    M = MatrixF(6, 6, entries, F1.domain)
    return M.det()


# ---------------------------------------------------------------------------
# the shared case pipeline
#
# Letters are 1-based in tensor_index and 0-based elsewhere; x_j (x) t_i is
# row 3j+i of the restricted maps and t_a (x) x_b is column 3b+a.


def _off_diagonal_zero(values: MatrixF) -> bool:
    return all(values[j, i].is_zero() for j in range(3) for i in range(3) if i != j)


def _is_cyclic(f: Sequence, twist=1) -> bool:
    """f(x_i x_j x_k) = twist^k f(x_k x_i x_j) on every cubic monomial."""
    return all(
        f[tensor_index((i, j, k), 3)] == twist ** k * f[tensor_index((k, i, j), 3)]
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
    )


def _cyclic_functional(ap, bp, cp, zero) -> list:
    """The functional taking ap / bp / cp on the ascending / descending / cubic monomials."""
    f = [zero] * 27
    for slots, value in zip(cyclic_slots(), (ap, bp, cp)):
        for s in slots:
            f[s] = value
    return f


def _projection(f: Sequence, relations: Sequence, domain, weights=None, order=(0, 1, 2)) -> MatrixF:
    """P(w) = sum_i w_i f(x_(order[i]) (x) w) t_i (every w_i = 1 when weights is None)."""
    zero, one = domain.zero(), domain.one()
    dual = [
        [(one if weights is None else weights[i]) if k == order[i] else zero for k in range(3)]
        for i in range(3)
    ]
    return projection_from_dual(f, relations, MatrixF.from_rows(dual, domain))


def _table_matrix(table: dict, relations: Sequence, domain) -> MatrixF:
    """The matrix whose column x_i x_j is sum_k c_k t_k, for the entries (i, j): (c_1, c_2, c_3) of a table of all nine."""
    C = MatrixF(3, 9, [table[w // 3 + 1, w % 3 + 1][k] for k in range(3) for w in range(9)], domain)
    return MatrixF.from_rows(relations, domain).transpose() * C


def _pair_minors(M: MatrixF, N: MatrixF, tx_pairs, xt_pairs, domain) -> Tuple[MatrixF, MatrixF]:
    """M and N cut down to the spans of the t_a x_b in tx_pairs and the x_j t_i in xt_pairs."""
    cols = [b * 3 + a for a, b in tx_pairs]
    rows = [j * 3 + i for j, i in xt_pairs]
    return (
        MatrixF.from_rows([[M[r, c] for c in cols] for r in rows], domain),
        MatrixF.from_rows([[N[c, r] for r in rows] for c in cols], domain),
    )


def _beside(A: MatrixF, B: MatrixF) -> MatrixF:
    """[A | B]: the two restricted maps of a pair, compared in one matrix."""
    return MatrixF.from_rows([A.row(r) + B.row(r) for r in range(A.rows)], A.domain)


def _circulant(row: Sequence, domain) -> MatrixF:
    """The matrix with rows (x, y, z), (z, x, y), (y, z, x)."""
    x, y, z = row
    return MatrixF.from_rows([[x, y, z], [z, x, y], [y, z, x]], domain)


# the three pairs of 3-dimensional subspaces: (t_a x_b columns, x_j t_i rows)
_PAIRS = {
    1: ([(2, 0), (0, 1), (1, 2)], [(0, 2), (1, 0), (2, 1)]),
    2: ([(1, 0), (2, 1), (0, 2)], [(0, 1), (1, 2), (2, 0)]),
    3: ([(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 1), (2, 2)]),
}


def braid_residual(f: Sequence, p: SklParameters, q: Scalar) -> MatrixF:
    """Braid-equation defect of R = q Id - (1+q) P for the f-built projection."""
    _P, R = reconstruct_from_f(f, Subspace.from_vectors(skl_relations(p), 9, q.field), q)
    return braid_defect(R)


def restricted_maps(P: MatrixF, relations: Sequence) -> Tuple[MatrixF, MatrixF]:
    """Matrices of Id (x) P and P (x) Id between the two mixed subspaces.

    M sends the span of the t_a (x) x_b (columns ordered t_1 x_1, t_2 x_1,
    t_3 x_1, t_1 x_2, ..., t_3 x_3) into the span of the x_j (x) t_i (rows
    ordered x_1 t_1, x_1 t_2, ..., x_3 t_3); N goes the other way.  With T_a
    the 3x3 matrix of t_a and G_i that of the t_i-coordinates of P's columns
    (`_relation_coordinates`, which checks that P maps into span(t), so that
    both maps land in the mixed subspaces), M[(k,i),(a,b)] = (T_a G_i)[k,b]
    and N[(a,b),(k,i)] = (G_a T_i)[k,b].
    """
    domain = P.domain
    t_rows = [tuple(t) for t in relations]
    T = [MatrixF(3, 3, t, domain) for t in t_rows]
    G = [MatrixF(3, 3, g, domain) for g in _relation_coordinates(P, t_rows)]
    TG = [[T[a] * G[i] for i in range(3)] for a in range(3)]
    GT = [[G[a] * T[i] for i in range(3)] for a in range(3)]
    r3 = range(3)
    M = MatrixF(9, 9, [TG[a][i][k, b] for k in r3 for i in r3 for b in r3 for a in r3], domain)
    N = MatrixF(9, 9, [GT[a][i][k, b] for b in r3 for a in r3 for k in r3 for i in r3], domain)
    return M, N


def _relation_coordinates(P: MatrixF, t_rows: List[tuple]) -> List[list]:
    """G[i][w], the coefficient of t_i in column w of P.

    With T the matrix whose columns are the t_i, this is the X with T X = P.
    Over a field it is one solve with P's nine columns as right-hand sides.
    Over a polynomial ring the square coefficient of each t_i (its (i,i)
    slot) gives the coordinate by exact division.  Either way P is rebuilt
    as T X, so a column outside span(t) raises.
    """
    domain = P.domain
    T = MatrixF.from_rows(t_rows, domain).transpose()
    if isinstance(domain, FieldSpec):
        X = T.solve(P)
    elif any(t_rows[i][4 * i].is_zero() for i in range(3)):
        raise ValueError("relation tensor has no square term; cannot extract")
    else:
        X = MatrixF(3, 9, [P[4 * i, w].exact_div(t_rows[i][4 * i]) for i in range(3) for w in range(9)], domain)
    if X is None or T * X != P:
        raise ValueError("vector left the expected subspace")
    return [list(X.row(i)) for i in range(3)]


# ---------------------------------------------------------------------------
# case reports


@dataclass
class CaseReport:
    """Outcome of one case of the obstruction argument."""

    case_id: int
    description: str
    parameters: Dict[str, str]
    equations: List[Dict[str, str]]
    checks: CheckReport
    verdict: str = ""
    # the case-1 resultant in Q[a, b, c], for evaluation at a sample; not serialized
    resultant: Optional[MultiPoly] = None

    @property
    def ok(self) -> bool:
        return self.checks.ok

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "description": self.description,
            "parameters": self.parameters,
            "equations": self.equations,
            "checks": [c.to_dict() for c in self.checks.checks],
            "verdict": self.verdict,
        }


def _finish(case_id: int, description: str, parameters, equations, checks: CheckReport, verdict: str) -> CaseReport:
    """The report of one case; its verdict stands only if every check passed."""
    return CaseReport(case_id, description, parameters, equations, checks, verdict if checks.ok else "NOT reproduced")


def _sub_rational(poly: MultiPoly, name: str, num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """den^m * poly with the variable replaced by num/den (m its degree)."""
    m = poly.degree_in(name)
    out = poly.ring.zero()
    for (k,), part in poly.coefficients_in((name,), poly.ring).items():
        out = out + part * (num ** k * den ** (m - k))
    return out


def case1_system(ring: Optional[PolyRing] = None) -> Tuple[TernaryQuadratic, TernaryQuadratic, TernaryQuadratic]:
    """The three quadratics of the scalar-braiding case, over Q[a, b, c]."""
    ring = ring or PolyRing(("a", "b", "c"))
    a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
    zero = ring.zero()
    F1 = TernaryQuadratic((b * c, c * a, a * b, zero, zero, zero), ring)
    F2 = TernaryQuadratic((zero, zero, zero, a * a, b * b, c * c), ring)
    F3 = TernaryQuadratic(
        (a * a, b * b, c * c, -2 * b * c, -2 * c * a, -2 * a * b), ring
    )
    return F1, F2, F3


def case1_f(p: SklParameters, ap: Scalar, bp: Scalar, cp: Scalar) -> tuple:
    """The cyclic functional of the scalar-braiding case (q = 1 context).

    Vanishes on x_(i+-1) x_i^2 patterns, takes ap / bp / cp on ascending /
    descending / cubic monomials; requires a ap + b bp + c cp = 1.
    """
    field = ap.field
    if p.a * ap + p.b * bp + p.c * cp != field.one():
        raise ValueError("normalization a a' + b b' + c c' = 1 violated")
    return tuple(_cyclic_functional(ap, bp, cp, field.zero()))


def _resultant_display(ring: PolyRing) -> MultiPoly:
    """The expanded degree-24 resultant of the scalar-braiding case."""
    a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
    abc2 = (a * b * c) ** 2
    abc5 = (a * b * c) ** 5

    def sym6(p, q):
        return (
            a ** p * b ** q + a ** p * c ** q + a ** q * b ** p
            + a ** q * c ** p + b ** p * c ** q + b ** q * c ** p
        )

    out = abc2 * (a ** 18 + b ** 18 + c ** 18)
    out = out + 6 * abc2 * sym6(15, 3)
    out = out + 15 * abc2 * sym6(12, 6)
    out = out + 20 * abc2 * (a ** 9 * b ** 9 + a ** 9 * c ** 9 + b ** 9 * c ** 9)
    out = out - 24 * abc5 * (a ** 9 + b ** 9 + c ** 9)
    out = out - 102 * abc5 * sym6(6, 3)
    out = out + 495 * (a * b * c) ** 8
    return out


def verify_case1() -> CaseReport:
    """Scalar braiding: q = 1 and the quadratic system has no nonzero root."""
    checks = CheckReport("case1")
    equations: List[Dict[str, str]] = []

    # gate: 3 lam = q(1+q+q^2) with lam = q^2 forces q = 1
    q = GENERIC_Q.q()
    checks.record(
        "braiding-gate",
        "3 q^2 - q(1+q+q^2) = -q(q-1)^2, so q = 1 is the only nonzero root",
        3 * q ** 2 - q * (1 + q + q ** 2) == -q * (q - 1) ** 2,
    )

    # the circulant determinant that forces the six zero values of f
    ring3 = PolyRing(("a", "b", "c"))
    a, b, c = ring3.vars()
    circ_det = _circulant((a + b, c, ring3.zero()), ring3).det()
    checks.record("circulant", "det = (a+b)^3 + c^3", circ_det == (a + b) ** 3 + c ** 3)
    type_a_poly = (a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3
    checks.record(
        "circulant-nonzero",
        "(a+b)^3 + c^3 divides the smoothness polynomial, so it is nonzero in the smooth case",
        circ_det.divides(type_a_poly),
    )

    # symbolic functional and projection over Q[a,b,c,ap,bp,cp], q = 1
    ring = PolyRing(("a", "b", "c", "ap", "bp", "cp"))
    av, bv, cv, apv, bpv, cpv = ring.vars()
    zero = ring.zero()
    rels = skl_relations(SklParameters(av, bv, cv, ring))
    f = _cyclic_functional(apv, bpv, cpv, zero)
    checks.record("cyclicity", "f(v1 v2 v3) = f(v3 v1 v2)", _is_cyclic(f))

    # f annihilates x_j t_i off the diagonal and is a a'+b b'+c c' on it
    vals = front_pairing(f, rels, ring)
    diag = av * apv + bv * bpv + cv * cpv
    checks.record("f-off-diagonal", "f(x_j t_i) = 0 for i != j", _off_diagonal_zero(vals))
    checks.record(
        "f-diagonal",
        "f(x_i t_i) = a a' + b b' + c c' (normalized to 1)",
        all(vals[i, i] == diag for i in range(3)),
    )

    # projection table P(x_(i+1) x_(i-1)) = a' t_i, etc.
    P = _projection(f, rels, ring)
    table = {}
    for i in (1, 2, 3):
        up = i % 3 + 1
        dn = (i + 1) % 3 + 1
        for pair, coeff in (((up, dn), apv), ((dn, up), bpv), ((i, i), cpv)):
            table[pair] = tuple(coeff if k == i else zero for k in (1, 2, 3))
    rule = "P(x_(i+1) x_(i-1)) = a' t_i, P(x_(i-1) x_(i+1)) = b' t_i, P(x_i^2) = c' t_i"
    _record_equal(checks, "projection-table", rule, P, _table_matrix(table, rels, ring))

    # the three pairs of 3-dimensional subspaces and their composite maps
    M_full, N_full = restricted_maps(P, rels)
    composites = {}
    for pid, (tx_pairs, xt_pairs) in _PAIRS.items():
        Mp, Np = _pair_minors(M_full, N_full, tx_pairs, xt_pairs, ring)
        composites[pid] = Mp * Np
        if pid == 1:
            disp = _beside(
                _circulant((av * bpv, cv * apv, bv * cpv), ring), _circulant((bv * apv, cv * bpv, av * cpv), ring)
            )
            _record_equal(checks, "pair1-matrices", "restricted maps match the circulant displays", _beside(Mp, Np), disp)
        if pid == 3:
            disp = _beside(
                _circulant((cv * cpv, bv * bpv, av * apv), ring), _circulant((cv * cpv, av * apv, bv * bpv), ring)
            )
            _record_equal(checks, "pair3-matrices", "diagonal-pair maps match the displays", _beside(Mp, Np), disp)

    C1 = composites[1]
    F1_poly = bv * cv * apv ** 2 + cv * av * bpv ** 2 + av * bv * cpv ** 2
    F2_poly = av ** 2 * bpv * cpv + bv ** 2 * cpv * apv + cv ** 2 * apv * bpv
    checks.record(
        "pair1-offdiagonal",
        "off-diagonal composite entries are the two displayed quadrics",
        C1[0, 1] == F1_poly and C1[0, 2] == F2_poly,
    )
    diag_val = av * bv * apv * bpv + cv * av * cpv * apv + bv * cv * bpv * cpv
    checks.record(
        "pair1-diagonal",
        "diagonal composite entries all equal ab a'b' + ca c'a' + bc b'c'",
        all(C1[r, r] == diag_val for r in range(3)),
    )
    checks.record(
        "pair2-same-equations",
        "the second pair reproduces the same equations",
        {composites[2][0, 1], composites[2][0, 2]} == {F1_poly, F2_poly}
        and all(composites[2][r, r] == diag_val for r in range(3)),
    )
    C3 = composites[3]
    F3_poly = (
        av ** 2 * apv ** 2 + bv ** 2 * bpv ** 2 + cv ** 2 * cpv ** 2
        - 2 * bv * cv * bpv * cpv - 2 * cv * av * cpv * apv - 2 * av * bv * apv * bpv
    )
    off_equal = all(
        C3[r1, j] == C3[r2, j]
        for j in range(3)
        for r1 in range(3)
        for r2 in range(3)
        if r1 != j and r2 != j
    )
    drops = [C3[j, j] - C3[(j + 1) % 3, j] for j in range(3)]
    checks.record(
        "pair3-mod-top",
        "each column of the diagonal composite is constant off the scalar part",
        off_equal and drops[0] == drops[1] and drops[1] == drops[2],
    )
    checks.record(
        "equation-extraction",
        "scalar condition yields the third quadric",
        C3[0, 0] - C3[1, 0] - C1[0, 0] == F3_poly,
    )
    for name, poly in (("F1", F1_poly), ("F2", F2_poly), ("F3", F3_poly)):
        equations.append({"name": name, "expression": poly.to_text() + " = 0"})

    # the resultant identity
    Fq1, Fq2, Fq3 = case1_system(ring3)
    built = _extract_quadrics(F1_poly, F2_poly, F3_poly, ring3)
    checks.record(
        "system-display",
        "the extracted quadrics match the stated system",
        built[0].coeffs == Fq1.coeffs and built[1].coeffs == Fq2.coeffs and built[2].coeffs == Fq3.coeffs,
    )
    D1, D2, D3 = dets = sylvester_dets(Fq1, Fq2, Fq3)
    disp_D1 = TernaryQuadratic(
        (
            2 * a * b * c * (b ** 3 - c ** 3),
            ring3.zero(),
            a ** 2 * b * (c ** 3 - a ** 3),
            ring3.zero(),
            b * c ** 2 * (2 * b ** 3 + c ** 3 - 3 * a ** 3),
            b ** 2 * c * (a ** 3 - b ** 3),
        ),
        ring3,
    )
    disp_D2 = TernaryQuadratic(
        (
            b ** 2 * c * (a ** 3 - b ** 3),
            2 * a * b * c * (c ** 3 - a ** 3),
            ring3.zero(),
            c ** 2 * a * (b ** 3 - c ** 3),
            ring3.zero(),
            c * a ** 2 * (2 * c ** 3 + a ** 3 - 3 * b ** 3),
        ),
        ring3,
    )
    disp_D3 = TernaryQuadratic(
        (
            ring3.zero(),
            c ** 2 * a * (b ** 3 - c ** 3),
            2 * a * b * c * (a ** 3 - b ** 3),
            a * b ** 2 * (2 * a ** 3 + b ** 3 - 3 * c ** 3),
            a ** 2 * b * (c ** 3 - a ** 3),
            ring3.zero(),
        ),
        ring3,
    )
    checks.record(
        "auxiliary-quadrics",
        "D1, D2, D3 match their displayed expansions",
        D1.coeffs == disp_D1.coeffs and D2.coeffs == disp_D2.coeffs and D3.coeffs == disp_D3.coeffs,
    )
    res = sylvester_resultant(Fq1, Fq2, Fq3, dets)
    target = (a * b * c) ** 2 * type_a_poly ** 2
    checks.record(
        "resultant-identity",
        "resultant = a^2 b^2 c^2 ((a^3+b^3+c^3)^3 - 27 a^3 b^3 c^3)^2",
        res == target,
    )
    checks.record(
        "resultant-expansion",
        "resultant matches the expanded 24-degree form term by term",
        res == _resultant_display(ring3),
    )
    equations.append({"name": "resultant", "expression": "a^2*b^2*c^2*((a^3+b^3+c^3)^3 - 27*a^3*b^3*c^3)^2"})
    for trip in ((1, 1, 2), (1, 2, 3)):
        val = res.evaluate({"a": trip[0], "b": trip[1], "c": trip[2]})
        pt = SklParameters.numeric(*trip)
        checks.record(
            "resultant-sample-%d%d%d" % trip,
            "resultant is nonzero at a smooth-elliptic sample",
            is_type_A(pt) and not val.is_zero(),
            "value %s" % format_scalar(val),
        )

    report = _finish(
        1,
        "scalar braiding character, q = 1",
        {"q": "1", "lam": "q^2"},
        equations,
        checks,
        "contradiction reproduced: the system has no nonzero solution for any "
        "smooth-elliptic triple, so no braiding with scalar character exists",
    )
    report.resultant = res
    return report


def _extract_quadrics(F1p: MultiPoly, F2p: MultiPoly, F3p: MultiPoly, ring3: PolyRing):
    """Read (ap, bp, cp)-quadratic coefficients into the parameter-only ring."""
    quad_expos = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    out = []
    for poly in (F1p, F2p, F3p):
        parts = poly.coefficients_in(("ap", "bp", "cp"), ring3)
        if not set(parts) <= set(quad_expos):
            raise ValueError("not quadratic in (ap, bp, cp)")
        out.append(TernaryQuadratic(tuple(parts.get(e, ring3.zero()) for e in quad_expos), ring3))
    return out



def verify_case2() -> CaseReport:
    """Order-3 braiding character: q is a primitive cube root of unity."""
    checks = CheckReport("case2")
    equations: List[Dict[str, str]] = []
    C3 = cyclotomic_field(3)
    eps = primitive_root(3, C3)
    q = eps
    lam = q * q

    checks.record(
        "braiding-gate",
        "tr of the diagonal braiding is lam(1+eps+eps^2) = 0, forcing 1+q+q^2 = 0",
        (1 + eps + eps ** 2).is_zero() and (q * (1 + q + q ** 2)).is_zero(),
    )
    ok_phi = all(q ** 4 * (lam * eps ** i) ** (-2) == eps ** i for i in (1, 2, 3))
    checks.record("nakayama-diagonal", "phi(x_i) = eps^i x_i from phi = q^4 theta^(-2)", ok_phi)

    # vanishing pattern forced by twisted cyclicity
    forced = all(
        eps ** (i + j + k) != C3.one()
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
        if (i + j + k) % 3
    )
    checks.record(
        "forced-zeros",
        "f(x_i x_j x_k) = 0 whenever i+j+k != 0 mod 3 (eps^(i+j+k) != 1)",
        forced,
    )

    ring = PolyRing(("a", "b", "c", "ap", "bp", "cp"), order=3)
    av, bv, cv, apv, bpv, cpv = ring.vars()
    zero = ring.zero()
    rels = skl_relations(SklParameters(av, bv, cv, ring))

    # g = q^(-1) f; only degree classes with letter sum 0 mod 3 survive
    g = [zero] * 27
    for letters, value in (
        ((1, 2, 3), apv),
        ((3, 1, 2), apv),
        ((2, 3, 1), eps * apv),
        ((2, 1, 3), bpv),
        ((3, 2, 1), bpv),
        ((1, 3, 2), eps ** 2 * bpv),
        ((3, 3, 3), cpv),
    ):
        g[tensor_index(letters, 3)] = value
    checks.record("cyclicity", "f(v1 v2 v3) = eps^k f(x_k v1 v2)", _is_cyclic(g, eps))

    vals = front_pairing(g, rels, ring)
    checks.record("f-off-diagonal", "f(x_j t_i) = 0 for i != j", _off_diagonal_zero(vals))
    for i in (1, 2, 3):
        equations.append(
            {"name": "normalization-%d" % i, "expression": vals[i - 1, i - 1].to_text() + " = e^%d" % i}
        )

    # projection P(w) = sum eps^(-i) g(x_i w) t_i and its table
    P = _projection(g, rels, ring, [ring.const(eps ** -i) for i in (1, 2, 3)])
    table = {
        (1, 1): (zero, zero, zero),
        (2, 2): (zero, zero, zero),
        (3, 3): (zero, zero, cpv),
        (2, 3): (eps ** 2 * apv, zero, zero),
        (3, 2): (eps * bpv, zero, zero),
        (3, 1): (zero, eps ** 2 * apv, zero),
        (1, 3): (zero, eps * bpv, zero),
        (1, 2): (zero, zero, apv),
        (2, 1): (zero, zero, bpv),
    }
    rule = "P kills x_1^2, x_2^2 and scales the mixed pairs by eps-twisted a', b', c'"
    _record_equal(checks, "projection-table", rule, P, _table_matrix(table, rels, ring))

    # restricted maps on the first pair of 3-dimensional subspaces
    M_full, N_full = restricted_maps(P, rels)
    Mp, Np = _pair_minors(M_full, N_full, *_PAIRS[1], ring)
    disp_M = [
        [av * bpv, cv * apv, bv * cpv],
        [zero, eps * av * bpv, eps ** 2 * cv * apv],
        [eps ** 2 * cv * apv, zero, eps * av * bpv],
    ]
    disp_N = [
        [bv * apv, cv * bpv, av * cpv],
        [zero, eps ** 2 * bv * apv, eps * cv * bpv],
        [eps * cv * bpv, zero, eps ** 2 * bv * apv],
    ]
    disp = _beside(MatrixF.from_rows(disp_M, ring), MatrixF.from_rows(disp_N, ring))
    _record_equal(checks, "pair-matrices", "the two restricted maps match their eps-twisted displays", _beside(Mp, Np), disp)

    C = Mp * Np
    witness_col = (
        av * bv * apv * bpv + eps * bv * cv * bpv * cpv,
        cv ** 2 * apv * bpv,
        eps ** 2 * (bv * cv * apv ** 2 + cv * av * bpv ** 2),
    )
    rule = "(Id x P)(P x Id)(x_1 t_3) has the displayed three components"
    _record_equal(checks, "composite-witness", rule, MatrixF(3, 1, C.col(0), ring), MatrixF(3, 1, witness_col, ring))
    eq1 = bv * cv * apv ** 2 + cv * av * bpv ** 2
    eq2 = cv ** 2 * apv * bpv
    equations.append({"name": "offdiag-1", "expression": eq1.to_text() + " = 0"})
    equations.append({"name": "offdiag-2", "expression": eq2.to_text() + " = 0"})

    # forcing a' = b' = 0 when abc != 0
    branch_a = eq1.substitute({"ap": 0}) == cv * av * bpv ** 2
    branch_b = eq1.substitute({"bp": 0}) == bv * cv * apv ** 2
    checks.record(
        "forcing",
        "c^2 a'b' = 0 makes one of a', b' vanish; then bc a'^2 + ca b'^2 = 0 kills the other",
        branch_a and branch_b,
    )
    checks.record(
        "collapsed-column",
        "with a' = b' = 0 the composite annihilates x_1 t_3",
        all(v.substitute({"ap": 0, "bp": 0}).is_zero() for v in C.col(0)),
    )
    kappa = q / (1 + q) ** 2
    checks.record(
        "scalar-nonzero",
        "q(1+q)^(-2) = 1 != 0 at a primitive cube root",
        (1 + q) ** 2 == q and kappa == C3.one(),
    )

    # numeric witness at a smooth-elliptic sample
    C3q = cyclotomic_field(3, q_power=1)
    qn = C3q.q()
    pt = SklParameters.numeric(1, 1, 2, C3q)
    checks.record("sample-smooth", "(1,1,2) is a smooth-elliptic triple", is_type_A(pt))
    gn = [C3q.zero()] * 27
    gn[tensor_index((3, 3, 3), 3)] = C3q.scalar(Fraction(1, 2))
    epsn = primitive_root(3, C3q)
    Pn = _projection(gn, skl_relations(pt), C3q, [epsn ** -i for i in (1, 2, 3)])
    Rn = MatrixF.identity(9, C3q).scale(qn) - Pn.scale(qn + 1)
    hecke_ok, _ = check_hecke(Rn, qn)
    braid_ok, witness = check_braid(Rn)
    checks.record(
        "braid-residual",
        "the forced family satisfies the quadratic relation but not the braid equation",
        hecke_ok and not braid_ok,
        "defect " + witness if witness else "",
    )
    return _finish(
        2,
        "order-3 braiding character, q a primitive cube root of unity",
        {"q": "e", "lam": "e^2"},
        equations,
        checks,
        "contradiction reproduced: the braid constraints force a' = b' = 0, and the "
        "resulting operator violates the braid equation",
    )



def verify_case3() -> CaseReport:
    """Order-2 braiding character with a = b; q^2 = -1."""
    checks = CheckReport("case3")
    equations: List[Dict[str, str]] = []

    # trace gates pin lam = q^2 and q^2 = -1
    q = GENERIC_Q.q()
    checks.record(
        "gate-identity",
        "q^2(1+q+q^2)^2 - q^3(1+q+q^2) = q^2 (1+q+q^2)(1+q^2): nonzero lam needs q^2 = -1",
        q ** 2 * (1 + q + q ** 2) ** 2 - q ** 3 * (1 + q + q ** 2) == q ** 2 * (1 + q + q ** 2) * (1 + q ** 2),
    )
    C4 = cyclotomic_field(4, q_power=1)
    qi = C4.q()
    lam = qi * (1 + qi + qi ** 2)
    checks.record(
        "gate-values",
        "at q = i: lam = q(1+q+q^2) = -1 = q^2 and lam^2 = q^3(1+q+q^2)",
        lam == qi ** 2 and lam == -C4.one() and lam ** 2 == qi ** 3 * (1 + qi + qi ** 2),
    )
    checks.record(
        "nakayama-trivial",
        "phi = q^4 theta^(-2) = Id since theta^2 = lam^2 Id = Id",
        (qi ** 4).is_one() and (lam ** 2).is_one(),
    )

    # the swap braiding exchanges t_1 and t_2
    ring_swap = PolyRing(("a", "c", "lam"))
    a_s, c_s, lam_s = ring_swap.vars()
    zs = ring_swap.zero()
    rels_s = skl_relations(SklParameters(a_s, a_s, c_s, ring_swap))
    theta_s = MatrixF.from_rows([[zs, lam_s, zs], [lam_s, zs, zs], [zs, zs, lam_s]], ring_swap)
    lam2 = lam_s * lam_s
    # row j of the stacked images (linalg._stack) is theta^(x)2 (t_(j+1))
    images = MatrixF(9, 3, apply_power(theta_s, 2, _stack(rels_s, 3, zs), m=3), ring_swap).transpose()
    rule = "theta^(x)2 sends t_1, t_2, t_3 to lam^2 t_2, lam^2 t_1, lam^2 t_3"
    _record_equal(checks, "relation-swap", rule, images, MatrixF.from_rows([rels_s[1], rels_s[0], rels_s[2]], ring_swap).scale(lam2))

    # the two linear systems and their solutions over d = 8a^3 + c^3
    ring = PolyRing(("a", "c", "ap", "bp", "cp", "cpp"))
    a, c, ap, bp, cp, cpp = ring.vars()
    zero = ring.zero()
    d = 8 * a ** 3 + c ** 3
    checks.record(
        "system-determinant",
        "det = 8a^3 + c^3 = (a+b)^3 + c^3 at a = b",
        _circulant((2 * a, c, zero), ring).det() == d,
    )
    # solved values, cleared by d: f = (q/d) * gt on each class
    sol_ok = (
        2 * a * (4 * a ** 2) + c * c ** 2 == d
        and (2 * a * c ** 2 + c * (-2 * a * c)).is_zero()
        and (2 * a * (-2 * a * c) + c * (4 * a ** 2)).is_zero()
    )
    checks.record(
        "system-solution",
        "f(x_2 x_3^2) = -2qac/d, f(x_3 x_1^2) = 4qa^2/d, f(x_1 x_2^2) = qc^2/d solve the system",
        sol_ok,
    )

    # gt = (d/q) f on all 27 monomials, constant on each cyclic orbit
    gt = [zero] * 27
    for (i, j, k), value in (
        ((2, 3, 3), -2 * a * c),
        ((1, 3, 3), -2 * a * c),
        ((3, 1, 1), 4 * a ** 2),
        ((3, 2, 2), 4 * a ** 2),
        ((1, 2, 2), c ** 2),
        ((2, 1, 1), c ** 2),
        ((1, 2, 3), d * ap),
        ((2, 1, 3), d * bp),
        ((1, 1, 1), d * cp),
        ((2, 2, 2), d * cp),
        ((3, 3, 3), d * cpp),
    ):
        for word in ((i, j, k), (k, i, j), (j, k, i)):
            gt[tensor_index(word, 3)] = value
    checks.record("cyclicity", "f(v1 v2 v3) = f(v3 v1 v2) (phi = Id)", _is_cyclic(gt))

    rels = skl_relations(SklParameters(a, a, c, ring))
    rel1 = a * (ap + bp) + c * cp
    rel2 = c * cpp - c * cp - 1
    want = MatrixF.from_rows([[d * rel1, d, zero], [d, d * rel1, zero], [zero, zero, d * (rel1 + c * cpp - c * cp)]], ring)
    rule = "f(x_1 t_2) = f(x_2 t_1) = f(x_3 t_3) = q and the rest vanish, given the side relations"
    _record_equal(checks, "braiding-normalization", rule, front_pairing(gt, rels, ring), want)
    equations.append({"name": "side-relation-1", "expression": rel1.to_text() + " = 0"})
    equations.append({"name": "side-relation-2", "expression": rel2.to_text() + " = 0"})

    # P scaled by d: P(w) = gt(x_2 w) t_1 + gt(x_1 w) t_2 + gt(x_3 w) t_3
    P = _projection(gt, rels, ring, order=(1, 0, 2))
    table = {
        (1, 1): (c ** 2, d * cp, 4 * a ** 2),
        (2, 2): (d * cp, c ** 2, 4 * a ** 2),
        (3, 3): (-2 * a * c, -2 * a * c, d * cpp),
        (2, 3): (4 * a ** 2, d * ap, -2 * a * c),
        (3, 2): (4 * a ** 2, d * bp, -2 * a * c),
        (3, 1): (d * ap, 4 * a ** 2, -2 * a * c),
        (1, 3): (d * bp, 4 * a ** 2, -2 * a * c),
        (1, 2): (c ** 2, c ** 2, d * ap),
        (2, 1): (c ** 2, c ** 2, d * bp),
    }
    _record_equal(checks, "projection-table", "the nine scaled projection values match the display", P, _table_matrix(table, rels, ring))

    # restricted maps; N is M with a' and b' interchanged
    M, N = restricted_maps(P, rels)
    a2, a3, c2, c3 = a ** 2, a ** 3, c ** 2, c ** 3
    da2c, dac2 = -2 * a2 * c, -2 * a * c2
    disp_M = [
        [c3, d*a*ap, a*c2, c3, 4*a3, d*a*cp, d*c*bp, da2c, 4*a3],
        [d*c*cp, 4*a3, a*c2, c3, d*a*bp, a*c2, 4*a2*c, da2c, d*a*ap],
        [4*a2*c, da2c, d*a*bp, d*c*ap, da2c, 4*a3, dac2, d*a*cpp, da2c],
        [d*a*ap, c3, a*c2, 4*a3, d*c*cp, a*c2, da2c, 4*a2*c, d*a*bp],
        [4*a3, c3, d*a*cp, d*a*bp, c3, a*c2, da2c, d*c*ap, 4*a3],
        [da2c, d*c*bp, 4*a3, da2c, 4*a2*c, d*a*ap, d*a*cpp, dac2, da2c],
        [a*c2, a*c2, d*c*ap, d*a*cp, a*c2, 4*a2*c, 4*a3, d*a*bp, dac2],
        [a*c2, d*a*cp, 4*a2*c, a*c2, a*c2, d*c*bp, d*a*ap, 4*a3, dac2],
        [d*a*bp, 4*a3, dac2, 4*a3, d*a*ap, dac2, da2c, da2c, d*c*cpp],
    ]
    rule = "the scaled matrix of Id (x) P matches the displayed nine-by-nine array"
    _record_equal(checks, "matrix-display", rule, M, MatrixF.from_rows(disp_M, ring), "first entry is c^3 scaled by d^(-1)")
    swap_sub = {"ap": bp, "bp": ap}
    swapped = MatrixF(9, 9, [x.substitute(swap_sub) for x in M.entries], ring)
    _record_equal(checks, "swap-relation", "N = M with a' and b' interchanged", N, swapped)

    # the equations read only column 0 of MN
    mn0 = M.apply(N.col(0))
    daa = d * a * ap
    dab = d * a * bp
    eq_disp = {
        (1, 0): d * (c * cp + a * bp) * (c ** 3 + 4 * a ** 3) + 4 * a ** 3 * c ** 3 + daa ** 2,
        (3, 0): d * (a * ap + c * cp) * c ** 3 + 4 * a ** 3 * c ** 3 + 4 * a ** 3 * d * (a * bp + c * cp) + dab * daa,
        (6, 0): a * c ** 5 + a * c ** 2 * d * (c * cp + 2 * a * ap + a * bp) + d ** 2 * a ** 2 * cp * bp,
        (7, 0): a * c ** 5 + d ** 2 * a * c * cp ** 2 + 24 * a ** 4 * c ** 2 + a * c ** 2 * (-(d * a * bp) - d * a * ap),
    }
    rule = "the (2,1), (4,1), (7,1), (8,1) entries of MN match the four displayed equations"
    disp = MatrixF(9, 1, [eq_disp.get((r, 0), x) for r, x in enumerate(mn0)], ring)
    _record_equal(checks, "equations-1-to-4", rule, MatrixF(9, 1, mn0, ring), disp)
    for idx, poly in enumerate(eq_disp.values(), start=1):
        equations.append({"name": "equation-%d" % idx, "expression": poly.to_text() + " = 0"})

    # factorizations after substituting the side relation c cp = -a(ap+bp)
    eq1p, eq2p = eq_disp[(1, 0)], eq_disp[(3, 0)]
    num_cp = -a * (ap + bp)
    fact1 = (daa - c ** 3) * (daa - 4 * a ** 3)
    fact2 = (daa - c ** 3) * (dab - 4 * a ** 3)
    checks.record(
        "factorization-1",
        "(1) becomes (d a a' - c^3)(d a a' - 4a^3) = 0",
        _sub_rational(eq1p, "cp", num_cp, c) == c ** eq1p.degree_in("cp") * fact1,
    )
    checks.record(
        "factorization-2",
        "(2) becomes (d a a' - c^3)(d a b' - 4a^3) = 0",
        _sub_rational(eq2p, "cp", num_cp, c) == c ** eq2p.degree_in("cp") * fact2,
    )
    # the companion relations with a' and b' interchanged
    sub1s = _sub_rational(eq1p.substitute(swap_sub), "cp", num_cp, c)
    sub2s = _sub_rational(eq2p.substitute(swap_sub), "cp", num_cp, c)
    checks.record(
        "factorization-swapped",
        "the a' <-> b' companions factor the same way",
        sub1s == c ** eq1p.degree_in("cp") * fact1.substitute(swap_sub)
        and sub2s == c ** eq2p.degree_in("cp") * fact2.substitute(swap_sub),
    )
    equations.append({"name": "branch", "expression": "(d*a*ap - c^3)*(d*a*ap - 4*a^3) = 0 and swaps"})

    # equation (3) under b' = a', c cp = -2 a ap
    eq3_sym = eq_disp[(6, 0)].substitute({"bp": ap})
    checks.record(
        "branch-quadric",
        "c/a times (3) becomes (c^3 - d a a')(c^3 + 2 d a a') = 0",
        _sub_rational(eq3_sym, "cp", -2 * a * ap, c) == a * (c ** 3 - daa) * (c ** 3 + 2 * daa),
    )
    checks.record(
        "branch-exclusion",
        "d a a' = 4a^3 would force c^3 + 8a^3 = 0, but that is d != 0",
        c ** 3 + 2 * (4 * a ** 3) == d,
    )

    # terminal contradiction: (4) at d a a' = d a b' = c^3, c cp = -2 a ap
    eq4_sym = eq_disp[(7, 0)].substitute({"bp": ap})
    step = _sub_rational(eq4_sym, "ap", c ** 3, d * a)
    step = _sub_rational(step, "cp", -2 * c ** 2, d)
    checks.record(
        "terminal",
        "(4) collapses to 3 a c^2 d = 0, contradicting ac != 0 and d != 0",
        step == (d * a) ** eq4_sym.degree_in("ap") * d ** eq4_sym.degree_in("cp") * (3 * a * c ** 2 * d),
    )
    val = (3 * a * c ** 2 * d).evaluate({"a": 1, "c": 2, "ap": 0, "bp": 0, "cp": 0, "cpp": 0})
    checks.record(
        "sample-nonzero",
        "3 a c^2 d != 0 at the smooth-elliptic sample a = b = 1, c = 2",
        is_type_A(SklParameters.numeric(1, 1, 2)) and not val.is_zero(),
        "value %s" % format_scalar(val),
    )
    equations.append({"name": "terminal", "expression": "3*a*c^2*d = 0 (contradiction)"})

    return _finish(
        3,
        "order-2 braiding character with a = b; q^2 = -1",
        {"lam": "-1", "q^2": "-1", "d": "8*a^3 + c^3"},
        equations,
        checks,
        "contradiction reproduced: every branch of the factorizations ends in 3ac^2 d = 0",
    )



def verify_case4() -> CaseReport:
    """Order-4 braiding character with a = b."""
    checks = CheckReport("case4")
    equations: List[Dict[str, str]] = []
    ring = PolyRing(("q", "lam", "kap"), order=3)
    qv, lam, kap = ring.vars()
    C3 = cyclotomic_field(3)
    eps = primitive_root(3, C3)

    # trace gates
    G1 = lam * (eps - eps ** 2) - qv * (1 + qv + qv ** 2)
    G2 = lam ** 2 * (1 + 2 * kap) * (eps ** 2 - eps) - qv ** 3 * (1 + qv + qv ** 2)
    equations.append({"name": "trace-gate-1", "expression": G1.to_text() + " = 0"})
    equations.append({"name": "trace-gate-2", "expression": G2.to_text() + " = 0"})
    combo = (1 + 2 * kap) * lam * G1 + G2
    checks.record(
        "gate-combination",
        "(1+2k) lam G1 + G2 = -q(1+q+q^2)((1+2k) lam + q^2), so the gates force (1+2k) lam = -q^2",
        combo == -qv * (1 + qv + qv ** 2) * ((1 + 2 * kap) * lam + qv ** 2),
    )
    checks.record(
        "eps-nonzero",
        "eps - eps^2 != 0, so [3]_q = 0 would force lam = 0",
        not (eps - eps ** 2).is_zero(),
    )

    # the order-4 braiding matrix and its squares on the relations
    ringc = PolyRing(("c", "kap", "lam"), order=3)
    c_v, kap_v, lam_v = ringc.vars()
    a_v = kap_v * c_v
    theta = MatrixF.from_rows(
        [[lam_v * ringc.const(eps ** (i * j)) for j in (1, 2, 3)] for i in (1, 2, 3)], ringc
    )
    p_sym = SklParameters(a_v, a_v, c_v, ringc)
    rels = skl_relations(p_sym)
    factor = lam_v ** 2 * (1 + 2 * kap_v)
    krel_c = 2 * kap_v ** 2 + 2 * kap_v - 1
    stacked = MatrixF(9, 3, _stack(rels, 3, ringc.zero()), ringc)
    # column j - 1 of the display is sum_i lam^2 (1+2k) eps^(2ij) t_i
    coeffs = MatrixF.from_rows([[factor * ringc.const(eps ** ((2 * i * j) % 3)) for j in (1, 2, 3)] for i in (1, 2, 3)], ringc)
    images = MatrixF(9, 3, apply_power(theta, 2, stacked.entries, m=3), ringc)
    residues = MatrixF(9, 3, [x.reduce_mod(krel_c, "kap") for x in (images - stacked * coeffs).entries], ringc)
    rule = "theta^(x)2 (t_j) = lam^2 (1+2k) sum_i eps^(2ij) t_i modulo 2k^2+2k-1"
    checks.record("relation-action", rule, *_vanishes(residues.transpose()))
    tr_theta = theta.trace()
    checks.record(
        "trace-theta",
        "tr theta = lam (eps - eps^2)",
        tr_theta == lam_v * ringc.const(eps - eps ** 2),
    )
    tr2 = factor * ringc.const(eps ** 2 + eps ** 2 + 1)
    checks.record(
        "trace-squared",
        "tr on the relation space = lam^2 (1+2k)(eps^2 - eps)",
        tr2 == factor * ringc.const(eps ** 2 - eps),
    )

    # the symmetric cubic transforms with the stated coefficients
    ring_ts = PolyRing(("c", "kap", "lam", "x1", "x2", "x3"), order=3)
    cs, ks, ls = ring_ts.var("c"), ring_ts.var("kap"), ring_ts.var("lam")
    x = [ring_ts.var("x1"), ring_ts.var("x2"), ring_ts.var("x3")]
    ts = cs * (x[0] ** 3 + x[1] ** 3 + x[2] ** 3) + 6 * ks * cs * x[0] * x[1] * x[2]
    sub = {}
    for j in (1, 2, 3):
        acc = ring_ts.zero()
        for i in (1, 2, 3):
            acc = acc + ring_ts.const(eps ** (i * j)) * x[i - 1]
        sub["x%d" % j] = ls * acc
    mapped = ts.substitute(sub)
    target = (
        3 * (cs + 2 * ks * cs) * ls ** 3 * (x[0] ** 3 + x[1] ** 3 + x[2] ** 3)
        + 18 * (cs - ks * cs) * ls ** 3 * x[0] * x[1] * x[2]
    )
    checks.record(
        "cubic-image",
        "theta t^S = 3(c+2a) lam^3 (sum x_i^3) + 18(c-a) lam^3 x1x2x3",
        mapped == target,
    )
    krel = 2 * kap ** 2 + 2 * kap - 1
    cross = 3 * (1 + 2 * kap) * (6 * kap) - 18 * (1 - kap)
    checks.record(
        "kappa-relation",
        "proportionality to t^S forces 2k^2 + 2k = 1",
        cross == 18 * krel,
    )
    equations.append({"name": "kappa", "expression": krel.to_text() + " = 0"})

    # theta^(x)3 (t) = (3+6k) lam^3 t modulo the kappa relation
    t_vec = skl_tensor(p_sym)
    theta_cube = apply_power(theta, 3, t_vec)
    scale = (3 + 6 * kap_v) * lam_v ** 3
    cube_ok = all(
        (theta_cube[r] - scale * t_vec[r]).reduce_mod(krel_c, "kap").is_zero() for r in range(27)
    )
    checks.record(
        "top-scaling",
        "theta^(x)3 (t) = (3+6k) lam^3 t modulo 2k^2+2k-1",
        cube_ok,
    )
    equations.append({"name": "top-gate", "expression": "(3+6*kap)*lam^3 = q^6"})

    # remainder arithmetic: (1+2k)^3 = 3(1+2k) modulo (1+2k)^2 - 3
    u = 1 + 2 * kap
    modulus = u ** 2 - 3
    checks.record(
        "modulus-form",
        "(1+2k)^2 - 3 = 2(2k^2 + 2k - 1)",
        modulus == 2 * krel,
    )
    checks.record(
        "remainder",
        "(1+2k)^3 - 3(1+2k) has zero remainder modulo (1+2k)^2 - 3",
        (u ** 3 - 3 * u).reduce_mod(modulus, "kap").is_zero(),
    )
    cube_sum = (u * lam) ** 3 + qv ** 6
    factor_id = cube_sum == (u * lam + qv ** 2) * ((u * lam) ** 2 - u * lam * qv ** 2 + qv ** 4)
    checks.record(
        "cube-sum-factor",
        "((1+2k)lam)^3 + q^6 is a multiple of (1+2k)lam + q^2",
        factor_id,
    )
    rearrange = (3 + 6 * kap) * lam ** 3 + qv ** 6 + lam ** 3 * (u ** 3 - 3 * u) == (u * lam) ** 3 + qv ** 6
    checks.record(
        "assembly",
        "(3+6k)lam^3 + q^6 lies in the ideal of the kappa relation and (1+2k)lam + q^2",
        rearrange,
    )
    final = qv ** 6 + qv ** 6
    checks.record(
        "sign-contradiction",
        "(3+6k)lam^3 would equal both q^6 and -q^6; 2q^6 != 0 for q != 0",
        final == 2 * qv ** 6 and not final.is_zero(),
    )
    return _finish(
        4,
        "order-4 braiding character with a = b",
        {"(1+2k)^2": "3", "(1+2k)*lam": "-q^2"},
        equations,
        checks,
        "contradiction reproduced: the top scaling forces q^6 = -q^6",
    )
