import random
from fractions import Fraction

import pytest

from heckesym import obstruction
from heckesym.exactnum import GENERIC_Q, FieldSpec, cyclotomic_field, primitive_root
from heckesym.frobenius import reconstruct_from_f
from heckesym.linalg import MatrixF, Subspace, vec_combination
from heckesym.multipoly import PolyRing
from heckesym.obstruction import (
    TernaryQuadratic,
    _cyclic_functional,
    _projection,
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
from heckesym.symmetry import _packed_act, braid_defect, column_table, dj_standard, kron_vec, tensor_index


@pytest.fixture(scope="module")
def case_reports():
    return {
        1: verify_case1(),
        2: verify_case2(),
        3: verify_case3(),
        4: verify_case4(),
    }


def _lin_mul_reference(l1, l2, zero):
    """Every pair of coefficients multiplied and added into a zero: the product before zero factors were skipped."""
    out = [zero] * 6
    for u, x in enumerate(l1):
        for v, y in enumerate(l2):
            out[obstruction._SLOT[u][v]] += x * y
    return tuple(out)


def test_linear_form_product_skips_zero_factors(monkeypatch):
    from heckesym.multipoly import MultiPoly

    ring = PolyRing(("a", "b"), order=3)
    a, b = ring.vars()
    z = ring.zero()
    rng = random.Random("lin-mul")
    pool = (z, z, ring.one(), a, b - 2 * a, a * b + ring.const(Fraction(1, 3)))
    forms = [(z, z, z)] + [tuple(rng.choice(pool) for _ in range(3)) for _ in range(30)]
    calls = []
    real = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda self, other: calls.append(1) or real(self, other))
    for l1 in forms:
        for l2 in forms[:8]:
            monkeypatch.setattr(MultiPoly, "__mul__", real)
            want = _lin_mul_reference(l1, l2, z)
            monkeypatch.setattr(MultiPoly, "__mul__", lambda self, other: calls.append(1) or real(self, other))
            calls.clear()
            got = obstruction._lin_mul(l1, l2, z)
            assert got == want, (l1, l2)
            assert len(calls) == sum(not x.is_zero() for x in l1) * sum(not y.is_zero() for y in l2)


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


def _sylvester_dets_reference(F1, F2, F3):
    """sylvester_dets with its three splits written out, as it was before one rule served all three."""
    domain = F1.domain
    zero = domain.zero()

    def lin_mul(l1, l2):
        u1, v1, w1 = l1
        u2, v2, w2 = l2
        return (u1 * u2, v1 * v2, w1 * w2, v1 * w2 + w1 * v2, w1 * u2 + u1 * w2, u1 * v2 + v1 * u2)

    def det_for(split):
        consts, line1, line2 = zip(*(split(f.coeffs) for f in (F1, F2, F3)))
        total = None
        for j in range(3):
            j1, j2 = [m for m in range(3) if m != j]
            minor = tuple(x - y for x, y in zip(lin_mul(line1[j1], line2[j2]), lin_mul(line1[j2], line2[j1])))
            term = tuple(consts[j] * x for x in minor)
            if j == 1:
                term = tuple((domain.zero() - domain.one()) * x for x in term)
            total = term if total is None else tuple(x + y for x, y in zip(total, term))
        return TernaryQuadratic(total, domain)

    def split1(c):
        cx2, cy2, cz2, cyz, czx, cxy = c
        return cx2, (cxy, cy2, cyz), (czx, zero, cz2)

    def split2(c):
        cx2, cy2, cz2, cyz, czx, cxy = c
        return cy2, (czx, cyz, cz2), (cx2, cxy, zero)

    def split3(c):
        cx2, cy2, cz2, cyz, czx, cxy = c
        return cz2, (cx2, cxy, czx), (zero, cy2, cyz)

    return det_for(split1), det_for(split2), det_for(split3)


def test_sylvester_dets_match_the_three_split_reference():
    ring = PolyRing(("a", "b", "c"), 3)
    a, b, c = ring.vars()
    C3 = cyclotomic_field(3)
    rat = FieldSpec("rational")
    small = lambda rng: rng.choice((0, 0, 0, 1, -1, 2, -3))
    domains = [
        (rat, lambda rng: rat.scalar(Fraction(small(rng), rng.choice((1, 2))))),
        (C3, lambda rng: small(rng) * C3.one() + small(rng) * C3.e()),
        (ring, lambda rng: small(rng) * a + small(rng) * b * c + small(rng) * C3.e() * ring.one()),
    ]
    rng = random.Random("sylvester")
    for domain, entry in domains:
        for _ in range(12):
            forms = [TernaryQuadratic(tuple(entry(rng) for _ in range(6)), domain) for _ in range(3)]
            assert sylvester_dets(*forms) == _sylvester_dets_reference(*forms), forms
    F1, F2, F3 = case1_system()
    assert sylvester_dets(F1, F2, F3) == _sylvester_dets_reference(F1, F2, F3)


def test_verify_case1_forms_the_auxiliary_quadrics_once(monkeypatch):
    # the auxiliary-quadrics check and the resultant share one sylvester_dets
    calls, real = [], obstruction.sylvester_dets
    monkeypatch.setattr(obstruction, "sylvester_dets", lambda *forms: calls.append(forms) or real(*forms))
    report = verify_case1()
    assert report.ok and len(calls) == 1
    assert report.resultant == sylvester_resultant(*case1_system()) and len(calls) == 2


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
    t_coords = A.solve(MF(27, 1, t, F9))
    assert t_coords is not None
    t_coords = t_coords.entries
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


# -- reference for restricted_maps: apply Id (x) P and P (x) Id as slot actions
# to the 27-long mixed basis vectors and solve each image back


def _solve_in_basis_reference(vec, basis, t_rows, layout, domain):
    if isinstance(domain, FieldSpec):
        sol = MatrixF.from_rows(basis, domain).transpose().solve(MatrixF(len(vec), 1, vec, domain))
        if sol is None:
            raise ValueError("vector left the expected subspace")
        return list(sol.entries)
    coords = []
    for m in range(len(basis)):
        outer, i_rel = divmod(m, 3)
        square_word = (i_rel + 1, i_rel + 1)
        word = (outer + 1,) + square_word if layout == "xt" else square_word + (outer + 1,)
        square = t_rows[i_rel][tensor_index(square_word, 3)]
        if square.is_zero():
            raise ValueError("relation tensor has no square term; cannot extract")
        val = vec[tensor_index(word, 3)]
        coords.append(val.exact_div(square) if not val.is_zero() else domain.zero())
    if vec_combination(coords, basis, domain.zero()) != tuple(vec):
        raise ValueError("vector left the expected subspace")
    return coords


def _restricted_maps_reference(P, relations):
    domain = P.domain
    zero = domain.zero()
    t_rows = [tuple(t) for t in relations]
    x = MatrixF.identity(3, domain).row_list()
    cols = column_table(P)
    xt_basis = [kron_vec(x[j], t_rows[i], domain) for j in range(3) for i in range(3)]
    tx_basis = [kron_vec(t_rows[a], x[b], domain) for b in range(3) for a in range(3)]
    m_cols = [_solve_in_basis_reference(_packed_act(cols, 3, [((2,), None)], v, zero).values(), xt_basis, t_rows, "xt", domain) for v in tx_basis]
    n_cols = [_solve_in_basis_reference(_packed_act(cols, 3, [((1,), None)], v, zero).values(), tx_basis, t_rows, "tx", domain) for v in xt_basis]
    return MatrixF.from_rows(m_cols, domain).transpose(), MatrixF.from_rows(n_cols, domain).transpose()


def _case1_projection():
    ring = PolyRing(("a", "b", "c", "ap", "bp", "cp"))
    a, b, c, ap, bp, cp = ring.vars()
    rels = skl_relations(SklParameters(a, b, c, ring))
    return _projection(_cyclic_functional(ap, bp, cp, ring.zero()), rels, ring), rels


def _case2_projection():
    ring = PolyRing(("a", "b", "c", "ap", "bp", "cp"), order=3)
    a, b, c, ap, bp, cp = ring.vars()
    eps = primitive_root(3, cyclotomic_field(3))
    g = [ring.zero()] * 27
    for letters, value in (
        ((1, 2, 3), ap), ((3, 1, 2), ap), ((2, 3, 1), eps * ap),
        ((2, 1, 3), bp), ((3, 2, 1), bp), ((1, 3, 2), eps ** 2 * bp), ((3, 3, 3), cp),
    ):
        g[tensor_index(letters, 3)] = value
    rels = skl_relations(SklParameters(a, b, c, ring))
    return _projection(g, rels, ring, [ring.const(eps ** -i) for i in (1, 2, 3)]), rels


def _case3_projection():
    ring = PolyRing(("a", "c", "ap", "bp", "cp", "cpp"))
    a, c, ap, bp, cp, cpp = ring.vars()
    d = 8 * a ** 3 + c ** 3
    gt = [ring.zero()] * 27
    for (i, j, k), value in (
        ((2, 3, 3), -2 * a * c), ((1, 3, 3), -2 * a * c), ((3, 1, 1), 4 * a ** 2), ((3, 2, 2), 4 * a ** 2),
        ((1, 2, 2), c ** 2), ((2, 1, 1), c ** 2), ((1, 2, 3), d * ap), ((2, 1, 3), d * bp),
        ((1, 1, 1), d * cp), ((2, 2, 2), d * cp), ((3, 3, 3), d * cpp),
    ):
        for word in ((i, j, k), (k, i, j), (j, k, i)):
            gt[tensor_index(word, 3)] = value
    rels = skl_relations(SklParameters(a, a, c, ring))
    return _projection(gt, rels, ring, order=(1, 0, 2)), rels


def _numeric_projections(field, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < 3:
        p = SklParameters.numeric(*(rng.randint(-4, 4) for _ in range(3)), field)
        if not is_type_A(p):
            continue
        f = [field.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(27)]
        rels = skl_relations(p)
        out.append((_projection(f, rels, field), rels))
    return out


def _genuine_projection():
    sym = dj_standard(3)
    q = GENERIC_Q.q()
    P = (MatrixF.identity(9, GENERIC_Q).scale(q) - sym.R).scale((1 + q).inverse())
    return P, [list(row) for row in sym.upsilon(2).basis]


def _all_projections():
    return (
        [_case1_projection(), _case2_projection(), _case3_projection(), _genuine_projection()]
        + _numeric_projections(FieldSpec("rational"), 11)
        + _numeric_projections(cyclotomic_field(3), 12)
    )


def test_restricted_maps_match_slot_action_reference():
    for P, rels in _all_projections():
        assert restricted_maps(P, rels) == _restricted_maps_reference(P, rels)


def test_restricted_maps_reject_a_column_outside_span_t():
    for P, rels in (_case3_projection(), _numeric_projections(cyclotomic_field(3), 13)[0]):
        # e_(x_1 x_2) added to column 4: t_3 carries x_2 x_1 and x_3^2 too, so it leaves span(t)
        entries = list(P.entries)
        entries[tensor_index((1, 2), 3) * 9 + 4] = entries[tensor_index((1, 2), 3) * 9 + 4] + 1
        bad = MatrixF(9, 9, entries, P.domain)
        for maps in (restricted_maps, _restricted_maps_reference):
            with pytest.raises(ValueError, match="left the expected subspace"):
                maps(bad, rels)


def test_restricted_map_checks_name_the_differing_entry(monkeypatch):
    original = obstruction.restricted_maps

    def perturbed(P, relations):
        M, N = original(P, relations)
        entries = list(M.entries)
        entries[2 * 9 + 2] = entries[2 * 9 + 2] + 1
        return MatrixF(9, 9, entries, M.domain), N

    monkeypatch.setattr(obstruction, "restricted_maps", perturbed)
    # M[2,2] is entry (0,0) of the first pair's map
    checks = {c.name: c for c in verify_case1().checks.checks}
    assert checks["pair1-matrices"].status == "fail"
    assert checks["pair1-matrices"].detail.startswith("entry (0,0) = ")
    checks = {c.name: c for c in verify_case3().checks.checks}
    assert checks["matrix-display"].status == "fail"
    assert checks["matrix-display"].detail.startswith("entry (2,2) = ")


def test_projection_tables_and_composite_witness_name_an_entry(monkeypatch):
    original = obstruction._projection

    def moved(f, relations, domain, *args, **kwargs):
        # t_1 added to column x_1 x_1 of P keeps P inside span(t), so the restricted maps exist
        P = original(f, relations, domain, *args, **kwargs)
        entries = list(P.entries)
        for r in range(9):
            entries[r * 9] = entries[r * 9] + relations[0][r]
        return MatrixF(9, 9, entries, P.domain)

    monkeypatch.setattr(obstruction, "_projection", moved)
    for verify in (verify_case1, verify_case2, verify_case3):
        checks = {c.name: c for c in verify().checks.checks}
        # P - table is t_1 in column 0, and the first coordinate of t_1 is c
        assert (checks["projection-table"].status, checks["projection-table"].detail) == ("fail", "entry (0,0) = c")
        if verify is verify_case2:
            witness = checks["composite-witness"]
            assert (witness.status, witness.detail) == ("fail", "entry (0,0) = a*c*ap")


def test_passing_restricted_map_checks_keep_their_details(case_reports):
    details = {c.name: c.detail for rep in case_reports.values() for c in rep.checks.checks}
    assert details["matrix-display"] == "first entry is c^3 scaled by d^(-1)"
    for name in (
        "swap-relation",
        "pair1-matrices",
        "pair3-matrices",
        "pair-matrices",
        "equations-1-to-4",
        "projection-table",
        "composite-witness",
        "relation-swap",
        "relation-action",
        "braiding-normalization",
    ):
        assert details[name] == ""


def test_relation_checks_make_one_action_and_name_an_entry(monkeypatch):
    original = obstruction.apply_power
    calls = []

    def bumped(A, k, vec, zero=None, m=1):
        # coordinate 4 of the second stacked relation (entry 4 * m + 1) moves by 1
        calls.append(m)
        out = list(original(A, k, vec, zero, m))
        if m == 3:
            out[4 * 3 + 1] = out[4 * 3 + 1] + 1
        return tuple(out)

    monkeypatch.setattr(obstruction, "apply_power", bumped)
    swap = next(c for c in verify_case3().checks.checks if c.name == "relation-swap")
    assert calls == [3] and (swap.status, swap.detail) == ("fail", "entry (1,4) = 1")
    calls.clear()
    action = next(c for c in verify_case4().checks.checks if c.name == "relation-action")
    assert calls.count(3) == 1 and (action.status, action.detail) == ("fail", "entry (1,4) = 1")


def test_braiding_normalization_names_an_entry(monkeypatch):
    original = obstruction.front_pairing

    def moved(f, relations, domain):
        vals = original(f, relations, domain)
        entries = list(vals.entries)
        entries[2] = entries[2] + 1
        return MatrixF(3, 3, entries, vals.domain)

    monkeypatch.setattr(obstruction, "front_pairing", moved)
    check = next(c for c in verify_case3().checks.checks if c.name == "braiding-normalization")
    assert (check.status, check.detail) == ("fail", "entry (0,2) = 1")
