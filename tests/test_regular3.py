import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, PoleError, cyclotomic_field, primitive_root
from heckesym.linalg import MatrixF, first_minor, vec_combination
from heckesym.multipoly import PolyRing
from heckesym.regular3 import (
    ProjectiveElement,
    _normalize,
    _normalize_point,
    _perm_order,
    _PointAction,
    SklParameters,
    action_on_parameters,
    center_extension,
    conjugacy_classes,
    conjugacy_report,
    cube_difference_factorization,
    cyclic_slots,
    generators_permute_inflections,
    hessian_field,
    hessian_generators,
    hessian_group,
    inflection_points,
    is_regular,
    is_type_A,
    j_invariant,
    preserves_relations,
    skl_relations,
    skl_symmetric_image,
    skl_tensor,
    symbolic_parameters,
    transform_point,
    translation_subgroup,
)
from heckesym.symmetry import apply_power

Q = FieldSpec("rational")


@pytest.fixture(scope="module")
def group():
    return hessian_group()


@pytest.fixture(scope="module")
def hessian_data():
    return conjugacy_report()


def test_relations_special_values():
    p = SklParameters.numeric(0, 0, 1)
    rels = skl_relations(p)
    # t_i = x_i^2: single diagonal slot each
    for i, t in enumerate(rels):
        nz = [k for k, x in enumerate(t) if not x.is_zero()]
        assert nz == [i * 3 + i]
    p = SklParameters.numeric(1, 1, 0)
    rels = skl_relations(p)
    for i, t in enumerate(rels):
        nz = sorted(k for k, x in enumerate(t) if not x.is_zero())
        up, dn = (i + 1) % 3, (i + 2) % 3
        assert nz == sorted([up * 3 + dn, dn * 3 + up])


def test_tensor_two_sided(monkeypatch=None):
    p, ring = symbolic_parameters()
    t = skl_tensor(p)
    rels = skl_relations(p)
    zero = ring.zero()
    left = [zero] * 27
    right = [zero] * 27
    for i in range(3):
        for w in range(9):
            left[i * 9 + w] = left[i * 9 + w] + rels[i][w]
            right[w * 3 + i] = right[w * 3 + i] + rels[i][w]
    assert list(t) == left
    assert list(t) == right


def test_tensor_coefficients():
    p, ring = symbolic_parameters()
    t = skl_tensor(p)

    def slot(i, j, k):
        return (i - 1) * 9 + (j - 1) * 3 + (k - 1)

    a, b, c = ring.vars()
    assert t[slot(3, 1, 2)] == a and t[slot(1, 2, 3)] == a and t[slot(2, 3, 1)] == a
    assert t[slot(2, 1, 3)] == b and t[slot(3, 2, 1)] == b and t[slot(1, 3, 2)] == b
    assert t[slot(1, 1, 1)] == c


def test_alternating_part_coefficient():
    # t - (symmetrized part) has alternating coefficient (a-b)/2
    p, ring = symbolic_parameters()
    t = skl_tensor(p)
    a, b = ring.var("a"), ring.var("b")
    half = ring.const(Fraction(1, 2))

    def slot(i, j, k):
        return (i - 1) * 9 + (j - 1) * 3 + (k - 1)

    even = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    odd = [(2, 1, 3), (1, 3, 2), (3, 2, 1)]
    for (i, j, k) in even:
        minus = t[slot(i, j, k)] - half * (a + b)
        assert minus == half * (a - b)
    for (i, j, k) in odd:
        minus = t[slot(i, j, k)] - half * (a + b)
        assert minus == -(half * (a - b))


def test_symmetric_image():
    ring = PolyRing(("x1", "x2", "x3"))
    p = SklParameters.numeric(1, 1, 1)
    ts = skl_symmetric_image(p, ring)
    x1, x2, x3 = ring.vars()
    assert ts == 6 * x1 * x2 * x3 + x1 ** 3 + x2 ** 3 + x3 ** 3


@pytest.mark.parametrize("order", [1, 3])
def test_symmetric_image_of_symbolic_parameters(order):
    # the parameters live in (a, b, c) and are re-expressed on the bigger ring
    p, small = symbolic_parameters(order=order)
    for ring in (PolyRing(small.variables + ("x1", "x2", "x3"), order), PolyRing(("x3", "c", "x1", "b", "x2", "a"), 3)):
        a, b, c, x1, x2, x3 = (ring.var(n) for n in ("a", "b", "c", "x1", "x2", "x3"))
        assert skl_symmetric_image(p, ring) == 3 * (a + b) * x1 * x2 * x3 + c * (x1 ** 3 + x2 ** 3 + x3 ** 3)


def test_predicates():
    assert not is_regular(SklParameters.numeric(1, 1, 1))
    assert is_regular(SklParameters.numeric(1, 1, 0))
    assert not is_type_A(SklParameters.numeric(1, 1, 0))
    assert is_type_A(SklParameters.numeric(1, 1, 2))
    assert not is_regular(SklParameters.numeric(1, 0, 0))
    # (1+1+8)^3 = 1000 != 216 = 27*8
    assert is_type_A(SklParameters.numeric(1, 1, 2))
    with pytest.raises(ValueError):
        SklParameters.numeric(0, 0, 0)


def test_j_invariant():
    assert j_invariant(Q.scalar(0)).is_zero()
    assert j_invariant(Q.scalar(1)).is_zero()
    assert not j_invariant(Q.scalar(2)).is_zero()
    C3 = cyclotomic_field(3)
    eps = primitive_root(3, C3)
    assert j_invariant(eps).is_zero()  # kappa^3 = 1
    half = Q.scalar(Fraction(-1, 2))
    with pytest.raises(PoleError):
        j_invariant(half)


def test_factorization_identity():
    assert cube_difference_factorization()


def test_group_orders(group, hessian_data):
    report, data = hessian_data
    assert report.ok, report.failures()
    assert len(group) == 216
    assert data["group_order"] == 216
    assert data["translation_order"] == 9
    assert data["center_extension_order"] == 18
    assert data["quotient_order"] == 12
    assert data["order_census"] == {"1": 1, "2": 9, "3": 80, "4": 54, "6": 72}


def test_conjugacy_structure(group):
    classes = conjugacy_classes(group)
    assert sum(len(c) for c in classes) == 216
    by_order = {}
    for cls in classes:
        by_order.setdefault(cls[0].order(), []).append(len(cls))
    assert by_order[2] == [9]
    assert by_order[4] == [54]
    # the nonidentity translations form a single class of size 8
    assert 8 in by_order[3]
    T = translation_subgroup()
    nonident = [t for t in T if not t.is_identity()]
    cls8 = next(set(c) for c in classes if len(c) == 8)
    assert all(t in cls8 for t in nonident)


def test_translations_normal(group):
    T = set(translation_subgroup())
    for g in hessian_generators().values():
        for t in T:
            assert (g * t * g.inverse()) in T
    Z = center_extension()
    assert len(Z) == 18 and set(T) <= set(Z)


def test_projective_normalization():
    field = hessian_field()
    eps = primitive_root(3, field)
    M = MatrixF.identity(3, field).scale(eps)
    g = ProjectiveElement(M)
    assert g.is_identity()
    singular = MatrixF(3, 3, [field.zero()] * 9, field)
    with pytest.raises(ValueError):
        ProjectiveElement(singular + singular)


def _normalize_reference(M):
    """M over its first nonzero entry, found by a loop: the code that _normalize replaced."""
    if M.det().is_zero():
        raise ValueError("projective element must be invertible")
    lead = None
    for x in M.entries:
        if not x.is_zero():
            lead = x
            break
    inv = lead.inverse()
    if inv.is_one():
        return M
    return M.scale(inv)


def test_normalize_matches_first_entry_loop():
    rng = random.Random("normalize")
    C3 = hessian_field()
    eps = primitive_root(3, C3)
    for field, unit in ((Q, Q.one()), (C3, eps)):
        for _ in range(60):
            # leading zeros, a leading one and singular matrices all occur
            M = MatrixF(3, 3, [field.scalar(rng.choice((0, 0, 0, 1, -1, 2))) * unit ** rng.randint(0, 2) for _ in range(9)], field)
            if M.det().is_zero():
                for normalize in (_normalize, _normalize_reference):
                    with pytest.raises(ValueError, match="invertible"):
                        normalize(M)
            else:
                assert _normalize(M) == _normalize_reference(M)
    with pytest.raises(ValueError, match="zero point"):
        _normalize_point((Q.zero(),) * 3)


def test_action_on_parameters():
    gens = hessian_generators()
    field = hessian_field()
    ident = MatrixF.identity(3, field)
    assert action_on_parameters(gens["diag"]) == ident
    assert action_on_parameters(gens["cycle"]) == ident
    sw = action_on_parameters(gens["swap"])
    # (a:b:c) -> (b:a:c)
    zero, one = field.zero(), field.one()
    assert sw == MatrixF.from_rows([[zero, one, zero], [one, zero, zero], [zero, zero, one]], field)
    # an operator moving the w-span is rejected
    shear = MatrixF.from_rows([[one, one, zero], [zero, one, zero], [zero, zero, one]], field)
    with pytest.raises(ValueError):
        action_on_parameters(ProjectiveElement(shear))


def _action_on_parameters_reference(tau):
    """tau^(x)3 on w1, w2, w3, one action and one stability check per basis vector."""
    field = tau.matrix.domain
    zero, one = field.zero(), field.one()
    slots = cyclic_slots()
    basis = [tuple(one if k in w else zero for k in range(27)) for w in slots]
    cols = []
    for vec in basis:
        img = apply_power(tau.matrix, 3, vec)
        coords = [img[w[0]] for w in slots]
        if img != vec_combination(coords, basis, zero):
            raise ValueError("the invariant 3-space is not stable under this operator")
        cols.append(coords)
    return MatrixF.from_rows(cols, field).transpose()


def test_action_on_parameters_matches_one_action_per_vector(group):
    field = hessian_field()
    rng = random.Random("parameters")
    for g in rng.sample(group, 24):
        assert action_on_parameters(g) == _action_on_parameters_reference(g)
    # a random invertible matrix moves the w-span: both refuse it
    moved = 0
    for _ in range(6):
        M = MatrixF(3, 3, [field.scalar(rng.randint(-2, 2)) for _ in range(9)], field)
        if M.rank() == 3:
            moved += 1
            for action in (action_on_parameters, _action_on_parameters_reference):
                with pytest.raises(ValueError):
                    action(ProjectiveElement(M))
    assert moved


def _perm_reference(action, g):
    """The indices of the images of the nine points, one point at a time, or None."""
    out = tuple(action.where.get(transform_point(g, p)) for p in action.points)
    return None if None in out else out


def test_point_permutation_matches_one_point_at_a_time(group):
    field = hessian_field()
    action = _PointAction(field)
    for g in group:
        assert action.perm(g) == _perm_reference(action, g)
    one, zero = field.one(), field.zero()
    shear = ProjectiveElement(MatrixF.from_rows([[one, one, zero], [zero, one, zero], [zero, zero, one]], field))
    assert action.perm(shear) is None and _perm_reference(action, shear) is None


def test_preserves_relations_symbolic():
    gens = hessian_generators()
    p_sym, _ring = symbolic_parameters(order=3)
    ok, twisted = preserves_relations(gens["cycle"].matrix, p_sym)
    assert ok and twisted
    ok, twisted = preserves_relations(gens["diag"].matrix, p_sym)
    assert ok and twisted


def test_preserves_relations_numeric():
    field = hessian_field()
    gens = hessian_generators()
    p = SklParameters.numeric(1, 2, 1, field)
    ok, twisted = preserves_relations(gens["scale1"].matrix, p)
    assert not ok and twisted is False
    ok, twisted = preserves_relations(gens["swap"].matrix, p)
    assert not ok and twisted is False
    # with a = b the swap fixes the tensor line
    p_eq = SklParameters.numeric(1, 1, 2, field)
    ok, twisted = preserves_relations(gens["swap"].matrix, p_eq)
    assert ok and twisted is None


def _proportional(u, v):
    """u and v span the same line, or u = 0: every 2x2 minor vanishes (the reference for the line test)."""
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def test_line_test_matches_all_minors():
    ring = PolyRing(("a", "b"), order=3)
    a, b = ring.vars()
    C3 = cyclotomic_field(3)
    small = lambda rng: rng.choice((0, 0, 1, -1, 2, 3))
    entries = {
        "rational": lambda rng: Q.scalar(Fraction(small(rng), rng.choice((1, 2)))),
        "cyclotomic3": lambda rng: small(rng) * C3.one() + small(rng) * C3.e(),
        "polyring": lambda rng: small(rng) * a + small(rng) * b * b + small(rng) * ring.one(),
    }
    for name, entry in entries.items():
        rng = random.Random("line:" + name)
        for trial in range(80):
            v = [entry(rng) for _ in range(rng.randint(1, 6))]
            if all(x.is_zero() for x in v):
                continue
            u = [entry(rng) * x for x in v] if trial % 4 else [entry(rng) for _ in v]
            if trial % 4 == 1:
                k = rng.randrange(len(u))
                u[k] = u[k] + entry(rng)
            assert (first_minor(u, v) is None) == _proportional(u, v), (name, u, v)
    # preserves_relations against the all-minors test on theta^(x)3 (t)
    field = hessian_field()
    for triple in ((1, 2, 1), (1, 1, 2), (0, 1, 3), (2, -1, 0)):
        p = SklParameters.numeric(*triple, field)
        t = skl_tensor(p)
        for g in hessian_generators().values():
            assert preserves_relations(g.matrix, p)[0] == _proportional(apply_power(g.matrix, 3, t), t), (triple, g)


def test_inflection_points(group):
    pts = inflection_points()
    assert len(pts) == 9
    field = hessian_field()
    one = field.one()
    eps = primitive_root(3, field)
    assert any(p == (field.zero(), one, -one) for p in pts)
    # every point has a zero coordinate (lies on the three-line member)
    assert all(any(x.is_zero() for x in p) for p in pts)
    assert generators_permute_inflections()
    # the whole group permutes them as well (spot check a few elements)
    pset = set(pts)
    for g in group[:20]:
        assert {transform_point(g, p) for p in pset} == pset


# ---------------------------------------------------------------------------
# reference: closure and classes on normalized projective matrices, as the
# Hessian report computed them before it moved to the nine-point action


def _oracle_closure(generators, bound):
    seen = {g: None for g in generators}
    if generators:
        seen.setdefault(ProjectiveElement(MatrixF.identity(3, generators[0].matrix.domain)), None)
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                prod = g * h
                if prod not in seen:
                    seen[prod] = None
                    new.append(prod)
        frontier = new
        assert len(seen) <= bound
    return list(seen)


def _oracle_classes(group, generators):
    gen_pairs = [(g, g.inverse()) for g in generators]
    unassigned = dict.fromkeys(group)
    classes = []
    while unassigned:
        seed = next(iter(unassigned))
        orbit = {seed: None}
        stack = [seed]
        while stack:
            g = stack.pop()
            for h, hinv in gen_pairs:
                cand = h * g * hinv
                if cand not in orbit:
                    orbit[cand] = None
                    stack.append(cand)
        for g in orbit:
            unassigned.pop(g, None)
        classes.append(list(orbit))
    classes.sort(key=lambda cls: (cls[0].order(), len(cls)))
    return classes


@pytest.fixture(scope="module")
def oracle():
    gens = list(hessian_generators().values())
    group = _oracle_closure(gens, 216)
    return group, _oracle_classes(group, gens)


def test_point_action_matches_matrix_oracle(group, oracle, hessian_data):
    ref_group, ref_classes = oracle
    assert group == ref_group
    gens = hessian_generators()
    assert translation_subgroup() == _oracle_closure([gens["cycle"], gens["diag"]], 9)
    assert center_extension() == _oracle_closure([gens["cycle"], gens["diag"], gens["swap"]], 18)
    assert conjugacy_classes(group) == ref_classes
    action = _PointAction(hessian_field())
    for g in ref_group:
        assert _perm_order(action.perm(g)) == g.order()
    _report, data = hessian_data
    assert [(c["size"], c["element_order"], c["representative"]) for c in data["classes"]] == [
        (len(cls), cls[0].order(), cls[0].to_rows()) for cls in ref_classes
    ]


def test_point_action_is_faithful(group):
    action = _PointAction(hessian_field())
    assert len({action.perm(g) for g in group}) == 216
    # (0:1:-1), (1:0:-1), (0:1:-eps), (1:0:-eps^2) are in general position,
    # so only the identity fixes all nine points
    pts = inflection_points()
    quad = [pts[0], pts[1], pts[3], pts[4]]
    eps = primitive_root(3, hessian_field())
    assert quad[3][2] == -eps * eps
    for skip in range(4):
        rows = [list(p) for k, p in enumerate(quad) if k != skip]
        assert not MatrixF.from_rows(rows, hessian_field()).det().is_zero()


def test_classes_need_a_group_closed_under_conjugation(group):
    with pytest.raises(ValueError):
        conjugacy_classes(group[:5])
