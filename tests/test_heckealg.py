import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from heckesym.exactnum import GENERIC_Q, cyclotomic_field, qfact
from heckesym.heckealg import (
    HeckeElement,
    _degree,
    antisymmetrizer,
    basis_element,
    embed,
    generator,
    partial_y,
    shift_element,
    unit,
    verify_identities,
)
from heckesym.permgroup import Composition, Perm, cycle, enumerate_perms, transposition

F = GENERIC_Q
q = F.q()


def test_generator_square():
    T1 = generator(1, 2)
    prod = T1 * T1
    assert prod.coefficient(transposition(1, 2)) == q - 1
    assert prod.coefficient(Perm((1, 2))) == q


def test_unit_acts_trivially():
    y = antisymmetrizer(3)
    assert unit(3) * y == y
    assert y * unit(3) == y


def test_length_additive_products_h3():
    for p in enumerate_perms(3):
        for s in enumerate_perms(3):
            if (p * s).length() == p.length() + s.length():
                assert basis_element(p) * basis_element(s) == basis_element(p * s)


def test_antisymmetrizer_small():
    y2 = antisymmetrizer(2)
    assert y2.coefficient(Perm((1, 2))) == q
    assert y2.coefficient(Perm((2, 1))) == -F.one()
    assert antisymmetrizer(1) == unit(1)
    y3 = antisymmetrizer(3)
    assert len(y3.field_terms()) == 6
    assert y3.coefficient(Perm((3, 2, 1))) == -F.one()


def test_square_identity_by_hand():
    # (q - T_1)^2 = q^2 - 2q T_1 + (q-1) T_1 + q = (1+q)(q - T_1)
    y2 = antisymmetrizer(2)
    assert y2 * y2 == y2.scale(1 + q)
    y3 = antisymmetrizer(3)
    assert y3 * y3 == y3.scale(qfact(3))


def test_sign_action():
    for n in (2, 3, 4):
        y = antisymmetrizer(n)
        for p in enumerate_perms(n):
            sign = -1 if p.length() % 2 else 1
            assert basis_element(p) * y == y.scale(sign)
            assert y * basis_element(p) == y.scale(sign)


def test_partial_y_trivial_cases():
    assert partial_y(3, Composition((3,)), "left") == unit(3)
    assert partial_y(3, Composition((3,)), "subgroup") == antisymmetrizer(3)


def test_partial_y_subgroup_split():
    for n in range(2, 6):
        for k in range(1, n):
            comp = Composition((k, n - k))
            lhs = partial_y(n, comp, "subgroup")
            rhs = shift_element(antisymmetrizer(k), 0, n - k) * shift_element(antisymmetrizer(n - k), k)
            assert lhs == rhs


def test_factorizations():
    for n in range(2, 5):
        y = antisymmetrizer(n)
        for k in range(1, n):
            comp = Composition((k, n - k))
            assert partial_y(n, comp, "left") * partial_y(n, comp, "subgroup") == y
            assert partial_y(n, comp, "subgroup") * partial_y(n, comp, "right") == y


def test_coset_recursion_instance():
    # degree 3 over degree 2, k = 1: the smallest nontrivial instance
    lhs = partial_y(3, Composition((1, 2)), "left")
    c = cycle(3, 1, 3)
    term1 = embed(partial_y(2, Composition((1, 1)), "left"), 3).scale(q)
    term2 = (embed(unit(2), 3) * basis_element(c)).scale(1)
    assert lhs == term1 + term2


def test_shift_element():
    assert shift_element(unit(2), 2) == unit(4)
    y2 = antisymmetrizer(2)
    s = shift_element(y2, 1)
    assert s.coefficient(Perm((1, 2, 3))) == q
    assert s.coefficient(Perm((1, 3, 2))) == -F.one()
    for p in enumerate_perms(3):
        assert len(shift_element(basis_element(p), 2).field_terms()) == 1


def test_associativity_random_h4():
    rng = random.Random(5)
    perms = list(enumerate_perms(4))

    def rand_elem():
        out = unit(4).scale(0)
        for _ in range(3):
            p = rng.choice(perms)
            c = F.scalar(rng.randint(-3, 3))
            out = out + basis_element(p).scale(c)
        return out

    for _ in range(8):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_inductive_formulas():
    for n in range(2, 6):
        y = antisymmetrizer(n)
        y_prev = embed(antisymmetrizer(n - 1), n)
        left = unit(n).scale(0)
        right = unit(n).scale(0)
        for i in range(1, n + 1):
            coeff = q ** (i - 1)
            if (n - i) % 2:
                coeff = -coeff
            left = left + (basis_element(cycle(i, n, n)) * y_prev).scale(coeff)
            right = right + (y_prev * basis_element(cycle(n, i, n))).scale(coeff)
        assert left == y
        assert right == y


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        unit(2) * unit(3)
    with pytest.raises(ValueError):
        unit(2, GENERIC_Q) * unit(2, cyclotomic_field(3, q_power=1))


def test_identity_suite_small():
    report = verify_identities(4)
    assert report.ok
    names = {c.name for c in report.checks}
    assert any(name.startswith("square") for name in names)
    assert any(name.startswith("three-block") for name in names)


def test_identity_suite_at_root_of_unity():
    report = verify_identities(3, cyclotomic_field(3, q_power=1))
    assert report.ok


# ---------------------------------------------------------------------------
# reference: the generator-rule product on Perm keys with field scalars,
# as HeckeElement computed it before the integer tables


def _oracle_gen_mul(terms, i, n, field):
    q = field.q()
    tau = transposition(i, n)
    out = {}

    def bump(p, c):
        out[p] = out[p] + c if p in out else c

    for p, c in terms.items():
        tp = tau * p
        if p.word.index(i) < p.word.index(i + 1):
            bump(tp, c)
        else:
            bump(p, (q - 1) * c)
            bump(tp, q * c)
    return {p: c for p, c in out.items() if not c.is_zero()}


def _oracle_mul(a, b, n, field):
    out = {}
    for p, c in a.items():
        piece = b
        for i in reversed(p.reduced_word()):
            piece = _oracle_gen_mul(piece, i, n, field)
        for r, v in piece.items():
            out[r] = out[r] + c * v if r in out else c * v
    return {p: c for p, c in out.items() if not c.is_zero()}


def _random_zq(rng):
    """A nonzero polynomial in Z[q] as a GENERIC_Q scalar."""
    while True:
        poly = sum((F.scalar(rng.randint(-3, 3)) * q ** k for k in range(rng.randint(1, 4))), F.zero())
        if not poly.is_zero():
            return poly


def _at(field, poly):
    """A Z[q] scalar of GENERIC_Q evaluated at field.q()."""
    out = field.zero()
    for vec in reversed(poly.num):
        out = out * field.q() + field.scalar(vec[0])
    return out


ROOT3 = cyclotomic_field(3, q_power=1)


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_product_matches_generator_rule_oracle(field):
    rng = random.Random(2024)
    for n in range(1, 6):
        perms = list(enumerate_perms(n))
        for _ in range(4):
            raw = []
            for size in (rng.randint(1, 4), rng.randint(1, 4)):
                raw.append({p: _random_zq(rng) for p in rng.sample(perms, min(size, len(perms)))})
            a, b = (HeckeElement(n, field, r) for r in raw)
            want = _oracle_mul(*({p: _at(field, c) for p, c in r.items()} for r in raw), n, field)
            got = {p: c for p, _word, c in (a * b).field_terms()}
            assert got == want
            for p in perms:
                assert (a * b).coefficient(p) == want.get(p, field.zero())


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_antisymmetrizer_square_matches_oracle(field):
    for n in (3, 4):
        y = antisymmetrizer(n, field)
        terms = {p: c for p, _word, c in y.field_terms()}
        assert {p: c for p, _w, c in (y * y).field_terms()} == _oracle_mul(terms, terms, n, field)


def _qfact(n):
    """[n]!_q as an integer tuple, low degree first: the product of the [k]_q = (1,) * k (the reference for qfact)."""
    out = (1,)
    for k in range(1, n + 1):
        prod = [0] * (len(out) + k - 1)
        for i, x in enumerate(out):
            for j in range(i, i + k):
                prod[j] += x
        out = tuple(prod)
    return out


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_square_scales_by_the_q_factorial(field):
    for n in range(7):
        assert qfact(n) == sum((c * q ** k for k, c in enumerate(_qfact(n))), F.zero())
        y = antisymmetrizer(n, field)
        assert y.scale(qfact(n)).terms == y._times(_qfact(n)).terms
        if n <= 4:
            assert y * y == y.scale(qfact(n))
    report = verify_identities(4, field)
    assert report.ok and [c.name for c in report.checks if c.name.startswith("square.")] == ["square.n%d" % n for n in range(1, 5)]


def test_coefficients_must_lie_in_zq():
    p = Perm((2, 1))
    for bad in (Fraction(1, 2), F.scalar(Fraction(1, 3)), q.inverse(), (1 + q).inverse(), cyclotomic_field(3).e(), "q"):
        with pytest.raises(ValueError):
            generator(1, 2).scale(bad)
        with pytest.raises(ValueError):
            HeckeElement(2, F, {p: bad})
    assert generator(1, 2).scale(q * q - 2) == HeckeElement(2, F, {p: q * q - 2})
    assert generator(1, 2, ROOT3).scale(ROOT3.scalar(3)) == generator(1, 2, ROOT3).scale(3)


def test_equality_is_decided_in_the_field():
    # [3]_q = 1 + q + q^2 is nonzero in Z[q] and vanishes at q = zeta_3
    three = 1 + q + q * q
    h = basis_element(Perm((2, 1, 3)), ROOT3).scale(three)
    assert h.terms and h.is_zero() and h.field_terms() == []
    assert h == unit(3, ROOT3).scale(0)
    assert hash(h) == hash(unit(3, ROOT3).scale(0))
    assert not basis_element(Perm((2, 1, 3))).scale(three).is_zero()
    assert h.coefficient(Perm((2, 1, 3))).is_zero()


def test_tables_are_built_on_first_use():
    code = (
        "import heckesym.cli, heckesym.heckealg as h\n"
        "assert not h._DEGREES, sorted(h._DEGREES)\n"
        "h.antisymmetrizer(3)\n"
        "assert sorted(h._DEGREES) == [3], sorted(h._DEGREES)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------------
# products on packed integers against the generator-rule oracle, at the edges of the bit width


def _split(rng, total, parts):
    """parts nonzero integers with random signs whose absolute values sum to total."""
    cuts = sorted({rng.randrange(1, total) for _ in range(parts - 1)})
    return [rng.choice((1, -1)) * (hi - lo) for lo, hi in zip([0] + cuts, cuts + [total])]


def _element_of_norm(rng, n, norm, field):
    """A random element of H_n whose coefficients' absolute values sum to norm, as (element, Perm-keyed Z[q] scalars)."""
    coeffs = _split(rng, norm, rng.randint(1, 6)) if norm > 6 else [norm]
    raw = {}
    # distinct slots (sigma, power of q), so that no two coefficients cancel
    for c, (p, k) in zip(coeffs, rng.sample([(p, k) for p in enumerate_perms(n) for k in range(6)], len(coeffs))):
        raw[p] = raw.get(p, F.zero()) + F.scalar(c) * q ** k
    return HeckeElement(n, field, raw), raw


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_packed_products_match_the_oracle_past_machine_words(field):
    rng = random.Random(17)
    # norms whose product passes 2^64, and pairs whose product sits just under a power of two
    for na, nb in [(2**40 + 3, 2**33 - 5), (2**70 + 1, 7), (2**32 - 1, 2**32 + 1), (2**64 - 1, 1), (3, (2**65 - 1) // 3)]:
        for n in (1, 2, 3, 4):
            a, ra = _element_of_norm(rng, n, na, field)
            b, rb = _element_of_norm(rng, n, nb, field)
            want = _oracle_mul(*({p: _at(field, c) for p, c in r.items()} for r in (ra, rb)), n, field)
            assert {p: c for p, _word, c in (a * b).field_terms()} == want
            c = _random_zq(rng) * (2**66 + rng.randint(1, 9))
            scaled = {p: _at(field, c) * _at(field, v) for p, v in rb.items()}
            assert {p: x for p, _word, x in b.scale(c).field_terms()} == {p: x for p, x in scaled.items() if not x.is_zero()}


def _index(p):
    return _degree(p.degree).index[p.word]


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_packed_products_reach_the_bound_exactly(field):
    # on the identity the bound ||a||_1 ||b||_1 is attained: a coefficient of -(2^k - 1) with k + 2 bits
    e, w = Perm((1, 2, 3)), Perm((3, 1, 2))
    for k in (63, 64, 65, 128):
        top = 2**k - 1
        for sign in (1, -1):
            a = HeckeElement(3, field, {e: sign * (top // 3)})
            b = HeckeElement(3, field, {w: 3 * q})
            assert (a * b).terms == {_index(w): (0, 3 * sign * (top // 3))}
            one = HeckeElement(3, field, {e: sign * top})
            assert (one * basis_element(w, field)).terms == {_index(w): (sign * top,)}
            assert basis_element(w, field).scale(sign * top).terms == {_index(w): (sign * top,)}
    # T_w0^2 has coefficients up to 5 in H_4 and 13 in H_5: the 3^len factor of the bound is needed
    for n in (4, 5):
        w0 = Perm(tuple(range(n, 0, -1)))
        for c in (2**64 - 1, -(2**65 - 1)):
            want = _oracle_mul({w0: field.scalar(c)}, {w0: field.one()}, n, field)
            assert {p: x for p, _word, x in (basis_element(w0, field).scale(c) * basis_element(w0, field)).field_terms()} == want


# Phi_3(q) = 1 + q + q^2 vanishes at q = zeta_3
PHI3 = 1 + q + q * q


def _perturbed_antisymmetrizer(monkeypatch, extra):
    """Makes verify_identities see y_n + extra T_(w_0) in place of every y_n."""
    from heckesym import heckealg

    original = heckealg.antisymmetrizer

    def perturbed(n, field=F):
        y = original(n, field)
        w0 = Perm(tuple(range(n, 0, -1)))
        return y + basis_element(w0, field).scale(extra)

    monkeypatch.setattr(heckealg, "antisymmetrizer", perturbed)
    return perturbed


def test_basis_left_decides_a_zq_mismatch_in_the_field(monkeypatch):
    y = _perturbed_antisymmetrizer(monkeypatch, PHI3)(3, ROOT3)
    # T_sigma y differs from (-1)^len y in Z[q] by a multiple of Phi_3, which vanishes at zeta_3
    sigma = Perm((2, 1, 3))
    assert (basis_element(sigma, ROOT3) * y).terms != y.scale(-1).terms
    assert basis_element(sigma, ROOT3) * y == y.scale(-1)
    report = verify_identities(3, ROOT3)
    basis_left = [c for c in report.checks if c.name.startswith("basis-left.")]
    assert report.ok and [c.name for c in basis_left] == ["basis-left.n3.%s" % w for w in ("231", "312", "321")]
    assert all(c.status == "pass" and c.detail == "" for c in basis_left)


def test_basis_left_names_the_first_differing_term(monkeypatch):
    _perturbed_antisymmetrizer(monkeypatch, PHI3)
    report = verify_identities(3)
    checks = {c.name: c for c in report.checks}
    for w in ("231", "312", "321"):
        check = checks["basis-left.n3.%s" % w]
        assert check.status == "fail" and check.detail.startswith("first differing term T(")
    # y_3 + Phi_3 T_321: T_321 y' = -y_3 + Phi_3 T_321 T_321, against -y' = -y_3 - Phi_3 T_321
    assert checks["basis-left.n3.321"].detail.startswith("first differing term T(1, 2, 3): ")


# ---------------------------------------------------------------------------
# the supports of partial_y, read off the degree table, against the Perm filters they replaced


def _oracle_coset_reps(n, comp, side):
    inside = comp.internal_generators()
    reps = [p for p in enumerate_perms(n) if all(p.word[i - 1] < p.word[i] for i in inside)]
    if side == "right":
        reps = [p.inverse() for p in reps]
    return sorted(reps, key=lambda p: (p.length(), p.word))


def _oracle_young_elements(n, comp):
    bounds = comp.block_bounds()
    out = [p for p in enumerate_perms(n) if all(start <= p.word[i] <= end for start, end in bounds for i in range(start - 1, end))]
    return sorted(out, key=lambda p: (p.length(), p.word))


def _compositions(n):
    for mask in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 0
            run += 1
        yield Composition(tuple(parts + [run]))


def test_partial_y_supports_match_the_perm_filters():
    for n in range(1, 7):
        for comp in _compositions(n):
            for which in ("subgroup", "left", "right"):
                got = [p for p, _word, _c in partial_y(n, comp, which).field_terms()]
                want = _oracle_young_elements(n, comp) if which == "subgroup" else _oracle_coset_reps(n, comp, which)
                assert got == want, (n, comp, which)


# ---------------------------------------------------------------------------
# the identity suite's one walk from y_n against the general product, and products that walk the smaller factor


def _recorded(lhs, rhs):
    """(status, detail) of the suite's comparison of lhs with rhs, computed from the elements themselves."""
    from heckesym.exprio import format_scalar

    if lhs == rhs:
        return "pass", ""
    w = (lhs - rhs).field_terms()[0][0]
    return "fail", "first differing term T%s: %s vs %s" % (w.word, format_scalar(lhs.coefficient(w)), format_scalar(rhs.coefficient(w)))


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
@pytest.mark.parametrize("extra", [None, PHI3, 2 - q], ids=["exact", "plus-phi3", "plus-2-q"])
def test_checks_read_off_the_walk_match_the_product_oracle(field, extra, monkeypatch):
    # y_n + Phi_3 T_w0 is y_n at zeta_3 but not in Z[q]; y_n + (2 - q) T_w0 is not y_n in either field
    make_y = antisymmetrizer if extra is None else _perturbed_antisymmetrizer(monkeypatch, extra)
    n_max = 6 if extra is None else 5
    checks = {c.name: (c.status, c.detail) for c in verify_identities(n_max, field).checks}
    for n in range(1, n_max + 1):
        y = make_y(n, field)
        assert checks["square.n%d" % n] == _recorded(y * y, y.scale(qfact(n)))
        for i in range(1, n):
            assert checks["gen-left.n%d.i%d" % (n, i)] == _recorded(generator(i, n, field) * y, -y)
        if n <= 4:
            for p in enumerate_perms(n):
                if p.length() > 1:
                    want = _recorded(basis_element(p, field) * y, y.scale(-1 if p.length() % 2 else 1))
                    assert checks["basis-left.n%d.%s" % (n, "".join(map(str, p.word)))] == want
    if extra is None:
        assert all(status == "pass" for status, _detail in checks.values())
    elif extra == PHI3 and field is ROOT3:
        assert all(status == "pass" for name, (status, _d) in checks.items() if name.startswith(("square.", "gen-left.", "basis-left.")))
    else:
        assert all(checks["square.n%d" % n][0] == "fail" for n in range(2, n_max + 1))


def _count_walks(monkeypatch):
    """Records (support, root, order of the group) of every walk, and counts generator steps."""
    from heckesym.heckealg import _Degree

    walks, steps = [], [0]
    walk, gen_mul = _Degree.walk, _Degree.gen_mul

    def counted_walk(self, support, b, bits):
        support = list(support)
        walks.append((support, dict(b), len(self.length)))
        return walk(self, support, b, bits)

    def counted_gen_mul(self, i, terms, bits):
        steps[0] += 1
        return gen_mul(self, i, terms, bits)

    monkeypatch.setattr(_Degree, "walk", counted_walk)
    monkeypatch.setattr(_Degree, "gen_mul", counted_gen_mul)
    return walks, steps


def _raw_product(ra, rb, n, field):
    """a * b, its oracle, for Perm-keyed GENERIC_Q Z[q] scalars."""
    a, b = HeckeElement(n, field, ra), HeckeElement(n, field, rb)
    want = _oracle_mul(*({p: _at(field, c) for p, c in r.items()} for r in (ra, rb)), n, field)
    return a, b, want


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_product_walks_the_smaller_factor(field, monkeypatch):
    walks, _steps = _count_walks(monkeypatch)
    rng = random.Random(26)
    pairs = []
    for n in range(1, 6):
        perms = list(enumerate_perms(n))
        for sizes in [(5, 2), (8, 1), (3, 3), (1, 1), (2, 5), (1, 8)]:
            for _ in range(2):
                pairs.append([n] + [{p: _random_zq(rng) for p in rng.sample(perms, min(s, len(perms)))} for s in sizes])
    # the pairs at the edge of the bit width, as given and with a second term on the left, so that the right is walked
    e, w, s1 = Perm((1, 2, 3)), Perm((3, 1, 2)), Perm((2, 1, 3))
    for k in (63, 64, 65, 128):
        top = 2**k - 1
        for sign in (1, -1):
            for ra, rb in [({e: F.scalar(sign * (top // 3))}, {w: 3 * q}), ({e: F.scalar(sign * top)}, {w: F.one()})]:
                pairs += [[3, ra, rb], [3, {**ra, s1: F.one()}, rb]]
    for n in (4, 5):
        w0 = Perm(tuple(range(n, 0, -1)))
        for c in (2**64 - 1, -(2**65 - 1)):
            pairs += [[n, {w0: F.scalar(c)}, {w0: F.one()}], [n, {w0: F.scalar(c), Perm(tuple(range(1, n + 1))): q}, {w0: F.one()}]]
    shapes = set()
    for n, ra, rb in pairs:
        for x, y in ((ra, rb), (rb, ra)):
            a, b, want = _raw_product(x, y, n, field)
            del walks[:]
            assert {p: c for p, _word, c in (a * b).field_terms()} == want
            assert [len(support) for support, _root, _order in walks] == [min(len(a.terms), len(b.terms))]
            shapes.add((len(b.terms) > len(a.terms)) - (len(b.terms) < len(a.terms)))
    assert shapes == {-1, 0, 1}


def test_inverse_table_is_a_length_preserving_involution():
    for n in range(1, 7):
        tab = _degree(n)
        assert [tab.perms[t] for t in tab.inv] == [p.inverse() for p in tab.perms]
        assert [tab.inv[t] for t in tab.inv] == list(range(len(tab.perms)))
        assert [tab.length[t] for t in tab.inv] == tab.length


def test_identity_suite_walks_once_from_each_antisymmetrizer(monkeypatch):
    walks, steps = _count_walks(monkeypatch)
    assert verify_identities(6).ok
    # multiplying y_n * y_n and T_i over all of S_n took 8,290 generator steps here
    assert steps[0] <= 1400, steps[0]
    # y_1 is the unit, which other products walk from
    for n in range(2, 7):
        y = antisymmetrizer(n).terms
        # walks from y_n that make a generator step (products by the unit walk only the identity): one walk over
        # S_n feeds square, gen-left and basis-left; the rest are gen-right's y_n T_i = (T_i y_n*)*, y_n* = y_n
        from_y = sorted((support for support, root, order in walks if (root, order) == (y, len(y)) and support != [0]), key=len)
        assert [sorted(support) for support in from_y] == [[_index(transposition(i, n))] for i in range(1, n)] + [list(range(len(y)))]
    y = antisymmetrizer(5)
    for i in range(1, 5):
        steps[0] = 0
        assert y * generator(i, 5) == -y
        assert steps[0] <= 2, (i, steps[0])
