import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from heckesym.exactnum import GENERIC_Q, RATIONAL, _from_power_of_two, at_power_of_two, cyclotomic_field, digit_bits, qfact, specialize
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
from heckesym.permgroup import Composition, Perm, cycle, enumerate_perms, shift, transposition

F = GENERIC_Q
q = F.q()


def _zq_terms(h):
    """h's coefficients as Z[q] tuples, low degree first, read back from its packed ints."""
    return {s: tuple(_from_power_of_two(v, h.bits)) for s, v in h.terms.items()}


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
        assert _zq_terms(y.scale(qfact(n))) == _zq_terms(y._times(_qfact(n)))
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
    assert _zq_terms(h) == {_index(Perm((2, 1, 3))): (1, 1, 1)} and h.is_zero() and h.field_terms() == []
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
            assert _zq_terms(a * b) == {_index(w): (0, 3 * sign * (top // 3))}
            one = HeckeElement(3, field, {e: sign * top})
            assert _zq_terms(one * basis_element(w, field)) == {_index(w): (sign * top,)}
            assert _zq_terms(basis_element(w, field).scale(sign * top)) == {_index(w): (sign * top,)}
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
    assert _zq_terms(basis_element(sigma, ROOT3) * y) != _zq_terms(y.scale(-1))
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


def test_partial_y_supports_match_the_perm_filters(monkeypatch):
    from heckesym import heckealg

    monkeypatch.setattr(heckealg, "_PARTIAL", {})
    for n in range(1, 7):
        for comp in _compositions(n):
            for which in ("subgroup", "left", "right"):
                perms = _oracle_young_elements(n, comp) if which == "subgroup" else _oracle_coset_reps(n, comp, which)
                sub_len = comp.longest_length()
                offset = sub_len if which == "subgroup" else n * (n - 1) // 2 - sub_len
                want = [(p, (-1) ** p.length() * q ** (offset - p.length())) for p in perms]
                # built from the degree table, then read from the cache
                first, second = partial_y(n, comp, which), partial_y(n, comp, which)
                assert second is first and [(p, c) for p, _word, c in first.field_terms()] == want, (n, comp, which)


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
    """Records (support, root, order of the group) of every product walk, and counts generator steps.

    A product walk starts from packed terms; shift_element walks from an index and the reduced-word table from the
    empty word, and neither is recorded."""
    from heckesym.heckealg import _Degree

    walks, steps = [], [0]
    walk, gen_mul = _Degree.walk, _Degree.gen_mul

    def counted_walk(self, support, step, start):
        support = list(support)
        if isinstance(start, dict):
            walks.append((support, dict(start), len(self.length)))
        return walk(self, support, step, start)

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
        assert [tab.inv[t] for t in tab.inv] == list(range(len(tab.words)))
        assert [tab.length[t] for t in tab.inv] == tab.length


def test_identity_suite_walks_once_from_each_antisymmetrizer(monkeypatch):
    walks, steps = _count_walks(monkeypatch)
    assert verify_identities(6).ok
    # multiplying y_n * y_n and T_i over all of S_n took 8,290 generator steps here
    assert steps[0] <= 1400, steps[0]
    # y_1 is the unit, which other products walk from
    for n in range(2, 7):
        # the roots are packed ints: up to degree 6 the suite walks at y_n's own home width
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


# ---------------------------------------------------------------------------
# packed elements against the tuple arithmetic they replaced: Z[q] tuples added coefficient by coefficient, and a
# product packed at the width of its own L1 bound for one walk, then unpacked

Q2 = RATIONAL.with_q(RATIONAL.scalar(2))
FIELDS = pytest.mark.parametrize("field", [F, Q2, ROOT3], ids=["generic", "q=2", "zeta3"])
# past one and two machine words, so that operands of different widths mix
BIG = [2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**65 - 3, 2**65, 2**128]


def _padd(a, b, sign=1):
    r = list(a) + [0] * (len(b) - len(a))
    for k, x in enumerate(b):
        r[k] += sign * x
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _pmul(a, b):
    r = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] += x * y
    return tuple(r)


def _tuple_sum(a, b, sign=1):
    out = dict(a)
    for s, c in b.items():
        v = _padd(out.get(s, ()), c, sign)
        if v:
            out[s] = v
        else:
            del out[s]
    return out


def _l1(terms):
    return sum(abs(x) for c in terms.values() for x in c)


def _tuple_product(tab, a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        inv = tab.inv
        ab = _tuple_product(tab, {inv[s]: c for s, c in b.items()}, {inv[s]: c for s, c in a.items()})
        return {inv[s]: c for s, c in ab.items()}
    bits = digit_bits(_l1(a) * _l1(b) * 3 ** max(tab.length[s] for s in a))
    acc = {}
    for s, piece in tab.walk(a, lambda s, piece: tab.gen_mul(tab.first[s], piece, bits), {t: at_power_of_two(c, bits) for t, c in b.items()}):
        if s in a:
            c = at_power_of_two(a[s], bits)
            for t, v in piece.items():
                acc[t] = acc.get(t, 0) + c * v
    return {t: tuple(_from_power_of_two(v, bits)) for t, v in acc.items() if v}


def _value(field, poly):
    out = field.zero()
    for c in reversed(poly):
        out = out * field.q() + field.scalar(c)
    return out


def _random_poly(rng, big):
    while True:
        poly = _padd([rng.choice((0, rng.randint(-3, 3), rng.choice((1, -1)) * rng.choice(BIG) if big else 2)) for _ in range(rng.randint(1, 4))], ())
        if poly:
            return poly


def _qpoly(poly):
    return sum((F.scalar(c) * q**k for k, c in enumerate(poly)), F.zero())


def _element(n, field, terms):
    words = _degree(n).words
    return HeckeElement(n, field, {Perm(words[s]): _qpoly(c) for s, c in terms.items()})


def _holds(h, terms):
    """h holds exactly these Z[q] terms, at a width that its L1 bound fits and no narrower than the home width."""
    assert _zq_terms(h) == terms and all(h.terms.values())
    assert h.l1 >= _l1(terms) and h.bits >= max(64, digit_bits(h.l1))


@FIELDS
def test_packed_elements_match_the_tuple_arithmetic(field):
    rng = random.Random(32)
    vanishing = (1, 1, 1) if field is ROOT3 else (-2, 1) if field is Q2 else (1, 1)
    widths = set()
    for n in range(1, 5):
        tab, order = _degree(n), len(_degree(n).words)
        pairs = []
        for _ in range(12):
            A, B = ({s: _random_poly(rng, big) for s in rng.sample(range(order), min(rng.randint(0, 4), order))} for big in (rng.random() < 0.6, rng.random() < 0.3))
            if rng.random() < 0.4:
                # B differs from A in Z[q] by a multiple of a polynomial that vanishes at this field's q (none at generic q)
                B = _tuple_sum(A, {rng.randrange(order): _pmul(vanishing, _random_poly(rng, True))})
            pairs.append((A, B))
        # two operands at the home width whose sum needs a wider one
        pairs.append(({0: (2**63 - 1,)}, {0: (2**63 - 1,)}))
        if n > 1:
            # c (T_1 + 1) and T_1 - q: every coefficient of their product cancels
            c, s1 = _random_poly(rng, True), tab.left[1][0]
            pairs.append(({0: c, s1: c}, {0: (0, -1), s1: (1,)}))
        for A, B in pairs:
            a, b = _element(n, field, A), _element(n, field, B)
            _holds(a, A)
            _holds(b, B)
            widths.add((a.bits, b.bits))
            for got, want in [(a + b, _tuple_sum(A, B)), (a - b, _tuple_sum(A, B, -1)), (-a, {s: _pmul(c, (-1,)) for s, c in A.items()}), (a * b, _tuple_product(tab, A, B)), (b * a, _tuple_product(tab, B, A))]:
                _holds(got, want)
            p = _random_poly(rng, rng.random() < 0.5) if rng.random() < 0.9 else ()
            _holds(a._times(p), {s: _pmul(p, c) for s, c in A.items()} if p else {})
            _holds(a.scale(_qpoly(p)), {s: _pmul(p, c) for s, c in A.items()} if p else {})
            equal = all(_value(field, c).is_zero() for c in _tuple_sum(A, B, -1).values())
            assert (a == b) is equal and (b == a) is equal and (a - b).is_zero() is equal
            assert a.is_zero() is all(_value(field, c).is_zero() for c in A.values())
            if equal:
                assert hash(a) == hash(b)
            k, m = rng.randint(0, 2), rng.randint(0, 1)
            shifted = {_degree(n + k + m).index[tuple(range(1, k + 1)) + tuple(x + k for x in tab.words[s]) + tuple(range(n + k + 1, n + k + m + 1))]: c for s, c in A.items()}
            _holds(shift_element(a, k, m), shifted)
            _holds(embed(a, n + m), {_degree(n + m).index[tab.words[s] + tuple(range(n + 1, n + m + 1))]: c for s, c in A.items()})
    assert {64} < {bits for pair in widths for bits in pair} and any(x != y for x, y in widths)


def test_home_width_elements_are_never_unpacked(monkeypatch):
    from heckesym import heckealg

    y, g = antisymmetrizer(5), generator(2, 5)
    square = y.scale(qfact(5))

    def refuse(*args):
        raise AssertionError("unpacked at %r" % (args,))

    monkeypatch.setattr(heckealg, "_from_power_of_two", refuse)
    # the benchmark's tracer counts len(h.terms) on each traced product, so that must read no coefficient
    elements = [y * g, g * y, y * y, y + g, y - g, -y, y._times((0, 1)), shift_element(y, 1), square]
    assert [len(h.terms) for h in elements] == [120, 120, 120, 120, 120, 120, 120, 120, 120]
    assert all(h.bits == 64 for h in elements)
    assert y * g == -y and g * y == -y and y * y == square and "__mul__" in vars(HeckeElement)


# ---------------------------------------------------------------------------
# the index tables, shifts and field values against Perm, permgroup.shift and exactnum.specialize


def test_degree_tables_match_perm():
    for n in range(7):
        tab, perms = _degree(n), list(enumerate_perms(n))
        assert [Perm(w) for w in tab.words] == perms
        assert [tab.index[w] for w in tab.words] == list(range(len(perms)))
        assert [tab.words[t] for t in tab.inv] == [p.inverse().word for p in perms]
        assert tab.length == [p.length() for p in perms]
        assert tab.reduced == [p.reduced_word() for p in perms]
        assert tab.first == [(p.reduced_word() or (0,))[0] for p in perms]


@pytest.mark.parametrize("field", [F, ROOT3], ids=["generic", "zeta3"])
def test_shift_and_embed_match_permgroup_shift(field):
    rng = random.Random(35)
    for n in range(6):
        perms = list(enumerate_perms(n))
        for _ in range(4):
            raw = {p: _random_zq(rng) for p in rng.sample(perms, rng.randint(1, min(6, len(perms))))}
            h = HeckeElement(n, field, raw)
            # every pair k, m <= 2 whose target degree is enumerable (n + k + m <= 8)
            for k in range(3):
                for m in range(min(3, 9 - n - k)):
                    got, want = shift_element(h, k, m), HeckeElement(n + k + m, field, {shift(p, k, m): c for p, c in raw.items()})
                    assert (got.n, _zq_terms(got), got.bits, got.l1) == (n + k + m, _zq_terms(want), h.bits, h.l1)
                    assert got == want
            for m in range(3):
                got, want = embed(h, n + m), HeckeElement(n + m, field, {shift(p, 0, m): c for p, c in raw.items()})
                assert (got.n, _zq_terms(got)) == (n + m, _zq_terms(want))
    with pytest.raises(ValueError):
        shift_element(unit(2), -1)
    with pytest.raises(ValueError):
        shift_element(unit(2), 0, -1)


SPECIAL = [
    (RATIONAL.with_q(RATIONAL.scalar(2)), q - 2),
    (RATIONAL.with_q(RATIONAL.scalar(-1)), q + 1),
    (cyclotomic_field(3, q_power=1), PHI3),
    (cyclotomic_field(4, q_power=1), q * q + 1),
]


@pytest.mark.parametrize("field, vanishing", SPECIAL, ids=["q=2", "q=-1", "zeta3", "zeta4"])
def test_field_values_match_specialize(field, vanishing):
    # each Z[q] coefficient read in the field against exactnum.specialize of the generic element's coefficient;
    # some are multiples of a polynomial that vanishes at this q, so field_terms must leave them out
    rng = random.Random(36)
    dropped = 0
    for n in range(1, 5):
        perms = list(enumerate_perms(n))
        for _ in range(6):
            raw = {}
            for p in rng.sample(perms, min(5, len(perms))):
                c = _random_zq(rng) + (F.scalar(rng.choice(BIG)) * q ** rng.randint(0, 3) if rng.random() < 0.3 else 0)
                raw[p] = c * vanishing if rng.random() < 0.3 else c
            generic, h = HeckeElement(n, F, raw), HeckeElement(n, field, raw)
            want = {p: specialize(generic.coefficient(p), field.q()) for p in perms}
            assert {p: h.coefficient(p) for p in perms} == want
            terms = h.field_terms()
            assert {p: (word, c) for p, word, c in terms} == {p: (p.reduced_word(), c) for p, c in want.items() if not c.is_zero()}
            assert len(terms) == len({p for p, _w, _c in terms})
            dropped += len(raw) - len(terms)
    assert dropped > 0
