import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, cyclotomic_field, primitive_root
from heckesym.multipoly import MultiPoly, PolyRing
from heckesym.obstruction import _sub_rational

R = PolyRing(("a", "b", "c"))
a, b, c = R.vars()


def test_ring_arithmetic():
    p = (a + b) ** 2
    assert p == a ** 2 + 2 * a * b + b ** 2
    assert (p - p).is_zero()
    assert ((a + b) * (a - b)) == a ** 2 - b ** 2
    assert list((a * b * c).terms) == [(1, 1, 1)]
    assert (a + 1) ** 0 == R.one()


def test_constants_and_coercion():
    assert R.const(0).is_zero()
    assert R.const(Fraction(1, 2)) * 2 == R.one()
    assert 3 * a - a - a - a == R.zero()
    assert (a + 2) - 2 == a


def test_exact_division():
    num = (a + b) ** 3 + c ** 3
    quot = ((a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3).exact_div(num)
    assert quot * num == (a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3
    assert num.divides((a + b) ** 6 + 2 * c ** 3 * (a + b) ** 3 + c ** 6)
    with pytest.raises(ArithmeticError):
        (a ** 2 + b).exact_div(a + b)
    with pytest.raises(ZeroDivisionError):
        a.exact_div(R.zero())


def test_reduce_mod():
    Rk = PolyRing(("k",))
    k = Rk.var("k")
    rel = 2 * k ** 2 + 2 * k - 1
    assert ((1 + 2 * k) ** 3 - 3 * (1 + 2 * k)).reduce_mod(rel, "k").is_zero()
    assert (k ** 2).reduce_mod(rel, "k").degree_in("k") <= 1
    with pytest.raises(ValueError):
        (k ** 2).reduce_mod(Rk.one(), "k")


def test_substitute_and_evaluate():
    p = a ** 2 * b - c
    assert p.substitute({"a": b}) == b ** 3 - c
    assert p.substitute({"c": 0}) == a ** 2 * b
    assert p.evaluate({"a": 2, "b": 3, "c": 5}).rational() == 7
    sub = p.substitute({"a": a + b})
    assert sub == (a + b) ** 2 * b - c


def test_cyclotomic_coefficients():
    R3 = PolyRing(("x",), order=3)
    x = R3.var("x")
    eps = primitive_root(3, cyclotomic_field(3))
    p = (x - R3.const(eps)) * (x - R3.const(eps ** 2))
    assert p == x ** 2 + x + 1
    # constants from a smaller field embed
    assert R3.const(Fraction(1, 2)) * 2 == R3.one()


def test_degree_helpers():
    p = a ** 2 * b + c
    assert p.degree_in("a") == 2
    assert p.degree_in("c") == 1
    assert p.coefficient((2, 1, 0)).is_one()
    assert p.coefficient((5, 0, 0)).is_zero()
    assert not R.zero().terms


def test_text_form_is_deterministic():
    p = a * b - c ** 2 + 1
    assert p.to_text() == (a * b - c ** 2 + 1).to_text()
    assert R.zero().to_text() == "0"


def test_ring_mismatch_rejected():
    other = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        a + other.var("x")


# -- references: the plain loops that substitute, evaluate, _sub_rational and
# the power loops replaced, with powers taken as repeated products


def _repeated(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


def _substitute_reference(p, assignments):
    ring = p.ring
    values = [p._coerce(assignments[v]) if v in assignments else ring.var(v) for v in ring.variables]
    out = ring.zero()
    for e, vec in p.terms.items():
        term = ring.const(ring.coeff_field().from_cyc(vec))
        for i, k in enumerate(e):
            term = term * _repeated(values[i], k, ring.one())
        out = out + term
    return out


def _evaluate_reference(p, assignments):
    sample = next((v.field for v in assignments.values() if not isinstance(v, (int, Fraction))), None)
    field = sample or p.ring.coeff_field()
    vals = [v if not isinstance(v, (int, Fraction)) else field.scalar(v) for v in (assignments[n] for n in p.ring.variables)]
    src, tgt = p.ring._cyc, field._cyc
    out = field.zero()
    for e, vec in p.terms.items():
        term = field.from_cyc(src.embed(vec, tgt)) if field.order != p.ring.order else field.from_cyc(vec)
        for i, k in enumerate(e):
            term = term * _repeated(vals[i], k, field.one())
        out = out + term
    return out


def _sub_rational_reference(poly, name, num, den):
    ring = poly.ring
    idx = ring.variables.index(name)
    m = poly.degree_in(name)
    out = ring.zero()
    for e, vec in poly.terms.items():
        k = e[idx]
        term = MultiPoly(ring, {tuple(0 if i == idx else x for i, x in enumerate(e)): vec})
        out = out + term * _repeated(num, k, ring.one()) * _repeated(den, m - k, ring.one())
    return out


def _random_coeff(rng, ring):
    field = ring.coeff_field()
    x = field.scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3)))
    if ring.order == 1:
        return x
    return x + field.scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) * primitive_root(ring.order, field)


def _random_poly(rng, ring, terms=4, top=3):
    out = ring.zero()
    for _ in range(rng.randint(1, terms)):
        expo = tuple(rng.randint(0, top) for _ in ring.variables)
        out = out + MultiPoly(ring, {expo: ring._coeff(_random_coeff(rng, ring))})
    return out


def _random_value(rng, ring):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if kind == 2:
        return _random_coeff(rng, ring)
    return _random_poly(rng, ring, terms=2, top=1)


RINGS = [PolyRing(("a", "b", "ap", "bp")), PolyRing(("a", "b", "ap", "bp"), order=3)]


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "Q(zeta_3)"])
def test_substitute_matches_reference(ring):
    rng = random.Random(1018 + ring.order)
    av, bv, apv, bpv = ring.vars()
    fixed = [{"ap": bpv, "bp": apv}, {"a": av + bv, "b": av}, {"a": bv, "b": bv * apv, "bp": ring.const(2)}]
    for trial in range(30):
        p = _random_poly(rng, ring)
        names = rng.sample(ring.variables, rng.randint(1, 4))
        for assignments in fixed + [{n: _random_value(rng, ring) for n in names}]:
            assert p.substitute(assignments) == _substitute_reference(p, assignments)
    p = apv ** 2 * bpv + 3 * apv * bpv ** 3
    assert p.substitute({"ap": bpv, "bp": apv}) == bpv ** 2 * apv + 3 * bpv * apv ** 3


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "Q(zeta_3)"])
def test_evaluate_matches_reference(ring):
    rng = random.Random(2018 + ring.order)
    fields = [FieldSpec("rational"), cyclotomic_field(3)] if ring.order == 1 else [cyclotomic_field(3)]
    for trial in range(30):
        p = _random_poly(rng, ring)
        field = rng.choice(fields)
        values = {}
        for n in ring.variables:
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            kind = rng.randrange(3)
            if kind == 2:
                x = field.scalar(x) + field.scalar(rng.randint(0, 2)) * primitive_root(field.order, field)
            values[n] = x if kind else x.numerator
        assert p.evaluate(values) == _evaluate_reference(p, values)


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "Q(zeta_3)"])
def test_sub_rational_matches_reference(ring):
    rng = random.Random(3018 + ring.order)
    for trial in range(30):
        p = _random_poly(rng, ring)
        name = rng.choice(ring.variables)
        num = _random_poly(rng, ring, terms=2, top=1)
        den = _random_poly(rng, ring, terms=2, top=1)
        assert _sub_rational(p, name, num, den) == _sub_rational_reference(p, name, num, den)


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "Q(zeta_3)"])
def test_power_matches_repeated_products(ring):
    rng = random.Random(4018 + ring.order)
    for trial in range(4):
        p = _random_poly(rng, ring, terms=3, top=1)
        for k in range(10):
            assert p ** k == _repeated(p, k, ring.one())


def test_power_squares_once_per_further_bit(monkeypatch):
    calls = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    (a + b) ** 8
    assert len(calls) == 3
    calls.clear()
    (a + b) ** 2
    assert len(calls) == 1


# -- the Fraction-vector oracle: the arithmetic as it ran before integral
# coefficients became ints, on plain dicts from exponent tuples to vectors of
# Fractions, with every coefficient product through _CycCtx.mul


def _fractions(p):
    return {e: tuple(map(Fraction, v)) for e, v in p.terms.items()}


def _ref_add(a, b):
    out = dict(a)
    for e, v in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = v
        else:
            s = tuple(x + y for x, y in zip(cur, v))
            if any(s):
                out[e] = s
            else:
                del out[e]
    return out


def _ref_neg(a):
    return {e: tuple(-x for x in v) for e, v in a.items()}


def _ref_mul(ctx, a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out = _ref_add(out, {tuple(x + y for x, y in zip(e1, e2)): ctx.mul(v1, v2)})
    return out


def _ref_pow(ctx, a, k, nvars):
    out = {(0,) * nvars: ctx.one}
    for _ in range(k):
        out = _ref_mul(ctx, out, a)
    return out


def _ref_exact_div(ctx, a, d):
    de = max(d)
    inv = ctx.inv(d[de])
    rem, quot = a, {}
    while rem:
        re = max(rem)
        qe = tuple(x - y for x, y in zip(re, de))
        if any(x < 0 for x in qe):
            raise ArithmeticError("division is not exact")
        qterm = {qe: ctx.mul(rem[re], inv)}
        quot = _ref_add(quot, qterm)
        rem = _ref_add(rem, _ref_neg(_ref_mul(ctx, qterm, d)))
    return quot


def _ref_reduce_mod(ctx, a, d, idx):
    deg = lambda p: max((e[idx] for e in p), default=0)
    n = deg(d)
    inv = ctx.inv(next(v for e, v in d.items() if e[idx] == n))
    rem = a
    while rem and deg(rem) >= n:
        k = deg(rem)
        factor = {tuple(x - n if i == idx else x for i, x in enumerate(e)): ctx.mul(v, inv) for e, v in rem.items() if e[idx] == k}
        rem = _ref_add(rem, _ref_neg(_ref_mul(ctx, factor, d)))
    return rem


def _ref_substitute(ctx, a, values, nvars):
    """values maps a variable index to a Fraction-vector polynomial."""
    out = {}
    for e, v in a.items():
        term = {tuple(0 if i in values else k for i, k in enumerate(e)): v}
        for i, k in enumerate(e):
            if i in values:
                term = _ref_mul(ctx, term, _ref_pow(ctx, values[i], k, nvars))
        out = _ref_add(out, term)
    return out


def _is_normal(p):
    """Every integral coefficient entry an int, every other one a Fraction."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for v in p.terms.values() for x in v)


def _oracle_vec(rng, ring, integral):
    """A nonzero coefficient vector of Fractions, integral or not."""
    while True:
        vec = tuple(Fraction(rng.randint(-4, 4), 1 if integral else rng.randint(1, 3)) for _ in range(ring._cyc.deg))
        if any(vec):
            return vec


def _oracle_poly(rng, ring, integral, terms=4, top=2):
    expos = [tuple(rng.randint(0, top) for _ in ring.variables) for _ in range(rng.randint(1, terms))]
    return MultiPoly(ring, {e: _oracle_vec(rng, ring, integral) for e in expos})


ORACLE_RINGS = [PolyRing(("x", "y", "z"), order) for order in (1, 3, 4)]
ORACLE_CASES = [(ring, integral) for ring in ORACLE_RINGS for integral in (True, False)]
ORACLE_IDS = ["order%d-%s" % (ring.order, "Z" if integral else "Q") for ring, integral in ORACLE_CASES]


@pytest.mark.parametrize("ring,integral", ORACLE_CASES, ids=ORACLE_IDS)
def test_ring_operations_match_fraction_oracle(ring, integral):
    rng = random.Random("multipoly-oracle:%d:%s" % (ring.order, integral))
    ctx = ring._cyc
    for trial in range(40):
        p, q = _oracle_poly(rng, ring, integral), _oracle_poly(rng, ring, integral)
        fp, fq = _fractions(p), _fractions(q)
        if trial % 4 == 0:  # one-term factors take the monomial path
            q = MultiPoly(ring, dict([next(iter(q.terms.items()))]))
            fq = _fractions(q)
        for got, want in ((p + q, _ref_add(fp, fq)), (p - q, _ref_add(fp, _ref_neg(fq))),
                          (p * q, _ref_mul(ctx, fp, fq)), (q * p, _ref_mul(ctx, fq, fp)),
                          (p ** 3, _ref_pow(ctx, fp, 3, 3)), (p - p, {})):
            assert got.terms == want
            assert _is_normal(got)
        assert _is_normal(-p) and (-p).terms == _ref_neg(fp)


@pytest.mark.parametrize("ring,integral", ORACLE_CASES, ids=ORACLE_IDS)
def test_division_matches_fraction_oracle(ring, integral):
    rng = random.Random("multipoly-div-oracle:%d:%s" % (ring.order, integral))
    ctx = ring._cyc
    x = ring.var("x")
    for trial in range(20):
        d = _oracle_poly(rng, ring, integral, terms=3, top=1) + x
        q = _oracle_poly(rng, ring, integral)
        exact = d * q
        got = exact.exact_div(d)
        assert got == q and got.terms == _ref_exact_div(ctx, _fractions(exact), _fractions(d))
        assert _is_normal(got)
        inexact = exact + _oracle_poly(rng, ring, integral, terms=1, top=0)
        if d.degree_in("x") and not d.divides(inexact - exact):
            with pytest.raises(ArithmeticError):
                _ref_exact_div(ctx, _fractions(inexact), _fractions(d))
            with pytest.raises(ArithmeticError):
                inexact.exact_div(d)
        # a divisor monic up to a constant in x
        m = MultiPoly(ring, {(2, 0, 0): _oracle_vec(rng, ring, integral)}) + _oracle_poly(rng, ring, integral, terms=3, top=1).substitute({"x": 0}) * x + 1
        got = (q * q).reduce_mod(m, "x")
        assert got.terms == _ref_reduce_mod(ctx, _fractions(q * q), _fractions(m), 0)
        assert _is_normal(got) and got.degree_in("x") < 2


@pytest.mark.parametrize("ring,integral", ORACLE_CASES, ids=ORACLE_IDS)
def test_substitute_and_evaluate_match_fraction_oracle(ring, integral):
    rng = random.Random("multipoly-sub-oracle:%d:%s" % (ring.order, integral))
    ctx, field = ring._cyc, ring.coeff_field()
    for trial in range(20):
        p = _oracle_poly(rng, ring, integral)
        values = {i: _fractions(_oracle_poly(rng, ring, integral, terms=2, top=1)) for i in rng.sample(range(3), rng.randint(1, 3))}
        got = p.substitute({ring.variables[i]: MultiPoly(ring, v) for i, v in values.items()})
        assert got.terms == _ref_substitute(ctx, _fractions(p), values, 3)
        assert _is_normal(got)
        point = {n: Fraction(rng.randint(-3, 3), 1 if integral else rng.randint(1, 3)) for n in ring.variables}
        if trial % 2:
            point["y"] = field.scalar(point["y"]) + (primitive_root(ring.order, field) if ring.order > 1 else 1)
        assert p.evaluate(point) == _evaluate_reference(p, point)


def test_integral_constants_are_ints():
    assert R.const(Fraction(4, 2)) == R.const(2)
    assert hash(R.const(Fraction(4, 2))) == hash(R.const(2))
    assert type(R.const(Fraction(4, 2)).terms[(0, 0, 0)][0]) is int
    assert R.const(Fraction(1, 2)) * 2 == R.one() and _is_normal(R.const(Fraction(1, 2)) * 2)
    R4 = PolyRing(("x",), order=4)
    i = primitive_root(4, cyclotomic_field(4))
    assert all(type(c) is int for c in R4.const(i * i).terms[(0,)])


def test_case1_resultant_has_int_coefficients():
    from heckesym.obstruction import verify_case1

    res = verify_case1().resultant
    assert res.terms and all(type(c) is int for v in res.terms.values() for c in v)


def test_coefficients_in_rekeys_by_name():
    big = PolyRing(("c", "x", "a", "b"))
    p = 3 * a ** 2 * b - c + Fraction(1, 2) * a * c ** 2
    assert p.coefficients_in((), big)[()] == 3 * big.var("a") ** 2 * big.var("b") - big.var("c") + Fraction(1, 2) * big.var("a") * big.var("c") ** 2
    parts = p.coefficients_in(("c",), PolyRing(("b", "a")))
    Rba = PolyRing(("b", "a"))
    assert parts == {(0,): 3 * Rba.var("a") ** 2 * Rba.var("b"), (1,): Rba.const(-1), (2,): Fraction(1, 2) * Rba.var("a")}
    with pytest.raises(ValueError):
        p.coefficients_in((), PolyRing(("a", "b")))
    # coefficients embed into a bigger field, never into a smaller one
    R3 = PolyRing(("a", "b", "c"), order=3)
    assert p.coefficients_in((), R3)[()] == 3 * R3.var("a") ** 2 * R3.var("b") - R3.var("c") + Fraction(1, 2) * R3.var("a") * R3.var("c") ** 2
    with pytest.raises(ValueError):
        R3.var("a").coefficients_in((), R)


@pytest.mark.parametrize("order", [1, 3])
def test_evaluate_at_rational_functions_keeps_scalar_arithmetic(order):
    ring = PolyRing(("x", "y"), order)
    field = FieldSpec("ratfunc_q", order)
    rng = random.Random("multipoly-ratfunc:%d" % order)
    q = field.q()
    for trial in range(5):
        p = _oracle_poly(rng, ring, trial % 2 == 0)
        point = {"x": q + 1, "y": Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
        got = p.evaluate(point)
        assert got.field == field and got == _evaluate_reference(p, point)


def test_evaluate_rejects_mixed_fields():
    C3 = cyclotomic_field(3)
    with pytest.raises(ValueError):
        (a * b + c).evaluate({"a": C3.scalar(2), "b": FieldSpec("rational").scalar(1), "c": 0})


# -- the packed layout: one int key per monomial, each variable in its own field, the first variable highest


PACKED_RINGS = [PolyRing(("x", "y", "z"), order) for order in (1, 3)]
PACKED_IDS = ["order%d" % ring.order for ring in PACKED_RINGS]


def _ref_dot(ctx, pairs):
    out = {}
    for x, y in pairs:
        out = _ref_add(out, _ref_mul(ctx, x, y))
    return out


def _ref_coefficients_in(p, names, ring):
    """coefficients_in on the tuple terms: the exponents of names outside, the rest re-keyed by name onto ring."""
    src = p.ring.variables
    parts = {}
    for e, v in p.terms.items():
        outer = tuple(e[src.index(n)] for n in names)
        inner = tuple(e[src.index(n)] if n in src and n not in names else 0 for n in ring.variables)
        parts.setdefault(outer, {})[inner] = tuple(map(Fraction, v))
    return parts


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_packed_keys_follow_the_tuple_order(ring):
    rng = random.Random("packed-keys:%d" % ring.order)
    expos = [tuple(rng.randint(0, 9) for _ in ring.variables) for _ in range(60)]
    keys = [ring._pack(e) for e in expos]
    assert [ring._unpack(k) for k in keys] == expos
    # lex order on tuples is int order on keys, and a product of monomials adds keys
    assert sorted(expos) == [ring._unpack(k) for k in sorted(keys)]
    for e1, e2 in zip(expos, expos[1:]):
        assert ring._pack(tuple(map(sum, zip(e1, e2)))) == ring._pack(e1) + ring._pack(e2)
    p = _oracle_poly(rng, ring, False, terms=6, top=4)
    assert p._t == {ring._pack(e): v for e, v in p.terms.items()}
    assert max(p._t) == ring._pack(max(p.terms))
    for i, name in enumerate(ring.variables):
        assert p.degree_in(name) == max(e[i] for e in p.terms)


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
@pytest.mark.parametrize("integral", [True, False], ids=["Z", "Q"])
def test_packed_arithmetic_matches_fraction_oracle(ring, integral):
    rng = random.Random("packed-oracle:%d:%s" % (ring.order, integral))
    ctx = ring._cyc
    for trial in range(30):
        p, q = _oracle_poly(rng, ring, integral, terms=5), _oracle_poly(rng, ring, integral, terms=5)
        fp, fq = _fractions(p), _fractions(q)
        assert (p * q).terms == _ref_mul(ctx, fp, fq) and (p + q).terms == _ref_add(fp, fq)
        # dot with pairs that cancel: p q - p q leaves the other pairs, and a zero factor adds nothing
        pairs = [(p, q), (q, p * p), (-p, q), (ring.zero(), q), (q, q)]
        got = ring.dot(pairs)
        assert got.terms == _ref_dot(ctx, [(_fractions(x), _fractions(y)) for x, y in pairs]) and _is_normal(got)
        assert ring.dot([(p, q), (p, -q)]).is_zero() and not ring.dot([]).terms
        # a Fraction coefficient whose products sum to an integer becomes an int
        half = ring.const(Fraction(1, 2))
        assert _is_normal(ring.dot([(half, p), (half, p)])) and ring.dot([(half, p), (half, p)]) == p
        exact = p * q
        assert exact.exact_div(q).terms == _ref_exact_div(ctx, _fractions(exact), fq)
        m = MultiPoly(ring, {(3, 0, 0): _oracle_vec(rng, ring, integral)}) + _oracle_poly(rng, ring, integral, top=2).substitute({"x": 0})
        assert exact.reduce_mod(m, "x").terms == _ref_reduce_mod(ctx, _fractions(exact), _fractions(m), 0)
        values = {i: _fractions(_oracle_poly(rng, ring, integral, terms=2, top=1)) for i in rng.sample(range(3), rng.randint(1, 2))}
        got = p.substitute({ring.variables[i]: MultiPoly(ring, v) for i, v in values.items()})
        assert got.terms == _ref_substitute(ctx, fp, values, 3) and _is_normal(got)
        point = {n: Fraction(rng.randint(-3, 3), 1 if integral else rng.randint(1, 3)) for n in ring.variables}
        assert p.evaluate(point) == _evaluate_reference(p, point)
        names = rng.sample(ring.variables, rng.randint(0, 2))
        target = PolyRing(tuple(n for n in ("z", "w", "x", "y") if n not in names), ring.order)
        got = p.coefficients_in(names, target)
        assert {k: _fractions(v) for k, v in got.items()} == _ref_coefficients_in(p, names, target)
        # the text form reads the tuple view: the same for the same terms in any insertion order
        shuffled = list(p.terms.items())
        rng.shuffle(shuffled)
        assert MultiPoly(ring, dict(shuffled)).to_text() == p.to_text()


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_exact_div_fails_on_one_field(ring):
    # the lead of the divisor passes the dividend's in one variable only: the guard bit of that field borrows,
    # and the field above it (which a plain subtraction would borrow from) does not hide it
    x, y, z = ring.vars()
    for i, name in enumerate(ring.variables):
        others = [v for j, v in enumerate((x, y, z)) if j != i]
        big, small = ring.var(name), others[0] ** 3 * others[1] ** 2
        dividend, divisor = big * small ** 2, big ** 2 * small
        with pytest.raises(ArithmeticError):
            dividend.exact_div(divisor)
        with pytest.raises(ArithmeticError):
            _ref_exact_div(ring._cyc, _fractions(dividend), _fractions(divisor))
        assert (divisor * small).exact_div(divisor) == small


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_text_form_reads_graded_lex_order_off_packed_keys(ring):
    # the text sorts by total degree, then lexicographically, whatever the int order of the keys
    pad = (0,) * (ring._cyc.deg - 1)
    terms = {(0, 0, 0): (Fraction(1, 2),) + pad, (0, 1, 0): (-1,) + pad, (2, 0, 1): (3,) + pad, (0, 0, 4): (1,) + pad, (1, 0, 0): (2,) + pad}
    assert MultiPoly(ring, terms).to_text() == "z^4 + 3*x^2*z + 2*x - y + 1/2"


@pytest.mark.parametrize("n", [1, 3, 6])
def test_exponent_past_the_field_raises_and_never_carries(n):
    ring = PolyRing(tuple("v%d" % i for i in range(n)))
    cap = ring._mask >> 1
    assert cap == (1 << (max(8, 30 // n) - 1)) - 1
    last, first = ring.var(ring.variables[-1]), ring.var(ring.variables[0])
    top = last ** cap
    assert top.terms == {(0,) * (n - 1) + (cap,): (1,)} and top.degree_in(ring.variables[0]) == (cap if n == 1 else 0)
    # past the cap: a product, a power, a dot and a constructor all refuse, and no term lands in the next field
    for past in (lambda: top * last, lambda: last ** (cap + 1), lambda: ring.dot([(first, first), (top, last + 1)]),
                 lambda: MultiPoly(ring, {(0,) * (n - 1) + (cap + 1,): (1,)}), lambda: top.coefficient((0,) * (n - 1) + (cap + 1,))):
        with pytest.raises(ValueError):
            past()
    with pytest.raises(ValueError):
        MultiPoly(ring, {(0,) * (n - 1) + (-1,): (1,)})
    # the cap is per variable: a total degree past it is fine while every exponent fits
    if n > 1:
        wide = ring.dot([(top, first ** cap)])
        assert wide.terms == {(cap,) + (0,) * (n - 2) + (cap,): (1,)}
        assert wide.exact_div(top) == first ** cap and wide.degree_in(ring.variables[-1]) == cap


def test_dot_rejects_mixed_rings():
    other = PolyRing(("a", "b", "c"), 3)
    with pytest.raises(ValueError):
        R.dot([(a, other.var("a"))])
    # an equal ring built again has the same fields
    again = PolyRing(("a", "b", "c"))
    assert R.dot([(a, again.var("b")), (b, c)]) == a * b + b * c
