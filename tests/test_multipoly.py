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
