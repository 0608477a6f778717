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
    src, tgt = p.ring._ctx(), field._ctx()
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
