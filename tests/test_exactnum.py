import dataclasses
import importlib.util
import math
import os
import random
from fractions import Fraction

import pytest

from heckesym import exactnum
from heckesym.exactnum import (
    MAX_ORDER,
    FieldSpec,
    GENERIC_Q,
    PoleError,
    Scalar,
    _cycctx,
    cyclotomic_field,
    cyclotomic_polynomial,
    primitive_root,
    qbinom,
    qfact,
    qint,
    specialize,
)
from heckesym.exprio import _format_qpoly, format_scalar
from heckesym.multipoly import PolyRing
from heckesym.permgroup import enumerate_perms

F = GENERIC_Q
q = F.q()


def test_qint_examples():
    assert qint(3) == 1 + q + q ** 2
    assert qint(0).is_zero()
    assert qint(1).is_one()


def test_qint_at_cube_root():
    C3 = cyclotomic_field(3, q_power=1)
    val = qint(2, C3)
    assert val == C3.one() + C3.e()
    assert not val.is_zero()
    assert qint(3, C3).is_zero()


def test_qfact_examples():
    assert qfact(0).is_one()
    assert qfact(2) == 1 + q
    # expand (1+q)(1+q+q^2) by hand
    assert qfact(3) == 1 + 2 * q + 2 * q ** 2 + q ** 3


def test_qfact_vanishes_at_cube_root():
    C3 = cyclotomic_field(3, q_power=1)
    assert qfact(3, C3).is_zero()


def brute_qbinom(n, k):
    """Independent oracle: sum of q^len over block-increasing permutations."""
    out = F.zero()
    for p in enumerate_perms(n):
        if all(p.word[i - 1] < p.word[i] for i in range(1, n) if i != k):
            out = out + q ** p.length()
    return out


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n + 1)])
def test_qbinom_against_coset_sum(n, k):
    assert qbinom(n, k) == brute_qbinom(n, k)


def test_qbinom_examples():
    assert qbinom(3, 1) == 1 + q + q ** 2
    assert qbinom(4, 2) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4


def test_qbinom_symmetry_and_product():
    for n in range(7):
        for k in range(n + 1):
            assert qbinom(n, k) == qbinom(n, n - k)
            assert qfact(n) == qbinom(n, k) * qfact(k) * qfact(n - k)


def test_qbinom_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qbinom(2, 3)


def test_length_sum_is_qfactorial():
    for n in range(1, 6):
        total = F.zero()
        for p in enumerate_perms(n):
            total = total + q ** p.length()
        assert total == qfact(n)


def test_specialize():
    R = FieldSpec("rational")
    assert specialize(1 + q + q ** 2, R.scalar(1)) == R.scalar(3)
    C3 = cyclotomic_field(3)
    assert specialize(1 + q + q ** 2, C3.e()).is_zero()
    with pytest.raises(PoleError):
        specialize(1 / (q - 1), R.scalar(1))


def test_primitive_roots():
    C3 = cyclotomic_field(3)
    eps = primitive_root(3, C3)
    assert (1 + eps + eps ** 2).is_zero()
    assert (eps ** 3).is_one()
    assert primitive_root(1, C3).is_one()
    C4 = cyclotomic_field(4)
    i = primitive_root(4, C4)
    assert i * i == -C4.one()
    with pytest.raises(ValueError):
        primitive_root(4, C3)


def test_twelfth_roots_give_both():
    C12 = cyclotomic_field(12)
    eps = primitive_root(3, C12)
    i = primitive_root(4, C12)
    assert (1 + eps + eps ** 2).is_zero()
    assert (i * i + 1).is_zero()


def test_fifth_roots():
    C5 = cyclotomic_field(5)
    z = C5.e()
    assert (z ** 5).is_one()
    assert (1 + z + z ** 2 + z ** 3 + z ** 4).is_zero()
    assert ((1 - z) * (1 - z) ** -1).is_one()


def test_rational_functions_over_cyclotomic_coefficients():
    Fq3 = FieldSpec("ratfunc_q", 3)
    qq = Fq3.q()
    eps = Fq3.e()
    # gcd reduction with a cyclotomic leading coefficient
    x = (qq - eps) * (qq + eps) / (qq - eps)
    assert x == qq + eps
    y = (eps * qq ** 2 - 1) / (eps * qq - 1)
    assert y * (eps * qq - 1) == eps * qq ** 2 - 1


def test_specialize_across_field_embeddings():
    Fq3 = FieldSpec("ratfunc_q", 3)
    qq = Fq3.q()
    x = qq + Fq3.e()
    C12 = cyclotomic_field(12)
    val = specialize(x, primitive_root(4, C12))
    assert val == primitive_root(4, C12) + primitive_root(3, C12)


def _random_scalar(field, rng):
    if field.kind == "ratfunc_q":
        qq = field.q()
        num = sum((field.scalar(rng.randint(-3, 3)) * qq ** k for k in range(3)), field.zero())
        den = field.one() + field.scalar(rng.randint(0, 2)) * qq
        return num / den
    deg = field._cyc.deg
    return field.from_cyc([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)])


@pytest.mark.parametrize("field", [FieldSpec("rational"), cyclotomic_field(3), cyclotomic_field(4), GENERIC_Q])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(20240811)
    for _ in range(25):
        x, y, z = (_random_scalar(field, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        assert x - x == field.zero() * field.one() or (x - x).is_zero()
        if not x.is_zero():
            assert (x * x.inverse()).is_one()
            assert (x ** -2) * x ** 2 == field.one()


def _canonical(field, num, den):
    """The Scalar num/den for integer polynomials num and den != 0, reduced by exactnum._reduce."""
    ctx = field._cyc
    return Scalar(field, *exactnum._reduce(ctx, num, den)) if num else Scalar(field, (), ctx.unit)


def _general_sum(x, y):
    """x + y over a ratfunc_q field by the general path: the sum over a common denominator, then reduced."""
    ctx = x.field._cyc
    if x.den == y.den:
        num, den = exactnum._padd(x.num, y.num), x.den
    else:
        num = exactnum._padd(exactnum._pmul(ctx, x.num, y.den), exactnum._pmul(ctx, y.num, x.den))
        den = exactnum._pmul(ctx, x.den, y.den)
    return _canonical(x.field, num, den)


def _general_neg(x):
    return Scalar(x.field, exactnum._pneg(x.num), x.den)


def _general_product(x, y):
    ctx = x.field._cyc
    return _canonical(x.field, exactnum._pmul(ctx, x.num, y.num), exactnum._pmul(ctx, x.den, y.den))


def _random_ratfunc(field, rng):
    """A canonical ratfunc_q value built by the polynomial helpers alone, not by the Scalar operators under test."""
    ctx = field._cyc

    def poly(terms):
        return exactnum._ptrim([tuple(rng.randint(-3, 3) for _ in ctx.one) for _ in range(terms)])

    return _canonical(field, poly(3), poly(2) or ctx.unit)


@pytest.mark.parametrize("field", [GENERIC_Q, FieldSpec("ratfunc_q", 3)], ids=lambda f: "ratfunc_q-%d" % f.order)
def test_zero_operands_match_the_general_path(field):
    rng = random.Random("zero-operands:%d" % field.order)
    one = (field._cyc.one,)
    xs = [_random_ratfunc(field, rng) for _ in range(20)]
    assert sum(map(bool, xs)) >= 15
    for x in xs:
        for z in (field.zero(), Scalar(field, (), one), _general_sum(x, _general_neg(x)), 0):
            zs = field.scalar(0) if z == 0 else z
            cases = [
                (x + z, _general_sum(x, zs)),
                (z + x, _general_sum(zs, x)),
                (x - z, _general_sum(x, _general_neg(zs))),
                (z - x, _general_sum(zs, _general_neg(x))),
                (x * z, _general_product(x, zs)),
                (z * x, _general_product(zs, x)),
                (-zs, _general_neg(zs)),
                (zs + zs, _general_sum(zs, zs)),
                (zs - zs, _general_sum(zs, _general_neg(zs))),
                (zs * zs, _general_product(zs, zs)),
            ]
            for got, want in cases:
                assert (got.num, got.den) == (want.num, want.den)
                assert hash(got) == hash(want) and format_scalar(got) == format_scalar(want)


def test_canonical_form_is_stable():
    x = (q ** 2 - 1) / (q - 1)
    assert x == q + 1
    y = (q + 1) * (q - 1) / ((q - 1) * (q + 1)) * (q + 1)
    assert y == q + 1
    assert hash(x) == hash(y + 0)


def test_mixed_field_arithmetic_rejected():
    C3 = cyclotomic_field(3)
    with pytest.raises(ValueError):
        q + C3.one()
    # constants of fields that differ only in the bound q do not mix either
    x, y = C3.e(), cyclotomic_field(3, 1).e()
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ValueError):
            op(x, y)
    assert x != y
    with pytest.raises(ValueError):
        FieldSpec("rational").one() + cyclotomic_field(1).one()


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("bogus")
    with pytest.raises(ValueError):
        FieldSpec("rational", 3)
    with pytest.raises(ValueError):
        FieldSpec("ratfunc_q", 1, (Fraction(1),))


# ---------------------------------------------------------------------------
# the arithmetic on Fraction entries, as it ran before integral entries became
# ints: the seeded oracle for every Scalar operation


def _is_normal(vec):
    """Whether every integral entry of vec is an int and every other one a Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in vec)


def _euclid_inverse(m, a):
    """Inverse modulo Phi_m by the extended Euclid over Fraction polynomials (reference only)."""
    d = _cycctx(m).deg
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(m)], [Fraction(c) for c in a]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            out = [x / r1[0] for x in s1] + [Fraction(0)] * d
            return tuple(out[:d])
        # r0 = quo * r1 + r0 mod r1
        quo = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            quo[k] = c
            for j, rj in enumerate(r1):
                rem[k + j] -= c * rj
        rem = rem[: len(r1) - 1]
        prod = [Fraction(0)] * (len(quo) + len(s1) - 1)
        for i, x in enumerate(quo):
            for j, y in enumerate(s1):
                prod[i + j] += x * y
        width = max(len(s0), len(prod))
        s0, s1 = s1, [(s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(width)]
        r0, r1 = r1, rem


class _FractionLoopCtx:
    """Arithmetic modulo Phi_m on Fraction entries: the Fraction-loop product and the Euclid inverse (reference only)."""

    def __init__(self, m):
        self.m = m
        self.deg = d = _cycctx(m).deg
        self.zero = (Fraction(0),) * d
        self.one = (Fraction(1),) + self.zero[1:]
        phi = cyclotomic_polynomial(m)
        # x^j mod Phi_m for j = d .. 2d-2, built over Fraction
        reds = []
        cur = [Fraction(-phi[i], phi[d]) for i in range(d)]
        reds.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Fraction(0)] + cur[: d - 1]
            top = cur[d - 1]
            if top:
                for i in range(d):
                    nxt[i] += top * reds[0][i]
            cur = nxt
            reds.append(tuple(cur))
        self.reductions = tuple(reds)

    def mul(self, a, b):
        d = self.deg
        if d == 1:
            return (Fraction(a[0] * b[0]),)
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                red = self.reductions[j - d]
                for i in range(d):
                    out[i] += c * red[i]
        return tuple(out)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("division by zero")
        return _euclid_inverse(self.m, a)


class _Reference:
    """The Scalar operations as (num, den) pairs of polynomials in q with Fraction entries, reduced by a
    Euclidean gcd to a monic denominator, as exactnum computed them on Fractions (reference only)."""

    def __init__(self, order):
        self.ctx = _FractionLoopCtx(order)

    @staticmethod
    def trim(coeffs):
        n = len(coeffs)
        while n and not any(coeffs[n - 1]):
            n -= 1
        return tuple(coeffs[:n])

    def padd(self, a, b):
        zero = self.ctx.zero
        n = max(len(a), len(b))
        return self.trim([tuple(u + v for u, v in zip(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero)) for i in range(n)])

    def pmul(self, a, b):
        if not a or not b:
            return ()
        out = [self.ctx.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = tuple(u + v for u, v in zip(out[i + j], self.ctx.mul(ai, bj)))
        return self.trim(out)

    def pdivmod(self, num, den):
        ctx, num, dn = self.ctx, list(num), len(den)
        if len(num) < dn:
            return (), self.trim(num)
        inv_lead = ctx.inv(den[-1])
        quo = [ctx.zero] * (len(num) - dn + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = ctx.mul(num[k + dn - 1], inv_lead)
            for j in range(dn):
                num[k + j] = tuple(u - v for u, v in zip(num[k + j], ctx.mul(c, den[j])))
        return self.trim(quo), self.trim(num[: dn - 1])

    def gcd(self, a, b):
        """The monic gcd by the Euclidean algorithm over Q(zeta_m)[q] (exactnum._pgcd as it was)."""
        while b:
            a, b = b, self.pdivmod(a, b)[1]
        inv = self.ctx.inv(a[-1])
        return tuple(self.ctx.mul(c, inv) for c in a)

    def reduce(self, num, den):
        """num/den with the gcd removed and a monic denominator."""
        ctx = self.ctx
        if not num:
            return (), (ctx.one,)
        g = self.gcd(num, den)
        if len(g) > 1:
            num, den = self.pdivmod(num, g)[0], self.pdivmod(den, g)[0]
        inv = ctx.inv(den[-1])
        return tuple(ctx.mul(c, inv) for c in num), tuple(ctx.mul(c, inv) for c in den)

    def const(self, value):
        return self.reduce(((Fraction(value),) + self.ctx.zero[1:],), (self.ctx.one,))

    def add(self, x, y):
        if x[1] == y[1]:
            return self.reduce(self.padd(x[0], y[0]), x[1])
        return self.reduce(self.padd(self.pmul(x[0], y[1]), self.pmul(y[0], x[1])), self.pmul(x[1], y[1]))

    def neg(self, x):
        return tuple(tuple(-u for u in v) for v in x[0]), x[1]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return self.reduce(self.pmul(x[0], y[0]), self.pmul(x[1], y[1]))

    def inverse(self, x):
        return self.reduce(x[1], x[0])

    def div(self, x, y):
        return self.mul(x, self.inverse(y))

    def pow(self, x, k):
        if k < 0:
            x, k = self.inverse(x), -k
        out = ((self.ctx.one,), (self.ctx.one,))
        for _ in range(k):
            out = self.mul(out, x)
        return out


def _fractions(x):
    """x's value as the oracle's (num, den): Fraction entries over a monic den, every integer entry over the
    integer that leads x.den."""
    c = x.den[-1][0]
    return tuple(tuple(tuple(Fraction(e, c) for e in v) for v in poly) for poly in (x.num, x.den))


def _from_fractions(field, pair):
    """The canonical Scalar of the oracle's (num, den): every entry times the lcm of the entries' denominators."""
    c = math.lcm(*[Fraction(e).denominator for poly in pair for v in poly for e in v])
    return Scalar(field, *(tuple(tuple(int(e * c) for e in v) for v in poly) for poly in pair))


def _assert_canonical(x):
    """Only ints, den led by a positive integer, and no integer > 1 dividing every entry: den is the least
    integer multiple of the monic denominator that makes both sides integral."""
    entries = [e for poly in (x.num, x.den) for v in poly for e in v]
    assert all(type(e) is int for e in entries), (x, x.num, x.den)
    assert x.den[-1][0] > 0 and not any(x.den[-1][1:]), (x, x.den)
    assert math.gcd(*entries) == 1, (x, x.num, x.den)


def _check_against_reference(field, got, want):
    """got is canonical and holds the oracle's want (reduced over a monic denominator, so num and den are coprime):
    same integers as the oracle's value scaled by the test, same hash, and the text the oracle's form prints."""
    _assert_canonical(got)
    assert _fractions(got) == want
    old = _from_fractions(field, want)
    assert (got.num, got.den) == (old.num, old.den) and got == old and hash(got) == hash(old)
    text = "0" if not want[0] else _format_qpoly(want[0], False) if want[1] == (field._cyc.one,) else "%s/%s" % (_format_qpoly(want[0], True), _format_qpoly(want[1], True))
    assert format_scalar(got) == text


def _random_constant(field, rng):
    deg = field._cyc.deg
    vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.8 else Fraction(0) for _ in range(deg)]
    return field.from_cyc(vec)


CONSTANT_FIELDS = [FieldSpec("rational")] + [cyclotomic_field(m) for m in (3, 4, 5, 8, 12)]


@pytest.mark.parametrize("field", CONSTANT_FIELDS, ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_constant_fast_path_matches_fraction_reference(field):
    rng = random.Random("fast-path:%d" % field.order)
    ref = _Reference(field.order)
    # an equal field that is not the same object takes the == branch of the field check
    twin = FieldSpec(field.kind, field.order, field.qval)
    assert twin is not field
    for _ in range(60):
        x, y = _random_constant(field, rng), _random_constant(field, rng)
        xp, yp = _fractions(x), _fractions(y)
        cases = [
            (x + y, ref.add(xp, yp)),
            (x - y, ref.sub(xp, yp)),
            (-x, ref.neg(xp)),
            (x * y, ref.mul(xp, yp)),
            (x + (-x), ref.add(xp, ref.neg(xp))),
            (x - x, ref.sub(xp, xp)),
            (x ** 3, ref.pow(xp, 3)),
            (x + 2, ref.add(xp, ref.const(2))),
            (Scalar(twin, x.num, x.den) * y, ref.mul(xp, yp)),
        ]
        if y:
            cases += [(x / y, ref.div(xp, yp)), (y.inverse(), ref.inverse(yp)), (y ** -2, ref.pow(yp, -2))]
        for got, want in cases:
            _check_against_reference(field, got, want)
        assert (x - x).is_zero() and (x + (-x)).is_zero()
        assert (x == y) == (xp == yp)
        assert Scalar(twin, x.num, x.den) == x and hash(Scalar(twin, x.num, x.den)) == hash(x)


def _random_pair(ref, kind, rng):
    """A canonical (num, den) with Fraction entries, integral and non-integral, polynomial in q for ratfunc_q."""
    zero = ref.ctx.zero

    def vec():
        return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else Fraction(0) for _ in zero)

    if kind != "ratfunc_q":
        return ref.reduce(ref.trim([vec()]), (ref.ctx.one,))
    den = ref.trim([vec() for _ in range(rng.randint(1, 3))]) or (ref.ctx.one,)
    return ref.reduce(ref.trim([vec() for _ in range(rng.randint(0, 3))]), den)


ORACLE_FIELDS = [FieldSpec("rational")] + [FieldSpec(kind, m) for kind in ("cyclotomic", "ratfunc_q") for m in (1, 3, 4)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_scalar_arithmetic_matches_fraction_oracle(field):
    rng = random.Random("fraction-oracle:%s:%d" % (field.kind, field.order))
    ref = _Reference(field.order)
    for _ in range(30):
        xp, yp = _random_pair(ref, field.kind, rng), _random_pair(ref, field.kind, rng)
        x, y = (_from_fractions(field, pair) for pair in (xp, yp))
        _assert_canonical(x)
        cases = [
            (x + y, ref.add(xp, yp)),
            (x - y, ref.sub(xp, yp)),
            (-x, ref.neg(xp)),
            (x * y, ref.mul(xp, yp)),
            (3 * x - Fraction(1, 2), ref.sub(ref.mul(ref.const(3), xp), ref.const(Fraction(1, 2)))),
            (x ** 2, ref.pow(xp, 2)),
            (x ** 3, ref.pow(xp, 3)),
        ]
        if y:
            cases += [(x / y, ref.div(xp, yp)), (y.inverse(), ref.inverse(yp)), (y ** -2, ref.pow(yp, -2))]
        for got, want in cases:
            _check_against_reference(field, got, want)


def _random_value(ref, kind, rng, den_kind):
    """A reduced (num, den) with Fraction entries: a constant, or for ratfunc_q a polynomial of degree up to 4 over
    an integer, an integer times q^k, or a general polynomial denominator."""
    zero = ref.ctx.zero

    def vec(density=0.7):
        return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5))) if rng.random() < density else Fraction(0) for _ in zero)

    def integer():
        return (Fraction(rng.randint(1, 12)),) + zero[1:]

    num = ref.trim([vec() for _ in range(1 if kind != "ratfunc_q" else rng.randint(0, 5))])
    if kind != "ratfunc_q" or den_kind == "integer":
        den = (integer(),)
    elif den_kind == "power":
        den = (zero,) * rng.randint(0, 4) + (integer(),)
    else:
        den = ref.trim([vec() for _ in range(rng.randint(1, 4))]) or (integer(),)
    return ref.reduce(num, den)


INTEGER_ORACLE_CASES = [(FieldSpec("rational"), None)] + [(cyclotomic_field(m), None) for m in (3, 4, 5, 12)]
INTEGER_ORACLE_CASES += [(FieldSpec("ratfunc_q", m), den) for m in (1, 3) for den in ("integer", "power", "general")]


@pytest.mark.parametrize("field,den_kind", INTEGER_ORACLE_CASES, ids=lambda c: c if isinstance(c, str) or c is None else "%s-%d" % (c.kind, c.order))
def test_integer_coefficient_arithmetic_matches_fraction_oracle(field, den_kind):
    # the Fraction-entry arithmetic is the oracle of +, -, *, /, inverse and powers on the integer form; every result
    # is canonical: only ints, the least integer multiplier, and no common factor
    rng = random.Random("integer-oracle:%s:%d:%s" % (field.kind, field.order, den_kind))
    ref = _Reference(field.order)
    for _ in range(25):
        xp, yp = (_random_value(ref, field.kind, rng, den_kind) for _ in range(2))
        x, y = (_from_fractions(field, pair) for pair in (xp, yp))
        for z, zp in ((x, xp), (y, yp)):
            _check_against_reference(field, z, zp)
        k = rng.randint(2, 4)
        cases = [
            (x + y, ref.add(xp, yp)),
            (x - y, ref.sub(xp, yp)),
            (x + x, ref.add(xp, xp)),
            (x - x, ref.sub(xp, xp)),
            (x * y, ref.mul(xp, yp)),
            (x ** k, ref.pow(xp, k)),
            (Fraction(-5, 6) * x + 7, ref.add(ref.mul(ref.const(Fraction(-5, 6)), xp), ref.const(7))),
        ]
        if y:
            cases += [(x / y, ref.div(xp, yp)), (y.inverse(), ref.inverse(yp)), (y ** -k, ref.pow(yp, -k))]
            # the common factors of a product and of a sum with y cancel again
            cases += [(x * y / y, xp), ((x + y) * (x - y) / (x - y) if x != y else x + y, ref.add(xp, yp))]
        for got, want in cases:
            _check_against_reference(field, got, want)


@pytest.mark.parametrize("m", [1, 3, 4])
def test_zq_gcd_matches_euclid(m):
    # exactnum._gcd against the Euclidean gcd over Q(zeta_m)[q]: a planted common factor f of a = f g and b = f h,
    # up to a constant; the gcd comes back led by a positive integer with no integer dividing every entry
    rng = random.Random("zq-gcd:%d" % m)
    ctx, ref = _cycctx(m), _Reference(m)

    def poly(degree):
        out = [tuple(rng.randint(-6, 6) for _ in ctx.one) for _ in range(degree + 1)]
        out[-1] = out[-1] if any(out[-1]) else ctx.one
        return tuple(out)

    for trial in range(30):
        f = poly(rng.randint(0, 3))
        a = exactnum._pmul(ctx, f, poly(rng.randint(1, 4)))
        b = exactnum._pmul(ctx, f, poly(rng.randint(1, 4)))
        g = exactnum._gcd(ctx, a, b)
        assert g[-1][0] > 0 and not any(g[-1][1:]) and math.gcd(*[e for v in g for e in v]) == 1, trial
        to_fractions = lambda p: tuple(tuple(map(Fraction, v)) for v in p)
        want = ref.gcd(to_fractions(a), to_fractions(b))
        assert to_fractions(g) == tuple(ref.ctx.mul(v, (Fraction(g[-1][0]),) + ref.ctx.zero[1:]) for v in want), trial


def test_constructors_keep_integral_entries_as_ints():
    C3 = cyclotomic_field(3)
    for x in (C3.scalar(Fraction(4, 2)), C3.from_cyc([Fraction(6, 3), Fraction(1, 2)]), FieldSpec("rational").scalar(True)):
        _assert_canonical(x)
    assert C3.scalar(Fraction(4, 2)) == C3.scalar(2) and hash(C3.scalar(Fraction(4, 2))) == hash(C3.scalar(2))
    # a bound q given with Fraction entries is the same field, its q an int constant
    minus_one = FieldSpec("rational", qval=(Fraction(-2, 2),))
    assert minus_one == FieldSpec("rational", qval=(-1,)) and hash(minus_one) == hash(FieldSpec("rational", qval=(-1,)))
    _assert_canonical(minus_one.q())


def test_field_spec_resolves_its_context_once(monkeypatch):
    C12 = cyclotomic_field(12)
    x = C12.e() + Fraction(1, 3)
    # the cached context is not a field of the dataclass: == and hash see kind, order and qval only
    assert [f.name for f in dataclasses.fields(FieldSpec)] == ["kind", "order", "qval"]
    assert C12 == FieldSpec("cyclotomic", 12) and hash(C12) == hash(("cyclotomic", 12, None))

    def refuse(m):
        raise AssertionError("context of order %d looked up again" % m)

    monkeypatch.setattr(exactnum, "_cycctx", refuse)
    assert (x * x.inverse()).is_one() and (x - x).is_zero() and C12.zero() + C12.one() == 1
    assert C12._cyc.deg == 4 and format_scalar(x) == "1/3 + e"


def _random_normal_vector(rng, deg, density=0.8):
    """A coefficient vector in normal form: integral entries ints, the others Fractions."""
    return tuple(exactnum._int(Fraction(rng.randint(-9, 9), rng.randint(1, 7))) if rng.random() < density else 0 for _ in range(deg))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15])
def test_integer_product_matches_fraction_loop(m):
    rng = random.Random("cyc-mul:%d" % m)
    ctx, old = _cycctx(m), _FractionLoopCtx(m)
    for _ in range(40):
        a, b = (_random_normal_vector(rng, ctx.deg) for _ in range(2))
        assert ctx.mul(a, b) == old.mul(a, b)
        assert _is_normal(ctx.mul(a, b))
        if any(a):
            assert ctx.mul(a, ctx.inv(a)) == ctx.one


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 15])
def test_integer_inverse_matches_euclid(m):
    rng = random.Random("cyc-inv:%d" % m)
    ctx = _cycctx(m)
    for trial in range(40):
        # sparse vectors too, so that the elimination has to swap rows
        a = _random_normal_vector(rng, ctx.deg, 0.8 if trial % 2 else 0.3)
        if not any(a):
            continue
        got = ctx.inv(a)
        assert got == _euclid_inverse(m, a)
        assert _is_normal(got)
    assert ctx.inv(ctx.root()) == _euclid_inverse(m, ctx.root())
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverse_of_int_vector_is_exact(m):
    # the inverse of an int vector must stay exact (on degree 1, 1 / 2 is a float)
    ctx = _cycctx(m)
    for a in ([2] + [0] * (ctx.deg - 1), [-3] + [1] * (ctx.deg - 1), [-1] + [0] * (ctx.deg - 1)):
        got = ctx.inv(tuple(a))
        assert _is_normal(got)
        assert ctx.mul(tuple(a), got) == ctx.one


def test_cyclotomic_inverse_reuses_phi(monkeypatch):
    ctx = _cycctx(12)
    assert ctx.phi == cyclotomic_polynomial(12)

    def refuse(m):
        raise AssertionError("Phi_%d recomputed" % m)

    monkeypatch.setattr(exactnum, "cyclotomic_polynomial", refuse)
    a = (Fraction(1), Fraction(2, 3), Fraction(0), Fraction(-1))
    assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_cyclotomic_polynomials_multiply_to_x_to_the_m_minus_one():
    # prod_(d | m) Phi_d = x^m - 1 determines every Phi_m from the smaller ones
    for m in range(1, 60):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _int_poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == (-1,) + (0,) * (m - 1) + (1,), m


def test_cyclotomic_order_is_bounded_before_any_table(monkeypatch):
    assert FieldSpec("cyclotomic", MAX_ORDER).order == MAX_ORDER
    monkeypatch.setattr(exactnum, "_CycCtx", lambda m: pytest.fail("order %d built its tables" % m))
    for make in (lambda m: FieldSpec("cyclotomic", m), lambda m: FieldSpec("ratfunc_q", m), lambda m: PolyRing(("a",), m)):
        for m in (0, MAX_ORDER + 1, 100000):
            with pytest.raises(ValueError, match="cyclotomic order must be from 1 to %d" % MAX_ORDER):
                make(m)


def test_tracer_can_wrap_every_scalar_op():
    # perfbench/tracer.py replaces Scalar.__dict__[op] for each op of SCALAR_OPS
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "__radd__" in tracer.SCALAR_OPS and "__rmul__" in tracer.SCALAR_OPS
    for op in tracer.SCALAR_OPS:
        assert callable(Scalar.__dict__.get(op)), op


def _repeated(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


@pytest.mark.parametrize("field", [FieldSpec("rational"), cyclotomic_field(3), GENERIC_Q])
def test_power_matches_repeated_products(field):
    rng = random.Random(20261018)
    for _ in range(6):
        x = _random_scalar(field, rng)
        for k in range(10):
            assert x ** k == _repeated(x, k, field.one())
            if not x.is_zero():
                assert x ** -k == _repeated(x.inverse(), k, field.one())
    assert field.zero() ** 0 == field.one()
    with pytest.raises(ZeroDivisionError):
        field.zero() ** -1


def test_power_squares_once_per_further_bit(monkeypatch):
    x = cyclotomic_field(3).scalar(2) + primitive_root(3, cyclotomic_field(3))
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert x ** 8 == x * x * x * x * x * x * x * x
    assert len(calls) == 3 + 7
    calls.clear()
    x ** 9
    x ** 1
    assert len(calls) == 4


def _from_power_of_two_loop(x, bits):
    """The digit decoder that shifted x once per digit (quadratic in the digit count), kept as the oracle."""
    out, full = [], 1 << bits
    while x:
        c = x & (full - 1)
        c -= full if c >= full >> 1 else 0
        out.append(c)
        x = (x - c) >> bits
    return out


def test_digit_decoding_matches_the_loop():
    rng = random.Random("digits")
    assert exactnum._from_power_of_two(0, 8) == [] == _from_power_of_two_loop(0, 8)
    assert [exactnum.digit_bits(b) for b in (0, 1, 127, 128, 2 ** 15, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63)] == [8, 8, 8, 16, 32, 32, 64, 64, 128]
    for trial in range(600):
        # digits below 2^(size-1) in size; the width is digit_bits' or any whole number of bytes that holds them
        size = rng.randint(2, 300)
        bits = exactnum.digit_bits((1 << (size - 1)) - 1) if trial % 2 else 8 * rng.randint((size + 7) // 8, 40)
        assert bits % 8 == 0 and bits >= size
        half = 1 << (bits - 1)
        top = (1 << (size - 1)) - 1
        pool = (0, 1, -1, top, -top, -half if size == bits else -top)
        digits = [rng.choice(pool) if rng.random() < 0.3 else rng.randint(-top, top) for _ in range(rng.randint(0, 200))]
        x = exactnum.at_power_of_two(digits, bits)
        while digits and not digits[-1]:
            digits.pop()
        assert exactnum._from_power_of_two(x, bits) == _from_power_of_two_loop(x, bits) == digits, (size, bits)
        # the same digits read at a fixed count, with zeros above, several ints at once
        n = len(digits) + rng.randint(1, 3)
        assert exactnum._digits([x, -x, 0], bits, n) == [d for y in (x, -x, 0) for d in _from_power_of_two_loop(y, bits) + [0] * (n - len(_from_power_of_two_loop(y, bits)))]


def _equal_packed_all_at_once(a, b):
    """Packed.__eq__ as it decoded every digit of both sides into lists before comparing (the oracle)."""
    ctx, m = a.field._cyc, a.m
    (xa, Da, ba), (xb, Db, bb) = (a.comps, a.den, a.bits), (b.comps, b.den, b.bits)
    if Da == Db and ba == bb:
        return xa == xb
    n = max(exactnum._digit_count(xa, ba, m), exactnum._digit_count(xb, bb, m))
    ra, rb = [exactnum._digits(xs, ba, n) for xs in xa], [exactnum._digits(xs, bb, n) for xs in xb]
    if Da == Db:
        return ra == rb
    return all(exactnum._pmul(ctx, p, Db) == exactnum._pmul(ctx, r, Da) for p, r in zip(exactnum._numerators(ra, n, m), exactnum._numerators(rb, n, m)))


def _int_poly_mul(p, f):
    """The product of two integer polynomials (tuples, low degree first)."""
    if not p or not f:
        return ()
    out = [0] * (len(p) + len(f) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(f):
            out[i + j] += x * y
    return tuple(out)


def _packed_pair(field, comps, den, m, widths, factor=None):
    """Two Packed families of one value: comps (pack_q's) over den at the first width, and at the second width, its
    numerators times the integer polynomial factor over den times factor."""
    deg = len(comps)
    top = max([abs(c) for ps in comps for p in ps for c in _int_poly_mul(p, factor or (1,))], default=0)
    ba, bb = (max(w, exactnum.digit_bits(top)) for w in widths)
    a = exactnum.Packed(field, [exactnum.at_lanes(ps, ba, m) for ps in comps], den, ba, m)
    if factor is None:
        return a, exactnum.Packed(field, [exactnum.at_lanes(ps, bb, m) for ps in comps], den, bb, m)
    # a constant factor scales the first coordinate of each coefficient vector
    scaled = [[_int_poly_mul(p, factor) for p in ps] for ps in comps]
    fden = tuple((c,) + (0,) * (deg - 1) for c in factor)
    return a, exactnum.Packed(field, [exactnum.at_lanes(ps, bb, m) for ps in scaled], exactnum._pmul(field._cyc, den, fden), bb, m)


@pytest.mark.parametrize("field", [FieldSpec("rational"), cyclotomic_field(3), GENERIC_Q, FieldSpec("ratfunc_q", 4)], ids=lambda f: "%s-%d" % (f.kind, f.order))
def test_equal_packed_matches_the_all_at_once_decoder(field):
    # the same family at two digit widths, or over another denominator, and with one coordinate changed
    rng = random.Random("equal-packed:%s:%d" % (field.kind, field.order))
    ratfunc = field.kind == "ratfunc_q"
    for trial in range(24):
        m = rng.choice((1, 2, 3, 5))
        vec = [field.zero() if rng.random() < 0.3 else _random_scalar(field, rng) for _ in range(m * rng.randint(1, 12))]
        den, comps = exactnum.pack_q(field, vec)
        widths = rng.choice(((8, 16), (16, 8), (8, 64), (64, 128), (128, 192), (8, 8)))
        factor = None if trial % 3 == 0 else (rng.choice((2, 3, -5)), 1) if ratfunc else (rng.choice((2, 3, -5)),)
        a, b = _packed_pair(field, comps, den, m, widths, factor)
        for x, y in ((a, b), (b, a)):
            assert (x == y) is _equal_packed_all_at_once(x, y) is True, trial
        k, j = rng.randrange(len(vec)), rng.randrange(len(comps))
        bad = [list(ps) for ps in comps]
        p = bad[j][k] or (0,)
        bad[j][k] = (p[0] + rng.choice((1, -1)),) + p[1:]
        c, d = _packed_pair(field, bad, den, m, widths, factor)
        assert (a == d) is _equal_packed_all_at_once(a, d) is False, trial
        assert (c == b) is _equal_packed_all_at_once(c, b) is False, trial


@pytest.mark.parametrize("factor", [None, (3,)], ids=["other-width", "other-denominator"])
def test_equal_packed_decodes_one_coordinate_at_a_time(factor):
    # 200 coordinates of 5 lanes, each lane a polynomial of degree 24 with 60-bit coefficients: 125 digits
    # and 8,000 bits per int at width 64, and 25,000 digits per side, whose lists the all-at-once decoder
    # holds together (2.5 MB and more)
    import tracemalloc

    field, m = FieldSpec("rational"), 5
    rng = random.Random("equal-packed-memory")
    comps = [[tuple(rng.randint(-(2 ** 60), 2 ** 60) for _ in range(25)) for _ in range(200 * m)]]
    a, b = _packed_pair(field, comps, ((1,),), m, (64, 128), factor)
    peaks = []
    for equal in (exactnum.Packed.__eq__, _equal_packed_all_at_once):
        tracemalloc.start()
        try:
            assert equal(a, b) is True
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 128 * 1024 < 10 * 128 * 1024 < peaks[1], peaks
