import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, GENERIC_Q, Scalar, cyclotomic_field
from heckesym.exprio import MAX_EXPONENT, MAX_POWER_BITS, ExprError, _format_cyc, _format_fraction, _format_qpoly, format_scalar, parse_scalar
from heckesym.multipoly import MultiPoly, PolyRing

F = GENERIC_Q


def test_basic_parsing():
    q = F.q()
    assert parse_scalar("q^2 + q + 1", F) == 1 + q + q ** 2
    assert parse_scalar("  2*q -1 ", F) == 2 * q - 1
    assert parse_scalar("-q^3", F) == -(q ** 3)
    assert parse_scalar("(1+q)/(1-q)", F) == (1 + q) / (1 - q)
    assert parse_scalar("3/2", F) == F.scalar(Fraction(3, 2))
    assert parse_scalar("2^3", F) == F.scalar(8)


def test_precedence():
    q = F.q()
    assert parse_scalar("1+2*q^2", F) == 1 + 2 * q ** 2
    assert parse_scalar("-q^2", F) == -(q ** 2)
    assert parse_scalar("6/2/3", F) == F.one()
    assert parse_scalar("2-1-1", F).is_zero()


def test_e_identifier():
    C3 = cyclotomic_field(3)
    e = C3.e()
    assert parse_scalar("1 + e + e^2", C3).is_zero()
    assert parse_scalar("e^3", C3).is_one()
    # order 1 has e = 1
    assert parse_scalar("e", FieldSpec("rational")).is_one()


def test_q_binding():
    C3q = cyclotomic_field(3, q_power=1)
    assert parse_scalar("q", C3q) == C3q.e()
    with pytest.raises(ExprError):
        parse_scalar("q", cyclotomic_field(3))


def test_errors_carry_positions():
    with pytest.raises(ExprError) as exc:
        parse_scalar("1 + $", F)
    assert exc.value.pos == 4
    with pytest.raises(ExprError):
        parse_scalar("q^(2)", F)  # exponent must be an integer literal
    with pytest.raises(ExprError):
        parse_scalar("(1+q", F)
    with pytest.raises(ExprError):
        parse_scalar("1/0", F)
    with pytest.raises(ExprError):
        parse_scalar("zz", F)


def test_overlong_integer_literal_carries_its_position():
    # past Python's int-conversion digit limit a literal is an ExprError, not a bare ValueError
    with pytest.raises(ExprError, match="integer literal of 5000 digits") as exc:
        parse_scalar("q + " + "7" * 5000, F)
    assert exc.value.pos == 4


def test_exponent_bound():
    # only a value just above the bound: an extreme one would be evaluated at the parent
    text = "q^%d" % (MAX_EXPONENT + 1)
    with pytest.raises(ExprError) as exc:
        parse_scalar(text, F)
    assert exc.value.pos == 2


def _random_scalar(field, rng):
    if field.kind == "ratfunc_q":
        qq = field.q()
        num = sum((field.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) * qq ** k for k in range(4)), field.zero())
        den = field.one() + field.scalar(rng.randint(-2, 2)) * qq + field.scalar(rng.randint(0, 1)) * qq ** 2
        if den.is_zero():
            den = field.one()
        return num / den
    deg = field._cyc.deg
    return field.from_cyc([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])


@pytest.mark.parametrize(
    "field", [FieldSpec("rational"), cyclotomic_field(3), cyclotomic_field(4), cyclotomic_field(12), GENERIC_Q]
)
def test_roundtrip(field):
    rng = random.Random(97)
    for _ in range(40):
        x = _random_scalar(field, rng)
        assert parse_scalar(format_scalar(x), field) == x
    assert parse_scalar(format_scalar(field.zero()), field).is_zero()
    assert parse_scalar(format_scalar(field.one()), field).is_one()


def test_nested_power_refused_before_evaluation(monkeypatch):
    calls = []
    pow_ = Scalar.__pow__

    def spy(self, k):
        calls.append(k)
        return pow_(self, k)

    monkeypatch.setattr(Scalar, "__pow__", spy)
    with pytest.raises(ExprError) as exc:
        parse_scalar("(2^1000)^1000", F)
    assert exc.value.pos == 9
    assert calls == [1000]  # only the inner power ran


@pytest.mark.parametrize("text", ["(q^2)^501", "(q^1000)^2", "((2^100)^100)^100", "(3^1000)^100"])
def test_power_size_bound(text):
    with pytest.raises(ExprError):
        parse_scalar(text, F)


@pytest.mark.parametrize("text", ["q^1000", "(1+q)^50", "(q^2)^500", "1000^1000", "((2^10)^10)^10"])
def test_powers_within_the_bound(text):
    parse_scalar(text, F)


# (2^1000)^65 is admitted as a power: about 65003 bits of the 65536 allowed
BIG = "(2^1000)^65"


@pytest.mark.parametrize(
    "text, pos",
    [
        ("*".join([BIG] * 20), len(BIG)),
        ("*".join(["q^1000"] * 30), 6),
        ("q^600*q^401", 5),
        ("q^600/(1/q^401)", 5),
        ("1/q^600/q^401", 7),
        (BIG + "*2^600", len(BIG)),
        (BIG + "/2^600", len(BIG)),
        ("(1+q)*q^1000", 5),
    ],
)
def test_product_size_bound(monkeypatch, text, pos):
    calls = []
    mul, div = Scalar.__mul__, Scalar.__truediv__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: calls.append(x) or mul(x, y))
    monkeypatch.setattr(Scalar, "__truediv__", lambda x, y: calls.append(x) or div(x, y))
    with pytest.raises(ExprError) as exc:
        parse_scalar(text, F)
    assert exc.value.pos == pos
    # the refused product or quotient was not computed
    assert all(len(x.num) - 1 <= MAX_EXPONENT for x in calls)


@pytest.mark.parametrize(
    "text",
    ["q^600*q^400", "q^600/q^400", "q^1000/q", "(1+q)*q^999", BIG + "*2^400", BIG + "/2^400", "0*" + BIG],
)
def test_products_within_the_bound(text):
    parse_scalar(text, F)


def test_product_bounds_in_bound_fields():
    # with q bound to 2, q^1000 is a constant of 1001 bits
    two = FieldSpec("rational").with_q(FieldSpec("rational").scalar(2))
    parse_scalar("*".join(["q^1000"] * 60), two)
    with pytest.raises(ExprError):
        parse_scalar("*".join(["q^1000"] * 66), two)
    assert 65 * 1003 <= MAX_POWER_BITS < 66 * 1003


def test_sums_over_coprime_powers_are_fast():
    # each sum reduces by a gcd of polynomials of degree up to 120: the Euclidean gcd over Q[q] took 18 s on the
    # 40th powers, the primitive PRS over Z[q] about 0.1 s
    import time

    start = time.perf_counter()
    x = parse_scalar("1/(q+1)^40+1/(q+2)^40+1/(q+3)^40", F)
    assert time.perf_counter() - start < 2.0
    assert (len(x.num), len(x.den)) == (81, 121)
    assert x * ((F.q() + 1) * (F.q() + 2) * (F.q() + 3)) ** 40 == sum((F.q() + a) ** 40 * (F.q() + b) ** 40 for a, b in ((2, 3), (1, 3), (1, 2)))


# ---------------------------------------------------------------------------
# the formatters as they were before they shared exprio._join, kept as
# byte-for-byte oracles


def _format_cyc_reference(vec, need_atom):
    parts = []
    for k, coeff in enumerate(vec):
        if not coeff:
            continue
        if k == 0:
            parts.append(_format_fraction(coeff))
        else:
            mono = "e" if k == 1 else "e^%d" % k
            if coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (_format_fraction(coeff), mono))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    if need_atom and (len(parts) > 1 or "/" in out or "*" in out or out.startswith("-")):
        return "(" + out + ")"
    return out


def _format_qpoly_reference(poly, need_atom):
    if not poly:
        return "0"
    parts = []
    for k in range(len(poly) - 1, -1, -1):
        vec = poly[k]
        if not any(vec):
            continue
        mono = "" if k == 0 else ("q" if k == 1 else "q^%d" % k)
        nonzero = [c for c in vec if c]
        plain_one = len(nonzero) == 1 and not any(vec[1:])
        if not mono:
            parts.append(_format_cyc_reference(vec, need_atom=False))
        elif plain_one and vec[0] == 1:
            parts.append(mono)
        elif plain_one and vec[0] == -1:
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (_format_cyc_reference(vec, need_atom=True), mono))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    if need_atom and (len(parts) > 1 or out.startswith("-") or "/" in out or "*" in out):
        return "(" + out + ")"
    return out


def _format_scalar_reference(x):
    ctx = x.field._cyc
    if not x.num:
        return "0"
    # the text shows the monic denominator: every integer entry over the integer c that leads den
    c = x.den[-1][0]
    num, den = (tuple(tuple(Fraction(e, c) for e in v) for v in p) for p in (x.num, x.den))
    if den == (ctx.one,):
        return _format_qpoly_reference(num, need_atom=False)
    return "%s/%s" % (_format_qpoly_reference(num, need_atom=True), _format_qpoly_reference(den, need_atom=True))


def _to_text_reference(p):
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms, key=lambda ex: (-sum(ex), tuple(-x for x in ex))):
        vec = p.terms[e]
        mono = "*".join(("%s^%d" % (v, k) if k > 1 else v) for v, k in zip(p.ring.variables, e) if k)
        plain = not any(vec[1:])
        if not mono:
            parts.append(_format_cyc_reference(vec, need_atom=False))
        elif plain and vec[0] == 1:
            parts.append(mono)
        elif plain and vec[0] == -1:
            parts.append("-" + mono)
        elif plain:
            parts.append("%s*%s" % (_format_cyc_reference(vec, need_atom=False), mono))
        else:
            parts.append("%s*%s" % (_format_cyc_reference(vec, need_atom=True), mono))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _random_cyc(rng, deg):
    """A coefficient vector with zeros, ones, minus ones and fractions among its entries."""
    return tuple(Fraction(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2))) for _ in range(deg))


@pytest.mark.parametrize("order", [1, 3, 4, 12])
def test_formatters_match_their_references(order):
    rng = random.Random("format:%d" % order)
    C = cyclotomic_field(order)
    deg = C._cyc.deg
    rational, Fq = FieldSpec("rational"), FieldSpec("ratfunc_q", order)
    qq = Fq.q()
    den = qq - Fq.e() if order > 1 else qq ** 2 + 2
    ring = PolyRing(("a", "b", "c"), order)
    for _ in range(40):
        vec = _random_cyc(rng, deg)
        poly = tuple(_random_cyc(rng, deg) for _ in range(rng.randint(0, 4))) + (_random_cyc(rng, deg),)
        for need_atom in (False, True):
            assert _format_cyc(vec, need_atom) == _format_cyc_reference(vec, need_atom)
            if any(poly[-1]):
                assert _format_qpoly(poly, need_atom) == _format_qpoly_reference(poly, need_atom)
        num = sum((Fq.from_cyc(v) * qq ** k for k, v in enumerate(poly)), Fq.zero())
        scalars = [C.from_cyc(vec), num, num / den, _random_scalar(Fq, rng)]
        if order == 1:
            scalars += [rational.from_cyc(vec), _random_scalar(GENERIC_Q, rng)]
        for x in scalars:
            assert format_scalar(x) == _format_scalar_reference(x), x
        terms = {tuple(rng.randint(0, 2) for _ in range(3)): _random_cyc(rng, deg) for _ in range(rng.randint(0, 5))}
        p = MultiPoly(ring, {e: v for e, v in terms.items() if any(v)})
        assert p.to_text() == _to_text_reference(p)
