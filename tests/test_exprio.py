import random
from fractions import Fraction

import pytest

from heckesym.exactnum import FieldSpec, GENERIC_Q, Scalar, cyclotomic_field
from heckesym.exprio import MAX_EXPONENT, MAX_POWER_BITS, ExprError, format_scalar, parse_scalar

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
    deg = field._ctx().deg
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
