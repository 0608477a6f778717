from fractions import Fraction

import pytest

from heckesym.exactnum import cyclotomic_field, primitive_root
from heckesym.multipoly import PolyRing

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
