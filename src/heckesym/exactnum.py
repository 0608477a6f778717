"""Exact scalar arithmetic for every computation in this package.

A scalar is a fraction num/den of polynomials in the parameter q whose
coefficients live in a cyclotomic extension Q(zeta_m) of the rationals
(m = 1 gives plain rationals).  Three field kinds are exposed:

  rational    -- Q; num and den are constants
  cyclotomic  -- Q(zeta_m), elements reduced modulo the m-th cyclotomic
                 polynomial; num and den constants
  ratfunc_q   -- rational functions in a formal variable q over Q(zeta_m),
                 kept reduced (gcd removed)

Every coefficient is an int: num and den are integer polynomials in q over
Z[zeta_m], den being the monic denominator times the least positive integer
c that makes both integral, so a constant is an integer vector over one
integer c >= 1.  This canonical form is unique per value, so == is reliable
and scalars hash.  All values are immutable; operations are pure.

Cyclotomic coefficient vectors are dense tuples of length deg Phi_m.
Polynomials in q are tuples of such vectors, low degree first, with no
trailing zeros (the zero polynomial is the empty tuple).  Constants of the
rational and cyclotomic kinds skip the polynomial layer: a product is one
integer product reduced by x^j mod Phi_m and one gcd with c, a sum
cross-multiplies only when the denominators differ, and an inverse solves
with the integer multiplication matrix of a constant.  A ratfunc_q scalar
is reduced by a primitive PRS gcd over Z[q] (integer-content-reduced
pseudo-remainders over Z[zeta_m]), with no gcd when either side is a
monomial c q^k.  constant(), rational() and fractions() give the values
with Fraction entries over a monic denominator, the form exprio prints;
_CycCtx.mul and inv take such vectors, for multipoly.

pack_q moves a vector of any kind to integer polynomials in q over one
polynomial denominator (a constant is the degree-0 case), and at_lanes puts
m such vectors in the lanes of one int per coordinate (linalg.Placed packs
a family from its two factors).  A slot action returns such ints over one
denominator as a Packed family: values() reads the lanes back with at most
one gcd per coordinate, while == and vanishes() decide on the ints with no
Scalar built.  Digits are whole bytes wide (digit_bits), so they read back
in one pass over an int's bytes.  Cyclotomic orders run from 1 to MAX_ORDER.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import add, mul, sub
from typing import Optional, Tuple, Union

__all__ = [
    "FieldSpec",
    "Scalar",
    "PoleError",
    "qint",
    "qfact",
    "qbinom",
    "specialize",
    "primitive_root",
    "pack_q",
    "at_lanes",
    "Packed",
    "MAX_ORDER",
    "at_power_of_two",
    "digit_bits",
    "mul_matrices",
]

Cyc = Tuple[Union[int, Fraction], ...]
QPoly = Tuple[Cyc, ...]


def _int(x):
    """x, an int or a Fraction, as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _ints(vec) -> tuple:
    """The coefficient vector vec as a tuple, its integral entries as ints."""
    return tuple(map(_int, vec)) if Fraction in map(type, vec) else tuple(vec)


def _split(vec) -> tuple:
    """(ints, c) for a vector of ints and Fractions: the least c >= 1 and the integer vector ints with vec = ints / c."""
    if all([x.__class__ is int for x in vec]):
        return tuple(vec), 1
    c = lcm(*[x.denominator for x in vec])
    return tuple([x.numerator * (c // x.denominator) for x in vec]), c


def _power(times, x, k: int):
    """x^k for k >= 1, left to right from the top bit: one square per further bit."""
    out = x
    for bit in bin(k)[3:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, x)
    return out


def _ratio(c: int, den: int):
    """c / den for ints, an int when den divides c."""
    quo, rem = divmod(c, den)
    return Fraction(c, den) if rem else quo


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction data, cached per order


def cyclotomic_polynomial(m: int) -> Tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    # start from x^m - 1 and strip Phi_d for each proper divisor d, as polynomials over Z = Z[zeta_1]
    poly = ((-1,),) + ((0,),) * (m - 1) + ((1,),)
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_quo(_cycctx(1), poly, tuple((c,) for c in cyclotomic_polynomial(d)))
    return tuple(c for c, in poly)


class _CycCtx:
    """Reduction tables for arithmetic modulo Phi_m."""

    __slots__ = ("m", "deg", "phi", "zero", "one", "unit", "reductions")

    def __init__(self, m: int):
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        self.m = m
        self.deg = d
        self.phi = phi
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        # the polynomial 1: the denominator of every integral scalar
        self.unit = (self.one,)
        # x^j mod Phi_m for j = d .. 2d-2; integral because Phi_m is monic
        reds = []
        cur = [-c for c in phi[:d]]
        reds.append(tuple(cur))
        for _ in range(d - 2):
            top = cur[d - 1]
            cur = [top * r for r in reds[0]]
            for i in range(1, d):
                cur[i] += reds[-1][i - 1]
            reds.append(tuple(cur))
        self.reductions = tuple(reds)

    def den(self, c: int) -> QPoly:
        """The constant denominator c."""
        return self.unit if c == 1 else ((c,) + self.zero[1:],)

    def root(self) -> Cyc:
        """The residue class of x, a primitive m-th root of unity."""
        if self.deg == 1:
            # Phi_1 = x-1, Phi_2 = x+1
            return (1,) if self.m == 1 else (-1,)
        out = [0] * self.deg
        out[1] = 1
        return tuple(out)

    def imul(self, a: Cyc, b: Cyc) -> Cyc:
        """The product of two integer vectors mod Phi_m."""
        d = self.deg
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                for i, r in enumerate(self.reductions[j - d]):
                    if r:
                        out[i] += c * r
        return tuple(out)

    def mul(self, a: Cyc, b: Cyc) -> Cyc:
        """The product of two vectors with int or Fraction entries, its integral entries ints."""
        if self.deg == 1:
            return (_int(a[0] * b[0]),)
        (ia, da), (ib, db) = _split(a), _split(b)
        out, den = self.imul(ia, ib), da * db
        return out if den == 1 else tuple([_ratio(c, den) if c else 0 for c in out])

    def mul_matrix(self, ints) -> list:
        """Rows of the integer matrix of multiplication by sum ints[j] x^j mod Phi_m."""
        col = list(ints)
        cols = [col]
        for _ in range(self.deg - 1):
            top = col[-1]
            col = [c + top * r for c, r in zip([0] + col[:-1], self.reductions[0])]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def iinv(self, a: Cyc) -> tuple:
        """(r, p) for a nonzero integer vector a: the least int p > 0 and the integer vector r with a r = p."""
        d = self.deg
        if d == 1:
            return ((1,), a[0]) if a[0] > 0 else ((-1,), -a[0])
        # M x = e_0 for the integer matrix M of a, by fraction-free Gauss-Jordan:
        # every diagonal entry ends as the last pivot p, and x = r / p
        aug = [row + [int(i == 0)] for i, row in enumerate(self.mul_matrix(a))]
        prev = 1
        for k in range(d):
            p = next(i for i in range(k, d) if aug[i][k])
            aug[k], aug[p] = aug[p], aug[k]
            piv = aug[k]
            for i in range(d):
                if i != k:
                    f = aug[i][k]
                    aug[i] = [(piv[k] * x - f * y) // prev for x, y in zip(aug[i], piv)]
            prev = piv[k]
        r = [row[d] for row in aug]
        g = gcd(prev, *r) if prev > 0 else -gcd(prev, *r)
        return tuple([x // g for x in r]), prev // g

    def inv(self, a: Cyc) -> Cyc:
        """The inverse of a nonzero vector with int or Fraction entries, its integral entries ints."""
        if not any(a):
            raise ZeroDivisionError("division by zero")
        ints, c = _split(a)
        r, p = self.iinv(ints)
        return tuple([_ratio(x * c, p) for x in r])

    def embed(self, a: Cyc, target: "_CycCtx") -> Cyc:
        """Image of a under zeta_m -> zeta_M^(M/m); requires m | M."""
        if target.m % self.m:
            raise ValueError("no embedding of Q(zeta_%d) into Q(zeta_%d)" % (self.m, target.m))
        step = target.m // self.m
        out = target.zero
        pw = target.one
        gen = target.root()
        gen_step = gen
        for _ in range(step - 1):
            gen_step = target.mul(gen_step, gen)
        for coeff in a:
            if coeff:
                term = tuple(coeff * x for x in pw)
                out = tuple(u + v for u, v in zip(out, term))
            pw = target.mul(pw, gen_step)
        return _ints(out)


_CYC_CACHE: dict = {}
# the largest cyclotomic order: the tables and every product grow with deg Phi_m, so an order read from the command
# line or a document is bounded; the catalog, the obstruction cases and the Hessian group use orders up to 12
MAX_ORDER = 256


def _cycctx(m: int) -> _CycCtx:
    """The reduction tables of order m, built once; an order outside 1..MAX_ORDER is refused before any is built."""
    ctx = _CYC_CACHE.get(m)
    if ctx is None:
        if not 1 <= m <= MAX_ORDER:
            raise ValueError("cyclotomic order must be from 1 to %d" % MAX_ORDER)
        ctx = _CYC_CACHE[m] = _CycCtx(m)
    return ctx


# ---------------------------------------------------------------------------
# field specification


@dataclass(frozen=True)
class FieldSpec:
    """Which exact field a computation runs over.

    kind   -- "rational", "cyclotomic" or "ratfunc_q"
    order  -- cyclotomic order m of the coefficient field (1 for plain Q),
              from 1 to MAX_ORDER
    qval   -- for non-generic kinds, the value bound to the symbol q,
              as a coefficient vector over Q(zeta_order); None if unbound
    """

    kind: str
    order: int = 1
    qval: Optional[Cyc] = None

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic", "ratfunc_q"):
            raise ValueError("unknown field kind %r" % (self.kind,))
        if self.kind == "rational" and self.order != 1:
            raise ValueError("rational field has order 1")
        if self.kind == "ratfunc_q" and self.qval is not None:
            raise ValueError("q is the formal variable of a ratfunc_q field")
        # looked up once per field, the order checked first; not a dataclass field, so == and hash ignore it
        object.__setattr__(self, "_cyc", _cycctx(self.order))
        if self.qval is not None:
            if len(self.qval) != self._cyc.deg:
                raise ValueError("bound q has wrong coefficient length")
            object.__setattr__(self, "qval", _ints(self.qval))

    # -- constructors for scalars of this field

    def zero(self) -> "Scalar":
        return _scalar(self, (), self._cyc.unit)

    def one(self) -> "Scalar":
        unit = self._cyc.unit
        return _scalar(self, unit, unit)

    def scalar(self, value: Union[int, Fraction]) -> "Scalar":
        ctx = self._cyc
        if value.__class__ is not int:
            value = Fraction(value)
            if value.denominator != 1:
                return _scalar(self, ((value.numerator,) + ctx.zero[1:],), ctx.den(value.denominator))
            value = value.numerator
        if not value:
            return self.zero()
        return _scalar(self, ((value,) + ctx.zero[1:],), ctx.unit)

    def from_cyc(self, coeffs) -> "Scalar":
        """Scalar from a coefficient vector over Q(zeta_order), its entries ints or Fractions."""
        ctx = self._cyc
        vec, c = _split([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs])
        if len(vec) != ctx.deg:
            raise ValueError("coefficient vector must have length %d" % ctx.deg)
        if not any(vec):
            return self.zero()
        return _scalar(self, (vec,), ctx.den(c))

    def q(self) -> "Scalar":
        """The parameter q: formal in ratfunc_q, else the bound value."""
        ctx = self._cyc
        if self.kind == "ratfunc_q":
            return _scalar(self, (ctx.zero, ctx.one), ctx.unit)
        if self.qval is None:
            raise ValueError("q is not bound in this field")
        if not any(self.qval):
            raise ValueError("q must be nonzero")
        return self.from_cyc(self.qval)

    def e(self) -> "Scalar":
        """The primitive root of unity of the declared order."""
        ctx = self._cyc
        return _scalar(self, (ctx.root(),), ctx.unit)

    def with_q(self, q0: "Scalar") -> "FieldSpec":
        """Same field with q bound to the given constant."""
        if self.kind == "ratfunc_q":
            raise ValueError("cannot bind q in a ratfunc_q field")
        if q0.field != FieldSpec(self.kind, self.order):
            raise ValueError("q value must be a constant of this field")
        return FieldSpec(self.kind, self.order, q0.constant())


RATIONAL = FieldSpec("rational")
GENERIC_Q = FieldSpec("ratfunc_q")


def cyclotomic_field(order: int, q_power: Optional[int] = None) -> FieldSpec:
    """Q(zeta_order); optionally with q bound to zeta_order^q_power."""
    ctx = _cycctx(order)
    if q_power is None:
        return FieldSpec("cyclotomic", order)
    root = ctx.root()
    val = ctx.one
    for _ in range(q_power % order):
        val = ctx.imul(val, root)
    return FieldSpec("cyclotomic", order, val)


# ---------------------------------------------------------------------------
# integer polynomials over Z[zeta_m] (tuples of coefficient vectors, low
# degree first): the reduction to canonical form


def _ptrim(coeffs: list) -> QPoly:
    n = len(coeffs)
    while n and not any(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


def _padd(a: QPoly, b: QPoly, op=add) -> QPoly:
    """a + b, or a op b for op = operator.sub."""
    n = max(len(a), len(b))
    if len(a) < n:
        a = a + ((0,) * len(b[0]),) * (n - len(a))
    elif len(b) < n:
        b = b + ((0,) * len(a[0]),) * (n - len(b))
    return _ptrim([tuple(map(op, x, y)) for x, y in zip(a, b)])


def _pneg(a: QPoly) -> QPoly:
    return tuple(tuple([-u for u in c]) for c in a)


def _pscale(ctx: _CycCtx, a: QPoly, c: Cyc) -> QPoly:
    """c a for a nonzero integer vector c."""
    return tuple([ctx.imul(c, v) if any(v) else v for v in a])


def _pmul(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return ()
    unit = ctx.unit
    if a == unit:
        return b
    if b == unit:
        return a
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if any(ai):
            for j, bj in enumerate(b):
                if any(bj):
                    out[i + j] = tuple(map(add, out[i + j], ctx.imul(ai, bj)))
    return _ptrim(out)


def _divided(a: QPoly, g: int) -> QPoly:
    """a / g for an int g that divides every entry."""
    return tuple(tuple([x // g for x in v]) for v in a)


def _prem(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    """A nonzero integer times the remainder of a by b, for deg a >= deg b > 0: each step scales by b's leading
    coefficient rather than divide by it."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        c = r.pop()
        if any(c):
            k = len(r) - db
            r = [ctx.imul(lead, x) if any(x) else x for x in r]
            for j in range(db):
                if any(b[j]):
                    r[k + j] = tuple(map(sub, r[k + j], ctx.imul(c, b[j])))
    return _ptrim(r)


def _gcd(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    """A gcd over Q(zeta_m) of two integer polynomials of positive degree, up to a constant factor.

    A primitive PRS (Brown, JACM 1971; Knuth, TAOCP vol. 2, 4.6.1): each
    pseudo-remainder is made primitive (the denominator _normal makes of it),
    which at order 1 removes its content over Z[q] and over Z[zeta_m] first
    makes it lead with an integer, so the remainders are the monic ones over
    Q(zeta_m) with least integer denominators, and their coefficients do not
    grow from step to step.  The gcd returned is primitive too.
    """
    if len(a) < len(b):
        a, b = b, a
    b = _normal(ctx, (), b)[1]
    while len(b) > 1:
        r = _prem(ctx, a, b)
        if not r:
            return b
        a, b = b, _normal(ctx, (), r)[1]
    return ctx.unit


def _exact_quo(ctx: _CycCtx, a: QPoly, g: QPoly) -> QPoly:
    """a / g, for g with a rational integer p leading, when the quotient is integral: each step divides by p exactly."""
    r, p, dg = list(a), g[-1][0], len(g) - 1
    out = []
    while len(r) > dg:
        c = tuple([x // p for x in r.pop()])
        out.append(c)
        if any(c):
            k = len(r) - dg
            for j in range(dg):
                if any(g[j]):
                    r[k + j] = tuple(map(sub, r[k + j], ctx.imul(c, g[j])))
    if any(map(any, r)):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(reversed(out))


def _normal(ctx: _CycCtx, num: QPoly, den: QPoly) -> tuple:
    """num/den, coprime, scaled so that den leads with a positive integer and no integer > 1 divides every entry."""
    if any(den[-1][1:]):
        r = ctx.iinv(den[-1])[0]
        num, den = _pscale(ctx, num, r), _pscale(ctx, den, r)
    g = gcd(*chain.from_iterable(num), *chain.from_iterable(den))
    g = -g if den[-1][0] < 0 else g
    return (num, den) if g == 1 else (_divided(num, g), _divided(den, g))


def _low(a: QPoly) -> int:
    """The index of the lowest nonzero coefficient of a nonzero a."""
    return next(i for i, v in enumerate(a) if any(v))


def _reduce(ctx: _CycCtx, num: QPoly, den: QPoly) -> tuple:
    """num/den for nonzero integer polynomials, in canonical form: the common power of q and the gcd removed, then
    _normal.  After the power of q, a monomial on either side shares no factor with the other, so takes no gcd."""
    i, j = _low(num), _low(den)
    k = min(i, j)
    if i < len(num) - 1 and j < len(den) - 1:
        g = _gcd(ctx, num[k:], den[k:])
        if len(g) > 1:
            if ctx.deg > 1:
                # over Z[zeta_m] the quotients are integral only times a power of g's leading integer
                s = g[-1][0] ** (max(len(num), len(den)) - len(g) + 1)
                num, den = [tuple(tuple([x * s for x in v]) for v in p) for p in (num, den)]
            return _normal(ctx, _exact_quo(ctx, num[k:], g), _exact_quo(ctx, den[k:], g))
    return _normal(ctx, num[k:], den[k:]) if k else _normal(ctx, num, den)


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """Immutable element of an exact field; see the module docstring.

    Scalar(field, num, den) takes num and den in canonical form: int entries,
    coprime, den leading with the least positive integer that makes both
    integral (no integer > 1 divides every entry).
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: FieldSpec, num: QPoly, den: QPoly):
        _set_field(self, field)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    # -- coercion

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields: %r vs %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates and accessors

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        unit = self.field._cyc.unit
        return self.num == unit and self.den == unit

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def fractions(self) -> tuple:
        """(num, den) over a monic den, the entries ints or Fractions: the form exprio prints."""
        c = self.den[-1][0]
        if c == 1:
            return self.num, self.den
        over = lambda p: tuple(tuple([_ratio(x, c) if x else 0 for x in v]) for v in p)
        return over(self.num), over(self.den)

    def constant(self) -> Cyc:
        """Coefficient vector of a constant scalar, its entries ints or Fractions."""
        if not self.is_constant():
            raise ValueError("scalar is not constant in q")
        return self.fractions()[0][0] if self.num else self.field._cyc.zero

    def rational(self) -> Fraction:
        """The value as a Fraction; requires a rational constant."""
        vec = self.constant()
        if any(vec[1:]):
            raise ValueError("scalar is not rational")
        return Fraction(vec[0])

    # -- arithmetic; constants of the rational and cyclotomic kinds skip
    # the polynomial layer and work on their integer vector over c

    def __add__(self, other):
        return _sum(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, _pneg(self.num), self.den) if self.num else self

    def __sub__(self, other):
        return _sum(self, other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return self
        if not other.num:
            return other
        ctx = field._cyc
        if field.kind != "ratfunc_q":
            a, b = self.num[0], other.num[0]
            return _const(field, (a[0] * b[0],) if len(a) == 1 else ctx.imul(a, b), self.den[0][0] * other.den[0][0])
        num = _pmul(ctx, self.num, other.num)
        if self.den == other.den == ctx.unit:
            return _scalar(field, num, ctx.unit)
        return _scalar(field, *_reduce(ctx, num, _pmul(ctx, self.den, other.den)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        ctx = field._cyc
        if field.kind != "ratfunc_q":
            r, p = ctx.iinv(self.num[0])
            c = self.den[0][0]
            return _const(field, r if c == 1 else tuple([x * c for x in r]), p)
        return _scalar(field, *_normal(ctx, self.den, self.num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return _power(mul, self.inverse(), -exponent)
        if exponent == 0:
            return self.field.one()
        return _power(mul, self, exponent)

    # -- comparison and hashing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            return False
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.field, self.num, self.den))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        from .exprio import format_scalar

        return "Scalar(%s)" % format_scalar(self)

    def __bool__(self):
        return bool(self.num)


_new = object.__new__
_set_field = Scalar.field.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _scalar(field: FieldSpec, num: QPoly, den: QPoly) -> Scalar:
    """Scalar(field, num, den) without the call through __init__."""
    x = _new(Scalar)
    _set_field(x, field)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _sum(self: Scalar, other, op) -> Scalar:
    """self + other, or self op other for op = operator.sub."""
    field = self.field
    if other.__class__ is not Scalar or other.field is not field:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
    # a zero operand (the canonical zero is () over the unit) makes no sum
    if not other.num:
        return self
    if not self.num:
        return other if op is add else -other
    if field.kind != "ratfunc_q":
        a, b, c, e = self.num[0], other.num[0], self.den[0][0], other.den[0][0]
        if c == e:
            vec = tuple(map(op, a, b))
        else:
            vec = tuple([op(x * e, y * c) for x, y in zip(a, b)])
            c *= e
        return _const(field, vec, c) if any(vec) else field.zero()
    ctx = field._cyc
    if self.den == other.den:
        num, den = _padd(self.num, other.num, op), self.den
        if den == ctx.unit or not num:
            return _scalar(field, num, den) if num else field.zero()
    else:
        num = _padd(_pmul(ctx, self.num, other.den), _pmul(ctx, other.num, self.den), op)
        if not num:
            return field.zero()
        den = _pmul(ctx, self.den, other.den)
    return _scalar(field, *_reduce(ctx, num, den))


def _const(field: FieldSpec, vec: Cyc, c: int) -> Scalar:
    """The constant vec / c, for a nonzero integer vector vec and an int c > 0, with their common factor removed."""
    ctx = field._cyc
    if c == 1:
        den = ctx.unit
    else:
        g = gcd(c, *vec)
        if g != 1:
            vec, c = tuple([x // g for x in vec]), c // g
        den = ctx.unit if c == 1 else ((c,) + ctx.zero[1:],)
    x = _new(Scalar)
    _set_field(x, field)
    _set_num(x, (vec,))
    _set_den(x, den)
    return x


# ---------------------------------------------------------------------------
# packed vectors: integer numerators over one common denominator


def pack_q(field: FieldSpec, xs) -> tuple:
    """(den, comps) with xs[k] = sum_j comps[j][k] zeta^j / den.

    comps[j][k] is an integer polynomial in q (a tuple, low degree first);
    den is a common multiple of the denominators of degree that of their lcm,
    led by a positive integer (their lcm for constants), and the unit with no
    gcd when every xs[k] is integral.  A constant of the rational and
    cyclotomic kinds is the degree-0 case.
    """
    ctx = field._cyc
    den = unit = ctx.unit
    for x in xs:
        if not isinstance(x, Scalar) or (x.field is not field and x.field != field):
            raise ValueError("mixed fields")
    if field.kind != "ratfunc_q":
        c = lcm(*{x.den[0][0] for x in xs})
        den = ctx.den(c)
        nums = [x.num if not x.num or x.den is den or x.den[0][0] == c else (tuple([e * (c // x.den[0][0]) for e in x.num[0]]),) for x in xs]
    else:
        for x in xs:
            d = x.den
            if d is not den and d != unit and d != den:
                # den times d over their gcd (d's denominator in den / d)
                den = _pmul(ctx, den, _reduce(ctx, den, d)[1])
        nums = [x.num for x in xs]
        if den is not unit:
            factors = {den: None}
            for x in xs:
                if x.num and x.den not in factors:
                    factors[x.den] = _exact_quo(ctx, den, x.den)
            nums = [p if not p or factors[x.den] is None else _pmul(ctx, p, factors[x.den]) for p, x in zip(nums, xs)]
    return den, [[tuple([v[j] for v in p]) if p else () for p in nums] for j in range(ctx.deg)]


def at_lanes(comps, bits: int, m: int, step: int = 0) -> list:
    """The integer polynomials comps[i * m + l] (pack_q's) as one int per i: sum_l P_il(2^step) 2^(bits l), step
    m bits by default.

    Lane l of coordinate i holds the digits at positions l, l + m, l + 2m, ...
    (digit_bits wide), so no two lanes share a digit.
    """
    step = step or m * bits
    values = [(p[0] if len(p) == 1 else at_power_of_two(p, step)) if p else 0 for p in comps]
    if m == 1:
        return values
    shifts = [bits * l for l in range(m)]
    return [sum([x << s for x, s in zip(values[i : i + m], shifts) if x]) for i in range(0, len(values), m)]


def _digit_count(comps, bits: int, m: int) -> int:
    """Digits enough for every int of comps (at_lanes), in whole rounds of m lanes."""
    top = max([x.bit_length() for xs in comps for x in xs], default=0) // bits + 1
    return -(-top // m) * m


def _numerators(rows: list, n: int, m: int) -> list:
    """The numerators sum_j P_jil zeta^j (QPolys, () for zero) of the lanes of rows[j] (_digits, n per int),
    stacked: entry i * m + l."""
    out, empty = [], [()] * m
    for i in range(0, len(rows[0]), n):
        if not any([any(r[i : i + n]) for r in rows]):
            out += empty
            continue
        for l in range(i, i + m):
            lane = [r[l : i + n : m] for r in rows]
            out.append(_ptrim(list(zip(*lane))) if any(map(any, lane)) else ())
    return out


class Packed:
    """The result of a slot action (symmetry._packed_act): the ints comps[j] of m lanes (at_lanes) over the one
    denominator den, led by a positive integer, every digit below 2^(bits-1) in size.  field None is a ring family:
    comps is one component holding its values, den None and bits 0."""

    __slots__ = ("field", "comps", "den", "bits", "m")

    def __init__(self, field: Optional[FieldSpec], comps: list, den: Optional[QPoly], bits: int, m: int):
        self.field, self.comps, self.den, self.bits, self.m = field, comps, den, bits, m

    def values(self) -> tuple:
        """The values of the lanes, stacked and in lowest terms.

        Over den = c or c q^k no gcd is taken (_reduce); otherwise one per
        nonzero scalar.  When den and every numerator are constant in q, the
        digits are the coefficient vectors themselves.
        """
        field, den = self.field, self.den
        if field is None:
            return tuple(self.comps[0])
        zero = field.zero()
        n = _digit_count(self.comps, self.bits, self.m)
        rows = [_digits(xs, self.bits, n) for xs in self.comps]
        if n == self.m and len(den) == 1:
            c = den[0][0]
            return tuple([_const(field, v, c) if any(v) else zero for v in zip(*rows)])
        return tuple([_scalar(field, *_reduce(field._cyc, num, den)) if num else zero for num in _numerators(rows, n, self.m)])

    def vanishes(self) -> bool:
        """Whether every value is zero, read off the ints of a field family."""
        return all([x.is_zero() for x in self.comps[0]]) if self.field is None else not any(map(any, self.comps))

    def __eq__(self, other: "Packed") -> bool:
        """Whether two families of one field and shape hold the same values, with no Scalar built: the ints, over one
        denominator and one digit width; else coordinate by coordinate up to the first difference, the digits over
        one denominator, or each lane's numerator times the other's denominator."""
        (xa, Da, ba), (xb, Db, bb), m = (self.comps, self.den, self.bits), (other.comps, other.den, other.bits), self.m
        if Da == Db and ba == bb:
            return xa == xb
        ctx = self.field._cyc
        n = max(_digit_count(xa, ba, m), _digit_count(xb, bb, m))
        read_a, read_b = _digit_reader(ba, n), _digit_reader(bb, n)
        for ia, ib in zip(zip(*xa), zip(*xb)):
            if not (any(ia) or any(ib)):
                continue
            if Da == Db:
                if read_a(ia) != read_b(ib):
                    return False
            else:
                ra, rb = [read_a((x,)) for x in ia], [read_b((x,)) for x in ib]
                if any(_pmul(ctx, p, Db) != _pmul(ctx, r, Da) for p, r in zip(_numerators(ra, n, m), _numerators(rb, n, m))):
                    return False
        return True


def at_power_of_two(p, bits: int) -> int:
    """The integer polynomial p (low degree first) at q = 2^bits."""
    x = 0
    for c in reversed(p):
        x = (x << bits) + c
    return x


def digit_bits(bound: int) -> int:
    """The width of a signed digit of size at most bound, in whole bytes: 1, 2, 4 or 8, else a multiple of 8."""
    b = bound.bit_length() + 1
    return max(8, 1 << (b - 1).bit_length()) if b <= 64 else (b + 63) & ~63


# struct codes of the digit widths a memoryview reads as signed ints, on a little-endian host
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _digits(xs, bits: int, n: int) -> list:
    """The n signed digits of each x = sum_p d_p 2^(bits p) in xs, |d_p| < 2^(bits-1), low first, x after x."""
    return _digit_reader(bits, n)(xs)


def _digit_reader(bits: int, n: int):
    """_digits(-, bits, n) as a function of xs, for reading many xs at one width and digit count.

    bits is a multiple of 8 (digit_bits).  x plus 2^(bits-1) in every digit
    has the digits plus 2^(bits-1), all nonnegative, and xor-ing that bias
    back leaves each digit's two's complement: one pass over x's bytes.
    """
    width = bits >> 3
    bias, size, code = _bias(width, n), n * width, _SIGNED.get(width)

    def read(xs) -> list:
        raw = b"".join([((x + bias) ^ bias).to_bytes(size, "little") for x in xs])
        if code is None:
            return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]
        return memoryview(raw).cast(code).tolist()

    return read


@lru_cache(maxsize=512)
def _bias(width: int, n: int) -> int:
    """2^(8 width - 1) in each of n digits of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _from_power_of_two(x: int, bits: int) -> list:
    """The coefficients of the integer polynomial p with x = p(2^bits), each below 2^(bits-1) in size, with no
    trailing zeros; bits a multiple of 8 (_digits)."""
    if not x:
        return []
    width, n = bits >> 3, x.bit_length() // bits + 1
    code, bias = _SIGNED.get(width), _bias(width, n)
    out = memoryview(((x + bias) ^ bias).to_bytes(n * width, "little")).cast(code).tolist() if code else _digits((x,), bits, n)
    while not out[-1]:
        out.pop()
    return out


def mul_matrices(field: FieldSpec, xs) -> tuple:
    """(den, mats): mats[k] is the matrix of multiplication by den * xs[k] mod Phi_m, for pack_q's den.

    Its entries are integer polynomials in q with no trailing zeros, () for zero.
    """
    ctx = field._cyc
    den, comps = pack_q(field, xs)
    span, mats = range(ctx.deg), []
    for ints in zip(*comps):
        # the matrix of each coefficient of q, its entries gathered over the powers of q
        powers = [ctx.mul_matrix(v) for v in zip_longest(*ints, fillvalue=0)]
        if len(powers) == 1:
            mats.append([[(x,) if x else () for x in row] for row in powers[0]])
        else:
            mats.append([[_freeze([M[a][b] for M in powers]) for b in span] for a in span])
    return den, mats


def _freeze(r: list) -> tuple:
    """The integer polynomial r, low degree first, as a tuple with no trailing zeros."""
    while r and not r[-1]:
        r.pop()
    return tuple(r)


# ---------------------------------------------------------------------------
# q-combinatorics


def qint(n: int, field: FieldSpec = GENERIC_Q) -> Scalar:
    """[n]_q = 1 + q + ... + q^(n-1); 0 for n = 0."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    q = field.q()
    out = field.zero()
    power = field.one()
    for _ in range(n):
        out = out + power
        power = power * q
    return out


def qfact(n: int, field: FieldSpec = GENERIC_Q) -> Scalar:
    """[n]!_q = product of [k]_q for k = 1..n; 1 for n = 0."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    out = field.one()
    for k in range(1, n + 1):
        out = out * qint(k, field)
    return out


def qbinom(n: int, k: int, field: FieldSpec = GENERIC_Q) -> Scalar:
    """Gaussian binomial coefficient via the q-Pascal recurrence."""
    if k < 0 or n < 0 or k > n:
        raise ValueError("q-binomial needs 0 <= k <= n")
    q = field.q()
    # row by row: [n k] = [n-1 k-1] + q^k [n-1 k]
    row = [field.one()]
    for m in range(1, n + 1):
        new = [field.one()]
        for j in range(1, m):
            new.append(row[j - 1] + q ** j * row[j])
        new.append(field.one())
        row = new
    return row[k]


def specialize(x: Scalar, q0: Scalar) -> Scalar:
    """Exact evaluation of a ratfunc_q scalar at q = q0 in q0's field."""
    if x.field.kind != "ratfunc_q":
        raise ValueError("specialize expects a ratfunc_q scalar")
    target = q0.field
    src_ctx = x.field._cyc
    tgt_ctx = target._cyc

    def eval_poly(p: QPoly) -> Scalar:
        out = target.zero()
        for c in reversed(p):
            out = out * q0 + target.from_cyc(src_ctx.embed(c, tgt_ctx))
        return out

    den = eval_poly(x.den)
    if den.is_zero():
        raise PoleError("denominator vanishes at the requested point")
    return eval_poly(x.num) / den


def primitive_root(m: int, field: FieldSpec) -> Scalar:
    """A fixed primitive m-th root of unity in the given field."""
    if m < 1:
        raise ValueError("root order must be >= 1")
    if m == 1:
        return field.one()
    if field.kind == "ratfunc_q" or field.order % m:
        raise ValueError("field of order %d has no primitive %d-th root" % (field.order, m))
    return field.e() ** (field.order // m)
