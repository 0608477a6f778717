"""Exact scalar arithmetic for every computation in this package.

A scalar is a fraction num/den of polynomials in the parameter q whose
coefficients live in a cyclotomic extension Q(zeta_m) of the rationals
(m = 1 gives plain rationals).  Three field kinds are exposed:

  rational    -- Q; num and den are constants, den normalized to 1
  cyclotomic  -- Q(zeta_m), elements reduced modulo the m-th cyclotomic
                 polynomial; num and den constants, den = 1
  ratfunc_q   -- rational functions in a formal variable q over Q(zeta_m);
                 kept reduced (gcd removed) with monic denominator

Canonical form is unique per value, so == is reliable and scalars hash.
All values are immutable; operations are pure.

Cyclotomic coefficient vectors are dense tuples of length deg Phi_m; an
integral entry is an int, and a Fraction only holds a non-integer (every
place a Fraction can arise turns integral entries back into ints).
Polynomials in q are tuples of such vectors, low degree first, with no
trailing zeros (the zero polynomial is the empty tuple).  Constants of the
rational and cyclotomic kinds skip the polynomial layer: their arithmetic
runs on the coefficient vector, and a cyclotomic product on integer
numerators over one denominator, reduced by x^j mod Phi_m; an inverse solves
with the integer multiplication matrix of a constant.  pack_q moves a vector
of any kind to integer polynomials in q over one polynomial denominator (a
constant is the degree-0 case), at_lanes puts m such vectors in the lanes of
one int per coordinate (Placed, units beside one vector t, straight from t),
and unpack_q reads the lanes back with at most one gcd per coordinate;
equal_packed compares two packed families with no Scalar built.  Digits are
whole bytes wide (digit_bits), so they read back in one pass over an int's
bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import lcm
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
    "unpack_q",
    "at_lanes",
    "Placed",
    "equal_packed",
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
    # start from x^m - 1 and strip Phi_d for each proper divisor d
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _zpoly_exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _zpoly_exact_div(num: list, den: list) -> list:
    """Exact division of integer polynomials, low degree first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


class _CycCtx:
    """Reduction tables for arithmetic modulo Phi_m."""

    __slots__ = ("m", "deg", "phi", "zero", "one", "reductions")

    def __init__(self, m: int):
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        self.m = m
        self.deg = d
        self.phi = phi
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
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

    def root(self) -> Cyc:
        """The residue class of x, a primitive m-th root of unity."""
        if self.deg == 1:
            # Phi_1 = x-1, Phi_2 = x+1
            return (1,) if self.m == 1 else (-1,)
        out = [0] * self.deg
        out[1] = 1
        return tuple(out)

    def mul(self, a: Cyc, b: Cyc) -> Cyc:
        d = self.deg
        if d == 1:
            return (_int(a[0] * b[0]),)
        # integer numerators over one common denominator per factor
        da = lcm(*[x.denominator for x in a])
        db = lcm(*[x.denominator for x in b])
        ia = a if da == 1 else [x.numerator * (da // x.denominator) for x in a]
        ib = b if db == 1 else [x.numerator * (db // x.denominator) for x in b]
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(ia):
            if ai:
                for j, bj in enumerate(ib):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                for i, r in enumerate(self.reductions[j - d]):
                    if r:
                        out[i] += c * r
        den = da * db
        if den == 1:
            return tuple(out)
        return tuple([_ratio(c, den) if c else 0 for c in out])

    def mul_matrix(self, ints) -> list:
        """Rows of the integer matrix of multiplication by sum ints[j] x^j mod Phi_m."""
        col = list(ints)
        cols = [col]
        for _ in range(self.deg - 1):
            top = col[-1]
            col = [c + top * r for c, r in zip([0] + col[:-1], self.reductions[0])]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def inv(self, a: Cyc) -> Cyc:
        if not any(a):
            raise ZeroDivisionError("division by zero")
        d = self.deg
        if d == 1:
            return (_int(Fraction(a[0].denominator, a[0].numerator)),)
        # M x = den e_0 for the integer matrix M of den * a, by fraction-free
        # Gauss-Jordan: every diagonal entry ends as the last pivot
        den = lcm(*[x.denominator for x in a])
        rows = self.mul_matrix([x.numerator * (den // x.denominator) for x in a])
        aug = [row + [den if i == 0 else 0] for i, row in enumerate(rows)]
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
        return tuple([_ratio(row[d], prev) for row in aug])

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


def _cycctx(m: int) -> _CycCtx:
    ctx = _CYC_CACHE.get(m)
    if ctx is None:
        ctx = _CYC_CACHE[m] = _CycCtx(m)
    return ctx


# ---------------------------------------------------------------------------
# field specification


@dataclass(frozen=True)
class FieldSpec:
    """Which exact field a computation runs over.

    kind   -- "rational", "cyclotomic" or "ratfunc_q"
    order  -- cyclotomic order m of the coefficient field (1 for plain Q)
    qval   -- for non-generic kinds, the value bound to the symbol q,
              as a coefficient vector over Q(zeta_order); None if unbound
    """

    kind: str
    order: int = 1
    qval: Optional[Cyc] = None

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic", "ratfunc_q"):
            raise ValueError("unknown field kind %r" % (self.kind,))
        if self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if self.kind == "rational" and self.order != 1:
            raise ValueError("rational field has order 1")
        if self.kind == "ratfunc_q" and self.qval is not None:
            raise ValueError("q is the formal variable of a ratfunc_q field")
        # looked up once per field; not a dataclass field, so == and hash ignore it
        object.__setattr__(self, "_cyc", _cycctx(self.order))
        if self.qval is not None:
            if len(self.qval) != self._cyc.deg:
                raise ValueError("bound q has wrong coefficient length")
            object.__setattr__(self, "qval", _ints(self.qval))

    # -- constructors for scalars of this field

    def zero(self) -> "Scalar":
        return _scalar(self, (), (self._cyc.one,))

    def one(self) -> "Scalar":
        one = (self._cyc.one,)
        return _scalar(self, one, one)

    def scalar(self, value: Union[int, Fraction]) -> "Scalar":
        ctx = self._cyc
        c = value if value.__class__ is int else _int(Fraction(value))
        if not c:
            return self.zero()
        return _scalar(self, ((c,) + ctx.zero[1:],), (ctx.one,))

    def from_cyc(self, coeffs) -> "Scalar":
        """Scalar from a coefficient vector over Q(zeta_order)."""
        ctx = self._cyc
        vec = tuple([c if c.__class__ is int else _int(Fraction(c)) for c in coeffs])
        if len(vec) != ctx.deg:
            raise ValueError("coefficient vector must have length %d" % ctx.deg)
        if not any(vec):
            return self.zero()
        return _scalar(self, (vec,), (ctx.one,))

    def q(self) -> "Scalar":
        """The parameter q: formal in ratfunc_q, else the bound value."""
        ctx = self._cyc
        if self.kind == "ratfunc_q":
            return _scalar(self, (ctx.zero, ctx.one), (ctx.one,))
        if self.qval is None:
            raise ValueError("q is not bound in this field")
        if not any(self.qval):
            raise ValueError("q must be nonzero")
        return _scalar(self, (self.qval,), (ctx.one,))

    def e(self) -> "Scalar":
        """The primitive root of unity of the declared order."""
        ctx = self._cyc
        return _scalar(self, (ctx.root(),), (ctx.one,))

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
        val = ctx.mul(val, root)
    return FieldSpec("cyclotomic", order, val)


# ---------------------------------------------------------------------------
# polynomial helpers over a cyclotomic context (tuples, low degree first)


def _ptrim(coeffs: list) -> QPoly:
    n = len(coeffs)
    while n and not any(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


def _padd(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    if not a:
        return b
    if not b:
        return a
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ctx.zero
        y = b[i] if i < len(b) else ctx.zero
        out.append(_ints(tuple(map(add, x, y))))
    return _ptrim(out)


def _pneg(a: QPoly) -> QPoly:
    return tuple(tuple(-u for u in c) for c in a)


def _pmul(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return ()
    if len(a) == 1 and a[0] == ctx.one:
        return b
    if len(b) == 1 and b[0] == ctx.one:
        return a
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if any(ai):
            for j, bj in enumerate(b):
                if any(bj):
                    out[i + j] = tuple(map(add, out[i + j], ctx.mul(ai, bj)))
    return _ptrim([_ints(v) for v in out])


def _pdivmod(ctx: _CycCtx, num: QPoly, den: QPoly) -> tuple:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num_l = list(num)
    dn = len(den)
    if len(num_l) < dn:
        return (), num
    inv_lead = ctx.inv(den[-1])
    qcoeffs = [ctx.zero] * (len(num_l) - dn + 1)
    for k in range(len(qcoeffs) - 1, -1, -1):
        c = ctx.mul(num_l[k + dn - 1], inv_lead)
        if any(c):
            qcoeffs[k] = c
            for j in range(dn):
                if any(den[j]):
                    num_l[k + j] = _ints(tuple(map(sub, num_l[k + j], ctx.mul(c, den[j]))))
    return _ptrim(qcoeffs), _ptrim(num_l[: dn - 1])


def _pgcd(ctx: _CycCtx, a: QPoly, b: QPoly) -> QPoly:
    while b:
        a, b = b, _pdivmod(ctx, a, b)[1]
    if not a:
        return ()
    inv_lead = ctx.inv(a[-1])
    return tuple(ctx.mul(c, inv_lead) for c in a)


def _pmonic_scale(ctx: _CycCtx, num: QPoly, den: QPoly) -> tuple:
    """Reduce the fraction num/den: gcd removed, monic denominator."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (ctx.one,)
    if len(den) == 1 and den[0] == ctx.one:
        return num, den
    g = _pgcd(ctx, num, den)
    if len(g) > 1:
        num = _pdivmod(ctx, num, g)[0]
        den = _pdivmod(ctx, den, g)[0]
    lead = den[-1]
    if lead != ctx.one:
        inv = ctx.inv(lead)
        num = tuple(ctx.mul(c, inv) for c in num)
        den = tuple(ctx.mul(c, inv) for c in den)
    return num, den


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """Immutable element of an exact field; see the module docstring.

    Scalar(field, num, den) takes num and den in canonical form, integral entries ints.
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
        one = (self.field._cyc.one,)
        return self.num == one and self.den == one

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant(self) -> Cyc:
        """Coefficient vector of a constant scalar."""
        if not self.is_constant():
            raise ValueError("scalar is not constant in q")
        return self.num[0] if self.num else self.field._cyc.zero

    def rational(self) -> Fraction:
        """The value as a Fraction; requires a rational constant."""
        vec = self.constant()
        if any(vec[1:]):
            raise ValueError("scalar is not rational")
        return Fraction(vec[0])

    # -- arithmetic; constants of the rational and cyclotomic kinds skip
    # the polynomial layer and work on their coefficient vector

    def _const_sum(self, b: QPoly, op) -> "Scalar":
        """self op b for a constant b of this field; op is operator.add or sub."""
        if not b:
            return self
        va = self.num[0] if self.num else self.field._cyc.zero
        vec = _ints(tuple(map(op, va, b[0])))
        return _scalar(self.field, (vec,) if any(vec) else (), self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a zero operand (the canonical zero is () over (one,)) makes no sum
        if not self.num or not other.num:
            return other if other.num else self
        field = self.field
        if field.kind != "ratfunc_q":
            return self._const_sum(other.num, add)
        ctx = field._cyc
        if self.den == other.den:
            num = _padd(ctx, self.num, other.num)
            den = self.den
        else:
            num = _padd(ctx, _pmul(ctx, self.num, other.den), _pmul(ctx, other.num, self.den))
            den = _pmul(ctx, self.den, other.den)
        return _scalar(field, *_pmonic_scale(ctx, num, den))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, _pneg(self.num), self.den) if self.num else self

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.kind != "ratfunc_q":
            return self._const_sum(other.num, sub)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return self
        if not other.num:
            return other
        field = self.field
        if field.kind != "ratfunc_q":
            va, vb = self.num[0], other.num[0]
            vec = (_int(va[0] * vb[0]),) if len(va) == 1 else field._cyc.mul(va, vb)
            return _scalar(field, (vec,), self.den)
        ctx = field._cyc
        num = _pmul(ctx, self.num, other.num)
        return _scalar(field, *_pmonic_scale(ctx, num, _pmul(ctx, self.den, other.den)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        ctx = field._cyc
        if field.kind != "ratfunc_q":
            return _scalar(field, (ctx.inv(self.num[0]),), self.den)
        return _scalar(field, *_pmonic_scale(ctx, self.den, self.num))

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


# ---------------------------------------------------------------------------
# packed vectors: integer numerators over one common denominator


def pack_q(field: FieldSpec, xs) -> tuple:
    """(den, comps) with xs[k] = sum_j comps[j][k] zeta^j / den.

    comps[j][k] is an integer polynomial in q (a tuple, low degree first);
    den is the lcm of the monic denominators times the integer lcm of the
    coefficient denominators, a QPoly, and 1 with no gcd for unit vectors.
    A constant of the rational and cyclotomic kinds is the degree-0 case.
    """
    ctx = field._cyc
    den = unit = (ctx.one,)
    nums = []
    for x in xs:
        if not isinstance(x, Scalar) or (x.field is not field and x.field != field):
            raise ValueError("mixed fields")
        if x.den != unit and x.den != den:
            den = _pmul(ctx, den, _pdivmod(ctx, x.den, _pgcd(ctx, den, x.den))[0])
        nums.append(x.num)
    if den is not unit:
        nums = [p if not p or x.den == den else _pmul(ctx, p, _pdivmod(ctx, den, x.den)[0]) for p, x in zip(nums, xs)]
    c = lcm(*{f.denominator for p in nums + [den] for v in p for f in v})
    if c == 1:
        return den, [[tuple([v[j] for v in p]) if p else () for p in nums] for j in range(ctx.deg)]
    den = tuple(tuple([f.numerator * (c // f.denominator) for f in v]) for v in den)
    return den, [[tuple([v[j].numerator * (c // v[j].denominator) for v in p]) if p else () for p in nums] for j in range(ctx.deg)]


def at_lanes(comps, bits: int, m: int) -> list:
    """The integer polynomials comps[i * m + l] (pack_q's) as one int per i: sum_l P_il(2^(m bits)) 2^(bits l).

    Lane l of coordinate i holds the digits at positions l, l + m, l + 2m, ...
    (digit_bits wide), so no two lanes share a digit.
    """
    step = m * bits
    values = [(p[0] if len(p) == 1 else at_power_of_two(p, step)) if p else 0 for p in comps]
    if m == 1:
        return values
    shifts = [bits * l for l in range(m)]
    return [sum([x << s for x, s in zip(values[i : i + m], shifts) if x]) for i in range(0, len(values), m)]


class Placed:
    """A family of m vectors kept as one vector t and its places: lane l is e_(first+l) (x) t over the units of
    k^dim (dim defaults to m), or t (x) e_l with last; t None is the unit 1.  Its len is that of the family stacked
    (linalg._stack); packed() and lanes() give what pack_q and at_lanes give for it, with no Scalar per coordinate."""

    __slots__ = ("t", "size", "starts", "stride")

    def __init__(self, t, m: int, first: int = 0, dim: Optional[int] = None, last: bool = False):
        span = 1 if t is None else len(t)
        self.t, self.stride = t, m if last else 1
        self.size = span * (m if last or dim is None else dim)
        self.starts = range(m) if last else range(first * span, (first + m) * span, span)

    def __len__(self) -> int:
        return self.size * len(self.starts)

    def packed(self, field: FieldSpec) -> tuple:
        """pack_q's (den, comps) of t; the unit 1 over 1 is read off."""
        return pack_q(field, self.t) if self.t is not None else ((field._cyc.one,), [[(1,)]] + [[()]] * (field._cyc.deg - 1))

    def lanes(self, ps, bits: int) -> list:
        """The ints of one component of the family (at_lanes), from that of t (packed()'s comps[j]): t's ints at
        q = 2^(m bits), lane l's shifted by bits l into its coordinates."""
        out = [0] * self.size
        for i, x in enumerate(at_lanes(ps, len(self.starts) * bits, 1)):
            if x:
                for l, s in enumerate(self.starts):
                    out[s + self.stride * i] = x << (bits * l)
        return out


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


def unpack_q(field: FieldSpec, comps, dens, bits: int, m: int = 1) -> tuple:
    """The scalars of the lanes of comps (at_lanes), over the product of the dens, stacked and in lowest terms.

    Every digit is below 2^(bits-1) in size, and each den is an integer c
    times a monic polynomial.  Over den = c or c q^k no gcd is taken;
    otherwise one per nonzero scalar.  When den and every numerator are
    constant in q, the digits are the coefficient vectors themselves.
    """
    ctx = field._cyc
    den = _product(ctx, dens)
    zero, c = field.zero(), den[-1][0]
    k = None if any(map(any, den[:-1])) else len(den) - 1
    n = _digit_count(comps, bits, m)
    rows = [_digits(xs, bits, n) for xs in comps]
    if n == m and k == 0:
        one = (ctx.one,)
        return tuple([_scalar(field, (tuple([_ratio(x, c) if x else 0 for x in v]),), one) if any(v) else zero for v in zip(*rows)])
    out = []
    for num in _numerators(rows, n, m):
        if not num:
            out.append(zero)
        elif k is None:
            out.append(_scalar(field, *_pmonic_scale(ctx, num, den)))
        else:
            low = next((i for i in range(k) if any(num[i])), k)
            num = tuple([tuple([_ratio(x, c) if x else 0 for x in v]) for v in num[low:]])
            out.append(_scalar(field, num, (ctx.zero,) * (k - low) + (ctx.one,)))
    return tuple(out)


def _product(ctx: _CycCtx, dens) -> QPoly:
    den = (ctx.one,)
    for f in dens:
        den = _pmul(ctx, den, f)
    return den


def equal_packed(field: FieldSpec, a: tuple, b: tuple, m: int) -> bool:
    """Whether two packed vectors (comps, dens, bits) of m lanes (at_lanes) hold the same scalars, with no Scalar
    built: the ints, over one denominator and one digit width; else coordinate by coordinate up to the first
    difference, the digits over one denominator, or each lane's numerator times the other's denominator."""
    ctx = field._cyc
    (xa, da, ba), (xb, db, bb) = a, b
    Da, Db = _product(ctx, da), _product(ctx, db)
    if Da == Db and ba == bb:
        return xa == xb
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
