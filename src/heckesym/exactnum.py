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
numerators over one denominator, reduced by x^j mod Phi_m.  pack and unpack
move vectors of such constants to and from that integer layout, and an
inverse solves with the integer multiplication matrix of a constant.
pack_q and unpack_q do the same for ratfunc_q vectors: integer polynomials
in q over one polynomial denominator, and at most one gcd per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import add, sub
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
    "pack",
    "unpack",
    "pack_q",
    "unpack_q",
    "at_power_of_two",
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
        col, cols = list(ints), []
        for _ in range(self.deg):
            cols.append(col)
            top = col[-1]
            col = [c + top * r for c, r in zip([0] + col[:-1], self.reductions[0])]
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

    def _ctx(self) -> _CycCtx:
        return self._cyc

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
        return _scalar(self.field, _pneg(self.num), self.den)

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
        field = self.field
        if field.kind != "ratfunc_q":
            a, b = self.num, other.num
            if not a:
                return self
            if not b:
                return other
            va, vb = a[0], b[0]
            vec = (_int(va[0] * vb[0]),) if len(va) == 1 else field._cyc.mul(va, vb)
            return _scalar(field, (vec,), self.den)
        ctx = field._cyc
        num = _pmul(ctx, self.num, other.num)
        if not num:
            return field.zero()
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
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        if exponent == 0:
            return self.field.one()
        # left to right from the top bit: one square per further bit
        out = base
        for bit in bin(exponent)[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

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


def pack(field: FieldSpec, xs) -> tuple:
    """(den, comps) with xs[k] = sum_j comps[j][k] zeta^j / den; rational or cyclotomic xs."""
    zero = field._cyc.zero
    vecs = []
    for x in xs:
        if not isinstance(x, Scalar) or (x.field is not field and x.field != field):
            raise ValueError("mixed fields")
        vecs.append(x.num[0] if x.num else zero)
    den = lcm(*{c.denominator for v in vecs for c in v})
    return den, [[v[j].numerator * (den // v[j].denominator) for v in vecs] for j in range(len(zero))]


def unpack(field: FieldSpec, comps, den: int) -> tuple:
    """The scalars sum_j comps[j][k] zeta^j / den; the inverse of pack."""
    zero, one = field.zero(), (field._cyc.one,)
    return tuple([
        _scalar(field, (tuple([_ratio(c, den) if c else 0 for c in ints]),), one) if any(ints) else zero
        for ints in zip(*comps)
    ])


def pack_q(field: FieldSpec, xs) -> tuple:
    """(den, comps) with xs[k] = sum_j comps[j][k] zeta^j / den; ratfunc_q xs.

    comps[j][k] is an integer polynomial in q (a tuple, low degree first);
    den is the lcm of the monic denominators times the integer lcm of the
    coefficient denominators, a QPoly, and 1 with no gcd for unit vectors.
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
    if c != 1:
        den = tuple(tuple([f.numerator * (c // f.denominator) for f in v]) for v in den)
    return den, [[tuple([v[j].numerator * (c // v[j].denominator) for v in p]) if p else () for p in nums] for j in range(ctx.deg)]


def unpack_q(field: FieldSpec, comps, dens, bits: int) -> tuple:
    """The scalars sum_j P_jk zeta^j / den in lowest terms; the inverse of pack_q.

    comps[j][k] = P_jk(2^bits) (at_power_of_two) for integer polynomials whose
    coefficients are below 2^(bits-1) in size, and den is the product of the
    dens, each an integer c times a monic polynomial.  Over den = c or c q^k
    no gcd is taken; otherwise one per nonzero coordinate.
    """
    ctx = field._cyc
    den = (ctx.one,)
    for f in dens:
        den = _pmul(ctx, den, f)
    zero, c = field.zero(), den[-1][0].numerator
    k = None if any(map(any, den[:-1])) else len(den) - 1
    out = [zero] * len(comps[0])
    for idx, nonzero in enumerate(comps[0] if len(comps) == 1 else map(any, zip(*comps))):
        if not nonzero:
            continue
        coeffs = list(zip_longest(*[_from_power_of_two(xs[idx], bits) for xs in comps], fillvalue=0))
        if k is None:
            out[idx] = _scalar(field, *_pmonic_scale(ctx, tuple(coeffs), den))
            continue
        low = next((i for i in range(k) if any(coeffs[i])), k)
        num = tuple([tuple([_ratio(x, c) if x else 0 for x in v]) for v in coeffs[low:]])
        out[idx] = _scalar(field, num, (ctx.zero,) * (k - low) + (ctx.one,))
    return tuple(out)


def at_power_of_two(p, bits: int) -> int:
    """The integer polynomial p (low degree first) at q = 2^bits."""
    x = 0
    for c in reversed(p):
        x = (x << bits) + c
    return x


def _from_power_of_two(x: int, bits: int) -> list:
    """The coefficients of the integer polynomial p with x = p(2^bits), each below 2^(bits-1) in size."""
    out, full = [], 1 << bits
    while x:
        c = x & (full - 1)
        c -= full if c >= full >> 1 else 0
        out.append(c)
        x = (x - c) >> bits
    return out


def mul_matrices(field: FieldSpec, xs) -> tuple:
    """(den, mats): mats[k] is the integer matrix of multiplication by den * xs[k] mod Phi_m.

    Over ratfunc_q, den is pack_q's and the entries are integer polynomials in q.
    """
    ctx = field._cyc
    if field.kind != "ratfunc_q":
        den, comps = pack(field, xs)
        return den, [ctx.mul_matrix(ints) for ints in zip(*comps)]
    den, comps = pack_q(field, xs)
    # the matrix of each coefficient of q, its entries gathered over the powers of q
    per_power = [[ctx.mul_matrix(v) for v in zip_longest(*ints, fillvalue=0)] for ints in zip(*comps)]
    return den, [[[tuple([M[a][b] for M in Ms]) for b in range(ctx.deg)] for a in range(ctx.deg)] for Ms in per_power]


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
