"""Sparse multivariate polynomials with exact coefficients.

A polynomial lives in a PolyRing that fixes an ordered tuple of variable
names and a cyclotomic order for the coefficient field (1 = rationals).
Terms map packed monomials to coefficient vectors over Q(zeta_m); zero
coefficients are never stored, so equality is plain dictionary equality.

A monomial is one int key (Monagan and Pearce, CASC 2007): each of n
variables has a field of w = max(8, 30 // n) bits, the first variable in
the highest, so up to three variables fit a single-digit int.  A field's
top bit is a guard: every exponent stays below 2^(w-1), a product that
would reach it raises ValueError, and no field carries into the next.  So
a product of monomials adds keys, max(keys) is the lexicographic lead,
exact_div's exponentwise test is one subtraction under the guard bits, and
a variable's exponent is a shift and a mask.  `terms` is the tuple view.
PolyRing.dot(pairs) is sum x y accumulated in one term table (Yan, JSC 26,
1998), with no intermediate sum or product; a product is one pair, and one
term times a polynomial an injective shift with no merge and no zero test.

An integral coefficient entry is always an int; a Fraction only holds a
value that is not an integer, as in Scalar.constant().  Fractions come in
through constants and the inverse of a leading coefficient (exact_div,
reduce_mod); a polynomial records whether it may hold one, and only then
are the integral entries of its sums and products made ints again.

Only what the computations need is provided: ring arithmetic, powers,
substitution, evaluation, exact division and reduction modulo a divisor
that is monic (up to a constant) in one variable.  No factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul, neg, or_
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .exactnum import FieldSpec, Scalar, _cycctx, _int, _power

__all__ = ["PolyRing", "MultiPoly"]

Expo = Tuple[int, ...]


@dataclass(frozen=True)
class PolyRing:
    """Declared variables (in printing/term order) and coefficient field order."""

    variables: Tuple[str, ...]
    order: int = 1

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        n, w = len(self.variables), max(8, 30 // max(len(self.variables), 1))
        shifts = tuple(w * (n - 1 - i) for i in range(n))
        # field tables (_cycctx refuses an order out of range), each variable's shift, a field's mask, the guard bits
        for attr, value in (("_cyc", _cycctx(self.order)), ("_shifts", shifts), ("_mask", (1 << w) - 1), ("_guard", sum(1 << (s + w - 1) for s in shifts))):
            object.__setattr__(self, attr, value)

    def coeff_field(self) -> FieldSpec:
        return FieldSpec("rational") if self.order == 1 else FieldSpec("cyclotomic", self.order)

    def zero(self) -> "MultiPoly":
        return _poly(self, {}, False)

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, value) -> "MultiPoly":
        vec = self._coeff(value)
        return _poly(self, {0: vec} if any(vec) else {}, Fraction in map(type, vec))

    def var(self, name: str) -> "MultiPoly":
        return _poly(self, {1 << self._shifts[self.variables.index(name)]: self._coeff(1)}, False)

    def vars(self) -> Tuple["MultiPoly", ...]:
        return tuple(self.var(v) for v in self.variables)

    def _pack(self, expo: Expo) -> int:
        """The key of an exponent tuple; ValueError for an exponent that is negative or past the cap."""
        if len(expo) != len(self._shifts) or min(expo, default=0) < 0 or max(expo, default=0) > self._mask >> 1:
            raise ValueError("exponents %r do not fit the fields of %r" % (tuple(expo), self))
        return sum(k << s for k, s in zip(expo, self._shifts))

    def _unpack(self, key: int) -> Expo:
        return tuple([(key >> s) & self._mask for s in self._shifts])

    def dot(self, pairs: Iterable[Tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
        """sum x y over the pairs (x, y) of polynomials of this ring, accumulated in one term table."""
        ctx, out, frac = self._cyc, {}, False
        fast = ctx.deg == 1
        for x, y in pairs:
            if (x.ring is not self or y.ring is not self) and not x.ring == y.ring == self:
                raise ValueError("mixed polynomial rings")
            a, b = x._t, y._t
            if not (a and b):
                continue
            frac = frac or x._frac or y._frac
            get = out.get
            if fast:
                for e1, (c,) in a.items():
                    for e2, (v,) in b.items():
                        e = e1 + e2
                        out[e] = get(e, 0) + c * v
            else:
                for e1, v1 in a.items():
                    for e2, v2 in b.items():
                        e, p = e1 + e2, ctx.mul(v1, v2)
                        cur = get(e)
                        out[e] = p if cur is None else tuple(map(add, cur, p))
        return _poly(self, {e: (c,) for e, c in out.items() if c} if fast else {e: v for e, v in out.items() if any(v)}, frac, None, True)

    def _coeff(self, value) -> tuple:
        """Coerce an int/Fraction/constant Scalar to a coefficient vector, integral entries as ints."""
        ctx = self._cyc
        if isinstance(value, Scalar):
            if value.field.kind == "ratfunc_q":
                raise ValueError("coefficients must be constants, not rational functions")
            vec = value.constant()
            if value.field.order != self.order:
                if self.order % value.field.order:
                    raise ValueError("coefficient field does not embed into this ring")
                vec = value.field._cyc.embed(vec, ctx)
            return vec
        return (value if value.__class__ is int else _int(Fraction(value)),) + (0,) * (ctx.deg - 1)


class MultiPoly:
    """Element of a PolyRing; immutable once constructed.  _t maps packed monomials to coefficient vectors."""

    __slots__ = ("ring", "_t", "_frac", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Expo, tuple]):
        _poly(ring, {ring._pack(e): v for e, v in terms.items()}, True, self)

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    # -- basics

    @property
    def terms(self) -> Dict[Expo, tuple]:
        """The terms keyed by exponent tuples, a new dict."""
        unpack = self.ring._unpack
        return {unpack(e): v for e, v in self._t.items()}

    def is_zero(self) -> bool:
        return not self._t

    def coefficient(self, expo: Expo) -> Scalar:
        vec, field = self._t.get(self.ring._pack(tuple(expo))), self.ring.coeff_field()
        return field.zero() if vec is None else field.from_cyc(vec)

    def degree_in(self, name: str) -> int:
        ring = self.ring
        s = ring._shifts[ring.variables.index(name)]
        return max([(e >> s) & ring._mask for e in self._t], default=0)

    def coefficients_in(self, names: Sequence[str], ring: PolyRing) -> Dict[Expo, "MultiPoly"]:
        """self as a polynomial in the variables names over ring: each exponent
        tuple of names maps to its coefficient, with exponents re-keyed by name
        onto ring and coefficients embedded into ring's field.  No other
        variable may occur outside ring."""
        src, ctx, tgt = self.ring.variables, self.ring._cyc, ring._cyc
        if ring.order % self.ring.order:
            raise ValueError("coefficient field does not embed into the target ring")
        outer = [src.index(n) for n in names]
        inner = [src.index(n) if n in src and n not in names else None for n in ring.variables]
        parts: Dict[Expo, dict] = {}
        for e, vec in self.terms.items():
            if sum(e) != sum(e[i] for i in outer + inner if i is not None):
                raise ValueError("a variable occurs that the target ring lacks")
            key = tuple([0 if i is None else e[i] for i in inner])
            parts.setdefault(tuple([e[i] for i in outer]), {})[key] = vec if ctx is tgt else ctx.embed(vec, tgt)
        return {k: MultiPoly(ring, t) for k, t in parts.items()}

    # -- coercion helpers

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations

    def __add__(self, other):
        if other.__class__ is not MultiPoly or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self._t)
        for e, v in other._t.items():
            cur = out.get(e)
            if cur is None:
                out[e] = v
            else:
                s = tuple(map(add, cur, v))
                if any(s):
                    out[e] = s
                else:
                    del out[e]
        return _poly(self.ring, out, self._frac or other._frac)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {e: tuple(map(neg, v)) for e, v in self._t.items()}, self._frac)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not MultiPoly or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._t, other._t
        if len(b) == 1:
            a, b = b, a
        if len(a) != 1:
            return self.ring.dot(((self, other),))
        # one term: the shift is injective and a product of nonzero coefficients nonzero
        ((e1, v1),), ctx = a.items(), self.ring._cyc
        t = {e1 + e2: (v1[0] * v,) for e2, (v,) in b.items()} if ctx.deg == 1 else {e1 + e2: ctx.mul(v1, v2) for e2, v2 in b.items()}
        return _poly(self.ring, t, self._frac or other._frac, None, True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return self.ring.one()
        return _power(mul, self, exponent)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self._t == other._t

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, frozenset(self._t.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return bool(self._t)

    # -- division

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """The quotient self / divisor; raises ArithmeticError if not exact."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ring, ctx, guard = self.ring, self.ring._cyc, self.ring._guard
        # the lexicographic leads are the largest keys
        de = max(divisor._t)
        dv_inv, rem, quot = ctx.inv(divisor._t[de]), self, {}
        while rem._t:
            re = max(rem._t)
            # re - de field by field: a field's guard bit survives exactly when that field does not borrow
            qe = (re | guard) - de
            if qe & guard != guard:
                raise ArithmeticError("division is not exact")
            # the leads' keys fall, so each quotient term is new
            quot[qe ^ guard] = qv = ctx.mul(rem._t[re], dv_inv)
            rem = rem - _poly(ring, {qe ^ guard: qv}, True) * divisor
        return _poly(ring, quot, True)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except ArithmeticError:
            return False

    def reduce_mod(self, divisor: "MultiPoly", name: str) -> "MultiPoly":
        """Remainder of division by divisor along the variable `name`.

        The divisor must have a nonzero constant leading coefficient in that
        variable, so the division is well defined over the coefficient field.
        """
        ring, ctx, d = self.ring, self.ring._cyc, divisor.degree_in(name)
        s, mask = ring._shifts[ring.variables.index(name)], ring._mask
        if d == 0:
            raise ValueError("divisor is constant in %r" % name)
        lead = [(e, v) for e, v in divisor._t.items() if (e >> s) & mask == d]
        if len(lead) != 1 or lead[0][0] != d << s:
            raise ValueError("divisor leading coefficient in %r is not constant" % name)
        lead_inv, rem = ctx.inv(lead[0][1]), self
        while rem._t and (k := rem.degree_in(name)) >= d:
            # factor = (coefficient of name^k) * name^(k-d) / lead
            factor = {e - (d << s): ctx.mul(v, lead_inv) for e, v in rem._t.items() if (e >> s) & mask == k}
            rem = rem - _poly(ring, factor, True) * divisor
        return rem

    # -- substitution and evaluation

    def substitute(self, assignments: Mapping[str, Union["MultiPoly", Scalar, int, Fraction]]) -> "MultiPoly":
        """Replace variables by ring elements, all at once; unmentioned variables stay.  Each term is its monomial in
        the kept variables times the product of the values' powers, formed once per distinct assigned part; one dot
        sums them."""
        ring, mask = self.ring, self.ring._mask
        values = [(s, self._coerce(assignments[v])) for s, v in zip(ring._shifts, ring.variables) if v in assignments]
        drop, images = sum(mask << s for s, _v in values), {0: ring.one()}

        def pair(e: int, vec: tuple) -> tuple:
            k = e & drop
            if k not in images:
                images[k] = reduce(mul, [v ** ((k >> s) & mask) for s, v in values if (k >> s) & mask])
            return _poly(ring, {e ^ k: vec}, self._frac), images[k]

        return ring.dot(pair(e, vec) for e, vec in self._t.items())

    def evaluate(self, assignments: Mapping[str, Union[Scalar, int, Fraction]]) -> Scalar:
        """Evaluate at scalar values for every variable, in the field of the
        first Scalar value (else the ring's).  Over a constant field this runs
        on coefficient vectors and builds one Scalar at the end."""
        field = next((v.field for v in assignments.values() if isinstance(v, Scalar)), self.ring.coeff_field())
        if field.order % self.ring.order:
            raise ValueError("coefficients do not embed into the target field")
        for name in self.ring.variables:
            if name not in assignments:
                raise ValueError("no value for variable %r" % name)
        src, tgt = self.ring._cyc, field._cyc
        vals = [assignments[name] for name in self.ring.variables]
        for v in vals:
            if isinstance(v, Scalar) and v.field != field:
                raise ValueError("mixed fields: %r vs %r" % (field, v.field))
        if field.kind == "ratfunc_q":  # values that are not constants: Scalar arithmetic
            vals = [v if isinstance(v, Scalar) else field.scalar(v) for v in vals]
            lift, times, plus, out = field.from_cyc, mul, add, field.zero()
        else:  # on coefficient vectors; tuple() returns a tuple as it is
            vals = list(map(PolyRing((), field.order)._coeff, vals))
            lift, times, plus, out = tuple, tgt.mul, lambda x, y: tuple(map(add, x, y)), tgt.zero
        powers: Dict[Tuple[int, int], object] = {}
        for e, vec in self._t.items():
            term = lift(vec if src is tgt else src.embed(vec, tgt))
            for i, k in enumerate(self.ring._unpack(e)):
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = _power(times, vals[i], k)
                    term = times(term, pw)
            out = plus(out, term)
        return out if isinstance(out, Scalar) else field.from_cyc(out)

    # -- printing

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_text()

    def to_text(self) -> str:
        """Human-readable, deterministic (graded-lex ordered) text form."""
        from .exprio import _format_cyc, _join

        parts, terms = [], self.terms
        for e in sorted(terms, key=lambda ex: (-sum(ex), tuple(-x for x in ex))):
            vec = terms[e]
            mono = "*".join(("%s^%d" % (v, k) if k > 1 else v) for v, k in zip(self.ring.variables, e) if k)
            plain = not any(vec[1:])
            if not mono:
                parts.append(_format_cyc(vec, need_atom=False))
            elif plain and vec[0] in (1, -1):
                parts.append(("-" if vec[0] == -1 else "") + mono)
            else:
                parts.append("%s*%s" % (_format_cyc(vec, need_atom=not plain), mono))
        return _join(parts)


_new, _set_ring, _set_t, _set_frac = object.__new__, MultiPoly.ring.__set__, MultiPoly._t.__set__, MultiPoly._frac.__set__


def _poly(ring: PolyRing, t: Dict[int, tuple], frac: bool, p=None, product=False) -> MultiPoly:
    """The polynomial (p, if given, else a new one) of the packed terms t, none zero; frac True means t may hold a
    Fraction, whose integral entries are made ints.  ValueError if a product's key (a sum of keys) has a guard bit."""
    if product and reduce(or_, t, 0) & ring._guard:
        raise ValueError("an exponent of a product is past the cap %d of %r" % (ring._mask >> 1, ring))
    if frac:
        t = {e: tuple(map(_int, v)) for e, v in t.items()}
        frac = Fraction in map(type, chain.from_iterable(t.values()))
    if p is None:
        p = _new(MultiPoly)
    _set_ring(p, ring)
    _set_t(p, t)
    _set_frac(p, frac)
    return p
