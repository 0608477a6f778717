"""Sparse multivariate polynomials with exact coefficients.

A polynomial lives in a PolyRing that fixes an ordered tuple of variable
names and a cyclotomic order for the coefficient field (1 = rationals).
Terms map dense exponent tuples to coefficient vectors over Q(zeta_m); zero
coefficients are never stored, so equality is plain dictionary equality.

An integral coefficient entry is always an int; a Fraction only holds a
value that is not an integer, as in Scalar.constant().  Fractions come in
through constants (PolyRing._coeff) and the inverse of a leading
coefficient (exact_div, reduce_mod), and MultiPoly(ring, terms) turns the
integral entries of their sums and products back into ints.  A polynomial records
whether it may hold a Fraction, so sums and products of int polynomials skip
that pass.  A product by one term is an injective shift of exponents: one
pass, no merge and no zero test.

Only what the computations need is provided: ring arithmetic, powers,
substitution, evaluation, exact division and reduction modulo a divisor
that is monic (up to a constant) in one variable.  No factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul, neg
from typing import Dict, Mapping, Sequence, Tuple, Union

from .exactnum import FieldSpec, Scalar, _cycctx, _int, _power

__all__ = ["PolyRing", "MultiPoly"]

Expo = Tuple[int, ...]


def _has_fraction(vecs) -> bool:
    """Whether a Fraction occurs in the coefficient vectors vecs."""
    return Fraction in map(type, chain.from_iterable(vecs))


@dataclass(frozen=True)
class PolyRing:
    """Declared variables (in printing/term order) and coefficient field order."""

    variables: Tuple[str, ...]
    order: int = 1

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        # the coefficient field's reduction tables, looked up once per ring; _cycctx refuses an order out of range
        object.__setattr__(self, "_cyc", _cycctx(self.order))

    def coeff_field(self) -> FieldSpec:
        return FieldSpec("rational") if self.order == 1 else FieldSpec("cyclotomic", self.order)

    def zero(self) -> "MultiPoly":
        return _poly(self, {}, False)

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, value) -> "MultiPoly":
        vec = self._coeff(value)
        if not any(vec):
            return _poly(self, {}, False)
        return _poly(self, {(0,) * len(self.variables): vec}, _has_fraction((vec,)))

    def var(self, name: str) -> "MultiPoly":
        idx = self.variables.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(self.variables)))
        return _poly(self, {expo: self._coeff(1)}, False)

    def vars(self) -> Tuple["MultiPoly", ...]:
        return tuple(self.var(v) for v in self.variables)

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
    """Element of a PolyRing; immutable once constructed."""

    __slots__ = ("ring", "terms", "_frac", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Expo, tuple]):
        terms = {e: tuple(map(_int, v)) for e, v in terms.items()}
        _set_ring(self, ring)
        _set_terms(self, terms)
        _set_frac(self, _has_fraction(terms.values()))

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    # -- basics

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo: Expo) -> Scalar:
        vec = self.terms.get(tuple(expo))
        field = self.ring.coeff_field()
        if vec is None:
            return field.zero()
        return field.from_cyc(vec)

    def degree_in(self, name: str) -> int:
        idx = self.ring.variables.index(name)
        if not self.terms:
            return 0
        return max(e[idx] for e in self.terms)

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
        out = dict(self.terms)
        for e, v in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = v
            else:
                s = tuple(map(add, cur, v))
                if any(s):
                    out[e] = s
                else:
                    del out[e]
        if self._frac or other._frac:
            return MultiPoly(self.ring, out)
        return _poly(self.ring, out, False)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {e: tuple(map(neg, v)) for e, v in self.terms.items()}, self._frac)

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
        ring = self.ring
        ctx = ring._cyc
        fast = ctx.deg == 1
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # one term: the exponent shift is injective and a product of
            # nonzero coefficients is nonzero
            ((e1, v1),) = a.items()
            if fast:
                c = v1[0]
                out = {tuple(map(add, e1, e2)): (c * v2[0],) for e2, v2 in b.items()}
            else:
                out = {tuple(map(add, e1, e2)): ctx.mul(v1, v2) for e2, v2 in b.items()}
        else:
            out = {}
            for e1, v1 in a.items():
                for e2, v2 in b.items():
                    e = tuple(map(add, e1, e2))
                    p = (v1[0] * v2[0],) if fast else ctx.mul(v1, v2)
                    cur = out.get(e)
                    if cur is None:
                        out[e] = p
                    else:
                        s = tuple(map(add, cur, p))
                        if any(s):
                            out[e] = s
                        else:
                            del out[e]
        if not (self._frac or other._frac):
            return _poly(ring, out, False)
        return MultiPoly(ring, out)

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
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return bool(self.terms)

    # -- division

    def _lead(self) -> Tuple[Expo, tuple]:
        """Leading term in lexicographic order on the declared variables."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """The quotient self / divisor; raises ArithmeticError if not exact."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ctx = self.ring._cyc
        de, dv = divisor._lead()
        dv_inv = ctx.inv(dv)
        rem = self
        quot = self.ring.zero()
        while rem.terms:
            re, rv = rem._lead()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ArithmeticError("division is not exact")
            qterm = MultiPoly(self.ring, {qe: ctx.mul(rv, dv_inv)})
            quot = quot + qterm
            rem = rem - qterm * divisor
        return quot

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
        idx = self.ring.variables.index(name)
        d = divisor.degree_in(name)
        if d == 0:
            raise ValueError("divisor is constant in %r" % name)
        lead = [(e, v) for e, v in divisor.terms.items() if e[idx] == d]
        if len(lead) != 1 or any(lead[0][0][i] for i in range(len(lead[0][0])) if i != idx):
            raise ValueError("divisor leading coefficient in %r is not constant" % name)
        ctx = self.ring._cyc
        lead_inv = ctx.inv(lead[0][1])
        rem = self
        while rem.terms and rem.degree_in(name) >= d:
            k = rem.degree_in(name)
            # factor = (coefficient of name^k) * name^(k-d) / lead
            factor_terms = {}
            for e, v in rem.terms.items():
                if e[idx] == k:
                    fe = tuple(x - (d if i == idx else 0) for i, x in enumerate(e))
                    factor_terms[fe] = ctx.mul(v, lead_inv)
            rem = rem - MultiPoly(self.ring, factor_terms) * divisor
        return rem

    # -- substitution and evaluation

    def substitute(self, assignments: Mapping[str, Union["MultiPoly", Scalar, int, Fraction]]) -> "MultiPoly":
        """Replace variables by ring elements, all at once; unmentioned variables stay."""
        ring = self.ring
        values = [(i, self._coerce(assignments[v])) for i, v in enumerate(ring.variables) if v in assignments]
        assigned = {i for i, _ in values}
        powers: Dict[Tuple[int, int], MultiPoly] = {}
        out = ring.zero()
        for e, vec in self.terms.items():
            term = _poly(ring, {tuple(0 if i in assigned else k for i, k in enumerate(e)): vec}, self._frac)
            for i, value in values:
                k = e[i]
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = value ** k
                    term = term * pw
            out = out + term
        return out

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
        for e, vec in self.terms.items():
            term = lift(vec if src is tgt else src.embed(vec, tgt))
            for i, k in enumerate(e):
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

        parts = []
        for e in sorted(self.terms, key=lambda ex: (-sum(ex), tuple(-x for x in ex))):
            vec = self.terms[e]
            mono = "*".join(
                ("%s^%d" % (v, k) if k > 1 else v)
                for v, k in zip(self.ring.variables, e)
                if k
            )
            plain = not any(vec[1:])
            if not mono:
                parts.append(_format_cyc(vec, need_atom=False))
            elif plain and vec[0] == 1:
                parts.append(mono)
            elif plain and vec[0] == -1:
                parts.append("-" + mono)
            elif plain:
                head = _format_cyc(vec, need_atom=False)
                parts.append("%s*%s" % (head, mono))
            else:
                parts.append("%s*%s" % (_format_cyc(vec, need_atom=True), mono))
        return _join(parts)


_new = object.__new__
_set_ring = MultiPoly.ring.__set__
_set_terms = MultiPoly.terms.__set__
_set_frac = MultiPoly._frac.__set__


def _poly(ring: PolyRing, terms: Dict[Expo, tuple], frac: bool) -> MultiPoly:
    """MultiPoly(ring, terms) for terms already normal; frac False means no Fraction."""
    p = _new(MultiPoly)
    _set_ring(p, ring)
    _set_terms(p, terms)
    _set_frac(p, frac)
    return p
