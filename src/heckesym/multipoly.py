"""Sparse multivariate polynomials with exact coefficients.

A polynomial lives in a PolyRing that fixes an ordered tuple of variable
names and a cyclotomic order for the coefficient field (1 = rationals).
Terms map dense exponent tuples to coefficient vectors; zero coefficients
are never stored, so equality is plain dictionary equality.

Only what the computations need is provided: ring arithmetic, powers,
substitution, evaluation, exact division and reduction modulo a divisor
that is monic (up to a constant) in one variable.  No factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Tuple, Union

from .exactnum import FieldSpec, Scalar, _cycctx

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
        if self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")

    def _ctx(self):
        return _cycctx(self.order)

    def coeff_field(self) -> FieldSpec:
        return FieldSpec("rational") if self.order == 1 else FieldSpec("cyclotomic", self.order)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, value) -> "MultiPoly":
        vec = self._coeff(value)
        if not any(vec):
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * len(self.variables): vec})

    def var(self, name: str) -> "MultiPoly":
        idx = self.variables.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(self.variables)))
        return MultiPoly(self, {expo: self._ctx().one})

    def vars(self) -> Tuple["MultiPoly", ...]:
        return tuple(self.var(v) for v in self.variables)

    def _coeff(self, value) -> tuple:
        """Coerce an int/Fraction/constant Scalar to a coefficient vector."""
        ctx = self._ctx()
        if isinstance(value, Scalar):
            if value.field.kind == "ratfunc_q":
                raise ValueError("coefficients must be constants, not rational functions")
            if value.field.order != self.order:
                if self.order % value.field.order:
                    raise ValueError("coefficient field does not embed into this ring")
                return value.field._ctx().embed(value.constant(), ctx)
            return value.constant()
        f = Fraction(value)
        return (f,) + (Fraction(0),) * (ctx.deg - 1)


class MultiPoly:
    """Element of a PolyRing; immutable once constructed."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Expo, tuple]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

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

    # -- coercion helpers

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations

    def __add__(self, other):
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
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: tuple(-x for x in v) for e, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.ring._ctx()
        fast = ctx.deg == 1
        out: Dict[Expo, tuple] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
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
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return self.ring.one()
        # left to right from the top bit: one square per further bit
        out = self
        for bit in bin(exponent)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
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
        ctx = self.ring._ctx()
        de, dv = divisor._lead()
        dv_inv = ctx.inv(dv)
        rem = self
        quot = self.ring.zero()
        while rem.terms:
            re, rv = rem._lead()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ArithmeticError("division is not exact")
            qv = ctx.mul(rv, dv_inv)
            qterm = MultiPoly(self.ring, {qe: qv})
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
        ctx = self.ring._ctx()
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
            term = MultiPoly(ring, {tuple(0 if i in assigned else k for i, k in enumerate(e)): vec})
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
        """Evaluate at scalar values for every variable."""
        sample = None
        for v in assignments.values():
            if isinstance(v, Scalar):
                sample = v.field
                break
        field = sample if sample is not None else self.ring.coeff_field()
        if field.order % self.ring.order:
            raise ValueError("coefficients do not embed into the target field")
        vals = []
        for name in self.ring.variables:
            if name not in assignments:
                raise ValueError("no value for variable %r" % name)
            v = assignments[name]
            vals.append(v if isinstance(v, Scalar) else field.scalar(v))
        src = self.ring._ctx()
        tgt = field._ctx()
        powers: Dict[Tuple[int, int], Scalar] = {}
        out = field.zero()
        for e, vec in self.terms.items():
            term = field.from_cyc(src.embed(vec, tgt)) if field.order != self.ring.order else field.from_cyc(vec)
            for i, k in enumerate(e):
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = vals[i] ** k
                    term = term * pw
            out = out + term
        return out

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
