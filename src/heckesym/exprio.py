"""Text form of scalars: a tiny expression grammar and its formatter.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | 'q' | 'e' | '(' expr ')'

`q` is the field parameter (formal in ratfunc_q fields, otherwise the bound
value) and `e` is the primitive root of unity of the field's declared
cyclotomic order.  Exponents are nonnegative integer literals of at most
MAX_EXPONENT, so that a short input cannot ask for an enormous power.  The
size of every power, product and quotient is bounded too, before it is
computed, so that nested powers such as (2^1000)^1000 or long products of
admitted powers cannot multiply it up: its degree in q (numerator and
denominator degrees add up over the factors) may not exceed MAX_EXPONENT,
and its coefficients may not exceed MAX_POWER_BITS, estimated at
k (b + log2 m) bits for a factor x^k whose m nonzero coefficients have at
most b bits each, summed over the factors.

format_scalar emits strings inside the same grammar, so every scalar
round-trips through parse_scalar exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .exactnum import FieldSpec, Scalar

__all__ = ["parse_scalar", "format_scalar", "ExprError", "MAX_EXPONENT", "MAX_POWER_BITS"]

MAX_EXPONENT = 1000
MAX_POWER_BITS = 1 << 16


class ExprError(ValueError):
    """Malformed scalar expression; carries a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:
                # Python refuses to convert a decimal literal past its int-conversion digit limit
                raise ExprError("integer literal of %d digits is too long" % (j - i), i) from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprError("unexpected character %r" % ch, i)
    tokens.append(("end", None, len(text)))
    return tokens


def _check_size(what: str, factors, pos: int) -> None:
    """Refuses the product of value^k over the (value, k) factors, before it is
    computed, when its degree or estimated coefficient size is over the bounds.

    k = -1 stands for a divisor.  Numerator and denominator degrees add up
    over the factors; a factor with m nonzero coefficients of at most b bits
    adds |k| (b + log2 m) bits to the estimate.
    """
    num_deg = den_deg = bits = 0
    for value, k in factors:
        num, den = value.fractions()
        entries = [c for poly in (num, den) for vec in poly for c in vec if c]
        if not entries:
            continue
        if k < 0:
            num, den = den, num
        k = abs(k)
        num_deg += k * (len(num) - 1)
        den_deg += k * (len(den) - 1)
        b = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in entries)
        bits += k * (b + len(entries).bit_length())
    degree = max(num_deg, den_deg)
    if degree > MAX_EXPONENT:
        raise ExprError("%s of degree %d in q exceeds %d" % (what, degree, MAX_EXPONENT), pos)
    if bits > MAX_POWER_BITS:
        raise ExprError("%s with about %d-bit coefficients exceeds %d bits" % (what, bits, MAX_POWER_BITS), pos)


class _Parser:
    def __init__(self, tokens, field: FieldSpec):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.pos += 1
        return tok

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                _check_size("product", ((value, 1), (rhs, 1)), pos)
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ExprError("division by zero", pos)
                _check_size("quotient", ((value, 1), (rhs, -1)), pos)
                value = value / rhs
        return value

    def factor(self) -> Scalar:
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            if tok[1] > MAX_EXPONENT:
                raise ExprError("exponent %d exceeds %d" % (tok[1], MAX_EXPONENT), tok[2])
            _check_size("power", ((value, tok[1]),), tok[2])
            value = value ** tok[1]
        return value

    def atom(self) -> Scalar:
        kind, val, pos = self.take()
        if kind == "int":
            return self.field.scalar(val)
        if kind == "name":
            if val == "q":
                try:
                    return self.field.q()
                except ValueError as exc:
                    raise ExprError(str(exc), pos) from None
            if val == "e":
                return self.field.e()
            raise ExprError("unknown identifier %r" % val, pos)
        if kind == "(":
            value = self.expr()
            self.take(")")
            return value
        raise ExprError("unexpected token %r" % (val,), pos)


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse an expression into a scalar of the given field."""
    parser = _Parser(_tokenize(text), field)
    value = parser.expr()
    parser.take("end")
    return value


# ---------------------------------------------------------------------------
# formatting


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def _join(parts, need_atom: bool = False) -> str:
    """The sum of the term texts parts, "0" for none; a leading "-" of a later
    term becomes " - ".  need_atom puts a sum, a negative, a product or a
    fraction in parentheses, so that the text can stand as a factor."""
    if not parts:
        return "0"
    out = parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])
    if need_atom and (len(parts) > 1 or out.startswith("-") or "/" in out or "*" in out):
        return "(" + out + ")"
    return out


def _format_cyc(vec, need_atom: bool) -> str:
    """Coefficient vector over Q(zeta_m) as a polynomial in e."""
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
    return _join(parts, need_atom)


def _format_qpoly(poly, need_atom: bool) -> str:
    parts = []
    for k in range(len(poly) - 1, -1, -1):
        vec = poly[k]
        if not any(vec):
            continue
        mono = "" if k == 0 else ("q" if k == 1 else "q^%d" % k)
        plain = not any(vec[1:])
        if not mono:
            parts.append(_format_cyc(vec, need_atom=False))
        elif plain and vec[0] == 1:
            parts.append(mono)
        elif plain and vec[0] == -1:
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (_format_cyc(vec, need_atom=True), mono))
    return _join(parts, need_atom)


def format_scalar(x: Scalar) -> str:
    """Round-trippable text for a scalar."""
    if not x.num:
        return "0"
    num, den = x.fractions()
    if den == x.field._cyc.unit:
        return _format_qpoly(num, need_atom=False)
    return "%s/%s" % (_format_qpoly(num, need_atom=True), _format_qpoly(den, need_atom=True))
