"""The Iwahori-Hecke algebra H_n(q) of the symmetric group.

Elements are finite linear combinations of the standard basis {T_sigma}.
The generators satisfy the braid relations together with the quadratic
relation (T_i - q)(T_i + 1) = 0, so multiplication by a generator obeys

    T_i * T_sigma = T_(tau_i sigma)                       if the length goes up,
    T_i * T_sigma = (q-1) T_sigma + q T_(tau_i sigma)     otherwise.

The rule only ever introduces q and q - 1, so every coefficient lies in
Z[q].  An element stores each packed (Kronecker substitution), as p(2^bits)
keyed by the index of sigma in S_n: a sum or product of coefficients is one
big-int operation, and T_i maps c to c << bits or to (c << bits) - c.  It
carries a bound l1 on its L1 norm, the sum of the absolute values of all
its coefficients: a sum adds the bounds, a multiple by p multiplies by
||p||_1, and T_i at most triples the norm, so ||a b||_1 <= ||a||_1 ||b||_1
3^(longest length in supp a).  Any width of at least digit_bits(l1) (whole
bytes, exactnum) reads the signed digits back.  Elements are built at the
home width max(64, digit_bits(l1)); 64 bits hold every element of the
identity suite up to degree 6, y_n * y_n included.

An operation runs at the widest of its operands' widths and the width of
its result's bound, so only a narrower operand is repacked (read back into
Z[q] and packed again).  Equal ints at one width are equal polynomials;
where they differ and q is a constant, == and is_zero decide in the field,
since a nonzero Z[q] difference may vanish at a root of unity.  Only that,
`coefficient` and `field_terms` (so hash and repr) unpack.

Per degree n, the first use builds and caches a table of S_n in
lexicographic one-line order, all by index: the words, tau_i sigma with
whether the length goes up, the first letter of each reduced word (its
smallest left descent), the reduced words, their lengths and sigma^-1.  A
Perm appears only at the API boundary: the constructor, `coefficient` and
`field_terms`.  One walk (`permgroup.walk_words`) goes depth first along the
reduced words, sigma one step from tau_i sigma, i its first letter.  Its
step builds a reduced word (prepends i), a shift (tau_(k+i) on the index in
the target degree's table) or T_sigma b (T_i on packed coefficients), and a
product a * b sums a_sigma T_sigma b over it, or walks b when supp b is the
smaller, through the anti-involution T_sigma -> T_(sigma^-1): a * b =
(b* a*)*, with the same bound, as len(sigma^-1) = len(sigma).

The identity suite makes one walk from y_n per degree, at the width of
y_n * y_n, and compares each image T_sigma y_n with (-1)^len y_n.  The
same images sum to y_n^2 = sum c_sigma T_sigma y_n: those equal to +-y_n
add c_sigma up as one multiple of y_n, the rest are added in as a product
adds them, int for int.  Antisymmetrizers and their partial factorizations
over Young subgroups are the standard q-weighted signed sums, their
supports read off the table; partial_y caches its elements.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Tuple

from .exactnum import FieldSpec, GENERIC_Q, Scalar, _from_power_of_two, at_power_of_two, digit_bits, qfact
from .permgroup import MAX_ENUM_DEGREE, Composition, Perm, cycle, transposition, walk_words
from .report import CheckReport

__all__ = [
    "HeckeElement",
    "basis_element",
    "unit",
    "generator",
    "antisymmetrizer",
    "partial_y",
    "coset_y",
    "shift_element",
    "embed",
    "verify_identities",
]

ZPoly = Tuple[int, ...]

# the narrowest width an element is packed at (module docstring)
HOME_BITS = 64


def _width(l1: int) -> int:
    return max(HOME_BITS, digit_bits(l1))


def _monomial(k: int, sign: int = 1) -> ZPoly:
    """sign * q^k."""
    return (0,) * k + (sign,)


def _zq(value) -> ZPoly:
    """An int or a Z[q]-valued scalar as an integer tuple."""
    if isinstance(value, int):
        return (value,) if value else ()
    if isinstance(value, Scalar):
        ctx = value.field._cyc
        if value.den == (ctx.one,) and (value.field.kind == "ratfunc_q" or len(value.num) <= 1):
            if all(v[0].__class__ is int and not any(v[1:]) for v in value.num):
                return tuple([v[0] for v in value.num])
    raise ValueError("coefficient %r is not in Z[q]" % (value,))


def _to_scalar(field: FieldSpec, poly) -> Scalar:
    """The value of a Z[q] polynomial (low degree first) at field.q(), by Horner's rule unless over ratfunc_q."""
    ctx = field._cyc
    if field.kind == "ratfunc_q":
        pad = ctx.zero[1:]
        return Scalar(field, tuple([(c,) + pad for c in poly]), (ctx.one,)) if poly else field.zero()
    out, q = field.zero(), field.q()
    for c in reversed(poly):
        out = out * q + c
    return out


# ---------------------------------------------------------------------------
# per-degree tables of S_n


class _Degree:
    """S_n in lexicographic one-line order, with its generator action.

    words[s] is the one-line word of sigma_s and index maps it back to s;
    left[i][s] is the index of tau_i * sigma_s and up[i][s] says whether
    that raises the length; first[s] is the first letter of the reduced
    word of sigma_s (its smallest left descent, 0 for the identity), and
    reduced[s] that word, of length length[s]; inv[s] is the index of
    sigma_s^-1.
    """

    __slots__ = ("words", "index", "left", "up", "first", "reduced", "length", "inv")

    def __init__(self, n: int):
        if n > MAX_ENUM_DEGREE:
            raise ValueError("degree %d exceeds the enumeration bound %d" % (n, MAX_ENUM_DEGREE))
        self.words = words = list(permutations(range(1, n + 1)))
        self.index = {w: s for s, w in enumerate(words)}
        self.left: List[List[int]] = [[]]
        self.up: List[List[bool]] = [[]]
        for i in range(1, n):
            left_i, up_i = [], []
            for w in words:
                a, b = w.index(i), w.index(i + 1)
                swapped = list(w)
                swapped[a], swapped[b] = i + 1, i
                left_i.append(self.index[tuple(swapped)])
                up_i.append(a < b)
            self.left.append(left_i)
            self.up.append(up_i)
        self.first = first = [next((i for i in range(1, n) if not self.up[i][s]), 0) for s in range(len(words))]
        self.reduced = [word for _s, word in sorted(self.walk(range(len(words)), lambda s, word: (first[s],) + word, ()))]
        self.length = [len(word) for word in self.reduced]
        self.inv = [self.index[tuple([i for _v, i in sorted(zip(w, range(1, n + 1)))])] for w in words]

    def gen_mul(self, i: int, terms: Dict[int, int], bits: int) -> Dict[int, int]:
        """T_i * h on packed coefficients; tau_i pairs each sigma with tau_i sigma, handled once per pair."""
        left, up = self.left[i], self.up[i]
        get = terms.get
        out = {}
        for s, c in terms.items():
            t = left[s]
            if up[s]:
                high = get(t)
                if high is None:
                    out[t] = c
                else:
                    out[s] = high << bits
                    v = c + (high << bits) - high
                    if v:
                        out[t] = v
            elif t not in terms:
                out[t] = c << bits
                out[s] = (c << bits) - c
        return out

    def walk(self, support, step, start):
        """permgroup.walk_words over support along the reduced words: sigma_s's image is step(s, that of tau_i sigma_s), i = first[s]."""
        first, left = self.first, self.left
        return walk_words(support, lambda s: left[first[s]][s], step, start, 0)

    def product(self, a: Dict[int, int], b: Dict[int, int], bits: int) -> Dict[int, int]:
        """sum_(sigma in supp a) a_sigma T_sigma b, packed at 2^bits, on one walk over the smaller support:
        a * b = (b* a*)*."""
        if len(b) < len(a):
            inv = self.inv
            ab = self.product({inv[s]: c for s, c in b.items()}, {inv[s]: c for s, c in a.items()}, bits)
            return {inv[s]: c for s, c in ab.items()}
        first, gen_mul = self.first, self.gen_mul
        return _add_pieces({}, a, self.walk(a, lambda s, piece: gen_mul(first[s], piece, bits), b))


def _add_pieces(acc: Dict[int, int], coeffs: Dict[int, int], pieces) -> Dict[int, int]:
    """acc plus coeffs[s] * piece for the (s, piece) in pieces with s in coeffs, all packed alike, zeros left out."""
    for s, piece in pieces:
        c = coeffs.get(s)
        if c is not None:
            for t, v in piece.items():
                acc[t] = acc.get(t, 0) + c * v
    return {t: v for t, v in acc.items() if v}


_DEGREES: Dict[int, _Degree] = {}


def _degree(n: int) -> _Degree:
    tab = _DEGREES.get(n)
    if tab is None:
        tab = _DEGREES[n] = _Degree(n)
    return tab


# ---------------------------------------------------------------------------
# elements


def _make(n: int, field: FieldSpec, terms: Dict[int, int], bits: int, l1: int) -> "HeckeElement":
    h = object.__new__(HeckeElement)
    object.__setattr__(h, "n", n)
    object.__setattr__(h, "field", field)
    object.__setattr__(h, "terms", terms)
    object.__setattr__(h, "bits", bits)
    object.__setattr__(h, "l1", l1)
    return h


class HeckeElement:
    """A finite sum of Z[q] multiples of standard basis elements of H_n(q).

    `terms` maps the index of sigma in S_n to its nonzero coefficient p as
    p(2^bits), and l1 bounds the L1 norm (see the module docstring); the
    constructor takes {Perm: int or Z[q]-valued scalar}.
    """

    __slots__ = ("n", "field", "terms", "bits", "l1")

    def __new__(cls, n: int, field: FieldSpec, terms: Dict[Perm, object]):
        index = _degree(n).index
        polys = {}
        for p, c in terms.items():
            poly = _zq(c)
            if p.degree != n:
                raise ValueError("basis element of degree %d in H_%d" % (p.degree, n))
            if poly:
                polys[index[p.word]] = poly
        l1 = sum([abs(x) for c in polys.values() for x in c])
        bits = _width(l1)
        return _make(n, field, {s: at_power_of_two(c, bits) for s, c in polys.items()}, bits, l1)

    def __setattr__(self, *args):
        raise AttributeError("HeckeElement is immutable")

    def _check_compatible(self, other: "HeckeElement"):
        if self.n != other.n or self.field != other.field:
            raise ValueError("mixed ambient degree or field")

    def _at(self, bits: int) -> Dict[int, int]:
        """terms packed at 2^bits, for bits at least self.bits."""
        if bits == self.bits:
            return self.terms
        return {s: at_power_of_two(_from_power_of_two(v, self.bits), bits) for s, v in self.terms.items()}

    def coefficient(self, p: Perm) -> Scalar:
        s = _degree(self.n).index.get(p.word)
        return _to_scalar(self.field, _from_power_of_two(self.terms.get(s, 0), self.bits))

    def field_terms(self) -> List[Tuple[Perm, Tuple[int, ...], Scalar]]:
        """(sigma, reduced word of sigma, coefficient in the field), zeros left out."""
        tab = _degree(self.n)
        values = [(s, _to_scalar(self.field, _from_power_of_two(v, self.bits))) for s, v in self.terms.items()]
        return [(Perm(tab.words[s]), tab.reduced[s], c) for s, c in values if not c.is_zero()]

    def is_zero(self) -> bool:
        return not self.terms or (self.field.kind != "ratfunc_q" and not self.field_terms())

    # -- linear structure

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        l1 = self.l1 + other.l1
        bits = max(self.bits, other.bits, digit_bits(l1))
        out = dict(self._at(bits))
        for s, c in other._at(bits).items():
            v = out.get(s, 0) + c
            if v:
                out[s] = v
            else:
                del out[s]
        return _make(self.n, self.field, out, bits, l1)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + -other

    def __neg__(self) -> "HeckeElement":
        return _make(self.n, self.field, {s: -v for s, v in self.terms.items()}, self.bits, self.l1)

    def _times(self, poly: ZPoly) -> "HeckeElement":
        l1 = sum(map(abs, poly)) * self.l1
        bits = max(self.bits, digit_bits(l1))
        p = at_power_of_two(poly, bits)
        return _make(self.n, self.field, {s: p * v for s, v in self._at(bits).items()} if p else {}, bits, l1)

    def scale(self, c) -> "HeckeElement":
        """Multiple by an int or a Z[q]-valued scalar."""
        return self._times(_zq(c))

    # -- multiplication

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        tab = _degree(self.n)
        walked = self.terms if len(self.terms) <= len(other.terms) else other.terms
        l1 = self.l1 * other.l1 * 3 ** max(map(tab.length.__getitem__, walked), default=0)
        bits = max(self.bits, other.bits, digit_bits(l1))
        return _make(self.n, self.field, tab.product(self._at(bits), other._at(bits), bits), bits, l1)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement) or self.n != other.n or self.field != other.field:
            return False
        bits = max(self.bits, other.bits)
        return self._at(bits) == other._at(bits) or (self - other).is_zero()

    def __hash__(self):
        key = frozenset((p.word, c) for p, _w, c in self.field_terms())
        return hash((self.n, self.field, key))

    def __repr__(self):
        from .exprio import format_scalar

        terms = self.field_terms()
        if not terms:
            return "HeckeElement(0, n=%d)" % self.n
        bits = []
        for p, _w, c in sorted(terms, key=lambda t: (len(t[1]), t[0].word)):
            bits.append("(%s)*T%s" % (format_scalar(c), p.word))
        return "HeckeElement(%s)" % " + ".join(bits)


def basis_element(p: Perm, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    return _make(p.degree, field, {_degree(p.degree).index[p.word]: 1}, HOME_BITS, 1)


def unit(n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    _degree(n)
    return _make(n, field, {0: 1}, HOME_BITS, 1)


def generator(i: int, n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    return basis_element(transposition(i, n), field)


def _signed(n: int, field: FieldSpec, offset: int, support) -> HeckeElement:
    """sum over sigma in support of (-1)^len q^(offset - len) T_sigma, at the home width."""
    bits, length = _width(len(support)), _degree(n).length
    return _make(n, field, {s: (-1 if length[s] % 2 else 1) << (offset - length[s]) * bits for s in support}, bits, len(support))


def antisymmetrizer(n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """y_n = sum over S_n of (-1)^len q^(maxlen - len) T_sigma."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _signed(n, field, n * (n - 1) // 2, range(len(_degree(n).length)))


# the elements partial_y returns, immutable and shared, keyed by (n, comp.parts, which, field)
_PARTIAL: Dict[tuple, HeckeElement] = {}


def partial_y(n: int, comp: Composition, which: str, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """Partial antisymmetrizer for a Young subgroup of S_n.

    which="subgroup" sums over the subgroup with exponent offset equal to
    its longest length; which="left" / "right" sum over the distinguished
    representatives of S_n over (resp. under) the subgroup with offset
    n(n-1)/2 minus the subgroup's longest length.
    """
    if comp.total != n:
        raise ValueError("composition must sum to %d" % n)
    key = (n, comp.parts, which, field)
    h = _PARTIAL.get(key)
    if h is None:
        tab = _degree(n)
        inside = set(comp.internal_generators())
        support = range(len(tab.length))
        if which == "subgroup":
            support = [s for s in support if inside.issuperset(tab.reduced[s])]
        elif which == "left":
            for i in inside:
                support = [s for s in support if tab.words[s][i - 1] < tab.words[s][i]]
        elif which == "right":
            # the inverses of the left ones: tau_i sigma is longer for every i inside
            for i in inside:
                support = [s for s in support if tab.up[i][s]]
        else:
            raise ValueError("which must be 'subgroup', 'left' or 'right'")
        sub_len = comp.longest_length()
        offset = sub_len if which == "subgroup" else n * (n - 1) // 2 - sub_len
        h = _PARTIAL[key] = _signed(n, field, offset, sorted(support, key=tab.length.__getitem__))
    return h


def coset_y(n: int, k: int, l: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """y(S_n / S_(k,l)) allowing empty parts (the unit when k or l is 0)."""
    if k + l != n:
        raise ValueError("parts must sum to n")
    if k == 0 or l == 0:
        return unit(n, field)
    return partial_y(n, Composition((k, l)), "left", field)


def shift_element(h: HeckeElement, k: int, m: int = 0) -> HeckeElement:
    """Image of h under T_i -> T_(k+i), with m further fixed points on top: supp h walked along its reduced
    words, each letter i stepped as tau_(k+i) on the index in the table of S_(n+k+m)."""
    if k < 0 or m < 0:
        raise ValueError("shift amounts must be nonnegative")
    tab, left = _degree(h.n), _degree(h.n + k + m).left
    image = dict(tab.walk(h.terms, lambda s, t: left[tab.first[s] + k][t], 0))
    return _make(h.n + k + m, h.field, {image[s]: v for s, v in h.terms.items()}, h.bits, h.l1)


def embed(h: HeckeElement, n: int) -> HeckeElement:
    """H_m as the subalgebra of H_n generated by the low T_i (m <= n)."""
    if n < h.n:
        raise ValueError("cannot embed into a smaller algebra")
    return shift_element(h, 0, n - h.n)


# ---------------------------------------------------------------------------
# identity suite


def _two_part_comps(n: int) -> List[Composition]:
    return [Composition((k, n - k)) for k in range(1, n)]


def verify_identities(n_max: int = 5, field: FieldSpec = GENERIC_Q) -> CheckReport:
    """Exact identity suite for the antisymmetrizers, degrees up to n_max.

    Per degree, one walk from y_n yields every T_sigma y_n: square, gen-left
    and basis-left read it (see the module docstring), the other checks
    multiply."""
    if n_max > 6:
        raise ValueError("identity suite is desk scale: n_max <= 6")
    report = CheckReport("hecke-identities")

    def eq(name, rule, lhs, rhs):
        if lhs == rhs:
            report.record(name, rule, True)
            return
        from .exprio import format_scalar

        witness = (lhs - rhs).field_terms()[0][0]
        report.record(
            name,
            rule,
            False,
            "first differing term T%s: %s vs %s"
            % (witness.word, format_scalar(lhs.coefficient(witness)), format_scalar(rhs.coefficient(witness))),
        )

    for n in range(1, n_max + 1):
        y = antisymmetrizer(n, field)
        tab = _degree(n)

        # one walk from y_n at the width of y_n * y_n; only the images T_sigma y_n that differ from
        # (-1)^len y_n in Z[q] are kept, and those are decided in the field
        l1 = y.l1 ** 2 * 3 ** (n * (n - 1) // 2)
        bits = _width(l1)
        coeffs = y._at(bits)
        signed = coeffs, {s: -v for s, v in coeffs.items()}
        hits, misses = 0, {}
        for s, image in tab.walk(range(len(tab.length)), lambda s, piece: tab.gen_mul(tab.first[s], piece, bits), coeffs):
            odd = tab.length[s] % 2
            if image == signed[odd]:
                c = coeffs.get(s, 0)
                hits += -c if odd else c
            else:
                misses[s] = image
        # y_n^2 = hits y_n + the other c_sigma T_sigma y_n
        square = _add_pieces({t: hits * v for t, v in coeffs.items()}, coeffs, misses.items())
        eq("square.n%d" % n, "y_n^2 = [n]!_q y_n", _make(n, field, square, bits, l1), y.scale(qfact(n)))

        def left(name, rule, s):
            if s in misses:
                eq(name, rule, _make(n, field, misses[s], bits, l1), y.scale(-1 if tab.length[s] % 2 else 1))
            else:
                report.record(name, rule, True)

        for i in range(1, n):
            left("gen-left.n%d.i%d" % (n, i), "T_i y_n = -y_n", tab.left[i][0])
            eq("gen-right.n%d.i%d" % (n, i), "y_n T_i = -y_n", y * generator(i, n, field), -y)

        for s, (word, l) in enumerate(zip(tab.words, tab.length)):
            if l > 1:
                left("basis-left.n%d.%s" % (n, "".join(map(str, word))), "T_sigma y_n = (-1)^len y_n", s)

        for comp in _two_part_comps(n):
            tag = "%d,%d" % comp.parts
            y_sub = partial_y(n, comp, "subgroup", field)
            eq(
                "factor-left.n%d.%s" % (n, tag),
                "y_n = y(S_n/S') y(S')",
                partial_y(n, comp, "left", field) * y_sub,
                y,
            )
            eq(
                "factor-right.n%d.%s" % (n, tag),
                "y_n = y(S') y(S'\\S_n)",
                y_sub * partial_y(n, comp, "right", field),
                y,
            )
            k, l = comp.parts
            eq(
                "subgroup-split.n%d.%s" % (n, tag),
                "y(S_(k,l)) = y_k shift(y_l, k)",
                y_sub,
                shift_element(antisymmetrizer(k, field), 0, l) * shift_element(antisymmetrizer(l, field), k),
            )

        # recursion in the top degree: y_(n/k,n-k) for the next degree up
        if n < n_max:
            for k in range(1, n + 1):
                lhs = partial_y(n + 1, Composition((k, n + 1 - k)), "left", field)
                c = cycle(n + 1, k, n + 1)
                term1 = embed(partial_y(n, Composition((k, n - k)) if k < n else Composition((n,)), "left", field), n + 1)
                term1 = term1._times(_monomial(k))
                if k > 1:
                    prefix = partial_y(n, Composition((k - 1, n + 1 - k)), "left", field)
                else:
                    prefix = unit(n, field)
                term2 = (embed(prefix, n + 1) * basis_element(c, field)).scale(
                    -1 if (n + 1 - k) % 2 else 1
                )
                eq(
                    "coset-recursion.n%d.k%d" % (n + 1, k),
                    "y_(n+1/k,n+1-k) = q^k y_(n/k,n-k) + (-1)^(n+1-k) y_(n/k-1,n+1-k) T_c",
                    lhs,
                    term1 + term2,
                )

        # inductive formulas via the one-row coset space
        if n >= 2:
            left = right = _make(n, field, {}, HOME_BITS, 0)
            y_prev = embed(antisymmetrizer(n - 1, field), n)
            for i in range(1, n + 1):
                coeff = _monomial(i - 1, -1 if (n - i) % 2 else 1)
                left = left + (basis_element(cycle(i, n, n), field) * y_prev)._times(coeff)
                right = right + (y_prev * basis_element(cycle(n, i, n), field))._times(coeff)
            eq("induct-left.n%d" % n, "y_n = sum (-1)^(n-i) q^(i-1) T_(i~n) y_(n-1)", left, y)
            eq("induct-right.n%d" % n, "y_n = y_(n-1) sum (-1)^(n-i) q^(i-1) T_(n~i)", right, y)

    # three-block coset factorization (associativity of the star product)
    for k in range(0, n_max + 1):
        for l in range(0, n_max + 1 - k):
            for m in range(0, n_max + 1 - k - l):
                n = k + l + m
                if n < 2 or n > n_max:
                    continue
                lhs = coset_y(n, k + l, m, field) * embed(coset_y(k + l, k, l, field), n)
                rhs = coset_y(n, k, l + m, field) * shift_element(coset_y(l + m, l, m, field), k)
                eq(
                    "three-block.k%d.l%d.m%d" % (k, l, m),
                    "y_(n/k+l,m) y_(k+l/k,l) = y_(n/k,l+m) shift(y_(l+m/l,m), k)",
                    lhs,
                    rhs,
                )
    return report
