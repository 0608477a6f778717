"""The Iwahori-Hecke algebra H_n(q) of the symmetric group.

Elements are finite linear combinations of the standard basis {T_sigma}.
The generators satisfy the braid relations together with the quadratic
relation (T_i - q)(T_i + 1) = 0, so multiplication by a generator obeys

    T_i * T_sigma = T_(tau_i sigma)                       if the length goes up,
    T_i * T_sigma = (q-1) T_sigma + q T_(tau_i sigma)     otherwise.

The rule only ever introduces q and q - 1, so every element built here has
its coefficients in Z[q].  An element stores them as integer tuples, low
degree first, keyed by the index of sigma in S_n, and the field is applied
only at the boundary: `coefficient` and `field_terms` evaluate at
`field.q()`, and `==` / `is_zero` decide in the field (a nonzero Z[q]
difference may vanish at a root of unity).

Products run on packed integers (Kronecker substitution): a polynomial p is
stored as p(2^B), so a sum or a product of polynomials is one big-int
operation, and T_i maps h to h << B or to c + (h << B) - h.  B comes from
the L1 norm, the sum of the absolute values of all coefficients: T_i at
most triples it, so every coefficient of a * b is at most
||a||_1 ||b||_1 3^(longest length in supp a), and B is one bit more than
that bound, enough to read signed coefficients back, rounded up to whole
bytes (exactnum.digit_bits), so they read back in one pass.

Per degree n, the first use builds and caches a table of S_n: the index of
each sigma and of sigma^-1, the index of tau_i sigma with whether the
length goes up, the lengths and the reduced words (smallest left descent
first).  One walk yields T_sigma b for a set of sigma, depth first along
the reduced words, each from its parent's image T_rho b (sigma = tau_i rho)
by one generator step.  A product a * b sums a_sigma T_sigma b over that
walk.  When supp b is the smaller, it walks b instead, through the
anti-involution T_sigma -> T_(sigma^-1) (the reduced words reversed):
a * b = (b* a*)*.  That is exact, and the bound keeps its width, since
len(sigma^-1) = len(sigma).

The identity suite makes one walk from y_n per degree, at the width of
y_n * y_n.  Each image T_sigma y_n is compared with (-1)^len y_n on packed
ints; equal ints are equal polynomials, since their difference is within
the width.  The same images sum to y_n^2 = sum c_sigma T_sigma y_n: those
equal to +-y_n add c_sigma up as one Z[q] multiple of y_n, the rest are
added in as a product adds them.  The sum is the packed y_n * y_n, int for
int.  Antisymmetrizers and their partial factorizations over Young
subgroups follow the standard q-weighted signed sums, their supports read
off the table.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Tuple

from .exactnum import FieldSpec, GENERIC_Q, Scalar, _freeze, _from_power_of_two, at_power_of_two, digit_bits, qfact
from .permgroup import MAX_ENUM_DEGREE, Composition, Perm, cycle, shift, transposition
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


# ---------------------------------------------------------------------------
# Z[q] as integer tuples, low degree first, no trailing zeros.  Sums are
# built in a list and frozen once (exactnum._freeze): no temporary tuples
# are made, and no tuple is built from an iterator of unknown length, which
# CPython allocates at one size and shrinks, so that its free lists of small
# tuples only ever grow.
# Products pack the tuples at q = 2^bits (exactnum.at_power_of_two).


def _padd(a: ZPoly, b: ZPoly, sign: int = 1) -> ZPoly:
    """a + sign * b for sign = 1 or -1."""
    r = list(a)
    if len(r) < len(b):
        r.extend([0] * (len(b) - len(r)))
    for k, x in enumerate(b):
        if x:
            r[k] += x if sign > 0 else -x
    return _freeze(r)


def _pneg(a: ZPoly) -> ZPoly:
    return tuple([-x for x in a])


def _l1(terms: Dict[int, ZPoly]) -> int:
    return sum([abs(x) for c in terms.values() for x in c])


def _packed(terms: Dict[int, ZPoly], bits: int) -> Dict[int, int]:
    return {s: at_power_of_two(c, bits) for s, c in terms.items()}


def _unpacked(terms: Dict[int, int], bits: int) -> Dict[int, ZPoly]:
    return {s: tuple(_from_power_of_two(v, bits)) for s, v in terms.items() if v}


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


# powers of the bound q, per field with q bound to a constant
_QPOWERS: Dict[FieldSpec, list] = {}


def _to_scalar(field: FieldSpec, poly: ZPoly) -> Scalar:
    """The value of a Z[q] polynomial at field.q()."""
    if not poly:
        return field.zero()
    ctx = field._cyc
    if field.kind == "ratfunc_q":
        pad = ctx.zero[1:]
        return Scalar(field, tuple([(c,) + pad for c in poly]), (ctx.one,))
    powers = _QPOWERS.setdefault(field, [ctx.one])
    if len(powers) < len(poly):
        qv = field.q().constant()
        while len(powers) < len(poly):
            powers.append(ctx.mul(powers[-1], qv))
    vec = list(ctx.zero)
    for c, pw in zip(poly, powers):
        if c:
            for j, x in enumerate(pw):
                if x:
                    vec[j] += c * x
    return field.from_cyc(vec)


def _vanishes(field: FieldSpec, poly: ZPoly) -> bool:
    """Whether a Z[q] polynomial is zero in the field."""
    return not poly or (field.kind != "ratfunc_q" and _to_scalar(field, poly).is_zero())


# ---------------------------------------------------------------------------
# per-degree tables of S_n


class _Degree:
    """S_n in lexicographic one-line order, with its generator action.

    left[i][s] is the index of tau_i * sigma_s and up[i][s] says whether
    that raises the length; first[s] is the first letter of the reduced
    word of sigma_s (its smallest left descent, 0 for the identity);
    inv[s] is the index of sigma_s^-1.
    """

    __slots__ = ("index", "left", "up", "length", "first", "reduced", "perms", "inv")

    def __init__(self, n: int):
        if n > MAX_ENUM_DEGREE:
            raise ValueError("degree %d exceeds the enumeration bound %d" % (n, MAX_ENUM_DEGREE))
        words = list(permutations(range(1, n + 1)))
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
        self.length = [sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b]) for w in words]
        self.first = [next((i for i in range(1, n) if not self.up[i][s]), 0) for s in range(len(words))]
        self.reduced: List[Tuple[int, ...]] = [()] * len(words)
        for s in sorted(range(len(words)), key=self.length.__getitem__):
            i = self.first[s]
            if i:
                self.reduced[s] = (i,) + self.reduced[self.left[i][s]]
        self.perms = [Perm(w) for w in words]
        self.inv = [self.index[p.inverse().word] for p in self.perms]

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

    def walk(self, support, b: Dict[int, ZPoly], bits: int):
        """(s, T_sigma_s b packed at 2^bits) for s in support and for the prefixes of their reduced
        words, depth first along the reduced words: each image is one generator step from another."""
        first, left = self.first, self.left
        need = {0}
        for s in support:
            while s not in need:
                need.add(s)
                s = left[first[s]][s]
        kids: Dict[int, List[int]] = {s: [] for s in need}
        for s in need:
            if s:
                kids[left[first[s]][s]].append(s)
        stack = [(0, 0, _packed(b, bits))]
        while stack:
            s, i, piece = stack.pop()
            if i:
                piece = self.gen_mul(i, piece, bits)
            yield s, piece
            for t in kids[s]:
                stack.append((t, first[t], piece))

    def product(self, a: Dict[int, ZPoly], b: Dict[int, ZPoly]) -> Dict[int, ZPoly]:
        """sum_(sigma in supp a) a_sigma T_sigma b, on one walk over the smaller support: a * b = (b* a*)*."""
        if not a or not b:
            return {}
        if len(b) < len(a):
            inv = self.inv
            ab = self.product({inv[s]: c for s, c in b.items()}, {inv[s]: c for s, c in a.items()})
            return {inv[s]: c for s, c in ab.items()}
        # T_i at most triples the L1 norm, so every coefficient is at most ||a||_1 ||b||_1 3^(longest len in supp a)
        bits = digit_bits(_l1(a) * _l1(b) * 3 ** max(map(self.length.__getitem__, a)))
        return _unpacked(_add_pieces({}, _packed(a, bits), self.walk(a, b, bits)), bits)


def _add_pieces(acc: Dict[int, int], coeffs: Dict[int, int], pieces) -> Dict[int, int]:
    """acc plus coeffs[s] * piece for the (s, piece) in pieces with s in coeffs, all packed alike."""
    for s, piece in pieces:
        c = coeffs.get(s)
        if c is not None:
            for t, v in piece.items():
                acc[t] = acc.get(t, 0) + c * v
    return acc


_DEGREES: Dict[int, _Degree] = {}


def _degree(n: int) -> _Degree:
    tab = _DEGREES.get(n)
    if tab is None:
        tab = _DEGREES[n] = _Degree(n)
    return tab


# ---------------------------------------------------------------------------
# elements


def _make(n: int, field: FieldSpec, terms: Dict[int, ZPoly]) -> "HeckeElement":
    h = object.__new__(HeckeElement)
    object.__setattr__(h, "n", n)
    object.__setattr__(h, "field", field)
    object.__setattr__(h, "terms", terms)
    return h


class HeckeElement:
    """A finite sum of Z[q] multiples of standard basis elements of H_n(q).

    `terms` maps the index of sigma in S_n to its coefficient as an integer
    tuple; the constructor takes {Perm: int or Z[q]-valued scalar}.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: FieldSpec, terms: Dict[Perm, object]):
        index = _degree(n).index
        out = {}
        for p, c in terms.items():
            poly = _zq(c)
            if p.degree != n:
                raise ValueError("basis element of degree %d in H_%d" % (p.degree, n))
            if poly:
                out[index[p.word]] = poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", out)

    def __setattr__(self, *args):
        raise AttributeError("HeckeElement is immutable")

    def _check_compatible(self, other: "HeckeElement"):
        if self.n != other.n or self.field != other.field:
            raise ValueError("mixed ambient degree or field")

    def coefficient(self, p: Perm) -> Scalar:
        s = _degree(self.n).index.get(p.word)
        return _to_scalar(self.field, self.terms.get(s, ()))

    def field_terms(self) -> List[Tuple[Perm, Tuple[int, ...], Scalar]]:
        """(sigma, reduced word of sigma, coefficient in the field), zeros left out."""
        tab = _degree(self.n)
        out = []
        for s, poly in self.terms.items():
            c = _to_scalar(self.field, poly)
            if not c.is_zero():
                out.append((tab.perms[s], tab.reduced[s], c))
        return out

    def is_zero(self) -> bool:
        return all(_vanishes(self.field, c) for c in self.terms.values())

    # -- linear structure

    def _plus(self, other: "HeckeElement", sign: int) -> "HeckeElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            v = _padd(out.get(s, ()), c, sign)
            if v:
                out[s] = v
            else:
                del out[s]
        return _make(self.n, self.field, out)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return self._plus(other, 1)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self._plus(other, -1)

    def __neg__(self) -> "HeckeElement":
        return _make(self.n, self.field, {s: _pneg(c) for s, c in self.terms.items()})

    def _times(self, poly: ZPoly) -> "HeckeElement":
        if not poly:
            return _make(self.n, self.field, {})
        bits = digit_bits(sum(map(abs, poly)) * _l1(self.terms))
        p = at_power_of_two(poly, bits)
        return _make(self.n, self.field, _unpacked({s: p * v for s, v in _packed(self.terms, bits).items()}, bits))

    def scale(self, c) -> "HeckeElement":
        """Multiple by an int or a Z[q]-valued scalar."""
        return self._times(_zq(c))

    # -- multiplication

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        return _make(self.n, self.field, _degree(self.n).product(self.terms, other.terms))

    def __eq__(self, other):
        if not isinstance(other, HeckeElement) or self.n != other.n or self.field != other.field:
            return False
        return self.terms == other.terms or (self - other).is_zero()

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
    return _make(p.degree, field, {_degree(p.degree).index[p.word]: (1,)})


def unit(n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    _degree(n)
    return _make(n, field, {0: (1,)})


def generator(i: int, n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    return basis_element(transposition(i, n), field)


def _signed(offset: int, length: int) -> ZPoly:
    """(-1)^length q^(offset - length)."""
    return _monomial(offset - length, -1 if length % 2 else 1)


def antisymmetrizer(n: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """y_n = sum over S_n of (-1)^len q^(maxlen - len) T_sigma."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    tab = _degree(n)
    maxlen = n * (n - 1) // 2
    return _make(n, field, {s: _signed(maxlen, l) for s, l in enumerate(tab.length)})


def partial_y(n: int, comp: Composition, which: str, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """Partial antisymmetrizer for a Young subgroup of S_n.

    which="subgroup" sums over the subgroup with exponent offset equal to
    its longest length; which="left" / "right" sum over the distinguished
    representatives of S_n over (resp. under) the subgroup with offset
    n(n-1)/2 minus the subgroup's longest length.
    """
    if comp.total != n:
        raise ValueError("composition must sum to %d" % n)
    tab = _degree(n)
    inside = set(comp.internal_generators())
    support = range(len(tab.length))
    if which == "subgroup":
        support = [s for s in support if inside.issuperset(tab.reduced[s])]
    elif which == "left":
        words = list(tab.index)
        for i in inside:
            support = [s for s in support if words[s][i - 1] < words[s][i]]
    elif which == "right":
        # the inverses of the left ones: tau_i sigma is longer for every i inside
        for i in inside:
            support = [s for s in support if tab.up[i][s]]
    else:
        raise ValueError("which must be 'subgroup', 'left' or 'right'")
    sub_len = comp.longest_length()
    offset = sub_len if which == "subgroup" else n * (n - 1) // 2 - sub_len
    return _make(n, field, {s: _signed(offset, tab.length[s]) for s in sorted(support, key=tab.length.__getitem__)})


def coset_y(n: int, k: int, l: int, field: FieldSpec = GENERIC_Q) -> HeckeElement:
    """y(S_n / S_(k,l)) allowing empty parts (the unit when k or l is 0)."""
    if k + l != n:
        raise ValueError("parts must sum to n")
    if k == 0 or l == 0:
        return unit(n, field)
    return partial_y(n, Composition((k, l)), "left", field)


def shift_element(h: HeckeElement, k: int, m: int = 0) -> HeckeElement:
    """Image of h under T_i -> T_(k+i), with m further fixed points on top."""
    n = h.n + k + m
    src = _degree(h.n).perms
    index = _degree(n).index
    return _make(n, h.field, {index[shift(src[s], k, m).word]: c for s, c in h.terms.items()})


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
        bits = digit_bits(_l1(y.terms) ** 2 * 3 ** (n * (n - 1) // 2))
        coeffs = _packed(y.terms, bits)
        signed = coeffs, {s: -v for s, v in coeffs.items()}
        hits, misses = 0, {}
        for s, image in tab.walk(range(len(tab.length)), y.terms, bits):
            odd = tab.length[s] % 2
            if image == signed[odd]:
                c = coeffs.get(s, 0)
                hits += -c if odd else c
            else:
                misses[s] = image
        # y_n^2 = hits y_n + the other c_sigma T_sigma y_n
        square = _add_pieces({t: hits * v for t, v in coeffs.items()}, coeffs, misses.items())
        eq("square.n%d" % n, "y_n^2 = [n]!_q y_n", _make(n, field, _unpacked(square, bits)), y.scale(qfact(n)))

        def left(name, rule, s):
            if s in misses:
                eq(name, rule, _make(n, field, _unpacked(misses[s], bits)), y.scale(-1 if tab.length[s] % 2 else 1))
            else:
                report.record(name, rule, True)

        for i in range(1, n):
            left("gen-left.n%d.i%d" % (n, i), "T_i y_n = -y_n", tab.left[i][0])
            eq("gen-right.n%d.i%d" % (n, i), "y_n T_i = -y_n", y * generator(i, n, field), -y)

        for s, (p, l) in enumerate(zip(tab.perms, tab.length)):
            if l > 1:
                left("basis-left.n%d.%s" % (n, "".join(map(str, p.word))), "T_sigma y_n = (-1)^len y_n", s)

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
            left = _make(n, field, {})
            right = _make(n, field, {})
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
