"""Hecke symmetries and their action on tensor powers.

A Hecke symmetry is an operator R on V (x) V satisfying the braid equation
on V^(x)3 and the quadratic relation (R - q Id)(R + Id) = 0 with q nonzero.
T_i then acts on V^(x)n through R in tensor slots (i, i+1), making V^(x)n a
module over the Hecke algebra; this module exposes that action, the graded
subspaces

    upsilon(n) = intersection of the images of (T_i - q) on V^(x)n,
    ideal_component(n) = sum of the kernels of (T_i - q),

the star product a * b = y_(k+l/k,l)(a (x) b), duals/opposites/conjugates,
and a small built-in catalog.

No N^n x N^n matrix is formed for the graded subspaces.  T_i acts only on
slots (i, i+1), so Im(T_i - q) = V^(x)(i-1) (x) upsilon(2) (x) V^(x)(n-i-1)
and, for n >= 3,

    upsilon(n) = (upsilon(n-1) (x) V) cap (V^(x)(n-2) (x) upsilon(2)),

a kernel in dim upsilon(n-1) * N unknowns whose rows are one product of
upsilon(n-1)'s basis with the annihilators of upsilon(2); one product of that
basis with the kernel's is upsilon(n)'s canonical basis (_extend).  It uses
no eigenspace splitting, so it holds for every q, q = -1 included.  By
duality, (ker A)^perp = Im(A^t), so ideal_component(n) = sum ker(T_i - q) is
the annihilator of upsilon(n) of the transpose symmetry R^t and
lambda_dim(n) = dim V^(x)n - dim ideal_component(n) is that upsilon's
dimension (at q = -1 not the quotient by sum Im(T_i + 1); see lambda_dim).

Every action on V^(x)n -- T_i, Hecke words and elements, A^(x)k, A (x) A on
the row slots of an N^2 x N^2 matrix (conjugation, the square-commutes
identity), the matrices of T_i, T_sigma and rep(h), the quadratic relation
and the braid defect -- is one sum of c * A_word(v) over slot-local steps
(_packed_act), whose result is one exactnum.Packed family.  Its words, read
right to left, form a tree of suffixes walked depth first, as
heckealg._Degree.walk walks reduced words: each distinct suffix is one step
from its parent's image, each term's image is added when the walk reaches
its word, and only the parent images of pending siblings are held; one word
with no coefficient is a chain, stepped letter by letter with no tree.  A
family of m vectors, stacked (linalg._stack) or placed from two factors
(linalg.Placed: units, t (x) e_j, t (x) a basis, u (x) w), is acted on at
once, its images stacked the same way; m = 1 is one vector.  It is packed
once into integer polynomials in q over one denominator, the m lanes of a
tensor coordinate one int (lane l at 2^(B l), q at 2^(m B)), a placed family
from its factors with no Scalar per coordinate, and stepped with the
multiplication matrices of the operator's nonzero entries (zeros are never
packed), kept on the MatrixF (column_table).  Checks that ask whether a
result vanishes or equals another read its ints (Packed.vanishes, ==), and
its values only to name a witness.  A ring vector is one component.

Tensor basis indexing is lexicographic: the word (i_1,...,i_n) over 1..N
sits at position sum (i_k - 1) N^(n-k).
"""

from __future__ import annotations

import json
import math
from itertools import chain, product
from typing import List, Sequence, Tuple

from .exactnum import FieldSpec, GENERIC_Q, Packed, Scalar, _scalar, at_lanes, at_power_of_two, digit_bits, mul_matrices, pack_q
from .exprio import format_scalar, parse_scalar
from .heckealg import HeckeElement, coset_y
from .linalg import MatrixF, Placed, Subspace, kron_vec
from .multipoly import MultiPoly
from .permgroup import Perm

__all__ = [
    "HeckeSymmetry",
    "SymmetryError",
    "check_hecke",
    "check_braid",
    "braid_defect",
    "dj_standard",
    "flip",
    "tensor_index",
    "index_word",
    "kron_vec",
    "column_table",
    "apply_power",
    "TENSOR_DIM_CAP",
]

TENSOR_DIM_CAP = 256


class SymmetryError(ValueError):
    """Input operator is not a Hecke symmetry, or a size bound was exceeded."""


def tensor_index(word: Sequence[int], N: int) -> int:
    """Position of e_(i1) (x) ... (x) e_(in) (1-based letters)."""
    idx = 0
    for i in word:
        if not 1 <= i <= N:
            raise ValueError("letter out of range")
        idx = idx * N + (i - 1)
    return idx


def index_word(idx: int, n: int, N: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % N + 1)
        idx //= N
    return tuple(reversed(out))


def column_table(A: MatrixF) -> tuple:
    """A's (ring, packed) tables (_build_table), kept on A, so an operator is packed once however many actions use it."""
    table = A._table
    if table is None:
        table = _build_table(A)
        object.__setattr__(A, "_table", table)
    return table


def _build_table(A: MatrixF) -> tuple:
    """The nonzero entries of each column of A, as (ring, packed) tables.

    In both, cols[b][j] lists (a, i, coeff): column j sends component b to
    component a of row i, times coeff.  ring has one component, coeff A[i, j].
    packed is None unless A is over a FieldSpec, else (field, D, cols, norm,
    at) with coeff M[a][b], an integer polynomial in q, for the matrix M of
    D * A[i, j] (exactnum.mul_matrices); norm bounds the coefficient sum one
    step gathers per target, and at caches cols at q = 2^step by step.  Only
    the nonzero entries are packed: a zero has denominator 1 and adds nothing
    to a column or to a row's sum, so D, cols and norm are those of all.
    """
    ring = [[[(0, i, x) for i, x in enumerate(A.entries[j :: A.cols]) if not x.is_zero()] for j in range(A.cols)]]
    field = A.domain
    if not isinstance(field, FieldSpec):
        return ring, None
    entries = [(j, i, x) for j, col in enumerate(ring[0]) for _a, i, x in col]
    den, mats = mul_matrices(field, [x for _j, _i, x in entries])
    span, sums = range(field._cyc.deg), {}
    cols = [[[] for _ in range(A.cols)] for _ in span]
    for (j, i, _x), M in zip(entries, mats):
        for b in span:
            cols[b][j] += [(a, i, M[a][b]) for a in span if M[a][b]]
            # the coefficient sum gathered at component b of row i
            sums[i, b] = sums.get((i, b), 0) + sum(map(abs, chain.from_iterable(M[b])))
    return ring, (field, den, cols, max(sums.values(), default=0), {})


def _tail(first: int, width: int, N: int, length: int) -> int:
    """Coordinates spanned by the slots after an operator of width columns acting from slot first on."""
    tail, rest = divmod(length, N ** max(first - 1, 0) * width)
    if first < 1 or rest or not tail:
        raise ValueError("slots out of range")
    return tail


def _int_step(cols: Sequence, first: int, N: int, comps: list, zero) -> list:
    """One operator step on the components (ints, or ring elements) of a packed vector; sums start from zero."""
    width, length = len(cols[0]), len(comps[0])
    tail = _tail(first, width, N, length)
    outs = [[zero] * length for _ in comps]
    for xs, table in zip(comps, cols):
        for idx, x in enumerate(xs):
            if x:
                local = (idx // tail) % width
                base = idx - local * tail
                for a, row, coeff in table[local]:
                    outs[a][base + row * tail] += coeff * x
    return outs


def _packed_act(table: tuple, N: int, terms: Sequence, vec: Sequence, zero, m: int = 1, floor: int = 0) -> Packed:
    """Sum of c * A_word(vec) over the (word, c) terms, c None meaning 1, on vec, a family of m vectors stacked
    (linalg._stack) or placed (linalg.Placed), or one for m = 1, as an exactnum.Packed family.

    A is the operator of table (see column_table) on consecutive slots of V^(x)n with dim V = N; A_word applies it
    from slot word[-1] on, then from word[-2] on, and so on.  One walk, depth first over the tree of the words'
    suffixes, steps each distinct suffix once from its parent's image, holding only the parent images of pending
    siblings, and adds each term's image when it reaches the term's word; a coefficient +-2^e on the ints (+-q^e at
    q = 2^step, or +-1) is added as a shift and a sign.  A single term with c None is a chain: its letters are
    stepped right to left, with no tree, and its image is the result.  A Scalar or Placed vec is packed once, the m
    lanes of each tensor coordinate one int, and the sum is comps over one denominator, the product of the input's,
    the terms' and D^top.  bits bounds every digit of the sum, and is at least floor: the input's peak times, summed
    over the terms, the largest row sum of the term's matrix times norm^len(word).  Any other vec is one component
    stepped whole on the ring table, its entries made elements of vec's domain once; field is None.
    """
    ring, packed = table
    field = packed[0] if packed is not None and isinstance(zero, Scalar) else None
    if not vec:
        return Packed(None, [[]], None, 0, m)
    if field is None:
        if packed is not None:
            ring = [[[(a, i, zero + c) for a, i, c in entries] for entries in col] for col in ring]
        cols, comps, mats, start, den, bits = ring, [list(vec)], [None if c is None else [[c]] for _w, c in terms], zero, None, 0
    else:
        _field, D, cols, norm, at = packed
        unit, start = (field._cyc.one,), 0
        top = max([len(word) for word, _c in terms], default=0)
        Ds = _scalar(field, D, unit)
        # a word shorter than top gets D^(top - len(word)) in its coefficient
        if D != unit:
            terms = [(w, c if len(w) == top else Ds ** (top - len(w)) if c is None else c * Ds ** (top - len(w))) for w, c in terms]
        cden, mats = unit, [None] * len(terms)
        if any(c is not None for _w, c in terms):
            cden, mats = mul_matrices(field, [field.one() if c is None else c for _w, c in terms])
        if isinstance(vec, Placed):
            den, peak, lanes = vec.pack(field)
        else:
            den, ints = pack_q(field, vec)
            peak, lanes = max([abs(c) for ps in ints for p in ps for c in p], default=0), lambda bits: [at_lanes(ps, bits, m) for ps in ints]
        bound = sum((1 if M is None else max(sum(sum(map(abs, p)) for p in row) for row in M)) * norm ** len(w) for (w, _c), M in zip(terms, mats))
        bits = max(floor, digit_bits(bound * peak))
        step = m * bits
        comps = lanes(bits)
        mats = [M if M is None else [[at_power_of_two(p, step) for p in row] for row in M] for M in mats]
        # constants of the rational and cyclotomic kinds read the same at every step
        key = step if field.kind == "ratfunc_q" else 0
        if key not in at:
            at[key] = [[[(a, i, at_power_of_two(p, step)) for a, i, p in entries] for entries in col] for col in cols]
        cols, den = at[key], (_scalar(field, den, unit) * _scalar(field, cden, unit) * Ds ** top).num
    if len(terms) == 1 and mats[0] is None:
        for letter in reversed(terms[0][0]):
            comps = _int_step(cols, letter, N, comps, start)
        return Packed(field, comps, den, bits, m)
    kids, ends = {}, {}
    for i, word in enumerate([tuple(w) for w, _c in terms]):
        ends.setdefault(word, []).append(i)
        for j in range(len(word)):
            kids.setdefault(word[j + 1 :], {})[word[j:]] = None
    out = [[start] * len(comps[0]) for _ in comps]
    stack = [((), comps)]
    while stack:
        w, y = stack.pop()
        y = _int_step(cols, w[0], N, y, start) if w else y
        for i in ends.get(w, ()):
            for (a, acc), (b, ys) in product(enumerate(out), enumerate(y)):
                c = (a == b) if mats[i] is None else mats[i][a][b]
                # c = +-2^e (+-q^e at q = 2^step, or +-1) adds a shift with a sign, with no product
                e = abs(c).bit_length() - 1 if field is not None else -1
                sign = (1 if c > 0 else -1) if e >= 0 and abs(c) == 1 << e else 0
                if c:
                    for k, x in enumerate(ys):
                        if x:
                            acc[k] += x if c is True else c * x if not sign else x << e if sign > 0 else -(x << e)
        stack += [(kid, y) for kid in kids.get(w, ())]
    return Packed(field, out, den, bits, m)


def _packed_vanishes(packs: Sequence, matrix) -> Tuple[bool, str]:
    """_vanishes(matrix()) for the _packed_act results packs, decided by Packed.vanishes: matrix() is built only
    on a failure."""
    if all([p.vanishes() for p in packs]):
        return True, ""
    return _vanishes(matrix())


def apply_power(A: MatrixF, k: int, vec: Sequence, zero=None, m: int = 1, skip: int = 0) -> tuple:
    """A^(x)k on a vector of V^(x)k, or on m of them stacked (linalg._stack), one slot at a time;
    with skip > 0, Id^(x)skip (x) A^(x)k on vectors of V^(x)(skip+k).

    zero is that of the vector's domain (by default the domain of A).
    """
    if A.rows != A.cols or len(vec) != A.rows ** (skip + k) * m:
        raise ValueError("vector length mismatch")
    zero = A.domain.zero() if zero is None else zero
    return _packed_act(column_table(A), A.rows, [(range(skip + 1, skip + k + 1), None)], vec, zero, m).values()


def _format_entry(x) -> str:
    """Text of a scalar or of a polynomial entry."""
    return x.to_text() if isinstance(x, MultiPoly) else format_scalar(x)


def _vanishes(M: MatrixF) -> Tuple[bool, str]:
    """Whether M is zero, with its first nonzero entry as the witness if not."""
    for k, x in enumerate(M.entries):
        if not x.is_zero():
            return False, "entry (%d,%d) = %s" % (*divmod(k, M.cols), _format_entry(x))
    return True, ""


def _column_blocks(table: tuple, N: int, dim: int, terms: Sequence, domain) -> list:
    """The packed actions of sum c * A_word on the placed units of k^dim: all dim columns in one action over a constant
    field, N^2 per action at generic q, where q sits at 2^(width B); over a ring, one action on the identity."""
    zero = domain.zero()
    if not isinstance(domain, FieldSpec):
        return [_packed_act(table, N, terms, MatrixF.identity(dim, domain).entries, zero, dim)]
    width = min(dim, N * N) if domain.kind == "ratfunc_q" else dim
    return [_packed_act(table, N, terms, Placed(range(j, j + width), dim=dim), zero, width) for j in range(0, dim, width)]


def _matrix_of(table: tuple, N: int, dim: int, terms: Sequence, domain, blocks=None) -> MatrixF:
    """The dim x dim matrix of sum c * A_word, from the column blocks of _column_blocks (or blocks, its result)."""
    blocks = [b.values() for b in blocks or _column_blocks(table, N, dim, terms, domain)]
    width = len(blocks[0]) // dim
    return MatrixF(dim, dim, [x for i in range(dim) for b in blocks for x in b[i * width : (i + 1) * width]], domain)


def _vanishing(table: tuple, N: int, dim: int, terms: Sequence, domain) -> Tuple[bool, str]:
    """_vanishes(_matrix_of(...)), decided on the packed actions."""
    blocks = _column_blocks(table, N, dim, terms, domain)
    return _packed_vanishes(blocks, lambda: _matrix_of(table, N, dim, terms, domain, blocks))


def check_hecke(R: MatrixF, q: Scalar) -> Tuple[bool, str]:
    """Exact test of (R - q Id)(R + Id) = R^2 + (1 - q) R - q Id = 0 on V (x) V, one action of R; witness entry on
    failure."""
    dim = R.rows
    return _vanishing(column_table(R), dim, dim, [((1, 1), None), ((1,), 1 - q), ((), -q)], R.domain)


def _braid_args(table: tuple, N: int, domain) -> tuple:
    """_matrix_of's arguments for the braid defect T_1 T_2 T_1 - T_2 T_1 T_2 on V^(x)3."""
    return table, N, N ** 3, [((1, 2, 1), None), ((2, 1, 2), -domain.one())], domain


def braid_defect(R: MatrixF) -> MatrixF:
    """(R (x) I)(I (x) R)(R (x) I) - (I (x) R)(R (x) I)(I (x) R) on V^(x)3."""
    return _matrix_of(*_braid_args(column_table(R), _side(R), R.domain))


def check_braid(R: MatrixF) -> Tuple[bool, str]:
    """Exact test of the braid equation on V^(x)3; witness on failure."""
    return _vanishing(*_braid_args(column_table(R), _side(R), R.domain))


def _side(R: MatrixF) -> int:
    """N for an operator R on V (x) V with dim V = N."""
    N = math.isqrt(R.rows)
    if N * N != R.rows:
        raise ValueError("operator size is not a perfect square")
    return N


class HeckeSymmetry:
    """A validated Hecke symmetry with cached tensor-power machinery."""

    __slots__ = ("N", "field", "q", "R", "_upsilon", "_ann", "_dual", "name", "__weakref__")

    def __init__(self, N: int, q: Scalar, R: MatrixF, name: str = "", validate: bool = True):
        if N < 1:
            raise SymmetryError("dimension must be >= 1")
        if R.rows != N * N or R.cols != N * N:
            raise SymmetryError("operator must be N^2 x N^2")
        if q.is_zero():
            raise SymmetryError("q must be nonzero")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "field", q.field)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_upsilon", {})
        object.__setattr__(self, "_ann", None)
        object.__setattr__(self, "_dual", None)
        if validate:
            ok, witness = self.check_hecke()
            if not ok:
                raise SymmetryError("quadratic relation fails: " + witness)
            ok, witness = self.check_braid()
            if not ok:
                raise SymmetryError("braid equation fails: " + witness)

    def __setattr__(self, *args):
        raise AttributeError("HeckeSymmetry is immutable")

    def __repr__(self):
        return "HeckeSymmetry(N=%d%s)" % (self.N, ", " + self.name if self.name else "")

    def check_hecke(self) -> Tuple[bool, str]:
        """check_hecke(R, q)."""
        return check_hecke(self.R, self.q)

    def check_braid(self) -> Tuple[bool, str]:
        """check_braid(R)."""
        return check_braid(self.R)

    # -- actions

    def _packed(self, terms: Sequence, n: int, vec: Sequence, m: int = 1) -> Packed:
        """Sum of c * T_word over the (word, c) terms on V^(x)n, c None meaning 1, on vec, or on the family
        of m vectors stacked in vec (linalg._stack), by one action (_packed_act)."""
        if len(vec) != self.N ** n * m:
            raise ValueError("vector length mismatch")
        if any(not 1 <= i < n for word, _c in terms for i in word):
            raise ValueError("generator index out of range")
        return _packed_act(column_table(self.R), self.N, terms, vec, self.field.zero(), m)

    def apply_generator(self, i: int, n: int, vec: Sequence) -> tuple:
        """T_i acting on a vector of V^(x)n."""
        return self._packed([((i,), None)], n, vec).values()

    def apply_perm_word(self, word: Sequence[int], n: int, vec: Sequence) -> tuple:
        """T_sigma acting on a vector, sigma given by a reduced word."""
        return self._packed([(tuple(word), None)], n, vec).values()

    def apply_hecke(self, h: HeckeElement, n: int, vec: Sequence) -> tuple:
        """A Hecke algebra element acting on a vector of V^(x)n."""
        return self._packed(self._hecke_terms(h, n), n, vec).values()

    def _hecke_terms(self, h: HeckeElement, n: int) -> list:
        """The (word, c) terms of h, refused when h has a higher degree than n or another field."""
        if h.n > n:
            raise ValueError("element degree exceeds tensor degree")
        if h.field != self.field:
            raise ValueError("mixed fields")
        return [(word, c) for _p, word, c in h.field_terms()]

    def _rep(self, terms: Sequence, n: int) -> MatrixF:
        """Matrix of sum c * T_word on V^(x)n, read off the action column by column; the cap (_bound) is checked first."""
        if any(not 1 <= i < n for word, _c in terms for i in word):
            raise ValueError("generator index out of range")
        self._bound(n)
        return _matrix_of(column_table(self.R), self.N, self.N ** n, terms, self.field)

    def generator_matrix(self, i: int, n: int) -> MatrixF:
        """Matrix of T_i = Id^(i-1) (x) R (x) Id^(n-i-1) on V^(x)n."""
        return self._rep([((i,), None)], n)

    def perm_matrix(self, p: Perm, n: int) -> MatrixF:
        """Matrix of T_sigma on V^(x)n, sigma acting along a reduced word."""
        return self._rep([(p.reduced_word(), None)], n)

    def rep_matrix(self, h: HeckeElement, n: int) -> MatrixF:
        """Matrix of a Hecke algebra element acting on V^(x)n."""
        return self._rep(self._hecke_terms(h, n), n)

    # -- graded subspaces

    def _bound(self, n: int):
        dim = self.N ** n
        if dim > TENSOR_DIM_CAP:
            raise SymmetryError("tensor dimension %d exceeds the cap" % dim)

    def upsilon(self, n: int) -> Subspace:
        """Intersection of the images of (T_i - q) on V^(x)n.

        upsilon(2) is Im(R - q); for n >= 3 the slot-local form of T_i gives
        upsilon(n) = (upsilon(n-1) (x) V) cap (V^(x)(n-2) (x) upsilon(2)).
        """
        if n < 0:
            raise ValueError("degree must be nonnegative")
        got = self._upsilon.get(n)
        if got is not None:
            return got
        self._bound(n)
        if n <= 1:
            out = Subspace.full(self.N ** n, self.field)
        elif n == 2:
            # R - q Id: q is subtracted on the diagonal only
            entries, step = list(self.R.entries), self.N ** 2 + 1
            entries[::step] = [x - self.q for x in entries[::step]]
            out = MatrixF(self.N ** 2, self.N ** 2, entries, self.field).image()
        else:
            out = self._extend(self.upsilon(n - 1), n)
        self._upsilon[n] = out
        return out

    def _annihilator(self) -> MatrixF:
        """ann(upsilon(2)) as the N x (a N) matrix Acat[s, (f, k)] = a_f[s N + k], kept: a_f = e_f - sum_r b_r[f] e_(p_r)
        for each free column f, read off upsilon(2)'s RREF basis b_r (pivots p_r) with no elimination."""
        got = self._ann
        if got is None:
            N, zero, ups = self.N, self.field.zero(), self.upsilon(2)
            pivots = ups.pivots()
            anns = [{f: self.field.one(), **{p: -b[f] for b, p in zip(ups.basis, pivots) if b[f]}} for f in range(N * N) if f not in pivots]
            got = MatrixF(N, len(anns) * N, [a.get(s * N + k, zero) for s in range(N) for a in anns for k in range(N)], self.field)
            object.__setattr__(self, "_ann", got)
        return got

    def _extend(self, prev: Subspace, n: int) -> Subspace:
        """(prev (x) V) cap (V^(x)(n-2) (x) upsilon(2)) inside V^(x)n: one constraint product, one kernel, one
        solution product.

        x = sum c_(j,k) b_j (x) e_k over prev's basis b_j is in the second space
        iff sum_(s,k) a_f[s N + k] x[(w N + s) N + k] = 0 for each prefix w and
        annihilator a_f, where c_(j,k) has the coefficient (Bw Acat)[(j, w),
        (f, k)], Bw[(j, w), s] = b_j[w N + s] (_annihilator gives Acat).  The c
        form the kernel of those rows, in RREF over (j, k), and the b_j are in
        RREF with pivots pi_j, so the x = B^t C are upsilon(n)'s canonical
        basis as they come: b_j (x) e_k alone is nonzero at pi_j N + k, where x
        reads c_(j,k) (1 at c's pivot, 0 at the other c's pivots), and x's
        first nonzero is at pi_j N + k for c's pivot (j, k).
        """
        N, field = self.N, self.field
        if prev.is_zero():
            return Subspace.zero(N ** n, field)
        A = self._annihilator()
        d, W, V, width = prev.dim, N ** (n - 2), N ** (n - 1), A.cols
        P = (MatrixF(d * W, N, [x for b in prev.basis for x in b], field) * A).entries
        rows = []
        for w in range(W):
            for f in range(w * width, (w + 1) * width, N):
                # constraint (w, f): the (j, w) rows of P at the columns (f, k)
                row = [x for j in range(f, len(P), W * width) for x in P[j : j + N]]
                if any(row):
                    rows += row
        C = MatrixF(len(rows) // (d * N), d * N, rows, field).kernel().basis
        if not C:
            return Subspace.zero(N ** n, field)
        # X[v, (i, k)] = x_i[v N + k], K = len(C) N per row
        K = len(C) * N
        Bt = MatrixF(V, d, [b[v] for v in range(V) for b in prev.basis], field)
        X = (Bt * MatrixF(d, K, [x for j in range(0, d * N, N) for c in C for x in c[j : j + N]], field)).entries
        return Subspace(N ** n, tuple(tuple(x for v in range(i, len(X), K) for x in X[v : v + N]) for i in range(0, K, N)), field)

    def _transpose(self) -> "HeckeSymmetry":
        """The symmetry R^t, cached and unvalidated (R^t satisfies whatever R does)."""
        got = self._dual
        if got is None:
            got = self.dual(validate=False)
            object.__setattr__(self, "_dual", got)
        return got

    def ideal_component(self, n: int) -> Subspace:
        """Sum of the kernels of (T_i - q) on V^(x)n (n >= 2); at q = -1 this need not equal sum Im(T_i + 1).

        Since (ker A)^perp = Im(A^t), this is the annihilator of upsilon(n) of
        the transpose symmetry R^t.
        """
        if n < 2:
            raise ValueError("ideal components start at degree 2")
        return self._transpose().upsilon(n).annihilator()

    def lambda_dim(self, n: int) -> int:
        """dim of degree n of the quotient of T(V) by sum ker(T_i - q), the q-eigenspace relations.

        The relations span ideal_component(n), whose codimension is the
        dimension of upsilon(n) of the transpose symmetry R^t.  At q = -1 the
        quotient by sum Im(T_i + 1) can be larger: 3 against 1 for dj(2) and
        6 against 3 for dj(3) in degree 2.
        """
        return self._transpose().upsilon(n).dim

    # -- star product

    def star(self, a: Sequence, k: int, b: Sequence, l: int) -> tuple:
        """a * b = y_(k+l/k,l)(a (x) b) for a in upsilon(k), b in upsilon(l)."""
        if len(a) != self.N ** k or len(b) != self.N ** l:
            raise ValueError("vector length mismatch")
        if not self.upsilon(k).contains(a):
            raise ValueError("left factor is not in upsilon(%d)" % k)
        if not self.upsilon(l).contains(b):
            raise ValueError("right factor is not in upsilon(%d)" % l)
        ab = kron_vec(a, b, self.field)
        if k == 0 or l == 0:
            return ab
        out = self.apply_hecke(coset_y(k + l, k, l, self.field), k + l, ab)
        if not self.upsilon(k + l).contains(out):
            raise ValueError("star product left upsilon(%d)" % (k + l))
        return out

    # -- derived symmetries

    def dual(self, validate: bool = True) -> "HeckeSymmetry":
        """The transpose, a Hecke symmetry on the dual space."""
        return HeckeSymmetry(self.N, self.q, self.R.transpose(), name=self.name + ".dual", validate=validate)

    def opposite(self) -> "HeckeSymmetry":
        """Conjugate by the flip of tensorands."""
        N = self.N
        swap = _swapped_pairs(N)
        entries = [self.R[swap[i], swap[j]] for i in range(N * N) for j in range(N * N)]
        return HeckeSymmetry(N, self.q, MatrixF(N * N, N * N, entries, self.field), name=self.name + ".op")

    def conjugate(self, tau: MatrixF) -> "HeckeSymmetry":
        """(tau (x) tau) R (tau^-1 (x) tau^-1): R from slot 1 on the columns of tau^-1 (x) tau^-1, placed from tau^-1's
        (as frobenius._square_sides), then tau on the two slots of each column, two actions with the columns as lanes."""
        if tau.rows != self.N or tau.cols != self.N:
            raise ValueError("conjugating operator must be N x N")
        N, zero, inv = self.N, self.field.zero(), tau.inverse()
        right = _packed_act(column_table(self.R), N, [((1,), None)], Placed(*[[inv.col(j) for j in range(N)]] * 2), zero, N * N)
        R = _packed_act(column_table(tau), N, [((1, 2), None)], right.values(), zero, N * N).values()
        return HeckeSymmetry(N, self.q, MatrixF(N * N, N * N, R, self.field), name=self.name + ".conj")

    # -- JSON document

    def to_json_dict(self) -> dict:
        field = {"kind": self.field.kind, "order": self.field.order}
        qstr = "q" if self.field.kind == "ratfunc_q" else format_scalar(self.q)
        matrix = [
            [format_scalar(self.R[i, j]) for j in range(self.N * self.N)]
            for i in range(self.N * self.N)
        ]
        return {"dim": self.N, "field": field, "q": qstr, "matrix": matrix}

    @staticmethod
    def from_json_dict(doc: dict, validate: bool = True) -> "HeckeSymmetry":
        try:
            N = int(doc["dim"])
            fkind = doc["field"]["kind"]
            forder = int(doc["field"].get("order", 1))
            qstr = doc["q"]
            matrix = doc["matrix"]
        except (KeyError, TypeError) as exc:
            raise SymmetryError("malformed document: missing %s" % exc) from None
        _check_catalog_dim(N)
        base = FieldSpec(fkind, forder)
        qval = parse_scalar(qstr, base)
        field = base if fkind == "ratfunc_q" else base.with_q(qval)
        if len(matrix) != N * N or any(len(r) != N * N for r in matrix):
            raise SymmetryError("matrix must be %d x %d" % (N * N, N * N))
        entries = [parse_scalar(s, field) for row in matrix for s in row]
        return HeckeSymmetry(N, field.q(), MatrixF(N * N, N * N, entries, field), validate=validate)

    @staticmethod
    def from_json(text: str, validate: bool = True) -> "HeckeSymmetry":
        return HeckeSymmetry.from_json_dict(json.loads(text), validate=validate)


# ---------------------------------------------------------------------------
# built-in catalog


def _swapped_pairs(N: int) -> List[int]:
    """Position of e_b (x) e_a, for each position of e_a (x) e_b in V (x) V."""
    return [tensor_index(index_word(i, 2, N)[::-1], N) for i in range(N * N)]


def _check_catalog_dim(N: int):
    """Refuses N < 1 and N^2 > TENSOR_DIM_CAP, for the catalog and for documents, before any allocation."""
    if N < 1:
        raise SymmetryError("dimension must be >= 1")
    if N * N > TENSOR_DIM_CAP:
        raise SymmetryError("dimension %d exceeds the cap: N^2 must be at most %d" % (N, TENSOR_DIM_CAP))


def dj_standard(N: int, field: FieldSpec = GENERIC_Q, validate: bool = True) -> HeckeSymmetry:
    """The standard one-parameter deformation of the flip on k^N.

    e_i (x) e_i maps to q e_i (x) e_i; for i < j, e_i (x) e_j maps to
    q e_j (x) e_i + (q-1) e_i (x) e_j and e_j (x) e_i to e_i (x) e_j.
    Needs 1 <= N and N^2 <= TENSOR_DIM_CAP, checked before any allocation.
    """
    _check_catalog_dim(N)
    q = field.q()
    zero = field.zero()
    dim = N * N
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            col = tensor_index((i, j), N)
            swapped = tensor_index((j, i), N)
            if i == j:
                entries[(col, col)] = q
            elif i < j:
                entries[(swapped, col)] = q
                entries[(col, col)] = q - 1
            else:
                entries[(swapped, col)] = field.one()
    flat = [zero] * (dim * dim)
    for (r, c), v in entries.items():
        flat[r * dim + c] = v
    return HeckeSymmetry(N, q, MatrixF(dim, dim, flat, field), name="dj(%d)" % N, validate=validate)


def flip(N: int, validate: bool = True) -> HeckeSymmetry:
    """The plain flip of tensorands, an involutive symmetry with q = 1.

    Needs 1 <= N and N^2 <= TENSOR_DIM_CAP, checked before any allocation.
    """
    _check_catalog_dim(N)
    field = FieldSpec("rational", qval=(1,))
    zero, one = field.zero(), field.one()
    dim = N * N
    flat = [zero] * (dim * dim)
    for col, row in enumerate(_swapped_pairs(N)):
        flat[row * dim + col] = one
    return HeckeSymmetry(N, field.q(), MatrixF(dim, dim, flat, field), name="flip(%d)" % N, validate=validate)
