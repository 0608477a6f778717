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

a kernel in dim upsilon(n-1) * N unknowns; it uses no eigenspace splitting,
so it holds for every q, q = -1 included.  By duality, (ker A)^perp =
Im(A^t), so ideal_component(n) is the annihilator of upsilon(n) of the
transpose symmetry R^t and lambda_dim(n) = dim V^(x)n - dim ideal_component(n)
is that upsilon's dimension.

Tensor basis indexing is lexicographic: the word (i_1,...,i_n) over 1..N
sits at position sum (i_k - 1) N^(n-k).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactnum import FieldSpec, GENERIC_Q, Scalar
from .exprio import format_scalar, parse_scalar
from .heckealg import HeckeElement, coset_y
from .linalg import MatrixF, Subspace, vec_is_zero
from .permgroup import Perm, transposition

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
    "apply_slots",
    "apply_power",
    "TENSOR_DIM_CAP",
    "REP_DIM_CAP",
]

TENSOR_DIM_CAP = 256
REP_DIM_CAP = 20000


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


def kron_vec(a: Sequence, b: Sequence, domain) -> tuple:
    zero = domain.zero()
    out = [zero] * (len(a) * len(b))
    lb = len(b)
    for i, x in enumerate(a):
        if not x.is_zero():
            base = i * lb
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[base + j] = x * y
    return tuple(out)


def column_table(A: MatrixF) -> List[List[tuple]]:
    """Column j of A as the list of its nonzero entries (i, A[i, j])."""
    return [[(i, A[i, j]) for i in range(A.rows) if not A[i, j].is_zero()] for j in range(A.cols)]


def apply_slots(cols: Sequence, first: int, N: int, vec: Sequence, zero) -> tuple:
    """Id (x) A (x) Id on a vector of V^(x)n, with A on the slots from first on.

    A is an N^w x N^w operator on w consecutive slots, the first of them at
    1-based position first, given by its column table (see column_table).
    Only the nonzero coordinates of vec are visited; zero is that of the
    vector's domain.
    """
    if first < 1:
        raise ValueError("slots out of range")
    width = len(cols)
    tail, rest = divmod(len(vec), N ** (first - 1) * width)
    if rest or not tail:
        raise ValueError("slots out of range")
    out = [zero] * len(vec)
    for idx, x in enumerate(vec):
        if x.is_zero():
            continue
        local = (idx // tail) % width
        base = idx - local * tail
        for row, coeff in cols[local]:
            tgt = base + row * tail
            out[tgt] = out[tgt] + coeff * x
    return tuple(out)


def apply_power(A: MatrixF, k: int, vec: Sequence, zero=None) -> tuple:
    """A^(x)k on a vector of V^(x)k, applied one slot at a time.

    zero is that of the vector's domain (by default the domain of A).
    """
    if A.rows != A.cols or len(vec) != A.rows ** k:
        raise ValueError("vector length mismatch")
    cols = column_table(A)
    zero = A.domain.zero() if zero is None else zero
    for s in range(1, k + 1):
        vec = apply_slots(cols, s, A.rows, vec, zero)
    return tuple(vec)


def _vanishes(M: MatrixF) -> Tuple[bool, str]:
    """Whether M is zero, with its first nonzero entry as the witness if not."""
    for i in range(M.rows):
        for j in range(M.cols):
            if not M[i, j].is_zero():
                return False, "entry (%d,%d) = %s" % (i, j, format_scalar(M[i, j]))
    return True, ""


def check_hecke(R: MatrixF, q: Scalar) -> Tuple[bool, str]:
    """Exact test of (R - q Id)(R + Id) = 0; witness entry on failure."""
    I = MatrixF.identity(R.rows, R.domain)
    return _vanishes((R - I.scale(q)) * (R + I))


def braid_defect(R: MatrixF) -> MatrixF:
    """(R (x) I)(I (x) R)(R (x) I) - (I (x) R)(R (x) I)(I (x) R) on V^(x)3."""
    N = math.isqrt(R.rows)
    if N * N != R.rows:
        raise ValueError("operator size is not a perfect square")
    I = MatrixF.identity(N, R.domain)
    R12 = R.kronecker(I)
    R23 = I.kronecker(R)
    return R12 * R23 * R12 - R23 * R12 * R23


def check_braid(R: MatrixF) -> Tuple[bool, str]:
    """Exact test of the braid equation on V^(x)3; witness on failure."""
    return _vanishes(braid_defect(R))


class HeckeSymmetry:
    """A validated Hecke symmetry with cached tensor-power machinery."""

    __slots__ = ("N", "field", "q", "R", "_cols", "_upsilon", "_dual", "_reps", "name")

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
        object.__setattr__(self, "_cols", None)
        object.__setattr__(self, "_upsilon", {})
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_reps", {})
        if validate:
            ok, witness = check_hecke(R, q)
            if not ok:
                raise SymmetryError("quadratic relation fails: " + witness)
            ok, witness = check_braid(R)
            if not ok:
                raise SymmetryError("braid equation fails: " + witness)

    def __setattr__(self, *args):
        raise AttributeError("HeckeSymmetry is immutable")

    def __repr__(self):
        return "HeckeSymmetry(N=%d%s)" % (self.N, ", " + self.name if self.name else "")

    def _column_table(self) -> List[List[Tuple[int, Scalar]]]:
        """The nonzero entries of each column of R, cached."""
        cols = self._cols
        if cols is None:
            cols = column_table(self.R)
            object.__setattr__(self, "_cols", cols)
        return cols

    # -- actions

    def apply_generator(self, i: int, n: int, vec: Sequence) -> tuple:
        """T_i acting on a vector of V^(x)n."""
        if not 1 <= i < n:
            raise ValueError("generator index out of range")
        if len(vec) != self.N ** n:
            raise ValueError("vector length mismatch")
        return apply_slots(self._column_table(), i, self.N, vec, self.field.zero())

    def apply_perm_word(self, word: Sequence[int], n: int, vec: Sequence) -> tuple:
        """T_sigma acting on a vector, sigma given by a reduced word."""
        for i in reversed(list(word)):
            vec = self.apply_generator(i, n, vec)
        return tuple(vec)

    def apply_hecke(self, h: HeckeElement, n: int, vec: Sequence) -> tuple:
        """A Hecke algebra element acting on a vector of V^(x)n."""
        if h.n > n:
            raise ValueError("element degree exceeds tensor degree")
        if h.field != self.field:
            raise ValueError("mixed fields")
        zero = self.field.zero()
        out = [zero] * len(vec)
        for _p, word, c in h.field_terms():
            piece = self.apply_perm_word(word, n, vec)
            for k, y in enumerate(piece):
                if not y.is_zero():
                    out[k] = out[k] + c * y
        return tuple(out)

    def generator_matrix(self, i: int, n: int) -> MatrixF:
        """Matrix of T_i = Id^(i-1) (x) R (x) Id^(n-i-1) on V^(x)n."""
        if not 1 <= i < n:
            raise ValueError("generator index out of range")
        N = self.N
        dim = N ** n
        if dim > REP_DIM_CAP:
            raise SymmetryError("tensor dimension %d exceeds the cap %d" % (dim, REP_DIM_CAP))
        head = MatrixF.identity(N ** (i - 1), self.field)
        tail = MatrixF.identity(N ** (n - i - 1), self.field)
        return head.kronecker(self.R).kronecker(tail)

    def perm_matrix(self, p: Perm, n: int) -> MatrixF:
        """Matrix of T_sigma on V^(x)n, memoized along the weak order."""
        key = (n, p)
        reps = self._reps
        got = reps.get(key)
        if got is not None:
            return got
        if p.is_identity():
            out = MatrixF.identity(self.N ** n, self.field)
        else:
            i = p.descent_left()
            rest = transposition(i, p.degree) * p
            out = self.generator_matrix(i, n) * self.perm_matrix(rest, n)
        reps[key] = out
        return out

    def rep_matrix(self, h: HeckeElement, n: int) -> MatrixF:
        """Matrix of a Hecke algebra element acting on V^(x)n."""
        if h.n > n:
            raise ValueError("element degree exceeds tensor degree")
        if h.field != self.field:
            raise ValueError("mixed fields")
        dim = self.N ** n
        if dim > REP_DIM_CAP:
            raise SymmetryError("tensor dimension %d exceeds the cap %d" % (dim, REP_DIM_CAP))
        out = MatrixF.zeros(dim, dim, self.field)
        for p, _word, c in h.field_terms():
            padded = Perm(p.word + tuple(range(p.degree + 1, n + 1)))
            out = out + self.perm_matrix(padded, n).scale(c)
        return out

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
            out = (self.R - MatrixF.identity(self.N ** 2, self.field).scale(self.q)).image()
        else:
            out = self._extend(self.upsilon(n - 1), n)
        self._upsilon[n] = out
        return out

    def _extend(self, prev: Subspace, n: int) -> Subspace:
        """(prev (x) V) cap (V^(x)(n-2) (x) upsilon(2)) inside V^(x)n.

        An element x = sum c_(j,k) b_j (x) e_k over the basis b_j of prev lies
        in the second space iff a . x[w, :, :] = 0 for every prefix w of
        length n-2 and every covector a annihilating upsilon(2); the c_(j,k)
        solving these equations form a kernel with dim(prev) * N columns.
        """
        N, field = self.N, self.field
        if prev.is_zero():
            return Subspace.zero(N ** n, field)
        zero = field.zero()
        ann = self.upsilon(2).annihilator().basis  # cached: the recursion passed degree 2
        width = prev.dim * N
        rows = []
        for w in range(N ** (n - 2)):
            slices = [b[w * N : (w + 1) * N] for b in prev.basis]
            if all(vec_is_zero(sl) for sl in slices):
                continue
            for a in ann:
                row = [zero] * width
                for j, sl in enumerate(slices):
                    for s, x in enumerate(sl):
                        if x.is_zero():
                            continue
                        for k in range(N):
                            c = a[s * N + k]
                            if not c.is_zero():
                                row[j * N + k] = row[j * N + k] + c * x
                if not vec_is_zero(row):
                    rows.extend(row)
        combos = MatrixF(len(rows) // width, width, rows, field).kernel()
        vectors = []
        for c in combos.basis:
            x = [zero] * N ** n
            for j, b in enumerate(prev.basis):
                for m, y in enumerate(b):
                    if y.is_zero():
                        continue
                    for k in range(N):
                        cjk = c[j * N + k]
                        if not cjk.is_zero():
                            x[m * N + k] = x[m * N + k] + cjk * y
            vectors.append(x)
        return Subspace.from_vectors(vectors, N ** n, field)

    def _transpose(self) -> "HeckeSymmetry":
        """The symmetry R^t, cached and unvalidated (R^t satisfies whatever R does)."""
        got = self._dual
        if got is None:
            got = self.dual(validate=False)
            object.__setattr__(self, "_dual", got)
        return got

    def ideal_component(self, n: int) -> Subspace:
        """Sum of the kernels of (T_i - q) on V^(x)n (n >= 2).

        Since (ker A)^perp = Im(A^t), this is the annihilator of upsilon(n) of
        the transpose symmetry R^t.
        """
        if n < 2:
            raise ValueError("ideal components start at degree 2")
        return self._transpose().upsilon(n).annihilator()

    def lambda_dim(self, n: int) -> int:
        """dim of degree n of the quotient by the q-eigenspace relations.

        The relations span ideal_component(n), whose codimension is the
        dimension of upsilon(n) of the transpose symmetry R^t.
        """
        return self._transpose().upsilon(n).dim

    # -- star product

    def star(self, a: Sequence, k: int, b: Sequence, l: int, check_membership: bool = True) -> tuple:
        """a * b = y_(k+l/k,l)(a (x) b) for a in upsilon(k), b in upsilon(l)."""
        if len(a) != self.N ** k or len(b) != self.N ** l:
            raise ValueError("vector length mismatch")
        if check_membership:
            if not self.upsilon(k).contains(a):
                raise ValueError("left factor is not in upsilon(%d)" % k)
            if not self.upsilon(l).contains(b):
                raise ValueError("right factor is not in upsilon(%d)" % l)
        ab = kron_vec(a, b, self.field)
        if k == 0 or l == 0:
            return ab
        out = self.apply_hecke(coset_y(k + l, k, l, self.field), k + l, ab)
        if check_membership and not self.upsilon(k + l).contains(out):
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
        """(tau (x) tau) R (tau^-1 (x) tau^-1)."""
        if tau.rows != self.N or tau.cols != self.N:
            raise ValueError("conjugating operator must be N x N")
        # the columns of (tau (x) tau) R, then the rows of that times tau^-1 (x) tau^-1
        left = [apply_power(tau, 2, self.R.col(j)) for j in range(self.N ** 2)]
        tinv_t = tau.inverse().transpose()
        rows = [apply_power(tinv_t, 2, row) for row in zip(*left)]
        return HeckeSymmetry(self.N, self.q, MatrixF.from_rows(rows, self.field), name=self.name + ".conj")

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
    if N < 1:
        raise SymmetryError("dimension must be >= 1")
    if N * N > TENSOR_DIM_CAP:
        raise SymmetryError("dimension %d exceeds the cap: N^2 must be at most %d" % (N, TENSOR_DIM_CAP))


def dj_standard(N: int, field: FieldSpec = GENERIC_Q) -> HeckeSymmetry:
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
    return HeckeSymmetry(N, q, MatrixF(dim, dim, flat, field), name="dj(%d)" % N)


def flip(N: int) -> HeckeSymmetry:
    """The plain flip of tensorands, an involutive symmetry with q = 1.

    Needs 1 <= N and N^2 <= TENSOR_DIM_CAP, checked before any allocation.
    """
    _check_catalog_dim(N)
    field = FieldSpec("rational", qval=(Fraction(1),))
    zero, one = field.zero(), field.one()
    dim = N * N
    flat = [zero] * (dim * dim)
    for col, row in enumerate(_swapped_pairs(N)):
        flat[row * dim + col] = one
    return HeckeSymmetry(N, field.q(), MatrixF(dim, dim, flat, field), name="flip(%d)" % N)
