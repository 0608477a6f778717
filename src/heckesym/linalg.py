"""Exact dense linear algebra over any of the package's scalar domains.

MatrixF carries its domain (a FieldSpec for field scalars, a PolyRing for
polynomial entries).  Row reduction, kernels, images, subspace sums and
intersections need a field; products and determinants also work over
polynomial rings.  No Kronecker power of a matrix is formed: `kron_vec` is
the one Kronecker product, of two vectors, and `Placed` keeps a family of
them as its two factors for a slot action.  `det` is the Laplace expansion
memoized over column subsets on every domain, exponential in n, for the
small matrices whose value is used; nonsingularity is a `rank` question.
Over a field a product entry and a cofactor sum are chains of x + a * b;
over a PolyRing each is one `PolyRing.dot` of its nonzero pairs, summed in
a single term table, and a lone product is taken as it is.

Subspaces of k^D are stored as the nonzero rows of a reduced row echelon
form, so equal subspaces have identical bases and == is structural.  By
duality, U cap W is the annihilator of ann(U) + ann(W).
"""

from __future__ import annotations

from itertools import product, zip_longest
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .exactnum import FieldSpec, _pmul, at_lanes, pack_q
from .multipoly import MultiPoly, PolyRing

__all__ = ["MatrixF", "Subspace", "Placed", "kron_vec", "vec_scale", "vec_is_zero", "vec_pivot", "vec_combination", "first_minor"]

Domain = Union[FieldSpec, PolyRing]


def _is_field(domain: Domain) -> bool:
    return isinstance(domain, FieldSpec)


# -- free functions on plain-sequence vectors


def kron_vec(a: Sequence, b: Sequence, domain) -> tuple:
    """a (x) b: entry i * len(b) + j is a[i] b[j], with no product where either is zero."""
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


def _stack(rows: Iterable, m: int, zero) -> list:
    """sum_j rows[j] (x) e_j over m rows: entry i * m + j is rows[j][i], each row written straight into its slice
    (rows may be a generator).  symmetry._packed_act takes the family with m and packs each tensor coordinate's m entries
    into one int."""
    out = []
    for j, row in enumerate(rows):
        if not out:
            out = [zero] * (len(row) * m)
        out[j::m] = row
    return out


class Placed:
    """The family of the vectors left[a] (x) right[b], lane a len(right) + b, kept as its two factors: the family
    _stack makes of their kron_vec products, with no Scalar per coordinate, such as t (x) a basis of upsilon(k)
    or t (x) e_j.  A factor is a list of vectors or a range of units e_j of k^d, the identity basis: d is dim for
    the left (its stop by default) and the stop for the right, whose default range(1) is the unit 1."""

    __slots__ = ("factors", "dims")

    def __init__(self, left, right=range(1), dim: Optional[int] = None):
        self.factors = left, right
        self.dims = [dim or left.stop if isinstance(left, range) else len(left[0]), right.stop if isinstance(right, range) else len(right[0])]

    def __len__(self) -> int:
        return self.dims[0] * self.dims[1] * len(self.factors[0]) * len(self.factors[1])

    def pack(self, field: FieldSpec) -> tuple:
        """(den, peak, lanes) for the family stacked, as symmetry._packed_act packs a Scalar family: a denominator, a
        bound on the coefficients and lanes(bits), the ints at digit width bits (at_lanes).  Each factor is packed
        once (pack_q); units shift the other factor's ints into place, and of two factors of vectors the int at
        (i, j) is the left's at i, through their multiplication matrix, times the right's at j, den the product of
        theirs and peak the left's largest mul_matrices row sum times the right's largest coefficient."""
        (left, right), (dl, dr), ctx, mr = self.factors, self.dims, field._cyc, len(self.factors[1])
        packs = [None if isinstance(f, range) else pack_q(field, [v[i] for i in range(d) for v in f]) for f, d in zip(self.factors, self.dims)]
        tops = [1 if p is None else max([abs(c) for ps in p[1] for x in ps for c in x], default=0) for p in packs]
        if None not in packs:
            # a row sum of each left entry's multiplication matrix (exactnum.mul_matrices), over the powers of q
            rows = lambda x: zip(*[[sum(map(abs, row)) for row in ctx.mul_matrix(v)] for v in zip_longest(*x, fillvalue=0)])
            tops[0] = max([sum(r) for x in zip(*packs[0][1]) if any(x) for r in rows(x)], default=0)

        def lanes(bits: int) -> list:
            L, R = [p and [at_lanes(ps, w, len(f), len(left) * mr * bits) for ps in p[1]] for f, p, w in zip(self.factors, packs, (mr * bits, bits))]
            R = R or [[1 << (bits * (j - right.start)) if j in right else 0 for j in range(dr)]] + [[0] * dr] * (ctx.deg - 1)
            out = [[0] * (dl * dr) for _ in range(ctx.deg)]
            if L is None:
                # e_i (x) y for the consecutive rows i of left: y's ints shifted into lane i - left.start
                for c, ys in enumerate(R):
                    out[c][left.start * dr : left.stop * dr] = [y << (mr * bits * a) for a in range(len(left)) for y in ys]
            elif isinstance(right, range):
                # x (x) e_j for the units j of right: x's ints shifted into lane j - right.start
                for j, (c, xs) in product(right, enumerate(L)):
                    out[c][j::dr] = [x << (bits * (j - right.start)) for x in xs]
            else:
                nonzero = [(j, ys) for j, ys in enumerate(zip(*R)) if any(ys)]
                for i, xs in enumerate(zip(*L)):
                    rows = list(enumerate(ctx.mul_matrix(xs))) if any(xs) else ()
                    for (j, ys), (c, row) in product(nonzero if rows else (), rows):
                        out[c][i * dr + j] = sum(map(mul, row, ys))
            return out

        return _pmul(ctx, *[ctx.unit if p is None else p[0] for p in packs]), tops[0] * tops[1], lanes


def vec_scale(c, u: Sequence):
    return tuple(c * x for x in u)


def vec_is_zero(u: Sequence) -> bool:
    return all(x.is_zero() for x in u)


def vec_pivot(u: Sequence) -> int:
    """The first nonzero coordinate of u; raises ValueError if there is none."""
    for i, x in enumerate(u):
        if not x.is_zero():
            return i
    raise ValueError("a zero vector has no pivot")


def first_minor(u: Sequence, v: Sequence) -> Optional[tuple]:
    """(i, u[i] v[p] - u[p] v[i]) for the first nonzero such minor, p the pivot of v, or None
    when u is a multiple of v; one pass, no division; ValueError for a zero v."""
    p = vec_pivot(v)
    for i, (x, y) in enumerate(zip(u, v)):
        if not (x.is_zero() and y.is_zero()) and x * v[p] != u[p] * y:
            return i, x * v[p] - u[p] * y
    return None


def vec_combination(coeffs: Sequence, vectors: Sequence[Sequence], zero) -> tuple:
    """sum_i c_i v_i, skipping zero coefficients and zero entries; over a PolyRing one dot per entry."""
    if isinstance(zero, MultiPoly):
        return tuple([zero.ring.dot(zip(coeffs, entries)) for entries in zip(*vectors)])
    out = [zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            for r, x in enumerate(v):
                if not x.is_zero():
                    out[r] = out[r] + c * x
    return tuple(out)


class MatrixF:
    """Dense row-major matrix with exact entries over a fixed domain."""

    __slots__ = ("rows", "cols", "entries", "domain", "_table")

    def __init__(self, rows: int, cols: int, entries: Sequence, domain: Domain):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "domain", domain)
        # symmetry.column_table's tables, built on first use; == and hash ignore them
        object.__setattr__(self, "_table", None)

    def __setattr__(self, *args):
        raise AttributeError("MatrixF is immutable")

    # -- constructors

    @staticmethod
    def from_rows(rows: Sequence[Sequence], domain: Domain) -> "MatrixF":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("need at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return MatrixF(len(rows), cols, [x for r in rows for x in r], domain)

    @staticmethod
    def identity(n: int, domain: Domain) -> "MatrixF":
        zero, one = domain.zero(), domain.one()
        return MatrixF(n, n, [one if i == j else zero for i in range(n) for j in range(n)], domain)

    # -- accessors

    def __getitem__(self, key: Tuple[int, int]):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def row_list(self) -> List[tuple]:
        return [self.row(i) for i in range(self.rows)]

    def _check(self, other: "MatrixF", same_shape: bool):
        if self.domain != other.domain:
            raise ValueError("mixed domains")
        if same_shape and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError("shape mismatch")

    # -- arithmetic

    def __add__(self, other: "MatrixF") -> "MatrixF":
        self._check(other, True)
        return MatrixF(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)], self.domain)

    def __sub__(self, other: "MatrixF") -> "MatrixF":
        self._check(other, True)
        return MatrixF(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)], self.domain)

    def __neg__(self) -> "MatrixF":
        return MatrixF(self.rows, self.cols, [-a for a in self.entries], self.domain)

    def scale(self, c) -> "MatrixF":
        """c times the matrix; zero entries are kept, with no product."""
        return MatrixF(self.rows, self.cols, [a if a.is_zero() else c * a for a in self.entries], self.domain)

    def __mul__(self, other: "MatrixF") -> "MatrixF":
        self._check(other, False)
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        n, m, p, zero = self.rows, self.cols, other.cols, self.domain.zero()
        if not _is_field(self.domain):
            brows, acc = [[(j, b) for j, b in enumerate(other.row(k)) if not b.is_zero()] for k in range(m)], [[] for _ in range(n * p)]
            for ik, a in enumerate(self.entries):
                for j, b in brows[ik % m] if not a.is_zero() else ():
                    acc[ik // m * p + j].append((a, b))
            return MatrixF(n, p, [self.domain.dot(ps) if len(ps) > 1 else ps[0][0] * ps[0][1] if ps else zero for ps in acc], self.domain)
        out = [zero] * (n * p)
        for i in range(n):
            arow = self.entries[i * m : (i + 1) * m]
            orow_base = i * p
            for k in range(m):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = other.entries[k * p : (k + 1) * p]
                for j in range(p):
                    b = brow[j]
                    if not b.is_zero():
                        out[orow_base + j] = out[orow_base + j] + a * b
        return MatrixF(n, p, out, self.domain)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times a column vector given as a plain sequence."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return (self * MatrixF(self.cols, 1, vector, self.domain)).entries

    def transpose(self) -> "MatrixF":
        return MatrixF(
            self.cols,
            self.rows,
            [self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)],
            self.domain,
        )

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        acc = self.domain.zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, MatrixF)
            and self.domain == other.domain
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries, self.domain))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __repr__(self):
        return "MatrixF(%dx%d over %r)" % (self.rows, self.cols, self.domain)

    # -- elimination

    def rref(self) -> Tuple["MatrixF", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        if not _is_field(self.domain):
            raise ValueError("row reduction needs field entries")
        rows = [list(r) for r in self.row_list()]
        pivots: List[int] = []
        r = 0
        for col in range(self.cols):
            pivot_row = None
            for i in range(r, len(rows)):
                if not rows[i][col].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][col].inverse()
            if not inv.is_one():
                rows[r] = [inv * x for x in rows[r]]
            for i in range(len(rows)):
                if i != r:
                    factor = rows[i][col]
                    if not factor.is_zero():
                        ri, rr = rows[i], rows[r]
                        rows[i] = [
                            x - factor * y if not y.is_zero() else x for x, y in zip(ri, rr)
                        ]
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
        flat = [x for row in rows for x in row]
        return MatrixF(len(rows), self.cols, flat, self.domain), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right null space {x : A x = 0} as a subspace of k^cols, from one elimination.

        A is row-reduced with its columns reversed, so the vector e_f - sum_r R[r, f] e_(p_r) of each free column f,
        mapped back, has its other entries at pivot columns after f.  By increasing f these vectors are the
        kernel's canonical RREF basis: each leads with 1 at f, where every other one is 0.
        """
        n = self.cols
        R, pivots = MatrixF(self.rows, n, [x for i in range(self.rows) for x in reversed(self.row(i))], self.domain).rref()
        pivot_set = set(pivots)
        zero, one = self.domain.zero(), self.domain.one()
        basis = []
        for j in range(n - 1, -1, -1):
            if j not in pivot_set:
                v = [zero] * n
                v[n - 1 - j] = one
                for r, pc in enumerate(pivots):
                    x = R[r, j]
                    if x:
                        v[n - 1 - pc] = -x
                basis.append(tuple(v))
        return Subspace(n, tuple(basis), self.domain)

    def image(self) -> "Subspace":
        """Column space as a subspace of k^rows."""
        return Subspace.from_vectors([self.col(j) for j in range(self.cols)], self.rows, self.domain)

    def solve(self, B: "MatrixF") -> Optional["MatrixF"]:
        """One solution X of A X = B, free unknowns zero, or None if some column of B is inconsistent.
        B holds one right-hand side per column, a vector being the one-column case; one rref of [A | B] serves all."""
        if B.rows != self.rows or B.domain != self.domain:
            raise ValueError("shape mismatch")
        n, m = self.cols, B.cols
        R, pivots = MatrixF(self.rows, n + m, [x for i in range(self.rows) for x in self.row(i) + B.row(i)], self.domain).rref()
        if pivots and pivots[-1] >= n:
            return None
        solved = {pc: R.row(r)[n:] for r, pc in enumerate(pivots)}
        zeros = (self.domain.zero(),) * m
        return MatrixF(n, m, [x for j in range(n) for x in solved.get(j, zeros)], self.domain)

    def inverse(self) -> "MatrixF":
        """A^-1, the solution of A X = Id; ZeroDivisionError if A is singular."""
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        X = self.solve(MatrixF.identity(self.rows, self.domain))
        if X is None:
            raise ZeroDivisionError("matrix is singular")
        return X

    # -- determinants

    def det(self):
        """Laplace expansion along the rows, memoized over column subsets (sparse friendly)."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        zero, field = self.domain.zero(), _is_field(self.domain)
        memo = {(): self.domain.one()}

        def minor(cols: Tuple[int, ...]):
            """The determinant of the last len(cols) rows on the columns cols."""
            got = memo.get(cols)
            if got is None:
                row = self.rows - len(cols)
                if not field:  # over a PolyRing the cofactor sum is one dot
                    got = memo[cols] = self.domain.dot((-a if idx % 2 else a, minor(cols[:idx] + cols[idx + 1 :])) for idx, a in enumerate([self[row, c] for c in cols]) if not a.is_zero())
                    return got
                got = zero
                for idx, col in enumerate(cols):
                    a = self[row, col]
                    if not a.is_zero():
                        term = a * minor(cols[:idx] + cols[idx + 1 :])
                        got = got - term if idx % 2 else got + term
                memo[cols] = got
            return got

        return minor(tuple(range(self.rows)))


class Subspace:
    """A subspace of k^ambient with a canonical RREF basis (rows)."""

    __slots__ = ("ambient", "basis", "domain")

    def __init__(self, ambient: int, basis: Tuple[tuple, ...], domain: Domain):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence], ambient: int, domain: Domain) -> "Subspace":
        vecs = [tuple(v) for v in vectors if not vec_is_zero(v)]
        if not vecs:
            return Subspace(ambient, (), domain)
        R, pivots = MatrixF.from_rows(vecs, domain).rref()
        basis = tuple(R.row(i) for i in range(len(pivots)))
        return Subspace(ambient, basis, domain)

    @staticmethod
    def zero(ambient: int, domain: Domain) -> "Subspace":
        return Subspace(ambient, (), domain)

    @staticmethod
    def full(ambient: int, domain: Domain) -> "Subspace":
        return Subspace.from_vectors(MatrixF.identity(ambient, domain).row_list(), ambient, domain)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def pivots(self) -> Tuple[int, ...]:
        return tuple([vec_pivot(row) for row in self.basis])

    def contains(self, vector: Sequence) -> bool:
        return self.coordinates(vector) is not None

    def coordinates(self, vector: Sequence) -> Optional[tuple]:
        """Coefficients of the vector in the canonical basis, or None."""
        v = list(vector)
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        coords = []
        for row, pc in zip(self.basis, self.pivots()):
            c = v[pc]
            coords.append(c)
            if not c.is_zero():
                for j, x in enumerate(row):
                    if not x.is_zero():
                        v[j] = v[j] - c * x
        if not all(x.is_zero() for x in v):
            return None
        return tuple(coords)

    def annihilator(self) -> "Subspace":
        """Covectors a with a . v = 0 for every v in the subspace."""
        return MatrixF(self.dim, self.ambient, [x for row in self.basis for x in row], self.domain).kernel()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(list(self.basis) + list(other.basis), self.ambient, self.domain)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The annihilator of the sum of the two annihilators."""
        self._check(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient or self.domain != other.domain:
            raise ValueError("mixed ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.domain == other.domain
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis, self.domain))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient)
