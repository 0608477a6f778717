"""Exact dense linear algebra over any of the package's scalar domains.

MatrixF carries its domain (a FieldSpec for field scalars, a PolyRing for
polynomial entries).  Row reduction, kernels, images, subspace sums and
intersections need a field; determinants also work over polynomial rings,
by a cofactor expansion memoized over column subsets.

Subspaces of k^D are stored as the nonzero rows of a reduced row echelon
form, so equal subspaces have identical bases and == is structural.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .exactnum import FieldSpec
from .multipoly import PolyRing

__all__ = ["MatrixF", "Subspace", "vec_add", "vec_sub", "vec_scale", "vec_is_zero", "vec_combination"]

Domain = Union[FieldSpec, PolyRing]


def _is_field(domain: Domain) -> bool:
    return isinstance(domain, FieldSpec)


# -- free functions on plain-sequence vectors


def vec_add(u: Sequence, v: Sequence):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Sequence, v: Sequence):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, u: Sequence):
    return tuple(c * x for x in u)


def vec_is_zero(u: Sequence) -> bool:
    return all(x.is_zero() for x in u)


def vec_combination(coeffs: Sequence, vectors: Sequence[Sequence], zero) -> tuple:
    """sum_i c_i v_i, skipping zero coefficients and zero entries."""
    out = [zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            for r, x in enumerate(v):
                if not x.is_zero():
                    out[r] = out[r] + c * x
    return tuple(out)


class MatrixF:
    """Dense row-major matrix with exact entries over a fixed domain."""

    __slots__ = ("rows", "cols", "entries", "domain")

    def __init__(self, rows: int, cols: int, entries: Sequence, domain: Domain):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "domain", domain)

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

    @staticmethod
    def zeros(rows: int, cols: int, domain: Domain) -> "MatrixF":
        zero = domain.zero()
        return MatrixF(rows, cols, [zero] * (rows * cols), domain)

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
        return MatrixF(self.rows, self.cols, [c * a for a in self.entries], self.domain)

    def __mul__(self, other: "MatrixF") -> "MatrixF":
        self._check(other, False)
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        zero = self.domain.zero()
        n, m, p = self.rows, self.cols, other.cols
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
        zero = self.domain.zero()
        out = [zero] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            acc = zero
            for j, v in enumerate(vector):
                if not v.is_zero():
                    a = self.entries[base + j]
                    if not a.is_zero():
                        acc = acc + a * v
            out[i] = acc
        return tuple(out)

    def transpose(self) -> "MatrixF":
        return MatrixF(
            self.cols,
            self.rows,
            [self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)],
            self.domain,
        )

    def kronecker(self, other: "MatrixF") -> "MatrixF":
        self._check(other, False)
        n, m = self.rows, self.cols
        p, q = other.rows, other.cols
        zero = self.domain.zero()
        out = [zero] * (n * p * m * q)
        for i in range(n):
            for j in range(m):
                a = self.entries[i * m + j]
                if a.is_zero():
                    continue
                for k in range(p):
                    base = (i * p + k) * (m * q) + j * q
                    for l in range(q):
                        b = other.entries[k * q + l]
                        if not b.is_zero():
                            out[base + l] = a * b
        return MatrixF(n * p, m * q, out, self.domain)

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
        """Right null space {x : A x = 0} as a subspace of k^cols."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        zero, one = self.domain.zero(), self.domain.one()
        basis = []
        for j in free:
            v = [zero] * self.cols
            v[j] = one
            for r, pc in enumerate(pivots):
                v[pc] = -R[r, j]
            basis.append(tuple(v))
        return Subspace.from_vectors(basis, self.cols, self.domain)

    def image(self) -> "Subspace":
        """Column space as a subspace of k^rows."""
        return Subspace.from_vectors([self.col(j) for j in range(self.cols)], self.rows, self.domain)

    def solve(self, b: Sequence) -> Optional[tuple]:
        """One solution of A x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        aug = MatrixF.from_rows(
            [self.row(i) + (b[i],) for i in range(self.rows)], self.domain
        )
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        zero = self.domain.zero()
        x = [zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = R[r, self.cols]
        return tuple(x)

    def inverse(self) -> "MatrixF":
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        aug = MatrixF.from_rows(
            [self.row(i) + MatrixF.identity(n, self.domain).row(i) for i in range(n)], self.domain
        )
        R, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return MatrixF.from_rows([R.row(i)[n:] for i in range(n)], self.domain)

    # -- determinants

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return self.domain.one()
        if _is_field(self.domain):
            return self._det_field()
        return self._det_cofactor()

    def _det_field(self):
        rows = [list(r) for r in self.row_list()]
        n = self.rows
        det = self.domain.one()
        for col in range(n):
            pivot_row = None
            for i in range(col, n):
                if not rows[i][col].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.domain.zero()
            if pivot_row != col:
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
                det = -det
            pivot = rows[col][col]
            det = det * pivot
            inv = pivot.inverse()
            for i in range(col + 1, n):
                factor = rows[i][col]
                if not factor.is_zero():
                    factor = factor * inv
                    rows[i] = [x - factor * y if not y.is_zero() else x for x, y in zip(rows[i], rows[col])]
        return det

    def _det_cofactor(self):
        """Laplace expansion memoized over column subsets (sparse friendly)."""
        n = self.rows
        zero = self.domain.zero()
        memo = {(): self.domain.one()}

        def minor(row: int, colmask: Tuple[int, ...]):
            if not colmask:
                return memo[()]
            key = colmask
            if (row, key) in memo:
                return memo[(row, key)]
            acc = zero
            sign = 1
            for idx, col in enumerate(colmask):
                a = self[row, col]
                if not a.is_zero():
                    rest = colmask[:idx] + colmask[idx + 1 :]
                    sub = minor(row + 1, rest)
                    term = a * sub
                    acc = acc + term if sign > 0 else acc - term
                sign = -sign
            memo[(row, key)] = acc
            return acc

        return minor(0, tuple(range(n)))


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
        out = []
        for row in self.basis:
            for j, x in enumerate(row):
                if not x.is_zero():
                    out.append(j)
                    break
        return tuple(out)

    def contains(self, vector: Sequence) -> bool:
        return self.coordinates(vector) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

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
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient, self.domain)
        # columns are the two bases, the second negated; kernel couples them
        cols = [tuple(v) for v in self.basis] + [vec_scale(-self.domain.one(), v) for v in other.basis]
        stacked = MatrixF.from_rows(cols, self.domain).transpose()
        combos = stacked.kernel()
        r = self.dim
        vectors = []
        for combo in combos.basis:
            w = [self.domain.zero()] * self.ambient
            for c, basis_row in zip(combo[:r], self.basis):
                if not c.is_zero():
                    for j, x in enumerate(basis_row):
                        if not x.is_zero():
                            w[j] = w[j] + c * x
            vectors.append(tuple(w))
        return Subspace.from_vectors(vectors, self.ambient, self.domain)

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
