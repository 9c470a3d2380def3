"""Dense exact matrices and canonical subspaces.

Everything is dense and exact; instances in scope stay well below 200x200.
Subspaces of k^d are kept in reduced row-echelon form, so set equality is
structural equality and subspaces are hashable.  Over GF(2) the elimination
kernels run on bit-packed integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field


class Matrix:
    """Immutable rows x cols matrix over an exact field (row-major)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        d = tuple(tuple(r) for r in data)
        if len(d) != rows or any(len(r) != cols for r in d):
            raise ValueError("matrix data does not match shape")
        self.data = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, data) -> "Matrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Matrix(field, rows, cols, data)

    @staticmethod
    def from_int_rows(field: Field, data) -> "Matrix":
        return Matrix.from_rows(field, [[field.of(x) for x in r] for r in data])

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for r in self.data for x in r)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Matrix(f, self.rows, self.cols,
                      [[f.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        return Matrix(f, self.rows, self.cols,
                      [[f.sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.neg(a) for a in r] for r in self.data])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.mul(c, a) for a in r] for r in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        if f.is_f2:
            pk = _pack_rows(other.data)
            out = []
            for r in self.data:
                acc = 0
                for j, a in enumerate(r):
                    if a:
                        acc ^= pk[j]
                out.append(_unpack_row(acc, other.cols))
            return Matrix(f, self.rows, other.cols, out)
        z = f.zero()
        ot = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for r in self.data:
            row = []
            for c in ot:
                acc = z
                for a, b in zip(r, c):
                    if a != z and b != z:
                        acc = f.add(acc, f.mul(a, b))
                row.append(acc)
            out.append(row)
        return Matrix(f, self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, list(zip(*self.data)) if self.data else [[] for _ in range(self.cols)])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      [list(a) + list(b) for a, b in zip(self.data, other.data)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      list(self.data) + list(other.data))

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix.from_rows(self.field,
                                [[self.data[i][j] for j in col_idx] for i in row_idx]
                                ) if row_idx else Matrix(self.field, 0, len(col_idx), [])

    def take_cols(self, col_idx) -> "Matrix":
        return Matrix(self.field, self.rows, len(col_idx),
                      [[r[j] for j in col_idx] for r in self.data])

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form (zero rows dropped) and pivot columns."""
        f = self.field
        if f.is_f2:
            packed = _rref_f2(_pack_rows(self.data), self.cols)
            rows = [_unpack_row(r, self.cols) for r, _ in packed]
            pivots = tuple(p for _, p in packed)
            return Matrix(f, len(rows), self.cols, rows), pivots
        rows = [list(r) for r in self.data]
        pivots: list[int] = []
        rank = 0
        for col in range(self.cols):
            sel = None
            for i in range(rank, len(rows)):
                if rows[i][col] != f.zero():
                    sel = i
                    break
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            inv = f.inv(rows[rank][col])
            rows[rank] = [f.mul(inv, x) for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col] != f.zero():
                    c = rows[i][col]
                    rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[rank])]
            pivots.append(col)
            rank += 1
        return Matrix(f, rank, self.cols, rows[:rank]), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].rows

    def right_kernel(self) -> "Matrix":
        """Canonical basis (RREF) of {v : A v^T = 0}, one row per basis vector."""
        r, pivots = self.rref()
        f = self.field
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        piv_of = {p: i for i, p in enumerate(pivots)}
        for j in free:
            v = [f.zero()] * self.cols
            v[j] = f.one()
            for p, i in piv_of.items():
                v[p] = f.neg(r.data[i][j])
            basis.append(v)
        m = Matrix(f, len(basis), self.cols, basis)
        return m.rref()[0]

    def left_kernel(self) -> "Matrix":
        """Canonical basis of {v : v A = 0}."""
        return self.transpose().right_kernel()

    def row_space(self) -> "Matrix":
        return self.rref()[0]

    def solve_left(self, b: "Matrix") -> "Matrix | None":
        """One X with X * self == b, or None.  b: k x cols, X: k x rows."""
        at = self.transpose()
        bt = b.transpose()
        xt = at.solve_right(bt)
        return None if xt is None else xt.transpose()

    def solve_right(self, b: "Matrix") -> "Matrix | None":
        """One X with self * X == b, or None.  b: rows x k, X: cols x k."""
        f = self.field
        aug = self.hstack(b)
        r, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        z = f.zero()
        out = [[z] * b.cols for _ in range(self.cols)]
        for i, p in enumerate(pivots):
            for j in range(b.cols):
                out[p][j] = r.data[i][self.cols + j]
        return Matrix(f, self.cols, b.cols, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        x = self.solve_right(Matrix.identity(self.field, self.rows))
        if x is None or (self * x) != Matrix.identity(self.field, self.rows):
            raise ValueError("matrix not invertible")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


# -- spans of a few matrices ---------------------------------------------


def combination(coeffs, mats) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of same-shape
    matrices (zero coefficients are skipped)."""
    first = mats[0]
    f = first.field
    z = f.zero()
    acc = [[z] * first.cols for _ in range(first.rows)]
    for c, m in zip(coeffs, mats):
        if (m.rows, m.cols) != (first.rows, first.cols):
            raise ValueError("shape mismatch in combination")
        if c != z:
            acc = [[x + c * y for x, y in zip(ra, rm)]
                   for ra, rm in zip(acc, m.data)]
    if f.p is not None:
        acc = [[x % f.p for x in r] for r in acc]
    return Matrix(f, first.rows, first.cols, acc)


def span_elements(mats, zero: Matrix):
    """Every element of the span of mats over GF(p), as (coeffs, matrix),
    in itertools.product(range(p), repeat=len(mats)) order; zero is the
    zero matrix of the common shape (the whole span when mats is empty).

    Lexicographic order changes a digit either from c to c + 1 or, on a
    carry, from p - 1 to 0; both add mats[j] once, so each step costs about
    one matrix addition instead of a rebuild from the coefficients."""
    f = zero.field
    p = f.p
    if p is None:
        raise TypeError("the span over the rationals is not enumerable")
    rows, cols = zero.rows, zero.cols
    if any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ValueError("shape mismatch in span_elements")
    steps = [m.data for m in mats]
    coeffs = [0] * len(mats)
    acc = zero.data
    while True:
        yield tuple(coeffs), Matrix(f, rows, cols, acc)
        j = len(mats) - 1
        while j >= 0:
            acc = tuple(tuple((x + y) % p for x, y in zip(ra, rm))
                        for ra, rm in zip(acc, steps[j]))
            coeffs[j] = (coeffs[j] + 1) % p
            if coeffs[j]:
                break
            j -= 1
        if j < 0:
            return


# -- GF(2) packed kernels ----------------------------------------------


def _pack_rows(data) -> list[int]:
    out = []
    for r in data:
        acc = 0
        for j, x in enumerate(r):
            if x:
                acc |= 1 << j
        out.append(acc)
    return out


def _unpack_row(r: int, cols: int) -> list[int]:
    return [(r >> j) & 1 for j in range(cols)]


def _rref_f2(rows: list[int], cols: int) -> list[tuple[int, int]]:
    """Incremental RREF over GF(2); returns [(row_bits, pivot_col)] sorted."""
    pivots: list[tuple[int, int]] = []  # (pivot_col, row)
    for r in rows:
        for p, pr in pivots:
            if (r >> p) & 1:
                r ^= pr
        if r:
            p = (r & -r).bit_length() - 1
            for i, (q, qr) in enumerate(pivots):
                if (qr >> p) & 1:
                    pivots[i] = (q, qr ^ r)
            pivots.append((p, r))
    pivots.sort()
    return [(r, p) for p, r in pivots]


def right_kernel_packed_f2(rows: list[int], cols: int, field: Field) -> "Matrix":
    """Canonical kernel basis of a GF(2) system given as packed rows."""
    red = _rref_f2(rows, cols)
    pivcols = [p for _, p in red]
    pivset = set(pivcols)
    basis = []
    for j in range(cols):
        if j in pivset:
            continue
        v = 1 << j
        for row, p in red:
            if (row >> j) & 1:
                v |= 1 << p
        basis.append(v)
    canon = _rref_f2(basis, cols)
    return Matrix(field, len(canon), cols,
                  [_unpack_row(r, cols) for r, _ in canon])


# -- subspaces -----------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of k^ambient given by a canonical RREF row basis."""

    ambient: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient:
            raise ValueError("basis width does not match ambient dimension")

    @staticmethod
    def from_matrix(ambient: int, mat: Matrix) -> "Subspace":
        return Subspace(ambient, mat.row_space())

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix(field, 0, ambient, []))

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(field, ambient))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_vector(self, v) -> bool:
        f = self.field
        v = list(v)
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        for row in self.basis.data:
            p = next(j for j, x in enumerate(row) if x != f.zero())
            if v[p] != f.zero():
                c = v[p]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return all(x == f.zero() for x in v)

    def key(self):
        """Deterministic sort key (echelon-lexicographic)."""
        return (self.dim, tuple(tuple(str(x) for x in r) for r in self.basis.data))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(u.ambient, u.basis.vstack(w.basis).row_space())


def subspace_meet(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.field, u.ambient)
    stacked = u.basis.vstack(w.basis)
    combos = stacked.left_kernel()  # rows (a | b): a*U + b*W = 0
    a_part = combos.take_cols(range(u.dim))
    inter = a_part * u.basis
    return Subspace(u.ambient, inter.row_space())


def subspace_leq(u: Subspace, w: Subspace) -> bool:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return all(w.contains_vector(r) for r in u.basis.data)


def kernel(a: Matrix) -> Subspace:
    """{v : A v = 0} as a canonical subspace of k^cols."""
    return Subspace(a.cols, a.right_kernel())


def row_space(a: Matrix) -> Subspace:
    return Subspace(a.cols, a.row_space())
