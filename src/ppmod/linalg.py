"""Dense exact matrices and canonical subspaces.

Everything is dense and exact; instances in scope stay well below 200x200.
Subspaces of k^d are kept in reduced row-echelon form, so set equality is
structural equality and subspaces are hashable.

Storage depends on the field.  Over GF(2) a matrix holds its rows only as
packed ints (bit j = column j): products XOR rows, sums XOR rows, and
elimination runs on the ints.  Over GF(p) and QQ the rows are tuples of
field elements (ints in range(p), or Fractions).  `Matrix.data`, the rows
as tuples of field elements, is available for every field; over GF(2) it
is unpacked on first use and cached.

Over GF(p) and QQ, `rref` and `*` run on plain integer rows and call no
Field method per entry: over GF(p) with one `% p` per entry computed, over
QQ on rows scaled to integers by the lcm of their denominators, eliminated
without fractions (`_rref_qq`); Fractions are built only for the results.

Kernels, hom spaces, pp values, preimages and meets come from
`projected_kernel`: the first k coordinates of {v : v a = 0}, in RREF.
Over GF(2) it is one elimination of the rows tagged with their index bits;
over GF(p) and QQ the wider tagged system is slower than reading the
solutions off the reduced transpose (`_cut_right_kernel`, which right
kernels call directly).

No other module knows how a matrix stores its rows.  They build, flatten
and cut matrices with `block`, `Matrix.reshape`, `vectorized`, the row and
column selections and the stacks, take hom spaces from `intertwiners`, and
read `.data` only for output, coefficient rows and vectors.  A change of
storage is therefore confined to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .fields import Field

_QQ_ZERO = Fraction(0)


class Matrix:
    """Immutable rows x cols matrix over an exact field (row-major).

    `packed` holds the rows as ints over GF(2) and is None otherwise;
    `data` holds them as tuples of field elements."""

    __slots__ = ("field", "rows", "cols", "packed", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        d = tuple(tuple(r) for r in data)
        if len(d) != rows or any(len(r) != cols for r in d):
            raise ValueError("matrix data does not match shape")
        if field.p == 2:
            self.packed = tuple(_pack(r) for r in d)
        else:
            self.packed = None
            self.data = d

    def __getattr__(self, name):
        # reached only for an unset slot: `data` of a GF(2) matrix before
        # its first use
        if name != "data" or self.packed is None:
            raise AttributeError(name)
        cols = self.cols
        self.data = tuple(_unpack(r, cols) for r in self.packed)
        return self.data

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
    def from_packed(field: Field, rows: int, cols: int, packed) -> "Matrix":
        """A GF(2) matrix from its packed rows (a tuple of ints < 2^cols)."""
        m = object.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.packed = packed
        return m

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        if field.p == 2:
            return Matrix.from_packed(field, rows, cols, (0,) * rows)
        z = field.zero()
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        if field.p == 2:
            return Matrix.from_packed(field, n, n,
                                      tuple(1 << i for i in range(n)))
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def _of_stored(field: Field, rows: int, cols: int, stored) -> "Matrix":
        """A matrix from rows in the field's storage (see _stored)."""
        if field.p == 2:
            return Matrix.from_packed(field, rows, cols, stored)
        return Matrix(field, rows, cols, stored)

    # -- basics -------------------------------------------------------

    def _stored(self):
        """The rows as stored: packed ints over GF(2), tuples otherwise."""
        return self.data if self.packed is None else self.packed

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._stored() == other._stored()
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._stored()))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def is_zero(self) -> bool:
        if self.packed is not None:
            return not any(self.packed)
        return not any(any(r) for r in self.data)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        if self.packed is not None:
            return Matrix.from_packed(f, self.rows, self.cols, tuple(
                a ^ b for a, b in zip(self.packed, other.packed)))
        return Matrix(f, self.rows, self.cols,
                      [[f.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        if self.packed is not None:
            return self
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.neg(a) for a in r] for r in self.data])

    def scale(self, c) -> "Matrix":
        f = self.field
        if self.packed is not None:
            return self if c & 1 else Matrix.zero(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      [[f.mul(c, a) for a in r] for r in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        if self.packed is not None:
            # row i of the product: XOR of the rows of other picked by the
            # set bits of row i of self
            rows_b = other.packed
            out = []
            for r in self.packed:
                acc = 0
                while r:
                    low = r & -r
                    acc ^= rows_b[low.bit_length() - 1]
                    r ^= low
                out.append(acc)
            return Matrix.from_packed(f, self.rows, other.cols, tuple(out))
        p, c = f.p, other.cols
        if p is not None:
            out = _int_product(self.data, other.data, c)
            return Matrix(f, self.rows, c, [[s % p for s in r] for r in out])
        # integer rows: one denominator d for other, one (e) per row of self
        flat, d = _int_row([x for r in other.data for x in r])
        right = [flat[i * c:(i + 1) * c] for i in range(other.rows)]
        left = [_int_row(r) for r in self.data]
        out = _int_product([r for r, _ in left], right, c)
        return Matrix(f, self.rows, c,
                      [[Fraction(s, d * e) if s else _QQ_ZERO for s in acc]
                       for acc, (_, e) in zip(out, left)])

    def transpose(self) -> "Matrix":
        if self.packed is not None:
            out = [0] * self.cols
            for i, r in enumerate(self.packed):
                bit = 1 << i
                while r:
                    low = r & -r
                    out[low.bit_length() - 1] |= bit
                    r ^= low
            return Matrix.from_packed(self.field, self.cols, self.rows,
                                      tuple(out))
        return Matrix(self.field, self.cols, self.rows, list(zip(*self.data)) if self.data else [[] for _ in range(self.cols)])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        if self.packed is not None:
            shift = self.cols
            return Matrix.from_packed(
                self.field, self.rows, self.cols + other.cols,
                tuple(a | (b << shift) for a, b in zip(self.packed, other.packed)))
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      [list(a) + list(b) for a, b in zip(self.data, other.data)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Matrix._of_stored(self.field, self.rows + other.rows,
                                 self.cols, self._stored() + other._stored())

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return self.take_rows(row_idx).take_cols(col_idx)

    def take_rows(self, row_idx) -> "Matrix":
        stored = self._stored()
        rows = tuple(stored[i] for i in row_idx)
        return Matrix._of_stored(self.field, len(rows), self.cols, rows)

    def take_cols(self, col_idx) -> "Matrix":
        col_idx = list(col_idx)
        if self.packed is not None:
            out = []
            for r in self.packed:
                acc = 0
                for k, j in enumerate(col_idx):
                    acc |= ((r >> j) & 1) << k
                out.append(acc)
            return Matrix.from_packed(self.field, self.rows, len(col_idx),
                                      tuple(out))
        return Matrix(self.field, self.rows, len(col_idx),
                      [[r[j] for j in col_idx] for r in self.data])

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read in row-major order, as a rows x cols
        matrix; reshape(1, r * c) is the vectorization."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("reshape changes the number of entries")
        f = self.field
        if self.packed is not None:
            flat = 0
            for i, r in enumerate(self.packed):
                flat |= r << (i * self.cols)
            mask = (1 << cols) - 1
            return Matrix.from_packed(f, rows, cols, tuple(
                (flat >> (i * cols)) & mask for i in range(rows)))
        flat = [x for r in self.data for x in r]
        return Matrix(f, rows, cols,
                      [flat[i * cols:(i + 1) * cols] for i in range(rows)])

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form (zero rows dropped) and pivot columns."""
        f = self.field
        if self.packed is not None:
            red = _rref_f2(self.packed)
            return (Matrix.from_packed(f, len(red), self.cols,
                                       tuple(r for r, _ in red)),
                    tuple(p for _, p in red))
        rows, pivots = (_rref_qq(self.data, self.cols) if f.p is None
                        else _rref_mod(self.data, self.cols, f.p))
        return Matrix(f, len(rows), self.cols, rows), pivots

    def rank(self) -> int:
        return self.rref()[0].rows

    def right_kernel(self) -> "Matrix":
        """Canonical basis (RREF) of {v : A v^T = 0}, one row per basis vector."""
        if self.packed is None:
            return _cut_right_kernel(self, self.cols)
        return projected_kernel(self.transpose(), self.cols)

    def left_kernel(self) -> "Matrix":
        """Canonical basis of {v : v A = 0}."""
        return projected_kernel(self, self.rows)

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
        if r.packed is not None:
            # row p of X is the right-hand part of the row with pivot p
            out = [0] * self.cols
            for row, p in zip(r.packed, pivots):
                out[p] = row >> self.cols
            return Matrix.from_packed(f, self.cols, b.cols, tuple(out))
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


def block(field: Field, heights, widths, blocks) -> Matrix:
    """The block matrix with row bands of the given heights and column
    bands of the given widths: blocks[(i, j)] fills band (i, j), and every
    band without an entry in blocks is zero."""
    for (i, j), m in blocks.items():
        if (m.rows, m.cols) != (heights[i], widths[j]):
            raise ValueError(f"block ({i}, {j}) is {m.rows}x{m.cols}, its "
                             f"band {heights[i]}x{widths[j]}")
    rows, cols = sum(heights), sum(widths)
    out = []
    if field.p == 2:
        offs = [sum(widths[:j]) for j in range(len(widths))]
        for i, h in enumerate(heights):
            band = [0] * h
            for j, off in enumerate(offs):
                m = blocks.get((i, j))
                if m is not None:
                    band = [a | (b << off) for a, b in zip(band, m.packed)]
            out.extend(band)
        return Matrix.from_packed(field, rows, cols, tuple(out))
    z = field.zero()
    for i, h in enumerate(heights):
        band = [[] for _ in range(h)]
        for j, w in enumerate(widths):
            m = blocks.get((i, j))
            if m is None:
                for r in band:
                    r.extend([z] * w)
            else:
                for r, src in zip(band, m.data):
                    r.extend(src)
        out.extend(band)
    return Matrix(field, rows, cols, out)


def block_diagonal(field: Field, mats) -> Matrix:
    """The block-diagonal matrix with the given blocks in order."""
    return block(field, [m.rows for m in mats], [m.cols for m in mats],
                 {(i, i): m for i, m in enumerate(mats)})


def vectorized(field: Field, mats, width: int) -> Matrix:
    """One row per matrix, its entries in row-major order; every matrix
    has width entries (a 0 x width matrix for an empty list)."""
    return Matrix._of_stored(field, len(mats), width, tuple(
        m.reshape(1, width)._stored()[0] for m in mats))


def intertwiners(lefts, rights, dm: int, dn: int) -> list[Matrix]:
    """The canonical basis of {F (dm x dn) : A F = F B for every pair
    (A, B) of lefts and rights}: the reduced echelon basis of the
    solutions, each vectorized row-major, reshaped back to dm x dn."""
    if not lefts or len(lefts) != len(rights):
        raise ValueError("need one or more (left, right) pairs")
    f = lefts[0].field
    if dm == 0 or dn == 0:
        return []
    nunk = dm * dn
    if f.p == 2:
        ker = right_kernel_packed_f2(_intertwining_rows_f2(lefts, rights,
                                                           dm, dn), nunk, f)
        return [ker.take_rows((i,)).reshape(dm, dn) for i in range(ker.rows)]
    z = f.zero()
    data = []
    for am, an in zip(lefts, rights):
        for r in range(dm):
            for c in range(dn):
                row = [z] * nunk
                for s in range(dm):
                    if am.data[r][s]:
                        row[s * dn + c] = f.add(row[s * dn + c], am.data[r][s])
                for t in range(dn):
                    if an.data[t][c]:
                        row[r * dn + t] = f.sub(row[r * dn + t], an.data[t][c])
                data.append(row)
    ker = Matrix(f, len(data), nunk, data).right_kernel()
    return [ker.take_rows((i,)).reshape(dm, dn) for i in range(ker.rows)]


def _intertwining_rows_f2(lefts, rights, dm: int, dn: int) -> tuple[int, ...]:
    """Packed rows of the intertwining system over GF(2): the unknown
    F[s][c] is bit s * dn + c, and row (pair, r, c) says
    (A F - F B)[r][c] = 0."""
    rows = []
    for am, an in zip(lefts, rights):
        # spread[r]: bit s * dn for every s with am[r][s] = 1
        spread = []
        for r in am.packed:
            acc = 0
            while r:
                low = r & -r
                acc |= 1 << ((low.bit_length() - 1) * dn)
                r ^= low
            spread.append(acc)
        colmask = an.transpose().packed  # colmask[c]: bits t, an[t][c] = 1
        for r in range(dm):
            base = spread[r]
            shift = r * dn
            for c in range(dn):
                rows.append((base << c) ^ (colmask[c] << shift))
    return tuple(rows)


# -- spans of a few matrices ---------------------------------------------


def combination(coeffs, mats) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of same-shape
    matrices (zero coefficients are skipped)."""
    first = mats[0]
    f = first.field
    if any((m.rows, m.cols) != (first.rows, first.cols) for m in mats):
        raise ValueError("shape mismatch in combination")
    if first.packed is not None:
        acc = (0,) * first.rows
        for c, m in zip(coeffs, mats):
            if c & 1:
                acc = tuple(x ^ y for x, y in zip(acc, m.packed))
        return Matrix.from_packed(f, first.rows, first.cols, acc)
    z = f.zero()
    acc = [[z] * first.cols for _ in range(first.rows)]
    for c, m in zip(coeffs, mats):
        if c:
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
    carry, from p - 1 to 0; both add mats[j] once, so each step costs one
    matrix addition instead of a rebuild from the coefficients."""
    p = zero.field.p
    if p is None:
        raise TypeError("the span over the rationals is not enumerable")
    if any((m.rows, m.cols) != (zero.rows, zero.cols) for m in mats):
        raise ValueError("shape mismatch in span_elements")
    coeffs = [0] * len(mats)
    acc = zero
    while True:
        yield tuple(coeffs), acc
        j = len(mats) - 1
        while j >= 0:
            acc = acc + mats[j]
            coeffs[j] = (coeffs[j] + 1) % p
            if coeffs[j]:
                break
            j -= 1
        if j < 0:
            return


# -- GF(p) and QQ integer-row kernels --------------------------------------


def _int_row(r):
    """A row of rationals as integers over a common denominator: (ints, d)."""
    nd = [x.as_integer_ratio() for x in r]
    d = lcm(*[q for _, q in nd])
    return [n * (d // q) for n, q in nd], d


def _int_product(a, b, cols: int) -> list[list[int]]:
    """The product of integer rows, unreduced: row i is the combination of
    the rows of b by the nonzero entries of row i of a."""
    out = []
    for r in a:
        acc = [0] * cols
        for x, br in zip(r, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, br)]
        out.append(acc)
    return out


def _rref_mod(data, cols: int, p: int):
    """Gauss-Jordan over GF(p) on int rows: the nonzero reduced rows and
    their pivot columns.  The pivot row is zero left of the pivot column,
    so an update touches only the columns from there on."""
    rows = [list(r) for r in data]
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        inv = pow(rows[sel][col], p - 2, p)
        pr = rows[sel]
        tail = pr[col:] = [x * inv % p for x in pr[col:]]
        rows[sel] = rows[rank]
        rows[rank] = pr
        for r in rows:
            c = r[col]
            if c and r is not pr:
                r[col:] = [(x - c * y) % p for x, y in zip(r[col:], tail)]
        pivots.append(col)
    return rows[:len(pivots)], tuple(pivots)


def _rref_qq(data, cols: int):
    """Fraction-free Gauss-Jordan over QQ on integer rows with the same
    spans: a row is cleared at a pivot column by (a/g) row - (c/g) pivot
    row, where a and c are the two entries and g = gcd(a, c), and is then
    divided by the gcd of its entries, which keeps them small.  Fractions
    are built only for the reduced rows, each divided by its pivot entry."""
    rows = [_int_row(r)[0] for r in data]
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pr = rows[rank]
        a = pr[col]
        for i, r in enumerate(rows):
            c = r[col]
            if c and i != rank:
                g = gcd(a, c)
                s, t = a // g, c // g
                r = [s * x - t * y for x, y in zip(r, pr)]
                g = gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
        pivots.append(col)
    return ([[Fraction(x, r[col]) if x else _QQ_ZERO for x in r]
             for r, col in zip(rows, pivots)], tuple(pivots))


# -- GF(2) packed rows ---------------------------------------------------


def _pack(row) -> int:
    acc = 0
    for j, x in enumerate(row):
        if x & 1:
            acc |= 1 << j
    return acc


def _unpack(r: int, cols: int) -> tuple[int, ...]:
    return tuple([(r >> j) & 1 for j in range(cols)])


def _rref_f2(rows) -> list[tuple[int, int]]:
    """Incremental RREF over GF(2); returns [(row_bits, pivot_col)] sorted
    by pivot, the pivot of a row being its lowest set bit."""
    pivots: dict[int, int] = {}  # pivot bit -> its fully reduced row
    for r in rows:
        for pbit, pr in pivots.items():
            if r & pbit:
                r ^= pr
        if r:
            low = r & -r
            for pbit, pr in pivots.items():
                if pr & low:
                    pivots[pbit] = pr ^ r
            pivots[low] = r
    return [(pivots[b], b.bit_length() - 1) for b in sorted(pivots)]


def right_kernel_packed_f2(rows, cols: int, field: Field) -> Matrix:
    """Canonical kernel basis of a GF(2) system given as packed rows."""
    return Matrix.from_packed(field, len(rows), cols, rows).right_kernel()


def projected_kernel(a: Matrix, k: int) -> Matrix:
    """Canonical (RREF) basis of the first k coordinates of {v : v a = 0}."""
    if a.packed is not None:
        # row i < k tagged with bit a.cols + i: the reduced rows with a tag
        # pivot have no bit below a.cols, so their tags are the projected
        # solutions, already reduced; one elimination in all
        c = a.cols
        red = _rref_f2([r | (1 << (c + i)) if i < k else r
                        for i, r in enumerate(a.packed)])
        tags = tuple(r >> c for r, p in red if p >= c)
        return Matrix.from_packed(a.field, len(tags), k, tags)
    # Over GF(p) and QQ the wider tagged system costs more than it saves
    # (on the integer-row kernels it made the `fields` benchmark 1.06-1.13 s
    # against 0.99-1.03 s, three alternated pairs), so the solutions are
    # read off the reduced transpose instead.
    return _cut_right_kernel(a.transpose(), k)


def _cut_right_kernel(a: Matrix, k: int) -> Matrix:
    """The first k coordinates of {v : a v^T = 0} over GF(p) or QQ: one
    solution per free column of the reduced a, cut, then reduced once."""
    f = a.field
    red, pivots = a.rref()
    sols = []
    for j in (j for j in range(a.cols) if j not in pivots):
        v = [f.one() if t == j else f.zero() for t in range(k)]
        for row, p in zip(red.data, pivots):
            if p < k:
                v[p] = f.neg(row[j])
        sols.append(v)
    return Matrix(f, len(sols), k, sols).row_space()


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
        return Subspace(ambient, Matrix.zero(field, 0, ambient))

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(field, ambient))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row."""
        b = self.basis
        if b.packed is not None:
            return tuple((r & -r).bit_length() - 1 for r in b.packed)
        return tuple(next(j for j, x in enumerate(row) if x)
                     for row in b.data)

    def contains_vector(self, v) -> bool:
        v = tuple(v)
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        return self._contains_row(v if self.basis.packed is None
                                  else _pack(v))

    def _contains_row(self, v) -> bool:
        """Membership of v, given the way the basis stores its rows."""
        if self.basis.packed is not None:
            # clear each basis row's pivot bit (its lowest set bit) in turn
            for r in self.basis.packed:
                if v & r & -r:
                    v ^= r
            return not v
        f = self.field
        v = list(v)
        for p, row in zip(self.pivots, self.basis.data):
            if v[p]:
                c = v[p]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return not any(v)

    def key(self):
        """Deterministic sort key (echelon-lexicographic)."""
        return (self.dim, tuple(tuple(str(x) for x in r) for r in self.basis.data))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(u.ambient, u.basis.vstack(w.basis).row_space())


def subspace_meet(u: Subspace, w: Subspace) -> Subspace:
    """The image under U of the preimage of W: the coefficient rows c with
    c U in W.  Both c and U are in RREF, and so is their product."""
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    coeffs = projected_kernel(u.basis.vstack(w.basis), u.dim)
    return Subspace(u.ambient, coeffs * u.basis)


def subspace_leq(u: Subspace, w: Subspace) -> bool:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return all(w._contains_row(r) for r in u.basis._stored())


def kernel(a: Matrix) -> Subspace:
    """{v : A v = 0} as a canonical subspace of k^cols."""
    return Subspace(a.cols, a.right_kernel())

