"""Exact matrices and canonical subspaces.

Subspaces of k^d are kept in reduced row-echelon form, so set equality is
structural equality and subspaces are hashable.

A matrix stores its rows as ints, `Matrix.ints`, in a canonical form per
field, so that equal matrices store equal rows:
- over GF(2) each row is one packed int, bit j = column j; products and
  sums XOR rows, and elimination runs on the ints;
- over GF(p) each row is a tuple of ints in range(p);
- over QQ each row is a tuple of integers over one positive denominator,
  `Matrix.den`, with gcd(den, every entry) = 1.
GF(p) is the den = 1 case of the QQ form.  Every GF(p) and QQ operation
computes integer rows over a denominator in one piece of code, and only
the normaliser differs: one `% p` per entry (`Matrix._of_ints`), or the
gcd of den and the entries divided out (`Matrix._of_stored`).  A product
starts each row from its first nonzero term, skips the zero entries of
the left factor and normalises each row as it is finished, so its rows
go to `_of_stored` without a second walk.  Over QQ a product is over the
product of the denominators and a combination over their lcm; no
operation calls a `Field` method or does Fraction arithmetic.  The GF(p)
constructor takes ints only: a Fraction or a float entry is refused.

`Matrix.data`, the rows as tuples of field elements, is available for
every field: over GF(p) it is `ints` itself; over GF(2) and QQ it is
built on first use (bits unpacked, or Fractions made) and cached.
Fractions come in only through the constructor, the coefficients of
`combination` and `Subspace.contains_vector`, and go out only as `data`.

GF(p) and QQ have one elimination, `_sparse_rref`: Gauss-Jordan on rows
{column: int}, pivots taken from the last column to the first, with a
Fermat inverse over GF(p) and fraction-free updates over QQ.  Each
incoming row is copied once, and the copy is cleared in place, in both
passes, so no pivot step allocates a row.  Each reduced row is zero
right of its pivot and at every other pivot.
`Matrix.rref` hands it column j as column cols - 1 - j, so the pivots
come out leftmost first, and puts the rows over the lcm of their pivot
entries.

Kernels, pp values, preimages, meets and hom spaces are the first k
coordinates of the solutions of a system, in RREF (`projected_kernel`,
`Matrix.right_kernel`, `intertwiners`).  Over GF(2) that is one
elimination of the rows tagged with their index bits.  Over GF(p) and QQ
it is read off `_sparse_rref` of the system (`_sparse_kernel`): the
solution of a free column j is zero left of j and at every other free
column, so it is the row with pivot j of the kernel's RREF, which is
unique.  The rows with j >= k are zero on the first k coordinates, and
the rest, cut there, are the RREF of the projection; no second
elimination runs.  The system of a hom space, A F = F B, has dm * dn
unknowns (1,681 for a 41-dimensional module against itself) but at most
dm + dn nonzeros per row.  `_intertwining_rows` builds it from the
nonzeros: those of each row of A and each column of B are listed once
per pair, row (r, c) is put together from one of each, and the one
unknown they share, F[r][c], is summed and dropped if it cancels.  Over
GF(2) the system is packed like any other.

No other module knows how a matrix stores its rows.  They build, flatten
and cut matrices with `block`, `Matrix.reshape`, `vectorized`, the row and
column selections and the stacks, take hom spaces from `intertwiners`, and
read `.data` only for output, coefficient rows and vectors.  A change of
storage is therefore confined to this file.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .fields import Field

_QQ_ZERO = Fraction(0)


class Matrix:
    """Immutable rows x cols matrix over an exact field (row-major).

    `ints` holds the rows as packed ints over GF(2) and as tuples of
    integers over `den` otherwise (see the module docstring); `data`
    holds them as tuples of field elements."""

    __slots__ = ("field", "rows", "cols", "ints", "den", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        d = tuple(tuple(r) for r in data)
        if len(d) != rows or any(len(r) != cols for r in d):
            raise ValueError("matrix data does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.den = 1
        p = field.p
        if p == 2:
            self.ints = tuple(_pack(r) for r in d)
        elif p is None:
            # entries in lowest terms over the lcm of their denominators:
            # already canonical
            flat, self.den = _int_row([x for r in d for x in r])
            self.ints = tuple(tuple(flat[i * cols:(i + 1) * cols])
                              for i in range(rows))
        else:
            # an int stands for its residue; anything else (a Fraction, a
            # float) would leave the storage, so it is refused
            self.ints = self.data = tuple(tuple([
                x % p if isinstance(x, int) else _not_an_int(x, field)
                for x in r]) for r in d)

    def __getattr__(self, name):
        # reached only for an unset slot: `data` of a GF(2) or QQ matrix
        # before its first use
        if name != "data":
            raise AttributeError(name)
        if self.field.p == 2:
            cols = self.cols
            self.data = tuple(_unpack(r, cols) for r in self.ints)
        else:
            den = self.den
            self.data = tuple(tuple([Fraction(x, den) if x else _QQ_ZERO
                                     for x in r]) for r in self.ints)
        return self.data

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, data) -> "Matrix":
        """A matrix from rows of field elements or ints (an int stands
        for its field element)."""
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Matrix(field, rows, cols, data)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        row = 0 if field.p == 2 else (0,) * cols
        return Matrix._of_stored(field, rows, cols, (row,) * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        if field.p == 2:
            stored = tuple(1 << i for i in range(n))
        else:
            stored = tuple(tuple([int(i == j) for j in range(n)])
                           for i in range(n))
        return Matrix._of_stored(field, n, n, stored)

    @staticmethod
    def _of_stored(field: Field, rows: int, cols: int, stored,
                   den: int = 1) -> "Matrix":
        """A matrix from rows in the field's storage: packed ints over
        GF(2), tuples of ints in range(p) over GF(p), tuples of integers
        over den > 0 over QQ, whose common factor with den is divided out
        here (den is 1 over GF(2) and GF(p))."""
        if den != 1:
            g = den
            for r in stored:
                g = gcd(g, *r)
                if g == 1:
                    break
            else:  # g > 1 divides den and every entry
                stored = tuple(tuple([x // g for x in r]) for r in stored)
                den //= g
        m = object.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.den = den
        m.ints = stored
        if field.p != 2 and field.p is not None:
            m.data = stored
        return m

    @staticmethod
    def _of_ints(field: Field, rows: int, cols: int, ints,
                 den: int = 1) -> "Matrix":
        """A GF(p) or QQ matrix from integer rows over den > 0 (1 over
        GF(p)) that may leave the field's storage: one `% p` per entry
        over GF(p); over QQ `_of_stored` divides out the common factor."""
        p = field.p
        if p is None:
            stored = tuple(map(tuple, ints))
        else:
            stored = tuple(tuple([x % p for x in r]) for r in ints)
        return Matrix._of_stored(field, rows, cols, stored, den)

    # -- basics -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.ints))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        if self.field.p == 2:
            return not any(self.ints)
        return not any(map(any, self.ints))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        if self.field.p == 2:
            return Matrix._of_stored(self.field, self.rows, self.cols, tuple(
                a ^ b for a, b in zip(self.ints, other.ints)))
        den = lcm(self.den, other.den)
        return Matrix._of_ints(self.field, self.rows, self.cols, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(_scaled(self, den), _scaled(other, den))], den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return combination((1, -1), (self, other))

    def __neg__(self) -> "Matrix":
        return combination((-1,), (self,))

    def scale(self, c) -> "Matrix":
        return combination((c,), (self,))

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        if f.p == 2:
            # row i of the product: XOR of the rows of other picked by the
            # set bits of row i of self
            rows_b = other.ints
            out = []
            for r in self.ints:
                acc = 0
                while r:
                    low = r & -r
                    acc ^= rows_b[low.bit_length() - 1]
                    r ^= low
                out.append(acc)
            return Matrix._of_stored(f, self.rows, other.cols, tuple(out))
        # row i: the combination of the rows of other by the nonzero
        # entries of row i of self, started from its first term and
        # reduced once it is finished (a lone unit term is a stored row)
        p, rows_b = f.p, other.ints
        zero = (0,) * other.cols
        out = []
        for r in self.ints:
            acc = None
            for x, br in zip(r, rows_b):
                if not x:
                    continue
                if acc is None:
                    acc = br if x == 1 else [x * y for y in br]
                else:
                    acc = [s + x * y for s, y in zip(acc, br)]
            if acc is None:
                acc = zero
            elif isinstance(acc, list):
                acc = tuple(acc if p is None else [s % p for s in acc])
            out.append(acc)
        return Matrix._of_stored(f, self.rows, other.cols, tuple(out),
                                 self.den * other.den)

    def transpose(self) -> "Matrix":
        if self.field.p == 2:
            out = [0] * self.cols
            for i, r in enumerate(self.ints):
                bit = 1 << i
                while r:
                    low = r & -r
                    out[low.bit_length() - 1] |= bit
                    r ^= low
            return Matrix._of_stored(self.field, self.cols, self.rows,
                                     tuple(out))
        stored = tuple(zip(*self.ints)) if self.rows else ((),) * self.cols
        return Matrix._of_stored(self.field, self.cols, self.rows, stored,
                                 self.den)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        if self.field.p == 2:
            shift = self.cols
            return Matrix._of_stored(
                self.field, self.rows, self.cols + other.cols,
                tuple(a | (b << shift) for a, b in zip(self.ints, other.ints)))
        den = lcm(self.den, other.den)
        return Matrix._of_stored(
            self.field, self.rows, self.cols + other.cols,
            tuple(a + b for a, b in zip(_scaled(self, den),
                                        _scaled(other, den))), den)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        a, b, den = self.ints, other.ints, self.den
        if other.den != den:
            den = lcm(den, other.den)
            a, b = _scaled(self, den), _scaled(other, den)
        return Matrix._of_stored(self.field, self.rows + other.rows, self.cols,
                                 a + b, den)

    def take_rows(self, row_idx) -> "Matrix":
        stored = self.ints
        rows = tuple([stored[i] for i in row_idx])
        return Matrix._of_stored(self.field, len(rows), self.cols, rows,
                                 self.den)

    def take_cols(self, col_idx) -> "Matrix":
        col_idx = list(col_idx)
        if self.field.p == 2:
            out = []
            for r in self.ints:
                acc = 0
                for k, j in enumerate(col_idx):
                    acc |= ((r >> j) & 1) << k
                out.append(acc)
            return Matrix._of_stored(self.field, self.rows, len(col_idx),
                                     tuple(out))
        rows = tuple(tuple([r[j] for j in col_idx]) for r in self.ints)
        return Matrix._of_stored(self.field, self.rows, len(col_idx), rows,
                                 self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read in row-major order, as a rows x cols
        matrix; reshape(1, r * c) is the vectorization."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("reshape changes the number of entries")
        f = self.field
        if f.p == 2:
            flat = 0
            for i, r in enumerate(self.ints):
                flat |= r << (i * self.cols)
            mask = (1 << cols) - 1
            return Matrix._of_stored(f, rows, cols, tuple(
                (flat >> (i * cols)) & mask for i in range(rows)))
        flat = [x for r in self.ints for x in r]
        return Matrix._of_stored(f, rows, cols, tuple(
            tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)),
            self.den)

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form (zero rows dropped) and pivot columns."""
        f = self.field
        if f.p == 2:
            red = _rref_f2(self.ints)
            return (Matrix._of_stored(f, len(red), self.cols,
                                      tuple(r for r, _ in red)),
                    tuple(p for _, p in red))
        # column j is key c - j, so the pivots come out leftmost first; the
        # reduced rows are put over the lcm of their pivot entries
        c = self.cols - 1
        red = _sparse_rref([{c - j: x for j, x in enumerate(r) if x}
                            for r in self.ints], f.p)
        keys = sorted(red, reverse=True)
        den = lcm(*[red[m][m] for m in keys])  # 1 over GF(p)
        rows = []
        for m in keys:
            s = den // red[m][m]
            v = [0] * self.cols
            for k, x in red[m].items():
                v[c - k] = s * x
            rows.append(tuple(v))
        return (Matrix._of_stored(f, len(rows), self.cols, tuple(rows), den),
                tuple(c - m for m in keys))

    def rank(self) -> int:
        return self.rref()[0].rows

    def right_kernel(self) -> "Matrix":
        """Canonical basis (RREF) of {v : A v^T = 0}, one row per basis vector."""
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
        # row p of X is the right-hand part of the row with pivot p
        if f.p == 2:
            out = [0] * self.cols
            for row, p in zip(r.ints, pivots):
                out[p] = row >> self.cols
            return Matrix._of_stored(f, self.cols, b.cols, tuple(out))
        out = [(0,) * b.cols] * self.cols
        for row, p in zip(r.ints, pivots):
            out[p] = row[self.cols:]
        return Matrix._of_stored(f, self.cols, b.cols, tuple(out), r.den)

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
    filled = [m for m in blocks.values() if m.rows and m.cols]
    if not filled:
        return Matrix.zero(field, rows, cols)
    if len(filled) == 1 and (filled[0].rows, filled[0].cols) == (rows, cols):
        return filled[0]  # it spans the matrix: every other band is empty
    out = []
    if field.p == 2:
        offs = [sum(widths[:j]) for j in range(len(widths))]
        for i, h in enumerate(heights):
            band = [0] * h
            for j, off in enumerate(offs):
                m = blocks.get((i, j))
                if m is not None:
                    band = [a | (b << off) for a, b in zip(band, m.ints)]
            out.extend(band)
        return Matrix._of_stored(field, rows, cols, tuple(out))
    den = lcm(*[m.den for m in blocks.values()])
    for i, h in enumerate(heights):
        band = [[] for _ in range(h)]
        for j, w in enumerate(widths):
            m = blocks.get((i, j))
            if m is None:
                for r in band:
                    r.extend([0] * w)
            else:
                for r, src in zip(band, _scaled(m, den)):
                    r.extend(src)
        out.extend(band)
    return Matrix._of_stored(field, rows, cols, tuple(map(tuple, out)), den)


def block_diagonal(field: Field, mats) -> Matrix:
    """The block-diagonal matrix with the given blocks in order."""
    return block(field, [m.rows for m in mats], [m.cols for m in mats],
                 {(i, i): m for i, m in enumerate(mats)})


def vectorized(field: Field, mats, width: int) -> Matrix:
    """One row per matrix, its entries in row-major order; every matrix
    has width entries (a 0 x width matrix for an empty list)."""
    den = lcm(*[m.den for m in mats])
    return Matrix._of_stored(field, len(mats), width, tuple(
        _scaled(m.reshape(1, width), den)[0] for m in mats), den)


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
    else:
        ker = _sparse_kernel(_intertwining_rows(lefts, rights, dn, f.p),
                             nunk, f)
    return [ker.take_rows((i,)).reshape(dm, dn) for i in range(ker.rows)]


def _intertwining_rows(lefts, rights, dn: int, p) -> list[dict]:
    """Rows {column: int} without zero entries of the intertwining system
    over GF(p) (p None: QQ): the unknown F[s][c] is column s * dn + c, and
    row (pair, r, c) says (A F - F B)[r][c] = 0."""
    rows = []
    for am, an in zip(lefts, rights):
        # cleared of denominators: A's rows scaled by B's den, B's by A's;
        # the nonzeros of each column of -B listed once
        den = am.den * an.den
        negb = [[-y if p is None else -y % p for y in brow]
                for brow in _scaled(an, den)]
        bcols = [[(t, y) for t, y in enumerate(col) if y]
                 for col in zip(*negb)]
        bdiag = [brow[c] for c, brow in enumerate(negb)]
        # row (r, c): A[r][s] at F[s][c] and -B[t][c] at F[r][t]; the two
        # meet only at F[r][c], where the terms are summed, and dropped if
        # they cancel
        for r, arow in enumerate(_scaled(am, den)):
            off = r * dn
            aterms = [(s * dn, x) for s, x in enumerate(arow) if x]
            adiag = arow[r]
            for c, bcol in enumerate(bcols):
                row = {}
                for k, x in aterms:
                    row[k + c] = x
                for t, y in bcol:
                    row[off + t] = y
                if adiag and bdiag[c]:
                    x = adiag + bdiag[c]
                    if p is not None:
                        x %= p
                    if x:
                        row[off + c] = x
                    else:
                        del row[off + c]
                rows.append(row)
    return rows


def _intertwining_rows_f2(lefts, rights, dm: int, dn: int) -> tuple[int, ...]:
    """Packed rows of the intertwining system over GF(2): the unknown
    F[s][c] is bit s * dn + c, and row (pair, r, c) says
    (A F - F B)[r][c] = 0."""
    rows = []
    for am, an in zip(lefts, rights):
        # spread[r]: bit s * dn for every s with am[r][s] = 1
        spread = []
        for r in am.ints:
            acc = 0
            while r:
                low = r & -r
                acc |= 1 << ((low.bit_length() - 1) * dn)
                r ^= low
            spread.append(acc)
        colmask = an.transpose().ints  # colmask[c]: bits t, an[t][c] = 1
        for r in range(dm):
            base = spread[r]
            shift = r * dn
            for c in range(dn):
                rows.append((base << c) ^ (colmask[c] << shift))
    return tuple(rows)


# -- spans of a few matrices ---------------------------------------------


def combination(coeffs, mats) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of same-shape
    matrices; a coefficient is a field element or an int, and zero
    coefficients are skipped."""
    first = mats[0]
    f, rows, cols = first.field, first.rows, first.cols
    if any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ValueError("shape mismatch in combination")
    if f.p == 2:
        acc = (0,) * rows
        for c, m in zip(coeffs, mats):
            if c & 1:
                acc = tuple(x ^ y for x, y in zip(acc, m.ints))
        return Matrix._of_stored(f, rows, cols, acc)
    # c = n/q times ints/d, over the lcm of the q * d (all 1 over GF(p))
    terms = [(*c.as_integer_ratio(), m) for c, m in zip(coeffs, mats) if c]
    den = lcm(*[q * m.den for _, q, m in terms])
    acc = None
    for n, q, m in terms:
        s = n * (den // (q * m.den))
        if acc is None:
            acc = m.ints if s == 1 else [[s * y for y in r] for r in m.ints]
        else:
            acc = [[x + s * y for x, y in zip(ra, rm)]
                   for ra, rm in zip(acc, m.ints)]
    if acc is None:
        return Matrix.zero(f, rows, cols)
    return Matrix._of_ints(f, rows, cols, acc, den)


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


# -- GF(p) and QQ integer rows ---------------------------------------------


def _int_row(r):
    """A row of rationals (or ints) as integers over a common denominator:
    (ints, d), d the lcm of the entries' denominators."""
    nd = [x.as_integer_ratio() for x in r]
    d = lcm(*[q for _, q in nd])
    return [n * (d // q) for n, q in nd], d


def _scaled(m: Matrix, den: int):
    """The stored rows of m over den, a multiple of m.den."""
    s = den // m.den
    if s == 1:
        return m.ints
    return tuple(tuple([s * x for x in r]) for r in m.ints)


def _not_an_int(x, field: Field):
    raise ValueError(f"{x!r} is not an int, so not an entry of a "
                     f"{field!r} matrix")


def _sparse_rref(rows, p):
    """Gauss-Jordan over GF(p) (p None: QQ) on rows {column: int} without
    zero entries, pivots from the last column to the first: {pivot: its
    row}, each row without zero entries, zero right of its pivot and at
    every other pivot, 1 at its pivot over GF(p) and, over QQ,
    content-free once it has been cleared.  Each given row is copied once
    and the copy reduced in place until its last column is no pivot yet;
    then, in ascending pivot order, each row is cleared in place by the
    rows before it.  The given rows are left unchanged."""
    red = {}
    for row in rows:
        if not row:
            continue
        row = dict(row)
        m = max(row)
        while m in red:
            _clear_in_place(row, red[m], m, p)
            if not row:
                break
            m = max(row)
        else:
            if p is not None and row[m] != 1:
                inv = pow(row[m], p - 2, p)
                for k, x in row.items():
                    row[k] = x * inv % p
            red[m] = row
    for m in sorted(red):
        row = red[m]
        for k in [k for k in row if k != m and k in red]:
            _clear_in_place(row, red[k], k, p)
    return red


def _sparse_kernel(rows, k: int, field: Field) -> Matrix:
    """Canonical (RREF) basis of the first k coordinates of the solutions
    of a GF(p) or QQ system given as rows {column: int}, from one
    `_sparse_rref`.  Each reduced row is zero right of its pivot and at
    every other pivot, so the solution of a free column j (d e_j less
    row_m[j] d / row_m[m] e_m at each pivot m) is zero left of j and at
    every other free column: the kernel's RREF row with pivot j.  Those
    with j >= k are zero on the first k coordinates, and the rest, cut
    there, are already the RREF of the projection; only the rows with a
    pivot m < k reach it."""
    red = _sparse_rref(rows, field.p)
    den = lcm(*[row[m] for m, row in red.items() if m < k])  # 1 over GF(p)
    sols = {j: [0] * k for j in range(k) if j not in red}
    for j, v in sols.items():
        v[j] = den
    for m, row in red.items():
        if m < k:
            s = den // row[m]
            for j, x in row.items():
                if j != m:
                    sols[j][m] = -x * s
    return Matrix._of_ints(field, len(sols), k, list(sols.values()), den)


def _dict_rows(rows):
    """Integer rows as rows {column: int} without zero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _clear_in_place(row, prow, col: int, p) -> None:
    """Clear column col of row in place by the pivot row prow: row less
    c prow, with c = row[col], over GF(p), where prow[col] = 1; over QQ
    fraction-free, (a/g) row - (c/g) prow with a = prow[col] and
    g = gcd(a, c), its content then divided out."""
    c = row[col]
    if p is None:
        g = gcd(prow[col], c)
        s, c = prow[col] // g, c // g
        if s != 1:
            for k, x in row.items():
                row[k] = s * x
    get = row.get
    for k, y in prow.items():
        x = get(k, 0) - c * y
        if p is not None:
            x %= p
        if x:
            row[k] = x
        else:
            del row[k]
    if p is None:
        g = gcd(*row.values())
        if g > 1:
            for k, x in row.items():
                row[k] = x // g


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
    by pivot, the pivot of a row being its lowest set bit.  Invariant: a
    pivot row holds no pivot bit but its own, so a new row is reduced by
    XORing in the rows of just the pivot bits it has set, r & mask."""
    pivots: dict[int, int] = {}  # pivot bit -> its fully reduced row
    mask = 0  # the OR of the pivot bits
    for r in rows:
        hit = r & mask
        while hit:
            low = hit & -hit
            r ^= pivots[low]
            hit ^= low
        if r:
            low = r & -r
            for pbit, pr in pivots.items():
                if pr & low:
                    pivots[pbit] = pr ^ r
            pivots[low] = r
            mask |= low
    return [(pivots[b], b.bit_length() - 1) for b in sorted(pivots)]


def right_kernel_packed_f2(rows, cols: int, field: Field) -> Matrix:
    """Canonical kernel basis of a GF(2) system given as packed rows."""
    return Matrix._of_stored(field, len(rows), cols, rows).right_kernel()


def projected_kernel(a: Matrix, k: int) -> Matrix:
    """Canonical (RREF) basis of the first k coordinates of {v : v a = 0}."""
    if a.field.p == 2:
        # row i < k tagged with bit a.cols + i: the reduced rows with a tag
        # pivot have no bit below a.cols, so their tags are the projected
        # solutions, already reduced; one elimination in all
        c = a.cols
        red = _rref_f2([r | (1 << (c + i)) if i < k else r
                        for i, r in enumerate(a.ints)])
        tags = tuple(r >> c for r, p in red if p >= c)
        return Matrix._of_stored(a.field, len(tags), k, tags)
    # Over GF(p) and QQ the wider tagged system costs more than it saves
    # (on the integer-row kernels it made the `fields` benchmark 1.06-1.13 s
    # against 0.99-1.03 s, three alternated pairs), so the solutions are
    # read off the reduced system of the columns of a instead.
    return _sparse_kernel(_dict_rows(zip(*a.ints)), k, a.field)


# -- subspaces -----------------------------------------------------------


class Subspace:
    """Subspace of k^ambient given by a canonical RREF row basis; the
    ambient dimension is the basis's width.  Equality and hashing read
    the basis alone."""

    def __init__(self, basis: Matrix):
        self.basis = basis

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace({self.basis!r})"

    @staticmethod
    def from_matrix(mat: Matrix) -> "Subspace":
        """The row space of mat, in k^(mat.cols)."""
        return Subspace(mat.row_space())

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(Matrix.zero(field, 0, ambient))

    @property
    def ambient(self) -> int:
        return self.basis.cols

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, computed once and kept in
        the instance's __dict__ (equality and hashing read only the
        basis)."""
        b = self.basis
        if b.field.p == 2:
            return tuple((r & -r).bit_length() - 1 for r in b.ints)
        return tuple(next(j for j, x in enumerate(row) if x)
                     for row in b.ints)

    def contains_vector(self, v) -> bool:
        v = tuple(v)
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        if self.field.p == 2:
            return self._contains_row(_pack(v))
        return self._contains_row(_int_row(v)[0] if self.field.p is None
                                  else v)

    def _contains_row(self, v) -> bool:
        """Membership of v, given as the basis stores its rows (over QQ
        integers: membership does not see a scalar)."""
        b = self.basis
        if b.field.p == 2:
            # clear each basis row's pivot bit (its lowest set bit) in turn
            for r in b.ints:
                if v & r & -r:
                    v ^= r
            return not v
        # each basis row is den at its pivot and 0 at the others, so v is
        # in the span exactly when den v = the sum of v[pivot] times the
        # row, reduced once at the end over GF(p)
        acc = list(v) if b.den == 1 else [b.den * x for x in v]
        for p, row in zip(self.pivots, b.ints):
            c = v[p]
            if c:
                acc = [x - c * y for x, y in zip(acc, row)]
        p = self.field.p
        return not any(acc if p is None else (x % p for x in acc))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(u.basis.vstack(w.basis).row_space())


def subspace_meet(u: Subspace, w: Subspace) -> Subspace:
    """The image under U of the preimage of W: the coefficient rows c with
    c U in W.  Both c and U are in RREF, and so is their product."""
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    coeffs = projected_kernel(u.basis.vstack(w.basis), u.dim)
    return Subspace(coeffs * u.basis)


def subspace_leq(u: Subspace, w: Subspace) -> bool:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimension mismatch")
    return all(w._contains_row(r) for r in u.basis.ints)


def quotient_projection(s: Subspace) -> Matrix:
    """k^d -> k^d / s as a d x (d - dim s) matrix, in the coordinates of
    the non-pivot columns of s: row t is e_t for a non-pivot t, and minus
    the basis row with pivot t, cut to the non-pivot columns, for a pivot
    t (e_t less that row is zero at every pivot)."""
    piv = set(s.pivots)
    nonpivots = [j for j in range(s.ambient) if j not in piv]
    w = len(nonpivots)
    cut = s.basis.take_cols(nonpivots)
    f = s.field
    out = [None] * s.ambient
    if f.p == 2:
        for k, t in enumerate(nonpivots):
            out[t] = 1 << k
        for t, r in zip(s.pivots, cut.ints):
            out[t] = r
        return Matrix._of_stored(f, s.ambient, w, tuple(out))
    # over GF(p) and QQ: integer rows over the cut's den, e_t being den
    # at its own column
    den = cut.den
    for k, t in enumerate(nonpivots):
        row = [0] * w
        row[k] = den
        out[t] = row
    for t, r in zip(s.pivots, cut.ints):
        out[t] = [-x for x in r]
    return Matrix._of_ints(f, s.ambient, w, out, den)
