import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.fields import GF, QQ
from ppmod.linalg import (Matrix, Subspace, block, combination,
                          intertwiners, kernel, projected_kernel,
                          span_elements, subspace_leq, subspace_meet,
                          subspace_sum, vectorized)

F2 = GF(2)
F3 = GF(3)


def enum_subspace_vectors(s: Subspace):
    """Oracle: all vectors of a subspace over a finite field, by enumerating
    coefficient combinations of the basis."""
    f = s.field
    vecs = set()
    rows = [list(r) for r in s.basis.data]
    for combo in itertools.product(list(f.elements()), repeat=len(rows)):
        v = [f.zero()] * s.ambient
        for c, r in zip(combo, rows):
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, r)]
        vecs.add(tuple(v))
    return vecs


def brute_kernel_vectors(a: Matrix):
    """Oracle: enumerate all of k^cols and keep v with A v = 0."""
    f = a.field
    out = set()
    for v in itertools.product(list(f.elements()), repeat=a.cols):
        img = [f.zero()] * a.rows
        for i in range(a.rows):
            acc = f.zero()
            for j in range(a.cols):
                acc = f.add(acc, f.mul(a.data[i][j], v[j]))
            img[i] = acc
        if all(x == f.zero() for x in img):
            out.add(tuple(v))
    return out


def test_kernel_identity_injective():
    a = Matrix.identity(F2, 2)
    assert kernel(a).dim == 0


def test_kernel_zero_map_full_plane():
    a = Matrix.zero(F2, 1, 2)
    k = kernel(a)
    assert k.dim == 2


def test_kernel_rank_one_derived():
    # oracle: enumerate all 4 vectors of F_2^2
    a = Matrix.from_int_rows(F2, [[1, 1], [1, 1]])
    expected = brute_kernel_vectors(a)
    assert expected == {(0, 0), (1, 1)}  # frozen oracle output
    k = kernel(a)
    assert k.dim == 1
    assert enum_subspace_vectors(k) == expected


def test_lattice_identities_trivial():
    e1 = Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[1, 0, 0]]))
    zero = Subspace.zero(F2, 3)
    full = Subspace.full(F2, 3)
    assert subspace_sum(e1, zero) == e1
    assert subspace_meet(e1, full) == e1


def test_sum_of_axes():
    e1 = Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[1, 0, 0]]))
    e2 = Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[0, 1, 0]]))
    s = subspace_sum(e1, e2)
    assert s.dim == 2
    assert subspace_leq(e1, s) and subspace_leq(e2, s)


def test_meet_of_planes_derived():
    # oracle: enumerate vectors of both planes in F_2^3 and intersect
    u = Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    w = Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[0, 1, 0], [0, 0, 1]]))
    expected = enum_subspace_vectors(u) & enum_subspace_vectors(w)
    got = subspace_meet(u, w)
    assert enum_subspace_vectors(got) == expected
    assert got == Subspace.from_matrix(3, Matrix.from_int_rows(F2, [[0, 1, 0]]))


def rand_subspace(field, ambient, rows, draw):
    data = [[draw() for _ in range(ambient)] for _ in range(rows)]
    return Subspace.from_matrix(ambient, Matrix.from_rows(field, data))


@st.composite
def f2_subspace(draw, ambient=4):
    nrows = draw(st.integers(0, ambient))
    if nrows == 0:
        return Subspace.zero(F2, ambient)
    data = [[draw(st.integers(0, 1)) for _ in range(ambient)] for _ in range(nrows)]
    return Subspace.from_matrix(ambient, Matrix.from_int_rows(F2, data))


@settings(max_examples=120, deadline=None)
@given(f2_subspace(), f2_subspace(), f2_subspace())
def test_modular_law(u, x, w):
    # for U <= W: U + (X meet W) == (U + X) meet W
    u = subspace_meet(u, w)  # force U <= W
    lhs = subspace_sum(u, subspace_meet(x, w))
    rhs = subspace_meet(subspace_sum(u, x), w)
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(f2_subspace(), f2_subspace())
def test_dim_formula(u, w):
    s = subspace_sum(u, w)
    m = subspace_meet(u, w)
    assert u.dim + w.dim == s.dim + m.dim


@settings(max_examples=120, deadline=None)
@given(f2_subspace(), f2_subspace())
def test_lattice_ops_commutative_idempotent(u, w):
    assert subspace_sum(u, w) == subspace_sum(w, u)
    assert subspace_meet(u, w) == subspace_meet(w, u)
    assert subspace_sum(u, u) == u
    assert subspace_meet(u, u) == u


def test_canonicality_equality_is_structural():
    a = Subspace.from_matrix(2, Matrix.from_int_rows(F2, [[1, 1], [0, 1]]))
    b = Subspace.from_matrix(2, Matrix.from_int_rows(F2, [[1, 0], [1, 1]]))
    assert a == b
    assert a.basis.data == b.basis.data
    assert hash(a) == hash(b)


def test_f3_and_rationals_basic():
    a = Matrix.from_int_rows(F3, [[1, 2], [2, 4]])
    assert a.rank() == 1
    k = kernel(a)
    assert k.dim == 1
    b = Matrix.from_int_rows(QQ, [[1, 2], [3, 4]])
    assert b.rank() == 2
    assert (b * b.inverse()) == Matrix.identity(QQ, 2)


def test_solve_right_consistency():
    a = Matrix.from_int_rows(F2, [[1, 1, 0], [0, 1, 1]])
    b = Matrix.from_int_rows(F2, [[1], [1]])
    x = a.solve_right(b)
    assert x is not None and (a * x) == b


def test_f2_packed_rows_and_element_rows_agree():
    # bit j of a packed row is column j
    a = Matrix(F2, 2, 3, [[1, 0, 1], [0, 1, 1]])
    b = Matrix.from_packed(F2, 2, 3, (0b101, 0b110))
    assert a.packed == b.packed == (0b101, 0b110)
    assert a == b and hash(a) == hash(b)
    assert b.data == ((1, 0, 1), (0, 1, 1))
    assert a != Matrix.from_packed(F2, 2, 3, (0b101, 0b111))
    assert Matrix.from_int_rows(F3, [[1, 0, 1], [0, 1, 1]]).packed is None


def test_zero_dim_edge_cases():
    z = Matrix(F2, 0, 3, [])
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    assert kernel(z).dim == 3
    zz = Matrix(F2, 2, 0, [(), ()])
    assert kernel(zz).dim == 0


@st.composite
def span_input(draw):
    """A field GF(2) or GF(3), a shape up to 3x3 and k = 0..4 matrices."""
    f = draw(st.sampled_from([F2, F3]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    k = draw(st.integers(0, 4))
    entries = st.lists(st.lists(st.integers(0, f.p - 1), min_size=cols,
                                max_size=cols), min_size=rows, max_size=rows)
    mats = [Matrix(f, rows, cols, draw(entries)) for _ in range(k)]
    return f, rows, cols, mats


@settings(max_examples=150, deadline=None)
@given(span_input())
def test_span_elements_matches_product_rebuild(inp):
    f, rows, cols, mats = inp
    zero = Matrix.zero(f, rows, cols)
    expected = []
    for combo in itertools.product(list(f.elements()), repeat=len(mats)):
        mat = zero
        for c, m in zip(combo, mats):
            if c != f.zero():
                mat = mat + m.scale(c)
        expected.append((combo, mat))
    got = list(span_elements(mats, zero))
    assert got == expected
    if mats:
        assert all(combination(c, mats) == m for c, m in expected)


# -- sympy DomainMatrix oracle ----------------------------------------------

ORACLE_FIELDS = [F2, F3, GF(5), QQ]


def to_domain_matrix(mat: Matrix):
    from sympy import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix
    f = mat.field
    dom = SymQQ if f.p is None else SymGF(f.p)
    if f.p is None:
        rows = [[dom(x.numerator, x.denominator) for x in r] for r in mat.data]
    else:
        rows = [[dom(int(x)) for x in r] for r in mat.data]
    return DomainMatrix(rows, (mat.rows, mat.cols), dom)


def from_domain_rows(rows, f):
    if f.p is None:
        return [[QQ.of(0) + Fraction(int(x.numerator), int(x.denominator))
                 for x in r] for r in rows]
    return [[int(x) % f.p for x in r] for r in rows]


def oracle_rref_rows(dm, f):
    """Nonzero rows of the reduced echelon form, as lists of ppmod values."""
    red, pivots = dm.rref()
    return from_domain_rows(red.to_list()[:len(pivots)], f), tuple(pivots)


def oracle_kernel_rows(dm, f):
    """Reduced echelon basis of {v : dm v = 0}."""
    cols = dm.shape[1]
    ns = dm.nullspace()
    if ns.shape[0] == 0 or ns.shape[1] != cols:
        return []
    return oracle_rref_rows(ns, f)[0]


def oracle_row_space(f, cols, rows):
    """Reduced echelon basis of the span of rows (lists of ppmod values)."""
    return oracle_rref_rows(
        to_domain_matrix(Matrix(f, len(rows), cols, rows)), f)[0]


def field_matrix(f, rows, cols, entry=None):
    if entry is None:
        entry = st.integers(0, f.p - 1) if f.p else \
            st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda d: Matrix(f, rows, cols, [[f.of(0) + x for x in r]
                                         for r in d]))


@st.composite
def oracle_input(draw):
    """A field, an a x b matrix A (a, b in 0..5, so 0 x n, n x 0 and 0 x 0
    occur), B of the same shape, C of shape b x k, a right-hand side of
    shape a x k (often A times something, so solvable systems occur), a
    vector of length b and a number of leading coordinates 0..a."""
    f = draw(st.sampled_from(ORACLE_FIELDS))
    a, b, k = (draw(st.integers(0, 5)) for _ in range(3))
    mat_a = draw(field_matrix(f, a, b))
    mat_b = draw(field_matrix(f, a, b))
    mat_c = draw(field_matrix(f, b, k))
    rhs = mat_a * mat_c if draw(st.booleans()) \
        else draw(field_matrix(f, a, k))
    vec = draw(field_matrix(f, 1, b))
    if b and draw(st.booleans()):  # a vector of the row space
        vec = draw(field_matrix(f, 1, a)) * mat_a if a else vec
    return f, mat_a, mat_b, mat_c, rhs, vec.data[0], draw(st.integers(0, a))


@settings(max_examples=200, deadline=None)
@given(oracle_input())
def test_linalg_matches_sympy_domain_matrix(inp):
    f, a, b, c, rhs, vec, lead = inp
    da = to_domain_matrix(a)
    red, pivots = a.rref()
    assert ([list(r) for r in red.data], pivots) == oracle_rref_rows(da, f)
    assert (red.rows, red.cols) == (len(pivots), a.cols)
    assert a.rank() == da.rank()
    assert [list(r) for r in a.right_kernel().data] == \
        oracle_kernel_rows(da, f)
    assert [list(r) for r in a.left_kernel().data] == \
        oracle_kernel_rows(da.transpose(), f)
    prod = a * c
    assert (prod.rows, prod.cols) == (a.rows, c.cols)
    assert [list(r) for r in prod.data] == \
        from_domain_rows(da.matmul(to_domain_matrix(c)).to_list(), f)
    assert [list(r) for r in (a + b).data] == \
        from_domain_rows((da + to_domain_matrix(b)).to_list(), f)
    solvable = da.rank() == da.hstack(to_domain_matrix(rhs)).rank()
    x = a.solve_right(rhs)
    assert (x is not None) == solvable
    if x is not None:
        assert (x.rows, x.cols) == (a.cols, rhs.cols)
        assert [list(r) for r in rhs.data] == from_domain_rows(
            da.matmul(to_domain_matrix(x)).to_list(), f)
    span = Subspace(a.cols, red)
    dv = to_domain_matrix(Matrix(f, 1, a.cols, [vec]))
    assert span.contains_vector(vec) == (da.vstack(dv).rank() == da.rank())
    # the first `lead` coordinates of the left kernel, reduced
    left = oracle_kernel_rows(da.transpose(), f)
    assert [list(r) for r in projected_kernel(a, lead).data] == \
        oracle_row_space(f, lead, [r[:lead] for r in left])
    # the meet of the row spaces of A and B is the common orthogonal
    # complement of their kernels
    meet = subspace_meet(span, Subspace(b.cols, b.row_space()))
    perps = oracle_kernel_rows(da, f) + \
        oracle_kernel_rows(to_domain_matrix(b), f)
    assert [list(r) for r in meet.basis.data] == oracle_kernel_rows(
        to_domain_matrix(Matrix(f, len(perps), a.cols, perps)), f)


def canonical(mat: Matrix) -> bool:
    """Entries are ints in range(p) over GF(p) and Fractions over QQ."""
    p = mat.field.p
    if p is None:
        return all(type(x) is Fraction for r in mat.data for x in r)
    return all(type(x) is int and 0 <= x < p for r in mat.data for x in r)


def check_kernels_against_domain_matrix(a: Matrix, c: Matrix, rhs: Matrix):
    """rref, both kernels, a * c and a.solve_right(rhs) agree with sympy's
    DomainMatrix, and every result has canonical entries."""
    f = a.field
    da = to_domain_matrix(a)
    red, pivots = a.rref()
    assert ([list(r) for r in red.data], pivots) == oracle_rref_rows(da, f)
    right, left = a.right_kernel(), a.left_kernel()
    assert [list(r) for r in right.data] == oracle_kernel_rows(da, f)
    assert [list(r) for r in left.data] == \
        oracle_kernel_rows(da.transpose(), f)
    prod = a * c
    assert [list(r) for r in prod.data] == \
        from_domain_rows(da.matmul(to_domain_matrix(c)).to_list(), f)
    x = a.solve_right(rhs)
    assert (x is not None) == \
        (da.rank() == da.hstack(to_domain_matrix(rhs)).rank())
    if x is not None:
        assert [list(r) for r in rhs.data] == from_domain_rows(
            da.matmul(to_domain_matrix(x)).to_list(), f)
    assert all(canonical(m) for m in (red, right, left, prod, x)
               if m is not None)


@st.composite
def kernel_input(draw):
    """A field, an a x b matrix A (a, b in 0..12), often built as a product
    through k <= min(a, b) columns so that it is rank-deficient, C of shape
    b x c and a right-hand side of shape a x c, often A times C.  QQ entries
    have numerators up to 50 in size and denominators up to 7."""
    f = draw(st.sampled_from([F3, GF(7), QQ]))
    entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7)) \
        if f.p is None else None
    rows, cols, width = (draw(st.integers(0, 12)) for _ in range(3))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        a = draw(field_matrix(f, rows, k, entry)) * \
            draw(field_matrix(f, k, cols, entry))
    else:
        a = draw(field_matrix(f, rows, cols, entry))
    c = draw(field_matrix(f, cols, width, entry))
    rhs = a * c if draw(st.booleans()) \
        else draw(field_matrix(f, rows, width, entry))
    return a, c, rhs


@settings(max_examples=100, deadline=None)
@given(kernel_input())
def test_kernels_match_sympy_domain_matrix_up_to_12(inp):
    check_kernels_against_domain_matrix(*inp)


@pytest.mark.parametrize("f", [F3, QQ], ids=["gf3", "qq"])
def test_kernels_match_sympy_domain_matrix_at_64(f):
    rng = random.Random(64)
    pool = [f.of(v) for v in (-2, -1, 0, 1, 2)]

    def rand(rows, cols):
        return Matrix(f, rows, cols, [[rng.choice(pool) for _ in range(cols)]
                                      for _ in range(rows)])

    a = rand(64, 48) * rand(48, 64)  # rank 48 or a little less
    c = rand(64, 64)
    check_kernels_against_domain_matrix(a, c, a * rand(64, 8))


def test_rref_and_mul_call_no_field_arithmetic(monkeypatch):
    from ppmod.fields import PrimeField, RationalField
    mats = [Matrix.from_int_rows(f, [[1, 2, 0], [2, 4, 1], [0, 1, 2]])
            for f in (F3, QQ)]

    def refuse(*args):
        raise AssertionError("field arithmetic inside a kernel")

    for cls in (PrimeField, RationalField):
        for name in ("add", "sub", "mul", "neg"):
            monkeypatch.setattr(cls, name, refuse)
    for m in mats:
        assert m.rref()[1] == (0, 1, 2)
        assert canonical(m * m)


# -- storage-agnostic assembly: reshape, vectorized, block, intertwiners ----

ASSEMBLY_FIELDS = [F2, F3, QQ]


@st.composite
def reshape_input(draw):
    """A matrix of shape up to 4x4 (0-size shapes included) and a second
    shape with the same number of entries."""
    f = draw(st.sampled_from(ASSEMBLY_FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    mat = draw(field_matrix(f, rows, cols))
    n = rows * cols
    if n:
        r2 = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        shape = (r2, n // r2)
    else:
        shape = draw(st.sampled_from([(0, 0), (0, 3), (3, 0)]))
    return mat, shape


@settings(max_examples=150, deadline=None)
@given(reshape_input())
def test_reshape_is_row_major_and_round_trips(inp):
    mat, (r2, c2) = inp
    flat = [x for row in mat.data for x in row]
    out = mat.reshape(r2, c2)
    assert (out.rows, out.cols) == (r2, c2)
    assert [x for row in out.data for x in row] == flat
    assert out.reshape(mat.rows, mat.cols) == mat
    doubled = mat.scale(mat.field.of(2))
    vec = vectorized(mat.field, [mat, doubled], mat.rows * mat.cols)
    assert [list(r) for r in vec.data] == \
        [flat, [x for row in doubled.data for x in row]]
    with pytest.raises(ValueError):
        mat.reshape(r2 + 1, c2 + 1)


def test_vectorized_of_no_matrices_is_empty():
    for f in ASSEMBLY_FIELDS:
        v = vectorized(f, [], 6)
        assert (v.rows, v.cols) == (0, 6)


@st.composite
def block_input(draw):
    """Band heights and widths (0..3 bands of sizes 0..3) and blocks on a
    random subset of the bands."""
    f = draw(st.sampled_from(ASSEMBLY_FIELDS))
    heights = draw(st.lists(st.integers(0, 3), min_size=0, max_size=3))
    widths = draw(st.lists(st.integers(0, 3), min_size=0, max_size=3))
    blocks = {}
    for i, h in enumerate(heights):
        for j, w in enumerate(widths):
            if draw(st.booleans()):
                blocks[(i, j)] = draw(field_matrix(f, h, w))
    return f, heights, widths, blocks


@settings(max_examples=150, deadline=None)
@given(block_input())
def test_block_matches_elementwise_assembly(inp):
    f, heights, widths, blocks = inp
    rows, cols = sum(heights), sum(widths)
    expected = [[f.zero()] * cols for _ in range(rows)]
    for (i, j), m in blocks.items():
        r0, c0 = sum(heights[:i]), sum(widths[:j])
        for r in range(m.rows):
            for c in range(m.cols):
                expected[r0 + r][c0 + c] = m.data[r][c]
    out = block(f, heights, widths, blocks)
    assert (out.rows, out.cols) == (rows, cols)
    assert [list(r) for r in out.data] == expected
    if heights and widths:
        wrong = Matrix.zero(f, heights[0] + 1, widths[0])
        with pytest.raises(ValueError):
            block(f, heights, widths, {**blocks, (0, 0): wrong})


def kronecker_system(pairs, dm, dn):
    """The rows of A F - F B = 0 in the row-major unknowns of F, built
    entry by entry: A kron I - I kron B^T for each pair."""
    f = pairs[0][0].field
    rows = []
    for a, b in pairs:
        for r in range(dm):
            for c in range(dn):
                row = [f.zero()] * (dm * dn)
                for s in range(dm):
                    for t in range(dn):
                        x = f.zero()
                        if t == c:
                            x = f.add(x, a.data[r][s])
                        if s == r:
                            x = f.sub(x, b.data[t][c])
                        row[s * dn + t] = x
                rows.append(row)
    return Matrix(f, len(rows), dm * dn, rows)


@st.composite
def intertwiner_input(draw):
    """1..3 pairs (A, B) with A dm x dm and B dn x dn (dm, dn in 0..3);
    often B = A, so that nonzero intertwiners occur over every field."""
    f = draw(st.sampled_from(ASSEMBLY_FIELDS))
    dm, dn = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    same = dm == dn and draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(field_matrix(f, dm, dm))
        pairs.append((a, a if same else draw(field_matrix(f, dn, dn))))
    return pairs, dm, dn


@settings(max_examples=150, deadline=None)
@given(intertwiner_input())
def test_intertwiners_match_sympy_kronecker_nullspace(inp):
    pairs, dm, dn = inp
    f = pairs[0][0].field
    basis = intertwiners([a for a, _ in pairs], [b for _, b in pairs],
                         dm, dn)
    system = kronecker_system(pairs, dm, dn)
    oracle = oracle_kernel_rows(to_domain_matrix(system), f)
    assert len(basis) == len(oracle)
    for m in basis:
        assert (m.rows, m.cols) == (dm, dn)
        assert all(a * m == m * b for a, b in pairs)
    vec = vectorized(f, basis, dm * dn)
    assert vec.rref()[0] == vec
    assert [list(r) for r in vec.data] == oracle
