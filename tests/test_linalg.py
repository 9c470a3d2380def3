import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.algebra import truncated_dvr
from ppmod.fields import GF, QQ
from ppmod.linalg import (Matrix, Subspace, _intertwining_rows, _sparse_rref,
                          block, block_diagonal, combination, intertwiners,
                          projected_kernel, quotient_projection,
                          span_elements, subspace_leq, subspace_meet,
                          subspace_sum, vectorized)
from reference import law_failure

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
            v = [f.of(x + c * y) for x, y in zip(v, r)]
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
                acc = f.of(acc + a.data[i][j] * v[j])
            img[i] = acc
        if all(x == f.zero() for x in img):
            out.add(tuple(v))
    return out


def test_kernel_identity_injective():
    a = Matrix.identity(F2, 2)
    assert a.right_kernel().rows == 0


def test_kernel_zero_map_full_plane():
    a = Matrix.zero(F2, 1, 2)
    k = a.right_kernel()
    assert k.rows == 2


def test_kernel_rank_one_derived():
    # oracle: enumerate all 4 vectors of F_2^2
    a = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    expected = brute_kernel_vectors(a)
    assert expected == {(0, 0), (1, 1)}  # frozen oracle output
    k = Subspace(a.right_kernel())
    assert k.dim == 1
    assert enum_subspace_vectors(k) == expected


def test_lattice_identities_trivial():
    e1 = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 0, 0]]))
    zero = Subspace.zero(F2, 3)
    full = Subspace.from_matrix(Matrix.identity(F2, 3))
    assert subspace_sum(e1, zero) == e1
    assert subspace_meet(e1, full) == e1


def test_sum_of_axes():
    e1 = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 0, 0]]))
    e2 = Subspace.from_matrix(Matrix.from_rows(F2, [[0, 1, 0]]))
    s = subspace_sum(e1, e2)
    assert s.dim == 2
    assert subspace_leq(e1, s) and subspace_leq(e2, s)


def test_meet_of_planes_derived():
    # oracle: enumerate vectors of both planes in F_2^3 and intersect
    u = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    w = Subspace.from_matrix(Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1]]))
    expected = enum_subspace_vectors(u) & enum_subspace_vectors(w)
    got = subspace_meet(u, w)
    assert enum_subspace_vectors(got) == expected
    assert got == Subspace.from_matrix(Matrix.from_rows(F2, [[0, 1, 0]]))


def rand_subspace(field, ambient, rows, draw):
    data = [[draw() for _ in range(ambient)] for _ in range(rows)]
    return Subspace.from_matrix(Matrix.from_rows(field, data))


@st.composite
def f2_subspace(draw, ambient=4):
    nrows = draw(st.integers(0, ambient))
    if nrows == 0:
        return Subspace.zero(F2, ambient)
    data = [[draw(st.integers(0, 1)) for _ in range(ambient)] for _ in range(nrows)]
    return Subspace.from_matrix(Matrix.from_rows(F2, data))


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


def test_a_subspace_reads_its_ambient_dimension_off_its_basis():
    assert Subspace.zero(F2, 3).ambient == 3
    assert Subspace.from_matrix(Matrix.zero(F3, 0, 4)).ambient == 4
    s = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 1, 0], [1, 1, 0]]))
    assert (s.ambient, s.dim) == (3, 1)


def test_canonicality_equality_is_structural():
    a = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 1], [0, 1]]))
    b = Subspace.from_matrix(Matrix.from_rows(F2, [[1, 0], [1, 1]]))
    assert a == b
    assert a.basis.data == b.basis.data
    assert hash(a) == hash(b)


def test_f3_and_rationals_basic():
    a = Matrix.from_rows(F3, [[1, 2], [2, 4]])
    assert a.rank() == 1
    k = a.right_kernel()
    assert k.rows == 1
    b = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert b.rank() == 2
    assert (b * b.inverse()) == Matrix.identity(QQ, 2)


def test_solve_right_consistency():
    a = Matrix.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
    b = Matrix.from_rows(F2, [[1], [1]])
    x = a.solve_right(b)
    assert x is not None and (a * x) == b


def test_f2_packed_rows_and_element_rows_agree():
    # bit j of a packed row is column j
    a = Matrix(F2, 2, 3, [[1, 0, 1], [0, 1, 1]])
    b = Matrix.from_rows(F2, [[1, 0, 1], [0, 1, 1]])
    assert a.ints == b.ints == (0b101, 0b110)
    assert a == b and hash(a) == hash(b)
    assert b.data == ((1, 0, 1), (0, 1, 1))
    assert a != Matrix.from_rows(F2, [[1, 0, 1], [1, 1, 1]])


def test_zero_dim_edge_cases():
    z = Matrix(F2, 0, 3, [])
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    assert z.right_kernel().rows == 3
    zz = Matrix(F2, 2, 0, [(), ()])
    assert zz.right_kernel().rows == 0


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


def domain_of(f):
    """sympy's domain for f and the map of a ppmod value into it."""
    from sympy import GF as SymGF, QQ as SymQQ
    if f.p is None:
        return SymQQ, lambda x: SymQQ(x.numerator, x.denominator)
    dom = SymGF(f.p)
    return dom, lambda x: dom(int(x))


def to_domain_matrix(mat: Matrix):
    from sympy.polys.matrices import DomainMatrix
    dom, conv = domain_of(mat.field)
    rows = [[conv(x) for x in r] for r in mat.data]
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
def sparse_field_matrix(draw, f, rows, cols):
    """A rows x cols matrix that is mostly zero: some whole rows and
    columns zero, the other entries zero three times in four, and over QQ
    the nonzero entries over one common denominator 2..6."""
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    if f.p is None:
        q = draw(st.integers(2, 6))
        nonzero = st.integers(-6, 6).filter(bool).map(
            lambda n: Fraction(n, q))
    else:
        nonzero = st.integers(1, f.p - 1)
    entry = st.one_of(st.just(0), st.just(0), st.just(0), nonzero)
    return Matrix(f, rows, cols, [
        [f.of(0) + (0 if i in zero_rows or j in zero_cols else draw(entry))
         for j in range(cols)] for i in range(rows)])


@st.composite
def oracle_input(draw):
    """A field, an a x b matrix A (a, b in 0..5, so 0 x n, n x 0 and 0 x 0
    occur), B of the same shape, C of shape b x k, a right-hand side of
    shape a x k (often A times something, so solvable systems occur), a
    vector of length b and a number of leading coordinates 0..a.  The
    matrices are drawn uniformly or, as often, sparse (mostly zero, with
    zero rows and columns, over QQ over a common denominator)."""
    f = draw(st.sampled_from(ORACLE_FIELDS))
    matrix = draw(st.sampled_from([field_matrix, sparse_field_matrix]))
    a, b, k = (draw(st.integers(0, 5)) for _ in range(3))
    mat_a = draw(matrix(f, a, b))
    mat_b = draw(matrix(f, a, b))
    mat_c = draw(matrix(f, b, k))
    rhs = mat_a * mat_c if draw(st.booleans()) \
        else draw(matrix(f, a, k))
    vec = draw(matrix(f, 1, b))
    if b and draw(st.booleans()):  # a vector of the row space
        vec = draw(matrix(f, 1, a)) * mat_a if a else vec
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
    span = Subspace(red)
    dv = to_domain_matrix(Matrix(f, 1, a.cols, [vec]))
    assert span.contains_vector(vec) == (da.vstack(dv).rank() == da.rank())
    # the first `lead` coordinates of the left kernel, reduced
    left = oracle_kernel_rows(da.transpose(), f)
    assert [list(r) for r in projected_kernel(a, lead).data] == \
        oracle_row_space(f, lead, [r[:lead] for r in left])
    # the meet of the row spaces of A and B is the common orthogonal
    # complement of their kernels
    meet = subspace_meet(span, Subspace(b.row_space()))
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


def check_kernels_against_domain_matrix(a: Matrix, c: Matrix, rhs: Matrix,
                                        lead: int):
    """rref, both kernels, the first `lead` coordinates of the left
    kernel, a * c and a.solve_right(rhs) agree with sympy's DomainMatrix,
    and every result has canonical entries."""
    f = a.field
    da = to_domain_matrix(a)
    red, pivots = a.rref()
    assert ([list(r) for r in red.data], pivots) == oracle_rref_rows(da, f)
    right, left = a.right_kernel(), a.left_kernel()
    assert [list(r) for r in right.data] == oracle_kernel_rows(da, f)
    oracle_left = oracle_kernel_rows(da.transpose(), f)
    assert [list(r) for r in left.data] == oracle_left
    cut = projected_kernel(a, lead)
    assert [list(r) for r in cut.data] == \
        oracle_row_space(f, lead, [r[:lead] for r in oracle_left])
    prod = a * c
    assert [list(r) for r in prod.data] == \
        from_domain_rows(da.matmul(to_domain_matrix(c)).to_list(), f)
    x = a.solve_right(rhs)
    assert (x is not None) == \
        (da.rank() == da.hstack(to_domain_matrix(rhs)).rank())
    if x is not None:
        assert [list(r) for r in rhs.data] == from_domain_rows(
            da.matmul(to_domain_matrix(x)).to_list(), f)
    assert all(canonical(m) for m in (red, right, left, cut, prod, x)
               if m is not None)


@st.composite
def kernel_input(draw):
    """A field, an a x b matrix A (a, b in 0..12), often built as a product
    through k <= min(a, b) columns so that it is rank-deficient, C of shape
    b x c, a right-hand side of shape a x c, often A times C, and a number
    of leading coordinates 0..a.  QQ entries have numerators up to 50 in
    size and denominators up to 7."""
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
    return a, c, rhs, draw(st.integers(0, rows))


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
    check_kernels_against_domain_matrix(a, c, a * rand(64, 8), 40)


def count_fraction_ops(monkeypatch) -> Counter:
    """Count every call of Fraction.__add__, __mul__ and __eq__ from now
    to the end of the test."""
    counts = Counter()
    for name in ("__add__", "__mul__", "__eq__"):
        def counted(*args, _fn=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(Fraction, name, counted)
    return counts


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_below_100000():
    from ppmod.fields import _is_prime
    assert [n for n in range(100_000) if _is_prime(n)] == \
        [n for n in range(100_000) if _trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [561, 3215031751, 2 ** 64 - 1])
def test_pseudoprimes_and_carmichael_numbers_are_composite(n):
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    from ppmod.fields import _is_prime
    assert not _is_prime(n)


def test_fields_define_no_entry_arithmetic(monkeypatch):
    # entries are combined with Python operators and reduced by Field.of;
    # over QQ they are integers over one denominator, so no Fraction
    # arithmetic either
    from ppmod.fields import PrimeField, RationalField
    for cls in (PrimeField, RationalField):
        for name in ("add", "sub", "mul", "neg"):
            assert not hasattr(cls, name), (cls.__name__, name)
    counts = count_fraction_ops(monkeypatch)
    for f in (F3, QQ):
        m = Matrix.from_rows(f, [[1, 2, 0], [2, 4, 1], [0, 1, 2]])
        assert m.rref()[1] == (0, 1, 2)
        square = m * m
        assert sum(counts.values()) == 0, (f, counts)
        assert canonical(square)


def test_native_qq_kernels_do_no_fraction_arithmetic(monkeypatch):
    """rref, *, combination, intertwiners and the module-law check on QQ
    matrices with non-integer entries make no Fraction.__add__, __mul__
    or __eq__ call: they work on the integer rows."""
    rng = random.Random(7)
    pool = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    a, b = (Matrix(QQ, 6, 6, [[rng.choice(pool) for _ in range(6)]
                              for _ in range(6)]) for _ in range(2))
    alg = truncated_dvr(4, QQ)
    # the regular representation conjugated by a non-integer change of
    # basis: still a right module, with denominators in every action
    p = Matrix.from_rows(QQ, [[1, Fraction(1, 2), 0, 0],
                              [0, 1, Fraction(-2, 3), 0],
                              [0, 0, 1, Fraction(3, 5)],
                              [Fraction(1, 7), 0, 0, 1]])
    p_inv = p.inverse()
    action = [p_inv * r * p for r in alg.free_action(1)]
    coeffs = [Fraction(1, 2), Fraction(0), Fraction(-3, 4), Fraction(5)]
    assert max(m.den for m in action) > 1

    counts = count_fraction_ops(monkeypatch)
    _ = Fraction(1, 2) + Fraction(1, 3)  # the counter sees Fraction arithmetic
    assert counts == Counter({"__add__": 1})
    counts.clear()
    a.vstack(b).rref()
    prod = a * b
    comb = combination(coeffs, action)
    ends = intertwiners(action, action, 4, 4)
    assert law_failure(alg, action) is None
    assert sum(counts.values()) == 0, counts

    monkeypatch.undo()
    assert len(ends) == 4  # End of the regular module is the algebra
    assert prod.data == tuple(tuple(sum((x * y for x, y in zip(r, c)),
                                        Fraction(0)) for c in zip(*b.data))
                              for r in a.data)
    assert comb.data == tuple(
        tuple(sum((k * m.data[i][j] for k, m in zip(coeffs, action)),
                  Fraction(0)) for j in range(4)) for i in range(4))


def assert_canonical_qq(m: Matrix):
    """m's QQ storage is canonical: a positive denominator coprime to the
    entries, so the matrix built again from its Fractions compares and
    hashes equal."""
    assert m.den > 0
    assert gcd(m.den, *[x for r in m.ints for x in r]) == 1
    again = Matrix(QQ, m.rows, m.cols, m.data)
    assert again == m and hash(again) == hash(m)


def fraction_rref(rows, cols):
    """Gauss-Jordan in Fractions: the nonzero reduced rows."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(cols):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                rows[i] = [x - r[col] * y for x, y in zip(r, rows[rank])]
        rank += 1
    return rows[:rank]


@st.composite
def qq_storage_input(draw):
    """A and B of shape r x c, E of shape c x k (r, c, k in 0..4), all
    with non-integer entries, a scalar (zero included) and row and column
    selections, repeats allowed."""
    r, c, k = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(field_matrix(QQ, r, c)), draw(field_matrix(QQ, r, c))
    e = draw(field_matrix(QQ, c, k))
    scalar = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    rows = draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    cols = draw(st.lists(st.integers(0, c - 1), max_size=5)) if c else []
    return a, b, e, scalar, rows, cols


@settings(max_examples=150, deadline=None)
@given(qq_storage_input())
def test_qq_storage_is_canonical_and_matches_fractions(inp):
    a, b, e, c, rows, cols = inp
    fa, fb, fe = ([list(r) for r in m.data] for m in (a, b, e))
    r, n, k = a.rows, a.cols, e.cols
    zero = Fraction(0)
    fprod = [[sum((fa[i][t] * fe[t][j] for t in range(n)), zero)
              for j in range(k)] for i in range(r)]
    et = e.transpose()
    results = {
        "add": (a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(fa, fb)]),
        "sub": (a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(fa, fb)]),
        "neg": (-a, [[-x for x in p] for p in fa]),
        "scale": (a.scale(c), [[c * x for x in p] for p in fa]),
        "mul": (a * e, fprod),
        "transpose": (et, [[fe[i][j] for i in range(n)] for j in range(k)]),
        "take_rows": (a.take_rows(rows), [fa[i] for i in rows]),
        "take_cols": (a.take_cols(cols), [[p[j] for j in cols] for p in fa]),
        "reshape": (a.reshape(1, r * n), [[x for p in fa for x in p]]),
        "hstack": (a.hstack(b), [p + q for p, q in zip(fa, fb)]),
        "vstack": (a.vstack(b), fa + fb),
        "block": (block(QQ, [r, k], [n, n], {(0, 1): a, (1, 0): et}),
                  [[zero] * n + p for p in fa] +
                  [[fe[i][j] for i in range(n)] + [zero] * n
                   for j in range(k)]),
        "vectorized": (vectorized(QQ, [a, b], r * n),
                       [[x for p in fa for x in p], [x for p in fb for x in p]]),
        "combination": (combination((c, -1, Fraction(1, 3)), [a, b, a]),
                        [[c * x - y + x / 3 for x, y in zip(p, q)]
                         for p, q in zip(fa, fb)]),
        "rref": (a.rref()[0], fraction_rref(fa, n)),
    }
    for name, (m, expected) in results.items():
        assert [list(p) for p in m.data] == expected, name
        assert_canonical_qq(m)
    # kernels: canonical, and every row solves the system in Fractions
    for ker, sys_rows in ((a.right_kernel(), fa), (a.left_kernel(),
                                                    [list(p) for p in zip(*fa)])):
        assert_canonical_qq(ker)
        assert all(sum((x * y for x, y in zip(p, v)), zero) == 0
                   for v in ker.data for p in sys_rows)
    sq = a.transpose() * a.scale(c) + e * e.transpose()
    ends = intertwiners([sq], [sq], n, n)
    assert len(ends) >= (1 if n else 0)
    for m in ends:
        assert_canonical_qq(m)
        assert sq * m == m * sq
    # the same matrix built by two routes is one stored matrix
    cut = (a * e).take_cols(range(k // 2))
    direct = Matrix(QQ, r, k // 2, [p[:k // 2] for p in fprod])
    assert cut == direct and hash(cut) == hash(direct)
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    assert a.hstack(b).take_cols(range(n)) == a
    # subspaces on the stored rows: pivots, membership and containment
    span = Subspace.from_matrix(a)
    assert span.pivots == tuple(next(j for j, x in enumerate(p) if x)
                                for p in fraction_rref(fa, n))
    assert all(span.contains_vector(p) for p in fa)
    if r:
        assert span.contains_vector([c * x + y for x, y in zip(fa[0], fa[-1])])
    assert subspace_leq(span, Subspace.from_matrix(a.vstack(b)))
    assert subspace_leq(Subspace.from_matrix(b), span) == \
        (Subspace.from_matrix(a.vstack(b)) == span)


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


def elementwise_block(f, heights, widths, blocks):
    """The rows of the block matrix, filled entry by entry."""
    expected = [[f.zero()] * sum(widths) for _ in range(sum(heights))]
    for (i, j), m in blocks.items():
        r0, c0 = sum(heights[:i]), sum(widths[:j])
        for r in range(m.rows):
            for c in range(m.cols):
                expected[r0 + r][c0 + c] = m.data[r][c]
    return expected


@settings(max_examples=150, deadline=None)
@given(block_input())
def test_block_matches_elementwise_assembly(inp):
    f, heights, widths, blocks = inp
    out = block(f, heights, widths, blocks)
    assert (out.rows, out.cols) == (sum(heights), sum(widths))
    assert [list(r) for r in out.data] == \
        elementwise_block(f, heights, widths, blocks)
    if heights and widths:
        wrong = Matrix.zero(f, heights[0] + 1, widths[0])
        with pytest.raises(ValueError):
            block(f, heights, widths, {**blocks, (0, 0): wrong})


@pytest.mark.parametrize("field", ASSEMBLY_FIELDS, ids=str)
def test_block_with_empty_bands_matches_the_general_path(field):
    # F0 builds its actions on the bands [0, d] of an empty M_0: the one
    # filled block that spans the matrix is returned as it is, and blocks
    # that are all empty give the zero matrix
    a = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    b = Matrix.from_rows(field, [[1, 0, 1]])
    bands = [0, 3]
    cases = [({(1, 1): a}, a),
             ({(0, 1): Matrix.zero(field, 0, 3), (1, 1): a,
               (1, 0): Matrix.zero(field, 3, 0)}, a),
             ({(0, 1): Matrix.zero(field, 0, 3)}, None),
             ({}, None)]
    for blocks, spanning in cases:
        out = block(field, bands, bands, blocks)
        assert [list(r) for r in out.data] == \
            elementwise_block(field, bands, bands, blocks)
        assert out == (spanning or Matrix.zero(field, 3, 3))
        if spanning is not None:
            assert out is spanning
    # a filled block that does not span the matrix is copied into place
    out = block(field, [1, 3], bands, {(0, 1): b, (1, 1): a})
    assert [list(r) for r in out.data] == \
        elementwise_block(field, [1, 3], bands, {(0, 1): b, (1, 1): a})


def kronecker_entries(pairs, dm, dn):
    """The rows of A F - F B = 0 in the row-major unknowns of F, built
    entry by entry: A kron I - I kron B^T for each pair, each row its
    nonzero entries {column: value}.  Row (r, c) has A[r][s] at F[s][c]
    and -B[t][c] at F[r][t], and is zero elsewhere."""
    f = pairs[0][0].field
    rows = []
    for a, b in pairs:
        ad, bd = a.data, b.data
        for r in range(dm):
            for c in range(dn):
                row = {}
                for s in range(dm):
                    row[s * dn + c] = f.of(row.get(s * dn + c, 0) + ad[r][s])
                for t in range(dn):
                    row[r * dn + t] = f.of(row.get(r * dn + t, 0) - bd[t][c])
                rows.append({j: x for j, x in row.items() if x})
    return rows


def kronecker_system(pairs, dm, dn):
    """The Kronecker system as a dense matrix."""
    f = pairs[0][0].field
    rows = [[row.get(j, f.zero()) for j in range(dm * dn)]
            for row in kronecker_entries(pairs, dm, dn)]
    return Matrix(f, len(rows), dm * dn, rows)


def sympy_intertwiners(pairs, dm, dn):
    """The reference basis, independent of ppmod's eliminations: sympy's
    nullspace of the Kronecker system in RREF (`.nullspace().rref()`),
    one row per basis element, reshaped.  The system goes in as a dict of
    dicts, so that sympy keeps it sparse: a dense conversion of the
    1,681-unknown system alone takes seconds."""
    from sympy.polys.matrices import DomainMatrix
    f = pairs[0][0].field
    if not dm * dn:
        return []
    dom, conv = domain_of(f)
    rows = kronecker_entries(pairs, dm, dn)
    system = DomainMatrix({i: {j: conv(x) for j, x in row.items()}
                           for i, row in enumerate(rows) if row},
                          (len(rows), dm * dn), dom)
    return [Matrix(f, dm, dn, [r[i * dn:(i + 1) * dn] for i in range(dm)])
            for r in oracle_kernel_rows(system, f)]


def assert_same_basis(got, want):
    assert [(m.rows, m.cols, m.den, m.ints) for m in got] == \
        [(m.rows, m.cols, m.den, m.ints) for m in want]


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


SPARSE_FIELDS = [F3, GF(5), GF(7), QQ]


@st.composite
def fill_in_input(draw):
    """1..2 pairs (A, B), A dm x dm and B dn x dn with dm, dn in 0..6,
    over GF(3), GF(5), GF(7) or QQ: B = A, B = A + C block-diagonal (A a
    direct summand of B) or B random.  Entries are drawn zero more often
    than not, so the systems are sparse, as those of modules are."""
    f = draw(st.sampled_from(SPARSE_FIELDS))
    nonzero = st.integers(1, f.p - 1) if f.p else \
        st.fractions(min_value=-3, max_value=3, max_denominator=3)
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    kind = draw(st.sampled_from(["same", "summand", "random"]))
    dm = draw(st.integers(0, 6))
    if kind == "same":
        dn = dm
    else:
        dn = draw(st.integers(dm if kind == "summand" else 0, 6))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(field_matrix(f, dm, dm, entry))
        if kind == "same":
            b = a
        elif kind == "summand":
            b = block_diagonal(f, [a, draw(field_matrix(f, dn - dm, dn - dm,
                                                        entry))])
        else:
            b = draw(field_matrix(f, dn, dn, entry))
        pairs.append((a, b))
    return pairs, dm, dn


@settings(max_examples=200, deadline=None)
@given(fill_in_input())
def test_intertwiners_equal_the_dense_kernel_element_for_element(inp):
    pairs, dm, dn = inp
    basis = intertwiners([a for a, _ in pairs], [b for _, b in pairs],
                         dm, dn)
    assert_same_basis(basis, sympy_intertwiners(pairs, dm, dn))
    assert all(a * m == m * b for m in basis for a, b in pairs)


@pytest.mark.parametrize("field, chains, end_dim", [
    (F3, (24,), 24), (QQ, (24,), 24), (F3, (24, 12, 5), 85),
], ids=["gf3-24", "qq-24", "gf3-24-12-5"])
def test_large_end_rings_equal_the_dense_kernel(field, chains, end_dim):
    """End(V/m^24) and End(V/m^24 + V/m^12 + V/m^5), dimensions 24 and 41:
    the intertwining system of the algebra's generators, 576 and 1,681
    unknowns, gives the basis of sympy's sparse kernel of the Kronecker
    system element for element, and every element commutes with the
    whole action."""
    from ppmod.catalog import dvr_chain_module
    from ppmod.modules import direct_sum
    alg = truncated_dvr(24, field)
    m = direct_sum([dvr_chain_module(alg, j) for j in chains])[0]
    pairs = [(m.action[g], m.action[g]) for g in alg.generators]
    basis = intertwiners([a for a, _ in pairs], [b for _, b in pairs],
                         m.dim, m.dim)
    assert len(basis) == end_dim
    assert_same_basis(basis, sympy_intertwiners(pairs, m.dim, m.dim))
    assert all(a * e == e * a for e in basis for a in m.action)


@pytest.mark.parametrize("field", [F3, QQ], ids=["gf3", "qq"])
def test_sparse_system_rows_and_their_elimination(field):
    """End(M) and Hom(M, N) of Kronecker representations, over every
    element of the action: the idempotents act as 1 on both sides, so
    F[r][c] cancels in the rows of a vertex's idempotent."""
    from ppmod.algebra import kronecker_algebra
    from ppmod.modules import quiver_rep
    kron = kronecker_algebra(field)
    half = field.of(1) / 2 if field.p is None else 2
    m = quiver_rep(kron, {1: 2, 2: 3}, {"a": [[1, 0, half], [0, half, 0]],
                                        "b": [[0, 1, 0], [half, 0, 1]]})
    n = quiver_rep(kron, {1: 1, 2: 2}, {"a": [[1, half]]})
    cancelled = 0
    for left, right in ((m, m), (m, n)):
        pairs = list(zip(left.action, right.action))
        rows = _intertwining_rows(left.action, right.action, right.dim,
                                  field.p)
        # the rows are A F - F B assembled entry by entry, cleared of the
        # denominators of A and B, without zero entries
        want = []
        for a, b in pairs:
            den = a.den * b.den
            for row in kronecker_entries([(a, b)], left.dim, right.dim):
                want.append({k: x * den for k, x in row.items()})
        assert rows == want
        assert all(all(row.values()) for row in rows)
        for a, b in pairs:
            cancelled += sum(
                1 for r in range(left.dim) for c in range(right.dim)
                if a.data[r][r] and a.data[r][r] == b.data[c][c])
        # the elimination clears rows (fewer pivots than nonzero rows) and
        # leaves the rows it is given as they were
        before = [dict(row) for row in rows]
        red = _sparse_rref(rows, field.p)
        assert rows == before
        assert len(red) < sum(1 for row in rows if row)
        for piv, row in red.items():
            assert max(row) == piv and all(row.values())
            assert not any(k in red for k in row if k != piv)
            if field.p is not None:
                assert row[piv] == 1
    assert cancelled > 0


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0],
                         ids=repr)
def test_a_gfp_matrix_refuses_an_entry_that_is_not_an_int(entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        Matrix(F3, 1, 1, [[entry]])
    assert Matrix(F3, 1, 2, [[5, -1]]) == Matrix(F3, 1, 2, [[2, 2]])


@settings(max_examples=200, deadline=None)
@given(oracle_input())
def test_quotient_projection_matches_the_identity_columns(inp):
    # the reference: I[:, nonpivots] - I[:, pivots] B[:, nonpivots]
    f, a, b = inp[:3]
    for s in (Subspace.from_matrix(a), Subspace.from_matrix(a.vstack(b))):
        piv = s.pivots
        nonpiv = [j for j in range(s.ambient) if j not in piv]
        ident = Matrix.identity(f, s.ambient)
        ref = ident.take_cols(nonpiv) - \
            ident.take_cols(piv) * s.basis.take_cols(nonpiv)
        proj = quotient_projection(s)
        assert (proj.rows, proj.cols, proj.den, proj.ints) == \
            (ref.rows, ref.cols, ref.den, ref.ints)
        assert Subspace(proj.left_kernel()) == s


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["gf2", "gf3", "qq"])
def test_pivots_are_kept_on_the_subspace_and_not_compared(field):
    rows = [[0, 1, 2, 0, 1], [1, 1, 0, 0, 2], [0, 0, 0, 1, 1]]
    a = Subspace.from_matrix(Matrix(field, 3, 5, rows))
    b = Subspace.from_matrix(Matrix(field, 3, 5, rows[::-1]))
    first = a.pivots
    assert first == (0, 1, 3)
    assert a.pivots is first and vars(a)["pivots"] is first
    # b has not read its pivots, and still equals and hashes as a does
    assert "pivots" not in vars(b)
    assert a == b and hash(a) == hash(b)
    # equality and hashing read the basis alone: a planted pivots entry
    # changes neither, and another basis compares unequal
    c = Subspace(b.basis)
    vars(c)["pivots"] = ()
    assert c == a and hash(c) == hash(a)
    assert Subspace.from_matrix(Matrix(field, 1, 5, rows[:1])) != a
