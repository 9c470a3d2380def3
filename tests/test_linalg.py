import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.fields import GF, QQ
from ppmod.linalg import (Matrix, Subspace, combination, kernel,
                          span_elements, subspace_leq, subspace_meet,
                          subspace_sum)

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
