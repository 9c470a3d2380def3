"""Edge cases for the decomposition engine: endomorphism tops that are
proper division rings, and the rational certification paths."""

from ppmod.fields import GF, QQ
from ppmod.algebra import kronecker_algebra
from ppmod.catalog import kronecker_rep, kronecker_regular
from ppmod.decompose import decompose
from ppmod.linalg import Matrix
from ppmod.modules import direct_sum

F2 = GF(2)


def quadratic_regular(alg, c0, c1):
    """Regular representation with the companion matrix of t^2 + c1 t + c0
    as the second arrow; indecomposable iff the polynomial is irreducible."""
    f = alg.field
    ident = Matrix.identity(f, 2)
    comp = Matrix.from_rows(f, [[f.zero(), f.of(-c0)],
                                [f.one(), f.of(-c1)]])
    return kronecker_rep(alg, 2, 2, ident, comp, label=f"R[t^2+{c1}t+{c0}]")


def test_indecomposable_with_quadratic_endo_field_f2():
    # t^2 + t + 1 is irreducible over GF(2): the endomorphism ring is the
    # field with four elements, a division ring of dimension 2
    kron = kronecker_algebra(F2)
    m = quadratic_regular(kron, 1, 1)
    d = decompose(m)
    assert len(d.summands) == 1
    s = d.summands[0]
    assert s.end_dim == 2 and s.end_rad_dim == 0


def test_reducible_companion_splits_f2():
    # t^2 + t = t(t + 1) splits into two non-isomorphic one-dimensional tubes
    kron = kronecker_algebra(F2)
    m = quadratic_regular(kron, 0, 1)
    d = decompose(m)
    assert len(d.summands) == 2
    assert len(d.classes) == 2


def test_indecomposable_with_gaussian_endo_field_qq():
    # t^2 + 1 over the rationals: End is the Gaussian field; the trace-form
    # radical is zero and the primitive-element certificate must fire
    kron = kronecker_algebra(QQ)
    m = quadratic_regular(kron, 1, 0)
    d = decompose(m)
    assert len(d.summands) == 1
    assert d.summands[0].end_dim == 2
    assert d.summands[0].end_rad_dim == 0


def test_split_semisimple_pair_qq():
    # two non-isomorphic homogeneous regulars over the rationals: End is a
    # product of two fields; the minimal-polynomial splitter must separate
    kron = kronecker_algebra(QQ)
    a = kronecker_regular(kron, QQ.of(0), 1)
    b = kronecker_regular(kron, QQ.of(1), 1)
    s, _, _ = direct_sum([a, b])
    d = decompose(s)
    assert sorted(x.module.dim for x in d.summands) == [2, 2]
    assert len(d.classes) == 2


def test_jordan_block_squared_qq():
    # (V/m^2)-type regular with multiplicity two: End has a 2x2 matrix top
    kron = kronecker_algebra(QQ)
    a = kronecker_regular(kron, QQ.of(0), 2)
    s, _, _ = direct_sum([a, kronecker_regular(kron, QQ.of(0), 2)])
    d = decompose(s)
    assert len(d.summands) == 2
    assert len(d.classes) == 1
    assert d.classes[0][1] == 2
