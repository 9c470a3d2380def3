import itertools
import random
import re

import pytest

from ppmod.algebra import kronecker_algebra, monomial_algebra, truncated_dvr
from ppmod.fields import GF, QQ
from ppmod.linalg import Matrix
from ppmod.modules import quiver_rep
from ppmod.realize import realize_in_tower, stage_bimodule
from ppmod.tower import build_tower, tower_dimension
from reference import law_failure
from test_algebra import A21_PATHS

F2 = GF(2)
FIELDS = [F2, GF(3), QQ]


def random_matrix(field, rng, rows, cols, below_diagonal=False):
    """A random rows x cols matrix; with below_diagonal, zero on and above
    the diagonal (so nilpotent when square)."""
    pool = list(field.elements()) if field.p else [field.of(v)
                                                   for v in (-1, 0, 1, 2)]
    return Matrix(field, rows, cols, [
        [rng.choice(pool) if not below_diagonal or c < r else field.zero()
         for c in range(cols)] for r in range(rows)])


def shift(field, n):
    """The n x n nilpotent shift, e_r -> e_{r+1} on row vectors."""
    return Matrix.identity(field, n + 1).take_rows(range(1, n + 1)).take_cols(
        range(n))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_representations_satisfy_the_module_laws(field):
    rng = random.Random(0)
    a21 = monomial_algebra(field, A21_PATHS, "A21")
    kron = kronecker_algebra(field)
    ends = {"a": (1, 2), "b": (2, 3), "c": (1, 3)}
    for _ in range(15):
        # A~_{2,1} has no relation: any matrices, some arrows left out
        dims = {v: rng.randint(0, 3) for v in (1, 2, 3) if rng.random() < .9}
        arrows = {a: random_matrix(field, rng, dims.get(s, 0), dims.get(t, 0))
                  for a, (s, t) in ends.items() if rng.random() < .8}
        m = quiver_rep(a21, dims, arrows)
        assert m.dim == sum(dims.values())
        assert law_failure(a21, m.action) is None
        # chain data: x nilpotent of order at most j <= N
        N = rng.randint(2, 5)
        j = rng.randint(1, N)
        dvr = truncated_dvr(N, field)
        m = quiver_rep(dvr, {0: j}, {"x": random_matrix(
            field, rng, j, j, below_diagonal=True)})
        assert law_failure(dvr, m.action) is None
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        m = quiver_rep(kron, {1: d1, 2: d2}, {
            a: random_matrix(field, rng, d1, d2) for a in "ab"})
        assert m.dim == d1 + d2
        assert law_failure(kron, m.action) is None


@pytest.mark.parametrize("height", range(4))
def test_the_stage_bimodules_left_action_satisfies_the_module_laws(height):
    # quiver_rep certifies only the relations; the full law check of the
    # left module over the opposite tower ring is the oracle
    for field in FIELDS:
        for N, stages in [(2, 1), (5, 3)]:
            left = stage_bimodule(
                realize_in_tower(build_tower(N, height, field), stages))
            assert left.algebra.dim == tower_dimension(stages, height)
            assert law_failure(left.algebra, left.action) is None


def test_the_opposite_algebra_has_the_reversed_paths():
    alg = monomial_algebra(F2, A21_PATHS, "A21")
    assert alg.paths == tuple(A21_PATHS)
    assert alg.op.paths[3:] == (("a", 2, 1, ("a",)), ("b", 3, 2, ("b",)),
                                ("c", 3, 1, ("c",)), ("ab", 3, 1, ("b", "a")))
    assert alg.op.op.paths == alg.paths
    # the reversed paths build the opposite algebra again
    again = monomial_algebra(F2, alg.op.paths, "A21^op")
    basis = [alg.basis_el(i) for i in range(alg.dim)]
    for u, v in itertools.product(basis, repeat=2):
        assert again.mul_el(u, v) == alg.op.mul_el(u, v) == alg.mul_el(v, u)


def test_the_coordinates_are_the_vertex_spaces_in_ascending_order():
    kron = kronecker_algebra(F2)
    a = Matrix.from_rows(F2, [[1, 0]])
    m = quiver_rep(kron, {2: 2, 1: 1}, {"a": a}, label="M")
    e1, e2, act_a, act_b = m.action
    assert (m.dim, m.label) == (3, "M")
    assert e1.data == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert e2.data == ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    assert act_a.data == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert act_b.is_zero()  # an absent arrow acts as zero


def test_a_shift_of_order_n_plus_one_is_refused():
    dvr = truncated_dvr(3, F2)
    with pytest.raises(ValueError, match="the path x\\^2 followed by x is "
                                         "zero in k\\[x\\]/\\(x\\^3\\)"):
        quiver_rep(dvr, {0: 4}, {"x": shift(F2, 4)})
    assert quiver_rep(dvr, {0: 3}, {"x": shift(F2, 3)}).dim == 3


def test_the_relation_b1_x_is_certified():
    r1 = build_tower(3, 1, F2).top
    # b1: 1 -> 0 hits the top of the chain at vertex 0, so b1 x != 0
    with pytest.raises(ValueError, match="the path L0~0 followed by x is "
                                         "zero in k\\[x\\]/\\(x\\^3\\)\\[L0\\]"):
        quiver_rep(r1, {0: 2, 1: 1}, {"x": shift(F2, 2),
                                      "b1": Matrix.from_rows(F2, [[1, 0]])})
    m = quiver_rep(r1, {0: 2, 1: 1}, {"x": shift(F2, 2),
                                      "b1": Matrix.from_rows(F2, [[0, 1]])})
    assert law_failure(r1, m.action) is None


@pytest.mark.parametrize("dims, arrows, message", [
    ({0: 1}, {"y": [[0]]}, "has no arrow or vertex y"),
    ({1: 1}, {}, "has no arrow or vertex 1"),
    ({0: 2}, {"x": [[0, 1, 0], [0, 0, 0]]},
     "arrow x: 0 -> 0 needs a 2x2 matrix, not 2x3"),
], ids=["unknown-arrow", "unknown-vertex", "wrong-shape"])
def test_bad_representation_data_is_refused(dims, arrows, message):
    with pytest.raises(ValueError, match=message):
        quiver_rep(truncated_dvr(3, F2), dims, arrows)


@pytest.mark.parametrize("alg, dims, arrow", [
    (truncated_dvr(3, F2), {0: 2}, "x"),
    (kronecker_algebra(QQ), {1: 2, 2: 2}, "a"),
], ids=["dvr-gf2", "kronecker-qq"])
def test_a_matrix_over_another_field_is_refused(alg, dims, arrow):
    # a GF(3) matrix once gave k[x]/(x^3) over GF(2) actions over both
    # fields, and was taken as it was over QQ
    with pytest.raises(ValueError, match=re.escape(
            f"arrow {arrow}: the matrix is over GF(3), {alg.name} over "
            f"{alg.field}")):
        quiver_rep(alg, dims, {arrow: shift(GF(3), 2)})
