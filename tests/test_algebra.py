import pytest

from ppmod.fields import GF, QQ
from ppmod.algebra import (FDAlgebra, QuiverPresentation, algebra_from_quiver,
                           kronecker_algebra, truncated_dvr)

F2 = GF(2)


def test_dvr_horizon_one_is_field():
    a = truncated_dvr(1, F2)
    assert a.dim == 1
    assert a.mul_el(a.unit, a.unit) == a.unit


def test_dvr_truncation_law():
    a = truncated_dvr(3, F2)
    assert a.dim == 3
    x = a.el_from_label("x")
    x2 = a.mul_el(x, x)
    assert x2 == a.el_from_label("x^2")
    assert a.mul_el(x, x2) == a.zero_el()


def test_dvr_rejects_zero_horizon():
    with pytest.raises(ValueError):
        truncated_dvr(0, F2)


def test_kronecker_dimension_and_products():
    a = kronecker_algebra(F2)
    assert a.dim == 4
    assert set(a.labels) == {"e1", "e2", "a", "b"}
    e1 = a.el_from_label("e1")
    e2 = a.el_from_label("e2")
    al = a.el_from_label("a")
    assert a.mul_el(e1, al) == al  # arrow starts at vertex 1
    assert a.mul_el(al, e2) == al  # and ends at vertex 2
    assert a.mul_el(al, e1) == a.zero_el()
    assert a.mul_el(al, al) == a.zero_el()
    assert a.add_el(e1, e2) == a.unit


def test_one_vertex_no_arrows_is_ground_field():
    q = QuiverPresentation(1, [], path_length_cap=2)
    a = algebra_from_quiver(q, F2)
    assert a.dim == 1


def test_loop_with_cube_relation_derived():
    # oracle: surviving paths are exactly those of length < 3
    q = QuiverPresentation(1, [(0, 0, "x")], relations=[[(1, (0, 0, 0))]],
                           path_length_cap=4)
    a = algebra_from_quiver(q, F2)
    assert a.dim == 3
    x = a.basis_el(a.labels.index("x"))
    x2 = a.mul_el(x, x)
    assert a.mul_el(x2, x) == a.zero_el()
    # same algebra as the horizon-3 valuation model
    b = truncated_dvr(3, F2)
    assert sorted(m.count(F2.one()) for r in a.table for m in r) == \
        sorted(m.count(F2.one()) for r in b.table for m in r)


def test_infinite_dimensional_at_cap_rejected():
    q = QuiverPresentation(1, [(0, 0, "x")], path_length_cap=3)
    with pytest.raises(ValueError):
        algebra_from_quiver(q, F2)


def test_malformed_relation_rejected():
    with pytest.raises(ValueError):
        QuiverPresentation(2, [(0, 1, "a"), (1, 0, "b")],
                           relations=[[(1, (0,)), (1, (1,))]])


def test_opposite_is_involution_and_valid():
    a = kronecker_algebra(F2)
    o = a.op
    assert o.op is a
    # opposite multiplication reverses products
    al = a.el_from_label("a")
    e1 = a.el_from_label("e1")
    assert o.mul_el(al, e1) == a.mul_el(e1, al)
    FDAlgebra(o.field, o.labels, o.table, o.unit, check=True)  # axioms hold


def test_rationals_dvr():
    a = truncated_dvr(2, QQ)
    x = a.el_from_label("x")
    assert a.mul_el(x, x) == a.zero_el()



def test_non_associative_table_rejected():
    # basis 1, a, b with a a = b, a b = 0, b a = a: the unit law holds,
    # but (a a) a = a while a (a a) = 0
    one, a, b, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    table = [[one, a, b], [a, b, z], [b, a, z]]
    with pytest.raises(ValueError, match="associativity"):
        FDAlgebra(F2, ["1", "a", "b"], table, one)


@pytest.mark.parametrize("table", [
    [[(1, 0), (0, 0)], [(0, 1), (0, 0)]],   # 1 a = 0: left unit law fails
    [[(1, 0), (0, 1)], [(0, 0), (0, 0)]],   # a 1 = 0: right unit law fails
], ids=["left", "right"])
def test_unit_law_failure_rejected(table):
    with pytest.raises(ValueError, match="unit law"):
        FDAlgebra(F2, ["1", "a"], table, (1, 0))
