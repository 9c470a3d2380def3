import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.fields import GF, QQ
from ppmod.algebra import (FDAlgebra, kronecker_algebra, monomial_algebra,
                           truncated_dvr)
from ppmod.linalg import Matrix, combination
from ppmod.modules import Module

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


# the path algebra of the quiver a: 1 -> 2, b: 2 -> 3, c: 1 -> 3 (type
# A~_{2,1}): seven basis paths, no relation
A21_PATHS = [("e1", 1, 1, ()), ("e2", 2, 2, ()), ("e3", 3, 3, ()),
             ("a", 1, 2, ("a",)), ("b", 2, 3, ("b",)), ("c", 1, 3, ("c",)),
             ("ab", 1, 3, ("a", "b"))]


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_monomial_algebra_multiplies_paths_by_concatenation(field):
    alg = monomial_algebra(field, A21_PATHS, "A21")
    assert (alg.dim, alg.labels, alg.name) == (7, tuple(
        p[0] for p in A21_PATHS), "A21")
    el = alg.el_from_label
    assert alg.unit == alg.add_el(alg.add_el(el("e1"), el("e2")), el("e3"))
    for (x, y), z in {("a", "b"): "ab", ("e1", "ab"): "ab",
                      ("ab", "e3"): "ab", ("e1", "c"): "c"}.items():
        assert alg.mul_el(el(x), el(y)) == el(z)
    for x, y in [("b", "a"), ("a", "c"), ("ab", "b"), ("e2", "a"),
                 ("c", "e2"), ("e1", "e2")]:
        assert alg.mul_el(el(x), el(y)) == alg.zero_el()


@pytest.mark.parametrize("drop, path", [("e1", "a"), ("e2", "b"),
                                         ("a", "ab"), ("b", "ab")])
def test_monomial_algebra_refuses_a_list_not_closed_under_subpaths(drop,
                                                                   path):
    # the first listed path with the dropped one as a subpath is named
    paths = [p for p in A21_PATHS if p[0] != drop]
    with pytest.raises(ValueError,
                       match=f"a subpath of {path} is not a basis path"):
        monomial_algebra(F2, paths, "A21")


def test_monomial_algebra_refuses_a_word_that_does_not_compose():
    # a ends at 2 and b starts at 3, so ab is no path of the quiver
    paths = [(f"e{v}", v, v, ()) for v in (1, 2, 3, 4)] + [
        ("a", 1, 2, ("a",)), ("b", 3, 4, ("b",)), ("ab", 1, 4, ("a", "b"))]
    with pytest.raises(ValueError, match="a subpath of ab is not"):
        monomial_algebra(F2, paths, "planted")


def test_monomial_algebra_refuses_a_missing_suffix():
    # a, b, c: 1 -> 2 -> 3 -> 4 with abc listed but not bc: every prefix
    # is listed, and (ab)c = abc while a(bc) = 0
    paths = [(f"e{v}", v, v, ()) for v in (1, 2, 3, 4)] + [
        ("a", 1, 2, ("a",)), ("b", 2, 3, ("b",)), ("c", 3, 4, ("c",)),
        ("ab", 1, 3, ("a", "b")), ("abc", 1, 4, ("a", "b", "c"))]
    with pytest.raises(ValueError, match="associativity fails"):
        monomial_algebra(F2, paths, "planted")


def test_monomial_algebra_refuses_a_power_without_its_root():
    # 1, x^2 alone is k[y]/(y^2) with y = x^2: associative and unital, so
    # only the subpath check refuses it
    with pytest.raises(ValueError, match="a subpath of x\\^2"):
        monomial_algebra(F2, [("1", 0, 0, ()), ("x^2", 0, 0, ("x", "x"))],
                         "planted")


def test_kronecker_table():
    # every nonzero structure constant of e1, e2, a, b is 1
    products = {("e1", "e1"): "e1", ("e1", "a"): "a", ("e1", "b"): "b",
                ("e2", "e2"): "e2", ("a", "e2"): "a", ("b", "e2"): "b"}
    for f in (F2, GF(3), QQ):
        alg = kronecker_algebra(f)
        labels = alg.labels
        assert labels == ("e1", "e2", "a", "b")
        assert alg.unit == (f.one(), f.one(), f.zero(), f.zero())
        want = tuple(tuple(
            tuple(f.one() if products.get((x, y)) == z else f.zero()
                  for z in labels) for y in labels) for x in labels)
        assert alg.table == want
        kind = int if f.p else type(f.one())
        assert all(type(c) is kind for r in alg.table for v in r for c in v)


# -- the law check against brute force ---------------------------------------

LAW_FIELDS = [F2, GF(3), QQ]

# associative unital algebras of dimension <= 3 as {(i, j): {k: c}} and
# the unit: k, k[x]/(x^2), k x k, k[x]/(x^3), upper triangular 2 x 2
# (e1, a, e2), k x k x k
BASE_ALGEBRAS = [
    ({(0, 0): {0: 1}}, (1,)),
    ({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, (1, 0)),
    ({(0, 0): {0: 1}, (1, 1): {1: 1}}, (1, 1)),
    ({(i, j): {i + j: 1} for i in range(3) for j in range(3) if i + j < 3},
     (1, 0, 0)),
    ({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
     (1, 0, 1)),
    ({(i, i): {i: 1} for i in range(3)}, (1, 1, 1)),
]


def brute_mul(f, table, u, v):
    """u v by the structure-constant sum."""
    n = len(u)
    out = [f.zero()] * n
    for i, j, k in itertools.product(range(n), repeat=3):
        out[k] = f.of(out[k] + u[i] * v[j] * table[i][j][k])
    return tuple(out)


def brute_failures(f, table, unit):
    """The basis elements failing a unit law, and the triples (i, j, k)
    with (b_i b_j) b_k != b_i (b_j b_k)."""
    n = len(unit)
    basis = [tuple(f.of(int(t == i)) for t in range(n)) for i in range(n)]
    units = {i for i, b in enumerate(basis)
             if brute_mul(f, table, unit, b) != b
             or brute_mul(f, table, b, unit) != b}
    triples = {(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
               if brute_mul(f, table, brute_mul(f, table, basis[i], basis[j]),
                            basis[k])
               != brute_mul(f, table, basis[i],
                            brute_mul(f, table, basis[j], basis[k]))}
    return units, triples


def nonzero(f):
    return (st.integers(1, f.p - 1) if f.p
            else st.fractions(min_value=-3, max_value=3,
                              max_denominator=3).filter(bool))


def field_els(f, n):
    return st.lists(st.integers(-2, 2) | nonzero(f), min_size=n,
                    max_size=n).map(lambda xs: tuple(f.of(x) for x in xs))


@st.composite
def structure_table(draw):
    """(field, table, unit): a base algebra in a random basis, or random
    constants; one constant (or the unit) sometimes planted wrong.  A
    constant c[i][j][k] planted with b_0 = 1 and i, j > 0 keeps the unit
    laws, so associativity alone can fail."""
    f = draw(st.sampled_from(LAW_FIELDS))
    plant = draw(st.integers(0, 3))
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(1, 3))
        table = [[list(draw(field_els(f, n))) for _ in range(n)]
                 for _ in range(n)]
        unit = draw(field_els(f, n))
    else:
        prods, base_unit = draw(st.sampled_from(BASE_ALGEBRAS))
        n = len(base_unit)
        old = [[[f.of(prods.get((i, j), {}).get(k, 0)) for k in range(n)]
                for j in range(n)] for i in range(n)]
        first = [tuple(f.of(x) for x in base_unit)] if plant == 3 else []
        g = draw(st.lists(field_els(f, n), min_size=n - len(first),
                          max_size=n - len(first)).map(
            lambda rows: first + rows).filter(
            lambda rows: Matrix.from_rows(f, rows).rank() == n))
        ginv = Matrix.from_rows(f, g).inverse()

        def new_coords(v):
            return list((Matrix.from_rows(f, [v]) * ginv).data[0])

        # b'_i = g_i: b'_i b'_j in the basis g
        table = [[new_coords(brute_mul(f, old, g[i], g[j]))
                  for j in range(n)] for i in range(n)]
        unit = tuple(new_coords([f.of(x) for x in base_unit]))
    if plant == 1 or plant == 3 and n > 1:
        low = 1 if plant == 3 else 0
        i, j = (draw(st.integers(low, n - 1)) for _ in range(2))
        k = draw(st.integers(0, n - 1))
        table[i][j][k] = f.of(table[i][j][k] + draw(nonzero(f)))
    elif plant == 2:
        k = draw(st.integers(0, n - 1))
        unit = unit[:k] + (f.of(unit[k] + draw(nonzero(f))),) + unit[k + 1:]
    return f, table, unit


@settings(max_examples=200, deadline=None)
@given(structure_table(), st.data())
def test_algebra_law_check_matches_brute_force(inp, data):
    f, table, unit = inp
    n = len(unit)
    labels = [f"b{i}" for i in range(n)]
    units, triples = brute_failures(f, table, unit)
    try:
        FDAlgebra(f, labels, table, unit)
    except ValueError as exc:
        msg = str(exc)
        assert units or triples, msg
        if units:
            m = re.fullmatch(r"unit law fails on basis element b(\d)", msg)
            assert m and int(m.group(1)) in units, msg
        else:
            m = re.fullmatch(r"associativity fails on \(b(\d),b(\d),b(\d)\)",
                             msg)
            assert m and tuple(int(x) for x in m.groups()) in triples, msg
    else:
        assert not units and not triples
    alg = FDAlgebra(f, labels, table, unit, check=False)
    u, v = data.draw(field_els(f, n)), data.draw(field_els(f, n))
    assert alg.mul_el(u, v) == brute_mul(f, table, u, v)


def brute_module_failures(f, table, unit, mats):
    """Whether action(1) != I, and the pairs (i, j) with
    action[i] action[j] != action(b_i b_j), by entrywise sums."""
    n, d = len(unit), mats[0].rows

    def act(el):
        return [[f.of(sum(el[k] * mats[k].data[r][c] for k in range(n)))
                 for c in range(d)] for r in range(d)]

    def prod(a, b):
        return [[f.of(sum(a.data[r][s] * b.data[s][c] for s in range(d)))
                 for c in range(d)] for r in range(d)]

    ident = [[f.of(int(r == c)) for c in range(d)] for r in range(d)]
    pairs = {(i, j) for i in range(n) for j in range(n)
             if prod(mats[i], mats[j]) != act(table[i][j])}
    return act(unit) != ident, pairs


@st.composite
def module_input(draw):
    """An algebra (any table, unchecked) and one action matrix per basis
    element: its regular representation in a random basis, or random
    matrices; one entry sometimes planted wrong."""
    f, table, unit = draw(structure_table())
    n = len(unit)
    alg = FDAlgebra(f, [f"b{i}" for i in range(n)], table, unit, check=False)
    if draw(st.booleans()):
        d = n
        g = draw(st.lists(field_els(f, d), min_size=d, max_size=d).filter(
            lambda rows: Matrix.from_rows(f, rows).rank() == d))
        g = Matrix.from_rows(f, g)
        mats = [g * r * g.inverse() for r in alg.free_action(1)]
    else:
        d = draw(st.integers(0, 3))
        mats = [Matrix.from_rows(f, [draw(field_els(f, d)) for _ in range(d)])
                if d else Matrix(f, 0, 0, []) for _ in range(n)]
    if d and draw(st.booleans()):
        t, r, c = (draw(st.integers(0, m - 1)) for m in (n, d, d))
        rows = [list(x) for x in mats[t].data]
        rows[r][c] = f.of(rows[r][c] + draw(nonzero(f)))
        mats[t] = Matrix.from_rows(f, rows)
    return alg, d, mats


@settings(max_examples=200, deadline=None)
@given(module_input())
def test_module_law_check_matches_brute_force(inp):
    alg, d, mats = inp
    unit_bad, pairs = brute_module_failures(alg.field, alg.table, alg.unit,
                                            mats)
    try:
        Module(alg, d, mats, check=True)
    except ValueError as exc:
        msg = str(exc)
        if unit_bad:
            assert msg == "unit does not act as identity"
        else:
            m = re.fullmatch(r"action violates structure constants at "
                             r"\(b(\d), b(\d)\)", msg)
            assert m and tuple(int(x) for x in m.groups()) in pairs, msg
    else:
        assert not unit_bad and not pairs


GENERATOR_COUNTS = [("dvr24", 1), ("kronecker", 3), ("tower4:1", 3),
                    ("tower4:2", 5), ("tower5:3", 7)]


def generator_algebra(name, field):
    from ppmod.tower import build_tower
    if name == "dvr24":
        return truncated_dvr(24, field)
    if name == "kronecker":
        return kronecker_algebra(field)
    n, h = name[len("tower"):].split(":")
    return build_tower(int(n), int(h), field).top


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("name,count", GENERATOR_COUNTS)
def test_generator_counts(name, count, field):
    alg = generator_algebra(name, field)
    for a in (alg, alg.op):
        gens = a.generators
        assert len(gens) == count
        assert list(gens) == sorted(set(gens))
        # each kept element lies outside what the earlier ones generate
        for k, g in enumerate(gens):
            assert not unital_span(a, gens[:k]).contains_vector(
                a.basis_el(g))
        assert unital_span(a, gens).dim == a.dim


def unital_span(alg, gens):
    """The reference subalgebra generated by the unit and the basis
    elements gens: the span of the unit times every word of length < dim,
    by explicit products."""
    from ppmod.linalg import Subspace
    words = frontier = [alg.unit]
    for _ in range(alg.dim):
        products = [alg.mul_el(w, alg.basis_el(g)) for w in frontier
                    for g in gens]
        if not products:
            break
        # a basis of the longer words' span keeps the frontier small
        frontier = list(Subspace.from_matrix(
            alg.dim, Matrix.from_rows(alg.field, products)).basis.data)
        words = words + frontier
    return Subspace.from_matrix(alg.dim, Matrix.from_rows(alg.field, words))


def test_generators_raise_when_their_closure_falls_short():
    # k[x]/(x^2) with x as its unit: unchecked, x is no left unit, so the
    # words in the kept element 1 times x span only x
    good = truncated_dvr(2, F2)
    bad = FDAlgebra(F2, good.labels, good.table, good.basis_el(1),
                    name="planted", check=False)
    with pytest.raises(ValueError, match="dimension 1, not 2"):
        bad.generators


def test_the_one_dimensional_algebra_has_no_generators():
    k = truncated_dvr(1, GF(3))
    assert k.generators == ()
    from ppmod.catalog import dvr_chain_module
    from ppmod.modules import hom_space
    m = dvr_chain_module(k, 1)
    assert len(hom_space(m, m)) == 1


def regular(alg, v):
    """rho(v), right multiplication by v, rebuilt from the table: row i
    is b_i v."""
    f = alg.field
    return combination(v, [Matrix.from_rows(f, [alg.table[i][j]
                                                for i in range(alg.dim)])
                           for j in range(alg.dim)])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ],
                         ids=["gf2", "gf3", "qq"])
def test_products_and_inverses_match_the_regular_representation(field):
    from ppmod.tower import build_tower
    for base in (truncated_dvr(3, field), kronecker_algebra(field),
                 build_tower(3, 1, field).top):
        for alg in (base, base.op):
            one = Matrix.from_rows(field, [alg.unit])
            basis = [alg.basis_el(i) for i in range(alg.dim)]
            for u, v in itertools.product(basis, repeat=2):
                want = Matrix.from_rows(field, [u]) * regular(alg, v)
                assert alg.mul_el(u, v) == want.data[0]
            # the basis, the unit plus each basis element, and zero
            units = 0
            for u in basis + [alg.add_el(alg.unit, b) for b in basis] + \
                    [alg.zero_el()]:
                rho = regular(alg, u)
                inv = alg.inverse_el(u)
                if rho.rank() < alg.dim:
                    assert inv is None
                    continue
                units += 1
                assert inv == (one * rho.inverse()).data[0]
                assert alg.mul_el(u, inv) == alg.mul_el(inv, u) == alg.unit
                assert alg.inverse_el(u) is inv
            assert units >= 2
