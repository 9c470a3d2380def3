import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.fields import GF, QQ
from ppmod.algebra import kronecker_algebra, monomial_algebra, truncated_dvr
from ppmod.linalg import Matrix, combination
from reference import law_failure

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
    assert brute_law_failures(o) == (set(), set())


def test_rationals_dvr():
    a = truncated_dvr(2, QQ)
    x = a.el_from_label("x")
    assert a.mul_el(x, x) == a.zero_el()




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


@pytest.mark.parametrize("drop, path", [("e1", "a"), ("e2", "a"),
                                         ("a", "ab"), ("b", "ab")])
def test_monomial_algebra_refuses_a_list_not_closed_under_subpaths(drop,
                                                                   path):
    # the first listed path with the dropped one as a subpath is named; the
    # idempotents at its ends are subpaths of a path too
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
    # is listed, and (ab)c = abc would differ from a(bc) = 0
    paths = [(f"e{v}", v, v, ()) for v in (1, 2, 3, 4)] + [
        ("a", 1, 2, ("a",)), ("b", 2, 3, ("b",)), ("c", 3, 4, ("c",)),
        ("ab", 1, 3, ("a", "b")), ("abc", 1, 4, ("a", "b", "c"))]
    with pytest.raises(ValueError, match="a subpath of abc is not a basis "
                                         "path of planted"):
        monomial_algebra(F2, paths, "planted")


def test_monomial_algebra_refuses_a_power_without_its_root():
    # 1, x^2 alone is k[y]/(y^2) with y = x^2: associative and unital, so
    # only the subpath check refuses it
    with pytest.raises(ValueError, match="a subpath of x\\^2"):
        monomial_algebra(F2, [("1", 0, 0, ()), ("x^2", 0, 0, ("x", "x"))],
                         "planted")


def test_monomial_algebra_refuses_an_idempotent_between_two_vertices():
    # e: 1 -> 2 with the empty word would be no idempotent: e e = 0
    with pytest.raises(ValueError, match="a subpath of e is not"):
        monomial_algebra(F2, [("e", 1, 2, ()), ("e2", 2, 2, ())], "planted")


def test_kronecker_table():
    # the nonzero products of the basis e1, e2, a, b, each a basis element
    products = {("e1", "e1"): "e1", ("e1", "a"): "a", ("e1", "b"): "b",
                ("e2", "e2"): "e2", ("a", "e2"): "a", ("b", "e2"): "b"}
    for f in (F2, GF(3), QQ):
        alg = kronecker_algebra(f)
        labels = alg.labels
        assert labels == ("e1", "e2", "a", "b")
        assert alg.unit == (f.one(), f.one(), f.zero(), f.zero())
        kind = int if f.p else type(f.one())
        for x in labels:
            for y in labels:
                got = alg.mul_el(alg.el_from_label(x), alg.el_from_label(y))
                z = products.get((x, y))
                assert got == (alg.el_from_label(z) if z else alg.zero_el())
                assert all(type(c) is kind for c in got)


# -- the path certificate against brute force ------------------------------

LAW_FIELDS = [F2, GF(3), QQ]

# small quivers as (vertices, {arrow: (source, target)}): a loop x at 0
# with b: 1 -> 0, the chain a, b, c: 1 -> 2 -> 3 -> 4, and a, b: 1 => 2
# followed by d: 2 -> 3
QUIVERS = [((0, 1), {"x": (0, 0), "b": (1, 0)}),
           ((1, 2, 3, 4), {"a": (1, 2), "b": (2, 3), "c": (3, 4)}),
           ((1, 2, 3), {"a": (1, 2), "b": (1, 2), "d": (2, 3)})]


def quiver_paths(quiver, longest=3):
    """Every path of the quiver of at most longest arrows, the
    idempotents e<v> first, each (label, source, target, word)."""
    vertices, arrows = quiver
    paths = frontier = [(f"e{v}", v, v, ()) for v in vertices]
    for _ in range(longest):
        frontier = [("".join(w + (a,)), s, arrows[a][1], w + (a,))
                    for _, s, t, w in frontier
                    for a in sorted(arrows) if arrows[a][0] == t]
        paths = paths + frontier
    return paths


def closed_under_subpaths(quiver, paths):
    """Whether no path is listed twice and every subpath w[i:j] of each
    listed path w, the idempotent at each of its vertices included, is
    listed, with the ends the quiver's arrows give it."""
    arrows = quiver[1]
    listed = {p[1:] for p in paths}
    if len(listed) < len(paths):
        return False
    for _, s, _, w in paths:
        at = [s] + [arrows[a][1] for a in w]  # the vertex after i arrows
        if any((at[i], at[j], w[i:j]) not in listed
               for i in range(len(w) + 1) for j in range(i, len(w) + 1)):
            return False
    return True


def concatenation(alg, i, j):
    """The index of the basis path b_i followed by b_j, or None when the
    ends do not meet or the concatenation is not listed."""
    _, s, t, w = alg.paths[i]
    _, s2, t2, w2 = alg.paths[j]
    return next((k for k, p in enumerate(alg.paths)
                 if t == s2 and p[1:] == (s, t2, w + w2)), None)


def brute_law_failures(alg):
    """The basis elements failing a unit law, and the triples (i, j, k)
    with (b_i b_j) b_k != b_i (b_j b_k), by mul_el."""
    mul, unit = alg.mul_el, alg.unit
    basis = [alg.basis_el(i) for i in range(alg.dim)]
    units = {i for i, b in enumerate(basis)
             if mul(unit, b) != b or mul(b, unit) != b}
    triples = {(i, j, k) for (i, x), (j, y), (k, z)
               in itertools.product(enumerate(basis), repeat=3)
               if mul(mul(x, y), z) != mul(x, mul(y, z))}
    return units, triples


@st.composite
def path_list(draw):
    """(field, quiver, paths): a small quiver's paths up to some length
    with up to two dropped, or a random sub-list of them; sometimes one
    listed twice, in any order."""
    f = draw(st.sampled_from(LAW_FIELDS))
    quiver = draw(st.sampled_from(QUIVERS))
    every = quiver_paths(quiver)
    if draw(st.booleans()):
        longest = draw(st.integers(0, 3))
        drop = draw(st.sets(st.integers(0, len(every) - 1), max_size=2))
        paths = [p for k, p in enumerate(every)
                 if len(p[3]) <= longest and k not in drop]
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(every),
                             max_size=len(every)))
        paths = [p for p, k in zip(every, keep) if k]
    if paths and draw(st.integers(0, 4)) == 0:
        paths.append(draw(st.sampled_from(paths)))
    return f, quiver, draw(st.permutations(paths))


@settings(max_examples=200, deadline=None)
@given(path_list())
def test_algebra_law_check_matches_brute_force(inp):
    # the subpath certificate accepts exactly the lists closed under
    # subpaths, and what it accepts is associative with a unit and
    # multiplies basis paths by concatenation
    f, quiver, paths = inp
    try:
        alg = monomial_algebra(f, paths, "A")
    except ValueError as exc:
        assert not closed_under_subpaths(quiver, paths), str(exc)
        assert re.fullmatch(r"a subpath of \w+ is not a basis path of A|"
                            r"the path \w+ is listed twice in A", str(exc))
        return
    assert closed_under_subpaths(quiver, paths)
    assert brute_law_failures(alg) == (set(), set())
    for i, j in itertools.product(range(alg.dim), repeat=2):
        k = concatenation(alg, i, j)
        assert alg.mul_el(alg.basis_el(i), alg.basis_el(j)) == (
            alg.zero_el() if k is None else alg.basis_el(k))


def nonzero(f):
    return (st.integers(1, f.p - 1) if f.p
            else st.fractions(min_value=-3, max_value=3,
                              max_denominator=3).filter(bool))


def field_els(f, n):
    return st.lists(st.integers(-2, 2) | nonzero(f), min_size=n,
                    max_size=n).map(lambda xs: tuple(f.of(x) for x in xs))


def brute_module_failures(alg, mats):
    """Whether action(1) != I, and the pairs (i, j) with
    action[i] action[j] != action(b_i b_j), by entrywise sums."""
    f, n, d = alg.field, alg.dim, mats[0].rows

    def act(el):
        return [[f.of(sum(el[k] * mats[k].data[r][c] for k in range(n)))
                 for c in range(d)] for r in range(d)]

    def prod(a, b):
        return [[f.of(sum(a.data[r][s] * b.data[s][c] for s in range(d)))
                 for c in range(d)] for r in range(d)]

    ident = [[f.of(int(r == c)) for c in range(d)] for r in range(d)]
    pairs = {(i, j) for i in range(n) for j in range(n)
             if prod(mats[i], mats[j]) != act(
                 alg.mul_el(alg.basis_el(i), alg.basis_el(j)))}
    return act(alg.unit) != ident, pairs


@st.composite
def module_input(draw):
    """A path algebra of a small quiver modulo the paths of more than
    some length, and one action matrix per basis element: its regular
    representation in a random basis, or random matrices; one entry
    sometimes planted wrong."""
    f = draw(st.sampled_from(LAW_FIELDS))
    alg = monomial_algebra(f, quiver_paths(draw(st.sampled_from(QUIVERS)),
                                           draw(st.integers(0, 2))), "A")
    n = alg.dim
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
    # law_failure names the unit failure, else the first failing pair, and
    # the first row where the two sides differ
    alg, d, mats = inp
    unit_bad, pairs = brute_module_failures(alg, mats)
    fail = law_failure(alg, mats)
    if unit_bad:
        pair, row = fail
        assert pair is None and first_differing_row(
            combination(alg.unit, mats), Matrix.identity(alg.field, d)) == row
    elif pairs:
        (i, j), row = fail
        k = alg.products[i][j]
        assert (i, j) == min(pairs) and first_differing_row(
            mats[i] * mats[j],
            Matrix.zero(alg.field, d, d) if k is None else mats[k]) == row
    else:
        assert fail is None


def first_differing_row(a, b):
    return next(k for k, (x, y) in enumerate(zip(a.data, b.data)) if x != y)


# the rings of build_tower(N, h) below the top are the tops of
# build_tower(N, i), i < h, so the tower entries cover every ring of
# every tower with N <= 6 and h <= 3: 2h generators (eps_0..eps_{h-1} and
# b_1..b_h), and x when N >= 2
GENERATOR_COUNTS = [("dvr1", 0), ("dvr2", 1), ("dvr24", 1), ("kronecker", 3),
                    ("a21", 5)] + [
    (f"tower{n}:{h}", 2 * h + (n >= 2)) for n in range(1, 7)
    for h in range(4)]


def generator_algebra(name, field):
    from ppmod.tower import build_tower
    if name.startswith("dvr"):
        return truncated_dvr(int(name[len("dvr"):]), field)
    if name == "kronecker":
        return kronecker_algebra(field)
    if name == "a21":
        return monomial_algebra(field, A21_PATHS, "A21")
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
            Matrix.from_rows(alg.field, products)).basis.data)
        words = words + frontier
    return Subspace.from_matrix(Matrix.from_rows(alg.field, words))


def test_the_one_dimensional_algebra_has_no_generators():
    k = truncated_dvr(1, GF(3))
    assert k.generators == ()
    from ppmod.catalog import dvr_chain_module
    from ppmod.modules import hom_space
    m = dvr_chain_module(k, 1)
    assert len(hom_space(m, m)) == 1


def regular(alg, v):
    """rho(v), right multiplication by v, rebuilt by concatenating the
    basis paths: row i of rho(b_j) is b_i b_j."""
    f = alg.field
    return combination(v, [Matrix.from_rows(f, [
        alg.zero_el() if k is None else alg.basis_el(k)
        for k in (concatenation(alg, i, j) for i in range(alg.dim))])
        for j in range(alg.dim)])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ],
                         ids=["gf2", "gf3", "qq"])
def test_products_and_inverses_match_the_regular_representation(field):
    # inverse_el reads units off the idempotent coefficients; the oracle
    # is rho(u), invertible exactly for a unit, with u^-1 = 1 rho(u)^-1
    import random
    from ppmod.tower import build_tower
    rng = random.Random(5)
    scalars = [field.of(c) for c in (0, 1, -1, 2)]
    if field.p is None:
        scalars.append(field.one() / 3)
    for base in (truncated_dvr(3, field), kronecker_algebra(field),
                 build_tower(3, 1, field).top):
        for alg in (base, base.op):
            one = Matrix.from_rows(field, [alg.unit])
            basis = [alg.basis_el(i) for i in range(alg.dim)]
            for u, v in itertools.product(basis, repeat=2):
                want = Matrix.from_rows(field, [u]) * regular(alg, v)
                assert alg.mul_el(u, v) == want.data[0]
            idem = [k for k, p in enumerate(alg.paths) if not p[3]]
            nonzero = [c for c in scalars if c]

            def drawn(zero_at=None):
                # random radical part, nonzero idempotent coefficients
                # except at zero_at
                return tuple(
                    field.zero() if k == zero_at else
                    rng.choice(nonzero) if k in idem else rng.choice(scalars)
                    for k in range(alg.dim))

            # the basis, the unit plus each basis element, zero, seeded
            # random elements, and the planted cases: a radical part plus
            # a nonzero idempotent part (units), and one idempotent
            # coefficient zero (non-units)
            planted_units = [drawn() for _ in range(6)]
            planted_non_units = [drawn(k) for k in idem for _ in range(2)]
            elements = basis + [alg.add_el(alg.unit, b) for b in basis] + \
                [alg.zero_el()] + \
                [tuple(rng.choice(scalars) for _ in range(alg.dim))
                 for _ in range(12)] + planted_units + planted_non_units
            units = 0
            for u in elements:
                rho = regular(alg, u)
                inv = alg.inverse_el(u)
                if rho.rank() < alg.dim:
                    assert inv is None
                    assert u not in planted_units
                    continue
                units += 1
                assert u not in planted_non_units
                assert inv == (one * rho.inverse()).data[0]
                assert alg.mul_el(u, inv) == alg.mul_el(inv, u) == alg.unit
                assert alg.inverse_el(u) is inv
            assert units >= 2 + len(planted_units)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ],
                         ids=["gf2", "gf3", "qq"])
def test_kept_products_match_the_regular_module(field):
    # seeded pairs of elements, not only basis paths; each product is kept
    # with its algebra, so asking again returns the kept tuple
    import random
    from fractions import Fraction
    from ppmod.modules import regular_module
    from ppmod.tower import build_tower
    rng = random.Random(0)
    scalars = [field.zero()] + [field.of(c) for c in (1, -1, 2)] + \
        ([Fraction(1, 3)] if field.p is None else [])
    kron = kronecker_algebra(field)
    for alg in (truncated_dvr(3, field), kron, kron.op,
                build_tower(3, 1, field).top):
        reg = regular_module(alg)
        for _ in range(40):
            u, v = (tuple(rng.choice(scalars) for _ in range(alg.dim))
                    for _ in range(2))
            want = Matrix.from_rows(field, [u]) * reg.act(v)
            got = alg.mul_el(u, v)
            assert got == want.data[0]
            assert alg.mul_el(u, v) is got


def test_an_algebra_and_its_opposite_keep_their_own_products():
    # in the Kronecker algebra e1 a = a and a e1 = 0; in its opposite the
    # other way round, whichever table is filled first
    for first in ("algebra", "opposite"):
        alg = kronecker_algebra(GF(3))
        op = alg.op
        e1, a = alg.el_from_label("e1"), alg.el_from_label("a")
        zero = alg.zero_el()
        want = {alg: {(e1, a): a, (a, e1): zero},
                op: {(e1, a): zero, (a, e1): a}}
        order = (alg, op) if first == "algebra" else (op, alg)
        for _ in range(2):  # before and after both tables are filled
            for ring in order:
                for (u, v), uv in want[ring].items():
                    assert ring.mul_el(u, v) == uv


def test_a_list_multiplies_and_reduces_as_its_tuple():
    # over GF(3): x x = x^2, and 4 x names x
    alg = truncated_dvr(3, GF(3))
    x2 = (0, 0, 1)
    assert alg.mul_el([0, 1, 0], [0, 1, 0]) == x2
    assert alg.mul_el((0, 1, 0), (0, 1, 0)) == x2
    assert alg.mul_el((0, 4, 0), (0, 1, 0)) == x2
    assert alg.mul_el([0, 4, 0], (0, 1, 0)) == x2
    assert alg.reduced_el([0, 5, -1]) == alg.reduced_el((0, 5, -1)) \
        == (0, 2, 2)
