import itertools
import re

import pytest

from ppmod.fields import GF, QQ
from ppmod.linalg import (Matrix, Subspace, block_diagonal, span_elements,
                          subspace_sum)
from ppmod.modules import (Module, direct_sum, free_module, hom_space,
                           identity_map, iso_classes, iso_test, k_dual,
                           presentation_of, quotient_module,
                           regular_module, submodule, top_of)
from ppmod.catalog import (dvr_chain_module, dvr_universe,
                           kronecker_preinjective, kronecker_preprojective,
                           kronecker_regular, kronecker_rep,
                           kronecker_universe)
from ppmod.algebra import kronecker_algebra, truncated_dvr
from ppmod.decompose import decompose
from reference import (greedy_module_generators, law_failure,
                       top_multiplicities_by_rank)

F2 = GF(2)


def brute_force_hom(m: Module, n: Module):
    """Oracle: enumerate all dM x dN matrices over F_2 and keep the
    intertwiners (checked by explicit matrix products)."""
    f = m.algebra.field
    out = []
    for bits in itertools.product([0, 1], repeat=m.dim * n.dim):
        mat = Matrix.from_rows(
            f, [list(bits[i * n.dim:(i + 1) * n.dim]) for i in range(m.dim)])
        if all(am * mat == mat * an for am, an in zip(m.action, n.action)):
            out.append(mat)
    return out


def test_chain_module_actions(dvr3):
    m = dvr3
    v2 = dvr_chain_module(m, 2)
    x = v2.action[1]
    assert x * x == Matrix.zero(F2, 2, 2)
    assert law_failure(m, v2.action) is None


def test_hom_identity_and_end_of_simple(dvr2):
    v1 = dvr_chain_module(dvr2, 1)
    h = hom_space(v1, v1)
    assert len(h) == 1
    assert h[0].is_iso()


def test_hom_dim_derived_oracle(dvr2):
    # oracle: solve the intertwining condition by enumerating all 1x2
    # matrices over F_2
    v1 = dvr_chain_module(dvr2, 1)
    v2 = dvr_chain_module(dvr2, 2)
    oracle = brute_force_hom(v1, v2)
    expected_dim = 1  # frozen: {0, the embedding onto soc} -> dim 1
    assert len(oracle) == 2 ** expected_dim
    assert len(hom_space(v1, v2)) == expected_dim


def test_kronecker_projective_homs(kron):
    p2 = kronecker_preprojective(kron, 0)  # projective at vertex 2
    p1 = kronecker_preprojective(kron, 1)  # projective at vertex 1
    assert len(hom_space(p2, p1)) == 2
    assert all(h.is_injective() or h.mat.is_zero() for h in hom_space(p2, p1))


def test_hom_additive_in_sums(dvr3):
    v1 = dvr_chain_module(dvr3, 1)
    v2 = dvr_chain_module(dvr3, 2)
    v3 = dvr_chain_module(dvr3, 3)
    s, _, _ = direct_sum([v1, v2])
    assert len(hom_space(s, v3)) == \
        len(hom_space(v1, v3)) + len(hom_space(v2, v3))
    assert len(hom_space(v3, s)) == \
        len(hom_space(v3, v1)) + len(hom_space(v3, v2))


def test_k_dual_preserves_dim_and_double_dual(dvr3):
    for j in (1, 2, 3):
        m = dvr_chain_module(dvr3, j)
        d = k_dual(m)
        assert d.dim == m.dim
        assert d.algebra is dvr3.op
        dd = k_dual(d)
        assert dd.algebra is dvr3
        iso = iso_test(dd, m)
        assert iso is not None and iso.is_iso()


def test_dual_module_satisfies_left_law(kron):
    m = kronecker_preprojective(kron, 1)
    d = k_dual(m)
    assert law_failure(kron.op, d.action) is None  # a module over A^op


def test_a_module_reads_its_dimension_off_its_action(dvr3):
    v3 = dvr_chain_module(dvr3, 3)
    assert Module(dvr3, v3.action).dim == 3
    ident, shift = v3.action[0], v3.action[1]
    for action, why in (
            ([ident, shift], "one action matrix per algebra basis element"),
            ([ident, shift, Matrix.zero(F2, 3, 2)], "square"),
            ([ident, shift, Matrix.zero(F2, 2, 2)], "of one size")):
        with pytest.raises(ValueError, match=why):
            Module(dvr3, action)


def test_submodule_quotient_roundtrip(dvr3):
    v3 = dvr_chain_module(dvr3, 3)
    # the socle x^2 V/m^3 is invariant
    s = Subspace.from_matrix(Matrix.from_rows(F2, [[0, 0, 1]]))
    sub, inj = submodule(v3, s)
    assert sub.dim == 1
    assert inj.is_injective()
    q, proj = quotient_module(v3, s)
    assert q.dim == 2
    iso = iso_test(q, dvr_chain_module(dvr3, 2))
    assert iso is not None


def test_regular_module_and_generators(dvr3):
    r = regular_module(dvr3)
    assert r.dim == 3
    gens = top_of(r)[1]
    assert len(gens) == 1  # cyclic


def test_presentation_expresses_elements(dvr2):
    v2 = dvr_chain_module(dvr2, 2)
    pres = presentation_of(v2)
    assert pres.ngens == 1
    g = top_of(v2)[1][0]
    coeffs = pres.express(g)
    assert coeffs is not None
    # reconstruct: sum g_i . r_i == g
    acc = (F2.zero(),) * v2.dim
    for i, r in enumerate(coeffs):
        gi = top_of(v2)[1][i]
        img = (Matrix.from_rows(F2, [gi]) * v2.act(r)).data[0]
        acc = tuple(F2.of(a + b) for a, b in zip(acc, img))
    assert acc == g


def top_corpus(field):
    """Catalogue and label modules over one field: the Kronecker and
    k[x]/(x^4) universes of dimension <= 6, and the labels of dimension
    <= 10 of the towers of height 1 and 2 over k[x]/(x^4)."""
    from ppmod.tower import all_labels, build_tower, construct_label
    mods = (kronecker_universe(kronecker_algebra(field), 6)
            + dvr_universe(truncated_dvr(4, field), 6))
    for h in (1, 2):
        tw = build_tower(4, h, field)
        mods += [construct_label(tw, lab) for lab in all_labels(tw, 10)]
    return mods


def random_quotients(field, count=10):
    """Quotients of R_2^2, R_2 the tower of height 2 over k[x]/(x^3), by
    the submodules that one to three sparse random vectors generate."""
    import random
    from fractions import Fraction
    from ppmod.modules import _module_span
    from ppmod.tower import build_tower
    free = free_module(build_tower(3, 2, field).top, 2)
    rng = random.Random(0)
    values = [1, -1, 2] if field.p else [1, -1, Fraction(1, 2)]
    out = []
    for _ in range(count):
        vecs = [[field.of(rng.choice(values)) if rng.random() < 0.3
                 else field.zero() for _ in range(free.dim)]
                for _ in range(rng.randint(1, 3))]
        out.append(quotient_module(free, _module_span(free, vecs))[0])
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_top_lifts_equal_the_greedy_generators_on_the_corpus(field):
    for m in top_corpus(field):
        assert top_of(m)[1] == greedy_module_generators(m)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_top_is_a_basis_of_the_quotient_by_the_radical(field):
    from ppmod.modules import _module_span
    for m in top_corpus(field) + random_quotients(field):
        mults, lifts = top_of(m)
        paths = m.algebra.paths
        idempotents = [a for a, p in zip(m.action, paths) if not p[3]]
        # M rad, spanned by the rows of every path of positive length
        rad = Matrix.zero(field, 0, m.dim)
        for a, p in zip(m.action, paths):
            if p[3]:
                rad = rad.vstack(a)
        rad = Subspace.from_matrix(rad)
        assert mults == top_multiplicities_by_rank(m)
        assert _module_span(m, lifts) == Subspace.from_matrix(
            Matrix.identity(field, m.dim))
        assert len(lifts) == sum(mults) == m.dim - rad.dim
        # each lift lies in one vertex space, mults[v] of them in M e_v
        fixed = [[v for v, e in enumerate(idempotents)
                  if (Matrix(field, 1, m.dim, [g]) * e).data[0] == g]
                 for g in lifts]
        assert all(len(vs) == 1 for vs in fixed)
        assert [sum(vs == [v] for vs in fixed)
                for v in range(len(idempotents))] == mults


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_top_never_takes_more_lifts_than_the_greedy_search(field):
    counts = [(len(top_of(q)[1]), len(greedy_module_generators(q)))
              for q in random_quotients(field)]
    assert all(ours <= greedy for ours, greedy in counts)
    assert any(ours < greedy for ours, greedy in counts)


def test_the_zero_module_has_an_empty_top_and_presentation():
    alg = kronecker_algebra(GF(3))
    zero = kronecker_rep(alg, 0, 0, [], [])
    assert top_of(zero) == ([0, 0], [])
    pres = presentation_of(zero)
    assert (pres.ngens, pres.relations) == (0, [])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_presentation_relations_are_the_top_of_the_cover_kernel(field):
    from ppmod.modules import _module_span, kernel_subspace
    for m in top_corpus(field) + random_quotients(field):
        pres = presentation_of(m)
        free, gens = pres.proj.source, top_of(m)[1]
        assert pres.ngens == len(gens)
        ker = kernel_subspace(pres.proj)
        flat = [[c for r in rel for c in r] for rel in pres.relations]
        assert _module_span(free, flat) == ker
        assert len(pres.relations) == sum(top_of(submodule(free, ker)[0])[0])
        for vec in Matrix.identity(field, m.dim).data:
            coeffs = pres.express(vec)
            acc = Matrix.zero(field, 1, m.dim)
            for g, r in zip(gens, coeffs):
                acc = acc + Matrix(field, 1, m.dim, [g]) * m.act(r)
            assert acc.data[0] == vec


def _top_through_the_submodule(m, sub):
    """The top of the submodule on sub, built as a module and its lifts
    mapped back into m through the inclusion."""
    u, inc = submodule(m, sub)
    mults, lifts = top_of(u)
    return mults, [inc(g) for g in lifts]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_top_of_a_subspace_is_the_submodules_top_in_ambient_coordinates(
        field):
    from ppmod.modules import _module_span, kernel_subspace
    for m in top_corpus(field) + random_quotients(field):
        cover = presentation_of(m).proj
        free, ker = cover.source, kernel_subspace(cover)
        assert top_of(free, ker) == _top_through_the_submodule(free, ker)
        # cyclic submodules: each standard vector's, and the sum of all
        for v in Matrix.identity(field, m.dim).data + (
                (field.one(),) * m.dim,):
            sub = _module_span(m, [v])
            assert top_of(m, sub) == _top_through_the_submodule(m, sub)
        whole = Subspace.from_matrix(Matrix.identity(field, m.dim))
        assert top_of(m, whole) == top_of(m)


def test_presentation_builds_no_kernel_module(monkeypatch):
    import ppmod.modules

    def refuse(*args):
        raise AssertionError("presentation_of built a submodule")

    alg = truncated_dvr(3, GF(3))
    fresh = quotient_module(free_module(alg, 2), Subspace.from_matrix(
        Matrix.from_rows(GF(3), [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]])))[0]
    monkeypatch.setattr(ppmod.modules, "submodule", refuse)
    pres = presentation_of(fresh)
    assert pres.ngens == 2
    assert len(pres.relations) == 2


def test_free_module_uses_the_algebras_one_regular_representation():
    alg = truncated_dvr(4, GF(3))
    rho = alg.free_action(1)
    assert rho is alg.free_action(1)
    free = free_module(alg, 2)
    assert free.action == tuple(block_diagonal(alg.field, [r, r]) for r in rho)


def test_zero_module_edges(dvr2):
    v1 = dvr_chain_module(dvr2, 1)
    z = submodule(v1, Subspace.zero(F2, v1.dim))[0]
    assert hom_space(z, v1) == []
    assert hom_space(v1, z) == []


def test_iso_test_distinguishes_regulars(kron):
    r0 = kronecker_regular(kron, 0, 1)
    r1 = kronecker_regular(kron, 1, 1)
    assert iso_test(r0, r1) is None
    assert iso_test(r0, kronecker_regular(kron, 0, 1)) is not None


def test_iso_classes_groups_repeats_in_order_of_first_occurrence(kron):
    r0 = kronecker_regular(kron, 0, 2)
    # R(0)[2] again, in the basis given by the rows of p
    p = Matrix.from_rows(F2, [[1, 1, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 1], [0, 0, 1, 0]])
    twisted = Module(kron, [p * a * p.inverse() for a in r0.action])
    assert twisted.action != r0.action
    mods = [kronecker_preprojective(kron, 1), r0,
            kronecker_regular(kron, 1, 2), twisted,
            kronecker_preprojective(kron, 1), r0,
            kronecker_regular(kron, "inf", 2)]
    assert iso_classes(mods) == [[0, 4], [1, 3, 5], [2], [6]]
    assert iso_classes([]) == []


def test_then_refuses_a_different_middle_module_of_equal_dimension():
    kron3 = kronecker_algebra(GF(3))
    r0, r1 = kronecker_regular(kron3, 0, 1), kronecker_regular(kron3, 1, 1)
    with pytest.raises(ValueError, match="not composable"):
        identity_map(r0).then(identity_map(r1))
    # an equal module built again composes
    again = kronecker_regular(kron3, 0, 1)
    assert identity_map(r0).then(identity_map(again)).intertwines()


@pytest.mark.parametrize("p, b, size", [(2, [[0, 1], [1, 1]], 47),
                                        (3, [[0, 1], [2, 0]], 58)])
def test_kronecker_universe_misses_the_degree_two_tubes(p, b, size):
    # a = 1 and b without an eigenvalue in GF(p): the quasi-simple of the
    # tube at the closed point of b's irreducible characteristic polynomial,
    # of degree 2, which kronecker_universe does not list (ROADMAP item 11)
    alg = kronecker_algebra(GF(p))
    m = kronecker_rep(alg, 2, 2, [[1, 0], [0, 1]], b)
    summands = decompose(m).summands
    assert len(summands) == 1
    # End(M) is the field of p^2 elements
    assert (summands[0].end_dim, summands[0].end_rad_dim) == (2, 0)
    universe = kronecker_universe(alg, 4)
    assert len(universe) == size
    assert all(iso_test(m, u) is None for u in universe)


def test_iso_test_finds_isomorphism_between_large_kronecker_sums(kron):
    # dim 14, End dim 27: no basis element of End(M) is invertible, and a
    # sampled search missed the isomorphisms (only ~1/128 of End is)
    parts = [kronecker_preprojective(kron, 0), kronecker_preprojective(kron, 1),
             kronecker_regular(kron, F2.of(0), 1),
             kronecker_regular(kron, F2.of(1), 1),
             kronecker_regular(kron, "inf", 1),
             kronecker_preinjective(kron, 0), kronecker_preinjective(kron, 1)]
    m, _, _ = direct_sum(parts)
    n, _, _ = direct_sum(parts[::-1])
    assert len(hom_space(m, m)) == 27
    for target in (m, n):
        iso = iso_test(m, target)
        assert iso is not None and iso.is_iso()
        assert iso.intertwines()


def _has_full_rank_map(m, n):
    zero = Matrix.zero(m.algebra.field, m.dim, n.dim)
    return any(mat.rank() == m.dim for _, mat in
               span_elements([h.mat for h in hom_space(m, n)], zero))


def test_iso_test_matches_exhaustive_search_over_gf2():
    """Every unordered same-dimension pair (no subsampling) from
    dvr_universe(k[x]/(x^3), 3), kronecker_universe(kron, 2) and the direct
    sums of two of their members up to dim 4, with Hom dim <= 12."""
    checked = found = 0
    for alg, universe in ((truncated_dvr(3, F2), dvr_universe),
                          (kronecker_algebra(F2), kronecker_universe)):
        base = universe(alg, 3 if universe is dvr_universe else 2)
        mods = base + [direct_sum([a, b])[0] for a, b in
                       itertools.combinations_with_replacement(base, 2)
                       if a.dim + b.dim <= 4]
        for a, b in itertools.combinations_with_replacement(mods, 2):
            if a.dim != b.dim or len(hom_space(a, b)) > 12:
                continue
            iso = iso_test(a, b)
            assert (iso is not None) == _has_full_rank_map(a, b)
            if iso is not None:
                assert iso.is_iso() and iso.intertwines()
                found += 1
            checked += 1
    assert checked > 300 and found > 50


def test_iso_test_matches_summands_over_qq():
    kq = kronecker_algebra(QQ)
    parts = [kronecker_preprojective(kq, 0),
             kronecker_regular(kq, QQ.of(0), 1),
             kronecker_regular(kq, QQ.of(1), 1)]
    m, _, _ = direct_sum(parts)
    n, _, _ = direct_sum(parts[::-1])
    # the basis scan alone finds nothing, so Krull-Schmidt matching decides
    assert not any(h.is_iso() for h in hom_space(m, n))
    iso = iso_test(m, n)
    assert iso is not None and iso.is_iso() and iso.intertwines()
    other, _, _ = direct_sum([kronecker_regular(kq, QQ.of(2), 1),
                              parts[1], parts[0]])
    assert iso_test(m, other) is None


@pytest.mark.parametrize("action, failure", [
    ([Matrix.zero(F2, 1, 1)] * 2, (None, 0)),       # 1 acts as 0
    ([Matrix.identity(F2, 1)] * 2, ((1, 1), 0)),    # x x = x != 0
], ids=["unit", "structure-constant"])
def test_module_laws_are_checked(action, failure):
    assert law_failure(truncated_dvr(2, F2), action) == failure


def worklist_span(m: Module, vectors, start=None) -> Subspace:
    """The reference closure: each round adds the pending vectors to the
    span and pushes the basis rows it added through every action."""
    f = m.algebra.field
    span = Subspace.zero(f, m.dim) if start is None else start
    pending = Matrix(f, len(vectors), m.dim, vectors)
    while pending.rows:
        grown = Subspace.from_matrix(span.basis.vstack(pending))
        old = set(span.pivots)
        fresh = grown.basis.take_rows(
            i for i, p in enumerate(grown.pivots) if p not in old)
        span = grown
        pending = Matrix.zero(f, 0, m.dim)
        for a in m.action:
            pending = pending.vstack(fresh * a)
    return span


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_module_span_matches_the_worklist_closure(field):
    import random
    from fractions import Fraction
    from ppmod.modules import _module_span
    from ppmod.tower import all_labels, build_tower, construct_label
    tw = build_tower(3, 1, field)
    mods = (dvr_universe(truncated_dvr(3, field), 4)
            + kronecker_universe(kronecker_algebra(field), 3)
            + [construct_label(tw, lab) for lab in all_labels(tw, 6)]
            + [regular_module(tw.top)])
    rng = random.Random(0)
    values = [0, 1, -1, 2] if field.p else [0, 1, -1, Fraction(1, 2)]
    for m in mods:
        vecs = [[field.of(rng.choice(values)) for _ in range(m.dim)]
                for _ in range(3)] + list(Matrix.identity(field, m.dim).data)
        for v, w in zip(vecs, vecs[1:]):
            ref = worklist_span(m, [v])
            assert _module_span(m, [v]) == ref
            assert subspace_sum(ref, _module_span(m, [w])) == \
                worklist_span(m, [w], ref)
        assert _module_span(m, vecs[:2]) == worklist_span(m, vecs[:2])
        assert _module_span(m, []) == Subspace.zero(field, m.dim)


def test_free_module_builds_its_action_once_per_rank(monkeypatch):
    import ppmod.algebra
    calls = []
    inner = ppmod.algebra.block_diagonal

    def counted(f, mats):
        calls.append(len(mats))
        return inner(f, mats)

    monkeypatch.setattr(ppmod.algebra, "block_diagonal", counted)
    alg = truncated_dvr(3, GF(3))
    rho = alg.free_action(1)
    for _ in range(3):
        for rank in (1, 2, 3):
            free = free_module(alg, rank)
            assert free.action == tuple(inner(alg.field, [reg] * rank)
                                        for reg in rho)
    assert sorted(calls) == [2] * 3 + [3] * 3  # rank 1 is rho itself
    free_module(truncated_dvr(3, GF(3)), 2)  # another algebra: its own
    assert len(calls) == 9


def all_basis_homs(m, n):
    """The reference Hom basis: the intertwining equations of every basis
    element of the algebra."""
    from ppmod.linalg import intertwiners
    return intertwiners(m.action, n.action, m.dim, n.dim)


def assert_generator_homs_match(mods):
    for a in mods:
        for b in mods:
            want = all_basis_homs(a, b)
            assert [h.mat for h in hom_space(a, b)] == want
            assert all(h.intertwines() for h in hom_space(a, b))


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_generator_homs_match_on_the_radical_universes(field):
    from ppmod.suites import radical_universes
    for mods in radical_universes(field).values():
        assert_generator_homs_match(mods)
        assert_generator_homs_match([k_dual(m) for m in mods])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_generator_homs_match_on_the_chain_modules(field):
    alg = truncated_dvr(8, field)
    assert_generator_homs_match([dvr_chain_module(alg, j)
                                 for j in range(1, 9)])


def test_generator_homs_match_on_the_krull_schmidt_pairs():
    # the suite's seed-0 draws: two modules and their sum for each pair
    import random
    from ppmod.catalog import random_quotient_of_free
    from ppmod.tower import build_tower
    rng = random.Random(0)
    algebras = [truncated_dvr(3, F2), build_tower(2, 1, F2).top,
                build_tower(2, 2, F2).top, kronecker_algebra(F2)]
    for alg in algebras:
        for _ in range(25):
            a = random_quotient_of_free(alg, 2, rng, dim_cap=8)
            b = random_quotient_of_free(alg, rng.choice([1, 2]), rng,
                                        dim_cap=8)
            assert_generator_homs_match([a, b, direct_sum([a, b])[0]])


def test_intertwines_agrees_with_every_basis_action():
    # every matrix between small Kronecker modules over GF(2), where
    # e2 = 1 - e1 is no generator: the generator check accepts exactly
    # the matrices that intertwine all four basis actions
    from ppmod.modules import ModuleMap
    kron = kronecker_algebra(F2)
    assert kron.generators == (0, 2, 3)
    mods = [kronecker_preprojective(kron, 0), kronecker_preprojective(kron, 1),
            kronecker_regular(kron, 0, 1)]
    for m in mods:
        for n in mods:
            for bits in itertools.product([0, 1], repeat=m.dim * n.dim):
                mat = Matrix(F2, m.dim, n.dim, [
                    bits[i * n.dim:(i + 1) * n.dim] for i in range(m.dim)])
                want = all(am * mat == mat * an
                           for am, an in zip(m.action, n.action))
                assert ModuleMap(m, n, mat, check=False).intertwines() == want


def test_hom_bases_are_kept_on_the_source():
    # in the record of the source's content, keyed by the target record's
    # serial: content-equal copies share one basis tuple, equal matrices
    # over a separately built algebra do not, and the record holds
    # matrices only
    from ppmod.modules import _record_of
    alg, other = kronecker_algebra(GF(3)), kronecker_algebra(GF(3))
    m, n = kronecker_preprojective(alg, 1), kronecker_preprojective(alg, 2)
    first = hom_space(m, n)
    m2, n2 = kronecker_preprojective(alg, 1), kronecker_preprojective(alg, 2)
    assert m2.action is not m.action and m2.action == m.action
    rec = _record_of(m)
    assert _record_of(m2) is rec and _record_of(n2) is _record_of(n)
    assert [h.mat for h in hom_space(m2, n2)] == [h.mat for h in first]
    assert all(h.mat is g.mat for h, g in zip(hom_space(m2, n2), first))
    assert list(rec.homs) == [_record_of(n).serial]
    assert _record_of(n).homs == {}
    mats = rec.homs[_record_of(n).serial]
    assert type(mats) is tuple and all(type(mat) is Matrix for mat in mats)
    m3, n3 = kronecker_preprojective(other, 1), kronecker_preprojective(other, 2)
    assert m3.action == m.action and n3.action == n.action
    third = hom_space(m3, n3)
    assert _record_of(m3) is not rec
    assert [h.mat for h in third] == [h.mat for h in first]
    assert all(h.mat is not g.mat for h, g in zip(third, first))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_hom_space_runs_no_dense_elimination(field, monkeypatch):
    """Over GF(p) and QQ a hom space, like a kernel, is one sparse
    elimination: each solve makes exactly one `_sparse_rref` call and no
    `Matrix.rref` call."""
    import ppmod.linalg
    dvr, kron = truncated_dvr(6, field), kronecker_algebra(field)
    pairs = [(direct_sum([dvr_chain_module(dvr, 6),
                          dvr_chain_module(dvr, 3)])[0],
              dvr_chain_module(dvr, 4), 7),
             (kronecker_preprojective(kron, 1),
              kronecker_regular(kron, 1, 2), 2)]
    a = pairs[0][0].action[1]
    calls = []
    sparse_rref = ppmod.linalg._sparse_rref

    def counted(*args):
        calls.append(args)
        return sparse_rref(*args)

    def refuse(*args):
        raise AssertionError("dense elimination")
    monkeypatch.setattr(Matrix, "rref", refuse)
    monkeypatch.setattr(ppmod.linalg, "_sparse_rref", counted)
    dims, counts = [], []
    for m, n, _ in pairs:
        calls.clear()
        dims.append(len(hom_space(m, n)))
        counts.append(len(calls))
    for kernel in (a.right_kernel, a.left_kernel):
        calls.clear()
        kernel()
        counts.append(len(calls))
    monkeypatch.undo()
    assert dims == [d for _, _, d in pairs]
    assert counts == [1, 1, 1, 1]


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_kronecker_rep_refuses_the_opposite_algebra(field):
    # kronecker^op has the labels e1, e2, a, b but the transposed table:
    # there e1 a = 0, so the actions would break its laws (e1.a first).
    # An algebra without those labels is refused by the same paths check
    kron = kronecker_algebra(field)
    for alg in (kron.op, truncated_dvr(3, field)):
        with pytest.raises(ValueError, match=re.escape(
                f"{alg.name} is not the Kronecker algebra")):
            kronecker_rep(alg, 1, 1, [[1]], [[0]])
    m = kronecker_rep(kron, 1, 1, [[1]], [[0]])
    assert law_failure(kron, m.action) is None
    # a Kronecker algebra built again is accepted: the check compares
    # structure constants, not objects
    assert kronecker_rep(kronecker_algebra(field), 1, 1, [[1]],
                         [[0]]).dim == 2
