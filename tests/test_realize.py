import pytest

from ppmod.fields import GF, QQ
from ppmod.algebra import kronecker_algebra, truncated_dvr
from ppmod.decompose import decompose
from ppmod.errors import HorizonExceeded
from ppmod.linalg import Matrix, Subspace
from ppmod.modules import (ModuleMap, direct_sum, hom_space, identity_map,
                           iso_classes, iso_test, quiver_rep, quotient_module,
                           regular_module, submodule, zero_map, _module_span)
from ppmod.catalog import (dvr_chain_module, kronecker_preprojective,
                           kronecker_regular)
from ppmod.tower import build_tower, tower_dimension
from ppmod.tube import (Arrow, NormalPath, ZERO, all_paths_from,
                        hom_dimension, normalize_path)
from ppmod.realize import (_complete_f_maps, bimodule_failures,
                           chain_inclusion, chain_quotient, functor_failures,
                           realize_in_tower, square_failures, stage_bimodule)

F2 = GF(2)


@pytest.fixture(scope="module")
def tw_n1():
    return build_tower(5, 1, F2)


@pytest.fixture(scope="module")
def rt_n1(tw_n1):
    return realize_in_tower(tw_n1, 3)


def test_identity_square_is_bicartesian(tw_n1):
    m = dvr_chain_module(tw_n1.algebras[0], 2)
    ident = ModuleMap(m, m, Matrix.identity(F2, 2), check=False)
    # 0 -> A -> A (+) A -> A -> 0 is exact
    assert square_failures(ident, ident, ident, ident) == []


def test_deliberately_broken_square_fails(tw_n1):
    alg = tw_n1.algebras[0]
    inc1 = chain_inclusion(alg, 1)
    quo1 = chain_quotient(alg, 1)
    v1 = dvr_chain_module(alg, 1)
    v2 = dvr_chain_module(alg, 2)
    # breaking one map with zero destroys exactness
    broken = square_failures(inc1, zero_map(v1, v2), quo1, quo1)
    assert broken


def corners_of_other_dimensions():
    # A = B = k and C = D = k^2 over k[x]/(x); right leaves C instead of B
    # and bottom leaves B instead of C.  The matrices still compose, and
    # every exactness rank holds, so only the corners give it away
    k = dvr_chain_module(truncated_dvr(1, F2), 1)
    k2 = direct_sum([k, k])[0]

    def hom(src, tgt, rows):
        return ModuleMap(src, tgt, Matrix.from_rows(F2, rows), check=False)

    return (hom(k, k, [[1]]), hom(k, k2, [[0, 1]]),
            hom(k2, k2, [[1, 0], [0, 1]]), hom(k, k2, [[1, 0]]))


def corners_of_one_dimension():
    # the identities of R(0)[1] on top and left, of R(1)[1] on right and
    # bottom: two Kronecker modules of dimension 2 that are not
    # isomorphic meet at B and at C, and every rank holds
    alg = kronecker_algebra(GF(3))
    r0, r1 = kronecker_regular(alg, 0, 1), kronecker_regular(alg, 1, 1)
    return (identity_map(r0), identity_map(r0), identity_map(r1),
            identity_map(r1))


@pytest.mark.parametrize("corners", [corners_of_other_dimensions,
                                     corners_of_one_dimension],
                         ids=["dimension", "content"])
def test_a_square_whose_maps_leave_the_wrong_corners_is_refused(corners):
    with pytest.raises(ValueError, match="square corners disagree"):
        square_failures(*corners())


def test_realized_ladder_n1(rt_n1):
    names, failed = functor_failures(rt_n1)
    assert failed == []
    assert "tube[1]" in names and "coker[psi_1]" in names
    assert any(n.startswith("ladder[1,") for n in names)
    assert any(n.startswith("rim[") for n in names)


def test_realized_object_dims(rt_n1):
    p = rt_n1.modules
    assert [p[(0, 0, j)].dim for j in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert [p[(0, 1, j)].dim for j in (1, 2, 3, 4)] == [2, 3, 4, 5]


def test_coker_psi1_is_m1(rt_n1):
    psi1 = rt_n1.maps[Arrow("mu", 0, 0, 1)]
    cok, _ = quotient_module(psi1.target,
                             Subspace(psi1.mat.row_space()))
    assert iso_test(cok, rt_n1.modules[(0, 0, 1)]) is not None


@pytest.fixture(scope="module", params=[(f, h) for f in (F2, GF(3), QQ)
                                        for h in range(3)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def rt_any(request):
    f, h = request.param
    return realize_in_tower(build_tower(5, h, f), 3)


def test_realization_functoriality(rt_any):
    # the every-word oracle: each word of the realized quiver realizes to
    # its normal form's map, and a word that normalizes to ZERO to 0
    q = rt_any.quiver
    for v in q.vertices():
        for word in all_paths_from(q, v, 4):
            direct = identity_map(rt_any.modules[v])
            for a in word:
                direct = direct.then(rt_any.maps[a])
            np = normalize_path(q, v, word)
            if np == ZERO:
                assert direct.mat.is_zero(), word
            else:
                assert rt_any.realize_normal_path(np).mat == direct.mat, word


def test_hom_table_is_standard(rt_any):
    # dim Hom(P(s), P(t)) counts the normal paths s -> t
    q = rt_any.quiver
    for s in q.vertices():
        for t in q.vertices():
            homs = hom_space(rt_any.modules[s], rt_any.modules[t])
            assert len(homs) == hom_dimension(q, s, t), (s, t)


def test_every_vertex_and_arrow_is_realized_once(rt_any):
    # keyed by the quiver's own names, each map between the modules at
    # its arrow's ends; phi_j, the chain quotient, is defined only as the
    # rim walk from M_{j+1}
    q, p = rt_any.quiver, rt_any.modules
    assert set(p) == set(q.vertices())
    assert set(rt_any.maps) == set(q.arrows())
    for a, h in rt_any.maps.items():
        assert h.source is p[q.source(a)] and h.target is p[q.target(a)], a
    alg0 = truncated_dvr(5, p[(0, 0, 1)].algebra.field)  # the tower's R_0
    n = q.ray_lengths[0]
    for j in range(1, q.horizon):
        walk = rt_any.realize_normal_path(NormalPath((0, 0, j + 1), n + 1, 0))
        assert walk.mat == chain_quotient(alg0, j).mat, j


def test_horizon_discipline(tw_n1):
    with pytest.raises(HorizonExceeded):
        realize_in_tower(tw_n1, 5)


def test_bimodule_idempotents_n0():
    tw = build_tower(4, 0, F2)
    rt = realize_in_tower(tw, 3)
    assert bimodule_failures(rt) == ([1], [])  # free of rank dim M_1


def test_bimodule_idempotents_n1(rt_n1):
    assert bimodule_failures(rt_n1) == ([1, 1], [])


def test_bimodule_idempotents_n1_horizon4():
    tw = build_tower(4, 1, F2)
    rt = realize_in_tower(tw, 3)
    found, failed = bimodule_failures(rt)
    assert not failed and found == [1, 1]


def test_bimodule_idempotents_n2():
    tw = build_tower(4, 2, F2)
    rt = realize_in_tower(tw, 3)
    assert bimodule_failures(rt) == ([1, 1, 1], [])


def _plus_simple(v):
    return lambda x: direct_sum([x, quiver_rep(x.algebra, {v: 1}, {})])[0]


def _top(x):
    """X / X rad: the rows of the positive-length paths' actions span
    X rad."""
    rad = Matrix.zero(x.algebra.field, 0, x.dim)
    for a, (_, _, _, w) in zip(x.action, x.algebra.paths):
        if w:
            rad = rad.vstack(a)
    return quotient_module(x, Subspace.from_matrix(rad))[0]


@pytest.mark.parametrize("plant, found", [
    (_plus_simple(0), [2, 1, 1]), (_plus_simple(1), [1, 2, 1]),
    (_plus_simple(2), [1, 1, 2]), (_top, [1, 1, 1])],
    ids=["plus-S0", "plus-S1", "plus-S2", "top-only"])
def test_a_planted_defect_in_the_stage_bimodule_is_rejected(monkeypatch,
                                                            plant, found):
    # S_0 and S_1 are not projective; S_2, the simple at the top vertex,
    # is, so only its multiplicity is off; X / X rad has X's top, so only
    # the dimension of its projective cover gives it away
    import ppmod.realize
    inner = ppmod.realize.stage_bimodule
    monkeypatch.setattr(ppmod.realize, "stage_bimodule",
                        lambda rt: plant(inner(rt)))
    got, failed = bimodule_failures(realize_in_tower(build_tower(4, 2, F2),
                                                     3))
    assert got == found and failed
    assert (f"multiplicities {found}, not [1, 1, 1]" in failed) == \
        (found != [1, 1, 1])


@pytest.mark.parametrize("arrow, found", [
    (Arrow("lam", 0, 0, 1), [1, 2, 1]), (Arrow("lam", 0, 1, 1), [1, 1, 3])],
    ids=["alpha1", "alpha2"])
def test_a_zero_level_embedding_fails_the_left_embedding(arrow, found):
    # alpha^1_1 or alpha^2_1 planted as zero: b1 or b2 acts as zero, which
    # still commutes with the right action, but the left tower's action
    # matrices are dependent; the check lists this with the top's failures
    # instead of raising
    rt = realize_in_tower(build_tower(5, 2, F2), 3)
    m = rt.maps[arrow]
    rt.maps[arrow] = zero_map(m.source, m.target)
    assert bimodule_failures(rt) == (found, [
        "left tower does not embed into End(X)",
        f"multiplicities {found}, not [1, 1, 1]",
        "projective cover of dimension 10, not 8"])


def test_a_left_action_that_is_no_right_module_map_is_named():
    # alpha^1_1 planted as a matrix unit: b1's left action is then no map
    # of right modules, which the check names instead of raising
    rt = realize_in_tower(build_tower(5, 2, F2), 3)
    arrow = Arrow("lam", 0, 0, 1)
    m = rt.maps[arrow]
    unit = Matrix.from_rows(F2, [[F2.one(), F2.zero()]])
    rt.maps[arrow] = ModuleMap(m.source, m.target, unit, check=False)
    # L0~0 is the left tower's label of b1
    assert bimodule_failures(rt) == (
        [1, 1, 1], ["left action of L0~0 is not a right-module map"])


def _projective_summands(x):
    """Projectivity by Krull-Schmidt: decompose X and match its summands
    by isomorphism against the indecomposable projectives e_v A; (every
    summand projective, the multiplicities in path order)."""
    alg = x.algebra
    reg = regular_module(alg)
    projs = [submodule(reg, _module_span(reg, [alg.basis_el(k)]))[0]
             for k, (_, _, _, w) in enumerate(alg.paths) if not w]
    classes = decompose(x).classes
    k = len(projs)
    found = [0] * k
    for idx in iso_classes(projs + [rep.module for rep, _, _ in classes]):
        if idx[0] >= k:
            return False, None
        found[idx[0]] += sum(classes[i - k][1] for i in idx if i >= k)
    return True, found


@pytest.mark.parametrize("height", range(4))
@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_the_top_certificate_agrees_with_the_projective_matching(field,
                                                                 height):
    rt = realize_in_tower(build_tower(5, height, field), 3)
    got, failed = bimodule_failures(rt)
    projective, found = _projective_summands(stage_bimodule(rt))
    # P^l_1 = F1^l (V/m) has dimension l + 1: one copy of each e_v A
    assert (not failed) == (projective and found == [1] * (height + 1))
    assert got == found


def test_stage_bimodule_left_structure(rt_n1):
    left = stage_bimodule(rt_n1)
    assert left.algebra.dim == tower_dimension(rt_n1.quiver.horizon - 1, 1)
    assert left.dim == rt_n1.modules[(0, 0, 3)].dim + \
        rt_n1.modules[(0, 1, 1)].dim


def failing_squares(rt):
    """The squares that functor_failures names as failing, in order."""
    return [line[len("SQUARE_FAILED("):line.index(")")]
            for line in functor_failures(rt)[1]]


@pytest.mark.parametrize("arrow, squares", [
    (Arrow("lam", 0, 0, 1), ["ladder[1,1]"]),
    (Arrow("mu", 0, 1, 2), ["ladder[1,2]", "rim[2]"]),
    (Arrow("lam", 0, 1, 3), ["tube[2]", "tube[3]", "rim[2]", "rim[3]"]),
    (Arrow("lam", 0, 1, 2), ["tube[1]", "tube[2]", "rim[2]", "coker[psi_1]"]),
    (Arrow("lam", 0, 0, 3), ["tube[2]", "tube[3]", "ladder[1,2]",
                             "ladder[1,3]"]),
    (Arrow("mu", 0, 0, 1), ["tube[1]", "tube[2]", "ladder[1,1]", "rim[2]",
                            "coker[psi_1]"]),
    (Arrow("mu", 0, 0, 2), ["tube[2]", "tube[3]", "ladder[1,2]", "rim[3]"])],
    ids=["alpha", "psibar", "fmaps", "phi1", "phi2", "psi1", "psi2"])
def test_corrupted_ladder_names_the_failing_square(arrow, squares):
    # one ladder map zeroed: every square it enters fails, in
    # functor_failures' order.  phi_j is the rim walk lam(0,0,j+1);f_j,
    # so f_2 = lam(0,1,3) fails tube[2] before rim[2], and phi1 and phi2
    # zero a map of their walk
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    h = rt.maps[arrow]
    rt.maps[arrow] = zero_map(h.source, h.target)
    assert failing_squares(rt) == squares


@pytest.mark.parametrize("j", [1, 2])
def test_a_rim_map_off_its_mesh_rule_fails_its_rim_square(j):
    # the planted f_j solves [walk; psibar^1_j] X = [phi_j; wrong], the
    # rim rule's right side off in one entry: the rim walk still realizes
    # phi_j, so the stage row holds, and rim[j] fails, as does rim[j+1],
    # whose right side is f_j;psi_j.  At j = 1 no module map P^1_2 -> M_1
    # is nonzero on the image of psibar^1_1 (Hom(P^1_1, M_1) = 0), so
    # the planted f_j is a raw matrix
    tw = build_tower(5, 1, F2)
    rt = realize_in_tower(tw, 3)
    rim = Arrow("lam", 0, 1, j + 1)
    walk = rt.maps[Arrow("lam", 0, 0, j + 1)].mat
    psibar = rt.maps[Arrow("mu", 0, 1, j)].mat
    f = rt.maps[rim]
    off = Matrix.from_rows(F2, [[1] + [0] * (f.mat.cols - 1)] + [
        [0] * f.mat.cols] * (psibar.rows - 1))
    bad = walk.vstack(psibar).solve_right(chain_quotient(
        tw.algebras[0], j).mat.vstack(psibar * f.mat + off))
    rt.maps[rim] = ModuleMap(f.source, f.target, bad, check=False)
    assert failing_squares(rt) == [f"rim[{j}]", f"rim[{j + 1}]"]


def test_an_inconsistent_rim_system_leaves_a_zero_rim_map():
    # with phi_2's first map lam(0,0,3) zeroed, no f_2 has the walk
    # realize phi_2: f_2 is the zero map, and the squares it enters fail
    tw = build_tower(5, 1, F2)
    rt = realize_in_tower(tw, 3)
    walk = Arrow("lam", 0, 0, 3)
    h = rt.maps[walk]
    rt.maps[walk] = zero_map(h.source, h.target)
    _complete_f_maps(rt, tw.algebras[0])
    assert rt.maps[Arrow("lam", 0, 1, 3)].mat.is_zero()
    assert failing_squares(rt) == ["tube[2]", "tube[3]", "ladder[1,2]",
                                   "ladder[1,3]", "rim[2]", "rim[3]"]


@pytest.mark.parametrize("start", [(0, 0, 9), (0, 2, 1), (1, 0, 2)], ids=str)
def test_a_normal_path_from_off_the_quiver_is_refused(rt_n1, start):
    # a start beyond the realized stages, depths or rays
    with pytest.raises(ValueError, match="not a vertex of the quiver"):
        rt_n1.realize_normal_path(NormalPath(start, 0, 0))


@pytest.mark.parametrize("np", [NormalPath((0, 0, 3), -2, 0),
                                NormalPath((0, 0, 3), 1, -1)], ids=str)
def test_a_normal_path_with_a_negative_step_count_is_refused(rt_n1, np):
    # not an identity map: the path does not exist
    with pytest.raises(ValueError, match="negative step count"):
        rt_n1.realize_normal_path(np)


def test_failed_square_fails_the_ray_tube_suite(failed_square):
    from ppmod.suites import SUITES
    res = SUITES["ray-tube"](0)
    assert not res.passed
    assert "realized\theight 0: SQUARE_FAILED(tube[1])" in \
        "\n".join(res.lines)


def test_failed_multiplicities_are_named_on_their_line(monkeypatch):
    import ppmod.suites
    inner = ppmod.suites.bimodule_failures
    monkeypatch.setattr(ppmod.suites, "bimodule_failures",
                        lambda rt: (inner(rt)[0], ["planted"]))
    res = ppmod.suites.SUITES["ray-tube"](0)
    assert not res.passed
    text = "\n".join(res.lines)
    assert "realized\theight 0: MULTIPLICITIES_FAILED: planted" in text
    assert "squares verified" not in text


def test_failed_symbolic_ladder_is_named_on_its_line(monkeypatch):
    import ppmod.suites
    build = ppmod.suites.TranslationQuiver

    def nonzero_base(m, lengths, horizon):
        # the stage-1 rim rule of ray 0 takes the stage-2 rule's right side
        q = build(m, lengths, horizon)
        rim = lengths[0]
        rules = list(q._rhs)
        rules[q._arrow_id[Arrow("mu", 0, rim, 1)]] = \
            rules[q._arrow_id[Arrow("mu", 0, rim, 2)]]
        q._rhs = tuple(rules)
        return q

    monkeypatch.setattr(ppmod.suites, "TranslationQuiver", nonzero_base)
    res = ppmod.suites.SUITES["ray-tube"](0)
    assert not res.passed
    assert "symbolic\tQ(2; 1,0) ladder FAILED: base square not zero" in \
        res.lines
    assert not any("squares commute" in line for line in res.lines)


def test_realize_lifts_each_stage_map_through_f1_once(monkeypatch):
    # F0 keeps a map's matrix, so only F1 lifts a map: one f1_map per
    # stage and depth, each from the depth below it
    import ppmod.realize
    inner, calls = ppmod.realize.f1_map, []
    monkeypatch.setattr(ppmod.realize, "f1_map",
                        lambda *args: calls.append(args) or inner(*args))
    realize_in_tower(build_tower(5, 2, F2), 3)
    assert len(calls) == 3 * 2  # stages x height


def test_realize_computes_each_hom_space_once(solved_homs):
    realize_in_tower(build_tower(5, 2, F2), 3)
    pairs = {tuple(map(id, s + t)) for s, t in solved_homs}
    assert solved_homs and len(solved_homs) == len(pairs)


def test_iso_matching_solves_no_more_hom_systems(solved_homs):
    # pinned counts: a change that solves more Hom systems here fails
    kron = kronecker_algebra(F2)
    p1, r0 = kronecker_preprojective(kron, 1), kronecker_regular(kron, 0, 1)
    s, _, _ = direct_sum([r0, p1, r0, kronecker_regular(kron, 1, 2), p1])
    solved_homs.clear()
    assert sorted(mult for _, mult, _ in decompose(s).classes) == [1, 2, 2]
    assert len(solved_homs) <= 11
    rt = realize_in_tower(build_tower(5, 2, F2), 3)
    solved_homs.clear()
    assert bimodule_failures(rt)[1] == []
    assert len(solved_homs) <= 2
