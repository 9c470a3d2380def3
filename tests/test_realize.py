import pytest

from ppmod.fields import GF
from ppmod.errors import HorizonExceeded, SquareFailed
from ppmod.linalg import Matrix
from ppmod.modules import ModuleMap, iso_test, zero_map
from ppmod.catalog import dvr_chain_module
from ppmod.tower import build_tower
from ppmod.tube import (FormalPath, ZERO, all_paths_from, build_ray_tube,
                        normalize_path)
from ppmod.realize import (RealizedTube, _verify_squares, chain_inclusion,
                           chain_quotient, realize_in_tower, stage_bimodule,
                           verify_bimodule_idempotents,
                           verify_pushout_pullback)

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
    res = verify_pushout_pullback(ident, ident, ident, ident)
    assert res["bicartesian"]  # 0 -> A -> A (+) A -> A -> 0 is exact


def test_deliberately_broken_square_fails(tw_n1):
    alg = tw_n1.algebras[0]
    inc1 = chain_inclusion(alg, 1)
    quo1 = chain_quotient(alg, 1)
    v1 = dvr_chain_module(alg, 1)
    v2 = dvr_chain_module(alg, 2)
    # the direct-sum exact square 0 -> V/m -> V/m^2 (+) V/m... use the
    # standard chain square which is exact:
    ok = verify_pushout_pullback(inc1, inc1, quo1, quo1)
    # breaking one map with zero destroys exactness
    broken = verify_pushout_pullback(inc1, zero_map(v1, v2), quo1, quo1)
    assert not broken["bicartesian"]


def test_realized_ladder_n1(rt_n1):
    names = [n for n, ok in rt_n1.checked_squares]
    assert all(ok for _, ok in rt_n1.checked_squares)
    assert "tube[1]" in names and "coker[psi_1]" in names
    assert any(n.startswith("ladder[1,") for n in names)
    assert any(n.startswith("rim[") for n in names)


def test_realized_object_dims(rt_n1):
    assert [rt_n1.P[(0, j)].dim for j in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert [rt_n1.P[(1, j)].dim for j in (1, 2, 3, 4)] == [2, 3, 4, 5]


def test_coker_psi1_is_m1(rt_n1):
    from ppmod.modules import cokernel
    cok, _ = cokernel(rt_n1.psibar[(0, 1)])
    assert iso_test(cok, rt_n1.P[(0, 1)]) is not None


def test_realization_functoriality_n1(tw_n1, rt_n1):
    # normalize-then-realize equals realize-then-compose on all short paths
    q = build_ray_tube(1, (1,), rt_n1.stages + 1)
    for v in q.vertices():
        if v[2] > rt_n1.stages:
            continue
        for word in all_paths_from(q, v, 4):
            if any(a.j > rt_n1.stages or (a.kind == "mu" and a.j + 1 > rt_n1.stages + 1)
                   for a in word):
                continue
            end = q.target(word[-1])
            if end[2] > rt_n1.stages + 1:
                continue
            p = FormalPath(1, v, word)
            direct = None
            src = rt_n1.P[(v[1], v[2])]
            direct = ModuleMap(src, src, Matrix.identity(F2, src.dim),
                               check=False)
            for a in word:
                direct = direct.then(rt_n1.realize_arrow(q, a))
            np = normalize_path(q, p)
            if np == ZERO:
                assert direct.is_zero()
            else:
                realized = rt_n1.realize_normal_path(q, np)
                assert realized.mat == direct.mat


def test_horizon_discipline(tw_n1):
    with pytest.raises(HorizonExceeded):
        realize_in_tower(tw_n1, 5)


def test_bimodule_idempotents_n0():
    tw = build_tower(4, 0, F2)
    rt = realize_in_tower(tw, 3)
    res = verify_bimodule_idempotents(rt)
    assert res["ok"]
    assert res["expected"] == [1]  # free of rank dim M_1


def test_bimodule_idempotents_n1(rt_n1):
    res = verify_bimodule_idempotents(rt_n1)
    assert res["ok"]
    assert res["expected"] == [1, 1]


def test_bimodule_idempotents_n1_horizon4():
    tw = build_tower(4, 1, F2)
    rt = realize_in_tower(tw, 3)
    res = verify_bimodule_idempotents(rt)
    assert res["ok"] and res["found"] == res["expected"]


def test_bimodule_idempotents_n2():
    tw = build_tower(4, 2, F2)
    rt = realize_in_tower(tw, 3)
    res = verify_bimodule_idempotents(rt)
    assert res["ok"]
    assert res["expected"] == [1, 1, 1]


def test_stage_bimodule_left_structure(rt_n1):
    left_tower, left_mod, x_mod = stage_bimodule(rt_n1)
    assert left_tower.N == rt_n1.stages
    assert left_mod.dim == rt_n1.P[(0, 3)].dim + rt_n1.P[(1, 1)].dim


def test_corrupted_ladder_names_the_failing_square():
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    rt.alpha[(1, 2)] = zero_map(rt.P[(0, 2)], rt.P[(1, 2)])
    with pytest.raises(SquareFailed) as err:
        _verify_squares(rt)
    assert err.value.square_id == "ladder[1,1]"


def test_realize_computes_each_hom_space_once(monkeypatch):
    import ppmod.tower
    calls = []
    inner = ppmod.tower.hom_space

    def counted(m, n):
        calls.append((m, n))
        return inner(m, n)

    monkeypatch.setattr(ppmod.tower, "hom_space", counted)
    realize_in_tower(build_tower(5, 2, F2), 3)
    pairs = {(id(m), id(n)) for m, n in calls}
    assert calls and len(calls) == len(pairs)
