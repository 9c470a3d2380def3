import importlib
import itertools
import random

import pytest

from ppmod.fields import GF, QQ
from ppmod.algebra import truncated_dvr
from ppmod.linalg import Matrix, subspace_leq
from ppmod.modules import (direct_sum, hom_space, identity_map, iso_test,
                           zero_module)
from ppmod.decompose import (RadicalCalculus, _find_splitter,
                             _fitting_split, _splitter_candidates,
                             decompose, hom_subspace, is_indecomposable,
                             radical_subspace)
from ppmod.linalg import Subspace
from ppmod.suites import radical_universes
from ppmod.catalog import (dvr_chain_module, dvr_universe,
                           kronecker_preprojective, kronecker_regular,
                           random_quotient_of_free)

F2 = GF(2)


def test_indecomposable_returns_itself(dvr3):
    v2 = dvr_chain_module(dvr3, 2)
    d = decompose(v2)
    assert len(d.summands) == 1
    assert d.summands[0].idempotent.mat == Matrix.identity(F2, 2)
    assert d.classes[0][1] == 1


def test_split_two_chains_derived(dvr3):
    # oracle: the module is constructed as a direct sum, so the expected
    # class list is known by construction
    v1 = dvr_chain_module(dvr3, 1)
    v2 = dvr_chain_module(dvr3, 2)
    s, _, _ = direct_sum([v1, v2])
    d = decompose(s)
    dims = sorted(x.module.dim for x in d.summands)
    assert dims == [1, 2]
    assert len(d.classes) == 2
    for rep, mult, _ in d.classes:
        assert mult == 1


def test_semisimple_block_multiplicity(dvr3):
    v1 = dvr_chain_module(dvr3, 1)
    s, _, _ = direct_sum([v1] * 5)
    d = decompose(s)
    assert len(d.summands) == 5
    assert len(d.classes) == 1
    assert d.classes[0][1] == 5


def test_idempotents_orthogonal_sum_to_identity(dvr3):
    v1 = dvr_chain_module(dvr3, 1)
    v3 = dvr_chain_module(dvr3, 3)
    s, _, _ = direct_sum([v1, v3, v1])
    d = decompose(s)
    es = d.idempotents()
    total = Matrix.zero(F2, s.dim, s.dim)
    for e in es:
        assert e.mat * e.mat == e.mat
        assert e.intertwines()
        total = total + e.mat
    for i in range(len(es)):
        for j in range(len(es)):
            if i != j:
                assert (es[i].mat * es[j].mat).is_zero()
    assert total == Matrix.identity(F2, s.dim)


def test_dvr_indecomposables_exhaustive_derived(dvr3):
    # every module of dim <= 3 decomposes into chain modules; exactly one
    # indecomposable per dimension 1, 2, 3
    seen = {}
    for m in dvr_universe(dvr3, 3):
        d = decompose(m)
        for rep, mult, _ in d.classes:
            assert is_indecomposable(rep.module)
            seen.setdefault(rep.module.dim, rep.module)
    assert sorted(seen) == [1, 2, 3]
    for j, m in seen.items():
        assert iso_test(m, dvr_chain_module(dvr3, j)) is not None


def test_merge_property_random(dvr3, kron):
    rng = random.Random(3)
    for alg in (dvr3, kron):
        for _ in range(6):
            a = random_quotient_of_free(alg, 2, rng, dim_cap=6)
            b = random_quotient_of_free(alg, 1, rng, dim_cap=4)
            s, _, _ = direct_sum([a, b])
            da, db, ds = decompose(a), decompose(b), decompose(s)
            merged = {}
            for d in (da, db):
                for rep, mult, _ in d.classes:
                    for key in list(merged):
                        if key.dim == rep.module.dim and \
                                iso_test(key, rep.module) is not None:
                            merged[key] += mult
                            break
                    else:
                        merged[rep.module] = mult
            got = {}
            for rep, mult, _ in ds.classes:
                got[rep.module] = mult
            assert sorted(merged.values()) == sorted(got.values())
            assert len(merged) == len(got)
            for km, vm in merged.items():
                match = [kg for kg in got
                         if kg.dim == km.dim and iso_test(kg, km) is not None]
                assert len(match) == 1 and got[match[0]] == vm


def test_decompose_zero_module(dvr3):
    assert decompose(zero_module(dvr3)).summands == []


def test_decompose_kronecker_regulars(kron):
    r01 = kronecker_regular(kron, 0, 1)
    r11 = kronecker_regular(kron, 1, 1)
    rinf = kronecker_regular(kron, "inf", 1)
    s, _, _ = direct_sum([r01, r11, rinf])
    d = decompose(s)
    assert len(d.classes) == 3
    assert all(mult == 1 for _, mult, _ in d.classes)


def test_decompose_over_rationals():
    alg = truncated_dvr(3, QQ)
    v1 = dvr_chain_module(alg, 1)
    v2 = dvr_chain_module(alg, 2)
    s, _, _ = direct_sum([v1, v2, v1])
    d = decompose(s)
    assert sorted(x.module.dim for x in d.summands) == [1, 1, 2]
    assert len(d.classes) == 2


# -- radical ----------------------------------------------------------------


def test_identity_not_in_radical(dvr3):
    v2 = dvr_chain_module(dvr3, 2)
    r = radical_subspace(v2, v2)
    ident = [x for row in Matrix.identity(F2, 2).data for x in row]
    assert not r.contains_vector(ident)


def test_radical_between_nonisomorphic_is_full_hom_derived(dvr3):
    # oracle: check the definition directly by enumerating g in Hom(B, A):
    # f in rad iff 1 - g f is invertible for every g
    v1 = dvr_chain_module(dvr3, 1)
    v2 = dvr_chain_module(dvr3, 2)
    hom = hom_space(v1, v2)
    back = hom_space(v2, v1)

    def in_rad_by_definition(fmap):
        for gbits in range(1 << len(back)):
            g = Matrix.zero(F2, v2.dim, v1.dim)
            for i in range(len(back)):
                if (gbits >> i) & 1:
                    g = g + back[i].mat
            one_minus = Matrix.identity(F2, v1.dim) - (fmap.mat * g)
            if one_minus.rank() < v1.dim:
                return False
        return True

    rad = radical_subspace(v1, v2)
    full = hom_subspace(v1, v2)
    assert rad == full  # non-isomorphic indecomposables
    for fbits in range(1 << len(hom)):
        f = Matrix.zero(F2, v1.dim, v2.dim)
        for i in range(len(hom)):
            if (fbits >> i) & 1:
                f = f + hom[i].mat
        vec = [x for row in f.data for x in row]
        from ppmod.modules import ModuleMap
        assert in_rad_by_definition(ModuleMap(v1, v2, f, check=False)) == \
            rad.contains_vector(vec)


def test_radical_powers_stabilize(dvr3):
    universe = dvr_universe(dvr3, 3)
    calc = RadicalCalculus(universe)
    v3 = dvr_chain_module(dvr3, 3)
    t = calc.stabilization_exponent(v3, v3, t_max=8)
    assert t is not None
    # the stable value over this universe is the zero subspace
    assert calc.rad_power(v3, v3, t).dim == calc.rad_power(v3, v3, t + 1).dim


def test_radical_power_descending_chain(dvr3):
    universe = dvr_universe(dvr3, 3)
    calc = RadicalCalculus(universe)
    v3 = dvr_chain_module(dvr3, 3)
    prev = calc.rad_power(v3, v3, 1)
    for t in range(2, 6):
        cur = calc.rad_power(v3, v3, t)
        assert subspace_leq(cur, prev)
        prev = cur


class _NoDraws(random.Random):
    def choice(self, seq):
        raise AssertionError("random candidate drawn")


def test_find_splitter_draws_nothing_when_basis_splits(dvr3):
    v1 = dvr_chain_module(dvr3, 1)
    m, _, _ = direct_sum([v1, v1])
    ends = hom_space(m, m)
    assert _fitting_split(m, ends[0]) is not None
    split = _find_splitter(m, ends, _NoDraws())
    assert split is not None and split[0].dim + split[1].dim == m.dim


def test_splitter_candidates_keep_the_eager_order(dvr3):
    m, _, _ = direct_sum([dvr_chain_module(dvr3, 1),
                          dvr_chain_module(dvr3, 2)])
    basis = hom_space(m, m)
    rng = random.Random(5)
    eager = [h.mat for h in basis]
    eager += [(a + b).mat for a, b in itertools.combinations(basis, 2)]
    eager += [a.mat * b.mat for a, b in itertools.permutations(basis, 2)]
    for _ in range(512):
        mat = Matrix.zero(F2, m.dim, m.dim)
        for h in basis:
            mat = mat + h.mat.scale(rng.choice([0, 1]))
        eager.append(mat)
    lazy = _splitter_candidates(m, basis, random.Random(5))
    assert [c.mat for c in lazy] == eager


def _vectorized(f, amb, mats):
    if not mats:
        return Subspace.zero(f, amb)
    return Subspace.from_matrix(amb, Matrix.from_rows(
        f, [[x for r in mat.data for x in r] for mat in mats]))


@pytest.mark.parametrize("name", sorted(radical_universes()))
def test_summand_rad_spans_the_nilpotents(name):
    for m in radical_universes()[name]:
        for s in decompose(m).summands:
            u = s.module
            ends = hom_space(u, u)
            nilpotent = []
            for combo in itertools.product((0, 1), repeat=len(ends)):
                mat = Matrix.zero(F2, u.dim, u.dim)
                for c, h in zip(combo, ends):
                    if c:
                        mat = mat + h.mat
                power = Matrix.identity(F2, u.dim)
                for _ in range(u.dim):
                    power = power * mat
                if power.is_zero():
                    nilpotent.append(mat)
            amb = u.dim * u.dim
            rad = _vectorized(F2, amb, s.rad)
            assert rad.dim == s.end_rad_dim  # s.rad is a basis
            assert rad == _vectorized(F2, amb, nilpotent)


def test_radical_calculus_decomposes_each_module_once(monkeypatch):
    # the package's own `decompose` name is the function, not the module
    dec = importlib.import_module("ppmod.decompose")
    calls: dict[int, int] = {}
    real = dec.decompose

    def counting(m, seed=0):
        calls[m.serial] = calls.get(m.serial, 0) + 1
        return real(m, seed)

    monkeypatch.setattr(dec, "decompose", counting)
    for universe in radical_universes().values():
        calc = RadicalCalculus(universe)
        for a, b in itertools.product(universe, repeat=2):
            for t in (1, 2, 3):
                calc.rad_power(a, b, t)
    assert calls and max(calls.values()) == 1
