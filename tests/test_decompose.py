import contextlib
import gc
import itertools
import random
import weakref

import pytest

from ppmod.fields import GF, QQ
from ppmod.algebra import kronecker_algebra, truncated_dvr
from ppmod.errors import Undecided
from ppmod.linalg import (Matrix, Subspace, combination, subspace_leq,
                          vectorized)
from ppmod.modules import (Module, _record_of, direct_sum, hom_space,
                           iso_test, records_held, submodule)
from ppmod.decompose import (RadicalCalculus, _certify, _commutator_ideal,
                             _echelon, _fitting_split, _frobenius,
                             _split_or_radical, decompose, radical_subspace)
from ppmod.suites import radical_universes
from ppmod.catalog import (dvr_chain_module, dvr_universe, kronecker_rep,
                           kronecker_regular, kronecker_universe,
                           random_quotient_of_free)
from reference import end_local_by_enumeration

F2 = GF(2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_frobenius_is_the_p_power_times_over(p):
    f = GF(p)
    rng = random.Random(p)
    x = Matrix.from_rows(f, [[rng.randrange(p) for _ in range(4)]
                             for _ in range(4)])
    for times in (1, 2):
        want = Matrix.identity(f, 4)
        for _ in range(p ** times):
            want = want * x
        assert _frobenius(x, p, times) == want


def test_indecomposable_returns_itself(dvr3):
    v2 = dvr_chain_module(dvr3, 2)
    d = decompose(v2)
    assert len(d.summands) == 1
    assert d.summands[0].idempotent.mat == Matrix.identity(F2, 2)
    assert d.classes[0][1] == 1
    # a content-equal copy shares the decomposition, and is its own summand
    copy = Module(dvr3, v2.action, label="copy")
    (s,) = decompose(copy).summands
    assert s.module is copy and s.module.label == "copy"
    assert d.summands[0].module is v2 and v2.label != "copy"


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
            assert len(decompose(rep.module).summands) == 1
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


def test_a_lost_class_fails_the_krull_schmidt_merge(monkeypatch):
    # decompose(A + B) drops its last class: the merge check must fail
    import ppmod.suites
    from ppmod.decompose import Decomposition
    sums = set()
    inner_sum, inner_decompose = ppmod.suites.direct_sum, ppmod.suites.decompose

    def recorded(mods):
        out = inner_sum(mods)
        sums.add(out[0].serial)
        return out

    def lossy(m):
        d = inner_decompose(m)
        if m.serial not in sums:
            return d
        return Decomposition(m, d.summands, d.classes[:-1])

    monkeypatch.setattr(ppmod.suites, "direct_sum", recorded)
    monkeypatch.setattr(ppmod.suites, "decompose", lossy)
    res = ppmod.suites.suite_krull_schmidt(0)
    assert not res.passed
    assert res.lines[-1].startswith("failures\t[('merge', ")
    assert res.lines[-1].endswith("(100 total)")


def test_decompose_zero_module(dvr3):
    v1 = dvr_chain_module(dvr3, 1)
    zero = submodule(v1, Subspace.zero(F2, v1.dim))[0]
    assert decompose(zero).summands == []


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
    amb = v1.dim * v2.dim
    full = Subspace.from_matrix(vectorized(F2, [h.mat for h in hom], amb))
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
    t = calc.stabilization_exponent(v3, v3)
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


def _vectorized(f, amb, mats):
    if not mats:
        return Subspace.zero(f, amb)
    return Subspace.from_matrix(Matrix.from_rows(
        f, [[x for r in mat.data for x in r] for mat in mats]))


@pytest.mark.parametrize("name, field", [
    pytest.param(name, field, id=name if field is F2 else f"{name}-GF3")
    for field in (F2, GF(3)) for name in sorted(radical_universes())])
def test_summand_rad_spans_the_nilpotents(name, field):
    for m in radical_universes(field)[name]:
        for s in decompose(m).summands:
            u = s.module
            ends = hom_space(u, u)
            nilpotent = []
            for combo in itertools.product(range(field.p),
                                           repeat=len(ends)):
                mat = Matrix.zero(field, u.dim, u.dim)
                for c, h in zip(combo, ends):
                    mat = mat + h.mat.scale(c)
                power = Matrix.identity(field, u.dim)
                for _ in range(u.dim):
                    power = power * mat
                if power.is_zero():
                    nilpotent.append(mat)
            amb = u.dim * u.dim
            rad = _vectorized(field, amb, s.rad)
            assert rad.dim == s.end_rad_dim  # s.rad is a basis
            assert rad == _vectorized(field, amb, nilpotent)


def test_radical_calculus_decomposes_each_module_once(monkeypatch):
    # decompositions are counted where they are computed, so one kept in
    # its content record and rebound to the module again is not counted
    # twice
    import ppmod.decompose as dec
    made: dict[int, int] = {}
    inner = dec._split_indecomposable

    def counted(m):
        made[m.serial] = made.get(m.serial, 0) + 1
        return inner(m)

    monkeypatch.setattr(dec, "_split_indecomposable", counted)
    for universe in radical_universes().values():
        calc = RadicalCalculus(universe)
        for a, b in itertools.product(universe, repeat=2):
            for t in (1, 2, 3):
                calc.rad_power(a, b, t)
    assert made and max(made.values()) == 1


# -- decompositions and hom bases shared by content --------------------------


def test_a_record_dies_with_its_last_module():
    # a content nothing else builds: an algebra of its own; the sum is
    # decomposable, so its record holds summand modules
    import gc
    import weakref
    from ppmod.modules import _record_of
    dvr = truncated_dvr(3, GF(3))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        def build():
            return direct_sum([dvr_chain_module(dvr, 1),
                               dvr_chain_module(dvr, 2)])[0]
        m, copy = build(), build()
        summands = decompose(m).summands
        homs = len(hom_space(m, copy))
        rec = weakref.ref(_record_of(m))
        leaf = weakref.ref(_record_of(summands[0].module))
        del summands
        assert homs and _record_of(copy) is rec()
        del m
        assert rec() is not None   # the copy still holds it
        del copy
        assert rec() is None and leaf() is None
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def _collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _decomposable_sum(dvr):
    # over an algebra of its own, so no record of its content is older
    # than the test; decomposable, so its record holds summand modules
    return direct_sum([dvr_chain_module(dvr, 1),
                       dvr_chain_module(dvr, 2)])[0]


def test_a_record_made_in_a_block_lives_until_the_block_ends(solved_homs):
    dvr = truncated_dvr(3, GF(3))
    with _collector_off():
        with records_held():
            m = _decomposable_sum(dvr)
            summands = decompose(m).summands
            hom_space(m, m)
            rec = weakref.ref(_record_of(m))
            leaf = weakref.ref(_record_of(summands[0].module))
            del m, summands
            assert rec() is not None and leaf() is not None
            # a later draw of the content finds the record and solves
            # nothing again
            solved = len(solved_homs)
            copy = _decomposable_sum(dvr)
            assert _record_of(copy) is rec()
            hom_space(copy, copy)
            assert len(solved_homs) == solved
            del copy
            assert rec() is not None
        assert rec() is None and leaf() is None


def test_a_nested_block_holds_nothing_beyond_the_outer_one():
    dvr = truncated_dvr(3, GF(3))
    with _collector_off():
        with records_held():
            with records_held():
                m = _decomposable_sum(dvr)
                rec = weakref.ref(_record_of(m))
                del m
            assert rec() is not None   # the inner block's end drops nothing
            with records_held():
                pass
            assert rec() is not None
        assert rec() is None


def test_an_exception_in_a_block_still_releases_its_records():
    dvr = truncated_dvr(3, GF(3))
    with _collector_off():
        with pytest.raises(RuntimeError):
            with records_held():
                m = _decomposable_sum(dvr)
                rec = weakref.ref(_record_of(m))
                del m
                raise RuntimeError
        assert rec() is None
        # and after it a record lives only as long as its module
        m = _decomposable_sum(dvr)
        rec = weakref.ref(_record_of(m))
        del m
        assert rec() is None


def test_the_data_a_record_shares_is_immutable(dvr3):
    # the radical bases and class index groups of a kept decomposition are
    # shared with every later draw of its content, so mutating one raises
    v1, v2 = dvr_chain_module(dvr3, 1), dvr_chain_module(dvr3, 2)
    m = direct_sum([v1, v2, v1])[0]
    d = decompose(m)
    with _collector_off():
        rad = next(s.rad for s in d.summands if s.rad)
        idx = next(idx for _, mult, idx in d.classes if mult == 2)
        with pytest.raises(AttributeError):
            rad.append(rad[0])
        with pytest.raises(TypeError):
            rad[0] = rad[0]
        with pytest.raises(AttributeError):
            idx.append(0)
        with pytest.raises(TypeError):
            idx[0] = 1
        again = decompose(Module(m.algebra, m.action))
        assert _decomposition_data(again) == _decomposition_data(d)


def _shared_universe(field):
    """(module, probes) for the Kronecker modules of dimension <= 4 and
    the k[x]/(x^3) modules of dimension <= 4, each list followed by the
    sums of its neighbours; the probes are three modules over the same
    algebra."""
    out = []
    for universe in (kronecker_universe(kronecker_algebra(field), 4),
                     dvr_universe(truncated_dvr(3, field), 4)):
        mods = universe + [direct_sum([a, b])[0]
                           for a, b in zip(universe, universe[1:])]
        out += [(m, (mods[0], mods[5], mods[-1])) for m in mods]
    return out


def _decomposition_data(d):
    return ([(s.module.action, s.inject.mat, s.project.mat, s.end_dim, s.rad)
             for s in d.summands], [(mult, idx) for _, mult, idx in d.classes])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_content_equal_copies_match_the_unshared_computation(field,
                                                            monkeypatch):
    # decompose and hom_space of a content-equal copy, read from the record
    # its original filled, equal matrix by matrix what they compute with no
    # record alive, and the rebound maps start or end at the copy
    import ppmod.decompose
    import ppmod.modules
    from ppmod.modules import _Record
    mods = _shared_universe(field)
    with monkeypatch.context() as patch:
        for where in (ppmod.modules, ppmod.decompose):
            patch.setattr(where, "_record_of", lambda m: _Record())
        want = [(_decomposition_data(decompose(m)),
                 [[h.mat for h in hom_space(m, p)] for p in probes])
                for m, probes in mods]
    for m, probes in mods:
        decompose(m)
        for p in probes:
            hom_space(m, p)
    for (m, probes), (dec, homs) in zip(mods, want):
        copy = Module(m.algebra, m.action)
        d = decompose(copy)
        assert _decomposition_data(d) == dec
        assert d.module is copy
        for s in d.summands:
            assert s.inject.target is copy and s.project.source is copy
        if len(d.summands) == 1:
            assert d.summands[0].module is copy
        for p, mats in zip(probes, homs):
            got = hom_space(copy, p)
            assert [h.mat for h in got] == mats
            assert all(h.source is copy and h.target is p for h in got)


# Hom systems that suite_krull_schmidt(0) solves: each content's bases once
# per suite (1,320 before bases were shared)
KRULL_SCHMIDT_SOLVES = 216


def test_krull_schmidt_suite_work_does_not_depend_on_the_collector(
        solved_homs):
    # Hom systems solved, counted where hom_space solves them, are the
    # same with the collector on and off: records die by refcount
    import gc
    from ppmod.suites import suite_krull_schmidt

    def run():
        solved_homs.clear()
        assert suite_krull_schmidt(0).passed
        return len(solved_homs)

    was_enabled = gc.isenabled()
    collected = run()
    gc.disable()
    try:
        uncollected = run()
    finally:
        if was_enabled:
            gc.enable()
    assert collected == uncollected == KRULL_SCHMIDT_SOLVES


# Hom systems that suite_classification(0) solves: each content's bases once
# per suite (692 when a record died with its last module)
CLASSIFICATION_SOLVES = 129


def test_classification_suite_solves_each_content_once(solved_homs):
    # counted where hom_space solves them, with the collector on and off
    from ppmod.suites import suite_classification
    counts = []
    for context in (contextlib.nullcontext, _collector_off):
        solved_homs.clear()
        with context():
            assert suite_classification(0).passed
        counts.append(len(solved_homs))
    assert counts == [CLASSIFICATION_SOLVES] * 2


def test_iso_test_leaves_the_kept_decomposition_whole(dvr3):
    # no element of the echelon basis of Hom(V1+V1, V1+V1) = M_2(k) is
    # invertible, so iso_test matches the summands of both decompositions
    v1 = dvr_chain_module(dvr3, 1)
    m, n = direct_sum([v1, v1])[0], direct_sum([v1, v1])[0]
    for _ in range(2):
        iso = iso_test(m, n)
        assert iso is not None and iso.is_iso() and iso.intertwines()
        assert len(decompose(n).summands) == len(decompose(m).summands) == 2


# -- the structural local-End certificate ------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_certificate_matches_enumeration(p):
    """Verdict and radical of the certificate agree with enumerating End
    on every module with End dimension <= 12 of three universes."""
    field = GF(p)
    modules = dvr_universe(truncated_dvr(3, field), 6) + \
        kronecker_universe(kronecker_algebra(field), 5) + \
        [m for u in radical_universes(field).values() for m in u]
    locals_seen = splits_seen = 0
    for m in modules:
        ends = [h.mat for h in hom_space(m, m)]
        if len(ends) > 12:
            continue
        local, nilpotents = end_local_by_enumeration(ends)
        rad, _ = _certify(ends)
        summands = decompose(m).summands
        assert (rad is not None) == local == (len(summands) == 1), m.label
        if local:
            locals_seen += 1
            amb = m.dim * m.dim
            want = _vectorized(field, amb, [combination(c, ends)
                                            for c in nilpotents.data])
            assert _vectorized(field, amb, rad) == want
            assert _vectorized(field, amb, summands[0].rad) == want
            assert len(summands[0].rad) == want.dim
        else:
            splits_seen += 1
    assert locals_seen >= 10 and splits_seen >= 50


@pytest.mark.parametrize("p, j", [(2, 15), (3, 9)])
def test_end_past_the_old_enumeration_limit_is_certified(p, j):
    # p^j > 2^14: the enumeration used to give up with a RuntimeError
    field = GF(p)
    m = dvr_chain_module(truncated_dvr(j, field), j)
    d = decompose(m)
    assert len(d.summands) == 1
    rad = d.summands[0].rad
    assert len(rad) == j - 1
    # rad End(V/m^j) is spanned by x, ..., x^(j-1)
    assert _vectorized(field, j * j, rad) == \
        _vectorized(field, j * j, m.action[1:])


def _companion_regular(field, coeffs):
    """Kronecker regular with the companion matrix of the monic
    t^k + coeffs[k-1] t^(k-1) + ... + coeffs[0] as its second arrow."""
    k = len(coeffs)
    comp = Matrix.from_rows(field, [
        [field.one() if c == r + 1 else field.zero() for c in range(k)]
        if r < k - 1 else [field.of(-a) for a in coeffs]
        for r in range(k)])
    return kronecker_rep(kronecker_algebra(field), k, k,
                         Matrix.identity(field, k), comp)


@pytest.mark.parametrize("field, coeffs, rad_dim", [
    (F2, [1, 1], 0),           # t^2 + t + 1: End = GF(4)
    (F2, [1, 0, 1, 0], 2),     # (t^2 + t + 1)^2: End/rad = GF(4)
    (QQ, [1, 0], 0),           # t^2 + 1: End = QQ(i)
    (QQ, [1, 0, 2, 0], 2),     # (t^2 + 1)^2: End/rad = QQ(i)
], ids=["GF4", "GF4-squared", "QQi", "QQi-squared"])
def test_degree_two_top_is_certified_a_field(field, coeffs, rad_dim):
    m = _companion_regular(field, coeffs)
    ends = [h.mat for h in hom_space(m, m)]
    assert len(ends) == len(coeffs)
    assert all(_fitting_split(m, x) is None for x in ends)
    rad, _ = _certify(ends)
    assert rad is not None and len(rad) == rad_dim
    (s,) = decompose(m).summands
    assert s.end_dim - s.end_rad_dim == 2


@pytest.mark.parametrize("field, basis", [
    # GF(3) x GF(3): the Frobenius fixes a 2-dimensional space, and a fixed
    # element minus a scalar splits
    (GF(3), [[[1, 0], [0, 1]], [[1, 0], [0, 2]]]),
    # QQ x QQ = QQ[D]/(D^2 - 1): x_0 = I has a minimal polynomial of degree
    # 1 < 2, x_1 = I + D has t(t - 2), whose CRT idempotent splits
    (QQ, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    # M_2(GF(2)): the commutator ideal is everything, so it is not nilpotent
    (F2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 0]],
          [[0, 0], [1, 0]]]),
    # GF(p) x GF(p) for p ~ 10^18, echelon basis I and [[0, 1], [0, 1]]:
    # the first fixed element is I, which no scalar shift splits
    (GF(1000000000000000003), [[[1, 0], [0, 1]], [[1, 1], [0, 2]]]),
], ids=["gf3-diagonal", "qq-swap", "gf2-matrix-ring", "large-prime"])
def test_non_local_end_that_no_basis_element_splits(field, basis):
    # End(S + S) of a simple S is given by a basis of units and nilpotents
    s1 = dvr_chain_module(truncated_dvr(3, field), 1)
    m, _, _ = direct_sum([s1, s1])
    mats = [Matrix.from_rows(field, rows) for rows in basis]
    assert all(_fitting_split(m, x) is None for x in mats)
    rad, structural = _certify(mats)
    assert rad is None
    # only the eigenvalues shift a fixed element, so a split comes within
    # the first few candidates
    assert any(_fitting_split(m, x) is not None
               for x in itertools.islice(structural, 4))
    split, rad = _split_or_radical(m, mats)
    assert rad is None and (split[0].dim, split[1].dim) == (1, 1)


def test_quaternion_end_is_undecided():
    # a noncommutative division ring over QQ: every nonzero element is a
    # unit, so nothing splits, and a field certificate cannot exist
    f = QQ
    i = Matrix.from_rows(f, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                 [0, 0, 0, -1], [0, 0, 1, 0]])
    j = Matrix.from_rows(f, [[0, 0, 1, 0], [0, 0, 0, 1],
                                 [-1, 0, 0, 0], [0, -1, 0, 0]])
    mats = [Matrix.identity(f, 4), i, j, i * j]
    s1 = dvr_chain_module(truncated_dvr(3, f), 1)
    m, _, _ = direct_sum([s1] * 4)
    with pytest.raises(Undecided):
        _split_or_radical(m, mats)


def test_commutator_ideal_is_closed_under_multiplication():
    # a 13-dimensional local algebra of 6 x 6 upper triangular matrices
    # whose commutators span 8 dimensions and generate a 9-dimensional ideal
    gens = [Matrix.from_rows(F2, rows) for rows in (
        [[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1],
         [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]],
        [[0, 1, 1, 0, 1, 0], [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0],
         [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]],
        [[0, 0, 1, 1, 1, 0], [0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 1],
         [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]])]
    mats = [Matrix.identity(F2, 6)]
    todo = list(gens)
    while todo:  # the algebra the generators span with the identity
        y = todo.pop()
        if not _vectorized(F2, 36, mats + [y]).dim > len(mats):
            continue
        mats.append(y)
        todo += [y * x for x in mats] + [x * y for x in mats]
    basis, coords = _echelon(mats)
    assert len(basis) == 13
    ideal = _commutator_ideal(basis, coords)
    commutators = [a * b - b * a for a in basis for b in basis]
    assert Subspace.from_matrix(coords(commutators)).dim == 8
    assert ideal.dim == 9
    gens = [combination(r, basis) for r in ideal.basis.data]
    products = [y * x for y in gens for x in basis] + \
        [x * y for y in gens for x in basis]
    assert subspace_leq(Subspace.from_matrix(coords(products)), ideal)
    rad, _ = _certify(mats)
    assert rad is not None and len(rad) == 12
