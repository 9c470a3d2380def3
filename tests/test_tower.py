import itertools
import random

import pytest

from ppmod.fields import GF, QQ
from ppmod.catalog import dvr_chain_module, random_quotient_of_free
from ppmod.decompose import decompose
from ppmod.modules import (ModuleMap, direct_sum, hom_space, iso_classes,
                           iso_test)
from ppmod.tower import (FpLabel, all_labels, build_tower, classify,
                         construct_label, f0, f1, f1_map, label_module,
                         natural_embedding, restrict, t_module,
                         verify_hom_bounds)

F2 = GF(2)


@pytest.fixture(scope="module")
def tw31():
    return build_tower(3, 1, F2)


@pytest.fixture(scope="module")
def tw32():
    return build_tower(3, 2, F2)


@pytest.fixture(scope="module")
def tw21():
    return build_tower(2, 1, F2)


def test_tower_dims(tw31, tw32):
    assert tw31.algebras[0].dim == 3
    assert tw31.top.dim == 5          # N + n(n+3)/2 = 3 + 2
    assert tw31.bimodules[1].dim == 2
    assert tw32.top.dim == 8          # 3 + 5
    assert [l.dim for l in tw32.bimodules] == [1, 2, 3]


def test_idempotent_identities_checked_at_build(tw32):
    # the vertex idempotents are the empty-word paths
    alg = tw32.top
    vertices = [k for k, (_, _, _, w) in enumerate(alg.paths) if not w]
    assert [alg.labels[k] for k in vertices] == ["eps0", "eps1", "eps2"]
    ids = [alg.basis_el(k) for k in vertices]
    total = alg.zero_el()
    for v in ids:
        assert alg.mul_el(v, v) == v
        total = alg.add_el(total, v)
    assert total == alg.unit
    for u, v in itertools.permutations(ids, 2):
        assert alg.mul_el(u, v) == alg.zero_el()


def test_restrict_then_f1_rebuilds_the_module(tw31):
    v2 = dvr_chain_module(tw31.algebras[0], 2)
    up = f1(tw31, 1, v2)
    ext, core = restrict(tw31, 1, up)
    assert ext == 1 and core.dim == 2
    assert iso_test(f1(tw31, 1, core), up) is not None


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_restrict_undoes_both_embeddings_exactly(field):
    # restrict(F0 M) = (0, M) and restrict(F1 M) = (dim Hom(L, M), M),
    # matrix by matrix, not only up to isomorphism
    tw = build_tower(3, 2, field)
    rng = random.Random(5)
    for level in (1, 2):
        below = tw.algebras[level - 1]
        mods = [dvr_chain_module(tw.algebras[0], j) for j in (1, 2, 3)]
        mods = [f1(tw, 1, m) if level == 2 else m for m in mods]
        mods.append(random_quotient_of_free(below, 1, rng, dim_cap=6))
        for m in mods:
            homs = len(hom_space(tw.bimodules[level - 1], m))
            for up, ext in ((f0, 0), (f1, homs)):
                got, core = restrict(tw, level, up(tw, level, m))
                assert got == ext
                assert core.algebra is below and core.dim == m.dim
                assert core.action == m.action


def test_embeddings_and_restrict_refuse_a_wrong_level(tw32):
    v1 = dvr_chain_module(tw32.algebras[0], 1)
    up = f1(tw32, 1, v1)
    for call, x in ((f0, v1), (f1, v1), (restrict, up)):
        for level in (0, 3):
            with pytest.raises(ValueError, match="level out of range"):
                call(tw32, level, x)
    # a module over any other ring than the one the level names
    for call, x in ((f0, up), (f1, up), (restrict, v1)):
        with pytest.raises(ValueError, match="module is not over the ring"):
            call(tw32, 1, x)
    # or over an equal ring of another tower
    twin = build_tower(3, 2, F2)
    other = dvr_chain_module(twin.algebras[0], 1)
    for call, x in ((f0, other), (f1, other), (restrict, f1(twin, 1, other))):
        with pytest.raises(ValueError, match="module is not over the ring"):
            call(tw32, 1, x)


def test_f0_f1_full_faithful_on_homs(tw31):
    a0 = tw31.algebras[0]
    mods = [dvr_chain_module(a0, j) for j in (1, 2, 3)]
    for x, y in itertools.product(mods, repeat=2):
        base = len(hom_space(x, y))
        assert len(hom_space(f0(tw31, 1, x), f0(tw31, 1, y))) == base
        assert len(hom_space(f1(tw31, 1, x), f1(tw31, 1, y))) == base


def test_forget_retracts_f0_f1(tw31):
    a0 = tw31.algebras[0]
    for j in (1, 2, 3):
        m = dvr_chain_module(a0, j)
        for up in (f0, f1):
            down = restrict(tw31, 1, up(tw31, 1, m))[1]
            assert iso_test(down, m) is not None


def test_adjunction_dimension_identities(tw31):
    a0 = tw31.algebras[0]
    below = [dvr_chain_module(a0, j) for j in (1, 2)]
    ups = [f0(tw31, 1, below[0]), f1(tw31, 1, below[1]), t_module(tw31, 1)]
    for x, y in itertools.product(below, ups):
        ry = restrict(tw31, 1, y)[1]
        assert len(hom_space(f0(tw31, 1, x), y)) == len(hom_space(x, ry))
        assert len(hom_space(ry, x)) == len(hom_space(y, f1(tw31, 1, x)))


def test_hom_f1l_f0k_vanishes(tw31, tw32):
    # Hom(F_1 L, F_0 K) = 0, and the two double embeddings agree
    for tw in (tw31, tw32):
        for lvl in range(1, tw.height + 1):
            l_below = tw.bimodules[lvl - 1]
            f1l = f1(tw, lvl, l_below)
            for j in (1, 2, 3):
                km = dvr_chain_module(tw.algebras[0], j)
                for up in range(1, lvl):
                    km = f0(tw, up, km)
                f0k = f0(tw, lvl, km)
                assert hom_space(f1l, f0k) == []
    # F1 F0 K and F0 F0 K are isomorphic
    tw = tw32
    k = dvr_chain_module(tw.algebras[0], 2)
    a = f1(tw, 2, f0(tw, 1, k))
    b = f0(tw, 2, f0(tw, 1, k))
    assert iso_test(a, b) is not None


def test_dim_hom_ln_ln_is_one(tw32):
    for lvl in range(tw32.height + 1):
        l_mod = tw32.bimodules[lvl]
        assert len(hom_space(l_mod, l_mod)) == 1


def test_t_module_classification(tw31):
    t1 = t_module(tw31, 1)
    out = classify(tw31, t1)
    assert [(str(lab), m) for lab, m in out] == [("T(1)", 1)]


def test_f1_ind2_label(tw31):
    v2 = dvr_chain_module(tw31.algebras[0], 2)
    m = f1(tw31, 1, v2)
    out = classify(tw31, m)
    assert [(str(lab), mm) for lab, mm in out] == [("F0^0 F1^1 Ind(2)", 1)]


def test_classify_random_sum_matches_construction(tw31):
    labs = [FpLabel(1, 0, ("Ind", 2)), FpLabel(0, 1, ("Ind", 1)),
            FpLabel(0, 0, ("T", 1))]
    mods = [construct_label(tw31, lab) for lab in labs]
    s, _, _ = direct_sum(mods)
    out = classify(tw31, s)
    got = sorted((str(lab), m) for lab, m in out)
    assert got == sorted((str(lab), 1) for lab in labs)


def test_classification_complete_on_random_quotients(tw21):
    rng = random.Random(11)
    for _ in range(12):
        m = random_quotient_of_free(tw21.top, 2, rng, dim_cap=8)
        out = classify(tw21, m)  # must not raise UnclassifiedSummand
        assert sum(construct_label(tw21, lab).dim * mult
                   for lab, mult in out) == m.dim


def test_labels_have_local_endos(tw21):
    for lab in all_labels(tw21, dim_cap=8):
        m = construct_label(tw21, lab)
        d = decompose(m)
        assert len(d.summands) == 1
        assert d.summands[0].end_dim - d.summands[0].end_rad_dim == 1


def test_verify_hom_bounds_21(tw21):
    rows, over = verify_hom_bounds(tw21, dim_cap=6)
    assert over == []
    by_label = {lab: hom for lab, _, hom in rows}
    # the F0 side is annihilated by the bimodule, the F1 side sees exactly one
    assert by_label["F0^1 F1^0 Ind(1)"] == 0
    assert by_label["T(1)"] == 1
    assert all(h <= 1 for h in by_label.values())


def test_a_hom_bound_over_one_is_named_by_its_label(monkeypatch):
    # dim Hom(L_2, T(2)) doubled: the bound check names T(2), and so does
    # the classification suite's failure line; T(2) is over the top ring,
    # so no F1 construction reads the doubled basis
    import ppmod.tower
    from ppmod.suites import suite_classification
    inner = ppmod.tower.hom_space
    monkeypatch.setattr(ppmod.tower, "hom_space", lambda src, tgt: (
        inner(src, tgt) * (2 if tgt.label == "T(2)" else 1)))
    rows, over = verify_hom_bounds(build_tower(2, 2, F2), dim_cap=10)
    assert over == ["T(2)"] and ("T(2)", 1, 2) in rows
    res = suite_classification(0)
    assert not res.passed
    assert res.lines[-1] == "failures\t[(2, 'hom bound', 'T(2)')] (1 total)"


def test_labels_are_pairwise_non_isomorphic(tw21, tw31):
    for tw in (tw21, tw31):
        labs = all_labels(tw, dim_cap=10)
        mods = [construct_label(tw, lab) for lab in labs]
        assert iso_classes(mods) == [[i] for i in range(len(mods))]
        # T(0) is Ind(1), so no label names it
        assert all(lab.base != ("T", 0) for lab in labs)
        for a in range(tw.height + 1):
            t0 = FpLabel(a, tw.height - a, ("T", 0))
            assert label_module(tw, t0, tw.height).action == construct_label(
                tw, FpLabel(a, tw.height - a, ("Ind", 1))).action


def test_the_left_regular_module_passes_the_top_certificate(tw32,
                                                            monkeypatch):
    # R_2 as a right module over R_2^op is projective, one e_v R_2 per
    # vertex
    import ppmod.realize
    from ppmod.modules import regular_module
    from ppmod.realize import bimodule_failures, realize_in_tower
    monkeypatch.setattr(ppmod.realize, "stage_bimodule",
                        lambda rt: regular_module(tw32.top.op))
    assert bimodule_failures(realize_in_tower(tw32, 2)) == ([1, 1, 1], [])


def test_f1_map_with_vanishing_target_homs(tw32):
    # F1 of a map into an F0-image: the target hom space vanishes, so the
    # hom block of the lifted map is empty but the functor still applies
    a0 = tw32.algebras[0]
    x = f1(tw32, 1, dvr_chain_module(a0, 2))
    y = f0(tw32, 1, dvr_chain_module(a0, 1))
    homs = hom_space(x, y)
    assert homs  # the socle-killing quotient lifts to the extension
    assert len(hom_space(tw32.bimodules[1], y)) == 0
    nz = next(h for h in homs if not h.mat.is_zero())
    lifted = f1_map(tw32, 2, nz)
    assert lifted.source.dim == x.dim + 1  # one hom coordinate added
    assert lifted.target.dim == y.dim      # none on the F0 side
    assert not lifted.mat.is_zero()


def test_f1_map_natural_embedding(tw31):
    a0 = tw31.algebras[0]
    v1 = dvr_chain_module(a0, 1)
    v2 = dvr_chain_module(a0, 2)
    inc = [h for h in hom_space(v1, v2) if h.is_injective()][0]
    up = f1_map(tw31, 1, inc)
    assert up.is_injective()
    eta1 = natural_embedding(tw31, 1, v1)
    eta2 = natural_embedding(tw31, 1, v2)
    lhs = eta1.then(up)
    rhs = ModuleMap(f0(tw31, 1, v1), f0(tw31, 1, v2), inc.mat).then(eta2)
    assert lhs.mat == rhs.mat  # naturality square commutes


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("h", [0, 1])
def test_label_module_inside_a_taller_tower(field, h):
    # equal-horizon towers share their algebra chains level by level
    tall, short = build_tower(3, 2, field), build_tower(3, h, field)
    labs = all_labels(short, dim_cap=8)
    assert len(labs) == (3 if h == 0 else 7)
    for lab in labs:
        assert label_module(tall, lab, h).action == \
            construct_label(short, lab).action


@pytest.mark.parametrize("m", [-1, 2])
def test_t_module_outside_tower_levels_raises(tw31, m):
    # T(2) indexed past algebras[1]; T(-1) silently read algebras[-1]
    with pytest.raises(ValueError, match="outside the tower levels"):
        t_module(tw31, m)
    with pytest.raises(ValueError, match="outside the tower levels"):
        construct_label(tw31, FpLabel(0, 0, ("T", m)))


def test_f1_map_computes_each_hom_space_once(tw31, solved_homs):
    # hom bases are shared by content, so a basis that a live module of
    # the same content already has is not solved at all
    a0 = tw31.algebras[0]
    v1, v2 = dvr_chain_module(a0, 1), dvr_chain_module(a0, 2)
    inc = [h for h in hom_space(v1, v2) if h.is_injective()][0]
    solved_homs.clear()
    up = f1_map(tw31, 1, inc)
    solved = len(solved_homs)
    assert solved <= 2   # Hom(L, source) and Hom(L, target)
    for got, x in ((up.source, v1), (up.target, v2)):
        assert got.action == f1(tw31, 1, x).action
    assert len(solved_homs) == solved   # f1 reads both from the records
    assert up.is_injective()



def f1_ladder_lines(tower):
    """F1 at level 1 of the chain inclusions and quotients of the ladder
    V/m^1 <-> V/m^2 <-> V/m^3: each map's f1_map matrix and the action
    matrices of the f1 of its source and target, rows separated by '/'."""
    from ppmod.realize import chain_inclusion, chain_quotient

    def text(mat):
        return "/".join("".join(str(c) for c in row) for row in mat.data)

    out = []
    for make in (chain_inclusion, chain_quotient):
        for j in (1, 2):
            fmap = make(tower.algebras[0], j)
            up = f1_map(tower, 1, fmap)
            out.append(f"{make.__name__}({j})\t{text(up.mat)}")
            for side, got, x in (("source", up.source, fmap.source),
                                 ("target", up.target, fmap.target)):
                actions = f1(tower, 1, x).action
                assert got.action == actions
                out.append(f"\t{side}\t" + " ".join(map(text, actions)))
    return out


def test_f1_of_the_ladder_maps_matches_the_recorded_matrices(tw31):
    # recorded when F1 kept its own cache of Hom bases beside hom_space's
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / "f1_tw31_ladder.txt"
    assert "\n".join(f1_ladder_lines(tw31)) + "\n" == golden.read_text()


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_each_ring_is_the_one_point_extension_of_the_one_below(field):
    # R_{i+1} = (R_i 0 / L_i k) block by block, for N <= 15 and h <= 3:
    # the rings of a tower of height 3 are those of the lower towers
    z, one = field.zero(), field.one()
    for N in range(1, 16):
        tower = build_tower(N, 3, field)
        dvr = tower.algebras[0]
        assert dvr.labels == ("1", "x", "x^2", "x^3", "x^4")[:N] + tuple(
            f"x^{i}" for i in range(5, N))
        assert dvr.name == f"k[x]/(x^{N})"
        for i, l_mod in enumerate(tower.bimodules[:3]):
            base, ext = tower.algebras[i], tower.algebras[i + 1]
            r, s = base.dim, l_mod.dim
            # R_1's labels are R_0's with 1 -> eps0: vertex 0's idempotent
            # is not the unit there
            assert ext.labels == ("eps0",) + base.labels[1:] + tuple(
                f"L{i}~{k}" for k in range(s)) + (f"eps{i + 1}",)
            assert ext.name == f"{base.name}[L{i}]"
            assert ext.unit == base.unit + (z,) * s + (one,)
            want = {}
            for a, b in itertools.product(range(r), repeat=2):
                want[a, b] = base.mul_el(base.basis_el(a),
                                         base.basis_el(b)) + (z,) * (s + 1)
            for k, b in itertools.product(range(s), range(r)):
                # L_i's basis times R_i is L_i's action
                want[r + k, b] = (z,) * r + l_mod.action[b].data[k] + (z,)
            for k in range(s + 1):
                # eps acts as the identity on L_i, and eps eps = eps
                want[r + s, r + k] = ext.basis_el(r + k)
            for a, b in itertools.product(range(ext.dim), repeat=2):
                got = ext.mul_el(ext.basis_el(a), ext.basis_el(b))
                assert got == want.get((a, b), ext.zero_el()), \
                    (N, i, ext.labels[a], ext.labels[b])
                assert all(type(c) is type(one) for c in got)


def test_tower_labels_and_names_are_fixed(tw32):
    assert tw32.top.labels == ("eps0", "x", "x^2", "L0~0", "eps1", "L1~0",
                               "L1~1", "eps2")
    assert [a.name for a in tw32.algebras] == [
        "k[x]/(x^3)", "k[x]/(x^3)[L0]", "k[x]/(x^3)[L0][L1]"]


def planted_tower(monkeypatch, edit):
    """build_tower(3, 2) with each ring's path list passed through edit."""
    import ppmod.tower
    real = ppmod.tower.monomial_algebra
    monkeypatch.setattr(ppmod.tower, "monomial_algebra",
                        lambda field, paths, name:
                        real(field, edit(list(paths)), name))
    return build_tower(3, 2, F2)


def replaced(label, *path):
    """An edit that lists path in place of the path named label."""
    return lambda paths: [(label, *path) if p[0] == label else p
                          for p in paths]


def test_a_reversed_word_is_refused(monkeypatch):
    # b1 b2 does not compose: neither b1 from vertex 2 nor b2 into vertex
    # 0 is a basis path
    with pytest.raises(ValueError, match="a subpath of L1~1 is not"):
        planted_tower(monkeypatch, replaced("L1~1", 2, 0, ("b1", "b2")))


@pytest.mark.parametrize("edit", [
    # a new arrow c: 2 -> 0 in place of b2 b1, so that b2 b1 = 0
    replaced("L1~1", 2, 0, ("c",)),
    # L1's basis listed in the other order (R2's last paths are L1~0,
    # L1~1, eps2)
    lambda paths: [{"L1~0": paths[-2], "L1~1": paths[-3]}.get(p[0], p)
                   for p in paths],
], ids=["new-arrow", "reordered"])
def test_a_ring_whose_bimodule_rows_differ_is_refused(monkeypatch, edit):
    # each planted R2 is a monomial algebra; only the certificate of its
    # L1 rows refuses it
    with pytest.raises(AssertionError, match="L1 does not act as in R2"):
        planted_tower(monkeypatch, edit)


def test_a_duplicated_path_is_refused(monkeypatch):
    with pytest.raises(ValueError, match="the path L0~0 is listed twice in "
                                         "k\\[x\\]/\\(x\\^3\\)\\[L0\\]"):
        planted_tower(monkeypatch, lambda paths: paths + [
            p for p in paths if p[0] == "L0~0"])


@pytest.mark.parametrize("label", ["eps0", "x", "x^2", "L0~0", "eps1",
                                   "L1~0", "L1~1", "eps2"])
def test_a_dropped_path_is_refused(monkeypatch, label):
    # by the subpath check, or, for a path that is no subpath of another,
    # by a module over the ring with one basis element too few
    with pytest.raises(ValueError):
        planted_tower(monkeypatch,
                      lambda paths: [p for p in paths if p[0] != label])
