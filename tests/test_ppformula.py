import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.fields import GF, QQ
from ppmod.algebra import truncated_dvr
from ppmod.linalg import (Matrix, Subspace, block, subspace_leq,
                          subspace_meet, subspace_sum)
from ppmod.modules import k_dual, presentation_of, hom_space, top_of
from ppmod.catalog import dvr_chain_module, dvr_universe, kronecker_preprojective
from ppmod.oracles import brute_eval_f2, subspace_int_set
from ppmod.ppformula import (PpFormula, PpPair, annihilator, bottom,
                             divisibility, dual, pp_meet, pp_sum,
                             pp_type_generator, pp_type_generator_of_element,
                             tautology)

F2 = GF(2)


@pytest.fixture(scope="module")
def d2():
    return truncated_dvr(2, F2)


@pytest.fixture(scope="module")
def d3():
    return truncated_dvr(3, F2)


def x_el(alg):
    return alg.el_from_label("x")


def entry(phi, v, e):
    """Entry (v, e) of phi's matrix: its cell, or zero."""
    return phi.cells.get((v, e), phi.algebra.zero_el())


def test_eval_tautology_is_everything(d2):
    m = dvr_chain_module(d2, 2)
    t = tautology(d2)
    assert t.evaluate(m).dim == m.dim


def test_eval_annihilator_derived(d2):
    # oracle: enumerate all 4 elements of the regular module of k[x]/(x^2)
    m = dvr_chain_module(d2, 2)
    phi = annihilator(d2, x_el(d2))
    expected = brute_eval_f2(phi, m)
    got = phi.evaluate(m)
    assert subspace_int_set(got) == expected
    assert got.dim == 1  # span of the socle element


def test_eval_divisibility_derived(d2):
    # oracle: enumerate witnesses y
    m = dvr_chain_module(d2, 2)
    phi = divisibility(d2, x_el(d2))
    expected = brute_eval_f2(phi, m)
    got = phi.evaluate(m)
    assert subspace_int_set(got) == expected
    assert got.dim == 1


def test_divisibility_of_unit_is_tautology(d2):
    phi = divisibility(d2, d2.unit)
    t = tautology(d2)
    assert phi.implies(t) and t.implies(phi)


def test_annihilator_of_zero_is_tautology(d2):
    phi = annihilator(d2, d2.zero_el())
    t = tautology(d2)
    assert phi.implies(t) and t.implies(phi)


def test_div_implies_ann_at_truncation(d2):
    # x^2 = 0 forces x | m -> m x = 0, on every module of dim <= 3
    div = divisibility(d2, x_el(d2))
    ann = annihilator(d2, x_el(d2))
    assert div.implies(ann)
    assert not ann.implies(div)
    for m in dvr_universe(d2, 3):
        assert subspace_leq(div.evaluate(m), ann.evaluate(m))


def test_sum_meet_match_subspace_lattice(d3):
    div_x = divisibility(d3, x_el(d3))
    ann_x = annihilator(d3, x_el(d3))
    s = pp_sum(div_x, ann_x)
    w = pp_meet(div_x, ann_x)
    for m in dvr_universe(d3, 4):
        ed, ea = div_x.evaluate(m), ann_x.evaluate(m)
        assert s.evaluate(m) == subspace_sum(ed, ea)
        assert w.evaluate(m) == subspace_meet(ed, ea)


def test_sum_meet_idempotent_up_to_equivalence(d3):
    phi = divisibility(d3, x_el(d3))
    assert pp_sum(phi, phi).equivalent(phi)
    assert pp_meet(phi, phi).equivalent(phi)
    assert pp_meet(phi, tautology(d3)).equivalent(phi)


def test_implies_soundness_on_universe(d3):
    formulas = [tautology(d3), bottom(d3), divisibility(d3, x_el(d3)),
                annihilator(d3, x_el(d3)),
                divisibility(d3, d3.el_from_label("x^2")),
                annihilator(d3, d3.el_from_label("x^2"))]
    universe = dvr_universe(d3, 4)
    for phi, psi in itertools.product(formulas, repeat=2):
        if phi.implies(psi):
            for m in universe:
                assert subspace_leq(phi.evaluate(m), psi.evaluate(m))


def test_endomorphism_invariance(d3):
    # pp-definable subgroups are stable under every endomorphism
    from ppmod.linalg import Matrix, Subspace
    phi = pp_sum(divisibility(d3, x_el(d3)), annihilator(d3, d3.el_from_label("x^2")))
    for m in dvr_universe(d3, 4):
        val = phi.evaluate(m)
        for f in hom_space(m, m):
            img = Subspace.from_matrix(val.basis * f.mat)
            assert subspace_leq(img, val)


def test_free_realization_of_divisibility(d2):
    phi = divisibility(d2, x_el(d2))
    fr = phi.free_realization()
    # the realization is k[x]/(x^2) with distinguished element x
    assert fr.module.dim == 2
    gen = pp_type_generator_of_element(fr.module, fr.row.data[0])
    assert gen.equivalent(phi)


def test_free_realization_of_bottom(d2):
    phi = bottom(d2)
    fr = phi.free_realization()
    assert all(c == F2.zero() for c in fr.row.data[0])
    assert phi.implies(annihilator(d2, x_el(d2)))  # bottom implies everything
    assert phi.implies(divisibility(d2, x_el(d2)))


def test_free_realization_of_tautology_is_free(d2):
    phi = tautology(d2)
    fr = phi.free_realization()
    assert fr.module.dim == d2.dim  # the free module of rank 1


def test_pp_type_generator_of_regular_generator(d2):
    # generator tuple of the cyclic free module: formula equivalent to x H = 0
    m = dvr_chain_module(d2, 2)
    g = top_of(m)[1][0]
    gen = pp_type_generator(m, (g,))
    assert gen.equivalent(tautology(d2))


def test_pp_type_generator_examples(d2):
    m = dvr_chain_module(d2, 2)
    # the element x generates the same pp-type as x | x1
    socle = (F2.zero(), F2.one())
    gen = pp_type_generator_of_element(m, socle)
    assert gen.equivalent(divisibility(d2, x_el(d2)))
    # the generator of V/m has pp-type x1 x = 0
    v1 = dvr_chain_module(d2, 1)
    gen1 = pp_type_generator_of_element(v1, (F2.one(),))
    assert gen1.equivalent(annihilator(d2, x_el(d2)))


def test_pp_pair_validation(d2):
    div = divisibility(d2, x_el(d2))
    ann = annihilator(d2, x_el(d2))
    PpPair(upper=ann, lower=div)  # div <= ann holds
    with pytest.raises(ValueError):
        PpPair(upper=div, lower=ann)


# -- duality ------------------------------------------------------------------


def test_dual_swaps_div_and_ann(d3):
    for lab in ("x", "x^2"):
        a = d3.el_from_label(lab)
        d_ann = dual(annihilator(d3, a))
        assert d_ann.algebra is d3.op
        assert d_ann.equivalent(divisibility(d3.op, a))
        d_div = dual(divisibility(d3, a))
        assert d_div.equivalent(annihilator(d3.op, a))


def test_dual_of_tautology_is_bottom(d2):
    # the left bottom is "d2.unit x1 = 0", the left tautology has no condition
    d_t = dual(tautology(d2))
    assert d_t.equivalent(annihilator(d2.op, d2.unit))
    d_b = dual(bottom(d2))
    assert d_b.equivalent(PpFormula(d2.op, 1, [[]]))


def test_double_dual_is_identity_up_to_equivalence(d3):
    phi = divisibility(d3, x_el(d3))
    dd = dual(dual(phi))
    assert dd.algebra is d3
    assert dd.equivalent(phi)


def test_dual_antitone_on_implication(d3):
    div = divisibility(d3, x_el(d3))
    ann = annihilator(d3, d3.el_from_label("x^2"))
    assert div.implies(ann)
    assert dual(ann).implies(dual(div))


def test_dual_exchanges_sum_and_meet(d3):
    phi = divisibility(d3, x_el(d3))
    psi = annihilator(d3, x_el(d3))
    assert dual(pp_sum(phi, psi)).equivalent(pp_meet(dual(phi), dual(psi)))
    assert dual(pp_meet(phi, psi)).equivalent(pp_sum(dual(phi), dual(psi)))


def test_annihilator_dimension_identity(d3):
    # dim phi(M) + dim (D phi)(M*) = n dim M, cross-checked against the
    # enumeration oracle first
    mods = dvr_universe(d3, 3)
    forms = [divisibility(d3, x_el(d3)), annihilator(d3, x_el(d3)),
             pp_sum(divisibility(d3, d3.el_from_label("x^2")),
                    annihilator(d3, x_el(d3)))]
    for phi in forms:
        dphi = dual(phi)
        for m in mods:
            val = phi.evaluate(m)
            assert subspace_int_set(val) == brute_eval_f2(phi, m)
            dval = dphi.evaluate(k_dual(m))
            assert subspace_int_set(dval) == brute_eval_f2(dphi, k_dual(m))
            assert val.dim + dval.dim == phi.n * m.dim


def test_kdual_inclusion_reversal(d3):
    # if phi(M) <= psi(M) then D psi(M*) <= D phi(M*)
    forms = [divisibility(d3, x_el(d3)), annihilator(d3, x_el(d3)),
             tautology(d3), bottom(d3),
             divisibility(d3, d3.el_from_label("x^2"))]
    for m in dvr_universe(d3, 3):
        md = k_dual(m)
        for phi, psi in itertools.product(forms, repeat=2):
            if subspace_leq(phi.evaluate(m), psi.evaluate(m)):
                assert subspace_leq(dual(psi).evaluate(md),
                                    dual(phi).evaluate(md))


def test_pp_type_generator_generates(d3):
    # the generator of the pp-type of a is satisfied by a and implies every
    # corpus formula that a satisfies
    import random
    rng = random.Random(9)
    corpus = [tautology(d3), bottom(d3), divisibility(d3, x_el(d3)),
              annihilator(d3, x_el(d3)),
              divisibility(d3, d3.el_from_label("x^2")),
              annihilator(d3, d3.el_from_label("x^2"))]
    for m in dvr_universe(d3, 4):
        for _ in range(3):
            a = tuple(rng.randint(0, 1) for _ in range(m.dim))
            gen = pp_type_generator_of_element(m, a)
            assert gen.evaluate(m).contains_vector(list(a))
            for psi in corpus:
                if psi.evaluate(m).contains_vector(list(a)):
                    assert gen.implies(psi)


def test_two_variable_formula_against_oracle(d2):
    # n = 2: x1 x = 0 and x | x2, jointly
    x = x_el(d2)
    phi = PpFormula(d2, 2, [[x, d2.zero_el()],
                            [d2.zero_el(), d2.unit],
                            [d2.zero_el(), d2.neg_el(x)]])
    for m in dvr_universe(d2, 3):
        assert subspace_int_set(phi.evaluate(m)) == brute_eval_f2(phi, m)


def test_kronecker_divisibility_projectives(kron):
    # pp-type of the generator image under each irreducible embedding
    p2 = kronecker_preprojective(kron, 0)
    p1 = kronecker_preprojective(kron, 1)
    e2 = kron.el_from_label("e2")
    div_a = divisibility(kron, kron.el_from_label("a"))
    div_e2 = divisibility(kron, e2)
    gen = pp_type_generator_of_element(p2, (F2.one(),))
    assert gen.equivalent(div_e2)
    # image of the generator under the a-embedding: coordinate layout of
    # PP(1) is (vertex-1 | vertex-2, vertex-2) with a hitting the first
    # vertex-2 coordinate
    gen_img = pp_type_generator_of_element(p1, (0, 1, 0))
    assert gen_img.equivalent(div_a)


def test_evaluate_matches_witness_enumeration_over_gf3():
    # every module of dimension <= 2 over k[x]/(x^2) and the Kronecker
    # algebra, with GF(3) coefficients: the right formulas on the module,
    # their duals on its k-dual
    from ppmod.algebra import kronecker_algebra
    from ppmod.catalog import kronecker_universe
    from ppmod.linalg import Matrix, span_elements
    from reference import brute_eval
    f3 = GF(3)

    def vectors(s):
        rows = [s.basis.take_rows((i,)) for i in range(s.dim)]
        return {x.data[0] for _, x in
                span_elements(rows, Matrix.zero(f3, 1, s.ambient))}

    dvr, kron = truncated_dvr(2, f3), kronecker_algebra(f3)
    for alg, mods in ((dvr, dvr_universe(dvr, 2)),
                      (kron, kronecker_universe(kron, 2))):
        els = [alg.basis_el(i) for i in range(alg.dim)]
        two = alg.neg_el(alg.unit)  # -1 = 2 in GF(3)
        forms = [tautology(alg), bottom(alg),
                 pp_sum(divisibility(alg, els[-1]), annihilator(alg, els[1])),
                 pp_meet(divisibility(alg, els[1]), annihilator(alg, two)),
                 PpFormula(alg, 2, [[els[1], alg.zero_el()],
                                    [alg.zero_el(), alg.unit],
                                    [alg.zero_el(), two]]),
                 # x1 + x2 = 0 and x1 a + x2 = 0 tie free coordinates
                 PpFormula(alg, 2, [[alg.unit], [alg.unit]]),
                 PpFormula(alg, 2, [[els[1]], [alg.unit]])]
        forms += [g(alg, a) for a in els for g in (divisibility, annihilator)]
        for m in mods:
            assert m.dim <= 2
            for phi in forms:
                assert vectors(phi.evaluate(m)) == brute_eval(phi, m)
                dphi, md = dual(phi), k_dual(m)
                assert vectors(dphi.evaluate(md)) == brute_eval(dphi, md)


def test_packed_oracle_matches_generic_oracle(d3, kron):
    # two independently written witness enumerations, and the evaluator:
    # every module of dim <= 3 over k[x]/(x^3) and the Kronecker algebra
    # against a seeded corpus with l <= 3 witnesses and m <= 3 equations
    import random
    from ppmod.catalog import kronecker_universe
    from reference import brute_eval
    from ppmod.suites import formula_corpus

    def packed(xs):
        return {sum(c << i for i, c in enumerate(x)) for x in xs}

    for alg, mods in ((d3, dvr_universe(d3, 3)),
                      (kron, kronecker_universe(kron, 3))):
        corpus = formula_corpus(alg, 24, random.Random(0))
        assert max(phi.l for phi in corpus) == 3
        assert max(phi.m for phi in corpus) == 3
        for m in mods:
            assert m.dim <= 3
            for phi in corpus:
                fast = brute_eval_f2(phi, m)
                assert fast == packed(brute_eval(phi, m))
                assert fast == subspace_int_set(phi.evaluate(m))


def test_packed_oracle_with_dependent_witness_deltas(d3, kron):
    # repeated and zero witness rows give repeated and zero deltas, which
    # the doubling of the witness images must skip without losing an image
    from ppmod.catalog import kronecker_universe
    from reference import brute_eval

    def packed(xs):
        return {sum(c << i for i, c in enumerate(x)) for x in xs}

    for alg, mods in ((d3, dvr_universe(d3, 3)),
                      (kron, kronecker_universe(kron, 3))):
        a, b = alg.basis_el(alg.dim - 1), alg.basis_el(1)
        zero = alg.zero_el()
        y = [b, alg.unit]
        # a dependent delta before an independent one in each
        forms = [PpFormula(alg, 1, [[a, zero], [zero, zero], y, y]),
                 PpFormula(alg, 1, [[alg.unit, a], y, y, [a, b]])]
        for m in mods:
            for phi in forms:
                fast = brute_eval_f2(phi, m)
                assert fast == packed(brute_eval(phi, m))
                assert fast == subspace_int_set(phi.evaluate(m))


def implies_by_system(phi, psi):
    """The reference implication, which evaluates nothing: the tuple x of
    the free realization C of phi lies in psi(C) iff some y has
    x S_x = -y S_y, for S_x and S_y the x- and y-bands of psi's system on
    C (with no condition, always)."""
    if psi.m == 0:
        return True
    fr = phi.free_realization()
    c = fr.module
    d, nvars, k = c.dim, psi.n + psi.l, psi.n * c.dim
    system = block(c.algebra.field, [d] * nvars, [d] * psi.m,
                   {(v, e): c.act(entry(psi, v, e))
                    for v in range(nvars) for e in range(psi.m)})
    xs = fr.row * system.take_rows(range(k))
    ys = Subspace.from_matrix(system.take_rows(range(k, system.rows)))
    return ys.contains_vector(xs.data[0])


def edge_formulas(alg):
    """Formulas with no condition, or with no bound variable."""
    x = x_el(alg) if "x" in alg.labels else alg.basis_el(alg.dim - 1)
    return [tautology(alg),
            PpFormula(alg, 1, [[], [], []]),      # m = 0, l > 0
            bottom(alg),
            PpFormula(alg, 1, [[x, alg.unit]]),   # l = 0, m = 2
            annihilator(alg, alg.unit)]


@pytest.mark.parametrize("p", [2, 3])
def test_implies_matches_membership_in_the_evaluated_value(p):
    # every ordered pair of a seeded corpus over k[x]/(x^3) and the
    # Kronecker algebra, with the m = 0 and l = 0 shapes among them
    import random
    from ppmod.algebra import kronecker_algebra
    from ppmod.suites import formula_corpus
    f = GF(p)
    for alg in (truncated_dvr(3, f), kronecker_algebra(f)):
        corpus = formula_corpus(alg, 15, random.Random(0)) + \
            edge_formulas(alg)
        verdicts = set()
        for phi, psi in itertools.product(corpus, repeat=2):
            got = phi.implies(psi)
            assert got == implies_by_system(phi, psi)
            verdicts.add((got, psi.m == 0, psi.l == 0))
        assert {(True, False, False), (False, False, False),
                (True, False, True), (False, False, True),
                (True, True, False)} <= verdicts


def test_implies_matches_membership_over_the_rationals():
    from fractions import Fraction
    from ppmod.fields import QQ
    alg = truncated_dvr(3, QQ)
    x, x2 = alg.basis_el(1), alg.basis_el(2)
    half = alg.smul_el(Fraction(1, 2), x)
    mixed = alg.add_el(alg.scalar_el(Fraction(-2, 3)), x2)
    base = edge_formulas(alg) + [
        divisibility(alg, x), divisibility(alg, x2), annihilator(alg, x2),
        annihilator(alg, half), divisibility(alg, mixed),
        PpFormula(alg, 1, [[half, x2], [x, mixed]])]
    corpus = base + [pp_sum(base[6], base[8]), pp_meet(base[5], base[9])]
    verdicts = set()
    for phi, psi in itertools.product(corpus, repeat=2):
        got = phi.implies(psi)
        assert got == implies_by_system(phi, psi)
        verdicts.add(got)
    assert verdicts == {True, False}


def rational_corpus(alg):
    """Hand-built formulas over alg at QQ, with entries that are not
    integers, beside the named ones."""
    from fractions import Fraction
    b = alg.basis_el(alg.dim - 1)
    half = alg.smul_el(Fraction(1, 2), b)
    mixed = alg.add_el(alg.scalar_el(Fraction(-2, 3)), b)
    return [tautology(alg), bottom(alg), divisibility(alg, b),
            annihilator(alg, b), annihilator(alg, half),
            divisibility(alg, mixed),
            PpFormula(alg, 1, [[half, b], [alg.basis_el(1), mixed]]),
            PpFormula(alg, 1, [[b], [half], [mixed]])]


def equivalent_pairs(alg, corpus):
    """(phi, D(D(phi))) for each formula of the corpus, and
    (D(phi + psi), D(phi) ^ D(psi)) for each ordered pair of it."""
    return [(phi, dual(dual(phi))) for phi in corpus] + [
        (dual(pp_sum(phi, psi)), pp_meet(dual(phi), dual(psi)))
        for phi, psi in itertools.product(corpus, repeat=2)]


@pytest.mark.parametrize("p", [2, 3, None], ids=["gf2", "gf3", "qq"])
def test_a_shared_reduced_formula_implies_without_solving(p, monkeypatch):
    # formulas that share their reduced formula imply each other by
    # reflexivity, with no realization built and no system solved; the
    # membership test this skips, made on the unreduced phi's own
    # realization, gives the same verdict on every pair
    import random
    import ppmod.ppformula
    from ppmod.algebra import kronecker_algebra
    from ppmod.fields import QQ
    from ppmod.suites import formula_corpus
    f = QQ if p is None else GF(p)
    pairs = []
    for alg in (truncated_dvr(3, f), kronecker_algebra(f)):
        corpus = rational_corpus(alg) if p is None else \
            formula_corpus(alg, 10, random.Random(0))
        pairs += equivalent_pairs(alg, corpus)
    shared = [(phi, psi) for phi, psi in pairs
              if phi.reduced() is psi.reduced()]
    assert 0 < len(shared) < len(pairs)

    def refused(*args):
        raise AssertionError("a shared reduced formula was solved")

    with monkeypatch.context() as patched:
        for name in ("quotient_module", "projected_kernel", "hom_space"):
            patched.setattr(ppmod.ppformula, name, refused)
        for phi, psi in shared:
            assert phi.implies(psi) and psi.implies(phi)
    for phi, psi in pairs:
        assert phi.implies(psi) == implies_by_system(phi, psi) is True
        assert psi.implies(phi) == implies_by_system(psi, phi) is True


def test_repeated_implication_computes_no_evaluation(monkeypatch):
    # an implication reads the value kept on the implied formula, so a
    # second pass over the same pairs solves nothing
    import random
    import ppmod.ppformula
    from ppmod.suites import formula_corpus
    alg = truncated_dvr(3, F2)
    corpus = formula_corpus(alg, 15, random.Random(0)) + edge_formulas(alg)
    pairs = list(itertools.product(corpus, repeat=2))
    first = [phi.implies(psi) for phi, psi in pairs]

    def refused(*args):
        raise AssertionError("a value was computed again")

    monkeypatch.setattr(ppmod.ppformula, "projected_kernel", refused)
    monkeypatch.setattr(ppmod.ppformula, "hom_space", refused)
    assert [phi.implies(psi) for phi, psi in pairs] == first


def test_k_dual_suite_builds_each_dual_once(monkeypatch):
    # 15 corpus formulas over each of the two algebras
    import ppmod.suites
    calls = []

    def counted(phi):
        calls.append(phi)
        return dual(phi)

    monkeypatch.setattr(ppmod.suites, "dual", counted)
    res = ppmod.suites.suite_k_dual(0)
    assert res.passed
    assert len(calls) == len({id(phi) for phi in calls}) == 30
    assert res.lines[0].startswith("triples\t2730 ")


def test_duality_suite_builds_each_formula_once(monkeypatch):
    # a dual per formula object, a sum and a meet per pair of them; the
    # calls list keeps every argument alive, so no id is reused
    import ppmod.suites
    calls = {"dual": [], "pp_sum": [], "pp_meet": []}
    for name, fn in (("dual", dual), ("pp_sum", pp_sum), ("pp_meet", pp_meet)):
        def counted(*args, _calls=calls[name], _fn=fn):
            _calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(ppmod.suites, name, counted)
    res = ppmod.suites.suite_duality(0)
    assert res.passed
    assert res.lines[0].startswith("pairs\t200 sampled pairs")
    for name, args in calls.items():
        keys = [tuple(map(id, a)) for a in args]
        assert len(keys) == len(set(keys)), name
    # 25 corpus formulas and their double duals over each algebra
    assert len(calls["dual"]) > 100


def test_radical_suite_evaluates_each_generator_once_per_module(monkeypatch):
    # every formula of the suite is a pp-type generator, evaluated as the
    # images of its tuple under one Hom basis; the lists keep every
    # formula and module alive, so no id is reused
    import ppmod.ppformula
    import ppmod.suites
    asked, computed = [], []
    evaluate, homs = PpFormula.evaluate, ppmod.ppformula.hom_space

    def requested(phi, module):
        asked.append((phi, module))
        return evaluate(phi, module)

    def computing(c, module):
        computed.append((c, module))
        return homs(c, module)

    monkeypatch.setattr(PpFormula, "evaluate", requested)
    monkeypatch.setattr(ppmod.ppformula, "hom_space", computing)
    res = ppmod.suites.suite_radical(0)
    assert res.passed
    assert len({(id(a), id(b)) for a, b in asked}) == len(computed) == 202


# -- formulas from cells against the hand-filled grids ------------------------


def grid_pp_sum(phi, psi):
    """The reference join, its matrix filled in entry by entry."""
    alg, n = phi.algebra, phi.n
    z, u = alg.zero_el(), alg.unit
    nu = alg.neg_el(u)
    lphi, lpsi, mphi, mpsi = phi.l, psi.l, phi.m, psi.m
    rows = [[z] * (n + mphi + mpsi) for _ in range(3 * n + lphi + lpsi)]
    for i in range(n):
        rows[i][i] = u
        rows[n + i][i] = nu
        rows[2 * n + i][i] = nu
    for v in range(n):
        for e in range(mphi):
            rows[n + v][n + e] = entry(phi, v, e)
        for e in range(mpsi):
            rows[2 * n + v][n + mphi + e] = entry(psi, v, e)
    for v in range(lphi):
        for e in range(mphi):
            rows[3 * n + v][n + e] = entry(phi, n + v, e)
    for v in range(lpsi):
        for e in range(mpsi):
            rows[3 * n + lphi + v][n + mphi + e] = entry(psi, n + v, e)
    return PpFormula(alg, n, rows)


def grid_pp_meet(phi, psi):
    """The reference meet, its matrix filled in entry by entry."""
    n, lphi, lpsi, mphi, mpsi = phi.n, phi.l, psi.l, phi.m, psi.m
    rows = [[phi.algebra.zero_el()] * (mphi + mpsi)
            for _ in range(n + lphi + lpsi)]
    for v in range(n):
        for e in range(mphi):
            rows[v][e] = entry(phi, v, e)
        for e in range(mpsi):
            rows[v][mphi + e] = entry(psi, v, e)
    for v in range(lphi):
        for e in range(mphi):
            rows[n + v][e] = entry(phi, n + v, e)
    for v in range(lpsi):
        for e in range(mpsi):
            rows[n + lphi + v][mphi + e] = entry(psi, n + v, e)
    return PpFormula(phi.algebra, n, rows)


def grid_dual(phi):
    """The reference dual, its matrix filled in entry by entry."""
    alg, n, l, m = phi.algebra, phi.n, phi.l, phi.m
    rows = [[alg.zero_el()] * (n + l) for _ in range(n + m)]
    for i in range(n):
        rows[i][i] = alg.unit
    for j in range(m):
        for v in range(n + l):
            rows[n + j][v] = entry(phi, v, j)
    return PpFormula(alg.op, n, rows)


def grid_pp_type_generator(pres, tup):
    """The reference pp-type generator, its matrix filled in entry by
    entry."""
    alg, n, s = pres.algebra, len(tup), pres.ngens
    exprs = [pres.express(comp) for comp in tup]
    rows = [[alg.zero_el()] * (n + len(pres.relations))
            for _ in range(n + s)]
    for i in range(n):
        rows[i][i] = alg.unit
    for g in range(s):
        for i in range(n):
            rows[n + g][i] = alg.neg_el(exprs[i][g])
        for e, rel in enumerate(pres.relations):
            rows[n + g][n + e] = rel[g]
    return PpFormula(alg, n, rows)


def grid_kronecker_step_formula(alg, t):
    """The reference t-th Kronecker step formula for t >= 1."""
    z, a = alg.zero_el(), alg.el_from_label("a")
    b = alg.el_from_label("b")
    rows = [[z] * t for _ in range(1 + t)]
    rows[0][0] = alg.unit
    rows[1][0] = alg.neg_el(a)
    for i in range(2, t + 1):
        rows[i - 1][i - 1] = b
        rows[i][i - 1] = alg.neg_el(a)
    return pp_sum(PpFormula(alg, 1, rows), divisibility(alg, b))


def realization_by_presentation(phi):
    """The reference free realization: the relations flattened into
    A^(n+l), the quotient by the submodule they generate, and each free
    generator's image packed and projected on its own.  Returns the
    module and the tuple's coordinates, component by component."""
    from ppmod.modules import _module_span, free_module, quotient_module
    alg = phi.algebra
    f, nvars = alg.field, phi.n + phi.l
    free = free_module(alg, nvars)
    flat = []
    for e in range(phi.m):
        v = []
        for comp in (entry(phi, var, e) for var in range(nvars)):
            v.extend(comp)
        flat.append(v)
    module, proj = quotient_module(free, _module_span(free, flat))
    tup = []
    for i in range(phi.n):
        v = [f.zero()] * free.dim
        for t, c in enumerate(alg.unit):
            v[i * alg.dim + t] = c
        tup.extend(proj(v))
    return module, tuple(tup)


def shape_corpus(alg, rng):
    """Seeded right formulas of every shape n <= 2, l <= 2, m <= 3, the
    m = 0 and l = 0 shapes among them, with entries from a few scalars."""
    f = alg.field
    scalars = list(f.elements()) if f.p is not None else \
        [f.of(v) for v in (-1, 0, 1, 2)] + [f.one() / 2, -f.one() * 2 / 3]
    out = []
    for n, l, m in itertools.product((1, 2), range(3), range(4)):
        rows = [[tuple(rng.choice(scalars) if rng.random() < 0.5 else f.zero()
                       for _ in range(alg.dim)) for _ in range(m)]
                for _ in range(n + l)]
        out.append(PpFormula(alg, n, rows))
    return out


def cell_algebras():
    from ppmod.algebra import kronecker_algebra
    from ppmod.fields import QQ
    return [alg for f in (GF(2), GF(3), QQ)
            for alg in (truncated_dvr(3, f), kronecker_algebra(f))]


CELL_IDS = [f"{a}-{f}" for f in ("gf2", "gf3", "qq") for a in ("dvr3", "kron")]


@pytest.mark.parametrize("alg", cell_algebras(), ids=CELL_IDS)
def test_cell_constructions_match_the_grids(alg):
    # right formulas, their duals (left) and the double duals, every pair
    # of one side through sum and meet
    import random
    rng = random.Random(5)
    right = shape_corpus(alg, rng)
    left = [dual(phi) for phi in right]
    assert {phi.algebra for phi in left} == {alg.op}
    assert {(phi.m == 0, phi.l == 0) for phi in right + left} == {
        (True, True), (True, False), (False, True), (False, False)}
    for phi in right + left:
        assert content(dual(phi)) == content(grid_dual(phi))
        assert dual(phi).algebra is grid_dual(phi).algebra
    for corpus in (right, left):
        same_n = [(a, b) for a, b in itertools.product(corpus, repeat=2)
                  if a.n == b.n]
        for a, b in rng.sample(same_n, 60):
            for got, want in ((pp_sum(a, b), grid_pp_sum(a, b)),
                              (pp_meet(a, b), grid_pp_meet(a, b))):
                assert (got.algebra, *content(got)) == \
                    (want.algebra, *content(want))


@pytest.mark.parametrize("alg", cell_algebras(), ids=CELL_IDS)
def test_free_realization_matches_the_presentation_route(alg):
    import random
    rng = random.Random(6)
    right = shape_corpus(alg, rng)
    corpus = right + [dual(phi) for phi in right] + edge_formulas(alg)
    # sums and meets of n = 1 (the first 12) and of n = 2 formulas
    corpus += [pp_sum(right[5], right[9]), pp_meet(right[7], right[11]),
               pp_sum(right[13], right[22]), pp_meet(right[23], right[14])]
    for phi in corpus:
        fr = phi.free_realization()
        module, tup = realization_by_presentation(phi)
        assert fr.module.algebra is module.algebra is phi.algebra
        assert fr.module.dim == module.dim
        assert fr.module.action == module.action
        assert (fr.row.rows, fr.row.cols) == (1, phi.n * module.dim)
        assert fr.row.data[0] == tup


@pytest.mark.parametrize("alg", cell_algebras(), ids=CELL_IDS)
def test_pp_type_generator_matches_the_grid(alg):
    from ppmod.catalog import dvr_universe, kronecker_universe
    mods = dvr_universe(alg, 3) if "x" in alg.labels else \
        kronecker_universe(alg, 3)
    for m in mods:
        pres = presentation_of(m)
        gens = top_of(m)[1]
        tuples = [(g,) for g in gens] + [tuple(gens)] + \
            [(tuple(m.act(alg.basis_el(i)).data[0]),) for i in range(alg.dim)]
        for tup in tuples:
            got = pp_type_generator(m, tup)
            assert content(got) == \
                content(grid_pp_type_generator(pres, tup))
            assert (got.n, got.l) == (len(tup), pres.ngens)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_generators_on_the_top_and_on_the_greedy_presentation_agree(field):
    # the matrix the new presentation gives a pp-type generator, read as a
    # plain formula, against the grid matrix of the greedy presentation
    from reference import greedy_presentation
    from test_modules import random_quotients, top_corpus
    for m in top_corpus(field)[1::2] + random_quotients(field, 4):
        old = greedy_presentation(m)
        gens = top_of(m)[1]
        last = Matrix.identity(field, m.dim).data[-1]
        for tup in ((gens[0],), tuple(gens[:2]), (last,)):
            got = pp_type_generator(m, tup)
            plain = PpFormula.from_cells(m.algebra, got.n, got.l, got.m,
                                         got.cells)
            assert plain.equivalent(grid_pp_type_generator(old, tup))
            assert plain.equivalent(got)


@pytest.mark.parametrize("p", [2, 3])
def test_kronecker_step_formula_matches_the_grid(p):
    from ppmod.algebra import kronecker_algebra
    from ppmod.catalog import kronecker_step_formula
    alg = kronecker_algebra(GF(p))
    for t in range(1, 6):
        assert content(kronecker_step_formula(alg, t)) == \
            content(grid_kronecker_step_formula(alg, t))


def test_from_cells_fills_zeros_and_refuses_cells_outside(d2):
    x, z = x_el(d2), d2.zero_el()
    phi = PpFormula.from_cells(d2, 1, 1, 2, {(0, 1): x, (1, 0): x,
                                             (0, 0): z})
    assert content(phi) == (1, 1, 2, {(0, 1): x, (1, 0): x})
    assert [[entry(phi, v, e) for e in range(2)] for v in range(2)] == \
        [[z, x], [x, z]]
    assert content(PpFormula.from_cells(d2.op, 2, 0, 0, {})) == \
        (2, 0, 0, {})
    for cell in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            PpFormula.from_cells(d2, 1, 1, 2, {cell: x})


def test_presentation_is_made_once_per_module(d2):
    m = dvr_chain_module(d2, 2)
    assert presentation_of(m) is presentation_of(m)
    assert presentation_of(dvr_chain_module(d2, 2)) is not presentation_of(m)


# -- the Hom route of generator formulas --------------------------------------


def system_copy(phi):
    """The same formula built from its matrix alone, so it is evaluated by
    eliminating its system."""
    return PpFormula.from_cells(phi.algebra, phi.n, phi.l, phi.m, phi.cells)


def route_mismatches(forms, universe):
    """The formulas whose value through Hom differs from the system
    route's on some universe module, or whose implication verdicts, from
    either side, differ from the system copy's."""
    bad = []
    refs = [system_copy(phi) for phi in forms]
    for phi, ref in zip(forms, refs):
        if any(phi.evaluate(m) != ref.evaluate(m) for m in universe):
            bad.append(phi)
            continue
        if any(phi.implies(psi) != ref.implies(psi) or
               psi.implies(phi) != psi.implies(ref) for psi in refs):
            bad.append(phi)
    return bad


def theta_formulas(universe):
    from ppmod.probes import theta_pool
    return list({id(phi): phi for _, phi in theta_pool(universe)}.values())


def short_probes_universe():
    from ppmod.realize import realize_in_tower
    from ppmod.tower import build_tower
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    return [rt.modules[(0, l, j)] for l in (0, 1) for j in range(1, 5)]


def probe_kronecker_universe(field):
    from ppmod.algebra import kronecker_algebra
    alg = kronecker_algebra(field)
    return [kronecker_preprojective(alg, i) for i in range(5)]


def test_hom_route_matches_the_system_route_on_the_short_probes_universe():
    universe = short_probes_universe()
    forms = theta_formulas(universe)
    assert all(phi._by_hom for phi in forms)
    assert route_mismatches(forms, universe) == []


@pytest.mark.parametrize("field", ["2", "3", "rational"])
def test_hom_route_matches_the_system_route_on_probe_kronecker(field):
    from ppmod.fields import field_from_spec
    universe = probe_kronecker_universe(field_from_spec(field))
    forms = theta_formulas(universe)
    assert all(phi._by_hom for phi in forms)
    assert route_mismatches(forms, universe) == []


def test_a_swapped_tuple_fails_the_route_check():
    # each generator formula with its tuple swapped for the next distinct
    # element of the same module among the pool's: wherever the two
    # elements' pp-types differ on the universe, the check must flag it
    universe = probe_kronecker_universe(GF(3))
    forms = theta_formulas(universe)
    flagged = 0
    for phi in forms:
        fr = phi.free_realization()
        other = next((psi.free_realization().row for psi in forms
                      if psi.free_realization().module is fr.module
                      and psi.free_realization().row != fr.row), None)
        if other is None:
            continue
        # the generator of the other element with phi's matrix: its value
        # comes through Hom from its realization, its system copy's from
        # the matrix
        mutant = pp_type_generator_of_element(fr.module, other.data[0])
        mutant.l, mutant.m, mutant.cells = phi.l, phi.m, phi.cells
        swapped = system_copy(
            pp_type_generator_of_element(fr.module, other.data[0]))
        differs = any(system_copy(phi).evaluate(m) != swapped.evaluate(m)
                      for m in universe)
        assert (route_mismatches([mutant], universe) != []) == differs
        flagged += differs
    assert flagged >= 10


def matrix_built(phi):
    """Whether the formula's cells slot is set, read past __getattr__."""
    try:
        PpFormula.cells.__get__(phi)
    except AttributeError:
        return False
    return True


def test_probes_build_no_generator_matrix(monkeypatch):
    # every generator kronecker_probe over GF(3) and the short-probes suite
    # (its Kronecker probe and probe_embedding on the realized stages)
    # build, pool and pair formulas alike, is evaluated and compared
    # without its matrix; read afterwards, the matrix is the grid's
    from pathlib import Path
    import ppmod.ppformula
    from ppmod.probes import kronecker_probe
    from ppmod.suites import suite_short_probes
    made = []
    inner = ppmod.ppformula.pp_type_generator

    def recorded(module, tup):
        phi = inner(module, tup)
        made.append((phi, module, tup))
        return phi

    monkeypatch.setattr(ppmod.ppformula, "pp_type_generator", recorded)
    rep = kronecker_probe(probe_kronecker_universe(GF(3)), 3)
    res = suite_short_probes()
    monkeypatch.undo()
    assert len(made) > 100
    assert not any(matrix_built(phi) for phi, _, _ in made)
    # the verdicts are the recorded ones
    golden = Path(__file__).parent / "golden"
    assert rep.to_text() in (golden / "scenario_field_3.txt").read_text()
    block = "".join([res.summary(with_time=False) + "\n"]
                    + [f"\t{line}\n" for line in res.lines])
    assert block in (golden / "suite_all.txt").read_text()
    for phi, module, tup in made:
        assert content(phi) == content(
            grid_pp_type_generator(presentation_of(module), tup))
        assert matrix_built(phi)


def test_generator_tuple_shape_is_checked_when_built(d2):
    m = dvr_chain_module(d2, 2)
    for tup in (((1,),), ((1, 0, 0),), ((1, 0), (1,)), ()):
        with pytest.raises(ValueError):
            pp_type_generator(m, tup)
    with pytest.raises(ValueError):
        pp_type_generator_of_element(m, (1,))
    gen = pp_type_generator(m, ((0, 1), (1, 0)))
    assert not matrix_built(gen)
    assert (gen.n, gen.l) == (2, presentation_of(m).ngens)


# -- unit-coefficient bound variables substituted away -------------------------


def unreduced_value(phi, module):
    """The reference value: phi's own system on the module eliminated as
    it stands, with no variable substituted away."""
    from ppmod.linalg import projected_kernel
    d, nvars, k = module.dim, phi.n + phi.l, phi.n * module.dim
    system = block(module.algebra.field, [d] * nvars, [d] * phi.m,
                   {(v, e): module.act(entry(phi, v, e))
                    for v in range(nvars) for e in range(phi.m)})
    return Subspace(projected_kernel(system, k))


def reduction_corpus(alg, seed):
    """Right formulas of every shape, their duals, the edge shapes, sums
    and meets of each side and duals of a sum and of a dual."""
    import random
    rng = random.Random(seed)
    right = shape_corpus(alg, rng)
    left = [dual(phi) for phi in right]
    out = right + left + edge_formulas(alg)
    for side in (right, left):
        ones = [phi for phi in side if phi.n == 1]
        for a, b in rng.sample(list(itertools.product(ones, repeat=2)), 8):
            out += [pp_sum(a, b), pp_meet(a, b)]
    return out + [dual(pp_sum(right[5], right[9])), dual(left[7])]


def reduction_universe(alg):
    """Right modules of dimension <= 3 and their k-duals (left modules),
    keyed by the algebra they are over."""
    from ppmod.catalog import kronecker_universe
    right = dvr_universe(alg, 3) if "x" in alg.labels else \
        kronecker_universe(alg, 3)
    return {alg: right, alg.op: [k_dual(m) for m in right]}


def content(phi):
    """What a reduction may change: the shape and the cells."""
    return phi.n, phi.l, phi.m, phi.cells


def bound_units(phi):
    """The bound entries of phi that are units of its algebra."""
    alg = phi.algebra
    return [u for (v, _), u in phi.cells.items()
            if v >= phi.n and alg.inverse_el(u) is not None]


@pytest.mark.parametrize("alg", cell_algebras(), ids=CELL_IDS)
def test_reduced_formulas_keep_every_value(alg):
    universe = reduction_universe(alg)
    shrunk = 0
    for phi in reduction_corpus(alg, 7):
        r = phi.reduced()
        assert (r.algebra, r.n) == (phi.algebra, phi.n)
        # each step drops one bound variable and one condition, and the
        # steps go on until no bound variable has a unit coefficient
        assert phi.l - r.l == phi.m - r.m >= 0
        assert bound_units(r) == []
        assert content(r) == reference_unit_eliminated(phi)
        shrunk += r.l < phi.l
        for m in universe[phi.algebra]:
            want = unreduced_value(phi, m)
            assert phi.evaluate(m) == want
            assert r.evaluate(m) == want
    assert shrunk >= 25


@pytest.mark.parametrize("alg", cell_algebras(), ids=CELL_IDS)
def test_implication_on_the_reduced_realization_matches_the_system(alg):
    # the reference builds the free realization of phi itself and solves
    # psi's own system on it
    import random
    rng = random.Random(8)
    corpus = reduction_corpus(alg, 9)
    pairs = [(a, b) for a, b in itertools.product(corpus, repeat=2)
             if (a.algebra, a.n) == (b.algebra, b.n)]
    verdicts = set()
    for phi, psi in rng.sample(pairs, 150):
        got = phi.implies(psi)
        assert got == implies_by_system(phi, psi)
        verdicts.add((got, content(phi.reduced()) == content(phi)))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_a_unit_pivot_substitutes_with_the_right_sign():
    # (x | y) + ann(x): u = x - v, then v = x - y x, leaving
    # x x - y x^2 = 0, i.e. the row of x is x and the row of y is -x^2
    alg = truncated_dvr(3, GF(3))
    x, x2 = alg.basis_el(1), alg.basis_el(2)
    phi = pp_sum(divisibility(alg, x), annihilator(alg, x))
    assert (phi.l, phi.m) == (3, 3)
    assert content(phi.reduced()) == \
        (1, 1, 1, {(0, 0): x, (1, 0): alg.neg_el(x2)})


def test_left_formulas_multiply_in_the_opposite_algebra():
    # y (1 + a) + x b = 0 gives y = -x b (1 - a) = -x b, so y e2 = 0
    # becomes -x b e2 = -x b = 0 on the right; on the left the product
    # e2 (1 - a) b is 0
    from ppmod.algebra import kronecker_algebra
    alg = kronecker_algebra(GF(3))
    e2, a, b = (alg.el_from_label(s) for s in ("e2", "a", "b"))
    z = alg.zero_el()
    rows = [[b, z], [alg.add_el(alg.unit, a), e2]]
    assert content(PpFormula(alg, 1, rows).reduced()) == \
        (1, 0, 1, {(0, 0): alg.neg_el(b)})
    assert content(PpFormula(alg.op, 1, rows).reduced()) == (1, 0, 1, {})


def test_free_variables_and_non_units_are_never_pivots():
    from ppmod.algebra import kronecker_algebra
    for alg in (truncated_dvr(3, GF(3)), kronecker_algebra(GF(3))):
        z, u = alg.zero_el(), alg.unit
        nonunit = alg.basis_el(1)
        assert alg.inverse_el(nonunit) is None
        # only x1 has a unit coefficient, or y1 has only a non-unit one
        for phi in (bottom(alg), tautology(alg), annihilator(alg, u),
                    PpFormula(alg, 1, [[u], [nonunit]]),
                    PpFormula(alg, 2, [[u, z], [z, u], [nonunit, nonunit]])):
            assert content(phi.reduced()) == content(phi)
        # y1 is taken at its unit in the second condition, not at the
        # non-unit in the first: y1 = 0, and x1 = 0 is left
        phi = PpFormula(alg, 1, [[u, z], [nonunit, u]])
        assert content(phi.reduced()) == (1, 0, 1, {(0, 0): u})


def test_pp_type_generators_are_never_reduced():
    from ppmod.algebra import kronecker_algebra
    with_units = 0
    for alg in (truncated_dvr(3, GF(3)), kronecker_algebra(GF(3))):
        for m in reduction_universe(alg)[alg]:
            for vec in top_of(m)[1]:
                phi = pp_type_generator_of_element(m, vec)
                fr = phi.free_realization()
                assert phi.reduced() is phi and phi._by_hom
                assert phi.reduced().free_realization() is fr
                with_units += bound_units(phi) != []
    # over k[x]/(x^3) each has a bound unit, so its system copy would be
    # reduced
    assert with_units >= 10


def test_each_formula_is_reduced_once(monkeypatch):
    import ppmod.ppformula
    alg = truncated_dvr(3, GF(3))
    reduce, reduced = ppmod.ppformula._unit_eliminated, []

    def counted(phi):
        reduced.append(phi)
        return reduce(phi)

    monkeypatch.setattr(ppmod.ppformula, "_unit_eliminated", counted)
    corpus = reduction_corpus(alg, 7)
    universe = reduction_universe(alg)
    for _ in range(2):
        for phi in corpus:
            for m in universe[phi.algebra]:
                phi.evaluate(m)
            for psi in corpus[:10]:
                if (psi.algebra, psi.n) == (phi.algebra, phi.n):
                    phi.implies(psi)
            assert phi.reduced() is phi.reduced()
            assert phi.reduced().reduced() is phi.reduced()
    assert sorted(map(id, reduced)) == sorted(map(id, corpus))


def test_arities_below_their_range_are_refused(d2):
    # n + l = 1 rows either way: the rows give l, so l = -1 is one row for
    # n = 2 free variables, which from_cells is given as l itself
    x = x_el(d2)
    for n, l, rows_named, cells_named in (
            (2, -1, "1 variable rows, fewer than the n=2", "l=-1"),
            (-1, 2, "n=-1", "n=-1"), (0, 1, "n=0", "n=0")):
        with pytest.raises(ValueError, match=rows_named):
            PpFormula(d2, n, [[x]])
        with pytest.raises(ValueError, match=cells_named):
            PpFormula.from_cells(d2, n, l, 1, {(0, 0): x})


def test_negative_sizes_are_refused_by_name(d2):
    # with no cell to fall outside a negative size, only the size check
    # can refuse it
    for l, m, named in ((0, -1, "condition count m=-1"),
                        (-1, 0, "bound arity l=-1"),
                        (-2, 3, "bound arity l=-2")):
        with pytest.raises(ValueError, match=named):
            PpFormula.from_cells(d2, 1, l, m, {})


# -- reduced formulas shared by content ----------------------------------------


def test_content_equal_formulas_share_their_reduced_formula():
    import random
    from ppmod.suites import formula_corpus
    alg = truncated_dvr(3, GF(3))
    assert annihilator(alg, alg.unit).reduced() is bottom(alg).reduced()
    corpus = formula_corpus(alg, 25, random.Random(0))
    module = dvr_chain_module(alg, 2)
    shared = 0
    for phi in corpus:
        twice = dual(dual(phi))
        r, rr = phi.reduced(), twice.reduced()
        assert (rr is r) == (content(rr) == content(r))
        if rr is r:
            # one value, computed once and kept on the shared object
            assert twice.evaluate(module) is phi.evaluate(module)
            shared += 1
    assert shared == 9


def test_reduced_formulas_are_not_shared_across_algebras_sides_or_arities():
    alg, other = truncated_dvr(3, GF(3)), truncated_dvr(3, GF(3))
    x = alg.basis_el(1)
    assert bottom(alg).reduced() is not bottom(other).reduced()
    # x1 x = 0 and the left formula x x1 = 0, which is over alg.op
    right = PpFormula(alg, 1, [[x]])
    left = PpFormula(alg.op, 1, [[x]])
    assert right.reduced() is not left.reduced()
    nonunit = [[x], [x]]
    one = PpFormula(alg, 1, nonunit)
    two = PpFormula(alg, 2, nonunit)
    assert one.reduced() is not two.reduced()
    assert content(one.reduced()) == (1, 1, 1, two.cells)
    assert content(two.reduced()) == (2, 0, 1, two.cells)


def test_a_reduced_formula_dies_with_its_last_formula():
    # a content nothing else in the suite builds: x^2 | x1 * x
    import gc
    import weakref
    alg = truncated_dvr(3, GF(3))
    x, x2 = alg.basis_el(1), alg.basis_el(2)
    phi = pp_sum(divisibility(alg, x2), annihilator(alg, x))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        r = weakref.ref(phi.reduced())
        phi.evaluate(dvr_chain_module(alg, 3))
        assert r() is not None
        del phi
        assert r() is None
    finally:
        if was_enabled:
            gc.enable()


# free realizations and system evaluations that suite_duality(0) makes,
# counted where ppformula calls them: 944 and 1,280 before reduced formulas
# were shared by content, 509 and 837 before a shared reduced formula was
# read as reflexivity
DUALITY_REALIZATIONS = 247
DUALITY_SYSTEMS = 503


def test_duality_suite_work_does_not_depend_on_the_collector(monkeypatch):
    # the same with the collector on and off
    import gc
    import ppmod.ppformula
    from ppmod.suites import suite_duality
    work = {}
    for name in ("quotient_module", "projected_kernel"):
        def counted(*args, _name=name, _fn=getattr(ppmod.ppformula, name)):
            work[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ppmod.ppformula, name, counted)

    def run():
        work.update(quotient_module=0, projected_kernel=0)
        assert suite_duality(0).passed
        return dict(work)

    was_enabled = gc.isenabled()
    collected = run()
    gc.disable()
    try:
        uncollected = run()
    finally:
        if was_enabled:
            gc.enable()
    assert collected == uncollected == {
        "quotient_module": DUALITY_REALIZATIONS,
        "projected_kernel": DUALITY_SYSTEMS}


# -- the row update of the reduction -------------------------------------------


def reference_unit_eliminated(phi):
    """The reduction on the filled-in matrix, with the product (c u^-1) b
    formed row by row, as it stood before u^-1 b was formed once per pivot
    and before the cells were the storage: each pivot is the first bound
    row with a unit entry, at its first unit column.  Returns the reduced
    content (see content)."""
    alg, n = phi.algebra, phi.n
    of = alg.field.of
    rows = [[entry(phi, v, e) for e in range(phi.m)]
            for v in range(n + phi.l)]
    while (pivot := next(((y, e) for y in range(n, len(rows))
                          for e, u in enumerate(rows[y])
                          if alg.is_unit_el(u)), None)) is not None:
        y, e = pivot
        inv = alg.inverse_el(rows[y][e])
        hy = rows.pop(y)
        del hy[e]
        for r in rows:
            c = alg.mul_el(r.pop(e), inv)
            if any(c):
                for j, b in enumerate(hy):
                    if any(b):
                        r[j] = tuple(of(s - t) for s, t in
                                     zip(r[j], alg.mul_el(c, b)))
    return n, len(rows) - n, len(rows[0]), {
        (v, e): x for v, r in enumerate(rows) for e, x in enumerate(r)
        if any(x)}


@functools.cache
def reference_algebras():
    from ppmod.algebra import kronecker_algebra
    from ppmod.fields import QQ
    from ppmod.tower import build_tower
    return [alg for f in (GF(2), GF(3), QQ)
            for alg in (truncated_dvr(3, f), kronecker_algebra(f),
                        build_tower(2, 1, f).top)]


@st.composite
def reducible_formulas(draw):
    """Formulas with n <= 2, l <= 3, m <= 3 over the reference algebras
    and their opposites (right and left formulas); an entry is zero, the unit or a random combination of
    the basis, so bound units are common."""
    alg = draw(st.sampled_from(reference_algebras()))
    f = alg.field
    scalars = [f.of(v) for v in (-1, 1, 2)] + \
        ([] if f.p is not None else [f.one() / 2])
    n, l, m = (draw(st.integers(1, 2)), draw(st.integers(0, 3)),
               draw(st.integers(0, 3)))
    entry = st.one_of(
        st.just(alg.zero_el()), st.just(alg.unit),
        st.lists(st.sampled_from([f.zero()] + scalars), min_size=alg.dim,
                 max_size=alg.dim).map(tuple))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n + l, max_size=n + l))
    return PpFormula(draw(st.sampled_from((alg, alg.op))), n, rows)


@settings(max_examples=300, deadline=None)
@given(reducible_formulas())
def test_reduction_matches_the_row_by_row_reference(phi):
    from ppmod.ppformula import _unit_eliminated
    assert content(_unit_eliminated(phi)) == reference_unit_eliminated(phi)


def test_entries_are_normalized_in_the_field():
    # over GF(3), 5 and -1 name the element 2
    from ppmod.ppsyntax import format_formula
    alg = truncated_dvr(3, GF(3))
    phi = PpFormula(alg, 1, [[(0, 5, 0)]])
    assert format_formula(phi) == "(x1*(2*x) = 0)"
    assert phi.cells == {(0, 0): (0, 2, 0)}
    minus, two = (PpFormula(alg, 1, [[(0, c, 0)]]) for c in (-1, 2))
    assert content(minus) == content(two)
    assert minus.reduced() is two.reduced()


def normal_entries(phi):
    """Whether phi's cells are stored canonically: each key (v, e) inside
    its n + l variables and m conditions, each entry nonzero, of the
    algebra's dimension and with every coordinate in its field's normal
    form: an int in range(p) over GF(p), a Fraction over QQ."""
    from fractions import Fraction
    p, dim = phi.algebra.field.p, phi.algebra.dim
    return all(0 <= v < phi.n + phi.l and 0 <= e < phi.m and
               len(x) == dim and any(x) and
               all(type(c) is Fraction if p is None else
                   type(c) is int and 0 <= c < p for c in x)
               for (v, e), x in phi.cells.items())


def checked_rebuilds(phi):
    """phi rebuilt through each checking constructor: from its filled-in
    rows and from its cells."""
    rows = [[entry(phi, v, e) for e in range(phi.m)]
            for v in range(phi.n + phi.l)]
    return (PpFormula(phi.algebra, phi.n, rows),
            PpFormula.from_cells(phi.algebra, phi.n, phi.l, phi.m,
                                 phi.cells))


@pytest.mark.parametrize("p", [2, 3, None], ids=["gf2", "gf3", "qq"])
def test_derived_formulas_equal_their_checked_rebuilds(p):
    # sum, meet, dual and reduced() build from their parts' cells without
    # checking them; the checking constructors must find nothing to
    # change.  The formulas the checking constructors, the parser and
    # the Kronecker step formulas build, and generators' lazily built
    # cells, are stored canonically as well.
    import random
    from ppmod.algebra import kronecker_algebra
    from ppmod.catalog import kronecker_step_formula, kronecker_universe
    from ppmod.fields import QQ
    from ppmod.ppsyntax import format_formula, parse_formula
    from ppmod.suites import formula_corpus
    f = QQ if p is None else GF(p)
    rng = random.Random(49)
    built = shared = 0
    for alg in (truncated_dvr(3, f), kronecker_algebra(f)):
        # formula_corpus enumerates the field, so QQ is hand-built
        corpus = (rational_corpus(alg) if p is None
                  else formula_corpus(alg, 12, rng))
        for _ in range(30):
            phi, psi = rng.choice(corpus), rng.choice(corpus)
            derived = [pp_sum(phi, psi), pp_meet(phi, psi), dual(phi),
                       dual(pp_sum(phi, psi)),
                       pp_meet(dual(phi), dual(psi))]
            for g in derived + [g.reduced() for g in derived]:
                for checked in checked_rebuilds(g):
                    assert content(checked) == content(g)
                    assert normal_entries(g) and normal_entries(checked)
                built += 1
        x = alg.basis_el(alg.dim - 1)
        basic = [tautology(alg), bottom(alg), divisibility(alg, x),
                 annihilator(alg, x)]
        texts = ["E y1 y2 . (x1 + y1 = 0)", "x1 - x1 = 0", "x2 = 0"] + [
            format_formula(phi) for phi in basic + corpus]
        outside = corpus + basic + [parse_formula(alg, t) for t in texts]
        if "x" in alg.labels:
            mods = dvr_universe(alg, 3)
        else:
            mods = kronecker_universe(alg, 3)
            outside += [kronecker_step_formula(alg, t) for t in range(4)]
        outside += [pp_type_generator(m, top_of(m)[1]) for m in mods]
        for g in outside:
            assert normal_entries(g)
            for checked in checked_rebuilds(g):
                assert content(checked) == content(g)
            # the same cells in the opposite order of insertion give the
            # same content, so they share one reduced formula
            a, b = (PpFormula.from_cells(g.algebra, g.n, g.l, g.m,
                                         dict(cells))
                    for cells in (g.cells.items(),
                                  reversed(g.cells.items())))
            assert a.reduced() is b.reduced()
            shared += list(a.cells) != list(b.cells)
    assert built == 2 * 30 * 10
    assert shared >= 20


@pytest.mark.parametrize("p", [2, 3])
def test_zero_cells_evaluate_as_the_witness_enumeration(p):
    # x1*0 = 0 and formulas with an all-zero condition, their sums, meets
    # and duals: the derived matrices leave their zero cells out, and the
    # evaluated systems give zero entries no band
    from ppmod.linalg import Matrix, span_elements
    from reference import brute_eval
    f = GF(p)
    alg = truncated_dvr(2, f)
    z, x = alg.zero_el(), alg.basis_el(1)
    zero = PpFormula(alg, 1, [[z]])
    zero_bound = PpFormula(alg, 1, [[z, x], [z, z]])
    pairs = [(zero, bottom(alg)), (zero_bound, annihilator(alg, x)),
             (zero_bound, divisibility(alg, x)), (zero, zero_bound)]

    def vectors(s):
        rows = [s.basis.take_rows((i,)) for i in range(s.dim)]
        return {v.data[0] for _, v in
                span_elements(rows, Matrix.zero(f, 1, s.ambient))}

    for m in dvr_universe(alg, 2):
        md = k_dual(m)
        for a, b in pairs:
            va, vb = brute_eval(a, m), brute_eval(b, m)
            s, t = pp_sum(a, b), pp_meet(a, b)
            assert brute_eval(s, m) == {tuple(f.of(c + d) for c, d in
                                              zip(u, v))
                                        for u in va for v in vb}
            assert brute_eval(t, m) == va & vb
            for phi in (a, b, s, t):
                assert vectors(phi.evaluate(m)) == brute_eval(phi, m)
                dphi = dual(phi)
                assert content(dphi) == content(grid_dual(phi))
                assert vectors(dphi.evaluate(md)) == brute_eval(dphi, md)
