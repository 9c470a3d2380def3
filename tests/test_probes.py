import pytest

import ppmod.probes
import ppmod.suites
from ppmod.fields import GF
from ppmod.catalog import (dvr_chain_module, kronecker_preprojective,
                           kronecker_step_formula)
from ppmod.modules import hom_space, module_generators
from ppmod.ppformula import PpPair, pp_type_generator_of_element
from ppmod.probes import (NOT_SHORT_WITNESS, SHORT_WITHIN_BOUND,
                          interval_probe, probe_embedding, theta_pool)
from ppmod.realize import realize_in_tower
from ppmod.suites import suite_short_probes
from ppmod.tower import build_tower

F2 = GF(2)


@pytest.fixture(scope="module")
def preprojectives(kron):
    return [kronecker_preprojective(kron, i) for i in range(5)]  # dims 1..9


def test_equal_pair_is_short_with_zero_length(dvr3):
    m = dvr_chain_module(dvr3, 2)
    phi = pp_type_generator_of_element(m, (F2.one(), F2.zero()))
    rep = interval_probe(PpPair(upper=phi, lower=phi), [m], budget=3)
    assert rep.verdict == SHORT_WITHIN_BOUND
    assert len(rep.chain) == 1
    assert rep.certificates == []


def test_explicit_kronecker_chain_strictly_descends(kron, preprojectives):
    # the first four members strictly descend, each step separated by an
    # explicit preprojective of dimension <= 9
    chain = [kronecker_step_formula(kron, t) for t in range(4)]
    for hi, lo in zip(chain, chain[1:]):
        assert lo.implies(hi)
        assert not hi.implies(lo)
    expected_separators = [0, 1, 2]  # PP(0), PP(1), PP(2)
    for (hi, lo), idx in zip(zip(chain, chain[1:]), expected_separators):
        sep = preprojectives[idx]
        vh = hi.evaluate(sep)
        vl = lo.evaluate(sep)
        assert vh != vl and vl.dim < vh.dim
        assert sep.dim <= 9


def test_kronecker_probe_not_short(kron, preprojectives):
    p2 = preprojectives[0]
    p1 = preprojectives[1]
    emb = None
    for h in hom_space(p2, p1):
        if h.is_injective():
            emb = h
            break
    assert emb is not None
    phi = pp_type_generator_of_element(p2, (F2.one(),))
    psi = pp_type_generator_of_element(p1, emb((F2.one(),)))
    rep = interval_probe(PpPair(upper=phi, lower=psi), preprojectives,
                         budget=3)
    assert rep.verdict == NOT_SHORT_WITNESS
    assert len(rep.chain) - 1 >= 3
    assert len(rep.certificates) == len(rep.chain) - 1
    text = rep.to_text()
    assert "NOT_SHORT_WITNESS" in text
    assert rep.to_text() == rep.to_text()  # deterministic


def test_dvr_inclusions_are_short(dvr3):
    # the inclusion of V/m^j into V/m^{j+1} has a short interval
    universe = [dvr_chain_module(dvr3, j) for j in (1, 2, 3)]
    v2, v3 = universe[1], universe[2]
    incs = [h for h in hom_space(v2, v3) if h.is_injective()]
    assert incs
    reports = probe_embedding(incs[0], universe, budget=3)
    for rep in reports:
        assert rep.verdict == SHORT_WITHIN_BOUND
        assert len(rep.chain) - 1 < 3


def test_theta_pool_sorted_and_nonempty(dvr3):
    universe = [dvr_chain_module(dvr3, j) for j in (1, 2)]
    pool = theta_pool(universe)
    assert pool
    names = [n for n, _ in pool]
    assert names == sorted(names, key=lambda n: names.index(n))  # stable order


def test_probe_embedding_with_a_given_pool_reports_the_same():
    # the stage embeddings of the short-probes suite; (1, 2) and (1, 3)
    # have two generators, so one pool serves two interval probes
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    universe = [rt.P[(l, j)] for l in (0, 1) for j in range(1, 5)]
    pool = theta_pool(universe)
    for key in ((0, 1), (1, 2), (1, 3)):
        emb = rt.psibar[key]
        fresh = probe_embedding(emb, universe, budget=10)
        shared = probe_embedding(emb, universe, budget=10, pool=pool)
        assert len(fresh) == len(shared) == len(module_generators(emb.source))
        for a, b in zip(fresh, shared):
            assert vars(a) == vars(b)


def test_short_probes_suite_builds_theta_pool_twice(monkeypatch):
    # once for the Kronecker interval probe, once shared by the stage probes
    calls = []

    def counting(universe):
        calls.append(len(universe))
        return theta_pool(universe)

    monkeypatch.setattr(ppmod.probes, "theta_pool", counting)
    monkeypatch.setattr(ppmod.suites, "theta_pool", counting)
    assert suite_short_probes(0).passed
    assert calls == [5, 8]


def pool_one_formula_per_entry(universe):
    """The reference pool: a new pp-type generator for every entry."""
    out = []
    for ai, a in enumerate(universe):
        gens = module_generators(a)
        for bi, b in enumerate(universe):
            for hi, h in enumerate(hom_space(a, b)):
                for gi, g in enumerate(gens):
                    name = f"gen[{b.label}<-{a.label}:h{hi}g{gi}]"
                    out.append((b.dim, ai, bi, hi, gi, name,
                                pp_type_generator_of_element(b, h(g))))
    out.sort(key=lambda t: t[:5])
    return [(name, f) for *_, name, f in out]


def test_theta_pool_matches_one_formula_per_entry(preprojectives):
    # the two universes of the short-probes suite
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    stages = [rt.P[(l, j)] for l in (0, 1) for j in range(1, 5)]
    for universe in (preprojectives, stages):
        pool = theta_pool(universe)
        ref = pool_one_formula_per_entry(universe)
        assert [name for name, _ in pool] == [name for name, _ in ref]
        assert len({id(f) for _, f in pool}) < len(pool)
        for (_, got), (_, want) in zip(pool, ref):
            for m in universe:
                assert got.evaluate(m) == want.evaluate(m)
