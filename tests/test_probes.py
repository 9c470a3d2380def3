import pytest

import ppmod.probes
import ppmod.suites
from ppmod.algebra import kronecker_algebra
from ppmod.fields import GF
from ppmod.catalog import (dvr_chain_module, kronecker_preprojective,
                           kronecker_step_formula)
from ppmod.modules import hom_space, top_of
from ppmod.ppformula import PpPair, pp_type_generator_of_element
from ppmod.linalg import subspace_leq
from ppmod.probes import (INCONCLUSIVE, MAX_ROUNDS, NOT_SHORT_WITNESS,
                          SHORT_WITHIN_BOUND, ProbeReport, _label,
                          interval_probe, probe_embedding, theta_pool)
from ppmod.realize import realize_in_tower
from ppmod.suites import suite_short_probes
from ppmod.tower import build_tower
from ppmod.tube import Arrow

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
    universe = [rt.modules[(0, l, j)] for l in (0, 1) for j in range(1, 5)]
    pool = theta_pool(universe)
    for l, j in ((0, 1), (1, 2), (1, 3)):
        emb = rt.maps[Arrow("mu", 0, l, j)]
        fresh = probe_embedding(emb, universe, budget=10)
        shared = probe_embedding(emb, universe, budget=10, pool=pool)
        assert len(fresh) == len(shared) == len(top_of(emb.source)[1])
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
        gens = top_of(a)[1]
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
    stages = [rt.modules[(0, l, j)] for l in (0, 1) for j in range(1, 5)]
    for universe in (preprojectives, stages):
        pool = theta_pool(universe)
        ref = pool_one_formula_per_entry(universe)
        assert [name for name, _ in pool] == [name for name, _ in ref]
        assert len({id(f) for _, f in pool}) < len(pool)
        for (_, got), (_, want) in zip(pool, ref):
            for m in universe:
                assert got.evaluate(m) == want.evaluate(m)


class _Vec:
    """Evaluation vector of a formula over the universe, with provenance."""

    __slots__ = ("parts", "expr")

    def __init__(self, parts, expr: str):
        self.parts = parts
        self.expr = expr

    def leq(self, other: "_Vec") -> bool:
        return all(subspace_leq(a, b) for a, b in zip(self.parts, other.parts))

    def total_dim(self) -> int:
        return sum(p.dim for p in self.parts)


def _longest_chain(vecs: list[_Vec]) -> tuple[list[_Vec], int]:
    """The reference longest strictly descending chain (top first) and its
    step count: total dimensions recomputed for every pair, both
    inclusions tested."""
    order = sorted(range(len(vecs)), key=lambda i: vecs[i].total_dim())
    best = [1] * len(vecs)
    pred = [-1] * len(vecs)
    for pos, i in enumerate(order):
        for jpos in range(pos):
            j = order[jpos]
            if vecs[j].total_dim() < vecs[i].total_dim() and \
                    vecs[j].leq(vecs[i]) and not vecs[i].leq(vecs[j]):
                if best[j] + 1 > best[i]:
                    best[i] = best[j] + 1
                    pred[i] = j
    top = max(range(len(vecs)), key=lambda i: best[i]) if vecs else -1
    chain = []
    cur = top
    while cur != -1:
        chain.append(vecs[cur])
        cur = pred[cur]
    return chain, len(chain) - 1 if chain else 0


def probe_every_pair(pair, universe, budget, pool):
    """The reference probe: every pool entry is met, every pair of items
    is formed in every round, and nothing is memoized.  Sums and meets go
    through the probes module, where a test can count them."""
    def vec_sum(a, b, expr):
        return _Vec(tuple(ppmod.probes.subspace_sum(x, y)
                          for x, y in zip(a.parts, b.parts)), expr)

    def vec_meet(a, b, expr):
        return _Vec(tuple(ppmod.probes.subspace_meet(x, y)
                          for x, y in zip(a.parts, b.parts)), expr)

    phi_vec = _Vec(tuple(pair.upper.evaluate(m) for m in universe), "phi")
    psi_vec = _Vec(tuple(pair.lower.evaluate(m) for m in universe), "psi")
    seen = {}

    def add(v):
        if v.parts in seen:
            return False
        seen[v.parts] = v
        return True

    add(phi_vec)
    add(psi_vec)
    for name, theta in pool:
        tv = _Vec(tuple(theta.evaluate(m) for m in universe), name)
        add(vec_meet(phi_vec, vec_sum(tv, psi_vec, f"({name} + psi)"),
                     f"phi ^ ({name} + psi)"))
    complete = False
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        items = list(seen.values())
        grew = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                a, b = items[i], items[j]
                if add(vec_sum(a, b, f"({a.expr}) + ({b.expr})")):
                    grew = True
                if add(vec_meet(a, b, f"({a.expr}) ^ ({b.expr})")):
                    grew = True
        if _longest_chain(list(seen.values()))[1] >= budget:
            break
        if not grew:
            complete = True
            break
    vecs = list(seen.values())
    chain, steps = _longest_chain(vecs)
    verdict = (NOT_SHORT_WITNESS if steps >= budget else
               SHORT_WITHIN_BOUND if complete else INCONCLUSIVE)
    certs = [_label(universe[next(i for i, (x, y)
                                  in enumerate(zip(hi.parts, lo.parts))
                                  if x != y)])
             for hi, lo in zip(chain, chain[1:])]
    return ProbeReport(verdict, budget, [v.expr for v in chain], certs,
                       len(vecs), complete, rounds)


def kronecker_probe_pair(universe):
    """The pair `probe kronecker` probes: PP(0) inside PP(1)."""
    one = universe[0].algebra.field.one()
    emb = next(h for h in hom_space(universe[0], universe[1])
               if h.is_injective())
    return PpPair(upper=pp_type_generator_of_element(universe[0], (one,)),
                  lower=pp_type_generator_of_element(universe[1],
                                                     emb((one,))))


def stage_probe_pairs():
    """The universe, pool and pairs of the short-probes suite's stage
    probes, as probe_embedding forms them."""
    rt = realize_in_tower(build_tower(5, 1, F2), 3)
    universe = [rt.modules[(0, l, j)] for l in (0, 1) for j in range(1, 5)]
    pairs = []
    for j in (1, 2, 3):
        for emb in (rt.maps[Arrow("mu", 0, l, j)] for l in (0, 1)):
            for g in top_of(emb.source)[1]:
                pairs.append(PpPair(
                    upper=pp_type_generator_of_element(emb.source, g),
                    lower=pp_type_generator_of_element(emb.target, emb(g))))
    return universe, theta_pool(universe), pairs


@pytest.mark.parametrize("p", [2, 3])
def test_kronecker_probe_matches_every_pair_reference(p):
    # the pair of `probe kronecker` and of the short-probes suite
    kron = kronecker_algebra(GF(p))
    universe = [kronecker_preprojective(kron, i) for i in range(5)]
    pool = theta_pool(universe)
    pair = kronecker_probe_pair(universe)
    for budget in (3, 6, 10):
        assert interval_probe(pair, universe, budget, pool) == \
            probe_every_pair(pair, universe, budget, pool)


@pytest.mark.parametrize("p", [2, 3])
def test_closure_rounds_match_every_pair_reference(p):
    # pairs of corpus formulas over the Kronecker modules of dim <= 2,
    # some of whose lattices grow until the last round
    import random
    from ppmod.catalog import kronecker_universe
    from ppmod.ppformula import pp_meet
    from ppmod.suites import formula_corpus
    kron = kronecker_algebra(GF(p))
    universe = kronecker_universe(kron, 2)
    pool = theta_pool(universe)
    corpus = [f for f in formula_corpus(kron, 12, random.Random(1))
              if f.n == 1][1:5]
    rounds = set()
    for phi in corpus:
        for psi in corpus:
            pair = PpPair(upper=phi, lower=pp_meet(phi, psi))
            got = interval_probe(pair, universe, 10, pool)
            assert got == probe_every_pair(pair, universe, 10, pool)
            rounds.add(got.rounds_used)
    assert MAX_ROUNDS in rounds


def test_interval_probe_memoizes_sums_and_meets(monkeypatch):
    # the short-probes suite's stage probes, against the reference; count
    # the sums and meets that compute, not the memo hits
    universe, pool, pairs = stage_probe_pairs()
    calls = []

    def counting(op):
        def run(x, y):
            calls.append((op.__name__, x, y))
            return op(x, y)
        return run

    for name in ("subspace_sum", "subspace_meet"):
        monkeypatch.setattr(ppmod.probes, name,
                            counting(getattr(ppmod.probes, name)))
    memo = []
    memo_calls = 0
    for pair in pairs:
        memo.append(interval_probe(pair, universe, 10, pool))
        # no (x, y) is computed twice within one probe
        assert len(set(calls)) == len(calls)
        memo_calls += len(calls)
        calls.clear()
    ref = [probe_every_pair(pair, universe, 10, pool) for pair in pairs]
    assert memo == ref
    assert {"subspace_sum", "subspace_meet"} <= {op for op, _, _ in calls}
    assert 5 * memo_calls <= len(calls)
