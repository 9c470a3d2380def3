"""Bounded interval probes for the shortness analysis of embeddings.

Given a pp-pair psi <= phi, the probe searches the interval [psi, phi] for
strictly descending chains built from phi ^ (theta + psi), where the
generator formulas theta are pp-type generators of images of homomorphisms
between universe modules.  Those vectors are then closed under pairwise
sums and meets for at most MAX_ROUNDS rounds.  All comparisons happen on
evaluation vectors over the universe, so every strict step automatically
carries a certifying module.  The probe is deliberately a semi-decision
procedure: verdicts are NOT_SHORT_WITNESS (a chain longer than the
budget), SHORT_WITHIN_BOUND (closure reached within MAX_ROUNDS with short
chains) or INCONCLUSIVE.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Subspace, subspace_leq, subspace_meet, subspace_sum
from .modules import Module, hom_space, top_of
from .ppformula import PpFormula, PpPair, pp_type_generator_of_element

SHORT_WITHIN_BOUND = "SHORT_WITHIN_BOUND"
NOT_SHORT_WITNESS = "NOT_SHORT_WITNESS"
INCONCLUSIVE = "INCONCLUSIVE"

# rounds of pairwise sums and meets the probe closes its lattice under
MAX_ROUNDS = 3


class ProbeReport(NamedTuple):
    verdict: str
    budget: int
    chain: list[str]                 # expressions, descending
    certificates: list[str]          # separating module label per strict step
    lattice_size: int
    complete: bool
    rounds_used: int

    def to_text(self) -> str:
        lines = [f"verdict\t{self.verdict}",
                 f"budget\t{self.budget}",
                 f"chain_length\t{len(self.chain) - 1 if self.chain else 0}",
                 f"lattice_size\t{self.lattice_size}",
                 f"closure_complete\t{self.complete}",
                 f"rounds\t{self.rounds_used}"]
        for i, expr in enumerate(self.chain):
            lines.append(f"chain[{i}]\t{expr}")
        for i, cert in enumerate(self.certificates):
            lines.append(f"separated_by[{i}]\t{cert}")
        return "\n".join(lines) + "\n"


def theta_pool(universe: list[Module]) -> list[tuple[str, PpFormula]]:
    """Generator formulas: pp-type generators of f(g) for every hom basis
    element f between universe modules and every lift g of the source's
    top (see top_of).  Sorted by target dimension, then construction
    order.  Equal images in one target share one formula object, and so
    its cached values."""
    out = []
    made: dict = {}  # (target index, image) -> its pp-type generator
    for ai, a in enumerate(universe):
        gens = top_of(a)[1]
        for bi, b in enumerate(universe):
            homs = hom_space(a, b)
            for hi, h in enumerate(homs):
                for gi, g in enumerate(gens):
                    key = (bi, h(g))
                    if key not in made:
                        made[key] = pp_type_generator_of_element(b, key[1])
                    name = f"gen[{_label(b)}<-{_label(a)}:h{hi}g{gi}]"
                    out.append((b.dim, ai, bi, hi, gi, name, made[key]))
    out.sort(key=lambda t: t[:5])
    return [(name, f) for *_, name, f in out]


def _label(m: Module) -> str:
    return m.label or f"M{m.serial}"


def interval_probe(pair: PpPair, universe: list[Module], budget: int,
                   pool: list[tuple[str, PpFormula]] | None = None) -> ProbeReport:
    """Probe the interval [lower, upper] of a pp-pair over a universe."""
    phi, psi = pair.upper, pair.lower
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if pool is None:
        pool = theta_pool(universe)
    phi_parts = tuple(phi.evaluate(m) for m in universe)
    psi_parts = tuple(psi.evaluate(m) for m in universe)
    # subspace_sum and subspace_meet results of this probe, by (x, y)
    sums: dict = {}
    meets: dict = {}

    def combine(op, memo, xs, ys) -> tuple[Subspace, ...]:
        out = []
        for key in zip(xs, ys):
            r = memo.get(key)
            if r is None:
                r = memo[key] = op(*key)
            out.append(r)
        return tuple(out)

    # each value once, to the expression that first reached it
    seen = {phi_parts: "phi"}
    seen.setdefault(psi_parts, "psi")
    # equal evaluations give equal chi, so each distinct one is met once
    met = set()
    for name, theta in pool:
        parts = tuple(theta.evaluate(m) for m in universe)
        if parts in met:
            continue
        met.add(parts)
        chi = combine(subspace_meet, meets, phi_parts,
                      combine(subspace_sum, sums, parts, psi_parts))
        if chi not in seen:
            seen[chi] = f"phi ^ ({name} + psi)"

    complete = False
    # every pair of items before `old` was formed in an earlier round, and
    # its sum and meet are already in seen
    old = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        items = list(seen.items())
        grew = False
        for i, (a, a_expr) in enumerate(items):
            for b, b_expr in items[max(i + 1, old):]:
                s = combine(subspace_sum, sums, a, b)
                if s not in seen:
                    seen[s] = f"({a_expr}) + ({b_expr})"
                    grew = True
                w = combine(subspace_meet, meets, a, b)
                if w not in seen:
                    seen[w] = f"({a_expr}) ^ ({b_expr})"
                    grew = True
        old = len(items)
        # seen does not change after the last round: its chain is the report's
        chain = _longest_chain(list(seen))
        if len(chain) - 1 >= budget:
            break
        if not grew:
            complete = True
            break

    steps = len(chain) - 1
    if steps >= budget:
        verdict = NOT_SHORT_WITNESS
    elif complete:
        verdict = SHORT_WITHIN_BOUND
    else:
        verdict = INCONCLUSIVE
    certs = []
    for hi, lo in zip(chain, chain[1:]):
        sep = next(i for i, (a, b) in enumerate(zip(hi, lo)) if a != b)
        certs.append(_label(universe[sep]))
    return ProbeReport(
        verdict=verdict, budget=budget, chain=[seen[v] for v in chain],
        certificates=certs, lattice_size=len(seen), complete=complete,
        rounds_used=rounds)


def kronecker_probe(preprojectives: list[Module], budget: int) -> ProbeReport:
    """The probe of the interval between the pp-types of 1 in PP(0) = k
    and of its image under the first injective map PP(0) -> PP(1), over
    the given Kronecker preprojectives PP(0), PP(1), ...: the embedding
    probe of that map, whose source has the one top lift 1."""
    pp0, pp1 = preprojectives[:2]
    emb = next(h for h in hom_space(pp0, pp1) if h.is_injective())
    return probe_embedding(emb, preprojectives, budget)[0]


def _longest_chain(values: list[tuple[Subspace, ...]]
                   ) -> list[tuple[Subspace, ...]]:
    """A longest strictly descending chain of the values, top first.  A
    value of smaller total dimension lies strictly below one it lies in."""
    dims = [sum(p.dim for p in v) for v in values]
    order = sorted(range(len(values)), key=dims.__getitem__)
    best = [1] * len(values)
    pred = [-1] * len(values)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if dims[j] < dims[i] and best[j] >= best[i] and \
                    all(map(subspace_leq, values[j], values[i])):
                best[i] = best[j] + 1
                pred[i] = j
    chain = []
    cur = max(range(len(values)), key=best.__getitem__)
    while cur != -1:
        chain.append(values[cur])
        cur = pred[cur]
    return chain


def probe_embedding(fmap, universe: list[Module], budget: int,
                    pool: list[tuple[str, PpFormula]] | None = None
                    ) -> list[ProbeReport]:
    """Shortness probes for an embedding f: one report per lift g of
    the source's top, comparing the pp-type of g with that of f(g).  The
    pool is passed to interval_probe as is."""
    if not fmap.is_injective():
        raise ValueError("probe_embedding expects an embedding")
    src, tgt = fmap.source, fmap.target
    out = []
    for g in top_of(src)[1]:
        upper = pp_type_generator_of_element(src, g)
        lower = pp_type_generator_of_element(tgt, fmap(g))
        out.append(interval_probe(PpPair(upper=upper, lower=lower),
                                  universe, budget, pool))
    return out
