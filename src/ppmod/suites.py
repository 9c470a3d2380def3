"""The acceptance suites: ten named, seeded, exact verification scenarios.

Each suite returns a SuiteResult with one-line details; the pytest
acceptance module and the command line both run these.  Tolerances are
exact everywhere (no floats anywhere in the package)."""

from __future__ import annotations

import itertools
import random
import time

from .algebra import kronecker_algebra, truncated_dvr
from .catalog import (dvr_chain_module, dvr_universe, kronecker_preprojective,
                      kronecker_regular, kronecker_step_formula,
                      kronecker_universe, random_quotient_of_free)
from .decompose import RadicalCalculus, decompose
from .fields import GF
from .linalg import Matrix, span_elements, subspace_leq
from .modules import (ModuleMap, direct_sum, hom_space, iso_classes, iso_test,
                      k_dual, records_held)
from .oracles import brute_eval_f2, subspace_int_set
from .ppformula import (PpFormula, annihilator, bottom, divisibility, dual,
                        pp_meet, pp_sum, pp_type_generator_of_element,
                        tautology)
from .probes import (NOT_SHORT_WITNESS, SHORT_WITHIN_BOUND, kronecker_probe,
                     probe_embedding, theta_pool)
from .realize import bimodule_failures, functor_failures, realize_in_tower
from .tower import (all_labels, build_tower, classify, construct_label, f0,
                    f1, label_module, verify_hom_bounds)
from .tube import ZERO, Arrow, TranslationQuiver, hom_dimension, \
    mesh_rule_failures, mesh_sweep, normal_walk, rim_square_failures
from .ziegler import (PointSet, adic, closure, fin_len, is_closed,
                      point_closure, prufer, qpoint, random_point_set)

F2 = GF(2)


class SuiteResult:
    def __init__(self, name: str, passed: bool, lines: list[str]):
        self.name = name
        self.passed = passed
        self.lines = lines
        self.seconds = 0.0  # set by _timed

    def summary(self, with_time: bool = True) -> str:
        flag = "PASS" if self.passed else "FAIL"
        if with_time:
            return f"{flag}\t{self.name}\t{self.seconds:.1f}s"
        return f"{flag}\t{self.name}"


def _result(name: str, lines: list[str], bad: list) -> SuiteResult:
    """The suite passes iff nothing failed; a failing suite's last line
    names its first three failures and their count."""
    if bad:
        lines.append(f"failures\t{bad[:3]} ({len(bad)} total)")
    return SuiteResult(name, not bad, lines)


def _timed(fn):
    """Time the suite, and keep the content records it makes until it ends
    (see modules.records_held)."""
    def wrapper(seed: int = 0) -> SuiteResult:
        t0 = time.perf_counter()
        with records_held():
            res = fn(seed)
        res.seconds = time.perf_counter() - t0
        return res
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _random_element(alg, rng):
    f = alg.field
    v = [f.zero()] * alg.dim
    for i in range(alg.dim):
        if rng.random() < 0.5:
            v[i] = rng.choice([c for c in f.elements() if c != f.zero()])
    return tuple(v)


def formula_corpus(alg, count: int, rng: random.Random) -> list[PpFormula]:
    """Deterministic corpus of pp formulas: the named ones, then seeded
    random shapes with n = 1, l <= 3, m <= 3."""
    out = [tautology(alg), bottom(alg)]
    for i in range(alg.dim):
        out.append(divisibility(alg, alg.basis_el(i)))
        out.append(annihilator(alg, alg.basis_el(i)))
        if len(out) >= count // 2 + 2:
            break
    while len(out) < count:
        l = rng.randint(0, 3)
        m = rng.randint(1, 3)
        rows = [[_random_element(alg, rng) for _ in range(m)]
                for _ in range(1 + l)]
        out.append(PpFormula(alg, 1, rows))
    return out[:count]


# -- criterion 1 ---------------------------------------------------------------


@_timed
def suite_pp_oracle(seed: int = 0) -> SuiteResult:
    """Evaluation agrees exactly with brute-force witness enumeration."""
    rng = random.Random(seed)
    dvr3 = truncated_dvr(3, F2)
    kron = kronecker_algebra(F2)
    mods = {id(dvr3): dvr_universe(dvr3, 4),
            id(kron): kronecker_universe(kron, 4)}
    corpus = formula_corpus(dvr3, 25, rng) + formula_corpus(kron, 25, rng)
    pairs = 0
    bad = []
    for phi in corpus:
        for m in mods[id(phi.algebra)]:
            pairs += 1
            fast = subspace_int_set(phi.evaluate(m))
            slow = brute_eval_f2(phi, m)
            if fast != slow:
                bad.append((phi, m.label))
    lines = [f"corpus\t50 formulas (n=1, l<=3, m<=3) over k[x]/(x^3) and "
             f"the double-arrow path algebra",
             f"modules\t{sum(len(v) for v in mods.values())} of dim <= 4",
             f"pairs\t{pairs} evaluated"
             + ("" if bad else ", exact match on all")]
    return _result("pp-oracle", lines, bad)


# -- criterion 2 ---------------------------------------------------------------


@_timed
def suite_duality(seed: int = 0) -> SuiteResult:
    """The duality operator is an involutive anti-isomorphism."""
    rng = random.Random(seed)
    dvr3 = truncated_dvr(3, F2)
    kron = kronecker_algebra(F2)
    corpora = {id(dvr3): formula_corpus(dvr3, 25, rng),
               id(kron): formula_corpus(kron, 25, rng)}
    bad = []
    checked = 0
    for alg in (dvr3, kron):
        corpus = corpora[id(alg)]
        duals = {id(phi): dual(phi) for phi in corpus}
        for phi in corpus:
            if not dual(duals[id(phi)]).equivalent(phi):
                bad.append(("involution", phi))
        for i in range(alg.dim):
            a = alg.basis_el(i)
            if not dual(divisibility(alg, a)).equivalent(
                    annihilator(alg.op, a)):
                bad.append(("div->ann", alg.labels[i]))
            if not dual(annihilator(alg, a)).equivalent(
                    divisibility(alg.op, a)):
                bad.append(("ann->div", alg.labels[i]))
        laws = {}   # (id(phi), id(psi)) -> the laws that fail on the pair
        for _ in range(100):
            phi, psi = rng.choice(corpus), rng.choice(corpus)
            checked += 1
            key = (id(phi), id(psi))
            if key not in laws:
                dphi, dpsi = duals[id(phi)], duals[id(psi)]
                laws[key] = [law for law, holds in (
                    ("sum", dual(pp_sum(phi, psi)).equivalent(
                        pp_meet(dphi, dpsi))),
                    ("meet", dual(pp_meet(phi, psi)).equivalent(
                        pp_sum(dphi, dpsi))),
                    ("antitone", phi.implies(psi) == dpsi.implies(dphi)))
                    if not holds]
            bad.extend((law, phi, psi) for law in laws[key])
    lines = [f"pairs\t{checked} sampled pairs, anti-isomorphism laws exact",
             "involution\tD(D(phi)) equivalent to phi on the whole corpus",
             "basis\tD swaps divisibility and annihilation for every basis "
             "element"]
    return _result("duality", lines, bad)


# -- criterion 3 ---------------------------------------------------------------


@_timed
def suite_krull_schmidt(seed: int = 0) -> SuiteResult:
    """decompose(A + B) merges decompose(A) and decompose(B); idempotents
    verify; images are certified indecomposable."""
    rng = random.Random(seed)
    algebras = [truncated_dvr(3, F2), build_tower(2, 1, F2).top,
                build_tower(2, 2, F2).top, kronecker_algebra(F2)]
    bad = []
    pairs = 0
    for alg in algebras:
        for _ in range(25):
            pairs += 1
            a = random_quotient_of_free(alg, 2, rng, dim_cap=8)
            b = random_quotient_of_free(alg, rng.choice([1, 2]), rng, dim_cap=8)
            s, _, _ = direct_sum([a, b])
            da, db, ds = decompose(a), decompose(b), decompose(s)
            # ds's classes first, A's and B's counted against them
            signed = [(rep.module, sign * mult)
                      for d, sign in ((ds, 1), (da, -1), (db, -1))
                      for rep, mult, _ in d.classes]
            groups = iso_classes([mod for mod, _ in signed])
            if len(groups) != len(ds.classes) or \
                    any(sum(signed[i][1] for i in g) for g in groups):
                bad.append(("merge", alg.name))
                continue
            es = ds.idempotents()
            total = Matrix.zero(F2, s.dim, s.dim)
            for e in es:
                if e.mat * e.mat != e.mat or not e.intertwines():
                    bad.append(("idempotent", alg.name))
                total = total + e.mat
            if total != Matrix.identity(F2, s.dim):
                bad.append(("partition", alg.name))
            if any(x.end_dim - x.end_rad_dim < 1 for x in ds.summands):
                bad.append(("local", alg.name))
    lines = [f"pairs\t{pairs} random pairs (dim <= 8) over k[x]/(x^3), two "
             "towers and the double-arrow algebra",
             "idempotents\torthogonal, idempotent, summing to the identity",
             "summands\tcertified indecomposable (local endomorphism rings)"]
    return _result("krull-schmidt", lines, bad)


# -- criterion 4 ---------------------------------------------------------------


@_timed
def suite_classification(seed: int = 0) -> SuiteResult:
    """Every random quotient of a projective classifies with no leftover
    summand; hom bounds and the vanishing hom hold in range."""
    rng = random.Random(seed)
    bad = []
    total = 0
    for height in (1, 2):
        tower = build_tower(2, height, F2)
        for _ in range(100):
            total += 1
            m = random_quotient_of_free(tower.top, rng.choice([1, 2]),
                                        rng, dim_cap=10)
            try:
                out = classify(tower, m)
            except Exception as exc:  # UnclassifiedSummand included
                bad.append((height, repr(exc)))
                continue
            if sum(construct_label(tower, lab).dim * mult
                   for lab, mult in out) != m.dim:
                bad.append((height, "dimension bookkeeping"))
        # hom bounds on every constructible label
        bad.extend((height, "hom bound", lab)
                   for lab in verify_hom_bounds(tower, dim_cap=10)[1])
        # Hom(F1 L, F0 K) vanishes for all K in range at every level
        for lvl in range(1, height + 1):
            f1l = f1(tower, lvl, tower.bimodules[lvl - 1])
            below = build_tower(2, lvl - 1, F2)
            for lab in all_labels(below, dim_cap=8):
                kk = label_module(tower, lab, lvl - 1)
                if hom_space(f1l, f0(tower, lvl, kk)):
                    bad.append((height, f"Hom(F1 L, F0 {lab}) != 0"))
    lines = [f"presentations\t{total} seeded random quotients of projectives "
             "(dim <= 10) at heights 1 and 2, horizon 2",
             "verdicts\tall summands classified, dimensions audited",
             "hom bounds\tdim Hom(L_n, -) <= 1 on every label in range; "
             "Hom(F1 L, F0 K) = 0 on all pairs in range"]
    return _result("classification", lines, bad)


# -- criterion 5 ---------------------------------------------------------------


@_timed
def suite_ray_tube(seed: int = 0) -> SuiteResult:
    """Symbolic ladders commute; realized ladders verify every square as a
    pushout and pullback; stage bimodules are projective by their top."""
    bad = []
    lines = []
    for m, lengths in [(1, (0,)), (2, (1, 0))]:
        q = TranslationQuiver(m, lengths, 5)  # the squares at stages 2..4
        failed = rim_square_failures(q)
        bad.extend((m, what) for what in failed)
        verdict = (f"FAILED: {', '.join(failed)}" if failed
                   else "squares commute, base composes to zero")
        lines.append(f"symbolic\tQ({m}; {','.join(map(str, lengths))}) "
                     f"ladder {verdict}")
    for height in (0, 1, 2):
        rt = realize_in_tower(build_tower(5, height, F2), 3)
        squares, failed = functor_failures(rt)
        if failed:  # the first failed square, and no bimodule
            bad.append((height, failed[0]))
            lines.append(f"realized\theight {height}: {failed[0]}")
            continue
        found, failed = bimodule_failures(rt)
        bad.extend((height, what) for what in failed)
        verdict = (f"MULTIPLICITIES_FAILED: {'; '.join(failed)}" if failed
                   else f"{len(squares)} squares verified "
                   f"pushout+pullback, multiplicities {found}")
        lines.append(f"realized\theight {height}: {verdict}")
    return _result("ray-tube", lines, bad)


# -- criterion 6 ---------------------------------------------------------------


def mesh_tube_failures(q):
    """The mesh checks of one tube: its rule certificate, every path of
    length <= 8 (the leftmost rewritten word is the canonical walk of its
    normal form, and same-ray normal forms descend whole rim loops) and
    the same-ray hom dimensions.  The rule certificate proves that every
    rewrite order reaches the same normal form.  Returns the rule count,
    the path count and the failures, a sweep node's once per word of it."""
    m, lengths = q.m, q.ray_lengths
    n_rules, failed = mesh_rule_failures(q)
    bad = [("rule", m, lengths, mu) for mu in failed]
    paths = 0
    vertices = q.vertices()     # the sweep's vertex ids index this list
    for v, nodes, counts in mesh_sweep(q, 8):
        paths += sum(counts)
        start = vertices[v]
        # each node judged once, its failures counted once per word
        for (left_word, nlam), count in zip(nodes, counts):
            if left_word is ZERO or not count:
                continue
            nmu = len(left_word) - nlam
            walk = normal_walk(q, v, nlam, nmu)
            if walk is None:    # a broken rule can leave the quiver
                bad += [("shape", m, lengths, start)] * count
                continue
            if left_word != walk[0]:
                bad += [("shape", m, lengths, start)] * count
            # a ray-to-ray normal form descends whole rim loops to a
            # stage >= 1
            end = vertices[walk[1]]
            lam_end_stage = end[2] - nmu
            if end[:2] == start[:2] and not (
                    (start[2] - lam_end_stage) % m == 0
                    and lam_end_stage >= 1):
                bad += [("ray-form", m, lengths, start)] * count
    # the ray-direction dimension count
    for (i, k, j) in vertices:
        for l in range(j, q.horizon + 1):
            got = hom_dimension(q, (i, k, j), (i, k, l))
            if got != (j - 1) // m + 1:
                bad.append(("hom-dim", m, lengths, (i, k, j, l)))
    return n_rules, paths, bad


@_timed
def suite_mesh(seed: int = 0) -> SuiteResult:
    """The mesh rule certificate (confluence at every length) and the
    normal-form shapes of every path of length <= 8."""
    bad = []
    paths = 0
    tubes = 0
    rules = 0
    for m in (1, 2, 3):
        for lengths in itertools.product((0, 1, 2), repeat=m):
            tubes += 1
            n_rules, n_paths, failed = mesh_tube_failures(
                TranslationQuiver(m, lengths, 6))
            rules += n_rules
            paths += n_paths
            bad.extend(failed)
    lines = [f"tubes\t{tubes} translation quivers (m <= 3, depths <= 2, "
             "horizon 6)",
             f"paths\t{paths} formal paths of length <= 8 normalized "
             "order-independently",
             f"certificate\t{rules} mesh rules rewrite mu;lam to zero or to "
             "a composable lam';mu' with the same ends; mu;lam has no "
             "self-overlap (no critical pairs) and each rewrite removes one "
             "mu-before-lam inversion, so rewriting is confluent at every "
             "length",
             "shapes\tnormal forms are lambda-walks then mu-climbs; "
             "same-ray dimension matches floor((j-1)/m)+1"]
    return _result("mesh", lines, bad)


# -- criterion 7 ---------------------------------------------------------------


@_timed
def suite_short_probes(seed: int = 0) -> SuiteResult:
    """The double-arrow descending chain is certified non-short; the
    realized stage embeddings are short within bound."""
    bad = []
    kron = kronecker_algebra(F2)
    pres = [kronecker_preprojective(kron, i) for i in range(5)]  # dims 1..9
    chain = [kronecker_step_formula(kron, t) for t in range(4)]
    separators = []
    for hi, lo in zip(chain, chain[1:]):
        if not (lo.implies(hi) and not hi.implies(lo)):
            bad.append("explicit chain not strictly descending")
            continue
        sep = next((p for p in pres
                    if hi.evaluate(p) != lo.evaluate(p)), None)
        if sep is None or sep.dim > 9:
            bad.append("no small separating preprojective")
        else:
            separators.append(sep.label)
    rep = kronecker_probe(pres, 3)
    if rep.verdict != NOT_SHORT_WITNESS or len(rep.chain) - 1 < 3:
        bad.append(f"probe verdict {rep.verdict} with "
                   f"{len(rep.chain) - 1} steps")
    tower = build_tower(5, 1, F2)
    rt = realize_in_tower(tower, 3)
    universe = [rt.modules[(0, l, j)] for l in (0, 1) for j in range(1, 5)]
    # one pool for every stage probe: evaluations are cached per formula
    # object, so a rebuilt pool would evaluate afresh on every module
    pool = theta_pool(universe)
    short_checked = 0
    # the honest interval of the stage-j embedding has about 2j strict
    # steps, so the bound must sit above it for the closure verdict
    for j in (1, 2, 3):
        for emb2 in (rt.maps[Arrow("mu", 0, l, j)] for l in (0, 1)):
            for r in probe_embedding(emb2, universe, budget=10, pool=pool):
                short_checked += 1
                if r.verdict != SHORT_WITHIN_BOUND:
                    bad.append(f"stage embedding at {j}: {r.verdict}")
    lines = [f"chain\tfirst 3 strict steps certified by "
             f"{', '.join(separators)}",
             f"probe\t{rep.verdict} at budget 3 with "
             f"{len(rep.chain) - 1} certified steps",
             f"stage embeddings\t{short_checked} probes, all "
             "SHORT_WITHIN_BOUND (height 1, horizon 5, stages <= 3)"]
    return _result("short-probes", lines, bad)


# -- criterion 8 ---------------------------------------------------------------


def radical_universes(field=F2) -> dict[str, list]:
    """The declared universes of the radical suite, over GF(2) unless
    another field is given."""
    dvr3 = truncated_dvr(3, field)
    kron = kronecker_algebra(field)
    return {
        "chain": [dvr_chain_module(dvr3, 1), dvr_chain_module(dvr3, 2),
                  dvr_chain_module(dvr3, 3),
                  direct_sum([dvr_chain_module(dvr3, 1),
                              dvr_chain_module(dvr3, 2)])[0],
                  direct_sum([dvr_chain_module(dvr3, 1),
                              dvr_chain_module(dvr3, 1)])[0]],
        "double-arrow": [kronecker_preprojective(kron, 0),
                         kronecker_preprojective(kron, 1),
                         kronecker_regular(kron, 0, 1),
                         kronecker_regular(kron, 1, 1)],
    }


@_timed
def suite_radical(seed: int = 0) -> SuiteResult:
    """Structural radical membership agrees with the strict pp-type
    increase criterion, by full enumeration; radical powers stabilize."""
    universes = radical_universes()
    bad = []
    maps_checked = 0
    gen_cache: dict = {}

    def ppgen(mod, vec):
        key = (mod.serial, tuple(vec))
        if key not in gen_cache:
            gen_cache[key] = pp_type_generator_of_element(mod, vec)
        return gen_cache[key]

    for name, universe in universes.items():
        calc = RadicalCalculus(universe)
        for a, b in itertools.product(universe, repeat=2):
            if a.dim > 4 or b.dim > 4:
                continue
            rad = calc.rad(a, b)
            homs = [h.mat for h in hom_space(a, b)]
            for coeffs, mat in span_elements(homs,
                                             Matrix.zero(F2, a.dim, b.dim)):
                fmap = ModuleMap(a, b, mat, check=False)
                maps_checked += 1
                structural = rad.contains_vector(
                    mat.reshape(1, a.dim * b.dim).data[0])
                criterion = True
                for el in a.elements():
                    if all(c == F2.zero() for c in el):
                        continue
                    gen_a = ppgen(a, el)
                    gen_b = ppgen(b, fmap(el))
                    if not gen_b.implies(gen_a) or gen_a.implies(gen_b):
                        criterion = False
                        break
                if structural != criterion:
                    bad.append((name, a.label, b.label, coeffs))
            exp = calc.stabilization_exponent(a, b)
            if exp is None:
                bad.append((name, a.label, b.label, "no stabilization"))
    lines = [f"maps\t{maps_checked} homomorphisms, full enumeration over "
             "GF(2), dims <= 4",
             "criterion\tstructural membership == strict pp-type increase "
             "on every non-zero element",
             "powers\tradical power chains stabilize on both declared "
             "universes"]
    return _result("radical", lines, bad)


# -- criterion 9 ---------------------------------------------------------------


@_timed
def suite_ziegler(seed: int = 0) -> SuiteResult:
    """Closure operator laws on random point sets; the quoted examples."""
    rng = random.Random(seed)
    bad = []
    for _ in range(500):
        n = rng.randint(0, 3)
        s = random_point_set(n, rng)
        t = random_point_set(n, rng)
        cs, ct = closure(s), closure(t)
        if not s.issubset(cs):
            bad.append("extensive")
        if closure(cs) != cs:
            bad.append("idempotent")
        if not cs.issubset(closure(s.union(t))):
            bad.append("monotone")
        if not is_closed(cs.union(ct)):
            bad.append("union-stability")
        if not is_closed(cs.intersection(ct)):
            bad.append("intersection-stability")
    c0 = closure(PointSet.make(0, [], [((0, 0), ())]))
    for pt in (prufer(0, 0, 0), adic(0), qpoint(0)):
        if not c0.contains(pt):
            bad.append("finite-length family rule")
    if str(closure(PointSet.make(0, [prufer(0, 0, 0)]))) != "{Prufer, Q}":
        bad.append("hull rule")
    if str(point_closure(prufer(1, 1, 0))) != "{F0 Prufer, F0 Q}":
        bad.append("point closure")
    if not is_closed(PointSet.make(1, [fin_len(1, 0, 1, 2)])):
        bad.append("finite-length points closed")
    if is_closed(PointSet.make(1, [adic(1)])):
        bad.append("completion point needs the fraction field")
    lines = ["sets\t500 random point sets at heights <= 3",
             "laws\tclosure is extensive, monotone, idempotent; closed sets "
             "stable under union and intersection",
             "examples\tfamily rule, hull rule and point closures reproduce "
             "the quoted sets"]
    return _result("ziegler", lines, bad)


# -- criterion 10 ----------------------------------------------------------------


@_timed
def suite_k_dual(seed: int = 0) -> SuiteResult:
    """Inclusion reversal under the standard dual; double duals."""
    rng = random.Random(seed)
    dvr3 = truncated_dvr(3, F2)
    kron = kronecker_algebra(F2)
    bad = []
    triples = 0
    for alg, universe in ((dvr3, dvr_universe(dvr3, 3)),
                          (kron, kronecker_universe(kron, 3))):
        corpus = [(phi, dual(phi)) for phi in formula_corpus(alg, 15, rng)]
        for m in universe:
            md = k_dual(m)
            if iso_test(k_dual(md), m) is None:
                bad.append(("double dual", m.label))
            for (phi, dphi), (psi, dpsi) in itertools.combinations(corpus, 2):
                triples += 1
                if subspace_leq(phi.evaluate(m), psi.evaluate(m)):
                    if not subspace_leq(dpsi.evaluate(md), dphi.evaluate(md)):
                        bad.append(("inclusion reversal", m.label))
    lines = [f"triples\t{triples} (phi, psi, M) samples over both algebras",
             "reversal\tphi(M) <= psi(M) forces D(psi)(M*) <= D(phi)(M*)",
             "double dual\tisomorphic to the original on every test module"]
    return _result("k-dual", lines, bad)


SUITES = {
    "pp-oracle": suite_pp_oracle,
    "duality": suite_duality,
    "krull-schmidt": suite_krull_schmidt,
    "classification": suite_classification,
    "ray-tube": suite_ray_tube,
    "mesh": suite_mesh,
    "short-probes": suite_short_probes,
    "radical": suite_radical,
    "ziegler": suite_ziegler,
    "k-dual": suite_k_dual,
}

CRITERIA_ORDER = list(SUITES)
