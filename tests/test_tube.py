import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppmod.tube
from ppmod.suites import _normal_form_shape, mesh_tube_failures
from ppmod.tube import (Arrow, NormalPath, ZERO, all_paths_from,
                        build_ray_tube, hom_dimension, mesh_rule_failures,
                        mesh_sweep, normal_path_arrows, normalize_path,
                        parse_tube_descriptor, rim_square_failures)


def test_homogeneous_tube_shape():
    q = build_ray_tube(1, (0,), 5)
    vs = q.vertices()
    assert len(vs) == 5
    arrows = q.arrows()
    mus = [a for a in arrows if a.kind == "mu"]
    lams = [a for a in arrows if a.kind == "lam"]
    assert len(mus) == 4           # stages 1..4 climb
    assert len(lams) == 4          # stages 2..5 descend the rim


def test_vertex_count_per_layer_derived():
    # each stage layer has sum(n_i + 1) vertices
    q = build_ray_tube(2, (1, 0), 6)
    per_layer = {}
    for (i, k, j) in q.vertices():
        per_layer[j] = per_layer.get(j, 0) + 1
    assert all(v == 3 for v in per_layer.values())  # (1+1) + (0+1)


def test_rim_arrow_targets_next_ray():
    q = build_ray_tube(2, (1, 0), 6)
    a = Arrow("lam", 0, 1, 3)   # k = n_0 = 1, stage 3
    assert q.valid_arrow(a)
    assert q.target(a) == (1, 0, 2)
    b = Arrow("lam", 1, 0, 4)   # ray 1 has depth 0: rim immediately
    assert q.target(b) == (0, 0, 3)


def test_mesh_zero_rule():
    q = build_ray_tube(2, (1, 0), 6)
    # lam(i, n_i)[2] o mu(i, n_i)[1] dies
    word = (Arrow("mu", 1, 0, 1), Arrow("lam", 1, 0, 2))
    assert normalize_path(q, (1, 0, 1), word) == ZERO


def test_mesh_commuting_rule():
    q = build_ray_tube(2, (1, 0), 6)
    word = (Arrow("mu", 0, 0, 2), Arrow("lam", 0, 0, 3))
    np = normalize_path(q, (0, 0, 2), word)
    assert np == NormalPath((0, 0, 2), 1, 1)
    # identical endpoints to the rewritten word lam;mu
    assert q.target(normal_path_arrows(q, np)[-1]) == (0, 1, 3)


def test_symbolic_ladder_squares_commute():
    # the ladder squares at depth >= 1, word for word: every k < n_i rule
    # rewrites mu(i,k,j);lam(i,k,j+1) to lam(i,k,j);mu(i,k+1,j)
    for m, lengths in [(1, (1,)), (2, (1, 0)), (2, (2, 1))]:
        q = build_ray_tube(m, lengths, 7)
        for i, n in enumerate(lengths):
            for k, j in itertools.product(range(n), range(1, 7)):
                np = normalize_path(q, (i, k, j), (Arrow("mu", i, k, j),
                                                   Arrow("lam", i, k, j + 1)))
                assert normal_path_arrows(q, np) == [
                    Arrow("lam", i, k, j), Arrow("mu", i, k + 1, j)]


def test_identity_path_normalizes_to_itself():
    q = build_ray_tube(1, (0,), 4)
    np = normalize_path(q, (0, 0, 2), ())
    assert np == NormalPath((0, 0, 2), 0, 0)


def test_confluence_exhaustive_small():
    # order independence: leftmost and rightmost rewriting agree
    for m, lengths in [(1, (0,)), (1, (1,)), (2, (1, 0))]:
        q = build_ray_tube(m, lengths, 5)
        for v in q.vertices():
            for word in all_paths_from(q, v, 6):
                got = normalize_path(q, v, word)
                assert got == _find_strategy(q, v, word, "leftmost")
                assert got == _find_strategy(q, v, word, "rightmost")


def test_normal_form_shape_is_lam_then_mu():
    q = build_ray_tube(2, (1, 1), 6)
    for v in q.vertices():
        for word in all_paths_from(q, v, 5):
            np = normalize_path(q, v, word)
            if np == ZERO:
                continue
            arrows = normal_path_arrows(q, np)
            kinds = [a.kind for a in arrows]
            assert kinds == sorted(kinds)  # all lam before all mu


def test_phi_power_law():
    # mu[j -> j+nm] o lam[j+nm -> j] equals the n-th power of the loop
    q = build_ray_tube(2, (0, 0), 9)
    v = (0, 0, 5)
    # descend two full rims (2m = 4 lam steps), climb back 4: the square of
    # the loop at stage 5
    loop2 = NormalPath(v, 4, 4)
    single = normal_path_arrows(q, NormalPath(v, 2, 2))
    # composing the loop with itself normalizes to the double loop
    tail = normal_path_arrows(
        q, NormalPath(q.target(single[-1]), 2, 2))
    got = normalize_path(q, v, single + tail)
    assert got == loop2


def test_hom_dimension_same_vertex():
    q = build_ray_tube(2, (1, 0), 7)
    for (i, k, j) in q.vertices():
        if j <= q.m:
            assert hom_dimension(q, (i, k, j), (i, k, j)) == 1


def test_hom_dimension_ray_formula_derived():
    # oracle: exhaustively normalize all words and count distinct classes
    q = build_ray_tube(2, (1, 0), 6)
    src, tgt = (0, 0, 3), (0, 0, 5)
    seen = set()
    for word in all_paths_from(q, src, 10):
        last = q.target(word[-1])
        if last != tgt:
            continue
        np = normalize_path(q, src, word)
        if np != ZERO:
            seen.add(np)
    assert len(seen) == hom_dimension(q, src, tgt)
    assert hom_dimension(q, src, tgt) == (3 - 1) // 2 + 1  # floor((j-1)/m)+1


def test_single_rim_lambda_dimension():
    q = build_ray_tube(3, (1, 1, 2), 6)
    for i in range(3):
        src = (i, q.ray_lengths[i], 2)
        tgt = ((i + 1) % 3, 0, 1)
        assert hom_dimension(q, src, tgt) == 1


def test_symbolic_tube_squares_commute():
    # the rim squares at stages 2..6 commute and the base square is zero
    for m, lengths in [(1, (0,)), (2, (1, 0)), (2, (1, 1))]:
        assert rim_square_failures(build_ray_tube(m, lengths, 7)) == []


def test_rim_squares_are_checked_up_to_the_top_stage():
    # the last rim rule, at stage horizon - 1, rewritten to zero breaks
    # the square at that stage alone
    for horizon in (5, 7):
        q = build_ray_tube(2, (1, 0), horizon)
        q._rhs[Arrow("mu", 0, 1, horizon - 1)] = ZERO
        assert rim_square_failures(q) == [f"square at stage {horizon - 1}"]


def test_parse_tube_descriptor():
    q = parse_tube_descriptor("tube m=2 n=[1,0] horizon=6")
    assert q.m == 2 and q.ray_lengths == (1, 0) and q.horizon == 6
    assert parse_tube_descriptor(" horizon=6  n=[1,0] m=2 ").ray_lengths == \
        (1, 0)
    with pytest.raises(ValueError):
        parse_tube_descriptor("m=2 horizon=6")


@pytest.mark.parametrize("text, message", [
    ("m=x n=[0] horizon=6", "needs m=M in whole numbers, not 'm=x'"),
    ("m=\u0662 n=[1,0] horizon=6", "needs m=M in whole numbers"),
    ("m= n=[0] horizon=6", "needs m=M in whole numbers, not 'm='"),
    ("m=-1 n=[0] horizon=6", "needs m=M in whole numbers, not 'm=-1'"),
    ("m=1 n=[a] horizon=6", "not 'n=\\[a\\]'"),
    ("m=2 n=[1,,0] horizon=6", "not 'n=\\[1,,0\\]'"),
    ("m=2 n=[1,0,] horizon=6", "not 'n=\\[1,0,\\]'"),
    ("m=1 n=0 horizon=6", "not 'n=0'"),
    ("m=1 n=[0] horizon=x", "needs horizon=J in whole numbers"),
    ("m=2 n=[1,0] horizon=6 extra", "has 'extra'; the form is"),
    ("m=2 tube n=[1,0] horizon=6", "has 'tube'; the form is"),
    ("m=2 n=[1, 0] horizon=6", "not 'n=\\[1,'"),
    ("m=2 n=[1,0] depth=6", "has 'depth=6'"),
], ids=["m-x", "m-arabic-indic", "m-empty", "m-negative", "n-a",
        "n-empty-entry", "n-trailing-comma", "n-no-brackets", "horizon-x",
        "extra-word", "inner-tube", "n-spaced", "unknown-key"])
def test_malformed_tube_descriptor_is_refused(text, message):
    # values are ASCII digits, and every word is a known key or the
    # optional leading 'tube'
    with pytest.raises(ValueError, match=message):
        parse_tube_descriptor(text)


def test_dot_export_contains_relations():
    q = build_ray_tube(1, (0,), 3)
    dot = q.dot()
    assert dot.startswith("digraph")
    assert "lam o mu = 0" in dot


def test_arrow_on_ray_outside_range_is_invalid():
    q = build_ray_tube(2, (1, 0), 6)
    a = Arrow("mu", 5, 0, 1)
    assert not q.valid_arrow(a)
    assert a not in q.arrows()
    with pytest.raises(ValueError):
        q.target(a)


def test_normalize_path_rejects_a_rule_for_an_arrow_not_in_the_quiver():
    q = build_ray_tube(2, (1, 0), 6)
    word = (Arrow("mu", 5, 0, 1), Arrow("lam", 0, 0, 2))
    with pytest.raises(ValueError, match="not an arrow of the quiver"):
        normalize_path(q, (0, 0, 1), word)


@pytest.mark.parametrize("word, message", [
    ((Arrow("lam", 1, 0, 4),),
     "arrow 0 of the word, lam(1,0)[4], starts at (1, 0, 4), not at "
     "(0, 0, 1)"),
    ((Arrow("mu", 0, 0, 1), Arrow("mu", 0, 0, 1)),
     "arrow 1 of the word, mu(0,0)[1], starts at (0, 0, 1), not at "
     "(0, 0, 2)"),
], ids=["not-at-start", "not-composable"])
def test_normalize_path_refuses_a_word_that_does_not_compose(word, message):
    q = build_ray_tube(2, (1, 0), 6)
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize_path(q, (0, 0, 1), word)


def test_normalize_path_refuses_a_start_off_the_quiver():
    q = build_ray_tube(2, (1, 0), 6)
    with pytest.raises(ValueError, match="not a vertex"):
        normalize_path(q, (5, 0, 1), ())


def test_target_of_missing_rim_arrow_raises():
    q = build_ray_tube(2, (1, 0), 6)
    a = Arrow("lam", 0, 1, 1)   # rim descent from stage 1 does not exist
    assert not q.valid_arrow(a)
    with pytest.raises(ValueError):
        q.target(a)


# -- an independent reference for the compiled tables ------------------------
#
# Written from the arrow formulas and rewriting rules of the tube module's
# docstring, on plain tuples, without the quiver's tables.


def _ref_out(m, n, horizon, v):
    """(mu, lam) leaving v, each as ((kind, i, k, j), target) or None."""
    i, k, j = v
    mu = (("mu", i, k, j), (i, k, j + 1)) if j < horizon else None
    if k < n[i]:
        lam = (("lam", i, k, j), (i, k + 1, j))
    elif j >= 2:
        lam = (("lam", i, k, j), ((i + 1) % m, 0, j - 1))
    else:
        lam = None
    return mu, lam


def _ref_rule(m, n, mu):
    """The right-hand side of the rule for mu;lam: ZERO or (lam', mu')."""
    _, i, k, j = mu
    if k < n[i]:
        return ("lam", i, k, j), ("mu", i, k + 1, j)
    if j == 1:
        return ZERO
    return ("lam", i, k, j), ("mu", (i + 1) % m, 0, j - 1)


def _ref_normalize(m, n, word):
    """Leftmost rewriting; ZERO or (lam_steps, mu_steps)."""
    word = list(word)
    while True:
        redex = next((t for t in range(len(word) - 1)
                      if word[t][0] == "mu" and word[t + 1][0] == "lam"),
                     None)
        if redex is None:
            lam = sum(1 for a in word if a[0] == "lam")
            return lam, len(word) - lam
        rhs = _ref_rule(m, n, word[redex])
        if rhs is ZERO:
            return ZERO
        word[redex:redex + 2] = rhs


@st.composite
def _tube_and_word(draw):
    m = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    horizon = draw(st.integers(2, 7))
    i = draw(st.integers(0, m - 1))
    start = (i, draw(st.integers(0, n[i])), draw(st.integers(1, horizon)))
    word, v = [], start
    for _ in range(draw(st.integers(0, 10))):
        steps = [s for s in _ref_out(m, n, horizon, v) if s is not None]
        if not steps:
            break
        arrow, v = draw(st.sampled_from(steps))
        word.append(arrow)
    return m, n, horizon, start, word


@settings(max_examples=300, deadline=None)
@given(_tube_and_word())
def test_compiled_tables_match_reference(case):
    m, n, horizon, start, word = case
    q = build_ray_tube(m, n, horizon)
    ref_vertices = [(i, k, j) for i in range(m) for k in range(n[i] + 1)
                    for j in range(1, horizon + 1)]
    assert q.vertices() == ref_vertices
    ref_arrows = []
    for v in ref_vertices:
        mu, lam = _ref_out(m, n, horizon, v)
        for got, ref in zip(q._outgoing(v), (mu, lam)):
            if ref is None:
                assert got is None
            else:
                assert got == Arrow(*ref[0])
                assert q.target(got) == ref[1]
                ref_arrows.append(ref[0])
    assert q.arrows() == [Arrow(*a) for a in ref_arrows]
    ref_rhs = {}
    for mu in ref_arrows:
        if mu[0] == "mu":
            rhs = _ref_rule(m, n, mu)
            ref_rhs[Arrow(*mu)] = rhs if rhs is ZERO else \
                tuple(Arrow(*a) for a in rhs)
    assert q._rhs == ref_rhs

    arrows = tuple(Arrow(*a) for a in word)
    if word:
        assert q.source(arrows[0]) == start
        assert all(q.target(a) == q.source(b)
                   for a, b in zip(arrows, arrows[1:]))
    expected = _ref_normalize(m, n, word)
    if expected != ZERO:
        expected = NormalPath(start, *expected)
    assert normalize_path(q, start, arrows) == expected


def test_mesh_rule_certificate_flags_a_broken_rule():
    q = build_ray_tube(2, (1, 0), 6)
    count, failed = mesh_rule_failures(q)
    assert count == sum(1 for a in q.arrows() if a.kind == "mu")
    assert failed == []
    mu = Arrow("mu", 0, 0, 2)
    lam, _ = q._rhs[mu]
    q._rhs[mu] = (lam, Arrow("mu", 0, 0, 2))   # wrong climb after lam
    assert mesh_rule_failures(q) == (count, [mu])


def test_mesh_rule_certificate_flags_a_misplaced_zero():
    q = build_ray_tube(2, (1, 0), 6)
    count, _ = mesh_rule_failures(q)
    rim = Arrow("mu", 0, 1, 1)           # stage-1 rim: the only ZERO rules
    assert q._rhs[rim] is ZERO and q.out_lam((0, 1, 1)) is None
    mu = Arrow("mu", 0, 1, 3)            # a rim rule with a lam' to use
    q._rhs[mu] = ZERO
    assert mesh_rule_failures(q) == (count, [mu])
    _, _, bad = mesh_tube_failures(q)
    assert ("rule", 2, (1, 0), mu) in bad
    q = build_ray_tube(2, (1, 0), 6)
    q._rhs[rim] = q._rhs[Arrow("mu", 0, 1, 2)]  # nonzero on the rim
    assert mesh_rule_failures(q) == (count, [rim])


SWEPT_TUBES = [(1, (0,)), (1, (2,)), (2, (1, 0)), (2, (2, 2)),
               (3, (0, 1, 2)), (3, (2, 2, 2))]


@pytest.mark.parametrize("m, lengths", SWEPT_TUBES)
def test_mesh_sweep_matches_normalize_path(m, lengths):
    q = build_ray_tube(m, lengths, 6)
    swept = list(mesh_sweep(q, 6))
    assert [v for v, *_ in swept] == q.vertices()
    for v, nodes, counts in swept:
        words = list(all_paths_from(q, v, 6))
        assert counts[0] == 0 and sum(counts) == len(words)
        # each word's (leftmost word, normal form), with multiplicity; the
        # ZERO nodes of different end vertices add up
        weighed = Counter()
        for node, count in zip(nodes, counts):
            weighed[node] += count
        assert Counter((_leftmost_word(q, w), normalize_path(q, v, w))
                       for w in words) == weighed
        for left_word, left in nodes:
            if left is not ZERO:
                assert list(left_word) == normal_path_arrows(q, left)


def test_mesh_sweep_weighs_each_node_by_its_words():
    q = build_ray_tube(3, (2, 2, 2), 6)
    for v, nodes, counts in mesh_sweep(q, 8):
        words = Counter(_leftmost_word(q, w) for w in all_paths_from(q, v, 8))
        nonzero = [(left_word, c) for (left_word, left), c
                   in zip(nodes[1:], counts[1:]) if left is not ZERO]
        # a nonzero leftmost word fixes its end vertex: one node each
        assert len({left_word for left_word, _ in nonzero}) == len(nonzero)
        assert all(c == words[left_word] for left_word, c in nonzero)
        assert sum(counts) > len(nodes)


SUITE_TUBES = [(m, lengths) for m in (1, 2, 3)
               for lengths in itertools.product((0, 1, 2), repeat=m)]


def test_mesh_sweep_work_on_the_suite_tubes(monkeypatch):
    # each node is rewritten once; the pins are the suite's own counts
    calls = []
    append = ppmod.tube._append
    monkeypatch.setattr(ppmod.tube, "_append",
                        lambda *args: calls.append(None) or append(*args))
    nodes = words = 0
    for m, lengths in SUITE_TUBES:
        for _, swept, counts in mesh_sweep(build_ray_tube(m, lengths, 6), 8):
            nodes += len(swept) - 1     # node 0, the empty word, is not swept
            words += sum(counts)
    assert (len(SUITE_TUBES), nodes, len(calls), words) == \
        (39, 30_980, 40_683, 309_816)


def test_mesh_tube_check_flags_a_broken_rule():
    q = build_ray_tube(2, (1, 0), 6)
    rules, paths, bad = mesh_tube_failures(q)
    assert (rules, bad) == (15, [])
    assert paths == sum(1 for v in q.vertices()
                        for _ in all_paths_from(q, v, 8))
    mu = Arrow("mu", 0, 0, 2)
    lam, _ = q._rhs[mu]
    q._rhs[mu] = (lam, Arrow("mu", 0, 0, 2))   # wrong climb after lam
    _, _, bad = mesh_tube_failures(q)
    kinds = {kind for kind, *_ in bad}
    # the sweep itself sees the wrong arrow, not only the rule certificate
    assert {"rule", "shape"} <= kinds


def _find_strategy(q, start, arrows, strategy):
    """Rewriting with each redex found by str.find ("leftmost") or
    str.rfind ("rightmost"), as a reference for normalize_path."""
    find = str.find if strategy == "leftmost" else str.rfind
    word, kinds = list(arrows), "".join(a.kind[0] for a in arrows)
    while (t := find(kinds, "ml")) >= 0:
        rhs = q._rhs[word[t]]
        if rhs is ZERO:
            return ZERO
        word[t], word[t + 1] = rhs
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"
    nlam = kinds.count("l")
    return NormalPath(start, nlam, len(kinds) - nlam)


class _RecordingRules(dict):
    """A rule table that logs the mu arrow of every rule looked up."""

    def __getitem__(self, mu):
        self.log.append(mu)
        return super().__getitem__(mu)


def test_redex_table_matches_find_on_every_short_word():
    q = build_ray_tube(2, (1, 1), 6)
    q._rhs = rules = _RecordingRules(q._rhs)
    orders_differ = 0
    for v in q.vertices():
        for word in all_paths_from(q, v, 7):
            rules.log = []
            got = normalize_path(q, v, word)
            got_log, rules.log = rules.log, []
            assert got == _find_strategy(q, v, word, "leftmost")
            # the same rewrites, in the same order
            assert got_log == rules.log
            rules.log = []
            assert got == _find_strategy(q, v, word, "rightmost")
            orders_differ += got_log != rules.log
    assert orders_differ > 0


# -- the per-word mesh check, as an oracle for the sweep by node -------------


def _leftmost_word(q, word):
    """The word that leftmost rewriting leaves, or ZERO."""
    word, kinds = list(word), "".join(a.kind[0] for a in word)
    while (t := kinds.find("ml")) >= 0:
        rhs = q._rhs[word[t]]
        if rhs is ZERO:
            return ZERO
        word[t], word[t + 1] = rhs
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"
    return tuple(word)


def _per_word_mesh_failures(q):
    """The mesh checks of mesh_tube_failures one word at a time, each word
    normalized from scratch."""
    m, lengths = q.m, q.ray_lengths
    n_rules, failed = mesh_rule_failures(q)
    bad = [("rule", m, lengths, mu) for mu in failed]
    paths = 0
    for v in q.vertices():
        shapes = {}
        for word in all_paths_from(q, v, 8):
            paths += 1
            left = normalize_path(q, v, word)
            left_word = _leftmost_word(q, word)
            if left is ZERO:
                continue
            shape = shapes.get(left)
            if shape is None:
                shape = shapes[left] = _normal_form_shape(q, left)
            walk, ray_form = shape
            if left_word != walk:
                bad.append(("shape", m, lengths, v))
            if not ray_form:
                bad.append(("ray-form", m, lengths, v))
    for (i, k, j) in q.vertices():
        for l in range(j, q.horizon + 1):
            got = hom_dimension(q, (i, k, j), (i, k, l))
            if got != (j - 1) // m + 1:
                bad.append(("hom-dim", m, lengths, (i, k, j, l)))
    return n_rules, paths, bad


def _as_multiset(result):
    """A mesh check's (rules, paths, failures) with the failures as a
    multiset: the sweep lists them node by node, the oracle word by word."""
    rules, paths, bad = result
    return rules, paths, Counter(bad)


def _wrong_climb(q):
    mu = Arrow("mu", 0, 0, 2)
    q._rhs[mu] = (q._rhs[mu][0], mu)


def _misplaced_zero(q):
    q._rhs[Arrow("mu", 0, 1, 3)] = ZERO


def _nonzero_rim(q):
    q._rhs[Arrow("mu", 0, 1, 1)] = q._rhs[Arrow("mu", 0, 1, 2)]


def _rim_to_own_ray(q):
    # the rim lam of ray 0 at stage 3 lands on ray 0, one stage down
    q._target[Arrow("lam", 0, 1, 3)] = (0, 0, 2)


@pytest.mark.parametrize("m, lengths, plant", [
    *((m, lengths, None) for m, lengths in SWEPT_TUBES),
    (2, (1, 0), _wrong_climb), (2, (1, 0), _misplaced_zero),
    (2, (1, 0), _nonzero_rim), (2, (1, 0), _rim_to_own_ray)])
def test_mesh_check_by_node_matches_the_per_word_check(m, lengths, plant):
    results = []
    for check in (mesh_tube_failures, _per_word_mesh_failures):
        q = build_ray_tube(m, lengths, 6)
        if plant is not None:
            plant(q)
        results.append(check(q))
    assert _as_multiset(results[0]) == _as_multiset(results[1])
    _, _, bad = results[0]
    assert bool(bad) == (plant is not None)


# -- planted defects for the "confluent" verdict -----------------------------


def _single_rule_mutations(q):
    """Every single-rule change of q's table of the three planted kinds:
    ZERO on each mu that has a lam', nonzero on each stage-1 rim mu, and
    each mu given every other mu's different right-hand side."""
    rules = q._rhs
    zeros = {(mu, ZERO) for mu, rhs in rules.items() if rhs is not ZERO}
    nonzero_rims = {(mu, rhs) for mu in rules if rules[mu] is ZERO
                    for rhs in rules.values() if rhs is not ZERO}
    swaps = {(mu, rhs) for mu in rules for rhs in rules.values()
             if rhs != rules[mu]}
    assert zeros and nonzero_rims and zeros | nonzero_rims <= swaps
    return sorted(swaps, key=str)


def test_every_single_rule_mutation_fails_the_certificate():
    q = build_ray_tube(2, (1, 0), 6)
    count = len(q._rhs)
    mutations = _single_rule_mutations(q)
    assert len(mutations) == count * (len(set(q._rhs.values())) - 1)
    for t, (mu, rhs) in enumerate(mutations):
        q = build_ray_tube(2, (1, 0), 6)
        q._rhs[mu] = rhs
        assert mesh_rule_failures(q) == (count, [mu])
        result = mesh_tube_failures(q)
        _, _, bad = result
        assert [b for b in bad if b[0] == "rule"] == [("rule", 2, (1, 0), mu)]
        if t % 15 == 0:     # a spread sample: the oracle is slow
            assert _as_multiset(_per_word_mesh_failures(q)) == \
                _as_multiset(result)
