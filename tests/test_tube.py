import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppmod.tube
from ppmod.suites import mesh_tube_failures
from ppmod.tube import (Arrow, NormalPath, TranslationQuiver, ZERO,
                        all_paths_from, hom_dimension, mesh_rule_failures,
                        mesh_sweep, normal_path_arrows, normalize_path,
                        parse_tube_descriptor, rim_square_failures)


# -- the quiver's id tables, read and written as the tests need them ---------


def _plant(q, table, x, value):
    """Write value at id x of q's id table (a tuple): a planted defect."""
    entries = list(getattr(q, table))
    entries[x] = value
    setattr(q, table, tuple(entries))


def _rule(q, mu):
    """The id-table rule of the mu arrow: ZERO or (lam' id, mu' id)."""
    return q._rhs[q._arrow_id[mu]]


def _set_rule(q, mu, rule):
    _plant(q, "_rhs", q._arrow_id[mu], rule)


def _arrow_word(q, word):
    """An id word as Arrows (ZERO stays ZERO)."""
    return word if word is ZERO else tuple(q._arrows[x] for x in word)


def test_homogeneous_tube_shape():
    q = TranslationQuiver(1, (0,), 5)
    vs = q.vertices()
    assert len(vs) == 5
    arrows = q.arrows()
    mus = [a for a in arrows if a.kind == "mu"]
    lams = [a for a in arrows if a.kind == "lam"]
    assert len(mus) == 4           # stages 1..4 climb
    assert len(lams) == 4          # stages 2..5 descend the rim


def test_vertex_count_per_layer_derived():
    # each stage layer has sum(n_i + 1) vertices
    q = TranslationQuiver(2, (1, 0), 6)
    per_layer = {}
    for (i, k, j) in q.vertices():
        per_layer[j] = per_layer.get(j, 0) + 1
    assert all(v == 3 for v in per_layer.values())  # (1+1) + (0+1)


def test_rim_arrow_targets_next_ray():
    q = TranslationQuiver(2, (1, 0), 6)
    a = Arrow("lam", 0, 1, 3)   # k = n_0 = 1, stage 3
    assert a in q.arrows()
    assert q.target(a) == (1, 0, 2)
    b = Arrow("lam", 1, 0, 4)   # ray 1 has depth 0: rim immediately
    assert q.target(b) == (0, 0, 3)


def test_mesh_zero_rule():
    q = TranslationQuiver(2, (1, 0), 6)
    # lam(i, n_i)[2] o mu(i, n_i)[1] dies
    word = (Arrow("mu", 1, 0, 1), Arrow("lam", 1, 0, 2))
    assert normalize_path(q, (1, 0, 1), word) == ZERO


def test_mesh_commuting_rule():
    q = TranslationQuiver(2, (1, 0), 6)
    word = (Arrow("mu", 0, 0, 2), Arrow("lam", 0, 0, 3))
    np = normalize_path(q, (0, 0, 2), word)
    assert np == NormalPath((0, 0, 2), 1, 1)
    # identical endpoints to the rewritten word lam;mu
    assert q.target(normal_path_arrows(q, np)[-1]) == (0, 1, 3)


def test_symbolic_ladder_squares_commute():
    # the ladder squares at depth >= 1, word for word: every k < n_i rule
    # rewrites mu(i,k,j);lam(i,k,j+1) to lam(i,k,j);mu(i,k+1,j)
    for m, lengths in [(1, (1,)), (2, (1, 0)), (2, (2, 1))]:
        q = TranslationQuiver(m, lengths, 7)
        for i, n in enumerate(lengths):
            for k, j in itertools.product(range(n), range(1, 7)):
                np = normalize_path(q, (i, k, j), (Arrow("mu", i, k, j),
                                                   Arrow("lam", i, k, j + 1)))
                assert normal_path_arrows(q, np) == [
                    Arrow("lam", i, k, j), Arrow("mu", i, k + 1, j)]


def test_identity_path_normalizes_to_itself():
    q = TranslationQuiver(1, (0,), 4)
    np = normalize_path(q, (0, 0, 2), ())
    assert np == NormalPath((0, 0, 2), 0, 0)


def test_confluence_exhaustive_small():
    # order independence: leftmost and rightmost rewriting agree
    for m, lengths in [(1, (0,)), (1, (1,)), (2, (1, 0))]:
        q = TranslationQuiver(m, lengths, 5)
        for v in q.vertices():
            for word in all_paths_from(q, v, 6):
                got = normalize_path(q, v, word)
                assert got == _find_strategy(q, v, word, "leftmost")
                assert got == _find_strategy(q, v, word, "rightmost")


def test_normal_form_shape_is_lam_then_mu():
    q = TranslationQuiver(2, (1, 1), 6)
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
    q = TranslationQuiver(2, (0, 0), 9)
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
    q = TranslationQuiver(2, (1, 0), 7)
    for (i, k, j) in q.vertices():
        if j <= q.m:
            assert hom_dimension(q, (i, k, j), (i, k, j)) == 1


def test_hom_dimension_ray_formula_derived():
    # oracle: exhaustively normalize all words and count distinct classes
    q = TranslationQuiver(2, (1, 0), 6)
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
    q = TranslationQuiver(3, (1, 1, 2), 6)
    for i in range(3):
        src = (i, q.ray_lengths[i], 2)
        tgt = ((i + 1) % 3, 0, 1)
        assert hom_dimension(q, src, tgt) == 1


def test_symbolic_tube_squares_commute():
    # the rim squares at stages 2..6 commute and the base square is zero
    for m, lengths in [(1, (0,)), (2, (1, 0)), (2, (1, 1))]:
        assert rim_square_failures(TranslationQuiver(m, lengths, 7)) == []


def test_rim_squares_are_checked_up_to_the_top_stage():
    # the last rim rule, at stage horizon - 1, rewritten to zero breaks
    # the square at that stage alone
    for horizon in (5, 7):
        q = TranslationQuiver(2, (1, 0), horizon)
        _set_rule(q, Arrow("mu", 0, 1, horizon - 1), ZERO)
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
    q = TranslationQuiver(1, (0,), 3)
    dot = q.dot()
    assert dot.startswith("digraph")
    assert "lam o mu = 0" in dot


def test_arrow_on_ray_outside_range_is_invalid():
    q = TranslationQuiver(2, (1, 0), 6)
    a = Arrow("mu", 5, 0, 1)
    assert a not in q.arrows()
    with pytest.raises(ValueError):
        q.target(a)


def test_normalize_path_rejects_a_rule_for_an_arrow_not_in_the_quiver():
    q = TranslationQuiver(2, (1, 0), 6)
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
    q = TranslationQuiver(2, (1, 0), 6)
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize_path(q, (0, 0, 1), word)


def test_normalize_path_refuses_a_start_off_the_quiver():
    q = TranslationQuiver(2, (1, 0), 6)
    with pytest.raises(ValueError, match="not a vertex"):
        normalize_path(q, (5, 0, 1), ())


def test_target_of_missing_rim_arrow_raises():
    q = TranslationQuiver(2, (1, 0), 6)
    a = Arrow("lam", 0, 1, 1)   # rim descent from stage 1 does not exist
    assert a not in q.arrows()
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
    q = TranslationQuiver(m, n, horizon)
    ref_vertices = [(i, k, j) for i in range(m) for k in range(n[i] + 1)
                    for j in range(1, horizon + 1)]
    assert q.vertices() == ref_vertices
    ref_arrows = []
    for v in ref_vertices:
        mu, lam = _ref_out(m, n, horizon, v)
        for got, ref in zip(q._out[q._vertex_id[v]], (mu, lam)):
            if ref is None:
                assert got is None
            else:
                assert q._arrows[got] == Arrow(*ref[0])
                assert q._vertices[q._target[got]] == ref[1]
                assert q.target(q._arrows[got]) == ref[1]
                ref_arrows.append(ref[0])
    assert q.arrows() == [Arrow(*a) for a in ref_arrows]
    ref_rhs = {}
    for mu in ref_arrows:
        if mu[0] == "mu":
            rhs = _ref_rule(m, n, mu)
            ref_rhs[Arrow(*mu)] = rhs if rhs is ZERO else \
                tuple(Arrow(*a) for a in rhs)
    # the rule table through the id map: a rule per mu, None for a lam
    assert len(q._rhs) == len(ref_arrows)
    assert {q._arrows[x]: _arrow_word(q, rhs) for x, rhs in enumerate(q._rhs)
            if rhs is not None} == ref_rhs
    assert all((rhs is None) == (a.kind == "lam")
               for a, rhs in zip(q._arrows, q._rhs))

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
    q = TranslationQuiver(2, (1, 0), 6)
    count, failed = mesh_rule_failures(q)
    assert count == sum(1 for a in q.arrows() if a.kind == "mu")
    assert failed == []
    mu = Arrow("mu", 0, 0, 2)
    lam, _ = _rule(q, mu)
    _set_rule(q, mu, (lam, q._arrow_id[mu]))   # wrong climb after lam
    assert mesh_rule_failures(q) == (count, [mu])


def test_mesh_rule_certificate_flags_a_misplaced_zero():
    q = TranslationQuiver(2, (1, 0), 6)
    count, _ = mesh_rule_failures(q)
    rim = Arrow("mu", 0, 1, 1)           # stage-1 rim: the only ZERO rules
    assert _rule(q, rim) is ZERO and q.out_lam((0, 1, 1)) is None
    mu = Arrow("mu", 0, 1, 3)            # a rim rule with a lam' to use
    _set_rule(q, mu, ZERO)
    assert mesh_rule_failures(q) == (count, [mu])
    _, _, bad = mesh_tube_failures(q)
    assert ("rule", 2, (1, 0), mu) in bad
    q = TranslationQuiver(2, (1, 0), 6)
    _set_rule(q, rim, _rule(q, Arrow("mu", 0, 1, 2)))  # nonzero on the rim
    assert mesh_rule_failures(q) == (count, [rim])


SWEPT_TUBES = [(1, (0,)), (1, (2,)), (2, (1, 0)), (2, (2, 2)),
               (3, (0, 1, 2)), (3, (2, 2, 2))]


def _arrow_nodes(q, v, nodes):
    """The sweep's nodes from vertex id v as (leftmost Arrow word, normal
    form), ZERO for both of a zero node."""
    return [(ZERO, ZERO) if word is ZERO else
            (_arrow_word(q, word), NormalPath(q._vertices[v], nlam,
                                              len(word) - nlam))
            for word, nlam in nodes]


@pytest.mark.parametrize("m, lengths", SWEPT_TUBES)
def test_mesh_sweep_matches_normalize_path(m, lengths):
    q = TranslationQuiver(m, lengths, 6)
    swept = list(mesh_sweep(q, 6))
    assert [q._vertices[v] for v, *_ in swept] == q.vertices()
    for v, nodes, counts in swept:
        nodes = _arrow_nodes(q, v, nodes)
        v = q._vertices[v]
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
    q = TranslationQuiver(3, (2, 2, 2), 6)
    for v, nodes, counts in mesh_sweep(q, 8):
        nodes = _arrow_nodes(q, v, nodes)
        words = Counter(_leftmost_word(q, w)
                        for w in all_paths_from(q, q._vertices[v], 8))
        nonzero = [(left_word, c) for (left_word, left), c
                   in zip(nodes[1:], counts[1:]) if left is not ZERO]
        # a nonzero leftmost word fixes its end vertex: one node each
        assert len({left_word for left_word, _ in nonzero}) == len(nonzero)
        assert all(c == words[left_word] for left_word, c in nonzero)
        assert sum(counts) > len(nodes)


SUITE_TUBES = [(m, lengths) for m in (1, 2, 3)
               for lengths in itertools.product((0, 1, 2), repeat=m)]


@pytest.mark.parametrize("m, lengths", SUITE_TUBES)
def test_id_tables_agree_with_the_arrow_api(m, lengths):
    q = TranslationQuiver(m, lengths, 6)
    vertices, arrows = q.vertices(), q.arrows()
    assert (list(q._vertices), list(q._arrows)) == (vertices, arrows)
    assert q._vertex_id == {v: x for x, v in enumerate(vertices)}
    assert q._arrow_id == {a: x for x, a in enumerate(arrows)}
    assert len(q._target) == len(q._rhs) == len(arrows)
    for x, a in enumerate(arrows):
        assert q.target(a) == q._vertices[q._target[x]]
        # the arrow leaves its source on its kind's side: mu 0, lam 1
        assert q._out[q._vertex_id[q.source(a)]][a.kind == "lam"] == x
    assert len(q._out) == len(vertices)
    for v, (mu, lam) in zip(vertices, q._out):
        assert q.out_lam(v) == (None if lam is None else q._arrows[lam])
        assert mu is None or q._arrows[mu] == Arrow("mu", *v)


def _stepped_walk(q, v, steps, side):
    """Up to steps arrows of one kind from v, stepped on the Arrow API."""
    walk, arrows = [], set(q.arrows())
    for _ in range(steps):
        a = q.out_lam(v) if side == "lam" else Arrow("mu", *v)
        if a is None or a not in arrows:
            break
        walk.append(a)
        v = q.target(a)
    return walk, v


@pytest.mark.parametrize("m, lengths, plant", [
    (1, (0,), None), (2, (1, 0), None), (3, (0, 1, 2), None),
    (2, (1, 0), "rim-to-own-ray")])
def test_normal_walks_match_stepping_the_arrows(m, lengths, plant):
    # every normal form's walk, within the quiver and one step past it,
    # against stepping out_lam and the mu arrows; the planted rim target
    # makes two lam arrows enter one vertex
    q = TranslationQuiver(m, lengths, 6)
    if plant:
        _rim_to_own_ray(q)
    reach = len(q.vertices()) + 1
    for v in q.vertices():
        lams, _ = _stepped_walk(q, v, reach, "lam")
        for a in range(len(lams) + 2):
            lam_part, end = _stepped_walk(q, v, a, "lam")
            climb, _ = _stepped_walk(q, end, reach, "mu")
            for b in range(len(climb) + 2):
                np = NormalPath(v, a, b)
                if a > len(lams) or b > len(climb):
                    with pytest.raises(ValueError, match="leaves the quiver"):
                        normal_path_arrows(q, np)
                else:
                    assert normal_path_arrows(q, np) == lam_part + climb[:b]


@pytest.mark.parametrize("np", [NormalPath((0, 0, 3), -2, 0),
                                NormalPath((0, 0, 3), 0, -1),
                                NormalPath((0, 0, 3), -1, 2)], ids=str)
def test_normal_path_arrows_refuses_a_negative_step_count(np):
    q = TranslationQuiver(1, (0,), 6)
    with pytest.raises(ValueError, match="negative step count"):
        normal_path_arrows(q, np)


def test_mesh_sweep_work_on_the_suite_tubes(monkeypatch):
    # each node is rewritten once; the pins are the suite's own counts
    calls = []
    append = ppmod.tube._append
    monkeypatch.setattr(ppmod.tube, "_append",
                        lambda *args: calls.append(None) or append(*args))
    nodes = words = 0
    for m, lengths in SUITE_TUBES:
        q = TranslationQuiver(m, lengths, 6)
        for _, swept, counts in mesh_sweep(q, 8):
            nodes += len(swept) - 1     # node 0, the empty word, is not swept
            words += sum(counts)
    assert (len(SUITE_TUBES), nodes, len(calls), words) == \
        (39, 30_980, 40_683, 309_816)


def test_mesh_tube_check_flags_a_broken_rule():
    q = TranslationQuiver(2, (1, 0), 6)
    rules, paths, bad = mesh_tube_failures(q)
    assert (rules, bad) == (15, [])
    assert paths == sum(1 for v in q.vertices()
                        for _ in all_paths_from(q, v, 8))
    mu = Arrow("mu", 0, 0, 2)
    lam, _ = _rule(q, mu)
    _set_rule(q, mu, (lam, q._arrow_id[mu]))   # wrong climb after lam
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
        rhs = _rule(q, word[t])
        if rhs is ZERO:
            return ZERO
        word[t], word[t + 1] = _arrow_word(q, rhs)
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"
    nlam = kinds.count("l")
    return NormalPath(start, nlam, len(kinds) - nlam)


class _RecordingRules(tuple):
    """A rule table that logs the mu arrow id of every rule looked up."""

    def __getitem__(self, mu):
        self.log.append(mu)
        return super().__getitem__(mu)


def test_redex_table_matches_find_on_every_short_word():
    q = TranslationQuiver(2, (1, 1), 6)
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
        rhs = _rule(q, word[t])
        if rhs is ZERO:
            return ZERO
        word[t], word[t + 1] = _arrow_word(q, rhs)
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"
    return tuple(word)


def _normal_form_shape(q, nf):
    """The Arrows of a normal form's canonical walk (None if it leaves the
    quiver), and whether a ray-to-ray normal form descends whole rim loops
    to a stage >= 1."""
    try:
        walk = tuple(normal_path_arrows(q, nf))
    except ValueError:
        return None, True
    v = nf.start
    end = q.target(walk[-1]) if walk else v
    if end[:2] != v[:2]:
        return walk, True
    lam_end_stage = end[2] - nf.mu_steps
    return walk, (v[2] - lam_end_stage) % q.m == 0 and lam_end_stage >= 1


def _per_word_mesh_failures(q):
    """The mesh checks of mesh_tube_failures one word at a time, each word
    normalized from scratch and its normal form's walk built by the
    Arrow-level normal_path_arrows."""
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
    _set_rule(q, mu, (_rule(q, mu)[0], q._arrow_id[mu]))


def _misplaced_zero(q):
    _set_rule(q, Arrow("mu", 0, 1, 3), ZERO)


def _nonzero_rim(q):
    _set_rule(q, Arrow("mu", 0, 1, 1), _rule(q, Arrow("mu", 0, 1, 2)))


def _rim_to_own_ray(q):
    # the rim lam of ray 0 at stage 3 lands on ray 0, one stage down
    _plant(q, "_target", q._arrow_id[Arrow("lam", 0, 1, 3)],
           q._vertex_id[(0, 0, 2)])


def test_mesh_rule_certificate_flags_rules_around_a_misrouted_rim_arrow():
    # lam(0,1,3) planted onto ray 0: the rule at mu(0,1,2) still names the
    # canonical lam';mu' but no longer ends where mu;lam does, and the rule
    # at mu(0,1,3) climbs from the wrong vertex
    q = TranslationQuiver(2, (1, 0), 6)
    _rim_to_own_ray(q)
    assert mesh_rule_failures(q) == (15, [Arrow("mu", 0, 1, 2),
                                          Arrow("mu", 0, 1, 3)])


@pytest.mark.parametrize("m, lengths, plant", [
    *((m, lengths, None) for m, lengths in SWEPT_TUBES),
    (2, (1, 0), _wrong_climb), (2, (1, 0), _misplaced_zero),
    (2, (1, 0), _nonzero_rim), (2, (1, 0), _rim_to_own_ray)])
def test_mesh_check_by_node_matches_the_per_word_check(m, lengths, plant):
    results = []
    for check in (mesh_tube_failures, _per_word_mesh_failures):
        q = TranslationQuiver(m, lengths, 6)
        if plant is not None:
            plant(q)
        results.append(check(q))
    assert _as_multiset(results[0]) == _as_multiset(results[1])
    _, _, bad = results[0]
    assert bool(bad) == (plant is not None)


# -- planted defects for the "confluent" verdict -----------------------------


def _rules(q):
    """q's mesh rules as {mu Arrow: id-table rule}."""
    return {q._arrows[x]: rhs for x, rhs in enumerate(q._rhs)
            if rhs is not None}


def _single_rule_mutations(q):
    """Every single-rule change of q's table of the three planted kinds:
    ZERO on each mu that has a lam', nonzero on each stage-1 rim mu, and
    each mu given every other mu's different right-hand side."""
    rules = _rules(q)
    zeros = {(mu, ZERO) for mu, rhs in rules.items() if rhs is not ZERO}
    nonzero_rims = {(mu, rhs) for mu in rules if rules[mu] is ZERO
                    for rhs in rules.values() if rhs is not ZERO}
    swaps = {(mu, rhs) for mu in rules for rhs in rules.values()
             if rhs != rules[mu]}
    assert zeros and nonzero_rims and zeros | nonzero_rims <= swaps
    return sorted(swaps, key=lambda s: str((s[0], _arrow_word(q, s[1]))))


def test_every_single_rule_mutation_fails_the_certificate():
    q = TranslationQuiver(2, (1, 0), 6)
    count = len(_rules(q))
    mutations = _single_rule_mutations(q)
    assert len(mutations) == count * (len(set(_rules(q).values())) - 1)
    for t, (mu, rhs) in enumerate(mutations):
        q = TranslationQuiver(2, (1, 0), 6)
        _set_rule(q, mu, rhs)
        assert mesh_rule_failures(q) == (count, [mu])
        result = mesh_tube_failures(q)
        _, _, bad = result
        assert [b for b in bad if b[0] == "rule"] == [("rule", 2, (1, 0), mu)]
        if t % 15 == 0:     # a spread sample: the oracle is slow
            assert _as_multiset(_per_word_mesh_failures(q)) == \
                _as_multiset(result)
