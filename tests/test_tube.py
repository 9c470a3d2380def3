import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.suites import mesh_tube_failures
from ppmod.tube import (Arrow, FormalPath, NormalPath, SymbolicTube, ZERO,
                        all_paths_from, build_ray_tube, hom_dimension,
                        identity_path, mesh_sweep, normal_path_arrows,
                        normal_path_target, normalize_path,
                        parse_tube_descriptor, path_of)


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
    p = path_of(q, [Arrow("mu", 1, 0, 1), Arrow("lam", 1, 0, 2)])
    assert normalize_path(q, p) == ZERO


def test_mesh_commuting_rule():
    q = build_ray_tube(2, (1, 0), 6)
    p = path_of(q, [Arrow("mu", 0, 0, 2), Arrow("lam", 0, 0, 3)])
    np = normalize_path(q, p)
    assert np == NormalPath(1, (0, 0, 2), 1, 1)
    # identical endpoints to the rewritten word lam;mu
    assert normal_path_target(q, np) == (0, 1, 3)


def test_identity_path_normalizes_to_itself():
    q = build_ray_tube(1, (0,), 4)
    p = identity_path(q, (0, 0, 2))
    np = normalize_path(q, p)
    assert np == NormalPath(1, (0, 0, 2), 0, 0)


def test_confluence_exhaustive_small():
    rng = random.Random(5)
    for m, lengths in [(1, (0,)), (1, (1,)), (2, (1, 0))]:
        q = build_ray_tube(m, lengths, 5)
        for v in q.vertices():
            for word in all_paths_from(q, v, 6):
                p = FormalPath(1, v, word)
                ref = normalize_path(q, p, "leftmost")
                assert normalize_path(q, p, "rightmost") == ref
                assert normalize_path(q, p, "random", rng) == ref


def test_normal_form_shape_is_lam_then_mu():
    q = build_ray_tube(2, (1, 1), 6)
    for v in q.vertices():
        for word in all_paths_from(q, v, 5):
            np = normalize_path(q, FormalPath(1, v, word))
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
    loop2 = NormalPath(1, v, 4, 4)
    word = normal_path_arrows(q, loop2)
    single = normal_path_arrows(q, NormalPath(1, v, 2, 2))
    # composing the loop with itself normalizes to the double loop
    comp = list(single)
    tail = normal_path_arrows(
        q, NormalPath(1, normal_path_target(q, NormalPath(1, v, 2, 2)), 2, 2))
    comp += tail
    got = normalize_path(q, FormalPath(1, v, tuple(comp)))
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
        p = FormalPath(1, src, word)
        last = q.target(word[-1])
        if last != tgt:
            continue
        np = normalize_path(q, p)
        if np != ZERO:
            seen.add(np)
    assert len(seen) == hom_dimension(q, src, tgt)
    assert hom_dimension(q, src, tgt) == (3 - 1) // 2 + 1  # floor((j-1)/m)+1


def test_single_rim_lambda_dimension():
    q = build_ray_tube(3, (1, 1, 2), 6)
    for i in range(3):
        src = (i, q.n_of(i), 2)
        tgt = ((i + 1) % 3, 0, 1)
        assert hom_dimension(q, src, tgt) == 1


def test_symbolic_ladder_shapes():
    q = build_ray_tube(2, (1, 0), 6)
    tube = SymbolicTube(q)
    psi = tube.psibar_matrix(0, 2)
    assert psi[0][0].mu_steps == 1 and psi[0][0].lam_steps == 0
    assert psi[1][1].mu_steps == 1
    assert psi[0][1] is None and psi[1][0] is None
    phi = tube.phi_matrix(2)
    assert phi[0][1].lam_steps == q.n_of(0) + 1 and phi[0][1].mu_steps == 0
    assert phi[1][0].lam_steps == q.n_of(1) + 1
    assert phi[0][0] is None and phi[1][1] is None
    a1 = tube.alpha_matrix(1)
    assert a1[0][0] is not None       # ray 0 has depth 1
    assert a1[1][1] is None           # ray 1 is exhausted at depth 1


def test_symbolic_tube_squares_commute():
    for m, lengths in [(1, (0,)), (2, (1, 0)), (2, (1, 1))]:
        q = build_ray_tube(m, lengths, 7)
        tube = SymbolicTube(q)
        for j in range(2, 5):
            lhs = tube.compose(tube.psibar_matrix(0, j), tube.phi_matrix(j))
            rhs = tube.compose(tube.phi_matrix(j - 1),
                               tube.psibar_matrix(0, j - 1))
            assert lhs == rhs
        # the base square composes to zero
        base = tube.compose(tube.psibar_matrix(0, 1), tube.phi_matrix(1))
        assert all(x is None for row in base for x in row)


def test_symbolic_ladder_squares_commute():
    for m, lengths in [(1, (1,)), (2, (1, 0)), (2, (2, 1))]:
        q = build_ray_tube(m, lengths, 7)
        tube = SymbolicTube(q)
        for l in range(1, max(lengths) + 1):
            for j in range(1, 4):
                lhs = tube.compose(tube.psibar_matrix(l - 1, j),
                                   tube.alpha_matrix(l, j + 1))
                rhs = tube.compose(tube.alpha_matrix(l, j),
                                   tube.psibar_matrix(l, j))
                assert lhs == rhs


def test_symbolic_rim_matrix_targets():
    q = build_ray_tube(2, (1, 1), 6)
    tube = SymbolicTube(q)
    rim = tube.rim_matrix(2)
    from ppmod.tube import normal_path_target
    for i in range(2):
        ent = rim[i][(i + 1) % 2]
        assert ent is not None
        assert normal_path_target(q, ent) == ((i + 1) % 2, 0, 2)


def test_parse_tube_descriptor():
    q = parse_tube_descriptor("tube m=2 n=[1,0] horizon=6")
    assert q.m == 2 and q.ray_lengths == (1, 0) and q.horizon == 6
    with pytest.raises(ValueError):
        parse_tube_descriptor("m=2 horizon=6")


def test_dot_export_contains_relations():
    q = build_ray_tube(1, (0,), 3)
    dot = q.dot()
    assert dot.startswith("digraph")
    assert "lam o mu = 0" in dot


def test_unknown_strategy_rejected_without_redex():
    q = build_ray_tube(1, (0,), 4)
    with pytest.raises(ValueError, match="unknown strategy"):
        normalize_path(q, identity_path(q, (0, 0, 2)), "bogus")


def test_random_strategy_requires_rng():
    q = build_ray_tube(1, (0,), 4)
    with pytest.raises(ValueError, match="needs an rng"):
        normalize_path(q, identity_path(q, (0, 0, 2)), "random")


def test_arrow_on_ray_outside_range_is_invalid():
    q = build_ray_tube(2, (1, 0), 6)
    a = Arrow("mu", 5, 0, 1)
    assert not q.valid_arrow(a)
    assert a not in q.arrows()
    with pytest.raises(ValueError):
        path_of(q, [a])


def test_target_of_missing_rim_arrow_raises():
    q = build_ray_tube(2, (1, 0), 6)
    a = Arrow("lam", 0, 1, 1)   # rim descent from stage 1 does not exist
    assert not q.valid_arrow(a)
    with pytest.raises(ValueError):
        q.target(a)


def test_path_of_checks_validity_before_composability():
    q = build_ray_tube(2, (1, 0), 6)
    # the pair is not composable, and its second arrow is not an arrow
    with pytest.raises(ValueError, match="invalid arrow"):
        path_of(q, [Arrow("mu", 0, 0, 1), Arrow("mu", 5, 0, 1)])


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
        _, i, k, j = word[redex]
        if k < n[i]:
            word[redex:redex + 2] = [("lam", i, k, j), ("mu", i, k + 1, j)]
        elif j == 1:
            return ZERO
        else:
            word[redex:redex + 2] = [("lam", i, k, j),
                                     ("mu", (i + 1) % m, 0, j - 1)]


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
    return m, n, horizon, start, word, draw(st.integers(0, 999))


@settings(max_examples=300, deadline=None)
@given(_tube_and_word())
def test_compiled_tables_match_reference(case):
    m, n, horizon, start, word, seed = case
    q = build_ray_tube(m, n, horizon)
    ref_vertices = [(i, k, j) for i in range(m) for k in range(n[i] + 1)
                    for j in range(1, horizon + 1)]
    assert q.vertices() == ref_vertices
    ref_arrows = []
    for v in ref_vertices:
        mu, lam = _ref_out(m, n, horizon, v)
        for got, ref in ((q.out_mu(v), mu), (q.out_lam(v), lam)):
            if ref is None:
                assert got is None
            else:
                assert got == Arrow(*ref[0])
                assert q.target(got) == ref[1]
                ref_arrows.append(ref[0])
    assert q.arrows() == [Arrow(*a) for a in ref_arrows]

    path = FormalPath(1, start, tuple(Arrow(*a) for a in word))
    if word:
        assert path_of(q, path.arrows) == path
    expected = _ref_normalize(m, n, word)
    if expected != ZERO:
        expected = NormalPath(1, start, *expected)
    for strategy in ("leftmost", "rightmost", "random"):
        assert normalize_path(q, path, strategy,
                              random.Random(seed)) == expected


def test_mesh_rule_certificate_flags_a_broken_rule():
    from ppmod.tube import mesh_rule_failures
    q = build_ray_tube(2, (1, 0), 6)
    count, failed = mesh_rule_failures(q)
    assert count == sum(1 for a in q.arrows() if a.kind == "mu")
    assert failed == []
    mu = q.out_mu((0, 0, 2))
    lam, _ = q._rhs[mu]
    q._rhs[mu] = (lam, q.out_mu((0, 0, 2)))   # wrong climb after lam
    assert mesh_rule_failures(q) == (count, [mu])


def test_mesh_rule_certificate_flags_a_misplaced_zero():
    from ppmod.tube import mesh_rule_failures
    q = build_ray_tube(2, (1, 0), 6)
    count, _ = mesh_rule_failures(q)
    rim = q.out_mu((0, 1, 1))           # stage-1 rim: the only ZERO rules
    assert q._rhs[rim] is ZERO and q.out_lam((0, 1, 1)) is None
    mu = q.out_mu((0, 1, 3))            # a rim rule with a lam' to use
    q._rhs[mu] = ZERO
    assert mesh_rule_failures(q) == (count, [mu])
    _, _, bad = mesh_tube_failures(q, random.Random(0))
    assert ("rule", 2, (1, 0), mu) in bad
    q = build_ray_tube(2, (1, 0), 6)
    q._rhs[rim] = q._rhs[q.out_mu((0, 1, 2))]  # nonzero on the rim
    assert mesh_rule_failures(q) == (count, [rim])


@pytest.mark.parametrize("m, lengths", [
    (1, (0,)), (1, (2,)), (2, (1, 0)), (2, (2, 2)), (3, (0, 1, 2)),
    (3, (2, 2, 2))])
def test_mesh_sweep_matches_normalize_path(m, lengths):
    q = build_ray_tube(m, lengths, 6)
    swept = list(mesh_sweep(q, 6))
    assert [(v, word) for v, word, *_ in swept] == [
        (v, word) for v in q.vertices() for word in all_paths_from(q, v, 6)]
    for v, word, left_word, left, right in swept:
        p = FormalPath(1, v, word)
        assert left == normalize_path(q, p, "leftmost")
        assert right == normalize_path(q, p, "rightmost")
        if left is ZERO:
            assert left_word is ZERO
        else:
            assert list(left_word) == normal_path_arrows(q, left)


def test_mesh_sweep_rejects_words_without_a_table_code():
    with pytest.raises(ValueError, match="no table code"):
        next(mesh_sweep(build_ray_tube(1, (0,), 6), 9))


def test_mesh_tube_check_flags_a_broken_rule():
    q = build_ray_tube(2, (1, 0), 6)
    rules, paths, bad = mesh_tube_failures(q, random.Random(0))
    assert (rules, bad) == (15, [])
    assert paths == sum(1 for v in q.vertices()
                        for _ in all_paths_from(q, v, 8))
    mu = q.out_mu((0, 0, 2))
    lam, _ = q._rhs[mu]
    q._rhs[mu] = (lam, q.out_mu((0, 0, 2)))   # wrong climb after lam
    _, _, bad = mesh_tube_failures(q, random.Random(0))
    kinds = {kind for kind, *_ in bad}
    # the sweep itself sees the wrong arrow, not only the rule certificate
    assert {"rule", "shape"} <= kinds


def _random_redexes_by_index(q, p, rng):
    """normalize_path "random" with the redexes collected by testing every
    index, as a reference for the rng draws."""
    word, kinds = list(p.arrows), "".join(a.kind[0] for a in p.arrows)
    while True:
        redexes = [t for t in range(len(kinds) - 1)
                   if kinds.startswith("ml", t)]
        if not redexes:
            return
        t = rng.choice(redexes)
        rhs = q._rhs[word[t]]
        if rhs is ZERO:
            return
        word[t], word[t + 1] = rhs
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"


def test_random_strategy_draws_the_same_rng_stream():
    q = build_ray_tube(2, (1, 1), 6)
    got, ref = random.Random(3), random.Random(3)
    for v in q.vertices():
        for word in all_paths_from(q, v, 7):
            p = FormalPath(1, v, word)
            normalize_path(q, p, "random", got)
            _random_redexes_by_index(q, p, ref)
    assert got.getstate() == ref.getstate()
