import itertools
import os
import random
import re
import subprocess
import sys
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod.ziegler import (PointSet, adic, canonical_word,
                           closure, fin_len, is_closed, parse_point,
                           parse_point_set, point_closure, point_from_word,
                           points, prufer, qpoint, random_point_set, tpoint)


@st.composite
def point_sets(draw, height=None):
    n = height if height is not None else draw(st.integers(0, 3))
    pool = sorted(points(n).others)
    pts = draw(st.lists(st.sampled_from(pool), max_size=5))
    nfin = draw(st.integers(0, 3))
    for _ in range(nfin):
        p = draw(st.integers(0, n))
        pts.append(fin_len(n, p, n - p, draw(st.integers(1, 9))))
    cof = []
    exc = {}
    if draw(st.booleans()):
        p = draw(st.integers(0, n))
        cof.append((p, n - p))
        exc[(p, n - p)] = frozenset(draw(st.sets(st.integers(1, 6),
                                                 max_size=2)))
    return PointSet.make(n, pts, cofinite_prefixes=cof, excluded=exc)


def test_spectrum_at_height_zero():
    full = points(0)
    assert full.family((0, 0))[0] == "cofinite"
    others = {str(p) for p in full.others}
    assert others == {"Prufer", "Adic", "Q"}


def test_spectrum_at_height_one():
    full = points(1)
    infinite = [str(p) for p in full.others if p.kind not in ("FinLen", "T")]
    assert sorted(infinite) == ["F0 Adic", "F0 Prufer", "F0 Q", "F1 Prufer"]
    t_points = {str(p) for p in full.others if p.kind == "T"}
    assert t_points == {"T(1)"}


def test_adic_prefix_canonicalizes():
    pt = point_from_word(2, ["F1", "F0"], "Adic")
    assert str(pt) == "F0 F0 Adic"
    # the outer F1.F0 pair rewrites: F1 F0 F1 -> F0 F0 F1
    assert canonical_word(["F1", "F0", "F1"]) == (2, 1)
    # F1 F1 F0 -> F1 F0 F0 -> F0 F0 F0
    assert canonical_word(["F1", "F1", "F0"]) == (3, 0)


def rewritten_word(word):
    """The oracle: rewrite 'F1 outside F0' to 'F0 outside F0' until no
    pair is left, then count the letters."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == "F1" and w[i + 1] == "F0":
                w[i] = "F0"
                changed = True
    return w.count("F0"), w.count("F1")


def test_canonical_word_matches_the_rewrite_on_short_words():
    words = [w for n in range(11)
             for w in itertools.product(("F0", "F1"), repeat=n)]
    assert len(words) == 2047
    for w in words:
        assert canonical_word(w) == rewritten_word(w), w


def test_canonical_word_is_linear_in_the_word():
    # the rewrite takes one pass per F1 before the last F0
    word = ["F1"] * 99_999 + ["F0"]
    start = time.perf_counter()
    assert canonical_word(word) == (100_000, 0)
    assert time.perf_counter() - start < 0.25


def looped_parse(height, text):
    """parse_point as it read the word, one token popped at a time; the
    point, or the message of its ValueError."""
    toks = text.replace(",", " ").split()
    word = []
    while toks and toks[0] in ("F0", "F1"):
        word.append(toks.pop(0))
    if len(toks) != 1:
        return f"cannot parse point {text!r}"
    indexed = re.fullmatch(r"(FinLen|T)\((.*)\)", toks[0])
    try:
        if indexed:
            return point_from_word(height, word, indexed.group(1),
                                   int(indexed.group(2)))
        return point_from_word(height, word, toks[0])
    except ValueError as exc:
        return str(exc)


def parsed(height, text):
    try:
        return parse_point(height, text)
    except ValueError as exc:
        return str(exc)


def test_parse_point_reads_every_short_word_as_the_loop_did():
    bases = ("FinLen(2)", "Prufer", "Adic", "Q", "T(1)", "F0", "F1, Q",
             "Q F0", "")
    for n in range(9):
        for w in itertools.product(("F0", "F1"), repeat=n):
            for base in bases:
                text = " ".join(w + (base,))
                for height in (n, n + 1):
                    assert parsed(height, text) == looped_parse(height, text)


def test_parse_point_is_linear_in_the_prefix():
    text = "F1 " * 199_999 + "F0 Prufer"
    start = time.perf_counter()
    assert parse_point(200_000, text) == prufer(200_000, 200_000, 0)
    assert time.perf_counter() - start < 0.5


def test_a_letter_other_than_f0_or_f1_is_refused():
    with pytest.raises(ValueError, match="'X' is neither F0 nor F1"):
        point_from_word(2, ["X", "Y"], "Adic")


def test_t0_identifies_with_first_chain_point():
    pt = tpoint(2, 1, 1, 0)
    assert pt.kind == "FinLen" and pt.idx == 1


def test_closure_of_infinite_family_at_zero():
    s = PointSet.make(0, [], cofinite_prefixes=[(0, 0)])
    c = closure(s)
    for pt in (prufer(0, 0, 0), adic(0), qpoint(0)):
        assert c.contains(pt)


def test_closure_of_prufer():
    s = PointSet.make(0, [prufer(0, 0, 0)])
    c = closure(s)
    assert c.contains(qpoint(0))
    assert str(c) == "{Prufer, Q}"


def test_closure_of_empty_is_empty():
    s = PointSet.make(2)
    assert closure(s) == s


def test_point_closures():
    pc = point_closure(prufer(1, 1, 0))
    assert str(pc) == "{F0 Prufer, F0 Q}"
    assert point_closure(fin_len(1, 0, 1, 2)).contains(fin_len(1, 0, 1, 2))
    assert point_closure(fin_len(1, 0, 1, 2)) == PointSet.make(
        1, [fin_len(1, 0, 1, 2)])
    assert not is_closed(PointSet.make(1, [adic(1)]))
    assert is_closed(PointSet.make(1, [adic(1), qpoint(1)]))
    assert is_closed(point_closure(tpoint(2, 0, 1, 1)))


def test_closure_operator_properties():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(0, 3)
        s = random_point_set(n, rng)
        t = random_point_set(n, rng)
        c = closure(s)
        assert s.issubset(c)                       # extensive
        assert closure(c) == c                     # idempotent
        u = s.union(t)
        assert closure(s).issubset(closure(u))     # monotone
        # closed sets are stable under union and intersection
        cu = closure(s).union(closure(t))
        assert is_closed(cu)
        ci = closure(s).intersection(closure(t))
        assert is_closed(ci)


def test_a_failing_ziegler_suite_ends_in_its_failures_line(monkeypatch):
    # no set closed: both stability laws fail on every draw, and so does
    # the closed finite-length example
    import ppmod.suites
    monkeypatch.setattr(ppmod.suites, "is_closed", lambda s: False)
    res = ppmod.suites.suite_ziegler(0)
    assert not res.passed
    assert res.lines[-1] == ("failures\t['union-stability', "
                             "'intersection-stability', 'union-stability'] "
                             "(1001 total)")


def closure_to_fixpoint(s):
    """The reference closure: apply both rules until nothing changes."""
    n = s.height
    while True:
        add = []
        for (p, l), mode, _ in s.families:
            if mode == "cofinite":
                add.extend([prufer(n, p, l), adic(n), qpoint(n)])
        add.extend(qpoint(n) for pt in s.others
                   if pt.kind in ("Prufer", "Adic"))
        nxt = s.union(PointSet.make(n, add))
        if nxt == s:
            return s
        s = nxt


def test_closure_is_one_pass_of_the_rules():
    rng = random.Random(7)
    heights = set()
    for _ in range(2000):
        n = rng.randint(0, 3)
        heights.add(n)
        s = random_point_set(n, rng)
        assert closure(s) == closure_to_fixpoint(s)
    assert heights == {0, 1, 2, 3}


def test_set_algebra_with_cofinite_families():
    a = PointSet.make(1, [fin_len(1, 1, 0, 3)], cofinite_prefixes=[(0, 1)])
    b = PointSet.make(1, [fin_len(1, 0, 1, 5)],
                      cofinite_prefixes=[(1, 0)], excluded={(1, 0): {3}})
    u = a.union(b)
    assert u.contains(fin_len(1, 1, 0, 3))
    assert u.family((0, 1))[0] == u.family((1, 0))[0] == "cofinite"
    i = a.intersection(b)
    assert i.contains(fin_len(1, 0, 1, 5))
    assert not i.contains(fin_len(1, 1, 0, 3))


def test_subset_with_families():
    small = PointSet.make(1, [fin_len(1, 0, 1, 2)])
    big = PointSet.make(1, [], cofinite_prefixes=[(0, 1)])
    assert small.issubset(big)
    assert not big.issubset(small)
    withheld = PointSet.make(1, [], cofinite_prefixes=[(0, 1)],
                             excluded={(0, 1): {2}})
    assert not small.issubset(withheld)


def test_subset_agrees_with_the_union():
    # a <= b iff a + b = b, on random pairs and on pairs (s, closure(s))
    # and (s, s + t), where it holds
    rng = random.Random(49)
    for n in range(4):
        held = 0
        for i in range(2000):
            a = random_point_set(n, rng)
            b = random_point_set(n, rng)
            if i % 3 == 1:
                b = closure(a)
            elif i % 3 == 2:
                b = a.union(b)
            for s, t in ((a, b), (b, a)):
                assert s.issubset(t) == (s.union(t) == t)
                held += s.issubset(t)
        assert 1000 <= held < 4000


def test_subset_refuses_another_height():
    with pytest.raises(ValueError, match="height mismatch"):
        points(1).issubset(points(2))


def test_the_closure_of_a_closed_set_is_itself():
    rng = random.Random(49)
    for n in range(4):
        full = points(n)
        assert closure(full) is full
        for _ in range(200):
            c = closure(random_point_set(n, rng))
            assert closure(c) is c


@pytest.mark.parametrize("excluded", [{0}, {-1, 2}])
def test_make_refuses_an_excluded_index_below_one(excluded):
    # FinLen(j) is a point only for j >= 1, so a cofinite family cannot
    # exclude j = 0 (it would compare unequal to the family excluding
    # nothing)
    with pytest.raises(ValueError, match=f"excluded index {min(excluded)} "
                       "is not a finite-length point"):
        PointSet.make(0, [], cofinite_prefixes=[(0, 0)],
                      excluded={(0, 0): excluded})


def test_parse_and_print_roundtrip():
    s = parse_point_set(1, "F0 Prufer, F0 Q")
    assert str(s) == "{F0 Prufer, F0 Q}"
    pt = parse_point(2, "F0 F1 T(0)")  # canonicalizes to FinLen(1)
    assert str(pt) == "F0 F1 FinLen(1)"
    fam = parse_point_set(0, "FinLen(*)")
    assert fam.family((0, 0))[0] == "cofinite"


@pytest.mark.parametrize("text", ["F0 FinLen(x)", "F0 T(y)", "F0 FinLen()",
                                  "F0 FinLen(-1)", "F0 FinLen(\u0663)",
                                  "F0 FinLen(+2)"])
def test_a_point_index_in_other_than_ascii_digits_is_refused(text):
    kind = text.split()[1].split("(")[0]
    with pytest.raises(ValueError, match=rf"point {re.escape(repr(text))} "
                       rf"needs {kind}\(j\) with j a whole number"):
        parse_point(1, text)
    with pytest.raises(ValueError, match="needs"):
        parse_point_set(1, f"{{F1 Prufer, {text}}}")


def test_an_exclusion_in_other_than_ascii_digits_is_refused():
    with pytest.raises(ValueError, match="cannot parse point"):
        parse_point_set(1, "F0 FinLen(* minus {\u0663})")


def test_printed_point_sets_parse_back():
    # a cofinite family with exclusions prints as 'FinLen(* minus {3,4})',
    # whose inner comma does not separate two points
    rng = random.Random(1)
    drawn = [random_point_set(n, rng) for _ in range(500) for n in range(4)]
    assert sum(1 for s in drawn for _, mode, data in s.families
               if mode == "cofinite" and len(data) > 1) > 100
    for s in drawn:
        assert parse_point_set(s.height, str(s)) == s
    spaced = parse_point_set(1, "{F0 FinLen(* minus { 4 ,3 }), F1 FinLen(2)}")
    assert str(spaced) == "{F0 FinLen(* minus {3,4}), F1 FinLen(2)}"


def test_full_spectrum_is_closed():
    for n in range(3):
        assert is_closed(points(n))


@settings(max_examples=80, deadline=None)
@given(point_sets(height=2), point_sets(height=2))
def test_closure_laws_hypothesis(s, t):
    c = closure(s)
    assert s.issubset(c)
    assert closure(c) == c
    assert closure(s).issubset(closure(s.union(t)))
    assert is_closed(closure(s).union(closure(t)))
    assert is_closed(closure(s).intersection(closure(t)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32), st.integers(0, 2**32))
def test_set_algebra_pointwise(n, seed_s, seed_t):
    s = random_point_set(n, random.Random(seed_s))
    t = random_point_set(n, random.Random(seed_t))
    probes = sorted(points(n).others) + \
        [fin_len(n, p, n - p, j) for p in range(n + 1) for j in range(1, 13)]
    union, meet = s.union(t), s.intersection(t)
    for pt in probes:
        a, b = s.contains(pt), t.contains(pt)
        assert union.contains(pt) == (a or b)
        assert meet.contains(pt) == (a and b)
    assert s.issubset(t) == all(t.contains(pt) for pt in probes
                                if s.contains(pt))


def test_random_point_sets_do_not_depend_on_the_hash_seed():
    # string hashes, and so the iteration order of a set of points, change
    # with PYTHONHASHSEED; the seeded draws must not
    code = ("import random\n"
            "from ppmod.ziegler import random_point_set\n"
            "for height in range(4):\n"
            "    rng = random.Random(height)\n"
            "    for _ in range(20):\n"
            "        print(random_point_set(height, rng))\n")
    outs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run([sys.executable, "-c", code], text=True,
                              capture_output=True, check=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_a_suite_pass_builds_each_spectrum_once(monkeypatch):
    # the sampling pool is built once per height (a pass draws at heights
    # 0-3), and the draws and the suite's lines are those of a pool
    # rebuilt for every draw
    from ppmod import suites, ziegler

    def draws():
        out = []
        for h in range(4):
            rng = random.Random(h)
            out += [random_point_set(h, rng) for _ in range(50)]
        return out

    with monkeypatch.context() as m:
        m.setattr(ziegler, "_sorted_others",
                  ziegler._sorted_others.__wrapped__)
        want_lines, want_draws = suites.suite_ziegler(0).lines, draws()
    built = []

    def counted(height):
        built.append(height)
        return points(height)

    ziegler._sorted_others.cache_clear()
    monkeypatch.setattr(ziegler, "points", counted)
    got = suites.suite_ziegler(0)
    assert got.passed and got.lines == want_lines
    assert sorted(built) == [0, 1, 2, 3]
    assert draws() == want_draws
    assert len(built) == 4
