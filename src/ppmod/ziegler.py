"""Symbolic Ziegler spectra of the extension towers.

Points are labels, never concrete modules: a {F0, F1}-word prefix applied
to a base point of the valuation-ring spectrum (finite-length points, the
injective-hull point 'Prufer', the completion point 'Adic', the fraction
field point 'Q'), or a simple extension point T(m).  Identifications are
canonicalized eagerly: any prefix in front of Adic or Q collapses to the
pure-F0 word, a word F1.F0 rewrites to F0.F0, and T(0) is the first
finite-length point.

Point sets carry per-prefix cofinite flags so that "infinitely many
finite-length points" is finitely representable; the closure operator is
the least fixpoint of the two quoted closure rules applied inside every
embedded copy of the base spectrum.  The closed-set criterion is treated
as an if-and-only-if rule; reports carry this assumption in their header.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass

CLOSURE_ASSUMPTION = (
    "# closure semantics: the inductive closed-set criterion is applied as "
    "an if-and-only-if fixpoint rule")

FINLEN, PRUFER, ADIC, QPOINT, TPOINT = "FinLen", "Prufer", "Adic", "Q", "T"


@dataclass(frozen=True, order=True)
class ZieglerPoint:
    height: int
    kind: str
    p: int          # F0 exponent (outermost)
    l: int          # F1 exponent (innermost)
    idx: int        # chain length for FinLen, extension level for T, else 0

    def __str__(self):
        prefix = "F0 " * self.p + "F1 " * self.l
        if self.kind == FINLEN:
            return f"{prefix}FinLen({self.idx})"
        if self.kind == TPOINT:
            return f"{prefix}T({self.idx})"
        return f"{prefix}{self.kind}"


def canonical_word(word) -> tuple[int, int]:
    """Canonical (p, l) of an {F0, F1}-word: rewriting the identification
    'F1 outside F0' to 'F0 outside F0' turns every letter up to the last
    F0 into F0, so p ends at the last F0 and the l letters after it are
    F1.  Any other letter is a ValueError."""
    w = list(word)
    bad = set(w) - {"F0", "F1"}
    if bad:
        raise ValueError(f"prefix letter {min(bad)!r} is neither F0 nor F1")
    p = len(w) - w[::-1].index("F0") if "F0" in w else 0
    return p, len(w) - p


def fin_len(height: int, p: int, l: int, j: int) -> ZieglerPoint:
    if p + l != height or p < 0 or l < 0 or j < 1:
        raise ValueError("bad finite-length point parameters")
    return ZieglerPoint(height, FINLEN, p, l, j)


def prufer(height: int, p: int, l: int) -> ZieglerPoint:
    if p + l != height or p < 0 or l < 0:
        raise ValueError("bad prefix")
    return ZieglerPoint(height, PRUFER, p, l, 0)


def adic(height: int) -> ZieglerPoint:
    # every prefix of the completion point canonicalizes to pure F0
    return ZieglerPoint(height, ADIC, height, 0, 0)


def qpoint(height: int) -> ZieglerPoint:
    return ZieglerPoint(height, QPOINT, height, 0, 0)


def tpoint(height: int, p: int, l: int, m: int) -> ZieglerPoint:
    if p + l + m != height or min(p, l, m) < 0:
        raise ValueError("bad extension point parameters")
    if m == 0:
        # the empirical identification: T(0) is the length-one chain point
        return fin_len(height, p, l, 1)
    return ZieglerPoint(height, TPOINT, p, l, m)


def point_from_word(height: int, word, base: str, idx: int = 0) -> ZieglerPoint:
    """Build a point from an arbitrary prefix word, canonicalizing."""
    if len(word) + (idx if base == TPOINT else 0) != height:
        raise ValueError("prefix length does not match the height")
    p, l = canonical_word(word)
    if base == FINLEN:
        return fin_len(height, p, l, idx)
    if base == PRUFER:
        return prufer(height, p, l)
    if base == ADIC:
        return adic(height)
    if base == QPOINT:
        return qpoint(height)
    if base == TPOINT:
        return tpoint(height, p, l, idx)
    raise ValueError(f"unknown base point {base}")


# -- point sets with cofinite finite-length families -------------------------


def _complement(family: tuple) -> tuple:
    """Finite js <-> cofinite excluding js."""
    mode, js = family
    return ("cofinite" if mode == "finite" else "finite", js)


def _family_union(a: tuple, b: tuple) -> tuple:
    (am, ad), (bm, bd) = a, b
    if am == bm:
        return (am, ad | bd if am == "finite" else ad & bd)
    return ("cofinite", ad - bd if am == "cofinite" else bd - ad)


def _family_subset(a: tuple, b: tuple) -> bool:
    """Whether family a lies in family b: a cofinite family lies in no
    finite one, and in a cofinite one when it excludes at least what that
    one excludes."""
    (am, ad), (bm, bd) = a, b
    if am == "finite":
        return ad <= bd if bm == "finite" else ad.isdisjoint(bd)
    return bm == "cofinite" and bd <= ad


@dataclass(frozen=True)
class PointSet:
    """Finite set of points plus cofinite flags per finite-length family.

    families maps a prefix (p, l) to ("finite", js) or ("cofinite",
    excluded); explicit FinLen points always live inside their family entry,
    never in `others`."""

    height: int
    others: frozenset
    families: tuple  # sorted tuple of ((p, l), mode, frozenset)

    @staticmethod
    def make(height: int, points=(), cofinite_prefixes=(),
             excluded=None) -> "PointSet":
        if height < 0:
            raise ValueError("height must be >= 0")
        others = set()
        fams: dict = {}
        for pt in points:
            if pt.height != height:
                raise ValueError("point height mismatch")
            if pt.kind == FINLEN:
                key = (pt.p, pt.l)
                mode, data = fams.get(key, ("finite", frozenset()))
                if mode == "finite":
                    fams[key] = ("finite", data | {pt.idx})
                else:
                    fams[key] = ("cofinite", data - {pt.idx})
            else:
                others.add(pt)
        excluded = excluded or {}
        for pref in cofinite_prefixes:
            p, l = pref
            if p + l != height:
                raise ValueError("cofinite family prefix has wrong length")
            exc = frozenset(excluded.get(pref, ()))
            if any(j < 1 for j in exc):
                raise ValueError(f"excluded index {min(exc)} is not a "
                                 "finite-length point: FinLen(j) needs "
                                 "j >= 1")
            prev = fams.get(pref)
            if prev and prev[0] == "finite":
                exc = exc - prev[1]
            fams[pref] = ("cofinite", exc)
        return PointSet._clean(height, frozenset(others), fams)

    @staticmethod
    def _clean(height: int, others: frozenset, fams: dict) -> "PointSet":
        """The canonical form: families sorted by prefix, empty finite
        families dropped, so equal sets compare equal."""
        return PointSet(height, others, tuple(sorted(
            (k, m, frozenset(d)) for k, (m, d) in fams.items()
            if not (m == "finite" and not d))))

    def family(self, pref) -> tuple:
        for k, m, d in self.families:
            if k == pref:
                return (m, d)
        return ("finite", frozenset())

    def contains(self, pt: ZieglerPoint) -> bool:
        if pt.kind != FINLEN:
            return pt in self.others
        mode, data = self.family((pt.p, pt.l))
        return pt.idx in data if mode == "finite" else pt.idx not in data

    def _merge(self, other: "PointSet", others: frozenset,
               family_op) -> "PointSet":
        if self.height != other.height:
            raise ValueError("height mismatch")
        prefixes = {k for k, _, _ in self.families + other.families}
        return PointSet._clean(self.height, others, {
            pref: family_op(self.family(pref), other.family(pref))
            for pref in prefixes})

    def union(self, other: "PointSet") -> "PointSet":
        return self._merge(other, self.others | other.others, _family_union)

    def intersection(self, other: "PointSet") -> "PointSet":
        # De Morgan inside each family
        return self._merge(
            other, self.others & other.others,
            lambda a, b: _complement(_family_union(_complement(a),
                                                   _complement(b))))

    def issubset(self, other: "PointSet") -> bool:
        """Whether every point of self lies in other, compared part by
        part: the other points as sets, and each family of self inside
        other's family of the same prefix (see _family_subset)."""
        if self.height != other.height:
            raise ValueError("height mismatch")
        return self.others <= other.others and all(
            _family_subset((m, d), other.family(k))
            for k, m, d in self.families)

    def __str__(self):
        parts = []
        for (p, l), mode, data in sorted(self.families):
            prefix = "F0 " * p + "F1 " * l
            if mode == "cofinite":
                if data:
                    ex = ",".join(str(j) for j in sorted(data))
                    parts.append(f"{prefix}FinLen(* minus {{{ex}}})")
                else:
                    parts.append(f"{prefix}FinLen(*)")
            else:
                for j in sorted(data):
                    parts.append(f"{prefix}FinLen({j})")
        parts.extend(str(pt) for pt in sorted(self.others))
        return "{" + ", ".join(sorted(parts)) + "}"


# -- the spectrum and the closure operator ------------------------------------


def points(height: int) -> PointSet:
    """The full spectrum: every finite-length family (cofinitely), the
    injective-hull point of every prefix, the completion and fraction-field
    points, and the canonical extension points."""
    if height < 0:
        raise ValueError("height must be >= 0")
    pts = []
    prefixes = [(p, height - p) for p in range(height + 1)]
    for p, l in prefixes:
        pts.append(prufer(height, p, l))
    pts.append(adic(height))
    pts.append(qpoint(height))
    for m in range(1, height + 1):
        for p in range(height - m + 1):
            pts.append(tpoint(height, p, height - m - p, m))
    return PointSet.make(height, pts, cofinite_prefixes=prefixes)


def closure(s: PointSet) -> PointSet:
    """Least fixpoint of the two closure rules inside every embedded copy:
    an infinite finite-length family forces its hull point, the completion
    and the fraction field; a hull or completion point forces the fraction
    field.  Extension points are closed.

    One pass of the rules reaches the fixpoint: they add no finite-length
    point, so no family changes, and every hull or completion point they
    add comes with the fraction field, which the second rule asks for.
    So the closure is s with its families as they are and the added
    points among the others: s itself when the rules add no new point."""
    n = s.height
    add = set()
    for (p, l), mode, _ in s.families:
        if mode == "cofinite":
            add.update((prufer(n, p, l), adic(n), qpoint(n)))
    if any(pt.kind in (PRUFER, ADIC) for pt in s.others):
        add.add(qpoint(n))
    if add <= s.others:
        return s
    return PointSet(n, s.others | add, s.families)


def is_closed(s: PointSet) -> bool:
    return closure(s) == s


def point_closure(pt: ZieglerPoint) -> PointSet:
    return closure(PointSet.make(pt.height, [pt]))


@functools.cache
def _sorted_others(height: int) -> tuple[ZieglerPoint, ...]:
    """The spectrum's points besides the finite-length ones, built once
    per height and sorted: a frozenset's order follows string hashes,
    which change from one process to the next."""
    return tuple(sorted(points(height).others))


def random_point_set(height: int, rng: random.Random) -> PointSet:
    """Seeded random point set for property tests (at most six points
    besides the finite-length ones)."""
    pool = _sorted_others(height)
    pts = rng.sample(pool, k=min(len(pool), rng.randint(0, 6)))
    for _ in range(rng.randint(0, 3)):
        p = rng.randint(0, height)
        l = height - p
        pts.append(fin_len(height, p, l, rng.randint(1, 9)))
    cof = []
    exc = {}
    if rng.random() < 0.4:
        p = rng.randint(0, height)
        pref = (p, height - p)
        cof.append(pref)
        exc[pref] = frozenset(rng.sample(range(1, 8), k=rng.randint(0, 2)))
    return PointSet.make(height, pts, cofinite_prefixes=cof, excluded=exc)


# -- textual syntax ------------------------------------------------------------


def parse_point(height: int, text: str) -> ZieglerPoint:
    toks = text.replace(",", " ").split()
    # the base is the first token other than F0 or F1, and the last
    cut = next((i for i, t in enumerate(toks) if t not in ("F0", "F1")),
               len(toks))
    if cut != len(toks) - 1:
        raise ValueError(f"cannot parse point {text!r}")
    word, base = toks[:-1], toks[-1]
    indexed = re.fullmatch(rf"({FINLEN}|{TPOINT})\((.*)\)", base)
    if indexed:
        kind, idx = indexed.groups()
        if re.fullmatch(r"[0-9]+", idx) is None:
            raise ValueError(f"point {text!r} needs {kind}(j) with j a "
                             "whole number")
        return point_from_word(height, word, kind, int(idx))
    if base in (PRUFER, ADIC, QPOINT):
        return point_from_word(height, word, base)
    raise ValueError(f"unknown point base {base!r}")


def parse_point_set(height: int, text: str) -> PointSet:
    text = text.strip().strip("{}")
    pts = []
    excluded: dict = {}
    for chunk in re.split(r",(?![^{}]*\})", text):  # commas outside braces
        chunk = chunk.strip()
        # a cofinite family as PointSet.__str__ prints it, after its word
        m = re.fullmatch(r"((?:F[01]\s+)*)FinLen\(\*(?:\s+minus\s+"
                         r"\{\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\})?\)", chunk)
        if m:
            pref = canonical_word(m.group(1).split())
            ex = {int(j) for j in (m.group(2) or "").split(",") if j}
            # a union of cofinite sets excludes only what all of them exclude
            excluded[pref] = excluded.get(pref, ex) & ex
        elif chunk:
            pts.append(parse_point(height, chunk))
    return PointSet.make(height, pts, cofinite_prefixes=list(excluded),
                         excluded=excluded)
