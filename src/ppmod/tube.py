"""Ray-tube translation quivers and mesh-relation path normalization.

The quiver Q(m; n_0..n_{m-1}) has vertices S(i, k, j) for 0 <= i < m (read
mod m), 0 <= k <= n_i, and stages j >= 1 capped by a horizon.  Arrows are

    mu(i,k,j):  S(i,k,j)   -> S(i,k,j+1)
    lam(i,k,j): S(i,k,j)   -> S(i,k+1,j)        for k < n_i
    lam(i,n_i,j): S(i,n_i,j) -> S(i+1,0,j-1)    for j >= 2  (rim descent)

Mesh rewriting orients the relations so that lambda segments precede mu
segments (diagram order); every nonzero path normalizes to a lambda-walk
followed by a mu-climb, with no coefficient (each rule rewrites to one
path or to zero), and both walks are uniquely determined by their
lengths, so the normal form is canonical.  In diagram order the rules are

    mu(i,k,j) ; lam(i,k,j+1)     ->  lam(i,k,j) ; mu(i,k+1,j)       k < n_i
    mu(i,n_i,j) ; lam(i,n_i,j+1) ->  lam(i,n_i,j) ; mu(i+1,0,j-1)   j >= 2
    mu(i,n_i,1) ; lam(i,n_i,2)   ->  0

The rim relation is implemented in its type-correct form

    lam(i,n_i,j+1) o mu(i,n_i,j)  =  mu(i+1,0,j-1) o lam(i,n_i,j)   (j >= 2)

derived from the almost split sequence at the rim (the printed index
pattern of the source text is not composable as stated).  Rewriting in
any order reaches the same normal form: mesh_rule_failures certifies
each compiled rule, mu;lam has no self-overlap and each rewrite removes
one mu-before-lam inversion (see its docstring).

A TranslationQuiver compiles these formulas once, at construction, into
lookup tables: the outgoing arrows of each vertex, the target of each
arrow and the right-hand side of the rule for each mu arrow.  Everything
else reads the tables, and input that is not in them raises ValueError.

normalize_path rewrites leftmost, one arrow at a time: the word read so
far is already a lambda-walk followed by a mu-climb, a mu joins the
climb, and a lam bubbles left through the climb one rule at a time.
Every redex of the word read so far lies left of the new arrow, so this
is exactly the leftmost rewrite sequence of the whole word.

mesh_sweep takes the same step for every short word of a tube without
starting over for each word: the step reads only the word's node, the
pair (leftmost word, end vertex), and the kind of the next arrow.  So the
sweep goes one length at a time, continues each node of that length once,
and weighs each node by its number of words instead of listing them.

The pushout ladder's maps are paths of the quiver, so its squares are
equalities of normal paths: the k < n_i mesh rules at depth >= 1, and at
depth 0 the squares rim_square_failures normalizes both ways round.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

Vertex = tuple  # (i, k, j)

# The largest vertex count sum(n_i + 1) * horizon a quiver may have; its
# tables are built eagerly, a few hundred bytes per vertex.
MAX_VERTICES = 100_000


class Arrow(NamedTuple):
    kind: str  # "mu" | "lam"
    i: int
    k: int
    j: int

    def __str__(self):
        return f"{self.kind}({self.i},{self.k})[{self.j}]"


ZERO = "ZERO"


class TranslationQuiver:
    """Q(m; n_0..n_{m-1}) truncated at stage horizon J >= 2."""

    def __init__(self, m: int, ray_lengths, horizon: int):
        if m < 1:
            raise ValueError("need at least one ray")
        if horizon < 2:
            raise ValueError("horizon must be >= 2")
        self.m = m
        self.ray_lengths = tuple(int(x) for x in ray_lengths)
        if len(self.ray_lengths) != m or any(x < 0 for x in self.ray_lengths):
            raise ValueError("need one nonnegative ray length per ray")
        self.horizon = horizon
        size = sum(n + 1 for n in self.ray_lengths) * horizon
        if size > MAX_VERTICES:
            raise ValueError(f"tube has {size} vertices, more than the limit "
                             f"of {MAX_VERTICES}")
        self._compile()

    def _compile(self):
        """Build the tables from the arrow formulas and mesh rules of the
        module docstring; nothing else evaluates them."""
        m, horizon = self.m, self.horizon
        out = {}     # vertex -> (outgoing mu or None, outgoing lam or None)
        target = {}  # arrow -> its target, in vertex order, mu before lam
        for i, n in enumerate(self.ray_lengths):
            for k in range(n + 1):
                for j in range(1, horizon + 1):
                    mu = lam = None
                    if j < horizon:
                        mu = Arrow("mu", i, k, j)
                        target[mu] = (i, k, j + 1)
                    if k < n:
                        lam = Arrow("lam", i, k, j)
                        target[lam] = (i, k + 1, j)
                    elif j >= 2:
                        lam = Arrow("lam", i, k, j)
                        target[lam] = ((i + 1) % m, 0, j - 1)
                    out[(i, k, j)] = (mu, lam)
        rhs = {}     # mu arrow -> (lam', mu') or ZERO
        for (i, k, j), (mu, lam) in out.items():
            if mu is None:
                continue
            if k < self.ray_lengths[i]:
                rhs[mu] = (lam, out[(i, k + 1, j)][0])
            elif j == 1:
                rhs[mu] = ZERO
            else:
                rhs[mu] = (lam, out[((i + 1) % m, 0, j - 1)][0])
        self._out, self._target, self._rhs = out, target, rhs

    def vertices(self) -> list[Vertex]:
        return list(self._out)

    def is_vertex(self, v: Vertex) -> bool:
        return v in self._out

    def _outgoing(self, v: Vertex):
        try:
            return self._out[v]
        except KeyError:
            raise ValueError(f"{v} is not a vertex of the quiver") from None

    def source(self, a: Arrow) -> Vertex:
        if a not in self._target:
            raise ValueError(f"{a} is not an arrow of the quiver")
        return (a.i, a.k, a.j)

    def target(self, a: Arrow) -> Vertex:
        try:
            return self._target[a]
        except KeyError:
            raise ValueError(f"{a} is not an arrow of the quiver") from None

    def valid_arrow(self, a: Arrow) -> bool:
        return a in self._target

    def arrows(self) -> list[Arrow]:
        return list(self._target)

    def out_lam(self, v: Vertex) -> Arrow | None:
        return self._outgoing(v)[1]

    def dot(self) -> str:
        """Graphviz export; mesh relations annotate the mu-arrows."""
        lines = ["digraph raytube {", '  rankdir="BT";']
        for v in self.vertices():
            lines.append(f'  "S{v}" [shape=plaintext];')
        for a in self.arrows():
            s, t = self.source(a), self.target(a)
            attrs = [f'label="{a}"']
            if a.kind == "mu":
                rel = self._rhs[a]
                if rel == ZERO:
                    attrs.append('comment="lam o mu = 0"')
                else:
                    attrs.append(f'comment="lam o mu = {rel[1]} o {rel[0]}"')
            lines.append(f'  "S{s}" -> "S{t}" [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ray_tube(m: int, ray_lengths, horizon: int) -> TranslationQuiver:
    return TranslationQuiver(m, ray_lengths, horizon)


# each key of a tube descriptor: its value in ASCII digits, and its form
_DESCRIPTOR_VALUES = {
    "m": (r"[0-9]+", "m=M"),
    "n": (r"\[(?:[0-9]+(?:,[0-9]+)*)?\]", "n=[n_0,...,n_{m-1}]"),
    "horizon": (r"[0-9]+", "horizon=J"),
}


def parse_tube_descriptor(text: str) -> TranslationQuiver:
    """Parse 'tube m=2 n=[1,0] horizon=6' (the leading word is optional);
    any other word, or a value not in whole numbers, raises ValueError."""
    words = text.split()
    if words[:1] == ["tube"]:
        del words[0]
    kv = {}
    for word in words:
        key, eq, val = word.partition("=")
        if key not in _DESCRIPTOR_VALUES or not eq:
            raise ValueError(f"tube descriptor has {word!r}; the form is "
                             "'[tube] m=M n=[n_0,...,n_{m-1}] horizon=J'")
        if key in kv:
            raise ValueError(f"tube descriptor repeats {key}=")
        pattern, form = _DESCRIPTOR_VALUES[key]
        if re.fullmatch(pattern, val) is None:
            raise ValueError(f"tube descriptor needs {form} in whole "
                             f"numbers, not {word!r}")
        kv[key] = val
    if len(kv) < len(_DESCRIPTOR_VALUES):
        raise ValueError("tube descriptor needs m=, n=[...], horizon=")
    lengths = [int(x) for x in kv["n"].strip("[]").split(",") if x]
    return TranslationQuiver(int(kv["m"]), lengths, int(kv["horizon"]))


def mesh_rule_failures(q: TranslationQuiver) -> tuple[int, list[Arrow]]:
    """Critical-pair certificate for the compiled rules: the number of
    rules, and the mu arrows whose rule does not rewrite the path mu;lam
    to a composable lam';mu' with the same source and target.  Only a mu
    whose source has no outgoing lam (the stage-1 rim mu(i,n_i,1)) has no
    such lam' and must rewrite to ZERO; any other rule rewriting to ZERO
    fails.

    With no failures rewriting is confluent on words of every length: the
    left side mu;lam cannot overlap itself, so there are no critical pairs
    (Knuth-Bendix), and each rewrite removes one mu-before-lam inversion,
    so rewriting terminates (Newman's lemma)."""
    bad = []
    for mu, rhs in q._rhs.items():
        lam = q.out_lam(q.target(mu))
        must_vanish = q.out_lam(q.source(mu)) is None
        if lam is None or (rhs is ZERO) != must_vanish:
            bad.append(mu)
        elif rhs is not ZERO:
            lam2, mu2 = rhs
            if not (q.valid_arrow(lam2) and q.valid_arrow(mu2)
                    and (lam2.kind, mu2.kind) == ("lam", "mu")
                    and q.source(lam2) == q.source(mu)
                    and q.target(lam2) == q.source(mu2)
                    and q.target(mu2) == q.target(lam)):
                bad.append(mu)
    return len(q._rhs), bad


# -- paths and normalization ------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormalPath:
    """Canonical form: a lambda-walk of lam_steps followed by a mu-climb of
    mu_steps (both walks are uniquely determined by the source)."""

    start: Vertex
    lam_steps: int
    mu_steps: int

    def __str__(self):
        return f"lam^{self.lam_steps}.mu^{self.mu_steps}@S{self.start}"


def _append(rhs, left: tuple, nlam: int, a: Arrow):
    """The leftmost rewriting of left;a, where left is a lambda-walk of
    nlam arrows followed by a mu-climb: a mu joins the climb, and a lam
    bubbles left through it one rule at a time.  Returns the rewritten
    word, or ZERO."""
    if a.kind == "mu":
        return left + (a,)
    climb = []
    for mu in reversed(left[nlam:]):
        try:
            new = rhs[mu]
        except KeyError:
            raise ValueError(f"{mu} is not an arrow of the quiver") from None
        if new is ZERO:
            return ZERO
        a, mu_new = new
        climb.append(mu_new)
    return left[:nlam] + (a,) + tuple(reversed(climb))


def normalize_path(q: TranslationQuiver, start: Vertex, arrows):
    """Rewrite the arrow word from start, in diagram order (first applied
    first), to the canonical NormalPath (or ZERO) using the mesh rules,
    leftmost first.  ValueError names the first arrow that does not start
    where the word stands (at start, or where the arrow before it ends)."""
    if not q.is_vertex(start):
        raise ValueError(f"{start} is not a vertex of the quiver")
    arrows = tuple(arrows)
    v = start
    for n, a in enumerate(arrows):
        if q.source(a) != v:
            raise ValueError(f"arrow {n} of the word, {a}, starts at "
                             f"{q.source(a)}, not at {v}")
        v = q.target(a)
    rhs = q._rhs
    left, nlam = (), 0
    for a in arrows:
        left = _append(rhs, left, nlam, a)
        if left is ZERO:
            return ZERO
        nlam += a.kind == "lam"
    return NormalPath(start, nlam, len(left) - nlam)


def normal_path_arrows(q: TranslationQuiver, np: NormalPath) -> list[Arrow]:
    """The arrows of a normal path: its lambda-walk, then its mu-climb."""
    if not q.is_vertex(np.start):
        raise ValueError(f"{np.start} is not a vertex of the quiver")
    out, target = q._out, q._target
    arrows = []
    v = np.start
    for side, steps, walk in ((1, np.lam_steps, "lambda walk"),
                              (0, np.mu_steps, "mu climb")):
        for _ in range(steps):
            a = out[v][side]
            if a is None:
                raise ValueError(f"normal path leaves the quiver ({walk})")
            arrows.append(a)
            v = target[a]
    return arrows


def all_paths_from(q: TranslationQuiver, v: Vertex, max_len: int):
    """All composable arrow words from v up to the given length."""
    if not q.is_vertex(v):
        raise ValueError(f"{v} is not a vertex of the quiver")
    out, target = q._out, q._target
    frontier = [((), v)]
    for _ in range(max_len):
        nxt = []
        for word, end in frontier:
            for a in out[end]:
                if a is not None:
                    word_a = word + (a,)
                    yield word_a
                    nxt.append((word_a, target[a]))
        frontier = nxt


def mesh_sweep(q: TranslationQuiver, max_len: int):
    """Every word of length 1..max_len from every vertex, swept by node.

    A word's node is the pair (leftmost word, end vertex): the word that
    normalize_path rewrites it to (ZERO for a zero path), and the vertex
    where the word ends.  For each start vertex v in vertex order, yields
    (v, nodes, counts): nodes[i] is (leftmost word, normal form) of node
    i, and counts[i] is the number of words from v whose node is i; node
    0 is the empty word's, with count 0.

    The leftmost rewriting of w;a continues that of w by one step of
    normalize_path, which reads only w's leftmost word and a, and w's end
    vertex fixes a by its kind.  So the sweep goes one length at a time,
    continues each node of that length once, and gives each child the sum
    of its parents' counts.  A nonzero leftmost word is as long as its
    words, so only ZERO nodes recur at another length."""
    out, target, rhs = q._out, q._target, q._rhs
    for v in out:
        nodes = [((), NormalPath(v, 0, 0))]
        ends = [v]
        counts = [0]
        ids = {}        # (leftmost word, end vertex) -> node index
        level = {0: 1}  # node index -> its number of words of this length
        for _ in range(max_len):
            next_level = {}
            for nd, n in level.items():
                left, form = nodes[nd]
                for a in filter(None, out[ends[nd]]):
                    left_a = ZERO if form is ZERO else \
                        _append(rhs, left, form.lam_steps, a)
                    key = (left_a, target[a])
                    child = ids.get(key)
                    if child is None:
                        child = ids[key] = len(nodes)
                        if left_a is ZERO:
                            nodes.append((ZERO, ZERO))
                        else:
                            nlam = form.lam_steps + (a.kind == "lam")
                            nodes.append((left_a, NormalPath(
                                v, nlam, len(left_a) - nlam)))
                        ends.append(target[a])
                        counts.append(0)
                    next_level[child] = next_level.get(child, 0) + n
                    counts[child] += n
            level = next_level
        yield v, nodes, counts


def hom_dimension(q: TranslationQuiver, source: Vertex, target: Vertex) -> int:
    """Number of distinct normal paths source -> target (the dimension of
    the path space modulo the mesh relations).  The lambda walk from
    source ends: each step raises the depth k or is a rim step that lowers
    the stage j, and stage 1's rim has no lambda arrow, so it takes at
    most (max n_i + 1) * horizon steps."""
    if not (q.is_vertex(source) and q.is_vertex(target)):
        raise ValueError("vertex outside the horizon")
    count = 0
    v = source
    while True:
        # climb with mu from v: stages ascend one at a time
        if v[:2] == target[:2] and target[2] >= v[2] and \
                target[2] <= q.horizon:
            count += 1
        a = q.out_lam(v)
        if a is None:
            break
        v = q.target(a)
    return count


def rim_square_failures(q: TranslationQuiver) -> list[str]:
    """The failing squares of q's depth-0 ladder, as path equalities, at
    stages 2..horizon - 1 (the square at stage j reaches stage j+1).  Ray
    i's rim map from stage j is NormalPath((i,0,j), n_i + 1, 0); the square
    at stage j holds when, on every ray i, mu(i,0,j) then the rim map from
    stage j+1 normalizes as the rim map from stage j then mu(i+1,0,j-1)
    does, and the base square when mu(i,0,1) then the rim map from stage 2
    normalizes to ZERO."""
    def rim(i, j):
        lam_steps = q.ray_lengths[i] + 1
        return normal_path_arrows(q, NormalPath((i, 0, j), lam_steps, 0))

    def mu(i, j):
        return [Arrow("mu", i % q.m, 0, j)]

    failed = []
    for j in range(2, q.horizon):
        if any(normalize_path(q, (i, 0, j), mu(i, j) + rim(i, j + 1)) !=
               normalize_path(q, (i, 0, j), rim(i, j) + mu(i + 1, j - 1))
               for i in range(q.m)):
            failed.append(f"square at stage {j}")
    if any(normalize_path(q, (i, 0, 1), mu(i, 1) + rim(i, 2)) != ZERO
           for i in range(q.m)):
        failed.append("base square not zero")
    return failed
