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
lookup tables on integer ids: vertices are numbered in vertex order and
arrows in vertex order, mu before lam.  The tables give the outgoing
(mu, lam) arrow ids of each vertex, the target vertex id of each arrow
and the right-hand side of the rule of each mu arrow, with the id <->
Arrow and id <-> vertex maps beside them.  Everything else reads the
tables; an Arrow, a vertex tuple or a NormalPath appears only where a
public function takes or returns one, and input that is not in the
tables raises ValueError.

normalize_path rewrites leftmost, one arrow at a time: the word read so
far is already a lambda-walk followed by a mu-climb, a mu joins the
climb, and a lam bubbles left through the climb one rule at a time.
Every redex of the word read so far lies left of the new arrow, so this
is exactly the leftmost rewrite sequence of the whole word.

mesh_sweep takes the same step for every short word of a tube without
starting over for each word: the step reads only the word's node, the
pair (leftmost id word, end vertex id), and the kind of the next arrow.
So the sweep goes one length at a time, continues each node of that
length once, and weighs each node by its number of words instead of
listing them.  normal_walk gives the canonical walk of a normal form as
an id word, sliced from each vertex's lambda-walk and mu-climb, which
are read off the outgoing-arrow and target tables once per quiver.

The pushout ladder's maps are paths of the quiver, so its squares are
equalities of normal paths: the k < n_i mesh rules at depth >= 1, and at
depth 0 the squares rim_square_failures normalizes both ways round.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

Vertex = tuple  # (i, k, j)

# The largest vertex count sum(n_i + 1) * horizon a quiver may have; its
# id tables are built eagerly, about 730 bytes per vertex, and its walks
# on first use, about 230 more.
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
        """Build the id tables from the arrow formulas and mesh rules of
        the module docstring; nothing else evaluates them."""
        m, horizon = self.m, self.horizon
        vertices = [(i, k, j) for i, n in enumerate(self.ray_lengths)
                    for k in range(n + 1) for j in range(1, horizon + 1)]
        vertex_id = {v: x for x, v in enumerate(vertices)}
        arrows = []  # arrow id -> Arrow, in vertex order, mu before lam
        target = []  # arrow id -> its target's vertex id
        out = []     # vertex id -> (outgoing mu id or None, lam id or None)
        for (i, k, j) in vertices:
            mu = lam = None
            if j < horizon:
                mu = len(arrows)
                arrows.append(Arrow("mu", i, k, j))
                target.append(vertex_id[(i, k, j + 1)])
            if k < self.ray_lengths[i] or j >= 2:
                lam = len(arrows)
                arrows.append(Arrow("lam", i, k, j))
                target.append(vertex_id[(i, k + 1, j)
                                        if k < self.ray_lengths[i]
                                        else ((i + 1) % m, 0, j - 1)])
            out.append((mu, lam))
        rhs = [None] * len(arrows)  # mu id -> (lam' id, mu' id) or ZERO
        for (i, k, j), (mu, lam) in zip(vertices, out):
            if mu is None:
                continue
            if k < self.ray_lengths[i]:
                rhs[mu] = (lam, out[vertex_id[(i, k + 1, j)]][0])
            elif j == 1:
                rhs[mu] = ZERO
            else:
                rhs[mu] = (lam, out[vertex_id[((i + 1) % m, 0, j - 1)]][0])
        self._vertices, self._vertex_id = tuple(vertices), vertex_id
        self._arrows = tuple(arrows)
        self._arrow_id = {a: x for x, a in enumerate(arrows)}
        self._out, self._target, self._rhs = tuple(out), tuple(target), \
            tuple(rhs)

    @cached_property
    def _walks(self):
        """Per side (0: mu, 1: lam, as in _out), each vertex id's place
        (arrows, stops, t) on a maximal walk of that side's arrows: the
        walk from the vertex is arrows[t:], and stops[t + s] is the vertex
        id it reaches after s steps.  Read off _out and _target once, on
        first use.  Each walk starts at a vertex no arrow of its side
        enters and runs to its end, so it holds the whole walk from each
        vertex on it; every vertex lies on one, since a lam raises k or
        lowers the stage and a mu raises the stage, so no walk closes a
        cycle."""
        out, target = self._out, self._target
        walks = []
        for side in (0, 1):
            entered = {target[pair[side]] for pair in out
                       if pair[side] is not None}
            places = [None] * len(out)
            for v in range(len(out)):
                if v in entered:
                    continue
                arrows, stops = [], [v]
                while (a := out[stops[-1]][side]) is not None:
                    arrows.append(a)
                    stops.append(target[a])
                arrows, stops = tuple(arrows), tuple(stops)
                for t, w in enumerate(stops):
                    places[w] = (arrows, stops, t)
            walks.append(places)
        return tuple(walks)

    def vertices(self) -> list[Vertex]:
        return list(self._vertices)

    def is_vertex(self, v: Vertex) -> bool:
        return v in self._vertex_id

    def _vertex(self, v: Vertex) -> int:
        try:
            return self._vertex_id[v]
        except KeyError:
            raise ValueError(f"{v} is not a vertex of the quiver") from None

    def _arrow(self, a: Arrow) -> int:
        try:
            return self._arrow_id[a]
        except KeyError:
            raise ValueError(f"{a} is not an arrow of the quiver") from None

    def source(self, a: Arrow) -> Vertex:
        self._arrow(a)
        return (a.i, a.k, a.j)

    def target(self, a: Arrow) -> Vertex:
        return self._vertices[self._target[self._arrow(a)]]

    def arrows(self) -> list[Arrow]:
        return list(self._arrows)

    def out_lam(self, v: Vertex) -> Arrow | None:
        lam = self._out[self._vertex(v)][1]
        return None if lam is None else self._arrows[lam]

    def dot(self) -> str:
        """Graphviz export; mesh relations annotate the mu-arrows."""
        lines = ["digraph raytube {", '  rankdir="BT";']
        for v in self._vertices:
            lines.append(f'  "S{v}" [shape=plaintext];')
        for x, a in enumerate(self._arrows):
            s, t = a[1:], self._vertices[self._target[x]]
            attrs = [f'label="{a}"']
            rel = self._rhs[x]
            if rel is ZERO:
                attrs.append('comment="lam o mu = 0"')
            elif rel is not None:
                lam, mu = (self._arrows[y] for y in rel)
                attrs.append(f'comment="lam o mu = {mu} o {lam}"')
            lines.append(f'  "S{s}" -> "S{t}" [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


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
    fails.  A vertex has at most one outgoing arrow of each kind, so lam'
    must be the lam out of mu's source, and mu' the mu out of lam''s
    target.

    With no failures rewriting is confluent on words of every length: the
    left side mu;lam cannot overlap itself, so there are no critical pairs
    (Knuth-Bendix), and each rewrite removes one mu-before-lam inversion,
    so rewriting terminates (Newman's lemma)."""
    arrows, out, target = q._arrows, q._out, q._target
    count, bad = 0, []
    for mu, rule in enumerate(q._rhs):
        if rule is None:    # a lam arrow has no rule
            continue
        count += 1
        lam = out[target[mu]][1]
        lam2 = out[q._vertex_id[arrows[mu][1:]]][1]
        if lam is None or (rule is ZERO) != (lam2 is None):
            bad.append(arrows[mu])
        elif rule is not ZERO:
            mu2 = out[target[lam2]][0]
            if rule != (lam2, mu2) or mu2 is None or \
                    target[mu2] != target[lam]:
                bad.append(arrows[mu])
    return count, bad


# -- paths and normalization ------------------------------------------------


class NormalPath(NamedTuple):
    """Canonical form: a lambda-walk of lam_steps followed by a mu-climb of
    mu_steps (both walks are uniquely determined by the source)."""

    start: Vertex
    lam_steps: int
    mu_steps: int

    def __str__(self):
        return f"lam^{self.lam_steps}.mu^{self.mu_steps}@S{self.start}"


def _append(rhs, left: tuple, nlam: int, a: int, lam: int):
    """The leftmost rewriting of left;a on arrow ids, where left is a
    lambda-walk of nlam arrows followed by a mu-climb and a is a lam if
    lam is true, else a mu: a mu joins the climb, and a lam bubbles left
    through it one rule at a time.  Returns the rewritten word, or ZERO."""
    if not lam:
        return left + (a,)
    climb = []
    for mu in reversed(left[nlam:]):
        new = rhs[mu]
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
    v = q._vertex(start)
    word = []
    for n, a in enumerate(arrows):
        x = q._arrow(a)
        if a[1:] != q._vertices[v]:
            raise ValueError(f"arrow {n} of the word, {a}, starts at "
                             f"{a[1:]}, not at {q._vertices[v]}")
        word.append((x, a.kind == "lam"))
        v = q._target[x]
    rhs = q._rhs
    left, nlam = (), 0
    for x, lam in word:
        left = _append(rhs, left, nlam, x, lam)
        if left is ZERO:
            return ZERO
        nlam += lam
    return NormalPath(start, nlam, len(left) - nlam)


def normal_walk(q: TranslationQuiver, v: int, lam_steps: int,
                mu_steps: int):
    """The canonical walk of the normal form lam^lam_steps.mu^mu_steps at
    vertex id v, on ids: (arrow ids, end vertex id), or None if the walk
    leaves the quiver.  The steps are not negative."""
    mu_climbs, lam_walks = q._walks
    walk, stops, t = lam_walks[v]
    mid = t + lam_steps
    if mid >= len(stops):
        return None
    climb, heights, s = mu_climbs[stops[mid]]
    top = s + mu_steps
    if top >= len(heights):
        return None
    return walk[t:mid] + climb[s:top], heights[top]


def normal_path_arrows(q: TranslationQuiver, np: NormalPath) -> list[Arrow]:
    """The arrows of a normal path: its lambda-walk, then its mu-climb."""
    v = q._vertex(np.start)
    if np.lam_steps < 0 or np.mu_steps < 0:
        raise ValueError(f"normal path {np} has a negative step count")
    walk = normal_walk(q, v, np.lam_steps, np.mu_steps)
    if walk is None:
        raise ValueError(f"normal path {np} leaves the quiver")
    return [q._arrows[x] for x in walk[0]]


def all_paths_from(q: TranslationQuiver, v: Vertex, max_len: int):
    """All composable arrow words from v up to the given length."""
    arrows, out, target = q._arrows, q._out, q._target
    frontier = [((), q._vertex(v))]
    for _ in range(max_len):
        nxt = []
        for word, end in frontier:
            for x in out[end]:
                if x is not None:
                    word_a = word + (arrows[x],)
                    yield word_a
                    nxt.append((word_a, target[x]))
        frontier = nxt


def mesh_sweep(q: TranslationQuiver, max_len: int):
    """Every word of length 1..max_len from every vertex, swept by node,
    on ids.

    A word's node is the pair (leftmost word, end vertex): the id word
    that normalize_path rewrites it to (ZERO for a zero path), and the id
    of the vertex where the word ends.  For each start vertex id v in
    order, yields (v, nodes, counts): nodes[i] is (leftmost word, lam
    steps) of node i, with (ZERO, 0) for a zero node, and counts[i] is the
    number of words from v whose node is i; node 0 is the empty word's,
    with count 0.

    The leftmost rewriting of w;a continues that of w by one step of
    normalize_path, which reads only w's leftmost word and a, and w's end
    vertex fixes a by its kind.  So the sweep goes one length at a time,
    continues each node of that length once, and gives each child the sum
    of its parents' counts.  A nonzero leftmost word is as long as its
    words, so only ZERO nodes recur at another length."""
    out, target, rhs = q._out, q._target, q._rhs
    for v in range(len(out)):
        nodes = [((), 0)]
        ends = [v]
        counts = [0]
        ids = {}        # (leftmost word, end vertex) -> node index
        level = {0: 1}  # node index -> its number of words of this length
        for _ in range(max_len):
            next_level = {}
            for nd, n in level.items():
                left, nlam = nodes[nd]
                for lam, a in enumerate(out[ends[nd]]):
                    if a is None:
                        continue
                    left_a = ZERO if left is ZERO else \
                        _append(rhs, left, nlam, a, lam)
                    end = target[a]
                    child = ids.get((left_a, end))
                    if child is None:
                        child = ids[left_a, end] = len(nodes)
                        nodes.append((ZERO, 0) if left_a is ZERO
                                     else (left_a, nlam + lam))
                        ends.append(end)
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
    vertices, out, arrow_target = q._vertices, q._out, q._target
    i, k, l = target
    count = 0
    v = q._vertex_id[source]
    while True:
        # climb with mu from v: stages ascend one at a time
        vi, vk, vj = vertices[v]
        count += vi == i and vk == k and vj <= l
        lam = out[v][1]
        if lam is None:
            return count
        v = arrow_target[lam]


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
