"""Ray-tube translation quivers and mesh-relation path normalization.

The quiver Q(m; n_0..n_{m-1}) has vertices S(i, k, j) for 0 <= i < m (read
mod m), 0 <= k <= n_i, and stages j >= 1 capped by a horizon.  Arrows are

    mu(i,k,j):  S(i,k,j)   -> S(i,k,j+1)
    lam(i,k,j): S(i,k,j)   -> S(i,k+1,j)        for k < n_i
    lam(i,n_i,j): S(i,n_i,j) -> S(i+1,0,j-1)    for j >= 2  (rim descent)

Mesh rewriting orients the relations so that lambda segments precede mu
segments (diagram order); every nonzero path normalizes to a coefficient
with a lambda-walk followed by a mu-climb, and both walks are uniquely
determined by their lengths, so the normal form is canonical.  In diagram
order the rules are

    mu(i,k,j) ; lam(i,k,j+1)     ->  lam(i,k,j) ; mu(i,k+1,j)       k < n_i
    mu(i,n_i,j) ; lam(i,n_i,j+1) ->  lam(i,n_i,j) ; mu(i+1,0,j-1)   j >= 2
    mu(i,n_i,1) ; lam(i,n_i,2)   ->  0

The rim relation is implemented in its type-correct form

    lam(i,n_i,j+1) o mu(i,n_i,j)  =  mu(i+1,0,j-1) o lam(i,n_i,j)   (j >= 2)

derived from the almost split sequence at the rim (the printed index
pattern of the source text is not composable as stated; normalization
would flag any path on which another orientation disagrees, and the
confluence suite checks order independence exhaustively).

A TranslationQuiver compiles these formulas once, at construction, into
lookup tables: the outgoing arrows of each vertex, the target of each
arrow and the right-hand side of the rule for each mu arrow.  Everything
else reads the tables, and input that is not in them raises ValueError.

normalize_path finds the redexes of a word in one table of redex
positions keyed by its kinds string ("m" or "l" per arrow): "leftmost"
contracts the first, "rightmost" the last, and "random" draws one with
rng.choice.

mesh_sweep normalizes every short word of a tube without starting over
for each word, from two facts about the strategies of normalize_path:

  - leftmost(w;a) first performs exactly the rewrites of leftmost(w),
    because every redex inside w lies left of the boundary; what is left
    is to bubble a lam a left through the mu-climb of leftmost(w).  That
    reads only the node of w, the pair (leftmost word, end vertex), and
    the kind of a, so the sweep continues each node once and the words
    of a node share the result;
  - rightmost(a;w) first performs exactly the rewrites of rightmost(w);
    what is left is to bubble a mu a right through its lambda-walk, which
    reads only the mu arrows met and the lambda count of rightmost(w).

Each continuation is the same rewrite sequence that normalize_path
performs on the whole word, not merely a word with the same result, so
the sweep computes both strategies independently and comparing them still
tests confluence rather than assuming it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

Vertex = tuple  # (i, k, j)

# The largest vertex count sum(n_i + 1) * horizon a quiver may have; its
# tables are built eagerly, a few hundred bytes per vertex.
MAX_VERTICES = 100_000

STRATEGIES = ("leftmost", "rightmost", "random")


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

    def n_of(self, i: int) -> int:
        return self.ray_lengths[i % self.m]

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


def parse_tube_descriptor(text: str) -> TranslationQuiver:
    """Parse 'tube m=2 n=[1,0] horizon=6' (the leading word is optional)."""
    kv = {}
    for p in text.split():
        if "=" in p:
            key, val = p.split("=", 1)
            kv[key.strip()] = val.strip()
    if "m" not in kv or "n" not in kv or "horizon" not in kv:
        raise ValueError("tube descriptor needs m=, n=[...], horizon=")
    m = int(kv["m"])
    nstr = kv["n"].strip("[]")
    lengths = [int(x) for x in nstr.split(",") if x != ""]
    return TranslationQuiver(m, lengths, int(kv["horizon"]))


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


# -- formal paths and normalization -----------------------------------------


@dataclass(frozen=True, slots=True)
class FormalPath:
    """A scalar coefficient and a composable arrow word in diagram order
    (first applied first)."""

    coeff: int
    start: Vertex
    arrows: tuple[Arrow, ...]

    def __str__(self):
        if not self.arrows:
            return f"{self.coeff}.id@S{self.start}"
        word = ";".join(str(a) for a in self.arrows)
        return f"{self.coeff}.[{word}]"


@dataclass(frozen=True, slots=True)
class NormalPath:
    """Canonical form: a lambda-walk of lam_steps followed by a mu-climb of
    mu_steps (both walks are uniquely determined by the source)."""

    coeff: int
    start: Vertex
    lam_steps: int
    mu_steps: int

    def __str__(self):
        return (f"{self.coeff}.lam^{self.lam_steps}"
                f".mu^{self.mu_steps}@S{self.start}")


@lru_cache(maxsize=4096)
def _redexes(kinds: str) -> tuple[int, ...]:
    """The positions of the redexes "ml" in a kinds string, in order."""
    found = []
    t = kinds.find("ml")
    while t >= 0:
        found.append(t)
        t = kinds.find("ml", t + 1)
    return tuple(found)


def normalize_path(q: TranslationQuiver, p: FormalPath,
                   strategy: str = "leftmost",
                   rng: random.Random | None = None):
    """Rewrite to the canonical NormalPath (or ZERO) using the mesh rules;
    the strategy picks which redex to contract so confluence is testable.
    "random" draws its redexes from rng, which it requires."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError('strategy "random" needs an rng')
    pick = rng.choice if strategy == "random" else \
        itemgetter(0 if strategy == "leftmost" else -1)
    rhs_of = q._rhs
    word = list(p.arrows)
    # "m" or "l" per arrow; a redex is an occurrence of "ml"
    kinds = "".join([a.kind[0] for a in word])
    while True:
        redexes = _redexes(kinds)
        if not redexes:
            break
        t = pick(redexes)
        try:
            rhs = rhs_of[word[t]]
        except KeyError:
            raise ValueError(f"{word[t]} is not an arrow of the "
                             "quiver") from None
        if rhs is ZERO:
            return ZERO
        word[t], word[t + 1] = rhs
        kinds = f"{kinds[:t]}lm{kinds[t + 2:]}"
    nlam = kinds.count("l")
    return NormalPath(p.coeff, p.start, nlam, len(kinds) - nlam)


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


def normal_path_target(q: TranslationQuiver, np: NormalPath) -> Vertex:
    arrows = normal_path_arrows(q, np)
    return q.target(arrows[-1]) if arrows else np.start


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


# A rightmost state is a byte: p * 16 + q + 1 for the normal form
# lam^p ; mu^q, _ZERO_STATE for ZERO, 0 where there is no word.
_ZERO_STATE = 255
_CODE_BITS = 9   # a word of length <= 8: its kinds and a leading 1 bit


def _rightmost_table(q: TranslationQuiver, max_len: int) -> bytearray:
    """The rightmost state of every word of length <= max_len, at
    vertex_index << _CODE_BITS | code.  A word's code has bit t set when
    its arrow t is a lam, and bit len(word) set as a length marker.

    Built by length: rightmost(a;w) continues rightmost(w), and rewriting
    reads only the redex's mu arrow and the kinds, so the state of a;w
    follows from a and the state lam^p ; mu^q of w alone.  A lam a gives
    lam^(p+1) ; mu^q.  A mu a bubbles right through the p lams along the
    chain of rule right-hand sides from a, giving lam^p ; mu^(q+1), or
    ZERO if the chain hits ZERO within p steps.  The words a;w of one
    length from one vertex form a stride-2 slice of the table, and their
    states are the slice of w's states at target(a) under a's byte map."""
    if max_len >= _CODE_BITS:
        raise ValueError(f"words longer than {_CODE_BITS - 1} arrows have "
                         "no table code")
    out, target, rhs = q._out, q._target, q._rhs
    index = {v: vi << _CODE_BITS for vi, v in enumerate(out)}
    table = bytearray(len(out) << _CODE_BITS)
    for base in index.values():
        table[base + 1] = 1     # the empty word, lam^0 ; mu^0
    states = [(p, r) for p in range(max_len) for r in range(max_len - p)]
    maps = {}   # (state shift, bubbling steps before ZERO) -> byte map
    arrow_map = {}
    for a in target:
        # a lam adds one lam and never meets ZERO; a mu adds one mu after
        # the steps its chain of right-hand sides takes before ZERO
        shift, steps, mu = 16, max_len, a
        if a.kind == "mu":
            shift = 1
            for step in range(max_len - 1):
                nxt = rhs[mu]
                if nxt is ZERO:
                    steps = step
                    break
                mu = nxt[1]
        key = (shift, steps)
        if key not in maps:
            byte_map = bytearray(range(256))
            for p, r in states:
                state = p * 16 + r + 1
                byte_map[state] = state + shift if p <= steps else _ZERO_STATE
            maps[key] = bytes(byte_map)
        arrow_map[a] = maps[key]
    for n in range(max_len):
        for v, (mu, lam) in out.items():
            for bit, a in ((0, mu), (1, lam)):
                if a is None:
                    continue
                src = index[target[a]] + (1 << n)
                dst = index[v] + (2 << n) + bit
                table[dst:dst + (2 << n):2] = \
                    table[src:src + (1 << n)].translate(arrow_map[a])
    return table


def word_of_code(q: TranslationQuiver, v: Vertex, code: int) -> tuple:
    """The word from v whose table code (see _rightmost_table) is code."""
    out, target = q._out, q._target
    start, word = v, []
    try:
        for bit in bin(code)[:2:-1]:
            a = out[v][bit == "1"]
            word.append(a)
            v = target[a]
    except KeyError:
        raise ValueError(f"no word from {start} has code {code}") from None
    return tuple(word)


def mesh_sweep(q: TranslationQuiver, max_len: int):
    """Every word of length 1..max_len from every vertex, swept by node.

    A word's node is the pair (leftmost word, end vertex): the word that
    the "leftmost" strategy of normalize_path rewrites it to (ZERO for a
    zero path), and the vertex where the word ends.  For each start vertex
    v in vertex order, yields (v, nodes, codes, word_nodes, rights):

      - nodes[i] is (leftmost word, leftmost normal form, its state) of
        node i, the state a byte as in _rightmost_table; node 0 is the
        empty word's;
      - codes, word_nodes and rights list every word from v in
        all_paths_from order: its table code (word_of_code rebuilds the
        word), its node index, and the state of the normal form that the
        "rightmost" strategy returns.

    leftmost(w;a) first rewrites w exactly as leftmost(w) does, since
    every redex of w lies left of the boundary, and then bubbles a lam a
    left through the mu-climb, one rule per step.  That reads only the
    leftmost word of w and a, and the end vertex of w fixes a by its kind,
    so each node is continued once and its words share the result.  The
    node memo lives for one start vertex.  Rightmost states come from
    _rightmost_table."""
    table = _rightmost_table(q, max_len)
    out, target, rhs = q._out, q._target, q._rhs
    for vi, v in enumerate(out):
        base = vi << _CODE_BITS
        nodes = [((), NormalPath(1, v, 0, 0), 1)]
        ends = [v]
        kids = [None]   # node index -> (mu child, lam child), once continued
        ids = {}        # (leftmost word, end vertex) -> node index

        def node(left, state, end):
            nd = ids.get((left, end))
            if nd is None:
                nd = ids[left, end] = len(nodes)
                form = ZERO if state == _ZERO_STATE else \
                    NormalPath(1, v, (state - 1) >> 4, (state - 1) & 15)
                nodes.append((left, form, state))
                ends.append(end)
                kids.append(None)
            return nd

        def continue_node(nd):
            left, _, state = nodes[nd]
            mu, lam = out[ends[nd]]
            mu_child = lam_child = None
            if mu is not None:
                if state == _ZERO_STATE:
                    mu_child = node(ZERO, state, target[mu])
                else:
                    mu_child = node(left + (mu,), state + 1, target[mu])
            if lam is not None:
                left_a, state_a = ZERO, _ZERO_STATE
                if state != _ZERO_STATE:
                    nlam = (state - 1) >> 4
                    climb = []
                    first = lam
                    for a in reversed(left[nlam:]):
                        new = rhs[a]
                        if new is ZERO:
                            break
                        first, a_new = new
                        climb.append(a_new)
                    else:
                        left_a = left[:nlam] + (first,) + \
                            tuple(reversed(climb))
                        state_a = state + 16
                lam_child = node(left_a, state_a, target[lam])
            kids[nd] = mu_child, lam_child
            return kids[nd]

        codes, word_nodes = [1], [0]    # the empty word
        all_codes, all_nodes = [], []
        step = 1    # 1 << len(word)
        for _ in range(max_len):
            next_codes, next_nodes = [], []
            for code, nd in zip(codes, word_nodes):
                mu_child, lam_child = kids[nd] or continue_node(nd)
                if mu_child is not None:
                    next_codes.append(code + step)
                    next_nodes.append(mu_child)
                if lam_child is not None:
                    next_codes.append(code + 2 * step)
                    next_nodes.append(lam_child)
            codes, word_nodes = next_codes, next_nodes
            all_codes += codes
            all_nodes += word_nodes
            step <<= 1
        rights = bytes(map(table[base:base + (1 << _CODE_BITS)].__getitem__,
                           all_codes))
        yield v, nodes, all_codes, all_nodes, rights


def hom_dimension(q: TranslationQuiver, source: Vertex, target: Vertex) -> int:
    """Number of distinct normal paths source -> target (the dimension of
    the path space modulo the mesh relations)."""
    if not (q.is_vertex(source) and q.is_vertex(target)):
        raise ValueError("vertex outside the horizon")
    count = 0
    v = source
    steps = 0
    while True:
        # climb with mu from v: stages ascend one at a time
        if v[:2] == target[:2] and target[2] >= v[2] and \
                target[2] <= q.horizon:
            count += 1
        a = q.out_lam(v)
        if a is None:
            break
        v = q.target(a)
        steps += 1
        if steps > 4 * q.m * (max(q.ray_lengths) + 2) * q.horizon:
            raise RuntimeError("lambda walk failed to terminate")
    return count


# -- the generalized ladder attached to a tube (symbolic) ---------------------


@dataclass
class SymbolicTube:
    """Objects and maps of the pushout ladder attached to a ray tube:
    direct sums of vertices with matrices of normal paths (None = zero
    entry).  Blocks on rays with exhausted depth are zero; the support
    flags record which blocks exist."""

    quiver: TranslationQuiver

    def _matrix(self, j: int, top: int, cells: dict):
        """The m x m matrix of a map between stages j and top: the given
        {(row, col): path} cells, None elsewhere."""
        if not (1 <= j and top <= self.quiver.horizon):
            raise ValueError("stage outside the quiver horizon")
        m = self.quiver.m
        return [[cells.get((s, t)) for t in range(m)] for s in range(m)]

    def phi_matrix(self, j: int):
        """Rim descent from stage j+1 to stage j: the full lambda-chain of
        ray i sits in row i, column (i+1) mod m."""
        q = self.quiver
        return self._matrix(j, j + 1, {
            (i, (i + 1) % q.m): NormalPath(1, (i, 0, j + 1), q.n_of(i) + 1, 0)
            for i in range(q.m)})

    def alpha_matrix(self, l: int, j: int = 1):
        """Diagonal block embedding into the depth-l objects; zero on rays
        with n_i < l."""
        q = self.quiver
        return self._matrix(j, j, {(i, i): NormalPath(1, (i, l - 1, j), 1, 0)
                                   for i in range(q.m) if l <= q.n_of(i)})

    def psibar_matrix(self, l: int, j: int):
        """Diagonal stage embedding at depth l (zero on exhausted rays); at
        depth 0 the stage embeddings mu(i,0)[j]."""
        q = self.quiver
        return self._matrix(j, j + 1, {(i, i): NormalPath(1, (i, l, j), 0, 1)
                                       for i in range(q.m) if l <= q.n_of(i)})

    def compose(self, first, second):
        """Matrix composition (first then second) with path normalization;
        entries must stay single paths (true for the ladder shapes)."""
        q = self.quiver
        m = self.quiver.m
        out = [[None] * m for _ in range(m)]
        for s in range(m):
            for t in range(m):
                acc = None
                for mid in range(m):
                    a, b = first[s][mid], second[mid][t]
                    if a is None or b is None:
                        continue
                    if normal_path_target(q, a) != b.start:
                        raise ValueError("non-composable ladder entries")
                    word = normal_path_arrows(q, a) + normal_path_arrows(q, b)
                    if not word:
                        comp = NormalPath(a.coeff * b.coeff, a.start, 0, 0)
                    else:
                        comp = normalize_path(
                            q, FormalPath(a.coeff * b.coeff, a.start,
                                          tuple(word)))
                    if comp == ZERO:
                        continue
                    if acc is not None:
                        raise ValueError("ladder composition left the "
                                         "single-path regime")
                    acc = comp
                out[s][t] = acc
        return out
