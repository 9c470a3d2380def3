"""Modules over finite-dimensional algebras, maps, hom spaces, duals.

Conventions (used throughout the package):

* Every Module is a *right* module over its algebra.  Elements are row
  vectors of length dim, and an algebra element a acts by m -> m @ rho(a).
* Left A-modules are represented as right modules over A.op: if lam(a) is
  the left action on column vectors, the stored matrices are lam(a)^T.
  `k_dual` therefore just transposes the action matrices and flips to the
  opposite algebra, and the double dual is literally the original data.
* A ModuleMap f: M -> N is a dim(M) x dim(N) matrix with f(m) = m @ F,
  intertwining rho_M(a) F = F rho_N(a) for all a.
* A representation of an algebra's bound quiver (a space per vertex, a
  matrix per arrow) is a module by `quiver_rep`, on the vertex spaces in
  ascending order, each path acting from its source's block to its target's.
* A module is generated by the lifts of its top M / M rad A (`top_of`),
  and `presentation_of`'s relations are the lifts of its cover kernel's
  top, read by `top_of(free, kernel)` in the free module's coordinates
  with no kernel module built.
* What is computed of a module from its content alone, its hom bases and
  its decomposition, is kept in one record per content (algebra object,
  action matrices), shared by every module with that content through
  a weak table.  A record holds matrices, and summand modules other than
  the one it describes, so it refers to no module with its content: it
  dies by refcount with its last module, or when the enclosing
  `records_held` block ends, and the work done does not depend on the
  garbage collector.  Each suite runs in such a block, so a content drawn
  again later in the suite finds its record.  The data a record shares is
  immutable (tuples of matrices and of indices).  `presentation_of` holds
  a map into M, so it stays on the module object.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref

from .algebra import FDAlgebra
from .linalg import (Matrix, Subspace, block, block_diagonal, combination,
                     intertwiners, quotient_projection, span_elements)

_module_serial = itertools.count()
_record_serial = itertools.count()


class _Record:
    """What is computed of one module content: the hom bases to each
    target, keyed by the target record's serial (a tuple of matrices
    each), and the decomposition as decompose.decompose keeps it."""

    __slots__ = ("serial", "homs", "decomposition", "__weakref__")

    def __init__(self):
        self.serial = next(_record_serial)
        self.homs: dict = {}
        self.decomposition = None


# the record of each content (algebra, action), held weakly: an entry
# lives exactly as long as some module with that content refers to it
_RECORDS: "weakref.WeakValueDictionary[tuple, _Record]" = \
    weakref.WeakValueDictionary()

# every record made while a records_held block is open, or None outside one
_HELD: list | None = None


@contextlib.contextmanager
def records_held():
    """Keep every content record made inside the block alive until the
    block ends, then drop them all at once (by refcount: a record is in no
    cycle).  A nested block holds nothing beyond the outermost one."""
    global _HELD
    if _HELD is not None:
        yield
        return
    _HELD = []
    try:
        yield
    finally:
        _HELD = None


class Module:
    """Right module: one action matrix per algebra basis element, square
    and all of size dim.  Its laws hold by how it is built, and the tests
    check them by multiplying the action matrices pair by pair."""

    __slots__ = ("algebra", "dim", "action", "label", "serial", "_act_cache",
                 "_presentation", "_record")

    def __init__(self, algebra: FDAlgebra, action, label: str = ""):
        self.algebra = algebra
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        self.dim = self.action[0].rows
        if any(m.rows != self.dim or m.cols != self.dim for m in self.action):
            raise ValueError("action matrices must be square, of one size")
        self.label = label
        self.serial = next(_module_serial)
        self._act_cache: dict = {}
        self._presentation = None  # see presentation_of
        self._record = None  # see _record_of

    def act(self, el) -> Matrix:
        """Action matrix of an algebra element (coordinate vector)."""
        el = tuple(el)
        hit = self._act_cache.get(el)
        if hit is not None:
            return hit
        out = combination(el, self.action)
        self._act_cache[el] = out
        return out

    def elements(self):
        """All module elements as row vectors (finite fields only)."""
        f = self.algebra.field
        ident = Matrix.identity(f, self.dim)
        rows = [ident.take_rows((i,)) for i in range(self.dim)]
        for vec, _ in span_elements(rows, Matrix.zero(f, 1, self.dim)):
            yield vec

    def __repr__(self):
        lab = self.label or f"M{self.serial}"
        return f"Module({lab}, dim={self.dim} over {self.algebra.name})"


class ModuleMap:
    """Homomorphism f: source -> target, f(m) = m @ mat (row convention)."""

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: Module, target: Module, mat: Matrix,
                 check: bool = True):
        self.source = source
        self.target = target
        self.mat = mat
        if mat.rows != source.dim or mat.cols != target.dim:
            raise ValueError("map matrix has wrong shape")
        if source.algebra is not target.algebra:
            raise ValueError("source and target over different algebras")
        if check and not self.intertwines():
            raise ValueError("matrix does not intertwine the actions")

    def intertwines(self) -> bool:
        """Whether the matrix intertwines the actions of the algebra's
        generators, and so of every element."""
        src, tgt = self.source.action, self.target.action
        return all(src[g] * self.mat == self.mat * tgt[g]
                   for g in self.source.algebra.generators)

    def __call__(self, vec):
        m = Matrix.from_rows(self.mat.field, [list(vec)]) * self.mat
        return tuple(m.data[0])

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other; other's source must be self's target,
        or a module over the same algebra with equal action matrices."""
        mid, nxt = self.target, other.source
        if nxt is not mid and (nxt.algebra is not mid.algebra
                               or nxt.action != mid.action):
            raise ValueError("maps not composable")
        return ModuleMap(self.source, other.target, self.mat * other.mat,
                         check=False)

    def rank(self) -> int:
        return self.mat.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.rank() == self.source.dim

    def __repr__(self):
        return f"ModuleMap({self.source.dim}->{self.target.dim})"


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, Matrix.identity(m.algebra.field, m.dim), check=False)


def zero_map(m: Module, n: Module) -> ModuleMap:
    return ModuleMap(m, n, Matrix.zero(m.algebra.field, m.dim, n.dim), check=False)


def free_module(algebra: FDAlgebra, rank: int, label: str = "") -> Module:
    """R^rank with basis e_i (x) b_t, coordinates blocked by generator."""
    return Module(algebra, algebra.free_action(rank),
                  label=label or f"{algebra.name}^{rank}")


def regular_module(algebra: FDAlgebra) -> Module:
    return free_module(algebra, 1, label=algebra.name)


def quiver_rep(alg: FDAlgebra, dims, arrows, label: str = "") -> Module:
    """The representation of alg's bound quiver with a dims[v]-dimensional
    space at each vertex v (0 where absent) and the dims[s] x dims[t]
    matrix arrows[a] over alg's field on each arrow a: s -> t (zero where
    absent).  Each basis path acts as the product of its arrows'
    matrices, in its (source, target) block.

    The relations are certified rather than every law: each basis path
    followed by an arrow that makes no basis path must act as zero.  Then
    every path outside the basis acts as zero, since the basis is closed
    under subpaths, and the basis paths multiply as in alg."""
    paths, f = alg.paths, alg.field
    size = {v: dims.get(v, 0) for v in sorted(s for _, s, _, w in paths
                                              if not w)}
    ends = {w[0]: (s, t) for _, s, t, w in paths if len(w) == 1}
    unknown = ({*arrows} - {*ends}) | ({*dims} - {*size})
    if unknown:
        raise ValueError(f"{alg.name} has no arrow or vertex "
                         f"{', '.join(sorted(map(str, unknown)))}")
    mats = {}
    for a, (s, t) in ends.items():
        m = arrows[a] if a in arrows else Matrix.zero(f, size[s], size[t])
        m = m if isinstance(m, Matrix) else Matrix.from_rows(f, m)
        if m.field != f:
            raise ValueError(f"arrow {a}: the matrix is over {m.field}, "
                             f"{alg.name} over {f}")
        if (m.rows, m.cols) != (size[s], size[t]):
            raise ValueError(f"arrow {a}: {s} -> {t} needs a {size[s]}x"
                             f"{size[t]} matrix, not {m.rows}x{m.cols}")
        mats[a] = m
    prod = {}  # (source, word) -> the product of the word's matrices
    for _, s, _, w in sorted(paths, key=lambda p: len(p[3])):
        prod[s, w] = (Matrix.identity(f, size[s]) if not w else
                      mats[w[0]] if len(w) == 1 else
                      prod[s, w[:-1]] * mats[w[-1]])
    for p, s, t, w in paths:
        for a, (s2, _) in ends.items():
            if s2 == t and (s, w + (a,)) not in prod and \
                    not (prod[s, w] * mats[a]).is_zero():
                raise ValueError(f"the path {p} followed by {a} is zero in "
                                 f"{alg.name} but not in the representation")
    band = {v: i for i, v in enumerate(size)}
    sizes = list(size.values())
    action = [block(f, sizes, sizes, {(band[s], band[t]): prod[s, w]})
              for _, s, t, w in paths]
    return Module(alg, action, label=label)


# -- hom spaces ------------------------------------------------------------


def _record_of(m: Module) -> _Record:
    """The record of M's content, found or made on first use and then kept
    on M (see the module docstring)."""
    rec = m._record
    if rec is None:
        key = (m.algebra, m.action)
        rec = _RECORDS.get(key)
        if rec is None:
            rec = _RECORDS[key] = _Record()
            if _HELD is not None:
                _HELD.append(rec)
        m._record = rec
    return rec


def hom_space(m: Module, n: Module) -> list[ModuleMap]:
    """Canonical (echelon) basis of Hom(M, N).

    It solves the intertwining equations of the algebra's generators only
    (see FDAlgebra.generators); the solutions are the same, and so is
    their echelon basis.  That basis is a function of the two contents
    alone, so its matrices are kept in the record of M's content, keyed
    by the serial of N's: every pair of modules content-equal to M and N
    shares them."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    homs, key = _record_of(m).homs, _record_of(n).serial
    mats = homs.get(key)
    if mats is None:
        # k itself has no generator; its one basis element acts as a scalar
        gens = m.algebra.generators or range(m.algebra.dim)
        mats = homs[key] = tuple(intertwiners(
            [m.action[g] for g in gens], [n.action[g] for g in gens],
            m.dim, n.dim))
    return [ModuleMap(m, n, mat, check=False) for mat in mats]


# -- duals -----------------------------------------------------------------


def k_dual(m: Module) -> Module:
    """Standard dual Hom(-, k): transpose the actions, flip to the opposite
    algebra (right modules over A.op are left A-modules)."""
    return Module(m.algebra.op, [a.transpose() for a in m.action],
                  label=(m.label + "*") if m.label else "")


# -- direct sums, submodules, quotients -------------------------------------


def direct_sum(mods: list[Module], label: str = "") -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Block sum with injections and projections."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra")
    alg = mods[0].algebra
    f = alg.field
    if any(m.algebra is not alg for m in mods):
        raise ValueError("summands over different algebras")
    action = [block_diagonal(f, [m.action[j] for m in mods])
              for j in range(alg.dim)]
    s = Module(alg, action,
               label=label or "+".join(m.label or "?" for m in mods))
    ident = Matrix.identity(f, s.dim)
    injs, projs = [], []
    off = 0
    for m in mods:
        block = range(off, off + m.dim)
        injs.append(ModuleMap(m, s, ident.take_rows(block), check=False))
        projs.append(ModuleMap(s, m, ident.take_cols(block), check=False))
        off += m.dim
    return s, injs, projs


def submodule(m: Module, s: Subspace) -> tuple[Module, ModuleMap]:
    """The submodule on an invariant subspace, with its inclusion; the
    caller guarantees invariance."""
    b = s.basis
    # coefficients over the RREF basis are read off at the pivot columns
    action = [(b * a).take_cols(s.pivots) for a in m.action]
    u = Module(m.algebra, action)
    return u, ModuleMap(u, m, b, check=False)


def quotient_module(m: Module, s: Subspace) -> tuple[Module, ModuleMap]:
    """The quotient by an invariant subspace, with its projection; the
    caller guarantees invariance."""
    pivots = set(s.pivots)
    # the non-pivot coordinates are those of the quotient
    nonpivots = [j for j in range(m.dim) if j not in pivots]
    proj = quotient_projection(s)
    action = [a.take_rows(nonpivots) * proj for a in m.action]
    q = Module(m.algebra, action)
    return q, ModuleMap(m, q, proj, check=False)


def kernel_subspace(f: ModuleMap) -> Subspace:
    return Subspace(f.mat.left_kernel())


# -- isomorphism testing -----------------------------------------------------


def indecomposable_iso(m: Module, n: Module) -> ModuleMap | None:
    """The first element of the hom_space basis that is an isomorphism
    M -> N, or None.

    Certified when M or N is indecomposable.  Then End(M) is local, and if
    g: N -> M is an isomorphism, f: M -> N is one exactly when f.g is a
    unit of End(M).  So the non-isomorphisms are the preimage of
    rad End(M) under the linear bijection f -> f.g, a proper subspace of
    Hom(M, N), and no basis of Hom(M, N) lies inside it.
    """
    if m.dim != n.dim:
        return None
    return next((h for h in hom_space(m, n) if h.is_iso()), None)


def iso_classes(mods: list[Module]) -> list[list[int]]:
    """Indices of indecomposables grouped by isomorphism, groups and
    members in order of first occurrence.  Each module is tested once
    against each group's first member, by indecomposable_iso (from the
    module to that member), until one matches."""
    groups: list[list[int]] = []
    for i, m in enumerate(mods):
        for g in groups:
            if indecomposable_iso(m, mods[g[0]]) is not None:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def iso_test(m: Module, n: Module) -> ModuleMap | None:
    """An isomorphism M -> N, or None when M and N are not isomorphic.

    The hom basis is scanned first (complete when a side is
    indecomposable, see indecomposable_iso).  Otherwise both modules are
    decomposed and their Krull-Schmidt summands matched, the isomorphism
    assembled from the matched pairs.  The answer is certified either way;
    an error from decompose propagates rather than becoming None.
    """
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return zero_map(m, n)
    iso = indecomposable_iso(m, n)
    if iso is not None or not hom_space(m, n):
        return iso
    from .decompose import decompose  # decompose imports this module
    free = decompose(n).summands
    mat = Matrix.zero(m.algebra.field, m.dim, n.dim)
    for sm in decompose(m).summands:
        for i, sn in enumerate(free):
            h = indecomposable_iso(sm.module, sn.module)
            if h is not None:
                mat = mat + sm.project.mat * h.mat * sn.inject.mat
                del free[i]
                break
        else:
            return None
    return ModuleMap(m, n, mat, check=False)


# -- presentations -----------------------------------------------------------


class Presentation:
    """M = coker(R^m -> R^s): the relation vectors of A^s and the free
    cover R^s -> M, which gives the algebra and s."""

    def __init__(self, relations: list, proj: ModuleMap):
        self.relations = relations  # relation vectors in A^ngens
        self.proj = proj            # free cover -> module

    @property
    def algebra(self) -> FDAlgebra:
        return self.proj.source.algebra

    @property
    def ngens(self) -> int:
        return self.proj.source.dim // self.algebra.dim

    def express(self, vec):
        """Algebra coefficients r_1..r_s with sum g_i . r_i = vec, or None."""
        alg = self.algebra
        f = alg.field
        # row i * dim A + t of the projection is the image of e_i (x) b_t
        sol = self.proj.mat.solve_left(Matrix.from_rows(f, [list(vec)]))
        if sol is None:
            return None
        coeffs = sol.data[0]
        return [tuple(coeffs[i * alg.dim:(i + 1) * alg.dim])
                for i in range(self.ngens)]


def _module_span(m: Module, vectors) -> Subspace:
    """Smallest action-invariant subspace containing the vectors.

    It is span{v.b : v a vector, b a basis element of A}, so one
    elimination of the stacked products finds it.  That space contains
    each v, because the unit is a combination of the basis and acts as
    the identity; and it is invariant, because (v.b).a = v.(ba) and ba is
    a combination of the basis."""
    f = m.algebra.field
    vecs = Matrix(f, len(vectors), m.dim, vectors)
    stacked = Matrix.zero(f, 0, m.dim)
    for a in m.action:
        stacked = stacked.vstack(vecs * a)
    return Subspace.from_matrix(stacked)


def top_of(m: Module, sub: Subspace | None = None
           ) -> tuple[list[int], list[tuple]]:
    """The top U / U rad A of the submodule U on the subspace sub of M
    (U = M when sub is None; the caller guarantees that sub is
    invariant, as for submodule): m_v copies of the simple at each vertex
    v, in idempotent path order, and lifts of a basis in M's coordinates,
    each in one U e_v.  U rad is the row space of the basis of U times the
    arrows, because every path of positive length ends in an arrow.  A
    lift is a vertex piece u.rho(e_v) of a basis row u of U outside U rad
    plus the lifts before it.  By Nakayama's lemma (Assem, Simson and
    Skowronski, *Elements* 1, I.5 and III.2) the sum(m_v) lifts are the
    fewest generators of U each in one vertex space; as few as max(m_v)
    general elements can generate U."""
    f, paths = m.algebra.field, m.algebra.paths
    idempotents = [a for a, p in zip(m.action, paths) if not p[3]]
    arrows = [a for a, p in zip(m.action, paths) if len(p[3]) == 1]
    if sub is not None:
        idempotents = [sub.basis * e for e in idempotents]
        arrows = [sub.basis * a for a in arrows]
    span = Subspace.from_matrix(block(f, [a.rows for a in arrows], [m.dim], {
        (i, 0): a for i, a in enumerate(arrows)}))
    mults, lifts = [0] * len(idempotents), []
    for pieces in zip(*(e.data for e in idempotents)):
        for v, piece in enumerate(pieces):
            if not span.contains_vector(piece):
                mults[v] += 1
                lifts.append(piece)
                span = Subspace.from_matrix(
                    span.basis.vstack(Matrix(f, 1, m.dim, [piece])))
    return mults, lifts


def presentation_of(m: Module) -> Presentation:
    """A presentation: the free cover A^s -> M on the lifts g_i of M's top,
    and as relations the lifts of the top of its kernel K (K holds each
    e_i (1 - e_v) with g_i in M e_v), read in A^s by top_of(A^s, K).
    Made once per module."""
    if m._presentation is not None:
        return m._presentation
    alg, f = m.algebra, m.algebra.field
    gens = top_of(m)[1]
    s = len(gens)
    free = free_module(alg, s)
    # free cover matrix: e_i (x) b_t -> g_i . b_t.  Row i of
    # G [rho(b_0) | ... | rho(b_last)] is g_i . b_0, ..., g_i . b_last side
    # by side, so the row-major reshape puts g_i . b_t at row i * dim A + t.
    actions = block(f, [m.dim], [m.dim] * alg.dim,
                    {(0, t): a for t, a in enumerate(m.action)})
    images = Matrix(f, s, m.dim, gens) * actions
    cover = ModuleMap(free, m, images.reshape(free.dim, m.dim), check=False)
    relations = [tuple(v[i * alg.dim:(i + 1) * alg.dim] for i in range(s))
                 for v in top_of(free, kernel_subspace(cover))[1]]
    # the cover itself presents m: its kernel is generated by the relations
    m._presentation = Presentation(relations, cover)
    return m._presentation
